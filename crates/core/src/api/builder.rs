//! Typed configuration: [`EstimationMethod`] and the [`MonitorBuilder`].

#[cfg(doc)]
use super::QoeEvent;
use super::{Monitor, OverflowPolicy, DEFAULT_QUEUE_CAPACITY};
#[cfg(doc)]
use crate::control::MonitorSnapshot;
use crate::engine::{EngineConfig, Method, MAX_WINDOW_SECS};
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::Timestamp;
use vcaml_rtp::{PayloadMap, VcaKind};

/// How a [`Monitor`] picks the estimation method for each flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMethod {
    /// Every flow gets the named method.
    Fixed(Method),
    /// RTP Heuristic for flows whose early packets parse as RTP with
    /// confidence (a monitor inside the application's trust boundary),
    /// IP/UDP Heuristic otherwise.
    AutoHeuristic,
    /// RTP ML when RTP parses with confidence, IP/UDP ML otherwise.
    AutoMl,
}

impl EstimationMethod {
    /// Whether per-flow probation is needed before the method is known.
    pub(super) fn is_auto(&self) -> bool {
        !matches!(self, EstimationMethod::Fixed(_))
    }

    /// The method used when RTP cannot be parsed confidently (and the
    /// factory default for fixed selection).
    pub(super) fn fallback(&self) -> Method {
        match self {
            EstimationMethod::Fixed(m) => *m,
            EstimationMethod::AutoHeuristic => Method::IpUdpHeuristic,
            EstimationMethod::AutoMl => Method::IpUdpMl,
        }
    }

    /// The method used when RTP parses with confidence.
    pub(super) fn preferred(&self) -> Method {
        match self {
            EstimationMethod::Fixed(m) => *m,
            EstimationMethod::AutoHeuristic => Method::RtpHeuristic,
            EstimationMethod::AutoMl => Method::RtpMl,
        }
    }
}

/// Typed configuration for a [`Monitor`].
///
/// Construct with [`MonitorBuilder::new`], chain the knobs you care
/// about, and [`MonitorBuilder::build`]. Every knob has a paper-faithful
/// default for the chosen VCA.
pub struct MonitorBuilder {
    pub(super) vca: VcaKind,
    pub(super) method: EstimationMethod,
    pub(super) config: EngineConfig,
    pub(super) payload_map: PayloadMap,
    pub(super) model: Option<RandomForest>,
    pub(super) threads: usize,
    pub(super) queue_capacity: usize,
    pub(super) overflow: OverflowPolicy,
    pub(super) idle_timeout: Timestamp,
    pub(super) flush_after: Option<u32>,
}

impl MonitorBuilder {
    /// Starts from the paper's configuration for a VCA: auto method
    /// selection (RTP when it parses, IP/UDP otherwise), 1-second
    /// windows, one thread, a [`DEFAULT_QUEUE_CAPACITY`]-event queue with
    /// [`OverflowPolicy::Block`], 60-second idle eviction, no max-lag
    /// flush.
    pub fn new(vca: VcaKind) -> Self {
        MonitorBuilder {
            vca,
            method: EstimationMethod::AutoHeuristic,
            config: EngineConfig::paper(vca),
            payload_map: PayloadMap::lab(vca),
            model: None,
            threads: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            overflow: OverflowPolicy::Block,
            idle_timeout: Timestamp::from_secs(60),
            flush_after: None,
        }
    }

    /// Selects the estimation method (fixed, or RTP-confidence auto).
    pub fn method(mut self, method: EstimationMethod) -> Self {
        self.method = method;
        self
    }

    /// Prediction window length in seconds (default 1), at most
    /// [`MAX_WINDOW_SECS`].
    pub fn window_secs(mut self, secs: u32) -> Self {
        assert!(secs > 0, "zero window");
        assert!(
            secs <= MAX_WINDOW_SECS,
            "window of {secs} s over MAX_WINDOW_SECS"
        );
        self.config.window_secs = secs;
        self
    }

    /// Payload-type → media mapping for the RTP methods (default: the
    /// lab mapping of the chosen VCA).
    pub fn payload_map(mut self, map: PayloadMap) -> Self {
        self.payload_map = map;
        self
    }

    /// Attaches a trained frame-rate model; ML engines include its
    /// prediction in every report. One forest per monitor, shared by
    /// every shard and flow: cloning a [`RandomForest`] shares its trees,
    /// so per-flow state stays one window's content and the forest is
    /// reported once, as [`MonitorSnapshot::model_bytes`].
    pub fn model(mut self, model: RandomForest) -> Self {
        self.model = Some(model);
        self
    }

    /// Number of shard worker threads (default 1 = fully inline, no
    /// threads spawned). With `n ≥ 2` the monitor hashes each packet's
    /// flow to one of `n` dedicated shard workers over a bounded channel;
    /// each worker runs its flows' engines, windowing, probation, and
    /// idle eviction independently, and the merged event stream preserves
    /// per-flow ordering (a flow lives on exactly one worker). Workers
    /// park on a full [`OverflowPolicy::Block`] queue only while a
    /// [`MonitorRunner`](crate::runner::MonitorRunner) drains it; a
    /// threaded monitor driven through its own front doors grows its
    /// queue past the bound instead, as an inline one does.
    ///
    /// `n == 0` means *auto*: size the workers from
    /// [`std::thread::available_parallelism`] at [`MonitorBuilder::build`]
    /// time (1 worker per core, inline when only one core is visible).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Bound on the outgoing event queue, in events (default
    /// [`DEFAULT_QUEUE_CAPACITY`]). Also sizes the per-worker ingest
    /// channels of a threaded monitor, so one knob controls end-to-end
    /// buffering. What happens at the bound is the
    /// [`MonitorBuilder::overflow`] policy; under
    /// [`OverflowPolicy::Block`] it holds only while a
    /// [`MonitorRunner`](crate::runner::MonitorRunner) drains, and a
    /// monitor driven through its own front doors grows past it.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n >= 1, "zero queue capacity");
        self.queue_capacity = n;
        self
    }

    /// Overflow policy of the bounded event queue (default
    /// [`OverflowPolicy::Block`]): park shard workers until a
    /// [`MonitorRunner`](crate::runner::MonitorRunner)'s concurrent drain
    /// makes room (a monitor driven through its own front doors, which
    /// is its own drainer, grows past the bound instead), or drop the
    /// oldest events and account for them with a [`QoeEvent::Dropped`]
    /// marker.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Evicts flows with no packet for this long, sealing their final
    /// windows into a [`QoeEvent::FlowEvicted`] (default 60 s).
    pub fn idle_timeout(mut self, timeout: Timestamp) -> Self {
        assert!(timeout.as_micros() > 0, "non-positive idle timeout");
        self.idle_timeout = timeout;
        self
    }

    /// Max-lag flush: after `k` packets on a flow without a finalized
    /// window, emit provisional snapshots of its pending windows (marked
    /// `provisional`; a later final report supersedes them). Default off —
    /// exactness-first consumers see only final windows.
    pub fn flush_after_packets(mut self, k: u32) -> Self {
        assert!(k > 0, "zero flush threshold");
        self.flush_after = Some(k);
        self
    }

    /// Constructs the monitor, spawning its shard workers when
    /// [`MonitorBuilder::threads`] resolves to ≥ 2 (`threads(0)` sizes
    /// them from [`std::thread::available_parallelism`]).
    ///
    /// # Panics
    /// When the method can build an ML engine and the attached forest
    /// was fitted on more features than the narrowest vector those
    /// engines build (14 under IP/UDP ML or [`EstimationMethod::AutoMl`],
    /// 24 under RTP ML): it would read past the vector at a flow's first
    /// sealed window, on every shard.
    pub fn build(self) -> Monitor {
        let narrowest = [self.method.fallback(), self.method.preferred()]
            .iter()
            .filter_map(Method::feature_width)
            .min();
        if let (Some(model), Some(narrowest)) = (&self.model, narrowest) {
            let width = model.feature_importances().len();
            assert!(
                width <= narrowest,
                "a forest fitted on {width} features reads past the {narrowest}-feature vector of {:?}",
                self.method
            );
        }
        Monitor::start(self)
    }
}

impl std::fmt::Debug for MonitorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorBuilder")
            .field("vca", &self.vca)
            .field("method", &self.method)
            .field("window_secs", &self.config.window_secs)
            .field("threads", &self.threads)
            .field("queue_capacity", &self.queue_capacity)
            .field("overflow", &self.overflow)
            .field("idle_timeout_us", &self.idle_timeout.as_micros())
            .field("flush_after", &self.flush_after)
            .finish_non_exhaustive()
    }
}
