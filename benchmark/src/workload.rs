//! The five workloads: what each feeds the monitor, how the monitor is
//! configured, the oracle pass that says what must come out, and one
//! replay (an *operation*) with its output checks.

use crate::alloc::{self, Counted};
use crate::gen::{self, fnv1a, Image, FNV_OFFSET, VCA};
use std::collections::HashMap;
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vcaml::sink::report_fps;
use vcaml::{
    EstimationMethod, EventSink, JsonLinesSink, Method, MonitorBuilder, MonitorHandle,
    MonitorRunner, MonitorStats, PacketSource, PcapFileSource, PipelineOpts, QoeEvent,
    RunnerReport, SourcePacket,
};
use vcaml_datasets::{inlab_corpus, CorpusConfig};
use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_netpkt::{Error as NetError, FlowKey, Timestamp};

/// Replay speed of `live_paced` relative to capture time.
pub const LIVE_SPEED: f64 = 20.0;
/// A packet handed over later than this after its due time is *late*.
const LATE: Duration = Duration::from_millis(1);
/// Share of late packets at which a paced replay is a failed operation,
/// not a fast one: the generator ran behind for most of the replay, so
/// the loop was no longer open. A lower bar cannot hold on a shared
/// two-core box, where one 50 ms scheduling stall makes 3 % of a replay
/// late; the share itself is reported as a metric.
const MAX_LATE_SHARE: f64 = 0.5;
/// Mean absolute frame-rate error above which the monitor's estimates
/// are taken to be wrong, not merely worse: the paper's methods stay
/// within a few frames per second.
const MAX_FPS_MAE: f64 = 8.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CallsHeuristic,
    CallsMl,
    FlowChurn,
    TapMixed,
    LivePaced,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::CallsHeuristic,
        Kind::CallsMl,
        Kind::FlowChurn,
        Kind::TapMixed,
        Kind::LivePaced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CallsHeuristic => "calls_heuristic",
            Kind::CallsMl => "calls_ml",
            Kind::FlowChurn => "flow_churn",
            Kind::TapMixed => "tap_mixed",
            Kind::LivePaced => "live_paced",
        }
    }

    /// Why the workload is in the set (recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::CallsHeuristic => "16 concurrent calls, fixed IP/UDP heuristic: the paper's no-RTP deployment; pcap read, parse and frame assembly do nearly all the work and few events reach bus and sink",
            Kind::CallsMl => "the same capture, IP/UDP ML with a 40-tree forest: adds feature accumulation, predict and 14-float reports, so a features, mlcore or serializer change shows here and not on calls_heuristic",
            Kind::FlowChurn => "40000 twelve-packet flows around 8 calls, 5 s idle timeout: the flow table is inserted into, swept and evicted, and lifecycle events make seal, bus and sink matter",
            Kind::TapMixed => "8 calls under 70% non-ingestable records plus IPv6 and short flows, builder defaults (auto method): reject paths, RTP probation and one ParseDrop event per dropped record dominate",
            Kind::LivePaced => "the calls capture through an open-loop paced live source at 20x with 2 workers: per-packet port flush, shard channels and the 200 us drain poll, which closed-loop runs bypass",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How the workload itself drives the monitor.
    pub fn drive(self) -> Drive {
        match self {
            Kind::LivePaced => Drive {
                threads: 2,
                feed: Feed::Paced(LIVE_SPEED),
            },
            _ => Drive::INLINE,
        }
    }

    /// Warm-up replays before the timed ones. A paced replay takes 1.5 s
    /// whatever the code does, so it gets one.
    pub fn warmups(self) -> usize {
        match self {
            Kind::LivePaced => 1,
            _ => 3,
        }
    }

    /// Whether the monitor attempts an RTP parse on every datagram.
    pub fn wants_rtp(self) -> bool {
        self == Kind::TapMixed
    }

    /// The method every flow resolves to (`tap_mixed` flows carry RTP,
    /// so its auto selection lands on the RTP heuristic for calls).
    pub fn fixed_method(self) -> Option<Method> {
        match self {
            Kind::CallsMl => Some(Method::IpUdpMl),
            Kind::TapMixed => None,
            _ => Some(Method::IpUdpHeuristic),
        }
    }

    /// `flow_churn` evicts early; the others keep the builder's default.
    pub fn idle_timeout(self) -> Timestamp {
        match self {
            Kind::FlowChurn => Timestamp::from_secs(5),
            _ => Timestamp::from_secs(60),
        }
    }
}

/// Worker threads and how packets are handed over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drive {
    pub threads: usize,
    pub feed: Feed,
}

impl Drive {
    /// Closed loop on the caller's thread: no workers, no channels.
    pub const INLINE: Drive = Drive {
        threads: 1,
        feed: Feed::Batch,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feed {
    /// As fast as possible; the runner batches ingest hand-over.
    Batch,
    /// As fast as possible, but announced as live: per-packet hand-over.
    LiveUnpaced,
    /// Open loop: each packet is due at its capture time ÷ speed.
    Paced(f64),
}

/// Everything set-up produces for one workload and seed.
pub struct Prepared {
    pub kind: Kind,
    pub image: Image,
    pub model: Option<RandomForest>,
    pub oracle: Oracle,
}

/// What one inline pass over the image published — the reference every
/// replay is checked against.
pub struct Oracle {
    /// Events published.
    pub events: u64,
    pub final_windows: u64,
    pub digest: u64,
    pub json_bytes: u64,
    pub stats: MonitorStats,
    /// For each final window published while packets were still being
    /// read: the index of the record whose ingestion published it.
    /// Windows sealed by end of stream have no trigger.
    pub triggers: HashMap<(FlowKey, u64), u32>,
    /// The distinct values of `triggers`, ascending.
    pub trigger_records: Arc<[u32]>,
    /// Mean |estimate − truth| frames per second over paired windows.
    pub fps_mae: f64,
    pub paired_windows: u64,
}

/// The monitor configuration of a workload, at a given thread count.
pub fn builder(kind: Kind, model: Option<&RandomForest>, threads: usize) -> MonitorBuilder {
    let b = MonitorBuilder::new(VCA).threads(threads);
    let b = match kind.fixed_method() {
        Some(method) => b.method(EstimationMethod::Fixed(method)),
        None => b,
    };
    let b = b.idle_timeout(kind.idle_timeout());
    match model {
        Some(m) => b.model(m.clone()),
        None => b,
    }
}

/// A 40-tree frame-rate forest fitted on a seeded in-lab corpus.
pub fn fit_model(seed: u64) -> RandomForest {
    // Eighteen calls of one length, and leaves of at least eight samples:
    // with six calls of 20 to 30 s and the default leaves, `fps_mae`
    // differed by 20 % between seeds and the size of the forest — which
    // every flow holds a copy of — by 10 %; so they differ by about 5 %.
    let corpus = CorpusConfig {
        n_calls: 18,
        min_secs: 30,
        max_secs: 30,
        seed: seed ^ 0x1ab_c0de,
    };
    let traces = inlab_corpus(VCA, &corpus);
    let set = vcaml::build_samples(&traces, &PipelineOpts::paper(VCA));
    let mut data = Dataset::new(set.ipudp_names.clone());
    for s in &set.samples {
        data.push(&s.ipudp_features, s.truth.fps);
    }
    let params = RandomForestParams {
        n_trees: 40,
        min_samples_leaf: 8,
        seed,
        ..Default::default()
    };
    RandomForest::fit(&data, Task::Regression, &params)
}

/// Set-up: generates the image, fits the model if the workload has one,
/// and runs the oracle pass.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    let image = match kind {
        Kind::CallsHeuristic | Kind::CallsMl | Kind::LivePaced => gen::calls_image(seed),
        Kind::FlowChurn => gen::churn_image(seed),
        Kind::TapMixed => gen::tap_image(seed),
    };
    prepare_image(kind, image, seed)
}

/// [`prepare`] over a given image.
pub fn prepare_image(kind: Kind, image: Image, seed: u64) -> Prepared {
    let model = (kind == Kind::CallsMl).then(|| fit_model(seed));
    let oracle = oracle_pass(kind, &image, model.as_ref());
    Prepared {
        kind,
        image,
        model,
        oracle,
    }
}

pub fn pcap_source(image: &Image) -> PcapFileSource<Cursor<Arc<[u8]>>> {
    PcapFileSource::new(Cursor::new(Arc::clone(&image.bytes)))
        .expect("generated image starts with a pcap header")
}

/// One inline pass, draining after every record, so each event is
/// attributed to the record that published it.
fn oracle_pass(kind: Kind, image: &Image, model: Option<&RandomForest>) -> Oracle {
    let mut monitor = builder(kind, model, 1).build();
    let handle = monitor.handle();
    let mut source = pcap_source(image);
    let mut sink = JsonLinesSink::new(DigestWriter::default());
    let mut events = 0u64;
    let mut triggers = HashMap::new();
    let mut final_windows = 0u64;
    let mut abs_err = 0.0;
    let mut paired_windows = 0u64;
    let mut observe = |event: Arc<QoeEvent>, record: Option<u32>| {
        sink.on_event(&event);
        if let Some(flow) = event.flow() {
            for report in event.final_reports() {
                final_windows += 1;
                if let Some(record) = record {
                    let again = triggers.insert((flow, report.window), record);
                    assert!(again.is_none(), "window finalized twice");
                }
                let truth = image
                    .truth
                    .get(&flow)
                    .and_then(|fps| fps.get(report.window as usize));
                if let (Some(truth), Some(estimate)) = (truth, report_fps(report)) {
                    abs_err += (estimate - truth).abs();
                    paired_windows += 1;
                }
            }
        }
        events += 1;
    };
    let mut record = 0u32;
    while let Some(SourcePacket::Record { link, record: rec }) =
        source.next_packet().expect("generated image reads cleanly")
    {
        monitor.ingest_pcap_record(link, &rec);
        for event in monitor.drain_shared() {
            observe(event, Some(record));
        }
        record += 1;
    }
    for event in monitor.finish_shared() {
        observe(event, None);
    }
    let mut trigger_records: Vec<u32> = triggers.values().copied().collect();
    trigger_records.sort_unstable();
    trigger_records.dedup();
    let written = sink.into_inner();
    Oracle {
        events,
        final_windows,
        digest: written.digest,
        json_bytes: written.bytes,
        stats: handle.stats_snapshot().stats,
        triggers,
        trigger_records: trigger_records.into(),
        fps_mae: abs_err / paired_windows.max(1) as f64,
        paired_windows,
    }
}

/// A writer that keeps no bytes: it counts them and folds each line into
/// an order-independent digest (wrapping sum of per-line FNV-1a), so a
/// threaded run, which may interleave flows differently, still compares
/// equal to the inline oracle.
#[derive(Debug, Clone, Copy)]
pub struct DigestWriter {
    pub bytes: u64,
    pub digest: u64,
    line: u64,
}

impl Default for DigestWriter {
    fn default() -> Self {
        DigestWriter {
            bytes: 0,
            digest: 0,
            line: FNV_OFFSET,
        }
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            self.line = fnv1a(self.line, piece);
            if piece.ends_with(b"\n") {
                self.digest = self.digest.wrapping_add(self.line);
                self.line = FNV_OFFSET;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the source saw, handed back when the stream ends.
#[derive(Debug, Default)]
pub struct SourceOutcome {
    /// One instant per oracle trigger record, in record order: when the
    /// packet was due (paced) or handed over (otherwise).
    pub stamps: Vec<Instant>,
    /// Paced only: how long after its due time each packet was handed
    /// over, in nanoseconds.
    pub late_ns: Vec<u64>,
}

/// The benchmark's own `PacketSource`: a `PcapFileSource` over the
/// in-memory image, optionally announced as live and optionally paced
/// open-loop (it sleeps until each packet's due time and never hands one
/// over early), that stamps the records the oracle named as triggers.
struct ImageSource {
    inner: PcapFileSource<Cursor<Arc<[u8]>>>,
    feed: Feed,
    triggers: Arc<[u32]>,
    next_trigger: usize,
    record: u32,
    epoch: Option<(Instant, Timestamp)>,
    seen: SourceOutcome,
    out: Arc<Mutex<SourceOutcome>>,
}

impl PacketSource for ImageSource {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        let Some(pkt) = self.inner.next_packet()? else {
            *self.out.lock().expect("source outcome lock") = std::mem::take(&mut self.seen);
            return Ok(None);
        };
        let is_trigger = self.triggers.get(self.next_trigger) == Some(&self.record);
        if is_trigger {
            self.next_trigger += 1;
        }
        self.record += 1;
        match self.feed {
            Feed::Paced(speed) => {
                let (start, first) = *self.epoch.get_or_insert((Instant::now(), pkt.ts()));
                let stream_us = (pkt.ts() - first).as_micros().max(0) as f64;
                let due = start + Duration::from_secs_f64(stream_us / speed / 1e6);
                // Sleep, never spin: on two cores a spinning generator
                // competes with the monitor's own threads, and its CPU
                // time would drown theirs in `cpu_s_per_mpkt`.
                if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(ahead);
                }
                let now = Instant::now();
                self.seen
                    .late_ns
                    .push(now.saturating_duration_since(due).as_nanos() as u64);
                if is_trigger {
                    self.seen.stamps.push(due);
                }
            }
            Feed::Batch | Feed::LiveUnpaced => {
                if is_trigger {
                    self.seen.stamps.push(Instant::now());
                }
            }
        }
        Ok(Some(pkt))
    }

    fn is_live(&self) -> bool {
        self.feed != Feed::Batch
    }
}

/// What the sink saw, handed back by `flush`.
#[derive(Debug, Default)]
pub struct SinkOutcome {
    pub events: u64,
    pub final_windows: u64,
    pub dropped_markers: u64,
    pub json_bytes: u64,
    pub digest: u64,
    /// `(flow, window, when the serialized line had been written)` of
    /// every final window.
    pub arrivals: Vec<(FlowKey, u64, Instant)>,
}

/// `JsonLinesSink` over a [`DigestWriter`], plus the counts and arrival
/// times the output checks and the lag metric need.
pub struct CheckedSink {
    json: JsonLinesSink<DigestWriter>,
    seen: SinkOutcome,
    out: Arc<Mutex<SinkOutcome>>,
}

impl EventSink for CheckedSink {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        self.json.on_event(event);
        self.seen.events += 1;
        if matches!(**event, QoeEvent::Dropped { .. }) {
            self.seen.dropped_markers += 1;
        }
        if let Some(flow) = event.flow() {
            let reports = event.final_reports();
            if !reports.is_empty() {
                let now = Instant::now();
                self.seen.final_windows += reports.len() as u64;
                self.seen
                    .arrivals
                    .extend(reports.iter().map(|r| (flow, r.window, now)));
            }
        }
    }

    fn flush(&mut self) {
        let mut seen = std::mem::take(&mut self.seen);
        let written =
            std::mem::replace(&mut self.json, JsonLinesSink::new(DigestWriter::default()))
                .into_inner();
        seen.json_bytes = written.bytes;
        seen.digest = written.digest;
        *self.out.lock().expect("sink outcome lock") = seen;
    }
}

/// A fresh [`CheckedSink`] sized for one replay of `p`, and where its
/// outcome will appear when it is flushed.
pub fn checked_sink(p: &Prepared) -> (CheckedSink, Arc<Mutex<SinkOutcome>>) {
    let out = Arc::new(Mutex::new(SinkOutcome::default()));
    let sink = CheckedSink {
        json: JsonLinesSink::new(DigestWriter::default()),
        seen: SinkOutcome {
            arrivals: Vec::with_capacity(p.oracle.final_windows as usize),
            ..Default::default()
        },
        out: Arc::clone(&out),
    };
    (sink, out)
}

/// One sample of the control plane taken from inside the run.
#[derive(Debug, Clone)]
pub struct ProbeSample {
    pub flows_live: u64,
    pub snapshot: Duration,
    pub render: Duration,
}

/// A second subscriber holding a `MonitorHandle`: every `every` events
/// it times `stats_snapshot()` and `render_openmetrics`, and keeps the
/// sample taken at the most live flows — the scrape a daemon would
/// serve at that moment.
pub struct ProbeSink {
    handle: MonitorHandle,
    every: u64,
    events: u64,
    best: Option<ProbeSample>,
    out: Arc<Mutex<Option<ProbeSample>>>,
}

impl EventSink for ProbeSink {
    fn on_event(&mut self, _event: &Arc<QoeEvent>) {
        self.events += 1;
        if !self.events.is_multiple_of(self.every) {
            return;
        }
        let t0 = Instant::now();
        let snap = self.handle.stats_snapshot();
        let t1 = Instant::now();
        let text = vcaml::daemon::render_openmetrics(&snap);
        let t2 = Instant::now();
        std::hint::black_box(text);
        if self
            .best
            .as_ref()
            .is_none_or(|b| snap.flows_live >= b.flows_live)
        {
            self.best = Some(ProbeSample {
                flows_live: snap.flows_live,
                snapshot: t1 - t0,
                render: t2 - t1,
            });
        }
    }

    fn flush(&mut self) {
        *self.out.lock().expect("probe outcome lock") = self.best.take();
    }
}

/// One replay's measurements and verdict.
pub struct Replay {
    pub wall: Duration,
    pub report: RunnerReport,
    pub source: SourceOutcome,
    pub sink: SinkOutcome,
    pub probe: Option<ProbeSample>,
    /// Heap traffic of the run itself, when it was counted.
    pub counted: Option<Counted>,
    /// Why the operation failed its output checks, if it did.
    pub failure: Option<String>,
}

impl Replay {
    /// Microseconds from each trigger packet's stamp to its window's
    /// serialized line.
    pub fn lags_us(&self, oracle: &Oracle) -> Vec<f64> {
        self.sink
            .arrivals
            .iter()
            .filter_map(|(flow, window, arrived)| {
                let record = oracle.triggers.get(&(*flow, *window))?;
                let at = oracle.trigger_records.binary_search(record).ok()?;
                let stamp = self.source.stamps.get(at)?;
                Some(arrived.saturating_duration_since(*stamp).as_nanos() as f64 / 1e3)
            })
            .collect()
    }

    pub fn late_share(&self) -> f64 {
        let late = self
            .source
            .late_ns
            .iter()
            .filter(|&&ns| ns > LATE.as_nanos() as u64)
            .count();
        late as f64 / self.source.late_ns.len().max(1) as f64
    }
}

/// What a replay carries besides the workload's own source and sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extras {
    /// Count heap traffic from just before the runner is built until it
    /// returns — after the benchmark's own buffers are reserved, so they
    /// stay out of the monitor's figures.
    pub count_allocs: bool,
    /// Add the control-plane subscriber.
    pub probe: bool,
}

/// Runs the image once through source → `MonitorRunner` → sink and
/// checks what came out.
pub fn replay(p: &Prepared, drive: Drive, extras: Extras) -> Replay {
    let source_out = Arc::new(Mutex::new(SourceOutcome::default()));
    let probe_out = Arc::new(Mutex::new(None));
    let source = ImageSource {
        inner: pcap_source(&p.image),
        feed: drive.feed,
        triggers: Arc::clone(&p.oracle.trigger_records),
        next_trigger: 0,
        record: 0,
        epoch: None,
        seen: SourceOutcome {
            stamps: Vec::with_capacity(p.oracle.trigger_records.len()),
            late_ns: match drive.feed {
                Feed::Paced(_) => Vec::with_capacity(p.image.records as usize),
                _ => Vec::new(),
            },
        },
        out: Arc::clone(&source_out),
    };
    let (sink, sink_out) = checked_sink(p);

    if extras.count_allocs {
        alloc::start();
    }
    let started = Instant::now();
    let mut runner = MonitorRunner::new(builder(p.kind, p.model.as_ref(), drive.threads))
        .source(source)
        .sink(sink);
    if extras.probe {
        runner = {
            let handle = runner.handle();
            runner.sink(ProbeSink {
                handle,
                every: (p.oracle.events / 64).max(1),
                events: 0,
                best: None,
                out: Arc::clone(&probe_out),
            })
        };
    }
    let report = runner.run();
    let wall = started.elapsed();
    let counted = extras.count_allocs.then(alloc::stop);

    let source = std::mem::take(&mut *source_out.lock().expect("source outcome lock"));
    let sink = std::mem::take(&mut *sink_out.lock().expect("sink outcome lock"));
    let probe = probe_out.lock().expect("probe outcome lock").take();
    let mut replay = Replay {
        wall,
        report,
        source,
        sink,
        probe,
        counted,
        failure: None,
    };
    replay.failure = check(p, drive, &replay).err();
    replay
}

/// The output checks of one operation. The digest, being a sum over
/// lines, holds for a threaded run of a workload whose events do not
/// depend on shard-local clocks; `flow_churn`'s idle sweeps do, so off
/// its own (inline) drive only its counts are compared.
fn check(p: &Prepared, drive: Drive, r: &Replay) -> Result<(), String> {
    let o = &p.oracle;
    let stats = &r.report.stats;
    let ensure = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    ensure(
        r.report.sources.len() == 1
            && r.report.sources[0].error.is_none()
            && r.report.sources[0].packets == p.image.records,
        format!("source read {:?} of {}", r.report.sources, p.image.records),
    )?;
    ensure(
        stats.packets + stats.parse_drops == p.image.records,
        format!(
            "{} packets + {} drops != {} offered",
            stats.packets, stats.parse_drops, p.image.records
        ),
    )?;
    ensure(
        stats.parse_drops == p.image.rejects,
        format!(
            "{} parse drops, {} generated",
            stats.parse_drops, p.image.rejects
        ),
    )?;
    ensure(
        stats.flows_opened == p.image.flows,
        format!(
            "{} flows opened, {} generated",
            stats.flows_opened, p.image.flows
        ),
    )?;
    ensure(
        o.paired_windows > 0 && o.fps_mae < MAX_FPS_MAE,
        format!(
            "frame-rate error {:.2} fps over {} windows",
            o.fps_mae, o.paired_windows
        ),
    )?;
    ensure(
        stats.events_dropped == 0 && r.sink.dropped_markers == 0,
        format!("{} events dropped", stats.events_dropped),
    )?;
    ensure(
        r.sink.final_windows == o.final_windows,
        format!(
            "{} final windows, oracle {}",
            r.sink.final_windows, o.final_windows
        ),
    )?;
    if drive.threads == 1 || p.kind != Kind::FlowChurn {
        ensure(
            r.sink.events == o.events && r.report.events == r.sink.events,
            format!("{} events, oracle {}", r.sink.events, o.events),
        )?;
        ensure(
            r.sink.digest == o.digest && r.sink.json_bytes == o.json_bytes,
            format!("digest {:x}, oracle {:x}", r.sink.digest, o.digest),
        )?;
    }
    if matches!(drive.feed, Feed::Paced(_)) {
        ensure(
            r.late_share() < MAX_LATE_SHARE,
            format!(
                "{:.0}% of packets handed over > 1 ms late",
                100.0 * r.late_share()
            ),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_per_line_and_order_independent() {
        let mut a = DigestWriter::default();
        a.write_all(b"{\"x\":1}\n{\"y\":").unwrap();
        a.write_all(b"2}\n").unwrap();
        let mut b = DigestWriter::default();
        b.write_all(b"{\"y\":2}\n{\"x\":1}\n").unwrap();
        assert_eq!((a.bytes, a.digest), (b.bytes, b.digest));
        let mut c = DigestWriter::default();
        c.write_all(b"{\"x\":1}\n{\"y\":3}\n").unwrap();
        assert_ne!(a.digest, c.digest);
    }

    /// Every final window the inline oracle published while records were
    /// still being read is attributed to a trigger record (the rest were
    /// sealed by end of stream), and a replay stamps every trigger.
    #[test]
    fn every_window_published_mid_stream_has_a_stamped_trigger() {
        let image = gen::small_image(5);
        let oracle = oracle_pass(Kind::TapMixed, &image, None);
        assert!(oracle.final_windows > 0);
        assert!(!oracle.triggers.is_empty());
        assert!(oracle.triggers.len() as u64 <= oracle.final_windows);
        assert!(oracle.paired_windows > 0 && oracle.fps_mae.is_finite());
        for record in oracle.triggers.values() {
            assert!(oracle.trigger_records.binary_search(record).is_ok());
            assert!(u64::from(*record) < image.records);
        }
        let p = Prepared {
            kind: Kind::TapMixed,
            image,
            model: None,
            oracle,
        };
        let r = replay(&p, Kind::TapMixed.drive(), Extras::default());
        assert_eq!(r.failure, None);
        assert_eq!(r.source.stamps.len(), p.oracle.trigger_records.len());
        assert_eq!(r.lags_us(&p.oracle).len(), p.oracle.triggers.len());
    }

    /// An operation whose output differs from what the generator and the
    /// oracle say must come out is a failed one.
    #[test]
    fn a_replay_that_disagrees_with_generator_or_oracle_fails() {
        let mut p = prepare_image(Kind::TapMixed, gen::small_image(9), 9);
        let failure = |p: &Prepared| replay(p, Kind::TapMixed.drive(), Extras::default()).failure;
        assert_eq!(failure(&p), None);
        p.oracle.digest ^= 1;
        assert!(failure(&p).is_some_and(|why| why.contains("digest")));
        p.oracle.digest ^= 1;
        p.image.rejects += 1;
        assert!(failure(&p).is_some_and(|why| why.contains("parse drops")));
        p.image.rejects -= 1;
        p.image.flows -= 1;
        assert!(failure(&p).is_some_and(|why| why.contains("flows opened")));
    }
}
