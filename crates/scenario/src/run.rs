//! Drives one grid cell through the production ingestion path: a
//! [`PcapFileSource`] over the cell's rendered capture (or a
//! [`ReplaySource`] over a dataset trace) feeding a
//! [`MonitorRunner`]-wrapped monitor with the method under test, reports
//! collected from the event bus.

use std::io::Cursor;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

use crate::model::VcaModels;
use crate::spec::{cell_seed, ScenarioKind, ScenarioSpec};
use crate::truth::{self, WindowTruth};
use vcaml::{
    EstimationMethod, EventSink, Method, MonitorBuilder, MonitorRunner, PcapFileSource, QoeEvent,
    ReplaySource, Trace, WindowReport,
};
use vcaml_netpkt::{CapturedPacket, FlowKey};
use vcaml_rtp::{PayloadMap, VcaKind};
use vcaml_vcasim::{render_pcap, VcaProfile};

/// One cell's prepared traffic: ground truth plus the replay feed every
/// method observes identically.
pub struct Prepared {
    /// Per-window ground truth.
    pub truth: Vec<WindowTruth>,
    /// The VCA under test.
    pub vca: VcaKind,
    /// Payload map the monitor must parse RTP with.
    pub payload_map: PayloadMap,
    feed: Feed,
}

enum Feed {
    /// A simulated session's capture as a pcap image.
    Pcap(Arc<[u8]>),
    Trace(Box<Trace>),
}

/// Builds the cell's traffic once (session or dataset trace, with any
/// tap-side perturbations applied), so all four methods score the same
/// packets.
pub fn prepare(spec: &ScenarioSpec, grid_seed: u64) -> Prepared {
    let seed = cell_seed(grid_seed, spec.name);
    match &spec.kind {
        ScenarioKind::Sim { build, perturb } => {
            let session = build(seed);
            let truth = truth::from_session(&session);
            let mut captured = session.to_captured();
            if !perturb.is_empty() {
                let timed: Vec<_> = captured.into_iter().map(|p| (p.ts, p.datagram)).collect();
                let shaped = vcaml_netem::Perturber::new(perturb.to_vec(), seed).apply(timed);
                captured = shaped
                    .into_iter()
                    .map(|(ts, datagram)| CapturedPacket { ts, datagram })
                    .collect();
            }
            #[expect(
                clippy::expect_used,
                reason = "simulated IPv4 datagrams, perturbed only forward in time, always render"
            )]
            let image = render_pcap(&captured).expect("a simulated capture renders");
            Prepared {
                truth,
                vca: spec.vca,
                payload_map: VcaProfile::lab(spec.vca).payload_map,
                feed: Feed::Pcap(image.into()),
            }
        }
        ScenarioKind::Dataset { build } => {
            let trace = build(seed);
            Prepared {
                truth: truth::from_trace(&trace),
                vca: spec.vca,
                payload_map: trace.payload_map,
                feed: Feed::Trace(Box::new(trace)),
            }
        }
    }
}

/// One window's estimate after method-specific decoding (heuristic
/// estimates or forest predictions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEst {
    /// Monitor window index.
    pub window: u64,
    /// Estimated frames per second.
    pub fps: f64,
    /// Estimated bitrate, kbps.
    pub bitrate_kbps: f64,
}

/// Collects finalized window reports off the event bus. Uses
/// `final_reports()` so every report is seen exactly once (steady-state
/// reports as they finalize, tail reports at eviction).
struct Collect(Arc<Mutex<Vec<WindowReport>>>);

impl EventSink for Collect {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        let mut out = match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for report in event.final_reports() {
            out.push(report.clone());
        }
    }
}

fn replay_flow_key() -> FlowKey {
    FlowKey::canonical(
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, 1)),
        1,
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, 2)),
        2,
        17,
    )
    .0
}

/// Runs `method` over the prepared traffic through the production
/// `MonitorRunner` path and decodes per-window estimates.
pub fn run_method(
    prep: &Prepared,
    method: Method,
    models: &VcaModels,
    threads: usize,
) -> Vec<WindowEst> {
    let mut builder = MonitorBuilder::new(prep.vca)
        .method(EstimationMethod::Fixed(method))
        .payload_map(prep.payload_map)
        .threads(threads.max(1));
    if method.is_ml() {
        let fps_model = match method {
            Method::RtpMl => models.rtp_fps.clone(),
            Method::IpUdpMl => models.ipudp_fps.clone(),
            Method::RtpHeuristic | Method::IpUdpHeuristic => {
                unreachable!("is_ml() gated")
            }
        };
        builder = builder.model(fps_model);
    }

    let collected = Arc::new(Mutex::new(Vec::new()));
    let runner = MonitorRunner::new(builder).sink(Collect(Arc::clone(&collected)));
    #[expect(
        clippy::expect_used,
        reason = "the image was written by render_pcap and starts with a pcap header"
    )]
    let runner = match &prep.feed {
        Feed::Pcap(image) => runner.source(
            PcapFileSource::new(Cursor::new(Arc::clone(image))).expect("a rendered pcap image"),
        ),
        Feed::Trace(trace) => runner.source(ReplaySource::from_trace(trace, replay_flow_key())),
    };
    runner.run();

    let mut reports = match collected.lock() {
        Ok(mut g) => std::mem::take(&mut *g),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    };
    reports.sort_by_key(|r| r.window);

    reports
        .into_iter()
        .map(|r| {
            let (fps, bitrate_kbps) = if method.is_ml() {
                let fps = r.model_fps.unwrap_or(0.0).max(0.0);
                let bitrate = r
                    .features
                    .as_deref()
                    .map(|f| match method {
                        Method::RtpMl => models.rtp_bitrate.predict(f),
                        Method::IpUdpMl => models.ipudp_bitrate.predict(f),
                        Method::RtpHeuristic | Method::IpUdpHeuristic => 0.0,
                    })
                    .unwrap_or(0.0)
                    .max(0.0);
                (fps, bitrate)
            } else {
                r.estimate
                    .map_or((0.0, 0.0), |e| (e.fps.max(0.0), e.bitrate_kbps.max(0.0)))
            };
            WindowEst {
                window: r.window,
                fps,
                bitrate_kbps,
            }
        })
        .collect()
}
