//! The frozen surface `benchmark/` compiles against, compiled in tier-1.
//!
//! `benchmark/` is a package outside the workspace (it measures the
//! monitor from outside, through public items only), so `cargo test`
//! never builds it — and a refactor that moves or re-types something it
//! imports would go unnoticed until the next measurement fails to
//! build. This test names every such path and signature; it has nothing
//! to assert at run time, because failing to compile is the failure.

// The ascriptions spell signatures out in full on purpose.
#![allow(clippy::type_complexity)]

use std::io::Cursor;
use std::sync::Arc;
use vcaml_suite::features::{IpUdpFeatureAcc, StatsMode};
use vcaml_suite::mlcore::RandomForest;
use vcaml_suite::netpkt::pcap::PcapRecord;
use vcaml_suite::netpkt::{Error as NetError, FlowKey, LinkType, Timestamp};
use vcaml_suite::rtp::{PayloadMap, VcaKind};
use vcaml_suite::vcaml::api::{build_engine, BoxedEngine, RTP_CONFIDENCE};
use vcaml_suite::vcaml::control::MonitorSnapshot;
use vcaml_suite::vcaml::daemon::render_openmetrics;
use vcaml_suite::vcaml::engine::FlowTable;
use vcaml_suite::vcaml::heuristic::HeuristicParams;
use vcaml_suite::vcaml::sink::{report_fps, CountingSink};
use vcaml_suite::vcaml::{
    build_samples, AlertThresholds, EngineConfig, EstimationMethod, EventBus, EventFilter,
    EventSink, Frame, IpUdpAssembler, JsonLinesSink, MediaClassifier, Method, Monitor,
    MonitorBuilder, MonitorHandle, MonitorRunner, MonitorStats, PacketSource, PcapFileSource,
    PipelineOpts, QoeEstimator, QoeEvent, RunnerReport, SampleSet, SourcePacket, SourceReport,
    Trace, TracePacket, WindowReport,
};

type Table = FlowTable<BoxedEngine>;
type Sealed = Vec<(FlowKey, Vec<WindowReport>)>;
type PcapSource = PcapFileSource<Cursor<Arc<[u8]>>>;

/// A sink and a source of the benchmark's shape: the trait methods it
/// implements must keep these signatures.
struct Probe;

impl EventSink for Probe {
    fn on_event(&mut self, _event: &Arc<QoeEvent>) {}
    fn flush(&mut self) {}
}

impl PacketSource for Probe {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        Ok(None)
    }
    fn is_live(&self) -> bool {
        true
    }
}

#[test]
fn every_path_and_signature_the_benchmark_imports() {
    // vcaml::api
    let _: fn(Method, EngineConfig, PayloadMap, Option<&RandomForest>) -> BoxedEngine =
        build_engine;
    let _: f64 = RTP_CONFIDENCE;

    // vcaml::engine::FlowTable
    let _: Table = FlowTable::new(8usize, Timestamp::from_secs(60), |_: &FlowKey| {
        build_engine(
            Method::IpUdpHeuristic,
            EngineConfig::paper(VcaKind::Teams),
            PayloadMap::lab(VcaKind::Teams),
            None,
        )
    });
    let _: fn(&mut Table, u64, FlowKey, &TracePacket, &mut Vec<WindowReport>) =
        Table::push_hashed_into;
    let _: fn(&mut Table, Timestamp) -> Sealed = Table::evict_idle;
    let _: fn(&mut Table) -> Sealed = Table::drain_finish_all;

    // vcaml::sink, vcaml::daemon, crate-root functions
    let _: CountingSink = CountingSink::default();
    let _: fn(&WindowReport) -> Option<f64> = report_fps;
    let _: fn(&MonitorSnapshot) -> String = render_openmetrics;
    let _: fn(&[Trace], &PipelineOpts) -> SampleSet = build_samples;
    let _: fn(VcaKind) -> PipelineOpts = PipelineOpts::paper;

    // EngineConfig: the fields the benchmark reads, and paper().
    let config: EngineConfig = EngineConfig::paper(VcaKind::Teams);
    let _: (u16, StatsMode, i64, HeuristicParams, u32) = (
        config.vmin,
        config.stats,
        config.theta_iat_us,
        config.heuristic,
        config.window_secs,
    );

    // Estimators and their building blocks.
    let _: fn(&mut BoxedEngine, &TracePacket, &mut Vec<WindowReport>) =
        <BoxedEngine as QoeEstimator>::push_into;
    let _: fn(&mut BoxedEngine, &mut Vec<WindowReport>) =
        <BoxedEngine as QoeEstimator>::finish_into;
    let _: fn(HeuristicParams) -> IpUdpAssembler = IpUdpAssembler::new;
    let _: fn(&mut IpUdpAssembler, Timestamp, u16, &mut Vec<(u64, Frame)>) -> u64 =
        IpUdpAssembler::push_into;
    let _: fn(u16) -> MediaClassifier = MediaClassifier::new;
    let _: fn(&MediaClassifier, &TracePacket) -> bool = MediaClassifier::is_video;
    let _: fn(StatsMode, i64) -> IpUdpFeatureAcc = IpUdpFeatureAcc::new;
    let _: fn(&mut IpUdpFeatureAcc, Timestamp, u16) = IpUdpFeatureAcc::push;
    let _: fn(&IpUdpFeatureAcc, f64) -> Vec<f64> = IpUdpFeatureAcc::features;
    let _: fn(&mut IpUdpFeatureAcc) = IpUdpFeatureAcc::reset;
    let _: fn(&RandomForest, &[f64]) -> f64 = RandomForest::predict;

    // Bus and sinks.
    let _: fn() -> AlertThresholds = AlertThresholds::new;
    let _: fn(AlertThresholds) -> EventBus = EventBus::new;
    let _: fn(&mut EventBus, EventFilter, Probe) = EventBus::subscribe;
    let _: fn(&mut EventBus, &Arc<QoeEvent>) = EventBus::publish;
    let _: fn(&EventBus) -> u64 = EventBus::published;
    let _: fn() -> EventFilter = EventFilter::all;
    let _: fn(Vec<u8>) -> JsonLinesSink<Vec<u8>> = JsonLinesSink::new;
    let _: fn(JsonLinesSink<Vec<u8>>) -> Vec<u8> = JsonLinesSink::into_inner;
    let _: fn(&mut JsonLinesSink<Vec<u8>>, &Arc<QoeEvent>) =
        <JsonLinesSink<Vec<u8>> as EventSink>::on_event;

    // Builder, monitor, handle.
    let _: fn(VcaKind) -> MonitorBuilder = MonitorBuilder::new;
    let _: fn(MonitorBuilder, usize) -> MonitorBuilder = MonitorBuilder::threads;
    let _: fn(MonitorBuilder, EstimationMethod) -> MonitorBuilder = MonitorBuilder::method;
    let _: fn(MonitorBuilder, Timestamp) -> MonitorBuilder = MonitorBuilder::idle_timeout;
    let _: fn(MonitorBuilder, RandomForest) -> MonitorBuilder = MonitorBuilder::model;
    let _: fn(MonitorBuilder) -> Monitor = MonitorBuilder::build;
    let _: fn(Method) -> EstimationMethod = EstimationMethod::Fixed;
    let _: fn(&Monitor) -> MonitorHandle = Monitor::handle;
    let _: fn(&mut Monitor, LinkType, &PcapRecord) = Monitor::ingest_pcap_record;
    let _: fn(Monitor) -> Vec<Arc<QoeEvent>> = Monitor::finish_shared;
    let mut monitor = MonitorBuilder::new(VcaKind::Teams).build();
    let _: Vec<Arc<QoeEvent>> = monitor.drain_shared().collect();
    let snapshot: MonitorSnapshot = monitor.handle().stats_snapshot();
    let _: (&MonitorStats, u64) = (&snapshot.stats, snapshot.flows_live);

    // Runner, sources, report.
    let _: fn(MonitorBuilder) -> MonitorRunner = MonitorRunner::new;
    let _: fn(MonitorRunner, Probe) -> MonitorRunner = MonitorRunner::source;
    let _: fn(MonitorRunner, Probe) -> MonitorRunner = MonitorRunner::sink;
    let _: fn(&MonitorRunner) -> MonitorHandle = MonitorRunner::handle;
    let _: fn(MonitorRunner) -> RunnerReport = MonitorRunner::run;
    let _: fn(Cursor<Arc<[u8]>>) -> Result<PcapSource, NetError> = PcapFileSource::new;
    let _: fn(&mut PcapSource) -> Result<Option<SourcePacket>, NetError> =
        <PcapSource as PacketSource>::next_packet;
    let _: fn(&SourcePacket) -> Timestamp = SourcePacket::ts;
    let report: RunnerReport = MonitorRunner::new(MonitorBuilder::new(VcaKind::Teams)).run();
    let _: (&MonitorStats, u64, &[SourceReport]) = (&report.stats, report.events, &report.sources);
    if let Some(SourceReport { packets, error }) = report.sources.first() {
        let _: (&u64, &Option<String>) = (packets, error);
    }

    // The event shapes the benchmark matches on and reads.
    let _: fn(&QoeEvent) -> Option<FlowKey> = QoeEvent::flow;
    let _: fn(&QoeEvent) -> &[WindowReport] = QoeEvent::final_reports;
    let dropped = QoeEvent::Dropped {
        count: 0,
        per_flow: Vec::new(),
    };
    assert!(matches!(dropped, QoeEvent::Dropped { .. }));
    let _ = |pkt: SourcePacket| match pkt {
        SourcePacket::Record { link, record } => Some((link, record)),
        SourcePacket::Parsed { .. } => None,
    };
}
