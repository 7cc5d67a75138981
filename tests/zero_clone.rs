//! The event bus's zero-copy contract, enforced end to end: an
//! 8-subscriber fan-out (channel subscribers, JSON lines, a filtered
//! alert counter) over a threaded multi-source run performs **zero**
//! `QoeEvent` deep copies — every delivery clones an `Arc`, never the
//! event. The crate counts deep copies in `QoeEvent`'s `Clone` impl;
//! this file holds exactly one test so no unrelated consumer in the
//! same process can disturb the counter.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::api::qoe_event_clone_count;
use vcaml_suite::vcaml::{
    ChannelSink, CountingSink, EstimationMethod, EventFilter, JsonLinesSink, Method,
    MonitorBuilder, MonitorRunner, PcapFileSource, Severity,
};
use vcaml_suite::vcasim::synthetic_capture;

/// `calls` concurrent simulated Teams calls, read from their rendered
/// pcap bytes.
fn synthetic(secs: u32, calls: usize, seed: u64) -> PcapFileSource<Cursor<Vec<u8>>> {
    let capture = synthetic_capture(VcaKind::Teams, secs, calls, seed);
    PcapFileSource::new(Cursor::new(capture)).expect("a rendered pcap image")
}

/// A `Write` handle tests can keep after handing a sink ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn eight_subscriber_fanout_never_clones_an_event() {
    let before = qoe_event_clone_count();

    // Two synthetic taps on two ingest threads, two shard workers, and
    // an 8-subscriber bus: 8 bounded channels + a JSON-lines writer + a
    // min-severity subscription. Every delivery path the crate owns is
    // exercised: shard emission → bounded queue → runner drain → bus
    // fan-out → channel hand-off and serialization.
    let mut runner = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2),
    )
    .source(synthetic(4, 2, 11))
    .source(synthetic(4, 2, 12))
    .sink(JsonLinesSink::new(SharedBuf::default()))
    .subscribe(
        EventFilter::all().min_severity(Severity::Warning),
        CountingSink::default(),
    );
    let mut receivers = Vec::new();
    for _ in 0..8 {
        let (sink, rx) = ChannelSink::bounded(1 << 20);
        runner = runner.sink(sink);
        receivers.push(rx);
    }
    let report = runner.spawn().join();
    assert!(report.events > 0, "the run produced events");

    // Every channel subscriber observed the full stream — and consuming
    // it (including re-serializing) still needs no deep copy.
    for rx in &receivers {
        let events: Vec<_> = rx.try_iter().collect();
        assert_eq!(events.len() as u64, report.events, "full fan-out");
        for event in &events {
            assert!(!event.to_json_line().is_empty());
        }
    }

    assert_eq!(
        qoe_event_clone_count() - before,
        0,
        "no per-event delivery path may deep-copy a QoeEvent"
    );
}
