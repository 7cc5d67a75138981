//! Allocation discipline on the steady-state per-packet path.
//!
//! A counting global allocator meters every heap allocation made by the
//! current thread. After a warmup phase (first half of a trace) has grown
//! every scratch buffer, ring, and accumulator to its steady-state
//! capacity, pushing a packet that does **not** seal a window must make
//! zero heap allocations — for all four estimation methods, pushed one
//! engine at a time and through a [`FlowTable`] holding several flows.
//! Packets that do seal a window make one allocation per window they
//! seal, for an ML engine with a model attached too: the sealed
//! [`WindowReport`]'s own feature vector. The features are built on the
//! stack, ordered by selection in per-thread scratch, and predicted by a
//! forest walk that allocates nothing. An empty window's report (what
//! `replay` pads with) costs its feature vector and nothing else.
//!
//! This file is where the contract is held; no static rule shadows it.
//! Seeding an allocation into each per-packet function makes a test here
//! fail, except in two that no non-sealing packet reaches and so need
//! no case: `QoeWindower::drain_until`'s emission and `peek` run only
//! when a report is built.
//!
//! Every engine runs under [`EngineConfig::paper`], the configuration
//! `MonitorBuilder::new` ships. The ML engines keep per-window value logs
//! and timestamp sets, whose capacity survives the per-window reset: a
//! push allocates only when a window holds more packets (or distinct RTP
//! timestamps) than any window before it, which warmup has seen. The
//! same retention bounds a flow's memory by its fullest window — pinned
//! by the `*_state_is_one_windows_content` tests, which hold the heuristic
//! engines' frame logs to the same rule.
//!
//! The output end is held to the same rule: once its line buffer has
//! grown, [`JsonLinesSink`] serializes any event without touching the
//! heap. So is the input end: a [`PcapFileSource`] allocates its read
//! block when it is opened and nothing per record, as long as each
//! packet is dropped before the next is pulled.
//!
//! And the facade between them: a record the [`Monitor`] rejects costs
//! no allocation from `ingest_frame` to `drain_shared` — it is counted
//! into the pending `ParseDrops` summary, whose one delivery `Arc` is
//! paid per interval of capture time, not per record — and a record it
//! accepts onto an established flow costs none unless it seals a window. A new flow
//! under an auto method costs its probation buffer and its `FlowOpened`
//! event's `Arc`, and the rest of its probation costs nothing. A flow
//! that carries no video costs its boxed engine and one `Arc` per event
//! from open to seal, plus its tail, which is exact-size for every
//! sealed flow.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_suite::netpkt::{
    EtherType, EthernetRepr, FlowKey, Ipv4Repr, LinkType, MacAddr, PcapReader, PcapWriter,
    Timestamp, UdpRepr, IP_PROTO_UDP,
};
use vcaml_suite::rtp::{PayloadMap, RtpHeader, VcaKind};
use vcaml_suite::vcaml::api::{EstimationMethod, EvictReason, Monitor, QoeEvent};
use vcaml_suite::vcaml::engine::{
    FlowTable, IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine,
};
use vcaml_suite::vcaml::rtp_heuristic::SCAN_DEPTH;
use vcaml_suite::vcaml::{
    EngineConfig, EventSink, Frame, JsonLinesSink, Method, PacketSource, PcapFileSource,
    QoeEstimate, QoeEstimator, Trace, TracePacket, WindowReport,
};

/// Wraps the system allocator with a per-thread allocation counter. The
/// counter only advances while the owning thread has armed it, so
/// parallel test threads never pollute each other's measurements.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed and returns how many heap allocations
/// it made on this thread.
fn metered<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, out)
}

fn trace(vca: VcaKind) -> Trace {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 1,
            min_secs: 20,
            max_secs: 20,
            seed: 0x607_9a7,
        },
    )
    .remove(0)
}

/// Warm on the first half of `packets`, then assert that every push in
/// the second half that seals no window allocates nothing.
fn assert_alloc_free_steady_state<P>(
    packets: &[P],
    mut push: impl FnMut(&P, &mut Vec<WindowReport>),
    label: &str,
) {
    let mid = packets.len() / 2;
    let mut out: Vec<WindowReport> = Vec::with_capacity(64);
    for p in &packets[..mid] {
        push(p, &mut out);
        out.clear();
    }

    let mut steady = 0usize;
    let mut dirty = Vec::new();
    for (i, p) in packets[mid..].iter().enumerate() {
        let (allocs, ()) = metered(|| push(p, &mut out));
        if out.is_empty() {
            // No window sealed: the pure per-packet path must be heap-silent.
            steady += 1;
            if allocs > 0 {
                dirty.push((mid + i, allocs));
            }
        }
        out.clear();
    }

    assert!(
        steady > 100,
        "{label}: trace too short to exercise the steady state ({steady} packets)"
    );
    assert!(
        dirty.is_empty(),
        "{label}: {} of {steady} steady-state packets allocated: {:?}",
        dirty.len(),
        &dirty[..dirty.len().min(8)]
    );
}

/// The meter itself must see allocations, or every test above is vacuous.
#[test]
fn allocation_meter_detects_heap_traffic() {
    let (allocs, v) = metered(|| Vec::<u64>::with_capacity(32));
    assert!(allocs >= 1, "counting allocator missed a Vec allocation");
    drop(v);
    let (quiet, ()) = metered(|| ());
    assert_eq!(quiet, 0, "counter advanced with no allocation");
}

/// Warm an engine on the first half of a trace, then meter the second.
fn assert_engine_alloc_free<E: QoeEstimator>(mut engine: E, trace: &Trace, label: &str) {
    let push = |p: &TracePacket, out: &mut Vec<WindowReport>| engine.push_into(p, out);
    assert_alloc_free_steady_state(&trace.packets, push, label);
}

#[test]
fn ipudp_heuristic_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Meet);
    let engine = IpUdpHeuristicEngine::new(EngineConfig::paper(VcaKind::Meet));
    assert_engine_alloc_free(engine, &t, "IpUdpHeuristic");
}

#[test]
fn rtp_heuristic_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Meet);
    let engine = RtpHeuristicEngine::new(EngineConfig::paper(VcaKind::Meet), t.payload_map);
    assert_engine_alloc_free(engine, &t, "RtpHeuristic");
}

#[test]
fn ipudp_ml_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Teams);
    let engine = IpUdpMlEngine::new(EngineConfig::paper(VcaKind::Teams));
    assert_engine_alloc_free(engine, &t, "IpUdpMl");
}

#[test]
fn rtp_ml_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Teams);
    let engine = RtpMlEngine::new(EngineConfig::paper(VcaKind::Teams), t.payload_map);
    assert_engine_alloc_free(engine, &t, "RtpMl");
}

/// A 40-tree regression forest over `width` features, fitted on rows
/// that only need to give it splits to walk.
fn forest(width: usize) -> RandomForest {
    fitted(width, Task::Regression)
}

/// A 40-tree forest for `task` over `width` features; its targets are
/// 0 to 30, so a classifier has 31 classes.
fn fitted(width: usize, task: Task) -> RandomForest {
    let mut data = Dataset::new((0..width).map(|i| format!("f{i}")).collect());
    for i in 0..200u32 {
        let row: Vec<f64> = (0..width)
            .map(|j| f64::from((i * 7919 + j as u32 * 104_729) % 1_000))
            .collect();
        data.push(&row, f64::from(i % 31));
    }
    RandomForest::fit(&data, task, &RandomForestParams::default())
}

/// Warm on the first half of the trace, then meter every push in the
/// second half that seals: each sealed window costs exactly one
/// allocation, its report's feature vector.
fn assert_one_allocation_per_seal<E: QoeEstimator>(mut engine: E, trace: &Trace, label: &str) {
    let mid = trace.packets.len() / 2;
    let mut out: Vec<WindowReport> = Vec::with_capacity(64);
    for p in &trace.packets[..mid] {
        engine.push_into(p, &mut out);
        out.clear();
    }
    let mut seals = 0;
    for (i, p) in trace.packets[mid..].iter().enumerate() {
        let (allocs, ()) = metered(|| engine.push_into(p, &mut out));
        if !out.is_empty() {
            assert!(
                out.iter().all(|r| r.model_fps.is_some()),
                "{label}: no model"
            );
            assert_eq!(
                allocs,
                out.len() as u64,
                "{label}: packet {} sealed {} windows",
                mid + i,
                out.len()
            );
            seals += out.len();
        }
        out.clear();
    }
    assert!(seals >= 5, "{label}: only {seals} windows sealed");
}

#[test]
fn ml_seal_allocates_its_feature_vector_only() {
    let t = trace(VcaKind::Teams);
    let config = EngineConfig::paper(VcaKind::Teams);
    let ipudp = IpUdpMlEngine::new(config).with_model(forest(14));
    assert_one_allocation_per_seal(ipudp, &t, "IpUdpMl");
    let rtp = RtpMlEngine::new(config, t.payload_map).with_model(forest(24));
    assert_one_allocation_per_seal(rtp, &t, "RtpMl");
}

/// Fill a window from the first half of the trace, then build an empty
/// window's report: its feature vector is the one allocation, and it is
/// a fresh engine's bit for bit, the `-0.0` byte rate included.
fn assert_empty_report_allocates_its_vector_only<E: QoeEstimator>(
    mut engine: E,
    fresh: &E,
    trace: &Trace,
    label: &str,
) {
    let mut out = Vec::new();
    for p in &trace.packets[..trace.packets.len() / 2] {
        engine.push_into(p, &mut out);
    }
    let (allocs, report) = metered(|| engine.empty_report(1_000));
    assert_eq!(allocs, 1, "{label}: empty_report allocated {allocs} times");
    let bits = |r: &WindowReport| {
        let f = r.features.as_deref().expect("ML reports carry features");
        f.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(bits(&report), bits(&fresh.empty_report(1_000)), "{label}");
    assert_eq!(bits(&report)[0], (-0.0f64).to_bits(), "{label}: byte rate");
}

#[test]
fn ml_empty_report_allocates_its_feature_vector_only() {
    let t = trace(VcaKind::Teams);
    let config = EngineConfig::paper(VcaKind::Teams);
    let ipudp = || IpUdpMlEngine::new(config);
    assert_empty_report_allocates_its_vector_only(ipudp(), &ipudp(), &t, "IpUdpMl");
    let rtp = || RtpMlEngine::new(config, t.payload_map);
    assert_empty_report_allocates_its_vector_only(rtp(), &rtp(), &t, "RtpMl");
}

#[test]
fn forest_predict_is_alloc_free() {
    let forest = forest(14);
    let row: Vec<f64> = (0..14).map(|j| f64::from(j * 71 % 1_000)).collect();
    let (allocs, fps) = metered(|| forest.predict(&row));
    assert!(fps.is_finite());
    assert_eq!(allocs, 0, "RandomForest::predict allocated");
}

#[test]
fn classifier_predict_is_alloc_free() {
    let forest = fitted(14, Task::Classification { n_classes: 31 });
    let row: Vec<f64> = (0..14).map(|j| f64::from(j * 71 % 1_000)).collect();
    let (allocs, class) = metered(|| forest.predict(&row));
    assert!(
        (0.0..31.0).contains(&class) && class.fract() == 0.0,
        "{class}"
    );
    assert_eq!(allocs, 0, "a classifier's RandomForest::predict allocated");
}

/// [`trace`]'s call on three flows, merged into one arrival-ordered feed
/// as a tap delivers them. The same call on each keeps every flow's
/// windows as full as in the single-engine tests, so the table layer is
/// all that differs.
fn interleaved_calls(vca: VcaKind) -> (Vec<(FlowKey, TracePacket)>, PayloadMap) {
    let t = trace(vca);
    let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
    let mut feed = Vec::new();
    for i in 0..3u8 {
        let client = IpAddr::V4(Ipv4Addr::new(10, 7, 0, i + 1));
        let key = FlowKey::canonical(relay, 3478, client, 52_000 + u16::from(i), 17).0;
        feed.extend(t.packets.iter().map(|p| (key, *p)));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    (feed, t.payload_map)
}

/// The per-packet entry point of the benchmark's `engine.table` layer and
/// of `tests/parity.rs`, which the facade does not take: once warmup has
/// opened every flow, a packet costs a shard probe, a `last_seen` update
/// and its engine's push — none of which may allocate.
fn assert_table_alloc_free<E: QoeEstimator>(
    factory: impl FnMut(&FlowKey) -> E + Send + 'static,
    feed: &[(FlowKey, TracePacket)],
    label: &str,
) {
    let mut table = FlowTable::new(1, Timestamp::from_secs(120), factory);
    let push = |(key, p): &(FlowKey, TracePacket), out: &mut Vec<WindowReport>| {
        table.push_hashed_into(key.hash64(), *key, p, out)
    };
    assert_alloc_free_steady_state(feed, push, label);
}

#[test]
fn flow_table_steady_state_is_alloc_free() {
    let (meet, map) = interleaved_calls(VcaKind::Meet);
    let config = EngineConfig::paper(VcaKind::Meet);
    let ipudp = move |_: &FlowKey| IpUdpHeuristicEngine::new(config);
    assert_table_alloc_free(ipudp, &meet, "FlowTable<IpUdpHeuristic>");
    let rtp = move |_: &FlowKey| RtpHeuristicEngine::new(config, map);
    assert_table_alloc_free(rtp, &meet, "FlowTable<RtpHeuristic>");

    let (teams, map) = interleaved_calls(VcaKind::Teams);
    let config = EngineConfig::paper(VcaKind::Teams);
    let ipudp = move |_: &FlowKey| IpUdpMlEngine::new(config);
    assert_table_alloc_free(ipudp, &teams, "FlowTable<IpUdpMl>");
    let rtp = move |_: &FlowKey| RtpMlEngine::new(config, map);
    assert_table_alloc_free(rtp, &teams, "FlowTable<RtpMl>");
}

/// Video frames in an ordinary window of [`windowed_flow`] and in its one
/// burst window; every frame is [`PKTS_PER_FRAME`] packets.
const FRAMES: usize = 25;
const BURST_FRAMES: usize = 4 * FRAMES;
const PKTS_PER_FRAME: usize = 4;
/// Ordinary windows before [`windowed_flow`]'s burst window, and after it.
const WINDOWS_BEFORE: usize = 60;
const WINDOWS_AFTER: usize = 20;

/// One flow of RTP video packets (Teams' lab payload type): exactly
/// [`FRAMES`] evenly spaced frames in each 1 s window, but
/// [`BURST_FRAMES`] in window [`WINDOWS_BEFORE`], and a closing window
/// of [`SCAN_DEPTH`] frames, which seals the last of the
/// [`WINDOWS_AFTER`] that follow under every method (the RTP Heuristic
/// holds that many frames open).
/// Frames alternate between 1 100- and 1 000-byte packets, so the IP/UDP
/// Heuristic sees each frame as the RTP methods do.
fn windowed_flow() -> Vec<TracePacket> {
    let video_pt = PayloadMap::lab(VcaKind::Teams).video;
    let plan = [
        vec![FRAMES; WINDOWS_BEFORE],
        vec![BURST_FRAMES],
        vec![FRAMES; WINDOWS_AFTER],
        vec![SCAN_DEPTH],
    ]
    .concat();
    let mut packets = Vec::new();
    let (mut seq, mut rtp_ts) = (0u16, 0u32);
    for (window, &frames) in plan.iter().enumerate() {
        let frame_us = 1_000_000 / frames;
        for frame in 0..frames {
            for k in 0..PKTS_PER_FRAME {
                let us = window * 1_000_000 + frame * frame_us + k * 200;
                packets.push(TracePacket {
                    ts: Timestamp::from_micros(us as i64),
                    size: 1100 - 100 * (frame % 2) as u16,
                    rtp: Some(RtpHeader::basic(
                        video_pt,
                        seq,
                        rtp_ts,
                        1,
                        k + 1 == PKTS_PER_FRAME,
                    )),
                    truth_media: None,
                });
                seq = seq.wrapping_add(1);
            }
            rtp_ts += 90 * frame_us as u32 / 1_000;
        }
    }
    packets
}

/// README § One engine: "Per-flow state is O(one window's content)".
/// `state_bytes()` is sampled as each window of [`windowed_flow`] seals.
/// It stops growing once the first windows have sized the buffers; a
/// window 4× as full raises it once; and the ordinary windows after it
/// leave it exactly there — capacity is retained, never compounded.
/// Returns the state of a fresh engine, after the first windows, and
/// after the burst window, for the caller to bound.
fn window_state_samples<E: QoeEstimator>(mut engine: E, label: &str) -> (usize, usize, usize) {
    let fresh = engine.state_bytes();
    let mut out: Vec<WindowReport> = Vec::new();
    let mut sealed: Vec<(u64, usize)> = Vec::new();
    for p in &windowed_flow() {
        engine.push_into(p, &mut out);
        sealed.extend(out.drain(..).map(|r| (r.window, engine.state_bytes())));
    }
    let windows: Vec<u64> = sealed.iter().map(|&(w, _)| w).collect();
    let expected: Vec<u64> = (0..=(WINDOWS_BEFORE + WINDOWS_AFTER) as u64).collect();
    assert_eq!(windows, expected, "{label}: one sample per sealed window");
    let peak = |windows: std::ops::Range<usize>| {
        let bytes = sealed[windows].iter().map(|&(_, bytes)| bytes);
        bytes.max().expect("non-empty range")
    };

    let warm = peak(0..10);
    assert!(warm > fresh, "{label}: the first windows size the buffers");
    assert_eq!(
        peak(10..WINDOWS_BEFORE),
        warm,
        "{label}: steady windows grew the state"
    );

    let burst = sealed[WINDOWS_BEFORE].1;
    assert!(
        burst > warm,
        "{label}: the burst window did not fit the old buffers"
    );
    for &(window, bytes) in &sealed[WINDOWS_BEFORE + 1..] {
        assert_eq!(
            bytes, burst,
            "{label}: window {window} moved the high-water mark"
        );
    }
    (fresh, warm, burst)
}

/// An ML engine's state after the burst window is no more than a fresh
/// engine plus the two value logs (a 2-byte size and a 4-byte gap per
/// packet) at the next power of two above that window's packet count
/// plus `sets_bound`.
fn assert_state_is_one_windows_content<E: QoeEstimator>(engine: E, sets_bound: usize, label: &str) {
    let (fresh, _, burst) = window_state_samples(engine, label);
    let logs = (2 + 4) * (BURST_FRAMES * PKTS_PER_FRAME).next_power_of_two();
    assert!(
        burst <= fresh + logs + sets_bound,
        "{label}: {burst} B after the burst window, bound {fresh} + {logs} + {sets_bound}"
    );
}

/// A heuristic engine holds no heap before its first video packet, and
/// the burst window raises its state by no more than its frame log: one
/// `(id, Frame)` entry per frame of the window and per frame its
/// assembler can hold open across the boundary, at the next power of
/// two.
fn assert_heuristic_state_is_one_windows_content<E: QoeEstimator>(engine: E, label: &str) {
    let (fresh, warm, burst) = window_state_samples(engine, label);
    assert_eq!(
        fresh,
        std::mem::size_of::<E>(),
        "{label}: a fresh engine holds heap"
    );
    let log = std::mem::size_of::<(u64, Frame)>() * (BURST_FRAMES + SCAN_DEPTH).next_power_of_two();
    assert!(
        burst <= warm + log,
        "{label}: {burst} B after the burst window, bound {warm} + {log}"
    );
}

#[test]
fn ipudp_heuristic_state_is_one_windows_content() {
    let engine = IpUdpHeuristicEngine::new(EngineConfig::paper(VcaKind::Teams));
    assert_heuristic_state_is_one_windows_content(engine, "IpUdpHeuristic");
}

#[test]
fn rtp_heuristic_state_is_one_windows_content() {
    let engine = RtpHeuristicEngine::new(
        EngineConfig::paper(VcaKind::Teams),
        PayloadMap::lab(VcaKind::Teams),
    );
    assert_heuristic_state_is_one_windows_content(engine, "RtpHeuristic");
}

#[test]
fn ipudp_ml_state_is_one_windows_content() {
    let engine = IpUdpMlEngine::new(EngineConfig::paper(VcaKind::Teams));
    // No set over the size domain: unique sizes are counted from the size
    // log at seal, so a fresh engine is its struct and nothing on the
    // heap, and only the two value logs grow.
    let fresh = engine.state_bytes();
    assert_eq!(
        fresh,
        std::mem::size_of::<IpUdpMlEngine>(),
        "IpUdpMl: a fresh engine holds heap"
    );
    assert!(fresh < 1_024, "IpUdpMl: a fresh engine holds {fresh} B");
    assert_state_is_one_windows_content(engine, 0, "IpUdpMl");
}

#[test]
fn rtp_ml_state_is_one_windows_content() {
    let engine = RtpMlEngine::new(
        EngineConfig::paper(VcaKind::Teams),
        PayloadMap::lab(VcaKind::Teams),
    );
    assert_eq!(
        engine.state_bytes(),
        std::mem::size_of::<RtpMlEngine>(),
        "RtpMl: a fresh engine holds heap"
    );
    // Per distinct RTP timestamp: a 16-byte frame entry at the next power
    // of two, which is also the window's video timestamp set (this flow
    // carries no retransmissions).
    let sets_bound = BURST_FRAMES.next_power_of_two() * 16;
    assert_state_is_one_windows_content(engine, sets_bound, "RtpMl");
}

/// One event of each variant, with a heuristic and an ML report among
/// them — and the arms of the serializer that still reach a formatter
/// (a non-integral `f64`, an IPv6 address) or write `null` for a number
/// (a non-finite `model_fps`).
fn one_event_per_variant() -> Vec<Arc<QoeEvent>> {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let flow = FlowKey::canonical(IpAddr::V4(a), 5000, IpAddr::V4(b), 3478, 17).0;
    let (a6, b6) = (
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
    );
    let flow6 = FlowKey::canonical(IpAddr::V6(a6), 40000, IpAddr::V6(b6), 3478, 17).0;
    let heuristic = WindowReport {
        window: 3,
        method: Method::IpUdpHeuristic,
        estimate: Some(QoeEstimate {
            bitrate_kbps: 1234.5,
            fps: 30.0,
            frame_jitter_ms: 0.1 + 0.2,
        }),
        features: None,
        model_fps: None,
        video_packets: 412,
    };
    let ml = WindowReport {
        window: 4,
        method: Method::IpUdpMl,
        estimate: None,
        features: Some((1..=14).map(|i| f64::from(i) / 7.0).collect()),
        model_fps: Some(28.75),
        video_packets: 96,
    };
    let events = vec![
        QoeEvent::FlowOpened {
            flow,
            ts: Timestamp::from_micros(1_500_000),
        },
        QoeEvent::WindowReport {
            flow,
            report: heuristic.clone(),
            provisional: false,
        },
        QoeEvent::WindowReport {
            flow,
            report: ml.clone(),
            provisional: true,
        },
        QoeEvent::WindowReport {
            flow: flow6,
            report: WindowReport {
                model_fps: Some(f64::NAN),
                ..ml.clone()
            },
            provisional: false,
        },
        QoeEvent::FlowEvicted {
            flow,
            reason: EvictReason::Idle,
            final_reports: vec![heuristic, ml],
        },
        QoeEvent::ParseDrops {
            first_ts: Timestamp::from_micros(-7),
            last_ts: Timestamp::from_micros(999_999),
            by_reason: [3, 1, 10_000, (1 << 53) + 1],
        },
        QoeEvent::Dropped {
            count: 12,
            per_flow: vec![(flow, 3)],
        },
    ];
    events.into_iter().map(Arc::new).collect()
}

#[test]
fn json_lines_sink_is_alloc_free_after_warmup() {
    let events = one_event_per_variant();
    let mut sink = JsonLinesSink::new(std::io::sink());
    for event in &events {
        sink.on_event(event);
    }
    for event in &events {
        let (allocs, ()) = metered(|| sink.on_event(event));
        assert_eq!(allocs, 0, "serializing a {} event allocated", event.tag());
    }
}

/// `PcapReader`'s block size (private there).
const READ_BLOCK: usize = 64 * 1024;

/// ≈ 6 read blocks of full-size frames with a few runts among them.
fn capture_image() -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("header");
    let frame = [0x5au8; 1400];
    for i in 0..300usize {
        let len = if i % 7 == 0 { 60 } else { 1400 - i % 200 };
        writer
            .write_packet(Timestamp::from_micros(i as i64 * 250), &frame[..len])
            .expect("record");
    }
    let image = writer.finish().expect("flush");
    assert!(image.len() > 4 * READ_BLOCK, "at least four read blocks");
    image
}

#[test]
fn pcap_source_is_alloc_free_after_construction() {
    let mut source = PcapFileSource::new(std::io::Cursor::new(capture_image())).expect("open");
    let (allocs, packets) = metered(|| {
        let mut packets = 0;
        // As the runner does: each packet is let go before the next pull.
        while let Some(packet) = source.next_packet().expect("read") {
            drop(packet);
            packets += 1;
        }
        packets
    });
    assert_eq!(packets, 300);
    assert_eq!(allocs, 0, "reading 300 records allocated {allocs} times");
}

#[test]
fn pcap_source_allocates_per_block_when_packets_are_held() {
    let image = capture_image();
    let blocks = image.len().div_ceil(READ_BLOCK) as u64;
    let mut source = PcapFileSource::new(std::io::Cursor::new(image)).expect("open");
    let mut held = Vec::with_capacity(300);
    let (allocs, ()) = metered(|| {
        while let Some(packet) = source.next_packet().expect("read") {
            held.push(packet);
        }
    });
    assert_eq!(held.len(), 300);
    // One slab for each block after the first (which the source already
    // had) and one more when the end of input is met: per block, never
    // per record.
    assert!(
        (blocks - 1..=blocks).contains(&allocs),
        "{allocs} allocations reading {blocks} blocks"
    );
}

fn ethernet(ethertype: EtherType) -> EthernetRepr {
    EthernetRepr {
        src: MacAddr([2, 0, 0, 0, 0, 1]),
        dst: MacAddr([2, 0, 0, 0, 0, 2]),
        ethertype,
    }
}

fn heuristic_monitor() -> Monitor {
    Monitor::builder(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .build()
}

/// The reject path, which on a tap is the common path: a rejected record
/// is a counter bump and a fold into the pending drop summary — no event,
/// no allocation. The summary's one delivery `Arc` is paid when a record
/// past its interval closes it.
#[test]
fn rejected_frame_costs_no_allocation_from_ingest_to_drain() {
    let mut arp = [0u8; 14 + 28];
    ethernet(EtherType::Arp).emit(&mut arp);
    let mut monitor = heuristic_monitor();
    let second = 1_000_000;
    let replay = |monitor: &mut Monitor, from: i64, frames: i64| {
        let mut events = Vec::new();
        for i in 0..frames {
            monitor.ingest_frame(Timestamp::from_micros(from + i), &arp);
            events.extend(monitor.drain_shared());
        }
        events
    };
    assert!(
        replay(&mut monitor, 0, 64).is_empty(),
        "warm-up: drops counted, not narrated"
    );
    // Warm-up, continued: an accepted packet at 1 s closes the warm-up
    // summary (queue and staging deque grown) and opens a flow.
    let flow = FlowKey::canonical(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        5000,
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
        3478,
        17,
    )
    .0;
    let packet = TracePacket {
        ts: Timestamp::from_micros(second),
        size: 1100,
        rtp: None,
        truth_media: None,
    };
    monitor.ingest_packet(flow, packet);
    let tags: Vec<&str> = monitor.drain_shared().map(|e| e.tag()).collect();
    assert_eq!(tags, ["parse_drop", "flow_opened"]);

    let (allocs, events) = metered(|| replay(&mut monitor, second, 10_000));
    assert!(events.is_empty(), "no event inside one interval");
    assert_eq!(allocs, 0, "a rejected frame allocated");

    let closed = replay(&mut monitor, 2 * second, 1);
    let [summary] = &closed[..] else {
        panic!("one summary per interval: {closed:?}");
    };
    let QoeEvent::ParseDrops {
        first_ts,
        last_ts,
        by_reason,
    } = &**summary
    else {
        panic!("not a parse-drop summary: {summary:?}");
    };
    assert_eq!(by_reason.iter().sum::<u64>(), 10_000);
    assert_eq!(by_reason[2], 10_000, "every frame was not UDP");
    assert_eq!(
        (first_ts.as_micros(), last_ts.as_micros()),
        (second, second + 9_999)
    );
}

/// One UDP flow at 30 frames/s, four 1 100-byte packets a frame, as the
/// records a capture reader hands out (payloads are slices of the read
/// block, so decoding them copies nothing).
fn video_flow_records(secs: i64) -> Vec<vcaml_suite::netpkt::pcap::PcapRecord> {
    const PAYLOAD: usize = 1058;
    let (src, dst) = ([10, 0, 0, 1], [10, 0, 0, 2]);
    let mut frame = vec![0u8; 14 + 20 + 8 + PAYLOAD];
    ethernet(EtherType::Ipv4).emit(&mut frame);
    Ipv4Repr {
        src,
        dst,
        protocol: IP_PROTO_UDP,
        payload_len: 8 + PAYLOAD,
        ttl: 64,
        ident: 7,
    }
    .emit(&mut frame[14..]);
    UdpRepr {
        src_port: 40_000,
        dst_port: 3478,
    }
    .emit_v4(&mut frame[34..], PAYLOAD, src, dst);
    let mut writer = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("header");
    for video_frame in 0..secs * 30 {
        for k in 0..4 {
            let ts = Timestamp::from_micros(video_frame * 33_333 + k * 200);
            writer.write_packet(ts, &frame).expect("record");
        }
    }
    let image = writer.finish().expect("flush");
    PcapReader::new(std::io::Cursor::new(image))
        .expect("open")
        .read_all()
        .expect("records")
}

/// The accept path: a record routed to an established flow that seals no
/// window makes no allocation anywhere in the facade — decode, table
/// probe, engine push, the (empty) outbox hand-off and the drain.
#[test]
fn accepted_record_on_an_established_flow_is_alloc_free() {
    let records = video_flow_records(92);
    let (warmup, steady) = records.split_at(5 * 120);
    let mut monitor = heuristic_monitor();
    for record in warmup {
        monitor.ingest_pcap_record(LinkType::Ethernet, record);
        monitor.drain_shared().for_each(drop);
    }
    assert_eq!(monitor.stats().packets, warmup.len() as u64);
    assert_eq!(monitor.stats().parse_drops, 0);

    let (mut quiet, mut sealing, mut dirty) = (0u64, 0u64, Vec::new());
    for (i, record) in steady.iter().enumerate() {
        let (allocs, events) = metered(|| {
            monitor.ingest_pcap_record(LinkType::Ethernet, record);
            monitor.drain_shared().count()
        });
        if events > 0 {
            // A sealed window owns its report and the event its `Arc`.
            sealing += 1;
        } else {
            quiet += 1;
            if allocs > 0 {
                dirty.push((i, allocs));
            }
        }
    }
    assert!(sealing >= 80, "the flow is live: {sealing} windows sealed");
    assert!(quiet >= 10_000, "{quiet} packets sealed nothing");
    assert!(
        dirty.is_empty(),
        "{} of {quiet} non-sealing packets allocated: {:?}",
        dirty.len(),
        &dirty[..dirty.len().min(8)]
    );
}

/// Idle expiry on the accept path. Every packet checks the flow table's
/// deadline schedule: with nothing due the check allocates nothing, and a
/// packet that passes one flow's deadline allocates that flow's tail
/// `Vec` and its `FlowEvicted` event's `Arc` — the expired flows are
/// taken out of the table one at a time, not gathered in a `Vec`.
#[test]
fn expiring_an_idle_flow_allocates_its_tail_and_event_only() {
    let mut monitor = Monitor::builder(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .idle_timeout(Timestamp::from_secs(1))
        .build();
    let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
    let key = |i: u8| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 9, 0, i));
        FlowKey::canonical(client, 40_000, relay, 3478, 17).0
    };
    let packet = |us: i64, size: u16| TracePacket {
        ts: Timestamp::from_micros(us),
        size,
        rtp: None,
        truth_media: None,
    };
    // A live flow sends every 10 ms for 4 s. 40 short calls start 25 ms
    // apart, each 1.2 s of 30 fps video (so each has sealed a window and
    // grown its engine's buffers), and expire one by one, each on a live
    // packet, from 2.2 s on.
    let live = key(0);
    let mut feed: Vec<(FlowKey, TracePacket)> =
        (0..400).map(|t| (live, packet(t * 10_000, 1100))).collect();
    for i in 0..40u8 {
        let start = 5_000 + i64::from(i) * 25_000;
        for f in 0..36i64 {
            let size = 1000 + (f % 9) as u16 * 13;
            feed.push((key(i + 1), packet(start + f * 33_333, size)));
            feed.push((key(i + 1), packet(start + f * 33_333 + 300, size)));
        }
    }
    feed.sort_by_key(|(_, p)| p.ts);
    let (warmup, steady) =
        feed.split_at(feed.partition_point(|(_, p)| p.ts.as_micros() < 2_600_000));
    for (flow, p) in warmup {
        monitor.ingest_packet(*flow, *p);
        monitor.drain_shared().for_each(drop);
    }

    let (mut quiet, mut expiries, mut dirty) = (0u64, 0u64, Vec::new());
    for (flow, p) in steady {
        let (allocs, (expired, tail, others)) = metered(|| {
            monitor.ingest_packet(*flow, *p);
            let (mut expired, mut tail, mut others) = (0, 0, 0);
            for event in monitor.drain_shared() {
                if let QoeEvent::FlowEvicted {
                    reason: EvictReason::Idle,
                    final_reports,
                    ..
                } = &*event
                {
                    (expired, tail) = (expired + 1, final_reports.len());
                } else {
                    others += 1;
                }
            }
            (expired, tail, others)
        });
        match (expired, others) {
            (0, 0) => {
                quiet += 1;
                if allocs > 0 {
                    dirty.push((p.ts, allocs));
                }
            }
            (1, 0) => {
                // The tail is the flow's one window: one `Vec`, one report.
                assert_eq!(tail, 1, "one window left at {:?}", p.ts);
                expiries += 1;
                if allocs != 2 {
                    dirty.push((p.ts, allocs));
                }
            }
            // The live flow's own window sealed on this packet.
            _ => {}
        }
    }
    assert!(
        expiries >= 20,
        "{expiries} flows expired in the metered second"
    );
    assert!(quiet >= 100, "{quiet} packets sealed nothing");
    assert!(
        dirty.is_empty(),
        "packets that allocated beyond their expiries: {:?}",
        &dirty[..dirty.len().min(8)]
    );
}

/// RTP-confidence probation on the accept path. An auto-method flow's
/// first packet allocates its boxed packet buffer (a timestamp, a size
/// and a 12-byte RTP header per packet, in one array per field, sized
/// for all 16 up front) and its `FlowOpened` event's `Arc`, and nothing
/// else: the flow table's entry slab, probe table and deadline schedule
/// have room from earlier flows. Packets 2 to 15 only fill the buffer;
/// the 16th decides the method and builds the engine, which is not
/// metered here.
#[test]
fn probation_allocates_its_buffer_once() {
    let mut monitor = Monitor::builder(VcaKind::Teams)
        .method(EstimationMethod::AutoHeuristic)
        .idle_timeout(Timestamp::from_secs(1))
        .build();
    let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
    let key = |i: u16| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 9, (i >> 8) as u8, i as u8));
        FlowKey::canonical(client, 40_000, relay, 3478, 17).0
    };
    let packet = |us: i64| TracePacket {
        ts: Timestamp::from_micros(us),
        size: 300,
        rtp: None,
        truth_media: None,
    };
    let mut ingest = |flow: FlowKey, us: i64| {
        monitor.ingest_packet(flow, packet(us));
        monitor.drain_shared().count()
    };
    // Warm-up: 256 one-packet flows grow the table, then all expire on
    // a 257th flow's second packet (the stream clock advances at most one
    // idle timeout per packet).
    for i in 0..256 {
        ingest(key(i), i64::from(i));
    }
    assert_eq!(ingest(key(256), 900_000), 1, "FlowOpened");
    assert_eq!(
        ingest(key(256), 1_500_000),
        256,
        "the warm-up flows expired"
    );

    // 16 new flows, 15 packets each, all before the 257th flow expires.
    let mut dirty = Vec::new();
    for j in 0..16u16 {
        let flow = key(300 + j);
        for k in 0..15i64 {
            let us = 1_600_000 + i64::from(j) * 40_000 + k * 2_000;
            let (allocs, events) = metered(|| ingest(flow, us));
            let want = if k == 0 { (2, 1) } else { (0, 0) };
            if (allocs, events) != want {
                dirty.push((j, k, allocs, events));
            }
        }
    }
    assert!(
        dirty.is_empty(),
        "(flow, packet, allocations, events) off contract: {:?}",
        &dirty[..dirty.len().min(8)]
    );
}

/// What a flow that carries no video costs through the monitor, from its
/// first packet to its seal: its boxed engine and its `FlowOpened`
/// event's `Arc` at open, one `Arc` per window report, and its exact-size
/// tail `Vec` and its `FlowEvicted` event's `Arc` at seal — no
/// frame-assembly buffers, no drain scratch. Most UDP flows on a tap are
/// such flows.
#[test]
fn non_video_flow_allocates_its_engine_events_and_tail_only() {
    let mut monitor = Monitor::builder(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .idle_timeout(Timestamp::from_secs(1))
        .build();
    let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
    let key = |i: u16| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 9, (i >> 8) as u8, i as u8));
        FlowKey::canonical(client, 40_000, relay, 3478, 17).0
    };
    // Below the paper's Vmin: never video.
    let packet = |us: i64| TracePacket {
        ts: Timestamp::from_micros(us),
        size: 300,
        rtp: None,
        truth_media: None,
    };
    // Each flow sends every 100 ms for 2.5 s, a new one every 20 ms, so
    // ≈ 125 are live at once; each reports two windows, then expires on
    // a later flow's packet with its last window as its tail.
    let mut feed: Vec<(FlowKey, TracePacket)> = (0..600u16)
        .flat_map(|i| {
            let start = i64::from(i) * 20_000;
            (0..25).map(move |k| (key(i), packet(start + k * 100_000)))
        })
        .collect();
    feed.sort_by_key(|(_, p)| p.ts);
    // Warm-up: the first 300 flows grow the table, its schedule, the
    // outbox and the event queue to the steady state's size.
    let (warmup, steady) =
        feed.split_at(feed.partition_point(|(_, p)| p.ts.as_micros() < 6_000_000));
    for (flow, p) in warmup {
        monitor.ingest_packet(*flow, *p);
        monitor.drain_shared().for_each(drop);
    }

    let (mut opened, mut reports, mut sealed, mut dirty) = (0, 0, 0, Vec::new());
    for (flow, p) in steady {
        let (allocs, events) = metered(|| {
            monitor.ingest_packet(*flow, *p);
            monitor.drain_shared().collect::<Vec<_>>()
        });
        // The collected `Vec` is the test's own allocation.
        let mut want = u64::from(!events.is_empty());
        for event in &events {
            match &**event {
                QoeEvent::FlowOpened { .. } => {
                    opened += 1;
                    want += 2;
                }
                QoeEvent::WindowReport { report, .. } => {
                    assert!(report.features.is_none());
                    reports += 1;
                    want += 1;
                }
                QoeEvent::FlowEvicted { final_reports, .. } => {
                    assert_eq!(final_reports.len(), 1, "one window left at {:?}", p.ts);
                    sealed += 1;
                    want += 2;
                }
                other @ (QoeEvent::ParseDrops { .. } | QoeEvent::Dropped { .. }) => {
                    panic!("unexpected event {other:?}")
                }
            }
        }
        if allocs != want {
            dirty.push((p.ts, allocs, want));
        }
    }
    assert!(opened >= 250, "{opened} flows opened in the metered span");
    assert!(sealed >= 250, "{sealed} flows sealed in the metered span");
    assert!(
        reports >= 500,
        "{reports} windows reported in the metered span"
    );
    assert!(
        dirty.is_empty(),
        "(time, allocations, expected) off contract: {:?}",
        &dirty[..dirty.len().min(8)]
    );
}

/// A sealed flow's tail is exactly as long as it holds, whether the flow
/// expired, was decided at its seal, or ended with the stream, for video
/// and non-video flows alike: `FlowEvicted` events outlive the shard, so
/// spare capacity in them is heap the consumer pays for.
#[test]
fn every_sealed_tail_is_exact_size() {
    let records = video_flow_records(3);
    let relay = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 4));
    let key = |i: u8| {
        let client = IpAddr::V4(Ipv4Addr::new(10, 9, 0, i));
        FlowKey::canonical(client, 40_000, relay, 3478, 17).0
    };
    for method in [
        EstimationMethod::Fixed(Method::IpUdpHeuristic),
        EstimationMethod::AutoHeuristic,
        EstimationMethod::Fixed(Method::IpUdpMl),
    ] {
        let mut monitor = Monitor::builder(VcaKind::Teams)
            .method(method)
            .idle_timeout(Timestamp::from_secs(1))
            .build();
        let mut events = Vec::new();
        for record in &records {
            monitor.ingest_pcap_record(LinkType::Ethernet, record);
            events.extend(monitor.drain_shared());
        }
        // Short flows of a few packets each — video and not — expire on
        // later flows' packets or wait for the end of stream. A video
        // flow whose every packet opens a frame and that stops just past a
        // window boundary leaves the frames open across it, so a
        // heuristic engine's tail holds both windows.
        let mut feed = Vec::new();
        for i in 0..60u8 {
            let end = 3_560_000 + i64::from(i) * 50_000;
            for k in 0..i64::from(i % 20) + 1 {
                let packet = TracePacket {
                    ts: Timestamp::from_micros(end - k * 40_000),
                    size: if i % 2 == 0 {
                        300
                    } else {
                        1000 + (k % 3) as u16 * 200
                    },
                    rtp: None,
                    truth_media: None,
                };
                feed.push((key(i), packet));
            }
        }
        feed.sort_by_key(|(_, p)| p.ts);
        for (flow, packet) in feed {
            monitor.ingest_packet(flow, packet);
            events.extend(monitor.drain_shared());
        }
        events.extend(monitor.finish_shared());
        let tails: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|event| {
                if let QoeEvent::FlowEvicted { final_reports, .. } = &**event {
                    Some((final_reports.len(), final_reports.capacity()))
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(tails.len(), 61, "{method:?}: every flow sealed");
        if !matches!(method, EstimationMethod::Fixed(m) if m.is_ml()) {
            assert!(
                tails.iter().any(|&(len, _)| len > 1),
                "{method:?}: a tail of several windows"
            );
        }
        let loose: Vec<_> = tails.iter().filter(|(len, cap)| len != cap).collect();
        assert!(loose.is_empty(), "{method:?}: (len, capacity) {loose:?}");
    }
}
