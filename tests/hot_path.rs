//! Allocation discipline on the steady-state per-packet path.
//!
//! A counting global allocator meters every heap allocation made by the
//! current thread. After a warmup phase (first half of a trace) has grown
//! every scratch buffer, ring, and accumulator to its steady-state
//! capacity, pushing a packet that does **not** seal a window must make
//! zero heap allocations — for all four estimation methods, pushed one
//! engine at a time and through a [`FlowTable`] holding several flows.
//! Packets that do seal a window are exempt: a sealed [`WindowReport`]
//! legitimately owns a fresh feature vector.
//!
//! This file is where the contract is held; no static rule shadows it.
//! Seeding an allocation into each per-packet function makes a test here
//! fail, except in four that no non-sealing packet reaches and so need no
//! case: `ArrivalCounts::take` / `peek` run only when a report is built,
//! `MlWindowClock::rememo` only when the window index moves, and
//! `json::escaped` only for a string that needs escaping, which no event
//! field is.
//!
//! Every engine runs under [`EngineConfig::paper`], the configuration
//! `MonitorBuilder::new` ships. The ML engines keep per-window value logs
//! and timestamp sets, whose capacity survives the per-window reset: a
//! push allocates only when a window holds more packets (or distinct RTP
//! timestamps) than any window before it, which warmup has seen. The
//! same retention bounds a flow's memory by its fullest window — pinned
//! by the two `*_state_is_one_windows_content` tests.
//!
//! The output end is held to the same rule: once its line buffer has
//! grown, [`JsonLinesSink`] serializes any event without touching the
//! heap. So is the input end: a [`PcapFileSource`] allocates its read
//! block when it is opened and nothing per record, as long as each
//! packet is dropped before the next is pulled.
//!
//! And the facade between them: a record the [`Monitor`] rejects costs
//! exactly one allocation from `ingest_frame` to `drain_shared` — the
//! delivery `Arc` of its `ParseDrop` event — and a record it accepts onto
//! an established flow costs none unless it seals a window.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fail fast, as the tests they serve do"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::netpkt::{
    EtherType, EthernetRepr, FlowKey, Ipv4Repr, LinkType, MacAddr, PcapReader, PcapWriter,
    Timestamp, UdpRepr, IP_PROTO_UDP,
};
use vcaml_suite::rtp::{PayloadMap, RtpHeader, VcaKind};
use vcaml_suite::vcaml::api::{EstimationMethod, EvictReason, Monitor, ParseDropReason, QoeEvent};
use vcaml_suite::vcaml::engine::{
    FlowTable, IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine,
};
use vcaml_suite::vcaml::{
    EngineConfig, EventSink, JsonLinesSink, Method, PacketSource, PcapFileSource, QoeEstimate,
    QoeEstimator, Trace, TracePacket, WindowReport,
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
    let mut table = FlowTable::new(4, Timestamp::from_secs(120), factory);
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

/// One flow of 1 100-byte RTP video packets (Teams' lab payload type):
/// exactly [`FRAMES`] evenly spaced frames in each 1 s window, but
/// [`BURST_FRAMES`] in window [`WINDOWS_BEFORE`], and a lone closing
/// frame that seals the last of the [`WINDOWS_AFTER`] that follow.
fn windowed_flow() -> Vec<TracePacket> {
    let video_pt = PayloadMap::lab(VcaKind::Teams).video;
    let plan = [
        vec![FRAMES; WINDOWS_BEFORE],
        vec![BURST_FRAMES],
        vec![FRAMES; WINDOWS_AFTER],
        vec![1],
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
                    size: 1100,
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
/// `state_bytes()` is sampled as each window seals. It stops growing once
/// the first windows have sized the buffers; a window 4× as full raises
/// it once, to no more than a fresh engine plus the two 8-byte value logs
/// at the next power of two above that window's packet count plus
/// `sets_bound`; and the ordinary windows after it leave it exactly there
/// — capacity is retained, never compounded.
fn assert_state_is_one_windows_content<E: QoeEstimator>(
    mut engine: E,
    sets_bound: usize,
    label: &str,
) {
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
    let logs = 16 * (BURST_FRAMES * PKTS_PER_FRAME).next_power_of_two();
    assert!(
        burst > warm,
        "{label}: the burst window did not fit the old buffers"
    );
    assert!(
        burst <= fresh + logs + sets_bound,
        "{label}: {burst} B after the burst window, bound {fresh} + {logs} + {sets_bound}"
    );
    for &(window, bytes) in &sealed[WINDOWS_BEFORE + 1..] {
        assert_eq!(
            bytes, burst,
            "{label}: window {window} moved the high-water mark"
        );
    }
}

#[test]
fn ipudp_ml_state_is_one_windows_content() {
    let engine = IpUdpMlEngine::new(EngineConfig::paper(VcaKind::Teams));
    // No set over the size domain: unique sizes are counted from the size
    // log at seal, so a fresh engine is its struct and one empty-window
    // vector, and only the two value logs grow.
    let fresh = engine.state_bytes();
    assert!(fresh < 1_024, "IpUdpMl: a fresh engine holds {fresh} B");
    assert_state_is_one_windows_content(engine, 0, "IpUdpMl");
}

#[test]
fn rtp_ml_state_is_one_windows_content() {
    let engine = RtpMlEngine::new(
        EngineConfig::paper(VcaKind::Teams),
        PayloadMap::lab(VcaKind::Teams),
    );
    // Per distinct RTP timestamp: a 16-byte frame entry at the next power
    // of two, and a 4-byte set slot at no more than twice that.
    let sets_bound = BURST_FRAMES.next_power_of_two() * (16 + 2 * 4);
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
        QoeEvent::ParseDrop {
            ts: Timestamp::from_micros(7),
            reason: ParseDropReason::Malformed {
                layer: "udp",
                what: "length mismatch",
            },
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

/// The reject path, which on a tap is the common path: the only heap
/// traffic between a dropped record and its drained event is the event's
/// delivery `Arc` — no wrapper `Vec` around it on the way in, none on the
/// way out (three allocations per record before the hand-off was
/// reworked).
#[test]
fn rejected_frame_costs_one_allocation_from_ingest_to_drain() {
    let mut arp = [0u8; 14 + 28];
    ethernet(EtherType::Arp).emit(&mut arp);
    let mut monitor = heuristic_monitor();
    let mut replay = |frames: i64| {
        let mut events = 0;
        for i in 0..frames {
            monitor.ingest_frame(Timestamp::from_micros(i), &arp);
            events += monitor.drain_shared().count();
        }
        events
    };
    assert_eq!(replay(64), 64, "warm-up: queue and staging deque grown");
    let (allocs, events) = metered(|| replay(10_000));
    assert_eq!(events, 10_000, "one ParseDrop event per rejected frame");
    assert_eq!(allocs, 10_000, "one allocation per rejected frame");
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
