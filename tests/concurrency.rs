//! Parallel-monitor invariants: a threaded `vcaml::api::Monitor` must be
//! *window-exact* against its sequential self for all four methods, must
//! preserve per-flow event ordering across shard workers, and must
//! account precisely for everything a bounded `DropOldest` queue sheds.

#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "tests match out the one event kind they check"
)]

use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv4Addr};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::netpkt::FlowKey;
use vcaml_suite::netpkt::Timestamp;
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::{
    EstimationMethod, EvictReason, Method, MonitorBuilder, OverflowPolicy, QoeEvent, Trace,
    TracePacket, WindowReport,
};

fn flow_key(n: u16) -> FlowKey {
    let client = IpAddr::V4(Ipv4Addr::new(10, 0, (n / 250) as u8, (n % 250) as u8 + 1));
    let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
    FlowKey::canonical(server, 3478, client, 40_000 + n, 17).0
}

/// A mixed multi-call feed in global arrival order: each trace of the
/// corpus becomes one flow, as a tap would deliver them.
fn mixed_feed(traces: &[Trace]) -> Vec<(FlowKey, TracePacket)> {
    let mut feed: Vec<(FlowKey, TracePacket)> = Vec::new();
    for (call, trace) in traces.iter().enumerate() {
        let key = flow_key(call as u16);
        feed.extend(trace.packets.iter().map(|p| (key, *p)));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    feed
}

/// Every finalized window per flow, in window order, from a finished
/// monitor's event stream.
fn final_windows(events: &[QoeEvent]) -> HashMap<FlowKey, BTreeMap<u64, WindowReport>> {
    let mut out: HashMap<FlowKey, BTreeMap<u64, WindowReport>> = HashMap::new();
    for event in events {
        let Some(flow) = event.flow() else { continue };
        for report in event.final_reports() {
            let dup = out
                .entry(flow)
                .or_default()
                .insert(report.window, report.clone());
            assert!(dup.is_none(), "duplicate final window {}", report.window);
        }
    }
    out
}

fn run_monitor(
    vca: VcaKind,
    method: Method,
    payload_map: vcaml_suite::rtp::PayloadMap,
    threads: usize,
    feed: &[(FlowKey, TracePacket)],
) -> Vec<QoeEvent> {
    let mut monitor = MonitorBuilder::new(vca)
        .method(EstimationMethod::Fixed(method))
        .payload_map(payload_map)
        .threads(threads)
        .build();
    for (flow, pkt) in feed {
        monitor.ingest_packet(*flow, *pkt);
    }
    monitor.finish()
}

/// The tentpole invariant: hashing flows across shard workers must not
/// change a single window of a single flow, for any of the four
/// methods — estimates, feature vectors, and packet attribution all
/// bit-identical to the sequential monitor.
#[test]
fn parallel_matches_sequential_for_all_methods() {
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 6,
            min_secs: 10,
            max_secs: 16,
            seed: 77,
        },
    );
    let payload_map = traces[0].payload_map;
    let feed = mixed_feed(&traces);
    for method in Method::ALL {
        let sequential = final_windows(&run_monitor(vca, method, payload_map, 1, &feed));
        let parallel = final_windows(&run_monitor(vca, method, payload_map, 4, &feed));
        assert_eq!(
            sequential.len(),
            parallel.len(),
            "{method:?}: flow count differs"
        );
        for (flow, want) in &sequential {
            let got = parallel.get(flow).unwrap_or_else(|| {
                panic!("{method:?}: flow {flow} missing from parallel run");
            });
            assert_eq!(got.len(), want.len(), "{method:?} {flow}: window count");
            for (w, want_r) in want {
                let got_r = &got[w];
                assert_eq!(got_r.method, want_r.method, "{method:?} window {w}");
                assert_eq!(got_r.estimate, want_r.estimate, "{method:?} window {w}");
                assert_eq!(got_r.features, want_r.features, "{method:?} window {w}");
                assert_eq!(
                    got_r.video_packets, want_r.video_packets,
                    "{method:?} window {w}"
                );
            }
        }
    }
}

/// Per-flow event ordering survives the cross-shard merge: opened before
/// any report, reports in strictly increasing window order, sealed last
/// — even when events are drained incrementally mid-stream.
#[test]
fn per_flow_event_order_holds_across_shards() {
    let vca = VcaKind::Meet;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 8,
            min_secs: 8,
            max_secs: 12,
            seed: 9,
        },
    );
    let feed = mixed_feed(&traces);
    let mut monitor = MonitorBuilder::new(vca)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .payload_map(traces[0].payload_map)
        .threads(3)
        .build();
    let mut events = Vec::new();
    for (i, (flow, pkt)) in feed.iter().enumerate() {
        monitor.ingest_packet(*flow, *pkt);
        // Interleave draining with ingestion, like a live consumer.
        if i % 1000 == 0 {
            events.extend(monitor.drain_events());
        }
    }
    events.extend(monitor.finish());

    let mut opened: HashMap<FlowKey, bool> = HashMap::new();
    let mut last_final: HashMap<FlowKey, u64> = HashMap::new();
    let mut sealed: HashMap<FlowKey, bool> = HashMap::new();
    for event in &events {
        match event {
            QoeEvent::FlowOpened { flow, .. } => {
                assert!(opened.insert(*flow, true).is_none(), "duplicate open");
            }
            QoeEvent::WindowReport {
                flow,
                report,
                provisional: false,
            } => {
                assert!(opened.contains_key(flow), "report before open");
                assert!(!sealed.contains_key(flow), "report after seal");
                if let Some(prev) = last_final.get(flow) {
                    assert!(
                        report.window > *prev,
                        "flow {flow}: window {} after {}",
                        report.window,
                        prev
                    );
                }
                last_final.insert(*flow, report.window);
            }
            QoeEvent::FlowEvicted { flow, .. } => {
                assert!(opened.contains_key(flow), "evict before open");
                assert!(sealed.insert(*flow, true).is_none(), "duplicate seal");
            }
            _ => {}
        }
    }
    assert_eq!(opened.len(), traces.len());
    assert_eq!(sealed.len(), traces.len(), "every flow sealed");
}

/// `DropOldest` sheds exactly what it reports: dropped + delivered ==
/// the unbounded run's event count, on both sequential and threaded
/// monitors.
#[test]
fn drop_oldest_counts_are_exact() {
    let vca = VcaKind::Webex;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 4,
            min_secs: 8,
            max_secs: 12,
            seed: 41,
        },
    );
    let feed = mixed_feed(&traces);
    let total = run_monitor(vca, Method::IpUdpHeuristic, traces[0].payload_map, 1, &feed).len();

    for threads in [1usize, 3] {
        let mut monitor = MonitorBuilder::new(vca)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .payload_map(traces[0].payload_map)
            .threads(threads)
            .queue_capacity(16)
            .overflow(OverflowPolicy::DropOldest)
            .build();
        for (flow, pkt) in &feed {
            monitor.ingest_packet(*flow, *pkt);
        }
        let mut delivered = 0usize;
        let mut dropped = 0u64;
        // Drain everything the monitor has; finish() flushes the rest
        // unbounded, so the conservation law must hold exactly.
        let stats_dropped;
        {
            for event in monitor.drain_events() {
                match event {
                    QoeEvent::Dropped { count, .. } => dropped += count,
                    _ => delivered += 1,
                }
            }
            stats_dropped = monitor.stats().events_dropped;
            for event in monitor.finish() {
                match event {
                    QoeEvent::Dropped { count, .. } => dropped += count,
                    _ => delivered += 1,
                }
            }
        }
        assert!(dropped > 0, "threads={threads}: feed must overflow cap 16");
        assert_eq!(
            delivered as u64 + dropped,
            total as u64,
            "threads={threads}: dropped + delivered == every event"
        );
        assert!(
            stats_dropped <= dropped,
            "threads={threads}: stats never overcount"
        );
    }
}

/// The end-of-stream flush is lossless even under `DropOldest`: mid-
/// stream events may be shed (with an exact marker), but `finish()`
/// lifts the bound before the workers seal their flows, so every flow's
/// `FlowEvicted` tail windows survive.
#[test]
fn finish_under_drop_oldest_keeps_every_tail() {
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 5,
            min_secs: 8,
            max_secs: 12,
            seed: 63,
        },
    );
    let feed = mixed_feed(&traces);
    let mut monitor = MonitorBuilder::new(vca)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .payload_map(traces[0].payload_map)
        .threads(2)
        .queue_capacity(8)
        .overflow(OverflowPolicy::DropOldest)
        .build();
    // Never drain mid-stream: the bounded queue sheds continuously.
    for (flow, pkt) in &feed {
        monitor.ingest_packet(*flow, *pkt);
    }
    let events = monitor.finish();
    let dropped: u64 = events
        .iter()
        .filter_map(|e| match e {
            QoeEvent::Dropped { count, .. } => Some(*count),
            _ => None,
        })
        .sum();
    assert!(dropped > 0, "mid-stream events were shed");
    let sealed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            QoeEvent::FlowEvicted {
                flow,
                final_reports,
                ..
            } => Some((flow, final_reports)),
            _ => None,
        })
        .collect();
    assert_eq!(sealed.len(), traces.len(), "every flow's seal survives");
    assert!(
        sealed.iter().all(|(_, reports)| !reports.is_empty()),
        "sealed tail windows are never shed"
    );
}

/// Deadlock regression: tiny queue + tiny ingest channels under `Block`,
/// with a consumer that never drains mid-stream. A monitor driven
/// through its own front doors is its own drainer, so its workers never
/// park on the full queue — it grows past the bound, as an inline one
/// does — and the blocking channel sends always complete. Nothing is
/// lost at the end.
#[test]
fn block_policy_with_tiny_bounds_never_deadlocks() {
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 4,
            min_secs: 6,
            max_secs: 10,
            seed: 29,
        },
    );
    let feed = mixed_feed(&traces);
    let total = run_monitor(vca, Method::IpUdpHeuristic, traces[0].payload_map, 1, &feed).len();

    let mut monitor = MonitorBuilder::new(vca)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .payload_map(traces[0].payload_map)
        .threads(2)
        .queue_capacity(8) // also shrinks the ingest channels to 1 batch
        .overflow(OverflowPolicy::Block)
        .build();
    for (flow, pkt) in &feed {
        monitor.ingest_packet(*flow, *pkt); // must never wedge
    }
    let mut got = monitor.drain_events().count();
    got += monitor.finish().len();
    assert_eq!(got, total, "Block loses nothing");
}

/// A threaded monitor under `Block`, driven through its own front doors
/// and drained between ingests, loses no event and never wedges. (Only a
/// runner's concurrent drain parks workers against the bound; that path
/// is `tests/io_layer.rs`'s `runner_block_queue_never_exceeds_its_bound`.)
#[test]
fn block_policy_delivers_everything_under_slow_draining() {
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 4,
            min_secs: 6,
            max_secs: 10,
            seed: 13,
        },
    );
    let feed = mixed_feed(&traces);
    let total = run_monitor(vca, Method::IpUdpHeuristic, traces[0].payload_map, 1, &feed).len();

    let mut monitor = MonitorBuilder::new(vca)
        .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
        .payload_map(traces[0].payload_map)
        .threads(2)
        .queue_capacity(8)
        .overflow(OverflowPolicy::Block)
        .build();
    let mut got = 0usize;
    for (flow, pkt) in &feed {
        monitor.ingest_packet(*flow, *pkt);
        // The drain between ingests is what keeps Block from wedging:
        // it models a consumer that is slow but alive.
        got += monitor.drain_events().count();
    }
    assert_eq!(monitor.stats().events_dropped, 0, "Block never drops");
    got += monitor.finish().len();
    assert_eq!(got, total, "every event delivered exactly once");
}

/// A directly driven two-worker monitor with a capacity-1 `Block` queue
/// takes 2 000 packets without a single drain and then finishes: with
/// no concurrent drainer its workers never park, so the queue grows past
/// the bound instead, and every event the inline monitor emits arrives.
#[test]
fn self_drained_block_monitor_grows_past_the_bound() {
    let build = |threads| {
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(threads)
            .queue_capacity(1)
            .overflow(OverflowPolicy::Block)
            .build()
    };
    let mut feed = steady_feed(flow_key(1), 0, 20);
    feed.extend(steady_feed(flow_key(2), 0, 14));
    feed.sort_by_key(|(_, p)| p.ts);
    assert!(feed.len() >= 2_000);
    feed.truncate(2_000);
    let mut inline = build(1);
    for (flow, pkt) in &feed {
        inline.ingest_packet(*flow, *pkt);
    }
    let want = inline.finish().len();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut monitor = build(2);
        for (flow, pkt) in &feed {
            monitor.ingest_packet(*flow, *pkt);
        }
        let _ = done_tx.send(monitor.finish().len());
    });
    let got = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("a self-drained Block monitor wedged");
    worker.join().expect("the feeding thread");
    assert_eq!(got, want, "Block loses nothing");
}

/// A steady synthetic video flow (two ~1 kB packets per 30 fps frame)
/// between `from`..`to` seconds, used to keep a shard worker's clock
/// advancing through another flow's quiet period.
fn steady_feed(flow: FlowKey, from: i64, to: i64) -> Vec<(FlowKey, TracePacket)> {
    let mut out = Vec::new();
    for f in from * 30..to * 30 {
        let t0 = f * 33_333;
        for i in 0..2i64 {
            out.push((
                flow,
                TracePacket {
                    ts: Timestamp::from_micros(t0 + i * 300),
                    size: 1_000 + ((f % 9) * 13) as u16,
                    rtp: None,
                    truth_media: None,
                },
            ));
        }
    }
    out
}

/// Slot recycling under the parallel monitor: four corpus flows go
/// quiet for far longer than the idle timeout, get evicted mid-run, and
/// then the very same keys re-open into recycled open-addressed slots.
/// Long-lived "clock driver" flows — chosen so every shard worker owns
/// at least two — keep each worker's clock advancing smoothly through
/// the quiet period, so the evict/reopen cycle is deterministic and
/// threaded runs must stay window-exact against sequential ones for all
/// four methods, across both flow lives.
#[test]
fn parallel_matches_sequential_across_slot_recycling() {
    const THREADS: usize = 4;
    let vca = VcaKind::Teams;
    let traces = inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 4,
            min_secs: 6,
            max_secs: 6,
            seed: 78,
        },
    );
    let payload_map = traces[0].payload_map;

    // Clock drivers: at least two steady flows hashed onto every one of
    // the THREADS shard workers (the router picks `hash64() % workers`),
    // so no worker's clock ever stalls during the corpus flows' silence.
    let mut per_worker = [0usize; THREADS];
    let mut drivers = Vec::new();
    for n in 1000u16.. {
        let key = flow_key(n);
        let worker = (key.hash64() % THREADS as u64) as usize;
        if per_worker[worker] < 2 {
            per_worker[worker] += 1;
            drivers.push(key);
        }
        if per_worker.iter().all(|c| *c == 2) {
            break;
        }
    }

    // First life 0..~6 s, silence, second life 20..~26 s: idle well past
    // the 5 s timeout, with every eviction settled before the re-open.
    let phase1 = mixed_feed(&traces);
    let mut feed = phase1.clone();
    feed.extend(phase1.iter().map(|(k, p)| {
        let mut q = *p;
        q.ts = Timestamp::from_micros(p.ts.as_micros() + 20_000_000);
        (*k, q)
    }));
    for key in &drivers {
        feed.extend(steady_feed(*key, 0, 27));
    }
    feed.sort_by_key(|(_, p)| p.ts);

    let run = |method: Method, threads: usize| -> Vec<QoeEvent> {
        let mut monitor = MonitorBuilder::new(vca)
            .method(EstimationMethod::Fixed(method))
            .payload_map(payload_map)
            .threads(threads)
            .idle_timeout(Timestamp::from_secs(5))
            .build();
        for (flow, pkt) in &feed {
            monitor.ingest_packet(*flow, *pkt);
        }
        monitor.finish()
    };

    for method in Method::ALL {
        let seq_events = run(method, 1);
        let idle_evictions = seq_events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    QoeEvent::FlowEvicted {
                        reason: EvictReason::Idle,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            idle_evictions,
            traces.len(),
            "{method:?}: exactly the corpus flows must be evicted idle"
        );
        let reopened = seq_events
            .iter()
            .filter(|e| matches!(e, QoeEvent::FlowOpened { .. }))
            .count();
        assert_eq!(
            reopened,
            drivers.len() + 2 * traces.len(),
            "{method:?}: every corpus flow must open a second life"
        );

        let sequential = final_windows(&seq_events);
        let parallel = final_windows(&run(method, THREADS));
        assert_eq!(sequential.len(), parallel.len(), "{method:?}: flow count");
        for (flow, want) in &sequential {
            // Both lives land in one map: absolute window indices keep a
            // reborn flow's windows disjoint from its first life's.
            let got = parallel.get(flow).unwrap_or_else(|| {
                panic!("{method:?}: flow {flow} missing from parallel run");
            });
            assert_eq!(got.len(), want.len(), "{method:?} {flow}: window count");
            for (w, want_r) in want {
                let got_r = &got[w];
                assert_eq!(got_r.estimate, want_r.estimate, "{method:?} window {w}");
                assert_eq!(got_r.features, want_r.features, "{method:?} window {w}");
                assert_eq!(
                    got_r.video_packets, want_r.video_packets,
                    "{method:?} window {w}"
                );
            }
        }
    }
}

/// Same input, same event stream: flows still in RTP-confidence
/// probation at end of stream, or expiring together on one packet, are
/// sealed in an order the flow table's layout must not decide. Inline
/// runs must repeat byte for byte; threaded runs interleave workers
/// freely, so they must repeat per flow.
#[test]
fn probation_flows_seal_in_a_reproducible_order() {
    let pkt = |us: i64| TracePacket {
        ts: Timestamp::from_micros(us),
        size: 1_100,
        rtp: None,
        truth_media: None,
    };
    // 40 flows × 6 packets 0.7 s apart: none reaches the 16-packet
    // probation decision.
    let mut at_finish = Vec::new();
    for i in 0..6i64 {
        for n in 0..40u16 {
            at_finish.push((flow_key(n), pkt(i * 700_000 + i64::from(n))));
        }
    }
    // The same, then a straggler far past a 5 s idle timeout: all 40
    // probation flows expire on its first packet.
    let mut at_sweep = at_finish.clone();
    at_sweep.extend((0..3i64).map(|s| (flow_key(99), pkt(20_000_000 + s * 1_000_000))));

    for (label, feed, idle_secs) in [("finish", &at_finish, 60), ("sweep", &at_sweep, 5)] {
        let run = |threads: usize| -> Vec<(Option<FlowKey>, String)> {
            let mut monitor = MonitorBuilder::new(VcaKind::Teams)
                .idle_timeout(Timestamp::from_secs(idle_secs))
                .threads(threads)
                .build();
            for (flow, p) in feed {
                monitor.ingest_packet(*flow, *p);
            }
            let events = monitor.finish();
            events
                .iter()
                .map(|e| (e.flow(), e.to_json_line()))
                .collect()
        };
        let (first, second) = (run(1), run(1));
        assert!(first.len() > 80, "{label}: 40 flows open, report, and seal");
        assert_eq!(first, second, "{label}: inline event order");

        let per_flow = |events: Vec<(Option<FlowKey>, String)>| {
            let mut out: BTreeMap<Option<FlowKey>, Vec<String>> = BTreeMap::new();
            for (flow, line) in events {
                out.entry(flow).or_default().push(line);
            }
            out
        };
        assert_eq!(
            per_flow(run(2)),
            per_flow(run(2)),
            "{label}: per-flow order"
        );
    }
}
