//! Criterion micro-benchmarks for the pipeline stages, addressing the
//! paper's §7 "system considerations": how cheap is per-packet processing
//! and per-window inference if an operator deploys this at scale?

// Bench target: panicking on setup failure is idiomatic.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use vcaml::api::build_engine;
use vcaml::engine::{FlowTable, IpUdpHeuristicEngine};
use vcaml::{
    build_samples, estimate_windows, AlertThresholds, ChannelSink, CountingSink, EngineConfig,
    EstimationMethod, EventBus, EventFilter, HeuristicParams, IpUdpHeuristic, MediaClassifier,
    Method, MonitorBuilder, MonitorRunner, PipelineOpts, QoeEstimator, QoeEvent, ReplaySource,
};
use vcaml_datasets::{inlab_corpus, to_core_trace, CorpusConfig};
use vcaml_features::{ipudp_features, windows_by_second, PktObs, DEFAULT_THETA_IAT_US};
use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_netem::{synth_ndt_schedule, LinkConfig, Perturbation, Perturber};
use vcaml_netpkt::{FlowKey, Timestamp, UdpDatagram};
use vcaml_rtp::VcaKind;
use vcaml_vcasim::{Session, SessionConfig, VcaProfile};

fn sample_trace() -> vcaml::Trace {
    let profile = VcaProfile::lab(VcaKind::Teams);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(1, 30),
        duration_secs: 30,
        seed: 1,
        link: LinkConfig::default(),
    })
    .run();
    to_core_trace(&session, profile.payload_map)
}

fn bench_packet_parse(c: &mut Criterion) {
    // A realistic IPv4/UDP/RTP packet off the simulator.
    let profile = VcaProfile::lab(VcaKind::Teams);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(2, 5),
        duration_secs: 5,
        seed: 2,
        link: LinkConfig::default(),
    })
    .run();
    let cap = &session.to_captured()[100];
    let payload = &cap.datagram.payload;
    let mut frame = vec![0u8; 20 + 8 + payload.len()];
    vcaml_netpkt::Ipv4Repr {
        src: [203, 0, 113, 10],
        dst: [192, 168, 1, 100],
        protocol: vcaml_netpkt::IP_PROTO_UDP,
        payload_len: 8 + payload.len(),
        ttl: 58,
        ident: 0,
    }
    .emit(&mut frame);
    frame[28..].copy_from_slice(payload);
    vcaml_netpkt::UdpRepr {
        src_port: 3478,
        dst_port: 51820,
    }
    .emit_v4(
        &mut frame[20..],
        payload.len(),
        [203, 0, 113, 10],
        [192, 168, 1, 100],
    );

    let mut g = c.benchmark_group("packet_parse");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("ipv4_udp_decode", |b| {
        b.iter(|| UdpDatagram::parse_ipv4(std::hint::black_box(&frame)).unwrap())
    });
    g.finish();
}

fn bench_media_classification(c: &mut Criterion) {
    let trace = sample_trace();
    let classifier = MediaClassifier::default();
    let mut g = c.benchmark_group("media_classification");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("vmin_filter_30s_trace", |b| {
        b.iter(|| classifier.video_packets(std::hint::black_box(&trace)).len())
    });
    g.finish();
}

fn bench_heuristic(c: &mut Criterion) {
    let trace = sample_trace();
    let classifier = MediaClassifier::default();
    let video: Vec<(Timestamp, u16)> = trace
        .packets
        .iter()
        .filter(|p| classifier.is_video(p))
        .map(|p| (p.ts, p.size))
        .collect();
    let heuristic = IpUdpHeuristic::new(HeuristicParams::paper(VcaKind::Teams));
    let mut g = c.benchmark_group("frame_assembly");
    g.throughput(Throughput::Elements(video.len() as u64));
    g.bench_function("ipudp_heuristic_30s_trace", |b| {
        b.iter(|| heuristic.assemble(std::hint::black_box(&video)).0.len())
    });
    g.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    let trace = sample_trace();
    let classifier = MediaClassifier::default();
    let window: Vec<PktObs> = trace
        .packets
        .iter()
        .filter(|p| classifier.is_video(p) && p.ts.second_index() == 10)
        .map(|p| PktObs {
            ts: p.ts,
            size: p.size,
        })
        .collect();
    let mut g = c.benchmark_group("feature_extraction");
    g.throughput(Throughput::Elements(window.len() as u64));
    g.bench_function("ipudp_features_1s_window", |b| {
        b.iter(|| ipudp_features(std::hint::black_box(&window), 1.0, DEFAULT_THETA_IAT_US))
    });
    g.finish();
}

fn bench_forest(c: &mut Criterion) {
    let traces = inlab_corpus(
        VcaKind::Teams,
        &CorpusConfig {
            n_calls: 4,
            min_secs: 25,
            max_secs: 30,
            seed: 3,
        },
    );
    let opts = PipelineOpts::paper(VcaKind::Teams);
    let set = build_samples(&traces, &opts);
    let mut d = Dataset::new(set.ipudp_names.clone());
    for s in &set.samples {
        d.push(&s.ipudp_features, s.truth.fps);
    }
    let params = RandomForestParams {
        n_trees: 40,
        seed: 1,
        ..Default::default()
    };
    let forest = RandomForest::fit(&d, Task::Regression, &params);
    let row = set.samples[0].ipudp_features.clone();

    let mut g = c.benchmark_group("random_forest");
    g.bench_function("predict_one_window", |b| {
        b.iter(|| forest.predict(std::hint::black_box(&row)))
    });
    let small = RandomForestParams {
        n_trees: 10,
        seed: 1,
        ..Default::default()
    };
    g.sample_size(10);
    g.bench_function("fit_10_trees", |b| {
        b.iter_batched(
            || d.clone(),
            |d| RandomForest::fit(&d, Task::Regression, &small),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("teams_30s_call", |b| {
        b.iter(|| {
            let profile = VcaProfile::lab(VcaKind::Teams);
            Session::new(SessionConfig {
                profile,
                schedule: synth_ndt_schedule(5, 30),
                duration_secs: 30,
                seed: 5,
                link: LinkConfig::default(),
            })
            .run()
            .packets
            .len()
        })
    });
    g.finish();
}

/// Old-batch vs incremental-engine throughput on the same 30 s trace:
/// the batch path buffers the trace, assembles frames over the whole
/// capture, and re-computes features per window slice; the engine path
/// makes one pass, packet by packet.
/// Tap-side perturbation cost on a full 30 s capture — the per-cell
/// setup overhead of the `vcaml-scenario` impairment grid. The stages
/// mirror the grid's reordering + duplication scenarios.
fn bench_tap_perturb(c: &mut Criterion) {
    let profile = VcaProfile::lab(VcaKind::Teams);
    let session = Session::new(SessionConfig {
        profile,
        schedule: synth_ndt_schedule(1, 30),
        duration_secs: 30,
        seed: 1,
        link: LinkConfig::default(),
    })
    .run();
    let timed: Vec<_> = session
        .to_captured()
        .into_iter()
        .map(|p| (p.ts, p.datagram))
        .collect();
    let stages = vec![
        Perturbation::Reorder {
            pct: 12.0,
            delay_ms: 25.0,
        },
        Perturbation::Duplicate {
            pct: 10.0,
            delay_ms: 2.0,
        },
    ];

    let mut g = c.benchmark_group("tap_perturb");
    g.throughput(Throughput::Elements(timed.len() as u64));
    g.bench_function("reorder_dup_30s_capture", |b| {
        b.iter_batched(
            || timed.clone(),
            |pkts| Perturber::new(stages.clone(), 7).apply(pkts),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_batch_vs_engine(c: &mut Criterion) {
    let trace = sample_trace();
    let config = EngineConfig::paper(VcaKind::Teams);
    let n_pkts = trace.packets.len() as u64;

    let mut g = c.benchmark_group("batch_vs_engine");
    g.throughput(Throughput::Elements(n_pkts));
    g.bench_function("batch_30s_trace", |b| {
        b.iter(|| {
            let classifier = MediaClassifier::new(config.vmin);
            let video: Vec<PktObs> = trace
                .packets
                .iter()
                .filter(|p| classifier.is_video(p))
                .map(|p| PktObs {
                    ts: p.ts,
                    size: p.size,
                })
                .collect();
            let pairs: Vec<(Timestamp, u16)> = video.iter().map(|p| (p.ts, p.size)).collect();
            let (frames, _) = IpUdpHeuristic::new(config.heuristic).assemble(&pairs);
            let est = estimate_windows(&frames, trace.duration_secs as usize, 1);
            let windows = windows_by_second(&video, trace.duration_secs, 1);
            let feats: usize = windows
                .iter()
                .map(|w| ipudp_features(w, 1.0, config.theta_iat_us).len())
                .sum();
            est.len() + feats
        })
    });
    g.bench_function("engine_30s_trace", |b| {
        b.iter(|| {
            let mut heur = build_engine(Method::IpUdpHeuristic, config, trace.payload_map, None);
            let mut ml = build_engine(Method::IpUdpMl, config, trace.payload_map, None);
            let mut out = Vec::with_capacity(64);
            let mut n = 0usize;
            for p in &trace.packets {
                heur.push_into(p, &mut out);
                ml.push_into(p, &mut out);
                n += out.len();
                out.clear();
            }
            heur.finish_into(&mut out);
            ml.finish_into(&mut out);
            n + out.len()
        })
    });
    g.finish();
}

/// 64 concurrent calls interleaved into one arrival-ordered feed — the
/// multi-household monitoring shape.
fn feed_64_flows() -> Vec<(FlowKey, vcaml::TracePacket)> {
    let trace = sample_trace();
    let mut feed: Vec<(FlowKey, vcaml::TracePacket)> = Vec::new();
    for flow in 0..64usize {
        let client = IpAddr::V4(Ipv4Addr::new(
            10,
            1,
            (flow / 200) as u8,
            (flow % 200) as u8 + 1,
        ));
        let relay = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9));
        let (key, _) = FlowKey::canonical(relay, 3478, client, 51_000 + flow as u16, 17);
        // Offset each copy a little so flows are not in lockstep.
        let shift = (flow as i64 % 16) * 1_731;
        feed.extend(trace.packets.iter().map(|p| {
            let mut q = *p;
            q.ts = Timestamp::from_micros(p.ts.as_micros() + shift);
            (key, q)
        }));
    }
    feed.sort_by_key(|(_, p)| p.ts);
    feed
}

/// Splits the feed across `n_sources` replay sources by flow (a flow
/// must not span sources), preserving arrival order within each.
fn split_feed(feed: &[(FlowKey, vcaml::TracePacket)], n_sources: usize) -> Vec<ReplaySource> {
    let mut parts: Vec<Vec<(FlowKey, vcaml::TracePacket)>> = vec![Vec::new(); n_sources];
    for (key, p) in feed {
        parts[(key.port_a as usize + key.port_b as usize) % n_sources].push((*key, *p));
    }
    parts.into_iter().map(ReplaySource::from_packets).collect()
}

/// The full I/O pipeline: replay source(s) → `MonitorRunner` → counting
/// sink. With a threaded monitor, each source ingests on its own thread.
fn run_64_flows_runner(
    feed: &[(FlowKey, vcaml::TracePacket)],
    threads: usize,
    n_sources: usize,
) -> usize {
    let mut runner = MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .shards(8)
            .threads(threads)
            .idle_timeout(Timestamp::from_secs(60)),
    )
    .sink(CountingSink::default());
    for source in split_feed(feed, n_sources) {
        runner = runner.source(source);
    }
    runner.run().events as usize
}

fn run_64_flows(feed: &[(FlowKey, vcaml::TracePacket)], threads: usize) -> usize {
    run_64_flows_runner(feed, threads, 1)
}

/// Monitor-facade throughput with 64 concurrent calls — the facade's
/// demux, eviction sweep, and event bookkeeping on one thread.
fn bench_flow_table_64_flows(c: &mut Criterion) {
    let feed = feed_64_flows();
    let mut g = c.benchmark_group("flow_table");
    g.sample_size(10);
    g.throughput(Throughput::Elements(feed.len() as u64));
    g.bench_function("heuristic_64_flows", |b| b.iter(|| run_64_flows(&feed, 1)));
    g.finish();
}

/// Single-thread vs N-thread 64-flow throughput through the same feed:
/// the parallel monitor's reason to exist. The N-thread number includes
/// worker spawn/join, channel hand-offs, and the event-queue merge, so
/// the speedup shown is the end-to-end one an operator gets.
fn bench_monitor_threads(c: &mut Criterion) {
    let feed = feed_64_flows();
    let mut g = c.benchmark_group("monitor_threads");
    g.sample_size(10);
    g.throughput(Throughput::Elements(feed.len() as u64));
    g.bench_function("heuristic_64_flows_1_thread", |b| {
        b.iter(|| run_64_flows(&feed, 1))
    });
    g.bench_function("heuristic_64_flows_4_threads", |b| {
        b.iter(|| run_64_flows(&feed, 4))
    });
    g.finish();
}

/// End-to-end I/O pipeline throughput — source(s) → `MonitorRunner` →
/// sink — with 1 vs. 2 ingest threads over the same 64-flow feed and the
/// same 2-worker monitor. The 2-source number includes the second ingest
/// thread's spawn and the split of the feed, so the speedup shown is the
/// end-to-end one an operator gets from feeding a monitor off two RX
/// queues instead of one.
fn bench_runner_ingest(c: &mut Criterion) {
    let feed = feed_64_flows();
    let mut g = c.benchmark_group("runner_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(feed.len() as u64));
    g.bench_function("heuristic_64_flows_1_ingest", |b| {
        b.iter(|| run_64_flows_runner(&feed, 2, 1))
    });
    g.bench_function("heuristic_64_flows_2_ingest", |b| {
        b.iter(|| run_64_flows_runner(&feed, 2, 2))
    });
    g.finish();
}

/// N-subscriber event fan-out: the Arc event bus (one allocation shared
/// by every subscriber) on a realistic 64-flow event stream — plus the
/// end-to-end runner with 1 vs 8 channel subscribers, so the JSON
/// trajectory records both the isolated fan-out cost and what an
/// operator sees.
fn bench_runner_fanout(c: &mut Criterion) {
    // Produce one realistic event stream (window reports with feature
    // vectors, lifecycle, seals) to replay through the delivery paths.
    let feed = feed_64_flows();
    let (subscriber, rx) = ChannelSink::bounded(1 << 20);
    MonitorRunner::new(
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .shards(8),
    )
    .source(ReplaySource::from_packets(feed.clone()))
    .sink(subscriber)
    .run();
    let events: Vec<Arc<QoeEvent>> = rx.try_iter().collect();
    assert!(events.len() > 1000, "need a meaningful stream to fan out");
    const SUBS: usize = 8;

    let mut g = c.benchmark_group("runner_fanout");
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("publish_8_subscribers_arc", |b| {
        b.iter_batched(
            || {
                let mut bus = EventBus::new(AlertThresholds::new());
                let rxs: Vec<_> = (0..SUBS)
                    .map(|_| {
                        let (sink, rx) = ChannelSink::bounded(events.len() + 1);
                        bus.subscribe(EventFilter::all(), sink);
                        rx
                    })
                    .collect();
                (bus, rxs)
            },
            |(mut bus, rxs)| {
                for event in &events {
                    bus.publish(event);
                }
                rxs.iter().map(|rx| rx.try_iter().count()).sum::<usize>()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // End-to-end: the full pipeline with 1 vs 8 live subscribers.
    let run_with_subscribers = |n: usize| {
        let mut runner = MonitorRunner::new(
            MonitorBuilder::new(VcaKind::Teams)
                .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
                .shards(8),
        )
        .source(ReplaySource::from_packets(feed.clone()));
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (sink, rx) = ChannelSink::bounded(1 << 20);
            runner = runner.sink(sink);
            rxs.push(rx);
        }
        let report = runner.run();
        let delivered: usize = rxs.iter().map(|rx| rx.try_iter().count()).sum();
        report.events as usize + delivered
    };
    let mut g = c.benchmark_group("runner_fanout_e2e");
    g.sample_size(10);
    g.throughput(Throughput::Elements(feed.len() as u64));
    g.bench_function("heuristic_64_flows_1_subscriber", |b| {
        b.iter(|| run_with_subscribers(1))
    });
    g.bench_function("heuristic_64_flows_8_subscribers", |b| {
        b.iter(|| run_with_subscribers(8))
    });
    g.finish();
}

/// The hot-path wins in isolation, so the JSON trajectory records each
/// one separately from the end-to-end monitor numbers (the push-into
/// engine API with a reusable report buffer is `engine_30s_trace`):
/// `open_addressed_table` — the linear-probe `FlowTable` hot loop with
/// the flow hash computed once per packet, as the shard router does;
/// `batched_seal` — one window-crossing batch sealing every flow's
/// expired windows in a single pass over a warm 64-flow table.
fn bench_hot_path(c: &mut Criterion) {
    let config = EngineConfig::paper(VcaKind::Teams);

    let mut g = c.benchmark_group("hot_path");
    g.sample_size(10);
    // Pre-route the 64-flow feed the way the dispatcher does: one
    // multiplicative hash per packet, carried alongside the key.
    let feed = feed_64_flows();
    let routed: Vec<(u64, FlowKey, vcaml::TracePacket)> =
        feed.iter().map(|(k, p)| (k.hash64(), *k, *p)).collect();
    let fresh_table = move || {
        FlowTable::new(8, Timestamp::from_secs(60), move |_: &FlowKey| {
            IpUdpHeuristicEngine::new(config)
        })
    };
    g.throughput(Throughput::Elements(routed.len() as u64));
    g.bench_function("open_addressed_table", |b| {
        b.iter_batched(
            fresh_table,
            |mut table| {
                let mut out = Vec::with_capacity(64);
                let mut n = 0usize;
                for (hash, key, pkt) in &routed {
                    table.push_hashed_into(*hash, *key, pkt, &mut out);
                    n += out.len();
                    out.clear();
                }
                n
            },
            BatchSize::LargeInput,
        )
    });

    // Warm one window per flow, then push a single batch of
    // window-crossing packets: all 64 flows seal in one pass.
    let warm: Vec<_> = routed
        .iter()
        .filter(|(_, _, p)| p.ts.as_micros() < 1_000_000)
        .cloned()
        .collect();
    let boundary: Vec<(u64, FlowKey, vcaml::TracePacket)> = {
        let mut seen = std::collections::HashSet::new();
        routed
            .iter()
            .filter(|(_, k, _)| seen.insert(*k))
            .map(|(h, k, p)| {
                let mut q = *p;
                q.ts = Timestamp::from_micros(2_100_000);
                (*h, *k, q)
            })
            .collect()
    };
    g.throughput(Throughput::Elements(boundary.len() as u64));
    g.bench_function("batched_seal", |b| {
        b.iter_batched(
            || {
                let mut table = fresh_table();
                let mut out = Vec::new();
                for (hash, key, pkt) in &warm {
                    table.push_hashed_into(*hash, *key, pkt, &mut out);
                    out.clear();
                }
                table
            },
            |mut table| {
                let mut out = Vec::with_capacity(256);
                for (hash, key, pkt) in &boundary {
                    table.push_hashed_into(*hash, *key, pkt, &mut out);
                }
                out.len()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_packet_parse,
    bench_media_classification,
    bench_heuristic,
    bench_feature_extraction,
    bench_batch_vs_engine,
    bench_hot_path,
    bench_flow_table_64_flows,
    bench_monitor_threads,
    bench_runner_ingest,
    bench_runner_fanout,
    bench_forest,
    bench_simulation,
    bench_tap_perturb
);
criterion_main!(benches);
