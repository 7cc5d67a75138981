//! The traced pass: the workload's image is staged through each layer's
//! public functions on its own — pcap read, parse, RTP attempt, engines,
//! flow table, facade, bus, sink — and every pass over it is a span. All
//! `_per_pkt` times are per record *offered*, whatever share of the
//! records reaches the stage, so stages add up: the four that make up a
//! replay (source, facade, bus, sink) plus the residual equal the
//! end-to-end time per packet by construction, and what the stages do not
//! explain is printed, not hidden.
//!
//! Spans are recorded here, around the calls into each layer; nothing
//! inside the monitor is instrumented.

use crate::alloc;
use crate::e2e::Outcome;
use crate::gen::VCA;
use crate::metrics::Reading;
use crate::stats::{quiet_cost, QUIET_RATE_PERCENTILE};
use crate::workload::{builder, checked_sink, pcap_source, replay, Drive, Extras, Feed, Prepared};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcaml::api::{build_engine, BoxedEngine, RTP_CONFIDENCE};
use vcaml::engine::FlowTable;
use vcaml::sink::CountingSink;
use vcaml::{
    AlertThresholds, EngineConfig, EventBus, EventFilter, EventSink, IpUdpAssembler, JsonLinesSink,
    MediaClassifier, Method, PacketSource, QoeEstimator, QoeEvent, TracePacket,
};
use vcaml_features::IpUdpFeatureAcc;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{FlowKey, LinkType, PcapReader, Timestamp, UdpDatagram};
use vcaml_rtp::{PayloadMap, RtpHeader};

/// Rounds — one pass of every stage, then whole replays — however short
/// `--seconds` is, and however many fit into it.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 15;
/// Untraced reference replays at the end of each round.
const REFERENCE_PER_ROUND: usize = 2;
/// Records handed to a downstream layer at a time, freshly read.
const CHUNK: usize = 64;
/// Paced replays for the lag tail (each lasts the capture ÷ speed).
const PACED_REPLAYS: usize = 2;
/// The facade sweeps idle flows once per this much stream time; the
/// table stage does the same so it evicts what a monitor would.
const SWEEP_US: i64 = 1_000_000;
/// Shards of the facade's flow table (`MonitorBuilder` default).
const TABLE_SHARDS: usize = 8;

/// One pass over the image through one layer, or (id 0) the run that
/// holds them all.
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Time inside the layer's own calls; the rest of the span is the
    /// benchmark producing the layer's input.
    busy_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens the root span, which every pass is a child of.
    fn new(workload: &'static str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: vec![Span {
                id: 0,
                parent: 0,
                name: workload,
                start_ns: 0,
                end_ns: 0,
                busy_ns: 0,
            }],
        }
    }

    /// Runs `f` as one span, busy for as long as `f` says it was (all of
    /// it when `f` says `None`); returns what `f` returned and the busy time.
    fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> (T, Option<Duration>),
    ) -> (T, Duration) {
        let start = self.epoch.elapsed();
        let (value, busy) = f();
        let end = self.epoch.elapsed();
        let busy = busy.unwrap_or(end - start);
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: 0,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            busy_ns: busy.as_nanos() as u64,
        });
        (value, busy)
    }

    /// Closes the root span and renders every span as one JSON document.
    fn finish(mut self, seed: u64) -> String {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[0].end_ns = end;
        self.spans[0].busy_ns = end;
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{}}}",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns, s.busy_ns
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":[\n{}\n]}}\n",
            self.spans[0].name,
            seed,
            spans.join(",\n")
        )
    }
}

/// One layer's way over the image: how to make a pass, and how long each
/// pass so far was busy.
struct Stage<'a> {
    name: &'static str,
    /// Makes one pass; `Some` when only part of it was the layer's own.
    pass: Box<dyn FnMut() -> Option<Duration> + 'a>,
    busy_ns: Vec<f64>,
}

impl<'a> Stage<'a> {
    fn new(name: &'static str, pass: impl FnMut() -> Option<Duration> + 'a) -> Stage<'a> {
        Stage {
            name,
            pass: Box::new(pass),
            busy_ns: Vec::new(),
        }
    }
}

/// One row of a workload's budget table.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Nesting depth: a row is part of the nearest row above it that is
    /// one level shallower.
    pub depth: usize,
    pub stage: &'static str,
    pub ns_per_pkt: f64,
}

/// What the traced pass of one workload produced.
pub struct Traced {
    pub outcome: Outcome,
    /// End-to-end nanoseconds per packet of the untraced closed-loop
    /// replays the budget is drawn against.
    pub end_to_end_ns_per_pkt: f64,
    pub budget: Vec<BudgetRow>,
    /// The spans, as the JSON document to write out.
    pub trace_json: String,
}

/// What the stages downstream of parsing consume, built once outside
/// any span. Packets are small and contiguous, so unlike raw records
/// they need not be produced afresh for each pass.
struct Staged {
    /// Ingestable packets in capture order, flow-keyed and hashed.
    packets: Vec<(u64, FlowKey, TracePacket)>,
    /// The same packets grouped by flow, flows in order of first sight.
    flows: Vec<(FlowKey, Method, Vec<TracePacket>)>,
}

/// Reads every record of the image and lets it go.
fn read_all(image: &[u8]) {
    let mut reader =
        PcapReader::new(Cursor::new(image)).expect("generated image starts with a pcap header");
    while let Some(record) = reader.next_record().expect("generated image reads cleanly") {
        black_box(&record);
    }
}

/// Feeds `each` the image's records a chunk at a time, freshly read: a
/// layer downstream of the reader sees them as the reader leaves them in
/// a replay — in cache — and not as a pass over a hundred megabytes of
/// stored records would show them.
fn chunks(image: &[u8], mut each: impl FnMut(&[PcapRecord])) {
    let mut reader =
        PcapReader::new(Cursor::new(image)).expect("generated image starts with a pcap header");
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        chunk.clear();
        while chunk.len() < CHUNK {
            match reader.next_record().expect("generated image reads cleanly") {
                Some(record) => chunk.push(record),
                None => break,
            }
        }
        if chunk.is_empty() {
            return;
        }
        each(&chunk);
    }
}

/// Feeds `each` the events an inline monitor publishes, a chunk of
/// records at a time, for the same reason as [`chunks`]: bus and sink see
/// events the facade has just built.
fn fresh_events(p: &Prepared, mut each: impl FnMut(&[Arc<QoeEvent>])) {
    let mut monitor = builder(p.kind, p.model.as_ref(), 1).build();
    let mut events = Vec::new();
    chunks(&p.image.bytes, |chunk| {
        for record in chunk {
            monitor.ingest_pcap_record(LinkType::Ethernet, record);
            events.extend(monitor.drain_shared());
        }
        each(&events);
        events.clear();
    });
    each(&monitor.finish_shared());
}

/// Adds the time `f` takes to `busy`.
fn timed(busy: &mut Duration, f: impl FnOnce()) {
    let started = Instant::now();
    f();
    *busy += started.elapsed();
}

fn take_apart(p: &Prepared) -> Staged {
    let mut staged = Staged {
        packets: Vec::new(),
        flows: Vec::new(),
    };
    let mut flow_index: HashMap<FlowKey, usize> = HashMap::new();
    let mut rtp_ok: Vec<usize> = Vec::new();
    chunks(&p.image.bytes, |chunk| {
        for record in chunk {
            let Ok(Some(datagram)) = UdpDatagram::parse_shared(&record.data) else {
                continue;
            };
            let (flow, _) = datagram.flow_key();
            let rtp = if p.kind.wants_rtp() {
                RtpHeader::parse(&datagram.payload).ok()
            } else {
                None
            };
            let packet = TracePacket {
                ts: record.ts,
                size: datagram.ip_total_len,
                rtp,
                truth_media: None,
            };
            let at = *flow_index.entry(flow).or_insert_with(|| {
                staged
                    .flows
                    .push((flow, Method::IpUdpHeuristic, Vec::new()));
                rtp_ok.push(0);
                staged.flows.len() - 1
            });
            staged.flows[at].2.push(packet);
            rtp_ok[at] += usize::from(rtp.is_some());
            staged.packets.push((flow.hash64(), flow, packet));
        }
    });
    // An auto-method monitor decides per flow by RTP parse confidence.
    for ((_, method, packets), ok) in staged.flows.iter_mut().zip(rtp_ok) {
        *method = match p.kind.fixed_method() {
            Some(fixed) => fixed,
            None if ok as f64 / packets.len() as f64 >= RTP_CONFIDENCE => Method::RtpHeuristic,
            None => Method::IpUdpHeuristic,
        };
    }
    staged
}

/// Runs the traced pass of a prepared workload, scaled to `seconds`.
pub fn run(p: &Prepared, seed: u64, seconds: f64) -> Traced {
    let kind = p.kind;
    let staged = take_apart(p);
    let image = &p.image.bytes[..];
    let records = p.image.records as f64;
    let events = p.oracle.events as f64;
    let config = EngineConfig::paper(VCA);
    let payload_map = PayloadMap::lab(VCA);
    let classifier = MediaClassifier::new(config.vmin);
    let ingestable =
        |record: &&PcapRecord| matches!(UdpDatagram::parse_shared(&record.data), Ok(Some(_)));
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(kind.name());

    // What the stages share, declared before them so that it outlives them.
    let windows = Cell::new(0usize);
    let methods: Arc<HashMap<FlowKey, Method>> = Arc::new(
        staged
            .flows
            .iter()
            .map(|(flow, method, _)| (*flow, *method))
            .collect(),
    );
    let window_secs = f64::from(config.window_secs);
    let window_of = |ts: Timestamp| ts.second_index() / i64::from(config.window_secs);
    let vectors: RefCell<Vec<Vec<f64>>> = RefCell::new(Vec::new());
    let accumulate = |emit: bool| {
        let mut vectors = vectors.borrow_mut();
        vectors.clear();
        for (_, _, packets) in &staged.flows {
            let mut acc = IpUdpFeatureAcc::new(config.stats, config.theta_iat_us);
            let mut window = None;
            for packet in packets.iter().filter(|p| classifier.is_video(p)) {
                if window.is_some_and(|w| w != window_of(packet.ts)) {
                    if emit {
                        vectors.push(acc.features(window_secs));
                    }
                    acc.reset();
                }
                window = Some(window_of(packet.ts));
                acc.push(packet.ts, packet.size);
            }
            if emit {
                vectors.push(acc.features(window_secs));
            }
        }
        None
    };
    let serialize_pass = |count: bool| {
        let mut sink = JsonLinesSink::new(std::io::sink());
        let mut busy = Duration::ZERO;
        let mut allocs = 0u64;
        fresh_events(p, |events| {
            if count {
                alloc::start();
            }
            timed(&mut busy, || events.iter().for_each(|e| sink.on_event(e)));
            if count {
                allocs += alloc::stop().allocs;
            }
        });
        (busy, allocs)
    };

    // Every stage's pass over the image, in budget order. They are run in
    // rounds — each stage once, then whole replays — so that every stage
    // and the end-to-end line sample the same stretch of time: this box
    // drifts by a tenth or more over tens of seconds, and a stage timed
    // in a slow stretch against a line timed in a fast one leaves a
    // residual that means nothing.
    let mut stages: Vec<Stage> = Vec::new();

    // netpkt
    stages.push(Stage::new("netpkt.pcap_read", || {
        read_all(image);
        None
    }));
    stages.push(Stage::new("netpkt.parse", || {
        let mut busy = Duration::ZERO;
        chunks(image, |chunk| {
            let accepted: Vec<&PcapRecord> = chunk.iter().filter(ingestable).collect();
            timed(&mut busy, || {
                for record in accepted {
                    let datagram = UdpDatagram::parse_shared(&record.data);
                    if let Ok(Some(datagram)) = &datagram {
                        black_box(datagram.flow_key());
                    }
                    black_box(&datagram);
                }
            });
        });
        Some(busy)
    }));
    stages.push(Stage::new("netpkt.reject", || {
        let mut busy = Duration::ZERO;
        chunks(image, |chunk| {
            let rejected: Vec<&PcapRecord> = chunk.iter().filter(|r| !ingestable(r)).collect();
            timed(&mut busy, || {
                for record in rejected {
                    black_box(UdpDatagram::parse_shared(&record.data).is_err());
                }
            });
        });
        Some(busy)
    }));

    // rtp: only a monitor that may pick an RTP method attempts the parse.
    if kind.wants_rtp() {
        stages.push(Stage::new("rtp.parse", || {
            let mut busy = Duration::ZERO;
            chunks(image, |chunk| {
                let datagrams: Vec<UdpDatagram> = chunk
                    .iter()
                    .filter_map(|r| UdpDatagram::parse_shared(&r.data).ok().flatten())
                    .collect();
                timed(&mut busy, || {
                    for datagram in &datagrams {
                        black_box(RtpHeader::parse(&datagram.payload).is_ok());
                    }
                });
            });
            Some(busy)
        }));
    }

    // source
    stages.push(Stage::new("source.next", || {
        let mut source = pcap_source(&p.image);
        while let Some(packet) = source.next_packet().expect("pcap record") {
            black_box(&packet);
        }
        None
    }));

    // engine
    stages.push(Stage::new("engine.media", || {
        let mut video = 0u64;
        for (_, _, packet) in &staged.packets {
            video += u64::from(classifier.is_video(packet));
        }
        black_box(video);
        None
    }));
    stages.push(Stage::new("engine.assemble", || {
        let mut sealed = Vec::new();
        for (_, method, packets) in &staged.flows {
            if *method != Method::IpUdpHeuristic {
                continue;
            }
            let mut assembler = IpUdpAssembler::new(config.heuristic);
            for packet in packets.iter().filter(|p| classifier.is_video(p)) {
                black_box(assembler.push_into(packet.ts, packet.size, &mut sealed));
                sealed.clear();
            }
        }
        None
    }));
    stages.push(Stage::new("engine.push", || {
        let mut reports = Vec::new();
        let mut sealed = 0;
        for (_, method, packets) in &staged.flows {
            let mut engine = build_engine(*method, config, payload_map, p.model.as_ref());
            for packet in packets {
                engine.push_into(packet, &mut reports);
            }
            engine.finish_into(&mut reports);
            sealed += reports.len();
            reports.clear();
        }
        windows.set(sealed);
        None
    }));
    stages.push(Stage::new("engine.table", || {
        let methods = Arc::clone(&methods);
        let model = p.model.clone();
        let mut table: FlowTable<BoxedEngine> =
            FlowTable::new(TABLE_SHARDS, kind.idle_timeout(), move |flow| {
                build_engine(methods[flow], config, payload_map, model.as_ref())
            });
        let mut reports = Vec::new();
        let mut swept_us = i64::MIN;
        for (hash, flow, packet) in &staged.packets {
            table.push_hashed_into(*hash, *flow, packet, &mut reports);
            reports.clear();
            if packet.ts.as_micros().saturating_sub(swept_us) >= SWEEP_US {
                swept_us = packet.ts.as_micros();
                black_box(table.evict_idle(packet.ts));
            }
        }
        black_box(table.drain_finish_all());
        None
    }));

    // features, mlcore: only the ML engines accumulate features or predict.
    if let Some(model) = p.model.as_ref() {
        stages.push(Stage::new("features.acc", || accumulate(false)));
        stages.push(Stage::new("features.acc+vector", || accumulate(true)));
        stages.push(Stage::new("mlcore.predict", || {
            for vector in vectors.borrow().iter() {
                black_box(model.predict(vector));
            }
            None
        }));
    }

    // api: the facade, inline, draining after every record as the runner does.
    stages.push(Stage::new("api.ingest", || {
        let mut monitor = builder(kind, p.model.as_ref(), 1).build();
        let mut busy = Duration::ZERO;
        let mut seen = 0u64;
        chunks(image, |chunk| {
            timed(&mut busy, || {
                for record in chunk {
                    monitor.ingest_pcap_record(LinkType::Ethernet, record);
                    for event in monitor.drain_shared() {
                        seen += 1;
                        black_box(&event);
                    }
                }
            });
        });
        timed(&mut busy, || seen += monitor.finish_shared().len() as u64);
        assert_eq!(seen, p.oracle.events, "facade events");
        Some(busy)
    }));

    // bus, sink: every event the facade publishes, as it publishes it.
    stages.push(Stage::new("bus.publish", || {
        let mut bus = EventBus::new(AlertThresholds::new());
        bus.subscribe(EventFilter::all(), CountingSink::default());
        let mut busy = Duration::ZERO;
        fresh_events(p, |events| {
            timed(&mut busy, || events.iter().for_each(|e| bus.publish(e)));
        });
        assert_eq!(bus.published(), p.oracle.events, "bus events");
        Some(busy)
    }));
    stages.push(Stage::new("sink.serialize", || {
        Some(serialize_pass(false).0)
    }));
    // What the benchmark's own sink adds to the serializer in a replay —
    // the digest of every byte and the bookkeeping of the output checks —
    // as a difference taken chunk by chunk. Whichever sink goes second
    // sees warmer events, so they take turns.
    stages.push(Stage::new("harness.digest_and_checks", || {
        let (mut checked, _) = checked_sink(p);
        let mut plain = JsonLinesSink::new(std::io::sink());
        let (mut with, mut without) = (Duration::ZERO, Duration::ZERO);
        let mut checked_first = true;
        fresh_events(p, |events| {
            for turn in [checked_first, !checked_first] {
                if turn {
                    timed(&mut with, || {
                        events.iter().for_each(|e| checked.on_event(e))
                    });
                } else {
                    timed(&mut without, || {
                        events.iter().for_each(|e| plain.on_event(e))
                    });
                }
            }
            checked_first = !checked_first;
        });
        Some(with.saturating_sub(without))
    }));

    // runner: whole replays, closed loop and inline whatever the workload's
    // own drive is — untraced for the line the budget must add up to, and,
    // in the first rounds, traced: the allocator counting and the
    // control-plane probe subscribed.
    let inline = Drive::INLINE;
    let traced = Extras {
        count_allocs: true,
        probe: true,
    };
    let mut reference = Vec::new();
    let mut traced_walls = Vec::new();
    let mut heap = alloc::Counted::default();
    let mut probe = None;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && started.elapsed() < budget) {
        for stage in &mut stages {
            let ((), busy) = tracer.span(stage.name, || ((), (stage.pass)()));
            stage.busy_ns.push(busy.as_nanos() as f64);
        }
        for _ in 0..REFERENCE_PER_ROUND {
            let (r, _) = tracer.span("runner.replay", || {
                (replay(p, inline, Extras::default()), None)
            });
            out.attempt(&r);
            reference.push(r);
        }
        if rounds < MIN_ROUNDS {
            let (r, _) = tracer.span("runner.replay_traced", || (replay(p, inline, traced), None));
            out.attempt(&r);
            traced_walls.push(r.wall.as_nanos() as f64);
            heap = r.counted.expect("the replay counted");
            probe = r.probe.or(probe);
        }
        rounds += 1;
    }
    let quiet = |name: &str| {
        let stage = stages.iter().find(|s| s.name == name);
        stage.map_or(0.0, |s| quiet_cost(&s.busy_ns))
    };
    let walls: Vec<f64> = reference.iter().map(|r| r.wall.as_nanos() as f64).collect();
    let end_to_end = quiet_cost(&walls) / records;

    // Heap traffic of the reader and of the serializer, each on its own.
    alloc::start();
    read_all(image);
    let read_heap = alloc::stop();
    let (_, serialize_allocs) = serialize_pass(true);

    // The lag tail and the generator's lateness, under the workload's own drive.
    let own: Vec<_> = if kind.drive() == inline {
        reference
    } else {
        (0..PACED_REPLAYS)
            .map(|_| {
                let (r, _) = tracer.span("runner.replay_paced", || {
                    (replay(p, kind.drive(), Extras::default()), None)
                });
                out.attempt(&r);
                r
            })
            .collect()
    };
    let lags: Vec<f64> = own.iter().flat_map(|r| r.lags_us(&p.oracle)).collect();
    let late_us: Vec<f64> = own
        .iter()
        .flat_map(|r| r.source.late_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    drop(own);

    // Two workers, as fast as possible: handed over packet by packet as a
    // live source is, and in the runner's batches.
    let mut rates_of = |name: &'static str, feed: Feed| -> Vec<f64> {
        let drive = Drive { threads: 2, feed };
        (0..MIN_ROUNDS)
            .map(|_| {
                let (r, _) = tracer.span(name, || (replay(p, drive, Extras::default()), None));
                out.attempt(&r);
                records / r.wall.as_secs_f64()
            })
            .collect()
    };
    let handoff_kpps: Vec<f64> = rates_of("runner.replay_live_unpaced", Feed::LiveUnpaced)
        .iter()
        .map(|rate| rate / 1e3)
        .collect();
    let threaded = rates_of("runner.replay_threaded", Feed::Batch);

    let per_pkt = |ns: f64| ns / records;
    let per_event = |ns: f64| ns / events.max(1.0);
    let [pcap_read, parse, reject, rtp, source_next] = [
        "netpkt.pcap_read",
        "netpkt.parse",
        "netpkt.reject",
        "rtp.parse",
        "source.next",
    ]
    .map(quiet);
    let [media, assemble, push, table] = [
        "engine.media",
        "engine.assemble",
        "engine.push",
        "engine.table",
    ]
    .map(quiet);
    let [ingest, publish, serialize, harness] = [
        "api.ingest",
        "bus.publish",
        "sink.serialize",
        "harness.digest_and_checks",
    ]
    .map(quiet);
    let acc = quiet("features.acc");
    let vectors = vectors.borrow().len().max(1) as f64;
    let vector_per_window = (quiet("features.acc+vector") - acc).max(0.0) / vectors;
    let predict_per_window = quiet("mlcore.predict") / vectors;
    let explained = per_pkt(source_next + ingest + publish + serialize);
    let residual = end_to_end - explained;
    let table_self = per_pkt(table - push);
    let facade_self = per_pkt(ingest - parse - reject - rtp - table);
    let windows = windows.get() as f64;
    let stats = &p.oracle.stats;
    let peak_flows = probe.as_ref().map_or(0, |s| s.flows_live).max(1) as f64;
    let micros = |d: Option<Duration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e3);

    out.readings = vec![
        Reading::single("netpkt.pcap_read_ns_per_pkt", per_pkt(pcap_read)),
        Reading::single("netpkt.allocs_per_pkt", read_heap.allocs as f64 / records),
        Reading::single(
            "netpkt.read_bytes_per_pkt",
            read_heap.bytes as f64 / records,
        ),
        Reading::single("netpkt.parse_ns_per_pkt", per_pkt(parse)),
        Reading::single("netpkt.reject_ns_per_pkt", per_pkt(reject)),
        Reading::single("rtp.parse_ns_per_pkt", per_pkt(rtp)),
        Reading::single("source.next_ns_per_pkt", per_pkt(source_next)),
        Reading::single("engine.push_ns_per_pkt", per_pkt(push)),
        Reading::single("engine.table_ns_per_pkt", per_pkt(table)),
        Reading::single("engine.table_self_ns_per_pkt", table_self),
        Reading::single("engine.media_ns_per_pkt", per_pkt(media)),
        Reading::single("engine.assemble_ns_per_pkt", per_pkt(assemble)),
        Reading::single("engine.windows", windows),
        Reading::single(
            "engine.state_bytes_per_flow",
            heap.peak_bytes as f64 / peak_flows,
        ),
        Reading::single("features.acc_ns_per_pkt", per_pkt(acc)),
        Reading::single("features.vector_ns_per_window", vector_per_window),
        Reading::single("mlcore.predict_ns_per_window", predict_per_window),
        Reading::single("api.ingest_ns_per_pkt", per_pkt(ingest)),
        Reading::single("api.facade_self_ns_per_pkt", facade_self),
        Reading::single("api.flows_opened", stats.flows_opened as f64),
        Reading::single("api.flows_evicted", stats.flows_evicted as f64),
        Reading::single("api.parse_drops", stats.parse_drops as f64),
        Reading::single("api.events", events),
        Reading::single("api.events_per_kpkt", 1e3 * events / records),
        Reading::single("bus.publish_ns_per_event", per_event(publish)),
        Reading::single("sink.serialize_ns_per_event", per_event(serialize)),
        Reading::single(
            "sink.json_bytes_per_event",
            p.oracle.json_bytes as f64 / events.max(1.0),
        ),
        Reading::single(
            "sink.allocs_per_event",
            serialize_allocs as f64 / events.max(1.0),
        ),
        Reading::single("runner.residual_ns_per_pkt", residual),
        Reading::single("runner.residual_share", residual / end_to_end),
        Reading::single("runner.allocs_per_kpkt", 1e3 * heap.allocs as f64 / records),
        Reading::single("runner.alloc_bytes_per_pkt", heap.bytes as f64 / records),
        Reading::quantile("runner.report_lag_p90_us", &lags, 90.0),
        Reading::quantile("runner.report_lag_p99_us", &lags, 99.0),
        Reading::quantile("runner.gen_late_p99_us", &late_us, 99.0),
        Reading::quantile(
            "runner.live_handoff_kpps",
            &handoff_kpps,
            QUIET_RATE_PERCENTILE,
        ),
        Reading::quantile(
            "runner.threaded_pkts_per_s",
            &threaded,
            QUIET_RATE_PERCENTILE,
        ),
        Reading::single(
            "daemon.snapshot_us",
            micros(probe.as_ref().map(|s| s.snapshot)),
        ),
        Reading::single(
            "daemon.metrics_render_us",
            micros(probe.as_ref().map(|s| s.render)),
        ),
        Reading::single(
            "trace_overhead_share",
            quiet_cost(&traced_walls) / quiet_cost(&walls) - 1.0,
        ),
    ];

    let row = |depth, stage, ns_per_pkt| BudgetRow {
        depth,
        stage,
        ns_per_pkt,
    };
    let budget = vec![
        row(0, "source.next", per_pkt(source_next)),
        row(1, "netpkt.pcap_read", per_pkt(pcap_read)),
        row(0, "api.ingest", per_pkt(ingest)),
        row(1, "netpkt.parse", per_pkt(parse)),
        row(1, "netpkt.reject", per_pkt(reject)),
        row(1, "rtp.parse", per_pkt(rtp)),
        row(1, "engine.table", per_pkt(table)),
        row(2, "engine.push", per_pkt(push)),
        row(3, "engine.media", per_pkt(media)),
        row(3, "engine.assemble", per_pkt(assemble)),
        row(3, "features.acc", per_pkt(acc)),
        row(3, "features.vector", vector_per_window * windows / records),
        row(3, "mlcore.predict", predict_per_window * windows / records),
        row(2, "engine.table_self", table_self),
        row(1, "api.facade_self", facade_self),
        row(0, "bus.publish", per_pkt(publish)),
        row(0, "sink.serialize", per_pkt(serialize)),
        row(0, "runner.residual", residual),
        row(1, "harness.digest_and_checks", per_pkt(harness)),
    ];

    Traced {
        outcome: out,
        end_to_end_ns_per_pkt: end_to_end,
        budget,
        trace_json: tracer.finish(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::{prepare_image, Kind};

    #[test]
    fn the_budget_adds_up_and_every_layer_metric_is_reported_in_order() {
        let _counting = alloc::exclusive();
        let p = prepare_image(Kind::TapMixed, crate::gen::small_image(5), 5);
        let traced = run(&p, 5, 0.0);
        assert_eq!(
            (traced.outcome.failed, &traced.outcome.failures),
            (0, &Vec::new())
        );
        let names: Vec<&str> = traced.outcome.readings.iter().map(|r| r.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);

        let top: f64 = traced
            .budget
            .iter()
            .filter(|row| row.depth == 0)
            .map(|row| row.ns_per_pkt)
            .sum();
        let total = traced.end_to_end_ns_per_pkt;
        assert!(
            total > 0.0 && (top - total).abs() < 1e-6 * total,
            "{top} vs {total}"
        );

        let value = |name: &str| {
            let r = traced.outcome.readings.iter().find(|r| r.name == name);
            r.expect("declared metric").value
        };
        // An auto-method monitor attempts the RTP parse; no ML engine runs.
        assert!(value("rtp.parse_ns_per_pkt") > 0.0);
        assert_eq!(value("features.acc_ns_per_pkt"), 0.0);
        assert_eq!(value("mlcore.predict_ns_per_window"), 0.0);
        assert_eq!(value("api.parse_drops"), p.image.rejects as f64);
        assert_eq!(value("api.flows_opened"), p.image.flows as f64);
    }

    #[test]
    fn spans_keep_their_busy_time_and_render_as_json() {
        let mut tracer = Tracer::new("test");
        let (value, busy) = tracer.span("stage", || (7, Some(Duration::from_nanos(5))));
        assert_eq!((value, busy), (7, Duration::from_nanos(5)));
        let ((), whole) = tracer.span("stage", || ((), None));
        let json = tracer.finish(7);
        assert!(json.starts_with("{\"workload\":\"test\",\"seed\":7,"));
        assert_eq!(json.matches("\"name\":\"stage\"").count(), 2);
        assert!(json.contains("\"busy_ns\":5}"));
        assert!(json.contains(&format!("\"busy_ns\":{}}}", whole.as_nanos())));
    }
}
