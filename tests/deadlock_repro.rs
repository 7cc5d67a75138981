use std::net::{IpAddr, Ipv4Addr};
use vcaml::{EstimationMethod, Method, MonitorBuilder, OverflowPolicy, TracePacket};
use vcaml_netpkt::{FlowKey, Timestamp};

#[test]
fn parse_drop_on_full_queue_threaded_block() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut m = MonitorBuilder::new(vcaml_rtp::VcaKind::Meet)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2)
            .queue_capacity(1)
            .overflow(OverflowPolicy::Block)
            .build();
        let (flow, _) = FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        );
        // >512 packets so a batch flushes to the worker, which emits
        // events past the size-1 queue's bound: nothing drains it
        // concurrently, so the worker grows it instead of parking.
        for i in 0..2000i64 {
            let p = TracePacket {
                ts: Timestamp::from_micros(i * 40_000),
                size: 1200,
                rtp: None,
                truth_media: None,
            };
            m.ingest_packet(flow, p);
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        // Queue is now full. A drop is only counted; the next record,
        // past its interval, closes the summary and pushes it into the
        // full queue from the caller's thread — which must not hang it.
        for ts in [-1, 2000 * 40_000] {
            let p = TracePacket {
                ts: Timestamp::from_micros(ts),
                size: 100,
                rtp: None,
                truth_media: None,
            };
            m.ingest_packet(flow, p);
        }
        assert_eq!(m.stats().parse_drops, 1);
        assert!(m.drain_events().any(|e| e.tag() == "parse_drop"));
        drop(m);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("monitor deadlocked on parse drop with full Block queue");
}
