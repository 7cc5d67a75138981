//! Cross-crate integration tests: simulator → datasets → media
//! classification, plus wire-format round trips. (The evaluation
//! pipeline's end-to-end tests live with it, in `crates/bench/tests`.)

use vcaml_suite::datasets::{inlab_corpus, to_core_trace, CorpusConfig};
use vcaml_suite::netem::{synth_ndt_schedule, LinkConfig};
use vcaml_suite::netpkt::{LinkType, PcapReader, PcapWriter, UdpHeaders};
use vcaml_suite::rtp::{MediaKind, RtpHeader, VcaKind};
use vcaml_suite::vcaml::MediaClassifier;
use vcaml_suite::vcasim::{Session, SessionConfig, VcaProfile};

fn small_corpus(vca: VcaKind, seed: u64) -> Vec<vcaml_suite::vcaml::Trace> {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 6,
            min_secs: 25,
            max_secs: 35,
            seed,
        },
    )
}

#[test]
fn media_classification_high_accuracy_all_vcas() {
    for vca in VcaKind::ALL {
        let traces = small_corpus(vca, 3);
        let classifier = MediaClassifier::default();
        let mut correct = 0u64;
        let mut total = 0u64;
        for t in &traces {
            let m = classifier.evaluate(t, 304);
            correct += m.count(0, 0) + m.count(1, 1);
            total += m.row_total(0) + m.row_total(1);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "{vca}: media accuracy {acc}");
    }
}

#[test]
fn captured_bytes_roundtrip_through_pcap() {
    let profile = VcaProfile::lab(VcaKind::Teams);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(9, 10),
        duration_secs: 10,
        seed: 9,
        link: LinkConfig::default(),
    })
    .run();
    let captured = session.to_captured();

    // Raw-IP pcap: write IPv4 packets, read them back, re-parse.
    let mut w = PcapWriter::new(Vec::new(), LinkType::RawIp).unwrap();
    for cap in &captured {
        // Rebuild the IPv4 packet bytes from the datagram.
        let payload = &cap.datagram.payload;
        let mut buf = vec![0u8; 20 + 8 + payload.len()];
        vcaml_suite::netpkt::Ipv4Repr {
            src: [203, 0, 113, 10],
            dst: [192, 168, 1, 100],
            protocol: vcaml_suite::netpkt::IP_PROTO_UDP,
            payload_len: 8 + payload.len(),
            ttl: 58,
            ident: 0,
        }
        .emit(&mut buf);
        buf[28..].copy_from_slice(payload);
        vcaml_suite::netpkt::UdpRepr {
            src_port: 3478,
            dst_port: 51820,
        }
        .emit_v4(
            &mut buf[20..],
            payload.len(),
            [203, 0, 113, 10],
            [192, 168, 1, 100],
        );
        w.write_packet(cap.ts, &buf).unwrap();
    }
    let bytes = w.finish().unwrap();

    let mut r = PcapReader::new(std::io::Cursor::new(bytes)).unwrap();
    assert_eq!(r.link_type(), LinkType::RawIp);
    let mut n = 0usize;
    while let Some(rec) = r.next_record().unwrap() {
        let h = UdpHeaders::parse_ipv4(&rec.data).unwrap().expect("udp");
        assert_eq!(h.ip_total_len, captured[n].size());
        assert_eq!(rec.ts, captured[n].ts);
        n += 1;
    }
    assert_eq!(n, captured.len());
}

#[test]
fn rtp_headers_in_captured_bytes_match_simulation() {
    let profile = VcaProfile::lab(VcaKind::Meet);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: synth_ndt_schedule(10, 8),
        duration_secs: 8,
        seed: 10,
        link: LinkConfig::default(),
    })
    .run();
    let trace = to_core_trace(&session, profile.payload_map);
    // PT classification must agree with simulator truth for RTP packets.
    for p in &trace.packets {
        if let Some(h) = p.rtp {
            let classified = profile.payload_map.classify(h.payload_type);
            match p.truth_media.unwrap() {
                MediaKind::Video => assert_eq!(classified, Some(MediaKind::Video)),
                MediaKind::Audio => assert_eq!(classified, Some(MediaKind::Audio)),
                MediaKind::VideoRtx => assert_eq!(classified, Some(MediaKind::VideoRtx)),
                MediaKind::Control => panic!("control packet with RTP header"),
            }
        }
    }
    // And the emitted wire bytes parse back to the same header.
    let captured = session.to_captured();
    for (cap, sim) in captured.iter().zip(&session.packets) {
        match sim.rtp {
            Some(h) => assert_eq!(RtpHeader::parse(&cap.datagram.payload).unwrap(), h),
            None => assert!(RtpHeader::parse(&cap.datagram.payload).is_err()),
        }
    }
}

#[test]
fn corpora_are_deterministic_across_processes() {
    // Same seeds -> identical window counts and truth series.
    let a = small_corpus(VcaKind::Meet, 11);
    let b = small_corpus(VcaKind::Meet, 11);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.packets.len(), y.packets.len());
        assert_eq!(x.truth.len(), y.truth.len());
        for (tx, ty) in x.truth.iter().zip(&y.truth) {
            assert_eq!(tx.fps, ty.fps);
            assert_eq!(tx.bitrate_kbps, ty.bitrate_kbps);
        }
    }
}
