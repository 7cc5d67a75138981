//! One function per paper table/figure. Each prints a paper-style text
//! rendering and writes a JSON artifact via [`crate::report::Sink`].

// The experiment harness fails fast: artifact IO and corpus invariants
// are fatal here (each site carries a `// lint: allow` justification).
#![allow(clippy::unwrap_used)]

use crate::ctx::{Corpus, Ctx};
use crate::errors::{analyze_window, ErrorCounts};
use crate::modes::{detect_video_off, estimate_participants_ipudp, estimate_participants_rtp};
use crate::pipeline::{
    eval_heuristic, eval_ml_regression, eval_ml_resolution, feature_importances,
    transfer_regression, Target,
};
use crate::report::{cdf_points, fraction_le, section, table, Sink};
use serde_json::json;
use std::collections::HashMap;
use vcaml::{
    heuristic::IpUdpHeuristic, media::MediaClassifier, qoe::estimate_windows, Method, Trace,
};
use vcaml_mlcore::{mae, percentile, Dataset, RandomForest, Task};
use vcaml_netem::{ImpairmentDim, ImpairmentProfile};
use vcaml_netpkt::Timestamp;
use vcaml_rtp::{MediaKind, VcaKind};

type ExpFn = fn(&mut Ctx, &Sink);

/// The experiment registry: (id, description, runner).
pub fn registry() -> Vec<(&'static str, &'static str, ExpFn)> {
    vec![
        ("f1", "Fig 1: packet sizes vs payload type (Teams)", f1),
        (
            "f2",
            "Fig 2: intra-/inter-frame packet size difference (Teams)",
            f2,
        ),
        ("t2", "Table 2: media classification confusion (Meet)", t2),
        (
            "ta1",
            "Table A.1: media classification confusion (Webex)",
            ta1,
        ),
        (
            "ta2",
            "Table A.2: media classification confusion (Teams)",
            ta2,
        ),
        ("f3", "Fig 3: in-lab frame rate errors", f3),
        ("f4", "Fig 4: heuristic error taxonomy", f4),
        (
            "f5",
            "Fig 5: top-5 IP/UDP ML frame-rate features (Teams)",
            f5,
        ),
        ("f6a", "Fig 6a: in-lab bitrate relative errors", f6a),
        ("f6b", "Fig 6b: in-lab frame jitter errors", f6b),
        ("f7", "Fig 7: top-5 IP/UDP ML bitrate features (Webex)", f7),
        ("f8", "Fig 8: frame jitter time series (Meet)", f8),
        (
            "f9",
            "Fig 9: top-5 IP/UDP ML resolution features (Webex)",
            f9,
        ),
        ("t3", "Table 3: resolution accuracy", t3),
        ("t4", "Table 4: Teams resolution confusion (in-lab)", t4),
        (
            "f10",
            "Fig 10: real-world errors (frame rate, bitrate, jitter)",
            f10,
        ),
        ("t5", "Table 5: transferability, frame rate MAE", t5),
        ("f11", "Fig 11: frame-rate MAE vs packet loss", f11),
        ("f12", "Fig 12: frame-rate MAE vs prediction window", f12),
        ("fa1", "Fig A.1: ground-truth QoE CDFs (in-lab)", fa1),
        ("fa2", "Fig A.2: ground-truth QoE CDFs (real-world)", fa2),
        (
            "fa3",
            "Fig A.3: heuristic frame-assignment illustration",
            fa3,
        ),
        (
            "fa4",
            "Fig A.4: IP/UDP ML frame-rate features (Meet, Webex)",
            fa4,
        ),
        ("fa5", "Fig A.5: RTP ML frame-rate features (all VCAs)", fa5),
        (
            "fa6",
            "Fig A.6: IP/UDP ML bitrate features (Meet, Teams)",
            fa6,
        ),
        ("fa7", "Fig A.7: RTP ML bitrate features (all VCAs)", fa7),
        (
            "fa8",
            "Fig A.8: IP/UDP ML resolution features (Meet, Teams)",
            fa8,
        ),
        ("fa9", "Fig A.9: RTP ML resolution features (all VCAs)", fa9),
        (
            "fa10",
            "Fig A.10: frame-rate MAE vs heuristic lookback",
            fa10,
        ),
        (
            "ta3",
            "Table A.3: Teams resolution confusion (real-world)",
            ta3,
        ),
        ("ta4", "Table A.4: transferability, bitrate MAE", ta4),
        ("ta5", "Table A.5: transferability, frame jitter MAE", ta5),
        ("ta6", "Table A.6: impairment profiles", ta6),
        ("ab1", "Ablation: Vmin threshold sweep", ab1),
        ("ab2", "Ablation: semantics features on/off", ab2),
        ("ab3", "Ablation: forest size vs accuracy", ab3),
        ("ab4", "Ablation: microburst threshold sweep", ab4),
        ("ab5", "Ablation: heuristic size-delta sweep", ab5),
        ("ab6", "Ablation: model family comparison", ab6),
        (
            "am1",
            "Extension: application modes (video-off, multi-party)",
            am1,
        ),
    ]
}

// ---------------------------------------------------------------------
// Packet-level characterization (Figs 1, 2, A.1–A.3; Tables 2, A.1, A.2)
// ---------------------------------------------------------------------

fn media_sizes(traces: &[Trace]) -> HashMap<&'static str, Vec<f64>> {
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for t in traces {
        for p in &t.packets {
            let key = match p.truth_media {
                Some(MediaKind::Audio) => "Audio",
                Some(MediaKind::Video) => "Video",
                Some(MediaKind::VideoRtx) => "Video-RTx",
                _ => continue,
            };
            by_kind.entry(key).or_default().push(f64::from(p.size));
        }
    }
    by_kind
}

fn f1(ctx: &mut Ctx, sink: &Sink) {
    section("F1", "Packet sizes vs payload type, Teams in-lab");
    let traces = ctx.traces(Corpus::InLab, VcaKind::Teams).to_vec();
    let by_kind = media_sizes(&traces);
    let total: usize = by_kind.values().map(Vec::len).sum();
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for kind in ["Audio", "Video-RTx", "Video"] {
        let sizes = &by_kind[kind];
        let share = sizes.len() as f64 / total as f64 * 100.0;
        let p1 = percentile(sizes, 1.0);
        let p99 = percentile(sizes, 99.0);
        rows.push(vec![
            kind.to_string(),
            format!("{share:.0}%"),
            format!(
                "[{:.0}, {:.0}]",
                percentile(sizes, 0.0),
                percentile(sizes, 100.0)
            ),
            format!("{p1:.0}"),
            format!("{p99:.0}"),
        ]);
        artifact.insert(
            kind.into(),
            json!({ "share_pct": share, "cdf": cdf_points(sizes, 21) }),
        );
    }
    println!(
        "{}",
        table(&["Media", "Share", "Size range [B]", "p1", "p99"], &rows)
    );
    let video = &by_kind["Video"];
    println!(
        "video packets > 564 B: {:.1}% (paper: 99%)",
        (1.0 - fraction_le(video, 564.0)) * 100.0
    );
    sink.write("f1", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// Per-frame packet sizes from PT-classified video packets, in arrival
/// order, grouped by RTP timestamp.
fn truth_frames_sizes(trace: &Trace) -> Vec<Vec<u16>> {
    let mut frames: Vec<(u32, Vec<u16>)> = Vec::new();
    for p in trace.rtp_video_packets() {
        let ts = p.rtp.unwrap().timestamp; // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
        match frames.iter_mut().rev().take(8).find(|(t, _)| *t == ts) {
            Some((_, v)) => v.push(p.size),
            None => frames.push((ts, vec![p.size])),
        }
    }
    frames.into_iter().map(|(_, v)| v).collect()
}

fn f2(ctx: &mut Ctx, sink: &Sink) {
    section(
        "F2",
        "Intra- vs inter-frame packet size difference, Teams in-lab",
    );
    let traces = ctx.traces(Corpus::InLab, VcaKind::Teams).to_vec();
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for t in &traces {
        let frames = truth_frames_sizes(t);
        for f in &frames {
            if f.len() >= 2 {
                let lo = *f.iter().min().unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
                let hi = *f.iter().max().unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
                intra.push(f64::from(hi - lo));
            }
        }
        for w in frames.windows(2) {
            let last = *w[0].last().unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
            let first = w[1][0];
            inter.push(f64::from(last.abs_diff(first)));
        }
    }
    println!(
        "frames analyzed: {} multi-packet, {} consecutive pairs",
        intra.len(),
        inter.len()
    );
    println!(
        "intra-frame diff < 2 B: {:.2}% (paper: ~100%)",
        fraction_le(&intra, 1.99) * 100.0
    );
    println!(
        "inter-frame diff >= 2 B: {:.2}% (paper: 99.4%)",
        (1.0 - fraction_le(&inter, 1.99)) * 100.0
    );
    sink.write(
        "f2",
        &json!({
            "intra_cdf": cdf_points(&intra, 21),
            "inter_cdf": cdf_points(&inter, 21),
            "intra_le_2": fraction_le(&intra, 1.99),
            "inter_ge_2": 1.0 - fraction_le(&inter, 1.99),
        }),
    )
    .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn media_confusion(ctx: &mut Ctx, sink: &Sink, id: &str, vca: VcaKind) {
    section(
        &id.to_uppercase(),
        &format!("Media classification confusion, {vca} in-lab"),
    );
    let traces = ctx.traces(Corpus::InLab, vca).to_vec();
    let opts = ctx.opts(vca);
    let classifier = MediaClassifier::new(opts.engine.vmin);
    let mut m = vcaml_mlcore::ConfusionMatrix::new(vec!["Non-video".into(), "Video".into()]);
    for t in &traces {
        let part = classifier.evaluate(t, 304);
        for a in 0..2 {
            for p in 0..2 {
                for _ in 0..part.count(a, p) {
                    m.record(a, p);
                }
            }
        }
    }
    println!("{}", m.render());
    sink.write(
        id,
        &json!({
            "vca": vca.name(),
            "non_video": { "correct_pct": m.percent(0,0), "misclassified_pct": m.percent(0,1), "total": m.row_total(0) },
            "video": { "correct_pct": m.percent(1,1), "missed_pct": m.percent(1,0), "total": m.row_total(1) },
        }),
    )
    .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn t2(ctx: &mut Ctx, sink: &Sink) {
    media_confusion(ctx, sink, "t2", VcaKind::Meet);
}
fn ta1(ctx: &mut Ctx, sink: &Sink) {
    media_confusion(ctx, sink, "ta1", VcaKind::Webex);
}
fn ta2(ctx: &mut Ctx, sink: &Sink) {
    media_confusion(ctx, sink, "ta2", VcaKind::Teams);
}

fn truth_cdfs(ctx: &mut Ctx, sink: &Sink, id: &str, corpus: Corpus) {
    let label = if corpus == Corpus::InLab {
        "in-lab"
    } else {
        "real-world"
    };
    section(
        &id.to_uppercase(),
        &format!("Ground-truth QoE CDFs, {label}"),
    );
    let mut artifact = serde_json::Map::new();
    let mut rows = Vec::new();
    for vca in VcaKind::ALL {
        let traces = ctx.traces(corpus, vca).to_vec();
        let mut fps = Vec::new();
        let mut br = Vec::new();
        let mut jit = Vec::new();
        for t in &traces {
            for r in &t.truth {
                fps.push(r.fps);
                br.push(r.bitrate_kbps);
                jit.push(r.frame_jitter_ms);
            }
        }
        rows.push(vec![
            vca.name().to_string(),
            format!("{:.1}", percentile(&fps, 50.0)),
            format!("{:.0}", percentile(&br, 50.0)),
            format!("{:.1}", percentile(&jit, 50.0)),
            format!("{}", fps.len()),
        ]);
        artifact.insert(
            vca.name().into(),
            json!({
                "fps_cdf": cdf_points(&fps, 21),
                "bitrate_cdf": cdf_points(&br, 21),
                "jitter_cdf": cdf_points(&jit, 21),
            }),
        );
    }
    println!(
        "{}",
        table(
            &[
                "VCA",
                "median FPS",
                "median kbps",
                "median jitter ms",
                "seconds"
            ],
            &rows
        )
    );
    sink.write(id, &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn fa1(ctx: &mut Ctx, sink: &Sink) {
    truth_cdfs(ctx, sink, "fa1", Corpus::InLab);
}
fn fa2(ctx: &mut Ctx, sink: &Sink) {
    truth_cdfs(ctx, sink, "fa2", Corpus::RealWorld);
}

fn fa3(ctx: &mut Ctx, sink: &Sink) {
    section(
        "FA3",
        "IP/UDP Heuristic frame assignment over one 1-s window (Teams)",
    );
    let traces = ctx.traces(Corpus::InLab, VcaKind::Teams).to_vec();
    let opts = ctx.opts(VcaKind::Teams);
    let trace = &traces[0];
    // Take the PT-video packets of second 5.
    let pkts: Vec<(Timestamp, u16, u32)> = trace
        .rtp_video_packets()
        .filter(|p| p.ts.second_index() == 5)
        .map(|p| (p.ts, p.size, p.rtp.unwrap().timestamp)) // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
        .collect();
    let input: Vec<(Timestamp, u16)> = pkts.iter().map(|&(t, s, _)| (t, s)).collect();
    let (_, asg) = IpUdpHeuristic::new(opts.engine.heuristic).assemble(&input);
    // Renumber RTP timestamps and frame ids for readability.
    let mut ts_ids: Vec<u32> = Vec::new();
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for (i, &(_, size, ts)) in pkts.iter().enumerate().take(24) {
        let ts_id = match ts_ids.iter().position(|&t| t == ts) {
            Some(p) => p + 1,
            None => {
                ts_ids.push(ts);
                ts_ids.len()
            }
        };
        rows.push(vec![
            format!("{i}"),
            format!("{size}"),
            format!("{ts_id}"),
            format!("{}", asg[i].frame_id + 1),
        ]);
        artifact.push(
            json!({"pkt": i, "size": size, "rtp_frame": ts_id, "assigned": asg[i].frame_id + 1}),
        );
    }
    println!(
        "{}",
        table(&["Pkt", "Size [B]", "True frame", "Assigned frame"], &rows)
    );
    sink.write("fa3", &artifact).unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

// ---------------------------------------------------------------------
// Method accuracy (Figs 3, 6a, 6b, 10; Fig 8 time series)
// ---------------------------------------------------------------------

/// (preds, truths) for any (method, regression target).
fn run_method(
    ctx: &mut Ctx,
    corpus: Corpus,
    vca: VcaKind,
    method: Method,
    target: Target,
) -> (Vec<f64>, Vec<f64>) {
    let opts = ctx.opts(vca);
    let set = ctx.samples(corpus, vca, 1);
    if method.is_ml() {
        eval_ml_regression(set, method, target, &opts)
    } else {
        eval_heuristic(set, method, target)
    }
}

fn error_figure(
    ctx: &mut Ctx,
    sink: &Sink,
    id: &str,
    title: &str,
    corpus: Corpus,
    target: Target,
    relative: bool,
) {
    section(&id.to_uppercase(), title);
    let metric_label = if relative { "MRAE" } else { "MAE" };
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        for method in Method::ALL {
            let (preds, truths) = run_method(ctx, corpus, vca, method, target);
            let errs: Vec<f64> = if relative {
                preds
                    .iter()
                    .zip(&truths)
                    .filter(|(_, t)| t.abs() > 1e-9)
                    .map(|(p, t)| (p - t) / t)
                    .collect()
            } else {
                preds.iter().zip(&truths).map(|(p, t)| p - t).collect()
            };
            let headline = if relative {
                vcaml_mlcore::mrae(&preds, &truths)
            } else {
                mae(&preds, &truths)
            };
            rows.push(vec![
                vca.name().to_string(),
                method.name().to_string(),
                if relative {
                    format!("{:.0}%", headline * 100.0)
                } else {
                    format!("{headline:.2}")
                },
                format!("{:.2}", percentile(&errs, 10.0)),
                format!("{:.2}", percentile(&errs, 50.0)),
                format!("{:.2}", percentile(&errs, 90.0)),
            ]);
            artifact.insert(
                format!("{}/{}", vca.name(), method.name()),
                json!({
                    "headline": headline,
                    "p10": percentile(&errs, 10.0),
                    "median": percentile(&errs, 50.0),
                    "p90": percentile(&errs, 90.0),
                    "n": errs.len(),
                }),
            );
        }
    }
    println!(
        "{}",
        table(
            &["VCA", "Method", metric_label, "p10", "median", "p90"],
            &rows
        )
    );
    sink.write(id, &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn f3(ctx: &mut Ctx, sink: &Sink) {
    error_figure(
        ctx,
        sink,
        "f3",
        "In-lab frame rate errors [FPS]",
        Corpus::InLab,
        Target::FrameRate,
        false,
    );
}

fn f6a(ctx: &mut Ctx, sink: &Sink) {
    error_figure(
        ctx,
        sink,
        "f6a",
        "In-lab bitrate relative errors",
        Corpus::InLab,
        Target::Bitrate,
        true,
    );
}

fn f6b(ctx: &mut Ctx, sink: &Sink) {
    error_figure(
        ctx,
        sink,
        "f6b",
        "In-lab frame jitter errors [ms]",
        Corpus::InLab,
        Target::FrameJitter,
        false,
    );
}

fn f10(ctx: &mut Ctx, sink: &Sink) {
    error_figure(
        ctx,
        sink,
        "f10a",
        "Real-world frame rate errors [FPS]",
        Corpus::RealWorld,
        Target::FrameRate,
        false,
    );
    error_figure(
        ctx,
        sink,
        "f10b",
        "Real-world bitrate relative errors",
        Corpus::RealWorld,
        Target::Bitrate,
        true,
    );
    error_figure(
        ctx,
        sink,
        "f10c",
        "Real-world frame jitter errors [ms]",
        Corpus::RealWorld,
        Target::FrameJitter,
        false,
    );
    sink.write("f10", &json!({"see": ["f10a", "f10b", "f10c"]}))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn f4(ctx: &mut Ctx, sink: &Sink) {
    section("F4", "Heuristic error taxonomy (avg frames per 1-s window)");
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let opts = ctx.opts(vca);
        let traces = ctx.traces(Corpus::InLab, vca).to_vec();
        let mut total = ErrorCounts::default();
        for t in &traces {
            // Per-second windows of PT-video packets.
            let mut by_sec: HashMap<i64, Vec<(Timestamp, u16, u32)>> = HashMap::new();
            for p in t.rtp_video_packets() {
                by_sec.entry(p.ts.second_index()).or_default().push((
                    p.ts,
                    p.size,
                    p.rtp.unwrap().timestamp, // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
                ));
            }
            for pkts in by_sec.values() {
                if pkts.len() < 2 {
                    continue;
                }
                let input: Vec<(Timestamp, u16)> = pkts.iter().map(|&(t, s, _)| (t, s)).collect();
                let (_, asg) = IpUdpHeuristic::new(opts.engine.heuristic).assemble(&input);
                let st: Vec<(u16, u32)> = pkts.iter().map(|&(_, s, ts)| (s, ts)).collect();
                total.add(&analyze_window(&st, &asg, &opts.engine.heuristic));
            }
        }
        let (s, i, c) = total.averages();
        rows.push(vec![
            vca.name().to_string(),
            format!("{s:.2}"),
            format!("{i:.2}"),
            format!("{c:.2}"),
        ]);
        artifact.insert(
            vca.name().into(),
            json!({"splits": s, "interleaves": i, "coalesces": c, "windows": total.windows}),
        );
    }
    println!(
        "{}",
        table(&["VCA", "Splits", "Interleaves", "Coalesces"], &rows)
    );
    sink.write("f4", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn f8(ctx: &mut Ctx, sink: &Sink) {
    section("F8", "Frame jitter time series for one Meet in-lab trace");
    let opts = ctx.opts(VcaKind::Meet);
    let set = ctx.samples(Corpus::InLab, VcaKind::Meet, 1).clone();
    // Pick the trace with the biggest jitter spike.
    let spike_trace = set
        .samples
        .iter()
        .max_by(|a, b| a.truth.frame_jitter_ms.total_cmp(&b.truth.frame_jitter_ms))
        .map(|s| s.trace_id)
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
                   // Train on every other trace, predict the chosen one.
    let mut train = Dataset::new(set.ipudp_names.clone());
    let mut test_feats: Vec<(i64, Vec<f64>, f64)> = Vec::new();
    for s in &set.samples {
        if s.trace_id == spike_trace {
            test_feats.push((
                s.truth.second,
                s.ipudp_features.clone(),
                s.truth.frame_jitter_ms,
            ));
        } else {
            train.push(&s.ipudp_features, s.truth.frame_jitter_ms);
        }
    }
    let forest = RandomForest::fit(&train, Task::Regression, &opts.forest);
    test_feats.sort_by_key(|(sec, _, _)| *sec);
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for (sec, feats, truth) in &test_feats {
        let pred = forest.predict(feats);
        rows.push(vec![
            format!("{sec}"),
            format!("{pred:.1}"),
            format!("{truth:.1}"),
        ]);
        artifact.push(json!({"t": sec, "pred_ms": pred, "truth_ms": truth}));
    }
    println!(
        "{}",
        table(&["t [s]", "IP/UDP ML [ms]", "Ground truth [ms]"], &rows)
    );
    sink.write("f8", &artifact).unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

// ---------------------------------------------------------------------
// Feature importances (Figs 5, 7, 9, A.4–A.9)
// ---------------------------------------------------------------------

fn importance_figure(
    ctx: &mut Ctx,
    sink: &Sink,
    id: &str,
    title: &str,
    method: Method,
    target: Target,
    vcas: &[VcaKind],
) {
    section(&id.to_uppercase(), title);
    let mut artifact = serde_json::Map::new();
    for &vca in vcas {
        let opts = ctx.opts(vca);
        let set = ctx.samples(Corpus::InLab, vca, 1).clone();
        let top = feature_importances(&set, method, target, &opts, 5);
        let rows: Vec<Vec<String>> = top
            .iter()
            .map(|(name, imp)| vec![name.clone(), format!("{:.1}%", imp * 100.0)])
            .collect();
        println!("-- {vca}");
        println!("{}", table(&["Feature", "Importance"], &rows));
        artifact.insert(
            vca.name().into(),
            json!(top
                .iter()
                .map(|(n, v)| json!({"feature": n, "importance": v}))
                .collect::<Vec<_>>()),
        );
    }
    sink.write(id, &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn f5(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "f5",
        "IP/UDP ML frame-rate importances (Teams)",
        Method::IpUdpMl,
        Target::FrameRate,
        &[VcaKind::Teams],
    );
}
fn fa4(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa4",
        "IP/UDP ML frame-rate importances (Meet, Webex)",
        Method::IpUdpMl,
        Target::FrameRate,
        &[VcaKind::Meet, VcaKind::Webex],
    );
}
fn fa5(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa5",
        "RTP ML frame-rate importances",
        Method::RtpMl,
        Target::FrameRate,
        &VcaKind::ALL,
    );
}
fn f7(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "f7",
        "IP/UDP ML bitrate importances (Webex)",
        Method::IpUdpMl,
        Target::Bitrate,
        &[VcaKind::Webex],
    );
}
fn fa6(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa6",
        "IP/UDP ML bitrate importances (Meet, Teams)",
        Method::IpUdpMl,
        Target::Bitrate,
        &[VcaKind::Meet, VcaKind::Teams],
    );
}
fn fa7(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa7",
        "RTP ML bitrate importances",
        Method::RtpMl,
        Target::Bitrate,
        &VcaKind::ALL,
    );
}
fn f9(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "f9",
        "IP/UDP ML resolution importances (Webex)",
        Method::IpUdpMl,
        Target::Resolution,
        &[VcaKind::Webex],
    );
}
fn fa8(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa8",
        "IP/UDP ML resolution importances (Meet, Teams)",
        Method::IpUdpMl,
        Target::Resolution,
        &[VcaKind::Meet, VcaKind::Teams],
    );
}
fn fa9(ctx: &mut Ctx, sink: &Sink) {
    importance_figure(
        ctx,
        sink,
        "fa9",
        "RTP ML resolution importances",
        Method::RtpMl,
        Target::Resolution,
        &VcaKind::ALL,
    );
}

// ---------------------------------------------------------------------
// Resolution classification (Tables 3, 4, A.3)
// ---------------------------------------------------------------------

fn t3(ctx: &mut Ctx, sink: &Sink) {
    section("T3", "Resolution estimation accuracy (in-lab)");
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for method in [Method::IpUdpMl, Method::RtpMl] {
        let mut row = vec![method.name().to_string()];
        for vca in VcaKind::ALL {
            let opts = ctx.opts(vca);
            let set = ctx.samples(Corpus::InLab, vca, 1).clone();
            let acc = eval_ml_resolution(&set, method, &opts)
                .map_or("n/a".to_string(), |(_, a)| format!("{:.2}%", a * 100.0));
            artifact.insert(format!("{}/{}", method.name(), vca.name()), json!(acc));
            row.push(acc);
        }
        rows.push(row);
    }
    println!("{}", table(&["Method", "Meet", "Teams", "Webex"], &rows));
    sink.write("t3", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn resolution_confusion(ctx: &mut Ctx, sink: &Sink, id: &str, corpus: Corpus) {
    let label = if corpus == Corpus::InLab {
        "in-lab"
    } else {
        "real-world"
    };
    section(
        &id.to_uppercase(),
        &format!("Teams resolution confusion, IP/UDP ML, {label}"),
    );
    let opts = ctx.opts(VcaKind::Teams);
    let set = ctx.samples(corpus, VcaKind::Teams, 1).clone();
    match eval_ml_resolution(&set, Method::IpUdpMl, &opts) {
        Some((m, acc)) => {
            println!("{}", m.render());
            println!("overall accuracy: {:.2}%", acc * 100.0);
            let labels = m.labels().to_vec();
            let cells: Vec<serde_json::Value> = (0..labels.len())
                .map(|a| {
                    json!({
                        "actual": labels[a],
                        "total": m.row_total(a),
                        "pct": (0..labels.len()).map(|p| m.percent(a, p)).collect::<Vec<_>>(),
                    })
                })
                .collect();
            sink.write(id, &json!({"accuracy": acc, "cells": cells}))
                .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
        }
        None => println!("not classifiable (single resolution class)"),
    }
}

fn t4(ctx: &mut Ctx, sink: &Sink) {
    resolution_confusion(ctx, sink, "t4", Corpus::InLab);
}
fn ta3(ctx: &mut Ctx, sink: &Sink) {
    resolution_confusion(ctx, sink, "ta3", Corpus::RealWorld);
}

// ---------------------------------------------------------------------
// Transferability (Tables 5, A.4, A.5)
// ---------------------------------------------------------------------

fn transfer_table(ctx: &mut Ctx, sink: &Sink, id: &str, target: Target, unit: &str) {
    section(
        &id.to_uppercase(),
        &format!("Lab-trained models on real-world data ({unit} MAE)"),
    );
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for method in [Method::IpUdpMl, Method::RtpMl] {
        let mut row = vec![method.name().to_string()];
        for vca in VcaKind::ALL {
            let opts = ctx.opts(vca);
            let train = ctx.samples(Corpus::InLab, vca, 1).clone();
            let test = ctx.samples(Corpus::RealWorld, vca, 1).clone();
            let (p, t) = transfer_regression(&train, &test, method, target, &opts);
            let m = mae(&p, &t);
            artifact.insert(format!("{}/{}", method.name(), vca.name()), json!(m));
            row.push(format!("{m:.2}"));
        }
        rows.push(row);
    }
    println!("{}", table(&["Method", "Meet", "Teams", "Webex"], &rows));
    sink.write(id, &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn t5(ctx: &mut Ctx, sink: &Sink) {
    transfer_table(ctx, sink, "t5", Target::FrameRate, "FPS");
}
fn ta4(ctx: &mut Ctx, sink: &Sink) {
    transfer_table(ctx, sink, "ta4", Target::Bitrate, "kbps");
}
fn ta5(ctx: &mut Ctx, sink: &Sink) {
    transfer_table(ctx, sink, "ta5", Target::FrameJitter, "ms");
}

// ---------------------------------------------------------------------
// Sensitivity studies (Figs 11, 12, A.10; Table A.6)
// ---------------------------------------------------------------------

fn f11(ctx: &mut Ctx, sink: &Sink) {
    section("F11", "IP/UDP ML frame-rate MAE vs packet loss");
    let (calls, secs) = match ctx.scale {
        crate::ctx::Scale::Full => (4, 30),
        crate::ctx::Scale::Small => (2, 15),
    };
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let mut opts = ctx.opts(vca);
        opts.cv_folds = 2;
        let mut per_value = Vec::new();
        // Build one sample set per loss value, split 50/50 train/test
        // (§5.4: models trained on half the data across all conditions).
        let mut train = Dataset::new(vcaml_features::ipudp_feature_names());
        type TestRows = Vec<(Vec<f64>, f64)>;
        let mut tests: Vec<(f64, TestRows)> = Vec::new();
        for &loss in ImpairmentDim::PacketLoss.values() {
            let traces = vcaml_datasets::sweep_value_corpus(
                vca,
                ImpairmentProfile {
                    dim: ImpairmentDim::PacketLoss,
                    value: loss,
                },
                calls,
                secs,
                0xf11 + vca as u64,
            );
            let set = vcaml::build_samples(&traces, &opts.engine);
            let mut test_rows = Vec::new();
            for (i, s) in set.samples.iter().enumerate() {
                if i % 2 == 0 {
                    train.push(&s.ipudp_features, s.truth.fps);
                } else {
                    test_rows.push((s.ipudp_features.clone(), s.truth.fps));
                }
            }
            tests.push((loss, test_rows));
        }
        let forest = RandomForest::fit(&train, Task::Regression, &opts.forest);
        for (loss, test_rows) in tests {
            let preds: Vec<f64> = test_rows.iter().map(|(f, _)| forest.predict(f)).collect();
            let truths: Vec<f64> = test_rows.iter().map(|(_, t)| *t).collect();
            let m = mae(&preds, &truths);
            per_value.push((loss, m));
        }
        rows.push({
            let mut r = vec![vca.name().to_string()];
            r.extend(per_value.iter().map(|(_, m)| format!("{m:.2}")));
            r
        });
        artifact.insert(
            vca.name().into(),
            json!(per_value
                .iter()
                .map(|(l, m)| json!({"loss_pct": l, "mae": m}))
                .collect::<Vec<_>>()),
        );
    }
    let mut headers = vec!["VCA"];
    let labels: Vec<String> = ImpairmentDim::PacketLoss
        .values()
        .iter()
        .map(|v| format!("{v}%"))
        .collect();
    headers.extend(labels.iter().map(String::as_str));
    println!("{}", table(&headers, &rows));
    sink.write("f11", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn f12(ctx: &mut Ctx, sink: &Sink) {
    section(
        "F12",
        "IP/UDP ML frame-rate MAE vs prediction window (in-lab)",
    );
    let windows = [1u32, 2, 4, 6, 8, 10];
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let mut per_w = Vec::new();
        let opts = ctx.opts(vca);
        for &w in &windows {
            let set = ctx.samples(Corpus::InLab, vca, w).clone();
            let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
            per_w.push((w, mae(&p, &t)));
        }
        rows.push({
            let mut r = vec![vca.name().to_string()];
            r.extend(per_w.iter().map(|(_, m)| format!("{m:.2}")));
            r
        });
        artifact.insert(
            vca.name().into(),
            json!(per_w
                .iter()
                .map(|(w, m)| json!({"window_s": w, "mae": m}))
                .collect::<Vec<_>>()),
        );
    }
    let headers: Vec<String> = std::iter::once("VCA".to_string())
        .chain(windows.iter().map(|w| format!("{w}s")))
        .collect();
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", table(&href, &rows));
    sink.write("f12", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn fa10(ctx: &mut Ctx, sink: &Sink) {
    section(
        "FA10",
        "IP/UDP Heuristic frame-rate MAE vs packet lookback (in-lab)",
    );
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let opts = ctx.opts(vca);
        let traces = ctx.traces(Corpus::InLab, vca).to_vec();
        let classifier = MediaClassifier::new(opts.engine.vmin);
        let mut per_lb = Vec::new();
        for lookback in 1..=10usize {
            let params = vcaml::HeuristicParams {
                delta_max_size: 2,
                lookback,
            };
            let mut preds = Vec::new();
            let mut truths = Vec::new();
            for t in &traces {
                let video: Vec<(Timestamp, u16)> = t
                    .packets
                    .iter()
                    .filter(|p| classifier.is_video(p))
                    .map(|p| (p.ts, p.size))
                    .collect();
                let (frames, _) = IpUdpHeuristic::new(params).assemble(&video);
                let est = estimate_windows(&frames, t.duration_secs as usize, 1);
                for r in &t.truth {
                    if let Some(e) = est.get(r.second as usize) {
                        preds.push(e.fps);
                        truths.push(r.fps);
                    }
                }
            }
            per_lb.push(mae(&preds, &truths));
        }
        rows.push({
            let mut r = vec![vca.name().to_string()];
            r.extend(per_lb.iter().map(|m| format!("{m:.2}")));
            r
        });
        artifact.insert(vca.name().into(), json!(per_lb));
    }
    let headers: Vec<String> = std::iter::once("VCA".to_string())
        .chain((1..=10).map(|l| format!("lb{l}")))
        .collect();
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", table(&href, &rows));
    sink.write("fa10", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

fn ta6(_ctx: &mut Ctx, sink: &Sink) {
    section("TA6", "Impairment profiles (emulation grid)");
    let mut rows = Vec::new();
    for dim in ImpairmentDim::ALL {
        let vals: Vec<String> = dim.values().iter().map(|v| format!("{v}")).collect();
        rows.push(vec![dim.label().to_string(), vals.join(", ")]);
    }
    println!("{}", table(&["Impairment", "Values"], &rows));
    sink.write(
        "ta6",
        &json!(ImpairmentDim::ALL
            .iter()
            .map(|d| json!({"dim": d.label(), "values": d.values()}))
            .collect::<Vec<_>>()),
    )
    .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5) — design-choice sensitivity beyond the paper
// ---------------------------------------------------------------------

/// AB1: `Vmin` media-classification threshold sweep. Too low pulls audio
/// into the video stream; too high drops real video packets.
pub fn ab1(ctx: &mut Ctx, sink: &Sink) {
    section("AB1", "Media classification accuracy vs Vmin threshold");
    let vmins = [300u16, 400, 450, 500, 564, 700, 900];
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let traces = ctx.traces(Corpus::InLab, vca).to_vec();
        let mut row = vec![vca.name().to_string()];
        let mut per_v = Vec::new();
        for &vmin in &vmins {
            let classifier = MediaClassifier::new(vmin);
            let (mut correct, mut total) = (0u64, 0u64);
            for t in &traces {
                let m = classifier.evaluate(t, 304);
                correct += m.count(0, 0) + m.count(1, 1);
                total += m.row_total(0) + m.row_total(1);
            }
            let acc = correct as f64 / total as f64;
            row.push(format!("{:.2}%", acc * 100.0));
            per_v.push(json!({"vmin": vmin, "accuracy": acc}));
        }
        rows.push(row);
        artifact.insert(vca.name().into(), json!(per_v));
    }
    let headers: Vec<String> = std::iter::once("VCA".to_string())
        .chain(vmins.iter().map(|v| format!("{v}B")))
        .collect();
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", table(&href, &rows));
    sink.write("ab1", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AB2: value of the semantics features — IP/UDP ML with flow statistics
/// only vs the full 14-feature set (frame rate, in-lab).
pub fn ab2(ctx: &mut Ctx, sink: &Sink) {
    section(
        "AB2",
        "IP/UDP ML frame-rate MAE: flow-stats-only vs +semantics features",
    );
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let opts = ctx.opts(vca);
        let set = ctx.samples(Corpus::InLab, vca, 1).clone();
        // Full 14-feature model.
        let (p_full, t_full) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
        let mae_full = mae(&p_full, &t_full);
        // Flow-stats-only model: drop the last two (semantics) features.
        let flow_names: Vec<String> = set.ipudp_names[..12].to_vec();
        let mut d = Dataset::new(flow_names);
        for s in &set.samples {
            d.push(&s.ipudp_features[..12], s.truth.fps);
        }
        let preds = vcaml_mlcore::cross_val_predict(
            &d,
            Task::Regression,
            &opts.forest,
            opts.cv_folds,
            opts.forest.seed,
        );
        let mae_flow = mae(&preds, d.targets());
        rows.push(vec![
            vca.name().to_string(),
            format!("{mae_flow:.2}"),
            format!("{mae_full:.2}"),
            format!("{:+.1}%", (mae_full / mae_flow - 1.0) * 100.0),
        ]);
        artifact.insert(
            vca.name().into(),
            json!({"flow_only_mae": mae_flow, "full_mae": mae_full}),
        );
    }
    println!(
        "{}",
        table(&["VCA", "Flow-only MAE", "Full MAE", "Δ"], &rows)
    );
    sink.write("ab2", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AB3: forest size vs accuracy — the accuracy/cost trade-off an operator
/// would tune (§7 system considerations).
pub fn ab3(ctx: &mut Ctx, sink: &Sink) {
    section(
        "AB3",
        "IP/UDP ML frame-rate MAE vs forest size (Teams, in-lab)",
    );
    let vca = VcaKind::Teams;
    let set = ctx.samples(Corpus::InLab, vca, 1).clone();
    let sizes = [1usize, 5, 10, 20, 40, 80];
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for &n in &sizes {
        let mut opts = ctx.opts(vca);
        opts.forest.n_trees = n;
        let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
        let m = mae(&p, &t);
        rows.push(vec![format!("{n}"), format!("{m:.2}")]);
        artifact.push(json!({"n_trees": n, "mae": m}));
    }
    println!("{}", table(&["Trees", "MAE"], &rows));
    sink.write("ab3", &artifact).unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AB4: microburst θ_IAT sensitivity — how the only timing-based semantics
/// feature reacts to its threshold.
pub fn ab4(ctx: &mut Ctx, sink: &Sink) {
    section(
        "AB4",
        "IP/UDP ML frame-rate MAE vs microburst threshold (Webex, in-lab)",
    );
    let vca = VcaKind::Webex;
    let thetas = [500i64, 1_000, 3_000, 5_000, 10_000, 20_000];
    let traces = ctx.traces(Corpus::InLab, vca).to_vec();
    let mut rows = Vec::new();
    let mut artifact = Vec::new();
    for &theta in &thetas {
        let mut opts = ctx.opts(vca);
        opts.engine.theta_iat_us = theta;
        let set = vcaml::build_samples(&traces, &opts.engine);
        let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
        let m = mae(&p, &t);
        rows.push(vec![
            format!("{:.1} ms", theta as f64 / 1000.0),
            format!("{m:.2}"),
        ]);
        artifact.push(json!({"theta_us": theta, "mae": m}));
    }
    println!("{}", table(&["θ_IAT", "MAE"], &rows));
    sink.write("ab4", &artifact).unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AB5: Δmax_size sensitivity for the IP/UDP Heuristic.
pub fn ab5(ctx: &mut Ctx, sink: &Sink) {
    section(
        "AB5",
        "IP/UDP Heuristic frame-rate MAE vs Δmax_size (in-lab)",
    );
    let deltas = [0u16, 1, 2, 4, 8, 16, 32];
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let opts = ctx.opts(vca);
        let traces = ctx.traces(Corpus::InLab, vca).to_vec();
        let classifier = MediaClassifier::new(opts.engine.vmin);
        let mut row = vec![vca.name().to_string()];
        let mut per_d = Vec::new();
        for &delta in &deltas {
            let params = vcaml::HeuristicParams {
                delta_max_size: delta,
                lookback: opts.engine.heuristic.lookback,
            };
            let mut preds = Vec::new();
            let mut truths = Vec::new();
            for t in &traces {
                let video: Vec<(Timestamp, u16)> = t
                    .packets
                    .iter()
                    .filter(|p| classifier.is_video(p))
                    .map(|p| (p.ts, p.size))
                    .collect();
                let (frames, _) = IpUdpHeuristic::new(params).assemble(&video);
                let est = estimate_windows(&frames, t.duration_secs as usize, 1);
                for r in &t.truth {
                    if let Some(e) = est.get(r.second as usize) {
                        preds.push(e.fps);
                        truths.push(r.fps);
                    }
                }
            }
            let m = mae(&preds, &truths);
            row.push(format!("{m:.2}"));
            per_d.push(json!({"delta": delta, "mae": m}));
        }
        rows.push(row);
        artifact.insert(vca.name().into(), json!(per_d));
    }
    let headers: Vec<String> = std::iter::once("VCA".to_string())
        .chain(deltas.iter().map(|d| format!("Δ{d}")))
        .collect();
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", table(&href, &rows));
    sink.write("ab5", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AB6: model-family comparison (§4.3: "we experiment with several
/// classical supervised ML models ... random forests consistently yield
/// the highest accuracy"). Compares ridge regression, a single CART tree,
/// and the forest on frame rate.
pub fn ab6(ctx: &mut Ctx, sink: &Sink) {
    section(
        "AB6",
        "Model family comparison, IP/UDP features, frame rate (in-lab)",
    );
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for vca in VcaKind::ALL {
        let opts = ctx.opts(vca);
        let set = ctx.samples(Corpus::InLab, vca, 1).clone();
        let mut d = Dataset::new(set.ipudp_names.clone());
        for s in &set.samples {
            d.push(&s.ipudp_features, s.truth.fps);
        }
        // 2-fold manual split for the non-forest models (cheap + unbiased
        // enough for a ranking).
        let folds = vcaml_mlcore::kfold_indices(d.len(), 2, 17);
        let mut linear_preds = vec![0.0; d.len()];
        let mut tree_preds = vec![0.0; d.len()];
        for (fi, test) in folds.iter().enumerate() {
            let train_idx: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != fi)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let train = d.subset(&train_idx);
            let ridge = vcaml_mlcore::RidgeRegression::fit(&train, 1.0);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(fi as u64);
            let all: Vec<usize> = (0..train.len()).collect();
            let tree = vcaml_mlcore::DecisionTree::fit(
                &train,
                &all,
                Task::Regression,
                &vcaml_mlcore::tree::TreeParams::default(),
                &mut rng,
            );
            for &i in test {
                linear_preds[i] = ridge.predict(d.row(i));
                tree_preds[i] = tree.predict(d.row(i));
            }
        }
        let (forest_preds, truths) =
            eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
        let m_lin = mae(&linear_preds, d.targets());
        let m_tree = mae(&tree_preds, d.targets());
        let m_forest = mae(&forest_preds, &truths);
        rows.push(vec![
            vca.name().to_string(),
            format!("{m_lin:.2}"),
            format!("{m_tree:.2}"),
            format!("{m_forest:.2}"),
        ]);
        artifact.insert(
            vca.name().into(),
            json!({"ridge": m_lin, "tree": m_tree, "forest": m_forest}),
        );
    }
    println!(
        "{}",
        table(&["VCA", "Ridge MAE", "Tree MAE", "Forest MAE"], &rows)
    );
    sink.write("ab6", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

/// AM1: application modes (§7) — video-off detection accuracy and
/// multi-party participant-count estimation.
pub fn am1(ctx: &mut Ctx, sink: &Sink) {
    use vcaml_vcasim::{merge_multiparty, video_off, Session, SessionConfig, VcaProfile};
    section(
        "AM1",
        "Application modes: video-off detection and participant counting",
    );
    let _ = &ctx.scale;
    let profile = VcaProfile::lab(VcaKind::Teams);
    let classifier = MediaClassifier::default();
    let run_one = |seed: u64| {
        Session::new(SessionConfig {
            profile: profile.clone(),
            schedule: vcaml_netem::synth_ndt_schedule(seed, 20),
            duration_secs: 20,
            seed,
            link: vcaml_netem::LinkConfig::default(),
        })
        .run()
    };

    // Video-off detection over a mixed set of calls.
    let mut correct = 0usize;
    let mut total = 0usize;
    for seed in 0..10u64 {
        let on = run_one(seed);
        let off = video_off(&on);
        for (session, truth_off) in [(&on, false), (&off, true)] {
            let trace = vcaml_datasets::to_core_trace(session, profile.payload_map);
            let detected = detect_video_off(&trace.packets, &classifier);
            correct += usize::from(detected == truth_off);
            total += 1;
        }
    }
    println!("video-off detection: {correct}/{total} calls correct");

    // Participant counting on merged multi-party flows.
    let mut rows = Vec::new();
    let mut artifact = serde_json::Map::new();
    for n in [2usize, 3, 4] {
        let sessions: Vec<_> = (0..n).map(|i| run_one(100 + i as u64)).collect();
        let merged = merge_multiparty(&sessions);
        let trace = vcaml_datasets::to_core_trace(&merged, profile.payload_map);
        // IP/UDP estimate: aggregate heuristic fps / nominal 30.
        let video: Vec<(Timestamp, u16)> = trace
            .packets
            .iter()
            .filter(|p| classifier.is_video(p))
            .map(|p| (p.ts, p.size))
            .collect();
        let (frames, _) =
            IpUdpHeuristic::new(vcaml::HeuristicParams::paper(VcaKind::Teams)).assemble(&video);
        let est = estimate_windows(&frames, 20, 1);
        let stable: Vec<f64> = est[5..].iter().map(|e| e.fps).collect();
        let agg_fps = stable.iter().sum::<f64>() / stable.len() as f64;
        let ipudp_n = estimate_participants_ipudp(agg_fps, 30.0);
        let rtp_n = estimate_participants_rtp(&trace.packets, profile.payload_map.video);
        rows.push(vec![
            format!("{n}"),
            format!("{agg_fps:.1}"),
            format!("{ipudp_n}"),
            format!("{rtp_n}"),
        ]);
        artifact.insert(
            format!("{n}"),
            json!({"aggregate_fps": agg_fps, "ipudp_estimate": ipudp_n, "rtp_estimate": rtp_n}),
        );
    }
    println!(
        "{}",
        table(
            &[
                "True participants",
                "Aggregate FPS",
                "IP/UDP estimate",
                "RTP estimate"
            ],
            &rows
        )
    );
    artifact.insert(
        "video_off_accuracy".into(),
        json!(correct as f64 / total as f64),
    );
    sink.write("am1", &serde_json::Value::Object(artifact))
        .unwrap(); // lint: allow(no-unwrap-in-lib) -- experiment harness fails fast: artifact IO and corpus invariants are fatal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Scale;

    fn tmp_sink() -> Sink {
        Sink::new(std::env::temp_dir().join("vcaml_exp_tests")).unwrap()
    }

    #[test]
    fn registry_ids_unique_and_complete() {
        let reg = registry();
        assert_eq!(reg.len(), 40);
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "duplicate experiment ids");
    }

    #[test]
    fn ta6_runs_without_corpora() {
        let mut ctx = Ctx::new(Scale::Small);
        ta6(&mut ctx, &tmp_sink());
    }

    #[test]
    fn media_confusion_small() {
        let mut ctx = Ctx::new(Scale::Small);
        media_confusion(&mut ctx, &tmp_sink(), "t2_test", VcaKind::Meet);
    }

    #[test]
    fn f2_small_matches_fragmentation_model() {
        let mut ctx = Ctx::new(Scale::Small);
        f2(&mut ctx, &tmp_sink());
    }
}
