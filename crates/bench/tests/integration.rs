//! The evaluation pipeline end to end: simulator → datasets → window
//! samples → heuristics and cross-validated ML → the paper's headline
//! comparisons, on small corpora.

use vcaml::{build_samples, Method, Trace};
use vcaml_bench::pipeline::{
    eval_heuristic, eval_ml_regression, eval_ml_resolution, transfer_regression, EvalOpts, Target,
};
use vcaml_datasets::{inlab_corpus, realworld_corpus, CorpusConfig};
use vcaml_mlcore::{mae, RandomForestParams};
use vcaml_rtp::VcaKind;

fn small_opts(vca: VcaKind) -> EvalOpts {
    EvalOpts {
        forest: RandomForestParams {
            n_trees: 10,
            seed: 1,
            ..Default::default()
        },
        ..EvalOpts::paper(vca)
    }
}

fn small_corpus(vca: VcaKind, seed: u64) -> Vec<Trace> {
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
fn end_to_end_all_methods_reasonable_on_webex() {
    let vca = VcaKind::Webex;
    let opts = small_opts(vca);
    let set = build_samples(&small_corpus(vca, 1), &opts.engine);
    assert!(set.samples.len() > 100);

    for method in Method::ALL {
        let (p, t) = if method.is_ml() {
            eval_ml_regression(&set, method, Target::FrameRate, &opts)
        } else {
            eval_heuristic(&set, method, Target::FrameRate)
        };
        let m = mae(&p, &t);
        assert!(m < 5.0, "{} frame-rate MAE {m}", method.name());
    }
}

#[test]
fn ipudp_ml_close_to_rtp_ml() {
    // The paper's headline: IP/UDP features are nearly as good as RTP.
    let vca = VcaKind::Teams;
    let opts = small_opts(vca);
    let set = build_samples(&small_corpus(vca, 2), &opts.engine);
    let (ip_p, ip_t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
    let (rt_p, rt_t) = eval_ml_regression(&set, Method::RtpMl, Target::FrameRate, &opts);
    let gap = mae(&ip_p, &ip_t) - mae(&rt_p, &rt_t);
    assert!(gap < 2.5, "IP/UDP ML trails RTP ML by {gap} FPS");
}

#[test]
fn resolution_classification_works_for_teams() {
    let vca = VcaKind::Teams;
    let opts = small_opts(vca);
    let set = build_samples(&small_corpus(vca, 4), &opts.engine);
    let (m, acc) = eval_ml_resolution(&set, Method::IpUdpMl, &opts).expect("classifiable");
    assert!(acc > 0.6, "resolution accuracy {acc}");
    assert_eq!(m.labels(), &["Low", "Medium", "High"]);
}

#[test]
fn lab_model_transfers_to_real_world() {
    let vca = VcaKind::Webex;
    let opts = small_opts(vca);
    let train = build_samples(&small_corpus(vca, 5), &opts.engine);
    let rw = realworld_corpus(
        vca,
        &CorpusConfig {
            n_calls: 8,
            min_secs: 15,
            max_secs: 20,
            seed: 6,
        },
    );
    let test = build_samples(&rw, &opts.engine);
    let (p, t) = transfer_regression(&train, &test, Method::IpUdpMl, Target::FrameRate, &opts);
    let m = mae(&p, &t);
    assert!(m < 6.0, "transfer MAE {m}");
}

#[test]
fn window_sweep_reduces_ml_error() {
    // Fig 12's trend: larger windows -> easier prediction.
    let vca = VcaKind::Webex;
    let traces = small_corpus(vca, 12);
    let opts = small_opts(vca);
    let mut maes = Vec::new();
    for w in [1u32, 5] {
        let mut config = opts.engine;
        config.window_secs = w;
        let set = build_samples(&traces, &config);
        let (p, t) = eval_ml_regression(&set, Method::IpUdpMl, Target::FrameRate, &opts);
        maes.push(mae(&p, &t));
    }
    assert!(maes[1] < maes[0], "window sweep: {maes:?}");
}
