//! Frozen predictions of fixed-seed forests.
//!
//! A forest's predictions are a function of its training data, its
//! parameters and its seed, and the monitor's ML estimates are those
//! predictions. These literals were recorded from the fitted forests
//! below while a tree was still a `Vec` of one enum per node, before the
//! flat 16-byte node array, so any change to fitting, to the tree's
//! storage or to the walk that moves one prediction by one bit fails
//! here. The edge rows' literals (NaN, infinities, values equal to
//! thresholds, and a tree count that leaves a remainder after the
//! walk's lockstep chunk) were recorded from the walk that stopped each
//! tree at its leaf, before the forest became one node arena walked to
//! a fixed depth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};

const FEATURES: usize = 6;

/// A smooth target over the first three features, with a step, a
/// product term and integral feature values (ties at split points).
fn target(x: &[f64]) -> f64 {
    let step = if x[1] > 0.4 { 7.5 } else { 0.0 };
    3.0 * x[0] + step + x[2] * x[0] + (x[3] * 0.3).floor()
}

fn row(rng: &mut StdRng) -> [f64; FEATURES] {
    [
        rng.gen_range(0.0..10.0),
        rng.gen_range(0.0..1.0),
        f64::from(rng.gen_range(0u32..8)),
        rng.gen_range(-5.0..5.0),
        f64::from(rng.gen_range(0u32..3)),
        rng.gen_range(0.0..100.0),
    ]
}

fn training(task: Task) -> Dataset {
    let names = (0..FEATURES).map(|i| format!("x{i}")).collect();
    let mut data = Dataset::new(names);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..400 {
        let x = row(&mut rng);
        let y = match task {
            Task::Regression => target(&x),
            Task::Classification { n_classes } => (target(&x) as usize % n_classes) as f64,
        };
        data.push(&x, y);
    }
    data
}

/// 200 rows: the first 100 training rows (values that sit exactly on
/// the data the thresholds were cut between) and 100 unseen ones.
fn probe_rows() -> Vec<[f64; FEATURES]> {
    let mut seen = StdRng::seed_from_u64(0x5eed);
    let mut unseen = StdRng::seed_from_u64(0xfade);
    let mut rows: Vec<[f64; FEATURES]> = (0..100).map(|_| row(&mut seen)).collect();
    rows.extend((0..100).map(|_| row(&mut unseen)));
    rows
}

fn params() -> RandomForestParams {
    RandomForestParams {
        n_trees: 12,
        seed: 46,
        ..RandomForestParams::default()
    }
}

/// Bit patterns of the regression forest's predictions on [`probe_rows`].
#[rustfmt::skip]
const REGRESSION_BITS: [u64; 200] = [
    0x4045966cf4073ed0, 0x403da788b0e4cf0d, 0x404c23e563228d13, 0x403075da1ef4c46e,
    0x404b0c2d015fbfe1, 0x404de1b566356380, 0x4046d737b3be9c54, 0x4050c6f43ef5240a,
    0x4034d4f92087a723, 0x403f5c3b84dd603d, 0x40394581cf618df5, 0x4042ad503d7c5e41,
    0x4035f4749d76d450, 0x40476935067d8c35, 0x403f320bb4c1ec35, 0x40458abce01149ac,
    0x4045bf2c7240f07f, 0x404bed13e564f128, 0x403fa03cc165dd49, 0x404a7c659c689883,
    0x40475d3cefe95275, 0x404c945f7ee3abec, 0x40351dddf58652eb, 0x4043e36552edd56f,
    0x40539d989f0bebbb, 0x402a2be212e1e174, 0x40214eb675d2ba00, 0x403bb2683dafb5dd,
    0x4051cd8dafb4d895, 0x4044cc66498af649, 0x403f5c1e75ca182f, 0x40212e3b34935bc8,
    0x4051a609ef2978ef, 0x402aeb511851d6df, 0x404a9b28cf4235bc, 0x404524a383647c11,
    0x4049c993a75ef9fd, 0x4026582d54a6a2f9, 0x402a5cb8f5d814cb, 0x4018d4a1305b8f8c,
    0x401ab59fa819c4c5, 0x402b0fcf89fe559f, 0x40430962a1b7d5c6, 0x405154af6d0ce2a1,
    0x40367507d11d3b47, 0x404f47205ad7c2f3, 0x402d9e6f4006421b, 0x4033d7cbaf192829,
    0x40425323f28d3329, 0x40391746b2725e79, 0x4038108ab7eff505, 0x40308233e3f2d30f,
    0x40522b9c89a4aa50, 0x4050a0235ec8fe73, 0x4038a4f6f5edb2a0, 0x402d51882688ff98,
    0x403d8ca0be2aa67b, 0x404188ff08bc34ad, 0x40439a84b1767fed, 0x40500e25bf190350,
    0x4029255fd690d11d, 0x403588b7b6523829, 0x4027b71f075c1380, 0x404e37ecda8e3f71,
    0x40415abc9af4c7ac, 0x404a9a8d528fefbd, 0x4050e447e1e5b8a1, 0x4042f4e50c828ff6,
    0x40326e0eefdb8eab, 0x404b3ace3bddfb4d, 0x4042af83e60bf0cb, 0x4052ff1c079939e3,
    0x40342cefa34c1f69, 0x40141f29bd68a6a1, 0x404273885b27cd32, 0x4041d79f36eb9e18,
    0x4031f7b377939a93, 0x40459a8af0aab70f, 0x4053545f2c06408a, 0x40432c3b52dba26c,
    0x4032c85f2fe44eeb, 0x40347dd193889216, 0x404dfd406aff5878, 0x4031c435f029f0db,
    0x404cf08cff49023b, 0x40401f43840bebe7, 0x4050d94cb788ad61, 0x40455d0acc2c10ed,
    0x4042c9df8b25ec0d, 0x404b8c50578a8f07, 0x403ded61a532e5bd, 0x403a01baff843e68,
    0x4043960c4a77747f, 0x4046e6c3c9368467, 0x40414101707e6865, 0x405389c8e0dc8deb,
    0x4044de0005be0c5f, 0x40378a335757959d, 0x40347c219eaaf403, 0x402d8adc3708ef73,
    0x40356c483f4b39a3, 0x402dd28a25a03d97, 0x405355088b4cf914, 0x4037a15b1846e120,
    0x404f3ee55f5d8b31, 0x4053f43d09d66ed3, 0x40488a5e094f0335, 0x404a2a8a53a3f224,
    0x404ea6aff9648e5d, 0x403f7b8cb473ef3f, 0x403ed2ee1d7d090c, 0x40354d64b7f2e61d,
    0x4041e0a75adce545, 0x4030c8b27af3fb95, 0x4049efc417bbe08f, 0x40311ed1554dced3,
    0x402889696a0a53a5, 0x4041075a67bf4928, 0x404f87daa0be6e8c, 0x404aba3109499918,
    0x4045fd04549f0cd1, 0x40426012ec9a0cc1, 0x404f85a186b4a169, 0x403956d97d1afbfd,
    0x4046f5f28f691feb, 0x404392276fa1ab60, 0x402b92f8a1e786dd, 0x404296898d44f593,
    0x4043e00f4cc5f75f, 0x403fac1f06b5bdb9, 0x403772726fea5e00, 0x40456728921e7991,
    0x404185c43ec66340, 0x404f3f3102e5d8a9, 0x402b5b8d8c979d89, 0x403472983104bbab,
    0x403d258a23419583, 0x4038a2a89650b0a0, 0x404e5d73003d6b7c, 0x4050ff0f675bf730,
    0x4037b432a5018c01, 0x404f13887ffb4a3c, 0x4031b05856764e8e, 0x40262e443a642208,
    0x404d3cbbe54e5730, 0x40523b37c8da072c, 0x402abccaf425fd33, 0x4032bfc0f4361c62,
    0x402ca3975b38e903, 0x404e9d1ffae93ee1, 0x40503769c5da6323, 0x4050d4c2f4ef2a34,
    0x403476eb7d41a944, 0x40371062df5ebd2f, 0x404e696811a904d4, 0x403eb9fa45a186a1,
    0x40523cacfdcade34, 0x402d62103e4b15d0, 0x40277be6fbc2e80d, 0x4044958c91728c8c,
    0x4040a21297b6e5b1, 0x403763618375520c, 0x40309182ec595931, 0x404e91d1672f4d90,
    0x403f90031d9306ab, 0x403208ee8264d723, 0x405041f4f1f0e1ca, 0x403b6dfbec788c79,
    0x403de834e2d14300, 0x40508dd5fecc78ab, 0x403c7aa7566b2b14, 0x403194d30ef3ea5f,
    0x40485c4615ded807, 0x403b4040e121a374, 0x4051b34762d93cc8, 0x40460ee3f1276bf1,
    0x404a09c327421488, 0x403d576e88399699, 0x4042ea5d4edfdf83, 0x4037a058e448695c,
    0x403e39edcf3a50b7, 0x403bef87a6c7816b, 0x4047081dcac29078, 0x403beda9fc6985a4,
    0x4047bcf2dfd05edb, 0x4033214ba8f0341f, 0x402fa0519feaf700, 0x40455f274c9fe3d7,
    0x404063ce1d1da3a3, 0x403118a5f2041543, 0x404e768ad2406527, 0x403536d2d941d161,
    0x4032e27c4e411328, 0x402e83e7d6931919, 0x4042397f59244784, 0x404cebb4bd01ce23,
    0x403c78dcec81c309, 0x402a0101bb223267, 0x403297c58c04556c, 0x402e4672118c6b44,
];

/// The classification forest's class per row of [`probe_rows`], one
/// digit each.
const CLASSES: &str = concat!(
    "32221032301013322013303333330030011231202123132313",
    "23101012212320332112010022132323321332332132123322",
    "30003220313302233230233330333222033310220300320332",
    "33332322133203032303232232230131312023021233233332",
);

#[test]
fn regression_predictions_are_frozen() {
    let forest = RandomForest::fit(&training(Task::Regression), Task::Regression, &params());
    for (i, (r, want)) in probe_rows().iter().zip(REGRESSION_BITS).enumerate() {
        let got = forest.predict(r).to_bits();
        assert_eq!(
            got,
            want,
            "row {i}: {} against {}",
            f64::from_bits(got),
            f64::from_bits(want)
        );
    }
}

#[test]
fn classification_predictions_are_frozen() {
    let task = Task::Classification { n_classes: 4 };
    let forest = RandomForest::fit(&training(task), task, &params());
    let got: String = probe_rows()
        .iter()
        .map(|r| char::from(b'0' + forest.predict(r) as u8))
        .collect();
    assert_eq!(got, CLASSES);
}

/// Rows the walk's edges decide: a NaN, +inf or -inf in one feature of
/// three probe rows at a time and in all of them, then rows with one
/// feature set to a midpoint between adjacent distinct training values —
/// the points `fit` cuts its thresholds at, so a comparison there is
/// `value <= threshold` with the two equal.
fn edge_rows() -> Vec<[f64; FEATURES]> {
    let base = probe_rows();
    let mut rows = Vec::new();
    for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for b in &base[..3] {
            for j in 0..FEATURES {
                let mut r = *b;
                r[j] = special;
                rows.push(r);
            }
        }
        rows.push([special; FEATURES]);
    }
    let data = training(Task::Regression);
    for j in 0..FEATURES {
        let mut values: Vec<f64> = (0..data.len()).map(|i| data.row(i)[j]).collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        let cuts: Vec<f64> = values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        let stride = cuts.len().div_ceil(6);
        for (k, &cut) in cuts.iter().step_by(stride).enumerate() {
            let mut r = base[k];
            r[j] = cut;
            rows.push(r);
        }
    }
    rows
}

/// Thirteen trees: a count no lockstep chunk of two, four or eight
/// divides, so the walk's remainder is exercised.
fn remainder_params() -> RandomForestParams {
    RandomForestParams {
        n_trees: 13,
        ..params()
    }
}

/// The number of [`edge_rows`].
const EDGE_ROWS: usize = 87;

/// Bit patterns of the twelve-tree regression forest's predictions on
/// [`edge_rows`].
#[rustfmt::skip]
const EDGE_REGRESSION_BITS: [u64; EDGE_ROWS] = [
    0x404db01fb9c87e83, 0x4045966cf4073ed0, 0x404eca1736372cf3, 0x4049a74840d6bd98,
    0x4045966cf4073ed0, 0x40457612d567d399, 0x40500606b332cea5, 0x403d158127553483,
    0x40433ee98b9d782c, 0x4044735f8950200b, 0x4040c29f090a1721, 0x4040e88d48271c13,
    0x404c23e563228d13, 0x404c80095475fbf0, 0x4050d67dee464205, 0x404de9dbec221a33,
    0x404c23e563228d13, 0x404abf9c0762e324, 0x4053a83705a28921, 0x404db01fb9c87e83,
    0x4045966cf4073ed0, 0x404eca1736372cf3, 0x4049a74840d6bd98, 0x4045966cf4073ed0,
    0x40457612d567d399, 0x40500606b332cea5, 0x403d158127553483, 0x40433ee98b9d782c,
    0x4044735f8950200b, 0x4040c29f090a1721, 0x4040e88d48271c13, 0x404c23e563228d13,
    0x404c80095475fbf0, 0x4050d67dee464205, 0x404de9dbec221a33, 0x404c23e563228d13,
    0x404abf9c0762e324, 0x4053a83705a28921, 0x402d5672e5c420b0, 0x403de4ddc0bd164f,
    0x403f096509809890, 0x4045bf09373eab15, 0x40461e3504e1517b, 0x40428aa9f8c3ba6d,
    0x40317e2b0e51bea8, 0x40339ff0e62407f1, 0x40369a7124077cad, 0x403dd26d7d98e534,
    0x403da788b0e4cf0d, 0x403cbe75c66ce8bf, 0x402aa00a4d832b63, 0x40498a325fbaa553,
    0x404193a469288365, 0x404c23e563228d13, 0x404e37bcec1ccfd1, 0x40495c8e56dd5861,
    0x401c9f55a9725b13, 0x402d5672e5c420b0, 0x4034942f92f97f5c, 0x403a13b4ade29115,
    0x4040bb376aaf87e7, 0x404c1b200df72368, 0x404dfbe773c12f45, 0x403de4ddc0bd164f,
    0x40352a07cdd9b205, 0x4048ef12104dc72f, 0x40301b256033ebe9, 0x404b0d2350ec7101,
    0x404d7353fef1fcb8, 0x403f096509809890, 0x40356eb04faa9870, 0x404d4b2e228cd10c,
    0x4035e12be1d026f5, 0x4045bf09373eab15, 0x403d5923a4464e6f, 0x404c1ea28aaa47e8,
    0x402cbb53079fed23, 0x404a739e0d739844, 0x404d27b3bbdca871, 0x40461e3504e1517b,
    0x40411c44826bf35c, 0x40428aa9f8c3ba6d, 0x403c3e2d5a9116ac, 0x404c9116ea708af8,
    0x4031861f264acf34, 0x404b0c2d015fbfe1, 0x404edf7726087108,
];

/// The twelve-tree classification forest's class per row of
/// [`edge_rows`].
const EDGE_CLASSES: &str = concat!(
    "23323222222322222322332322222232222232303202203122",
    "0322220320213032333322222201302220213",
);

/// Bit patterns of the thirteen-tree regression forest's predictions
/// on [`edge_rows`].
#[rustfmt::skip]
const REMAINDER_REGRESSION_BITS: [u64; EDGE_ROWS] = [
    0x404d8a78b168cecf, 0x4045769e190a3fdb, 0x404e6693b9145bc1, 0x404937688753a131,
    0x4045769e190a3fdb, 0x404558c1107717f7, 0x40501714aaba2aa1, 0x403cb0779ccbe214,
    0x4044eccce54c09c2, 0x404374135b852a32, 0x403fe567f201314f, 0x404085dc91fb52c4,
    0x404c10cb2767a0c0, 0x404c65d8a3b4a4a0, 0x4050966ff31fcc35, 0x404d69aedc27c5de,
    0x404c10cb2767a0c0, 0x404ac7e9e667f032, 0x405413bcb5c4845f, 0x404d8a78b168cecf,
    0x4045769e190a3fdb, 0x404e6693b9145bc1, 0x404937688753a131, 0x4045769e190a3fdb,
    0x404558c1107717f7, 0x40501714aaba2aa1, 0x403cb0779ccbe214, 0x4044eccce54c09c2,
    0x404374135b852a32, 0x403fe567f201314f, 0x404085dc91fb52c4, 0x404c10cb2767a0c0,
    0x404c65d8a3b4a4a0, 0x4050966ff31fcc35, 0x404d69aedc27c5de, 0x404c10cb2767a0c0,
    0x404ac7e9e667f032, 0x405413bcb5c4845f, 0x402d37357df3c6a5, 0x403d1f62e38c3566,
    0x403e774389b7b460, 0x404629d888bca8c2, 0x404614c2bcbcc751, 0x4042e69a3431954e,
    0x4031fa3e84977076, 0x403469200d9e58a0, 0x4035a6b9bd8d2546, 0x403f2b01af8df85c,
    0x403d341ecbe41d22, 0x403c5cf9a4b0839f, 0x402a6c308f9190fa, 0x4049aa4d4ba540fb,
    0x4040edf13688591e, 0x404c10cb2767a0c0, 0x404db69a3caeb4b0, 0x4049802c0862d292,
    0x4020078d554a6e42, 0x402d37357df3c6a5, 0x4034d37dc3f73609, 0x403c4046d5d6c2fc,
    0x404100491acf62f4, 0x404a7fc0dc7153da, 0x404e200e24170d4a, 0x403d1f62e38c3566,
    0x40354b68e9f8f43e, 0x40491b1bc740c2b2, 0x403091cdf849a0ba, 0x404a648fac5c7636,
    0x404da1fc2e6b7c2a, 0x403e774389b7b460, 0x40354212041409ef, 0x404d215d132c2e44,
    0x4036f846c09fb07b, 0x404629d888bca8c2, 0x403cebc1852a6b55, 0x404bc1c8a991c8ac,
    0x402c1581d6b7ed45, 0x4048f8d2b49570f4, 0x404d791b034d7330, 0x404614c2bcbcc751,
    0x4040b599654e8fa5, 0x4042e69a3431954e, 0x403be68f6883242b, 0x404c75966939776c,
    0x4030f66e0e68d3ea, 0x404985a56e5bbce7, 0x404efb03446629db,
];

/// The thirteen-tree classification forest's class per row of
/// [`edge_rows`].
const REMAINDER_CLASSES: &str = concat!(
    "23323322222322222322332332222232222232303233203122",
    "0322220320210032333322222233332322213",
);

/// Asserts a regression forest's predictions on `rows` are `want`, bit
/// for bit.
fn assert_regression_bits(params: &RandomForestParams, rows: &[[f64; FEATURES]], want: &[u64]) {
    let forest = RandomForest::fit(&training(Task::Regression), Task::Regression, params);
    assert_eq!(rows.len(), want.len());
    for (i, (r, &want)) in rows.iter().zip(want).enumerate() {
        let got = forest.predict(r).to_bits();
        assert_eq!(
            got,
            want,
            "row {i} {r:?}: {} against {}",
            f64::from_bits(got),
            f64::from_bits(want)
        );
    }
}

/// A four-class forest's predictions on `rows`, one digit each.
fn classes(params: &RandomForestParams, rows: &[[f64; FEATURES]]) -> String {
    let task = Task::Classification { n_classes: 4 };
    let forest = RandomForest::fit(&training(task), task, params);
    rows.iter()
        .map(|r| char::from(b'0' + forest.predict(r) as u8))
        .collect()
}

#[test]
fn edge_predictions_are_frozen() {
    let rows = edge_rows();
    assert_regression_bits(&params(), &rows, &EDGE_REGRESSION_BITS);
    assert_eq!(classes(&params(), &rows), EDGE_CLASSES);
}

#[test]
fn a_remainder_after_the_lockstep_chunk_is_frozen() {
    let rows = edge_rows();
    assert_regression_bits(&remainder_params(), &rows, &REMAINDER_REGRESSION_BITS);
    assert_eq!(classes(&remainder_params(), &rows), REMAINDER_CLASSES);
}
