//! Frozen predictions of fixed-seed forests.
//!
//! A forest's predictions are a function of its training data, its
//! parameters and its seed, and the monitor's ML estimates are those
//! predictions. These literals were recorded from the fitted forests
//! below while a tree was still a `Vec` of one enum per node, before the
//! flat 16-byte node array, so any change to fitting, to the tree's
//! storage or to the walk that moves one prediction by one bit fails
//! here.

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
