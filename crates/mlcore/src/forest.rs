//! Random forests: bootstrap-bagged CART trees with per-node feature
//! subsampling, multi-threaded fitting, and impurity-based feature
//! importance.

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Learning task. The paper regresses frame rate / bitrate / frame jitter
/// and classifies resolution (§3.2.2, §5.1.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Predict a continuous value (forest averages tree outputs).
    Regression,
    /// Predict a class id (forest takes a majority vote).
    Classification {
        /// Number of classes (ids `0..n_classes`).
        n_classes: usize,
    },
}

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features tried per split (`None` = sqrt(p) for classification,
    /// p/3 for regression — the scikit-learn/Breiman defaults).
    pub mtry: Option<usize>,
    /// RNG seed (bootstrap + feature subsampling).
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 40,
            max_depth: 14,
            min_samples_leaf: 2,
            mtry: None,
            seed: 0,
        }
    }
}

/// A fitted random forest.
///
/// Cloning shares the fitted trees: `fit` freezes them, the feature
/// names and the importances behind [`Arc`]s, and nothing mutates a
/// fitted forest, so a clone is three refcount bumps, not a copy.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Arc<[DecisionTree]>,
    task: Task,
    feature_names: Arc<[String]>,
    importances: Arc<[f64]>,
}

impl RandomForest {
    /// Fits a forest. Trees are trained in parallel across available cores.
    ///
    /// # Panics
    /// Panics if `data` is empty or (for classification) has no classes.
    pub fn fit(data: &Dataset, task: Task, params: &RandomForestParams) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        if let Task::Classification { n_classes } = task {
            assert!(n_classes >= 2, "classification needs at least two classes");
            assert!(
                data.targets()
                    .iter()
                    .all(|&y| (y as usize) < n_classes && y >= 0.0),
                "target outside class range"
            );
        }
        let p = data.n_features();
        let mtry = params.mtry.unwrap_or(match task {
            Task::Classification { .. } => (p as f64).sqrt().ceil() as usize,
            Task::Regression => (p / 3).max(1),
        });
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_leaf: params.min_samples_leaf,
            min_samples_split: params.min_samples_leaf * 2,
            mtry: Some(mtry.clamp(1, p)),
        };
        let n = data.len();

        // Pre-derive one seed per tree so results are independent of the
        // thread schedule.
        let mut seeder = StdRng::seed_from_u64(params.seed);
        let seeds: Vec<u64> = (0..params.n_trees).map(|_| seeder.gen()).collect();

        let n_threads = std::thread::available_parallelism()
            .map_or(4, |c| c.get())
            .min(16);
        let trees: Vec<DecisionTree> = std::thread::scope(|scope| {
            let chunks: Vec<Vec<u64>> = seeds
                .chunks(params.n_trees.div_ceil(n_threads).max(1))
                .map(<[u64]>::to_vec)
                .collect();
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|seed| {
                                let mut rng = StdRng::seed_from_u64(seed);
                                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                                DecisionTree::fit(data, &idx, task, &tree_params, &mut rng)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tree fit panicked")) // lint: allow(no-unwrap-in-lib) -- join re-raises a tree-fit panic instead of hiding it
                .collect()
        });

        // Aggregate + normalize importances.
        let mut importances = vec![0.0; p];
        for t in &trees {
            for (acc, &v) in importances.iter_mut().zip(t.importances_raw()) {
                *acc += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }

        RandomForest {
            trees: trees.into(),
            task,
            feature_names: data.feature_names().into(),
            importances: importances.into(),
        }
    }

    /// Predicts one sample.
    pub fn predict(&self, row: &[f64]) -> f64 {
        match self.task {
            Task::Regression => {
                self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
            }
            Task::Classification { n_classes } => {
                let mut votes = vec![0usize; n_classes];
                for t in self.trees.iter() {
                    votes[t.predict(row) as usize] += 1;
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, v)| *v)
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    /// Predicts every sample of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// Normalized impurity-based feature importances (sum to 1).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// `(name, importance)` pairs sorted descending — the paper's top-5
    /// feature plots.
    pub fn top_features(&self, k: usize) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .feature_names
            .iter()
            .cloned()
            .zip(self.importances.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        pairs.truncate(k);
        pairs
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The task this forest was fitted for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Heap bytes of the shared storage (capacity, not length): every
    /// tree's nodes and raw importances, the tree slice itself, the
    /// feature names and the normalized importances. Clones share this
    /// storage, so they report the same figure.
    pub fn heap_bytes(&self) -> usize {
        self.trees
            .iter()
            .map(DecisionTree::heap_bytes)
            .sum::<usize>()
            + std::mem::size_of_val(&*self.trees)
            + self
                .feature_names
                .iter()
                .map(String::capacity)
                .sum::<usize>()
            + std::mem::size_of_val(&*self.feature_names)
            + std::mem::size_of_val(&*self.importances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_regression(n: usize) -> Dataset {
        // y = 3*x0 + noise-ish deterministic residual; x1 is noise.
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..n {
            let x0 = (i % 100) as f64 / 100.0;
            let x1 = ((i * 61) % 97) as f64 / 97.0;
            d.push(&[x0, x1], 3.0 * x0 + 0.05 * ((i % 7) as f64));
        }
        d
    }

    fn make_classification(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..n {
            let a = (i % 50) as f64 / 50.0;
            let b = ((i * 31) % 71) as f64 / 71.0;
            let c = ((i * 17) % 43) as f64 / 43.0;
            let y = if a < 0.33 {
                0.0
            } else if a < 0.66 {
                1.0
            } else {
                2.0
            };
            d.push(&[a, b, c], y);
        }
        d
    }

    #[test]
    fn regression_low_error_in_sample() {
        let d = make_regression(600);
        let f = RandomForest::fit(&d, Task::Regression, &RandomForestParams::default());
        let preds = f.predict_all(&d);
        let mae: f64 = preds
            .iter()
            .zip(d.targets())
            .map(|(p, y)| (p - y).abs())
            .sum::<f64>()
            / d.len() as f64;
        assert!(mae < 0.15, "in-sample MAE {mae}");
    }

    #[test]
    fn classification_recovers_bands() {
        let d = make_classification(600);
        let f = RandomForest::fit(
            &d,
            Task::Classification { n_classes: 3 },
            &RandomForestParams::default(),
        );
        assert_eq!(f.predict(&[0.1, 0.5, 0.5]), 0.0);
        assert_eq!(f.predict(&[0.5, 0.5, 0.5]), 1.0);
        assert_eq!(f.predict(&[0.9, 0.5, 0.5]), 2.0);
    }

    #[test]
    fn importances_normalized_and_ranked() {
        let d = make_regression(500);
        let f = RandomForest::fit(&d, Task::Regression, &RandomForestParams::default());
        let imp = f.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.7, "signal importance {imp:?}");
        let top = f.top_features(1);
        assert_eq!(top[0].0, "x0");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = make_regression(300);
        let p = RandomForestParams {
            seed: 9,
            n_trees: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(&d, Task::Regression, &p);
        let b = RandomForest::fit(&d, Task::Regression, &p);
        let row = [0.37, 0.2];
        assert_eq!(a.predict(&row), b.predict(&row));
        let p2 = RandomForestParams { seed: 10, ..p };
        let c = RandomForest::fit(&d, Task::Regression, &p2);
        // Different seed should (almost surely) differ somewhere.
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64 / 50.0, 0.5]).collect();
        assert!(rows.iter().any(|r| a.predict(r) != c.predict(r)));
    }

    #[test]
    fn n_trees_respected() {
        let d = make_regression(100);
        let p = RandomForestParams {
            n_trees: 7,
            ..Default::default()
        };
        let f = RandomForest::fit(&d, Task::Regression, &p);
        assert_eq!(f.n_trees(), 7);
    }

    #[test]
    fn heap_bytes_covers_every_trees_nodes() {
        let d = make_regression(300);
        let f = RandomForest::fit(&d, Task::Regression, &RandomForestParams::default());
        let nodes: usize = f.trees.iter().map(DecisionTree::n_nodes).sum();
        // A split node alone is four 8-byte fields.
        assert!(f.heap_bytes() >= nodes * 32, "{} B", f.heap_bytes());
    }

    #[test]
    fn a_clone_shares_the_fitted_trees() {
        let d = make_regression(300);
        let p = RandomForestParams {
            n_trees: 10,
            ..Default::default()
        };
        let f = RandomForest::fit(&d, Task::Regression, &p);
        let copy = f.clone();
        assert!(
            Arc::ptr_eq(&f.trees, &copy.trees),
            "a clone copied the trees"
        );
        assert!(Arc::ptr_eq(&f.feature_names, &copy.feature_names));
        assert!(Arc::ptr_eq(&f.importances, &copy.importances));
        assert_eq!(copy.heap_bytes(), f.heap_bytes());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let row = [rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5)];
            assert_eq!(
                copy.predict(&row).to_bits(),
                f.predict(&row).to_bits(),
                "{row:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let d = Dataset::new(vec!["x".into()]);
        let _ = RandomForest::fit(&d, Task::Regression, &RandomForestParams::default());
    }

    #[test]
    #[should_panic(expected = "class range")]
    fn out_of_range_class_rejected() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(&[0.0], 5.0);
        let _ = RandomForest::fit(
            &d,
            Task::Classification { n_classes: 2 },
            &RandomForestParams::default(),
        );
    }
}
