//! CART decision trees: regression by variance (SSE) reduction,
//! classification by Gini impurity.

use crate::dataset::Dataset;
use crate::forest::Task;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Tree-growing hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Features sampled per node (`None` = all, CART style).
    pub mtry: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 16,
            min_samples_leaf: 2,
            min_samples_split: 4,
            mtry: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    task: Task,
    /// Un-normalized impurity decrease per feature.
    importances_raw: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on the samples selected by `indices`.
    ///
    /// # Panics
    /// Panics if `indices` is empty.
    pub fn fit(
        data: &Dataset,
        indices: &[usize],
        task: Task,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            task,
            importances_raw: vec![0.0; data.n_features()],
        };
        let mut idx = indices.to_vec();
        tree.grow(data, &mut idx, params, rng, 0);
        tree
    }

    /// Predicts one sample: mean target (regression) or class id
    /// (classification).
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Raw (unnormalized) impurity-decrease importances.
    pub fn importances_raw(&self) -> &[f64] {
        &self.importances_raw
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes held by the node and importance vectors (capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.importances_raw.capacity() * std::mem::size_of::<f64>()
    }

    /// Grows a subtree over `idx` (reordered in place); returns its node id.
    fn grow(
        &mut self,
        data: &Dataset,
        idx: &mut [usize],
        params: &TreeParams,
        rng: &mut StdRng,
        depth: usize,
    ) -> usize {
        let leaf_value = match self.task {
            Task::Regression => mean(data, idx),
            Task::Classification { n_classes } => majority(data, idx, n_classes),
        };
        if depth >= params.max_depth
            || idx.len() < params.min_samples_split
            || idx.len() < 2 * params.min_samples_leaf
        {
            return self.push_leaf(leaf_value);
        }

        let parent_impurity = self.node_impurity(data, idx);
        if parent_impurity <= 1e-12 {
            return self.push_leaf(leaf_value);
        }

        // Candidate features: all, or a random subset for forests.
        let n_feat = data.n_features();
        let mut feats: Vec<usize> = (0..n_feat).collect();
        if let Some(m) = params.mtry {
            feats.shuffle(rng);
            feats.truncate(m.clamp(1, n_feat));
        }

        let mut best: Option<(f64, usize, f64)> = None; // (decrease, feature, threshold)
        for &f in &feats {
            if let Some((decrease, thr)) = self.best_split_on(data, idx, f, params) {
                if best.is_none_or(|(d, _, _)| decrease > d) {
                    best = Some((decrease, f, thr));
                }
            }
        }
        let Some((decrease, feature, threshold)) = best else {
            return self.push_leaf(leaf_value);
        };

        self.importances_raw[feature] += decrease;

        // Partition indices in place.
        let mut split_point = 0;
        for i in 0..idx.len() {
            if data.row(idx[i])[feature] <= threshold {
                idx.swap(i, split_point);
                split_point += 1;
            }
        }
        // Floating-point midpoints between near-identical values can round
        // onto one side and produce an empty partition; fall back to a
        // leaf rather than recurse forever.
        if split_point == 0 || split_point == idx.len() {
            return self.push_leaf(leaf_value);
        }

        // Reserve this node id, then grow children.
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: leaf_value }); // placeholder
        let (left_idx, right_idx) = idx.split_at_mut(split_point);
        let left = self.grow(data, left_idx, params, rng, depth + 1);
        let right = self.grow(data, right_idx, params, rng, depth + 1);
        self.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Impurity of a node: SSE for regression, n·Gini for classification
    /// (both on the same "total decrease" scale).
    fn node_impurity(&self, data: &Dataset, idx: &[usize]) -> f64 {
        match self.task {
            Task::Regression => {
                let (mut s, mut s2) = (0.0, 0.0);
                for &i in idx {
                    let y = data.target(i);
                    s += y;
                    s2 += y * y;
                }
                s2 - s * s / idx.len() as f64
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0.0f64; n_classes];
                for &i in idx {
                    counts[data.target(i) as usize] += 1.0;
                }
                let n = idx.len() as f64;
                n * (1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>())
            }
        }
    }

    /// Best split on one feature: returns (impurity decrease, threshold).
    fn best_split_on(
        &self,
        data: &Dataset,
        idx: &[usize],
        feature: usize,
        params: &TreeParams,
    ) -> Option<(f64, f64)> {
        let mut pairs: Vec<(f64, f64)> = idx
            .iter()
            .map(|&i| (data.row(i)[feature], data.target(i)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = pairs.len();
        let parent = self.node_impurity(data, idx);

        match self.task {
            Task::Regression => {
                let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
                let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
                let (mut ls, mut lq) = (0.0, 0.0);
                let mut best: Option<(f64, f64)> = None;
                for k in 0..n - 1 {
                    ls += pairs[k].1;
                    lq += pairs[k].1 * pairs[k].1;
                    if pairs[k + 1].0 <= pairs[k].0 {
                        continue; // no boundary between equal values
                    }
                    let nl = (k + 1) as f64;
                    let nr = (n - k - 1) as f64;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let sse_l = lq - ls * ls / nl;
                    let sse_r = (total_sq - lq) - (total_sum - ls) * (total_sum - ls) / nr;
                    let decrease = parent - sse_l - sse_r;
                    if decrease > 1e-12 && best.is_none_or(|(d, _)| decrease > d) {
                        best = Some((decrease, (pairs[k].0 + pairs[k + 1].0) / 2.0));
                    }
                }
                best
            }
            Task::Classification { n_classes } => {
                let mut total = vec![0.0f64; n_classes];
                for p in &pairs {
                    total[p.1 as usize] += 1.0;
                }
                let mut left = vec![0.0f64; n_classes];
                let mut best: Option<(f64, f64)> = None;
                for k in 0..n - 1 {
                    left[pairs[k].1 as usize] += 1.0;
                    if pairs[k + 1].0 <= pairs[k].0 {
                        continue;
                    }
                    let nl = (k + 1) as f64;
                    let nr = (n - k - 1) as f64;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let gini = |counts: &[f64], n: f64, other: Option<&[f64]>| -> f64 {
                        let s: f64 = counts
                            .iter()
                            .enumerate()
                            .map(|(c, &v)| {
                                let v = match other {
                                    Some(tot) => tot[c] - v,
                                    None => v,
                                };
                                (v / n) * (v / n)
                            })
                            .sum();
                        n * (1.0 - s)
                    };
                    let gl = gini(&left, nl, None);
                    let gr = gini(&left, nr, Some(&total));
                    let decrease = parent - gl - gr;
                    if decrease > 1e-12 && best.is_none_or(|(d, _)| decrease > d) {
                        best = Some((decrease, (pairs[k].0 + pairs[k + 1].0) / 2.0));
                    }
                }
                best
            }
        }
    }
}

fn mean(data: &Dataset, idx: &[usize]) -> f64 {
    idx.iter().map(|&i| data.target(i)).sum::<f64>() / idx.len() as f64
}

fn majority(data: &Dataset, idx: &[usize], n_classes: usize) -> f64 {
    let mut counts = vec![0usize; n_classes];
    for &i in idx {
        counts[data.target(i) as usize] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .map(|(cls, _)| cls as f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn xor_like() -> Dataset {
        // y = 1 iff x0 > 0.5 XOR x1 > 0.5 — needs depth 2.
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let y = if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 };
            // jitter inputs around 0.25 / 0.75
            let x0 = 0.25 + a * 0.5 + (i as f64 % 7.0) * 0.001;
            let x1 = 0.25 + b * 0.5 + (i as f64 % 5.0) * 0.001;
            d.push(&[x0, x1], y);
        }
        d
    }

    #[test]
    fn regression_fits_step_function() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(&[x], if x < 0.5 { 1.0 } else { 5.0 });
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(
            &d,
            &idx,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
        assert!((t.predict(&[0.2]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.8]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classification_solves_xor() {
        let d = xor_like();
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(
            &d,
            &idx,
            Task::Classification { n_classes: 2 },
            &TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(t.predict(&[0.25, 0.25]), 0.0);
        assert_eq!(t.predict(&[0.75, 0.25]), 1.0);
        assert_eq!(t.predict(&[0.25, 0.75]), 1.0);
        assert_eq!(t.predict(&[0.75, 0.75]), 0.0);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(&[i as f64], 7.0);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(
            &d,
            &idx,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[3.0]), 7.0);
    }

    #[test]
    fn max_depth_zero_is_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 10.0);
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(&d, &idx, Task::Regression, &params, &mut rng());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[0.0]), 5.0); // mean
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(&[i as f64], if i == 0 { 100.0 } else { 0.0 });
        }
        // With min_samples_leaf = 3 the outlier cannot be isolated.
        let params = TreeParams {
            min_samples_leaf: 3,
            ..Default::default()
        };
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(&d, &idx, Task::Regression, &params, &mut rng());
        // Leftmost leaf holds >= 3 samples, so prediction < 100.
        assert!(t.predict(&[0.0]) < 50.0);
    }

    #[test]
    fn importance_concentrates_on_informative_feature() {
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..200 {
            let x = i as f64 / 200.0;
            let noise = ((i * 37) % 83) as f64 / 83.0;
            d.push(&[x, noise], if x < 0.5 { 0.0 } else { 10.0 });
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(
            &d,
            &idx,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
        let imp = t.importances_raw();
        assert!(imp[0] > imp[1] * 10.0, "importances {imp:?}");
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        let mut d = Dataset::new(vec!["x".into()]);
        // All x equal: no split possible despite varying y.
        for i in 0..20 {
            d.push(&[1.0], i as f64);
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let t = DecisionTree::fit(
            &d,
            &idx,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_rejected() {
        let d = Dataset::new(vec!["x".into()]);
        let _ = DecisionTree::fit(
            &d,
            &[],
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
    }
}
