//! Feature-matrix container shared by trees, forests and cross-validation.

/// A dense row-major feature matrix with a target vector.
///
/// Regression targets are used as-is; classification targets must be
/// integer class ids stored as `f64` (0.0, 1.0, ...).
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Vec<f64>,
    y: Vec<f64>,
    n_features: usize,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with named features.
    pub fn new(feature_names: Vec<String>) -> Self {
        assert!(
            !feature_names.is_empty(),
            "dataset needs at least one feature"
        );
        Dataset {
            x: Vec::new(),
            y: Vec::new(),
            n_features: feature_names.len(),
            feature_names,
        }
    }

    /// Appends one sample.
    ///
    /// # Panics
    /// Panics if the row width doesn't match or contains NaN.
    pub fn push(&mut self, row: &[f64], target: f64) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!(
            row.iter().all(|v| v.is_finite()),
            "non-finite feature value"
        );
        assert!(target.is_finite(), "non-finite target");
        self.x.extend_from_slice(row);
        self.y.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// One sample row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Target of sample `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Number of distinct classes assuming integer class-id targets.
    pub fn n_classes(&self) -> usize {
        self.y
            .iter()
            .map(|&v| v as usize)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Builds a sub-dataset from the given sample indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.feature_names.clone());
        for &i in indices {
            out.push(self.row(i), self.y[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(names(2));
        d.push(&[1.0, 2.0], 10.0);
        d.push(&[3.0, 4.0], 20.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.target(0), 10.0);
        assert_eq!(d.targets(), &[10.0, 20.0]);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_picks_rows() {
        let mut d = Dataset::new(names(1));
        for i in 0..5 {
            d.push(&[i as f64], i as f64 * 10.0);
        }
        let s = d.subset(&[4, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(0), &[4.0]);
        assert_eq!(s.target(1), 0.0);
        assert_eq!(s.target(2), 20.0);
    }

    #[test]
    fn n_classes_from_targets() {
        let mut d = Dataset::new(names(1));
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 2.0);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(Dataset::new(names(1)).n_classes(), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(names(2));
        d.push(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let mut d = Dataset::new(names(1));
        d.push(&[f64::NAN], 0.0);
    }
}
