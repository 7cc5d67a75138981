//! Evaluation metrics used throughout the paper: MAE (frame rate, frame
//! jitter), MRAE (bitrate), classification accuracy, normalized confusion
//! matrices (Tables 2/4/A.1–A.3), and percentiles for the box-plot
//! whiskers (10th/90th).

/// Mean absolute error.
///
/// # Panics
/// Panics if inputs are empty or lengths differ.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty input");
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean relative absolute error: mean of |pred - truth| / truth, skipping
/// samples whose ground truth is (near) zero — the paper reports bitrate
/// errors relative to ground-truth bitrate.
pub fn mrae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        if t.abs() > 1e-9 {
            sum += (p - t).abs() / t.abs();
            n += 1;
        }
    }
    assert!(n > 0, "no nonzero ground-truth samples");
    sum / n as f64
}

/// Signed errors (pred − truth), for error-distribution box plots.
pub fn errors(pred: &[f64], truth: &[f64]) -> Vec<f64> {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    pred.iter().zip(truth).map(|(p, t)| p - t).collect()
}

/// Fraction of samples where predicted class equals the true class.
pub fn accuracy(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty input");
    let hits = pred
        .iter()
        .zip(truth)
        .filter(|(p, t)| (**p - **t).abs() < 0.5)
        .count();
    hits as f64 / pred.len() as f64
}

/// Linear-interpolated percentile (`q` in [0, 100]).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "empty input");
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    }
}

/// A labeled confusion matrix with row-normalized percentage views.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    labels: Vec<String>,
    /// counts[actual][predicted]
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over the given class labels.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        assert!(n >= 2, "need at least two classes");
        ConfusionMatrix {
            labels,
            counts: vec![vec![0; n]; n],
        }
    }

    /// Builds a matrix from parallel class-id slices.
    pub fn from_predictions(labels: Vec<String>, pred: &[f64], truth: &[f64]) -> Self {
        let mut m = Self::new(labels);
        for (p, t) in pred.iter().zip(truth) {
            m.record(*t as usize, *p as usize);
        }
        m
    }

    /// Records one (actual, predicted) observation.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Class labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Raw count for (actual, predicted).
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual][predicted]
    }

    /// Total observations whose actual class is `actual` (the paper's
    /// "Total" column).
    pub fn row_total(&self, actual: usize) -> u64 {
        self.counts[actual].iter().sum()
    }

    /// Row-normalized percentage, as the paper prints (e.g. "96.41%").
    pub fn percent(&self, actual: usize, predicted: usize) -> f64 {
        let total = self.row_total(actual);
        if total == 0 {
            return 0.0;
        }
        self.counts[actual][predicted] as f64 / total as f64 * 100.0
    }

    /// Renders the paper-style table (rows = actual, columns = predicted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Actual\\Pred");
        for l in &self.labels {
            out.push_str(&format!("\t{l}"));
        }
        out.push_str("\tTotal\n");
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(l);
            for j in 0..self.labels.len() {
                out.push_str(&format!("\t{:.2}%", self.percent(i, j)));
            }
            out.push_str(&format!("\t{}\n", self.row_total(i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_basic() {
        assert_eq!(mae(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0]), 1.0);
    }

    #[test]
    fn mrae_skips_zero_truth() {
        let m = mrae(&[110.0, 5.0], &[100.0, 0.0]);
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn errors_signed() {
        assert_eq!(errors(&[3.0, 1.0], &[1.0, 3.0]), vec![2.0, -2.0]);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0.0, 1.0, 2.0, 1.0], &[0.0, 1.0, 1.0, 1.0]), 0.75);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn confusion_matrix_percentages() {
        let mut m = ConfusionMatrix::new(vec!["non-video".into(), "video".into()]);
        for _ in 0..983 {
            m.record(0, 0);
        }
        for _ in 0..17 {
            m.record(0, 1);
        }
        for _ in 0..500 {
            m.record(1, 1);
        }
        assert!((m.percent(0, 0) - 98.3).abs() < 1e-9);
        assert!((m.percent(0, 1) - 1.7).abs() < 1e-9);
        assert_eq!(m.percent(1, 0), 0.0);
        assert_eq!(m.row_total(0), 1000);
    }

    #[test]
    fn confusion_from_predictions() {
        let m = ConfusionMatrix::from_predictions(
            vec!["a".into(), "b".into()],
            &[0.0, 1.0, 1.0],
            &[0.0, 0.0, 1.0],
        );
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(1, 1), 1);
        let rendered = m.render();
        assert!(rendered.contains("50.00%"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mae_length_mismatch() {
        let _ = mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty() {
        let _ = percentile(&[], 50.0);
    }
}
