//! Ridge (L2-regularized linear) regression — one of the "classical
//! supervised ML models" the paper compares random forests against
//! (§4.3). Solved exactly via normal equations with Cholesky
//! decomposition; with ≤ a few dozen features that is both fast and
//! numerically safe.

use crate::dataset::Dataset;

/// A fitted ridge-regression model.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    bias: f64,
    /// Per-feature means used for centering.
    x_mean: Vec<f64>,
    /// Per-feature scales used for standardization.
    x_scale: Vec<f64>,
}

impl RidgeRegression {
    /// Fits with regularization strength `lambda` (≥ 0). Features are
    /// standardized internally, so `lambda` is scale-free.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `lambda` is negative/non-finite.
    pub fn fit(data: &Dataset, lambda: f64) -> Self {
        assert!(!data.is_empty(), "empty dataset");
        assert!(lambda >= 0.0 && lambda.is_finite(), "invalid lambda");
        let n = data.len();
        let p = data.n_features();

        // Standardize.
        let mut x_mean = vec![0.0; p];
        for i in 0..n {
            for (m, &v) in x_mean.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= n as f64;
        }
        let mut x_scale = vec![0.0; p];
        for i in 0..n {
            for j in 0..p {
                x_scale[j] += (data.row(i)[j] - x_mean[j]).powi(2);
            }
        }
        for s in &mut x_scale {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: leave centered at zero
            }
        }
        let y_mean = data.targets().iter().sum::<f64>() / n as f64;

        // Normal equations on standardized X: (XᵀX + λI) w = Xᵀy.
        let mut xtx = vec![0.0; p * p];
        let mut xty = vec![0.0; p];
        let mut z = vec![0.0; p];
        for i in 0..n {
            for j in 0..p {
                z[j] = (data.row(i)[j] - x_mean[j]) / x_scale[j];
            }
            let yc = data.target(i) - y_mean;
            for j in 0..p {
                xty[j] += z[j] * yc;
                for k in j..p {
                    xtx[j * p + k] += z[j] * z[k];
                }
            }
        }
        for j in 0..p {
            for k in 0..j {
                xtx[j * p + k] = xtx[k * p + j];
            }
            xtx[j * p + j] += lambda.max(1e-9) * n as f64 / n as f64 + 1e-9;
        }
        let weights = cholesky_solve(&xtx, &xty, p);
        RidgeRegression {
            weights,
            bias: y_mean,
            x_mean,
            x_scale,
        }
    }

    /// Predicts one sample.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "feature width mismatch");
        let mut y = self.bias;
        for (j, &x) in row.iter().enumerate() {
            y += self.weights[j] * (x - self.x_mean[j]) / self.x_scale[j];
        }
        y
    }
}

/// Solves `A x = b` for symmetric positive-definite `A` (row-major p×p).
fn cholesky_solve(a: &[f64], b: &[f64], p: usize) -> Vec<f64> {
    // Decompose A = L Lᵀ.
    let mut l = vec![0.0; p * p];
    for i in 0..p {
        for j in 0..=i {
            let mut sum = a[i * p + j];
            for k in 0..j {
                sum -= l[i * p + k] * l[j * p + k];
            }
            if i == j {
                l[i * p + i] = sum.max(1e-12).sqrt();
            } else {
                l[i * p + j] = sum / l[j * p + j];
            }
        }
    }
    // Forward substitution: L y = b.
    let mut y = vec![0.0; p];
    for i in 0..p {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * p + k] * y[k];
        }
        y[i] = sum / l[i * p + i];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; p];
    for i in (0..p).rev() {
        let mut sum = y[i];
        for k in i + 1..p {
            sum -= l[k * p + i] * x[k];
        }
        x[i] = sum / l[i * p + i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let mut d = Dataset::new(names(2));
        for i in 0..100 {
            let a = i as f64 / 10.0;
            let b = ((i * 7) % 13) as f64;
            d.push(&[a, b], 3.0 * a - 2.0 * b + 5.0);
        }
        let m = RidgeRegression::fit(&d, 1e-6);
        for i in 0..100 {
            let err = (m.predict(d.row(i)) - d.target(i)).abs();
            assert!(err < 1e-6, "err {err}");
        }
    }

    #[test]
    fn constant_feature_handled() {
        let mut d = Dataset::new(names(2));
        for i in 0..50 {
            d.push(&[1.0, i as f64], 2.0 * i as f64);
        }
        let m = RidgeRegression::fit(&d, 1e-6);
        assert!((m.predict(&[1.0, 10.0]) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn regularization_shrinks_coefficients() {
        let mut d = Dataset::new(names(1));
        for i in 0..30 {
            d.push(&[i as f64], 4.0 * i as f64);
        }
        let loose = RidgeRegression::fit(&d, 1e-6);
        let tight = RidgeRegression::fit(&d, 100.0);
        assert!(tight.weights[0].abs() < loose.weights[0].abs());
    }

    #[test]
    fn cannot_fit_nonlinear_step() {
        // Sanity: the linear model is genuinely weaker than a tree on a
        // step function, which is why the paper lands on forests.
        let mut d = Dataset::new(names(1));
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(&[x], if x < 0.5 { 0.0 } else { 10.0 });
        }
        let m = RidgeRegression::fit(&d, 1e-3);
        let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
        let mae = crate::metrics::mae(&preds, d.targets());
        assert!(
            mae > 1.0,
            "linear model unexpectedly solved a step (MAE {mae})"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_rejected() {
        let d = Dataset::new(names(1));
        let _ = RidgeRegression::fit(&d, 1.0);
    }
}
