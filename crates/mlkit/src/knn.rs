//! K-nearest neighbors.

use crate::error::{validate_training_set, MlError};
use crate::Classifier;

/// K-nearest-neighbor classifier (Euclidean distance).
///
/// The paper's best `k` is 3; KNN scores well but is "not suitable for
/// implementation in hardware due to its high overhead and classification
/// latency" — which the hardware-cost model in the core crate quantifies.
///
/// # Example
///
/// ```
/// use mlkit::{Classifier, Knn};
/// let x = vec![vec![0.0], vec![0.1], vec![1.0], vec![0.9]];
/// let y = vec![-1, -1, 1, 1];
/// let mut m = Knn::new(3);
/// m.fit(&x, &y);
/// assert_eq!(m.predict(&[0.95]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Knn {
    /// Number of neighbors consulted.
    pub k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<i8>,
}

impl Knn {
    /// Creates a KNN classifier with `k` neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; use [`Knn::try_new`] for a typed error.
    pub fn new(k: usize) -> Self {
        Self::try_new(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParam`] when `k == 0`.
    pub fn try_new(k: usize) -> Result<Self, MlError> {
        if k == 0 {
            return Err(MlError::InvalidParam {
                param: "k",
                reason: "k must be positive",
            });
        }
        Ok(Self {
            k,
            x: Vec::new(),
            y: Vec::new(),
        })
    }
}

impl Classifier for Knn {
    fn fit(&mut self, x: &[Vec<f64>], y: &[i8]) {
        validate_training_set(x, y, None).unwrap_or_else(|e| panic!("{e}"));
        self.x = x.to_vec();
        self.y = y.to_vec();
    }

    fn score(&self, row: &[f64]) -> f64 {
        assert!(!self.x.is_empty(), "fit before predict");
        let mut dists: Vec<(f64, i8)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(r, &l)| {
                let d: f64 = r.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, l)
            })
            .collect();
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("no NaN distances")
        });
        let votes: i32 = dists[..k].iter().map(|&(_, l)| l as i32).sum();
        votes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_memorizes_training_points() {
        let x = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        let y = vec![-1, 1];
        let mut m = Knn::new(1);
        m.fit(&x, &y);
        assert_eq!(m.predict(&[0.1, 0.1]), -1);
        assert_eq!(m.predict(&[4.9, 5.1]), 1);
    }

    #[test]
    fn k3_outvotes_a_single_outlier() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2], vec![0.15]];
        let y = vec![-1, -1, -1, 1]; // one mislabeled point
        let mut m = Knn::new(3);
        m.fit(&x, &y);
        assert_eq!(m.predict(&[0.12]), -1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = Knn::new(0);
    }
}
