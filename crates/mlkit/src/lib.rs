//! A from-scratch machine-learning toolkit for the PerSpectron
//! reproduction.
//!
//! Implements every model the paper compares (Table IV) — perceptron,
//! logistic regression, CART decision tree, K-nearest neighbors, a
//! one-hidden-layer neural network and a majority-class baseline — plus the
//! evaluation machinery: accuracy/precision/recall/F1, ROC curves with AUC,
//! Pearson correlation, and stratified / group-held-out cross-validation.
//!
//! # Example
//!
//! ```
//! use mlkit::{Classifier, Perceptron};
//!
//! let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.0, 0.9], vec![0.9, 0.1]];
//! let y = vec![1, -1, 1, -1];
//! let mut p = Perceptron::new(2);
//! p.fit(&x, &y);
//! assert_eq!(p.predict(&[0.1, 0.95]), 1);
//! ```

#![warn(missing_docs)]

mod corr;
mod cv;
mod error;
mod knn;
mod logreg;
pub mod metrics;
mod mlp;
mod packed;
mod perceptron;
mod tree;

pub use corr::{correlation_matrix, pearson};
pub use cv::{stratified_kfold, GroupSplit};
pub use error::{validate_training_set, MlError};
pub use knn::Knn;
pub use logreg::LogisticRegression;
pub use metrics::{auc, confusion, roc_curve, Confusion, RocPoint};
pub use mlp::Mlp;
pub use packed::{BitRow, PackedPerceptron, PackedRows};
pub use perceptron::Perceptron;
pub use tree::DecisionTree;

/// A binary classifier over dense feature rows with ±1 labels.
pub trait Classifier {
    /// Trains on feature rows `x` with labels `y` (+1 malicious, −1 benign).
    ///
    /// # Panics
    ///
    /// Implementations panic if `x` and `y` lengths differ or `x` is empty.
    /// Use [`Classifier::try_fit`] to get the same invariants as a typed
    /// [`MlError`] instead.
    fn fit(&mut self, x: &[Vec<f64>], y: &[i8]);

    /// Fallible training: validates the training set first and returns a
    /// typed [`MlError`] instead of panicking on a malformed one.
    ///
    /// # Errors
    ///
    /// Returns the first violated training-set invariant (length
    /// mismatch, empty set). Width checks stay with the individual
    /// models, whose expected widths differ.
    fn try_fit(&mut self, x: &[Vec<f64>], y: &[i8]) -> Result<(), MlError> {
        validate_training_set(x, y, None)?;
        self.fit(x, y);
        Ok(())
    }

    /// Raw decision score for one row (≥ 0 ⇒ class +1).
    fn score(&self, row: &[f64]) -> f64;

    /// Predicted label for one row.
    fn predict(&self, row: &[f64]) -> i8 {
        if self.score(row) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Predicted labels for many rows.
    fn predict_all(&self, x: &[Vec<f64>]) -> Vec<i8> {
        x.iter().map(|r| self.predict(r)).collect()
    }
}

/// Always predicts the majority class of the training set (the paper's
/// "majority labeling" baseline, 74.4%).
#[derive(Debug, Clone, Default)]
pub struct Majority {
    vote: f64,
}

impl Majority {
    /// Creates an untrained majority classifier.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for Majority {
    fn fit(&mut self, x: &[Vec<f64>], y: &[i8]) {
        validate_training_set(x, y, None).unwrap_or_else(|e| panic!("{e}"));
        let pos = y.iter().filter(|&&l| l > 0).count();
        self.vote = if pos * 2 >= y.len() { 1.0 } else { -1.0 };
    }

    fn score(&self, _row: &[f64]) -> f64 {
        self.vote
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_predicts_dominant_class() {
        let x = vec![vec![0.0]; 5];
        let y = vec![-1, -1, -1, 1, 1];
        let mut m = Majority::new();
        m.fit(&x, &y);
        assert_eq!(m.predict(&[123.0]), -1);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn majority_rejects_empty() {
        Majority::new().fit(&[], &[]);
    }
}
