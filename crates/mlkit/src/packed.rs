//! Bit-packed binary feature rows and the sparse-gather perceptron.
//!
//! The paper's detector is deliberately hardware-shaped: 0/1 k-sparse
//! features scored by a single-layer perceptron, exactly like the
//! perceptron branch predictors it descends from. This module is that
//! shape taken literally in software: a binarized row is a [`BitRow`]
//! (one bit per feature, packed into `u64` words), a batch of rows is a
//! contiguous [`PackedRows`] block, and a trained [`Perceptron`] freezes
//! into a [`PackedPerceptron`] whose inference walks set bits instead of
//! multiplying a dense `f64` vector.
//!
//! Scoring ([`PackedPerceptron::score_bits`] for one row,
//! [`PackedPerceptron::score_rows`] for a batch) iterates the set bits of
//! a row in ascending lane order and sums the corresponding `f64`
//! weights. Because every input is exactly `0.0` or `1.0`, skipping
//! the zero terms cannot perturb the IEEE-754 sum: the result is
//! **bit-identical** to [`crate::Classifier::score`] on the equivalent
//! dense row, so verdicts, confidences and thresholds all carry over
//! unchanged — the packed engine is a faster spelling of the same math,
//! never an approximation. [`PackedPerceptron::quantized`] exports the
//! signed 8-bit weights the hardware tables would hold (§IV-G1).
//!
//! A lane masked during encoding (a sanitized sensor reading) is simply
//! a clear bit, so it contributes nothing to a score.

use crate::error::MlError;
use crate::perceptron::Perceptron;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words needed to hold `width` lanes.
#[inline]
fn words_for(width: usize) -> usize {
    width.div_ceil(WORD_BITS)
}

/// One binarized feature row packed 64 lanes per `u64` word.
///
/// A lane is *set* when the binarized feature is 1. A lane masked during
/// encoding (a sanitized non-finite sensor reading, or a reference
/// maximum too degenerate to divide by) stays clear. Tail bits beyond
/// `width` are always zero, so whole-word popcounts never see garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    words: Vec<u64>,
    width: usize,
}

impl BitRow {
    /// An all-zero row over `width` lanes.
    pub fn zeros(width: usize) -> Self {
        Self {
            words: vec![0; words_for(width)],
            width,
        }
    }

    /// Packs a dense binarized row: a lane is set when the value exceeds
    /// 0.5 (the k-sparse convention). Non-finite lanes stay clear.
    pub fn from_f64(row: &[f64]) -> Self {
        let mut out = Self::zeros(row.len());
        for (i, &v) in row.iter().enumerate() {
            if v.is_finite() && v > 0.5 {
                out.set(i, true);
            }
        }
        out
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The packed feature bits, 64 lanes per word, tail bits zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The feature bit of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "lane {i} out of range ({})", self.width);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets or clears the feature bit of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.width, "lane {i} out of range ({})", self.width);
        let mask = 1u64 << (i % WORD_BITS);
        if bit {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Resets to all-zero bits, keeping the width — the allocation-free
    /// reuse path for streaming encoders.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// A batch of equal-width [`BitRow`]s stored contiguously, row-major —
/// the cache-friendly layout batched inference walks linearly.
#[derive(Debug, Clone, Default)]
pub struct PackedRows {
    words: Vec<u64>,
    width: usize,
    len: usize,
}

impl PackedRows {
    /// An empty batch over `width`-lane rows.
    pub fn new(width: usize) -> Self {
        Self {
            words: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureWidthMismatch`] when the row's width
    /// differs from the batch's.
    pub fn push(&mut self, row: &BitRow) -> Result<(), MlError> {
        if row.width() != self.width {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.width,
                got: row.width(),
            });
        }
        self.words.extend_from_slice(row.words());
        self.len += 1;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lanes per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Drops every row, keeping the allocation and width.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// A trained [`Perceptron`] frozen for bit-packed inference.
///
/// Holds the exact `f64` weights (for bit-identical scoring) alongside
/// their signed-8-bit quantization (the vendor-patch export).
/// Construction is cheap; freeze once after training and share across
/// streams.
#[derive(Debug, Clone)]
pub struct PackedPerceptron {
    weights: Vec<f64>,
    bias: f64,
    width: usize,
    words_per_row: usize,
    /// Quantized weights (`float ≈ int × scale`), kept for export and
    /// cross-checks against sequential-adder implementations.
    qweights: Vec<i8>,
    qbias: i8,
    scale: f64,
}

impl PackedPerceptron {
    /// Freezes a trained perceptron's weights for packed inference.
    pub fn from_perceptron(p: &Perceptron) -> Self {
        Self::from_weights(p.weights(), p.bias())
    }

    /// Freezes an explicit weight vector and bias.
    pub fn from_weights(weights: &[f64], bias: f64) -> Self {
        let width = weights.len();
        let words_per_row = words_for(width);
        // Identical quantization to the detector's vendor-patch scheme:
        // scale from the largest magnitude (weights and bias alike).
        let max = weights
            .iter()
            .chain(std::iter::once(&bias))
            .fold(0.0f64, |m, w| m.max(w.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let q = |w: f64| -> i8 { (w / scale).round().clamp(-127.0, 127.0) as i8 };
        Self {
            weights: weights.to_vec(),
            bias,
            width,
            words_per_row,
            qweights: weights.iter().map(|&w| q(w)).collect(),
            qbias: q(bias),
            scale,
        }
    }

    /// Number of input lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The frozen `f64` weights, in lane order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The frozen bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The 8-bit quantization `(weights, bias, scale)`, with
    /// `float ≈ int × scale`.
    pub fn quantized(&self) -> (&[i8], i8, f64) {
        (&self.qweights, self.qbias, self.scale)
    }

    /// Exact raw score over one row's words. The workhorse behind
    /// [`PackedPerceptron::score_bits`] and batched scoring.
    #[inline]
    fn score_words(&self, words: &[u64]) -> f64 {
        debug_assert_eq!(words.len(), self.words_per_row);
        // Summing only the set lanes in ascending order reproduces the
        // dense dot product bit-for-bit: the skipped terms are exact
        // zeros, which cannot move an IEEE-754 accumulator that starts
        // at +0.0.
        let mut acc = 0.0f64;
        for (w, &bits) in words.iter().enumerate() {
            let mut m = bits;
            let base = w * WORD_BITS;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                acc += self.weights[base + b];
                m &= m - 1;
            }
        }
        acc + self.bias
    }

    /// Exact raw decision score for one packed row — bit-identical to
    /// [`crate::Classifier::score`] on the equivalent dense 0/1 row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the model's.
    pub fn score_bits(&self, row: &BitRow) -> f64 {
        assert_eq!(row.width(), self.width, "packed row width mismatch");
        self.score_words(row.words())
    }

    /// Exact raw scores for a whole batch, written into `out` (cleared
    /// first). The batch walk is a single linear pass over the packed
    /// block — the cache-friendly shape per-row scoring cannot reach.
    ///
    /// The sweep is unrolled four rows wide: each iteration of the word
    /// loop processes one `u64` word from four rows at once, draining each
    /// into its own independent accumulator. The accumulators must be
    /// per-*row*, never per-word: IEEE-754 addition is not associative, so
    /// splitting one row's weights across partial sums would change its
    /// rounding — per-row chains keep every score walking lanes in
    /// ascending order, bit-identical to [`PackedPerceptron::score_bits`],
    /// while the four chains give the CPU independent FP dependency chains
    /// to overlap.
    ///
    /// # Panics
    ///
    /// Panics if the batch's width differs from the model's.
    pub fn score_rows(&self, rows: &PackedRows, out: &mut Vec<f64>) {
        assert_eq!(rows.width(), self.width, "packed batch width mismatch");
        out.clear();
        out.reserve(rows.len());
        let n = self.words_per_row;
        let mut r = 0;
        while r + 4 <= rows.len() {
            let b = [r * n, (r + 1) * n, (r + 2) * n, (r + 3) * n];
            let mut acc = [0.0f64; 4];
            for w in 0..n {
                let lane0 = w * WORD_BITS;
                for (k, acc_k) in acc.iter_mut().enumerate() {
                    let mut m = rows.words[b[k] + w];
                    while m != 0 {
                        *acc_k += self.weights[lane0 + m.trailing_zeros() as usize];
                        m &= m - 1;
                    }
                }
            }
            out.extend(acc.iter().map(|a| a + self.bias));
            r += 4;
        }
        for r in r..rows.len() {
            let base = r * n;
            out.push(self.score_words(&rows.words[base..base + n]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Classifier;

    fn count_ones(r: &BitRow) -> u32 {
        r.words().iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn bitrow_roundtrips_and_keeps_tails_clean() {
        for width in [1usize, 63, 64, 65, 106, 128, 130] {
            let mut r = BitRow::zeros(width);
            r.set(0, true);
            r.set(width - 1, true);
            assert!(r.get(0) && r.get(width - 1));
            assert_eq!(count_ones(&r), if width == 1 { 1 } else { 2 });
            // Tail bits beyond `width` stay zero.
            if width % WORD_BITS != 0 {
                let tail = *r.words().last().unwrap() >> (width % WORD_BITS);
                assert_eq!(tail, 0, "width {width}: dirty tail bits");
            }
            r.set(0, false);
            assert!(!r.get(0));
            r.clear();
            assert_eq!(count_ones(&r), 0);
        }
    }

    #[test]
    fn from_f64_packs_the_ksparse_convention() {
        let r = BitRow::from_f64(&[0.0, 1.0, 0.4, 0.6, f64::NAN, f64::INFINITY]);
        assert!(!r.get(0) && r.get(1) && !r.get(2) && r.get(3));
        assert!(!r.get(4) && !r.get(5), "non-finite lanes pack as 0");
        assert_eq!(r.words(), &[0b00_1010]);
    }

    #[test]
    fn packed_rows_push_rejects_width_mismatch() {
        let mut batch = PackedRows::new(10);
        assert!(batch.push(&BitRow::zeros(10)).is_ok());
        assert_eq!(
            batch.push(&BitRow::zeros(11)),
            Err(MlError::FeatureWidthMismatch {
                expected: 10,
                got: 11
            })
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.words, BitRow::zeros(10).words());
    }

    #[test]
    fn packed_score_is_bit_identical_to_scalar_score() {
        // Width 70 exercises the non-multiple-of-64 tail.
        let width = 70;
        let weights: Vec<f64> = (0..width)
            .map(|i| ((i as f64) * 0.37 - 11.0) / 3.0)
            .collect();
        let mut p = Perceptron::new(width);
        p.set_weights(weights, 0.125).unwrap();
        let packed = PackedPerceptron::from_perceptron(&p);
        for pattern in 0u64..64 {
            let dense: Vec<f64> = (0..width)
                .map(|i| f64::from(pattern >> (i % 17) & 1 == 1))
                .collect();
            let row = BitRow::from_f64(&dense);
            assert_eq!(
                packed.score_bits(&row).to_bits(),
                p.score(&dense).to_bits(),
                "pattern {pattern}: packed score diverged"
            );
        }
    }

    #[test]
    fn quantization_rounds_every_weight_to_within_half_a_step() {
        let width = 106;
        let weights: Vec<f64> = (0..width).map(|i| (i as f64 * 7.3).sin() * 4.0).collect();
        let bias = -0.75;
        let packed = PackedPerceptron::from_weights(&weights, bias);
        let (q, qb, scale) = packed.quantized();
        assert!(scale > 0.0);
        assert_eq!(q.len(), width);
        for (&w, &qw) in weights.iter().chain([&bias]).zip(q.iter().chain([&qb])) {
            assert!((w - f64::from(qw) * scale).abs() <= scale / 2.0 + 1e-12);
        }
        assert!(
            q.iter().any(|&qw| qw.unsigned_abs() == 127),
            "the largest magnitude sets the scale"
        );
    }

    #[test]
    fn batched_scores_match_per_row_scores() {
        let width = 65;
        let weights: Vec<f64> = (0..width).map(|i| (i as f64) - 31.5).collect();
        let packed = PackedPerceptron::from_weights(&weights, 2.0);
        let mut batch = PackedRows::new(width);
        let mut singles = Vec::new();
        for k in 0..10usize {
            let mut row = BitRow::zeros(width);
            for i in (k % 7..width).step_by(k + 2) {
                row.set(i, true);
            }
            singles.push(packed.score_bits(&row));
            batch.push(&row).unwrap();
        }
        let mut batched = Vec::new();
        packed.score_rows(&batch, &mut batched);
        let a: Vec<u64> = singles.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = batched.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
    }

    /// The 4-wide unrolled sweep must stay bit-identical to per-row
    /// scoring at every (batch length % 4) remainder and at multi-word
    /// widths.
    #[test]
    fn unrolled_batch_sweep_is_bit_identical_at_every_remainder() {
        for width in [1usize, 63, 64, 106, 130, 200, 513] {
            let weights: Vec<f64> = (0..width)
                .map(|i| ((i as f64) * 1.37).sin() * 5.0 - 0.3)
                .collect();
            let packed = PackedPerceptron::from_weights(&weights, -0.875);
            for len in 0..=9usize {
                let mut batch = PackedRows::new(width);
                let mut singles = Vec::new();
                let mut state = ((width as u64) << 16) | (len as u64 + 1);
                for _ in 0..len {
                    let mut row = BitRow::zeros(width);
                    for i in 0..width {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        if state & 3 == 0 {
                            row.set(i, true);
                        }
                    }
                    singles.push(packed.score_bits(&row).to_bits());
                    batch.push(&row).unwrap();
                }
                let mut batched = Vec::new();
                packed.score_rows(&batch, &mut batched);
                let b: Vec<u64> = batched.iter().map(|s| s.to_bits()).collect();
                assert_eq!(singles, b, "width {width}, batch len {len}");
            }
        }
    }
}
