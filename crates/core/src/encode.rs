//! The paper's hardware-friendly input representation: per-sampling-point
//! maxima (matrix *M*) and k-sparse 0/1 binarization.
//!
//! All per-sample scaling/binarization funnels through one helper,
//! [`RowEncoder`]: every feature view (the full 1159-statistic space, the
//! selected replicated-invariant subset, the committed-state MAP baseline)
//! is the same encoder with a different projection, both in batch dataset
//! construction and in the streaming per-interval path.

use std::sync::Arc;

use mlkit::BitRow;

use crate::trace::CollectedCorpus;

/// How samples encode feature values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Max-normalized continuous values in `[0, 1]`.
    Normalized,
    /// The paper's k-sparse 0/1 representation.
    KSparse,
}

/// The matrix *M* of §IV-C: `M[i][j]` is the maximum observed value of
/// counter `i` at execution (sampling) point `j` across the reference
/// corpus. Scaled statistic = value / M\[i\]\[j\]; the k-sparse bit is 1
/// when the scaled statistic exceeds 0.5.
#[derive(Debug, Clone)]
pub struct MaxMatrix {
    /// max\[feature\]\[sample_index\]
    maxima: Vec<Vec<f64>>,
    /// Global per-feature maxima (fallback past the last stored column).
    global: Vec<f64>,
}

/// Scales one raw counter delta against its reference maximum and applies
/// the encoding: the single place the normalize/binarize arithmetic lives.
///
/// Non-finite inputs (a corrupted sensor reading) encode as 0 — a masked
/// feature — never as NaN leaking into the model; a non-finite or
/// subnormal maximum likewise masks the feature, since dividing by it
/// would produce garbage (or an effectively-infinite scale).
#[inline]
fn encode_value(max: f64, value: f64, encoding: Encoding) -> f64 {
    let scaled = if lane_masked(max, value) {
        0.0
    } else {
        (value.abs() / max).min(1.0)
    };
    match encoding {
        Encoding::Normalized => scaled,
        Encoding::KSparse => {
            if scaled > 0.5 {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Whether a raw stat value needs sanitizing before it can be scored
/// (non-finite: NaN or ±∞ from a corrupted sensor).
#[inline]
pub(crate) fn needs_sanitizing(value: f64) -> bool {
    !value.is_finite()
}

/// Whether a lane must be masked during encoding, which encodes it as
/// 0.0 (and so leaves its packed bit clear). A lane is masked when its raw
/// value is non-finite (a corrupted sensor reading) or its reference
/// maximum is non-finite or subnormal (dividing by it would produce
/// garbage or an effectively-infinite scale).
#[inline]
fn lane_masked(max: f64, value: f64) -> bool {
    max < f64::MIN_POSITIVE || !max.is_finite() || needs_sanitizing(value)
}

/// Schema indices of the feature slice a detector attached to `core`
/// observes in a (possibly multi-core) schema: the core's own
/// `core<N>.`-scoped pipeline columns plus every shared (unscoped) uncore
/// column, in schema order. Other cores' private banks are excluded — an
/// attacker-core detector sees `core0.*` + `l2.*`/`tol2bus.*`/…, a
/// victim-core detector sees `core1.*` + the same shared columns.
///
/// On a flat single-core schema every column is unscoped, so the slice is
/// the identity projection — per-core views degrade gracefully to the
/// classic full-width encoder. Feed the result to
/// [`RowEncoder::with_projection`] to build the per-core view.
pub fn core_feature_indices<S: AsRef<str>>(names: &[S], core: usize) -> Vec<usize> {
    names
        .iter()
        .enumerate()
        .filter(
            |(_, n)| match uarch_stats::ComponentRegistry::scope_of(n.as_ref()) {
                Some(scope) => scope == core,
                None => true,
            },
        )
        .map(|(i, _)| i)
        .collect()
}

impl MaxMatrix {
    /// Builds *M* from a collected corpus.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn fit(corpus: &CollectedCorpus) -> Self {
        let width = corpus.schema().len();
        let depth = corpus
            .traces
            .iter()
            .map(|t| t.trace.len())
            .max()
            .expect("non-empty corpus");
        let mut maxima = vec![vec![0.0f64; depth]; width];
        let mut global = vec![0.0f64; width];
        for t in &corpus.traces {
            for (j, row) in t.trace.rows().enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    let v = v.abs();
                    // A non-finite reading (corrupted sensor) must not
                    // poison the reference maxima: an ∞ maximum would
                    // scale every later value of the feature to zero.
                    if !v.is_finite() {
                        continue;
                    }
                    if v > maxima[i][j] {
                        maxima[i][j] = v;
                    }
                    if v > global[i] {
                        global[i] = v;
                    }
                }
            }
        }
        Self { maxima, global }
    }

    /// Number of features (rows of *M*).
    pub fn features(&self) -> usize {
        self.maxima.len()
    }

    /// Number of stored sampling points (columns of *M*).
    pub fn sample_points(&self) -> usize {
        self.maxima.first().map_or(0, Vec::len)
    }

    /// The maximum for feature `i` at sampling point `j` (falling back to
    /// the global maximum beyond the stored horizon or when the stored
    /// maximum is zero, subnormal or otherwise unusable as a divisor).
    pub fn max_at(&self, i: usize, j: usize) -> f64 {
        let m = self.maxima[i].get(j).copied().unwrap_or(0.0);
        if m >= f64::MIN_POSITIVE && m.is_finite() {
            m
        } else {
            self.global[i]
        }
    }

    /// The global maximum of feature `i` across the whole reference
    /// corpus. Zero means the counter never fired in training — a feature
    /// the live pipeline cannot distinguish from a dropped sensor.
    pub fn global_max(&self, i: usize) -> f64 {
        self.global[i]
    }
}

/// Encodes raw per-interval delta rows into model inputs: scaling by the
/// reference maxima, the chosen [`Encoding`], and an optional feature
/// projection, with an allocation-free `encode_into` for streaming use.
///
/// This is the one per-sample normalization/binarization helper shared by
/// every feature view — construct it directly for the full space, or via
/// [`FeatureSelection::encoder`](crate::features::FeatureSelection::encoder)
/// / [`map_features::map_encoder`](crate::map_features::map_encoder) for
/// the projected views.
#[derive(Debug, Clone)]
pub struct RowEncoder {
    max: Arc<MaxMatrix>,
    encoding: Encoding,
    /// Schema indices to keep, in output order; `None` keeps every column.
    projection: Option<Vec<usize>>,
}

impl RowEncoder {
    /// Creates a full-width encoder over the fitted maxima.
    pub fn new(max: Arc<MaxMatrix>, encoding: Encoding) -> Self {
        Self {
            max,
            encoding,
            projection: None,
        }
    }

    /// Restricts the output to the given schema indices (builder style).
    pub fn with_projection(mut self, indices: Vec<usize>) -> Self {
        self.projection = Some(indices);
        self
    }

    /// The fitted reference maxima.
    pub fn max_matrix(&self) -> &MaxMatrix {
        &self.max
    }

    /// Output width: projected count, or the full feature count.
    pub fn width(&self) -> usize {
        self.projection
            .as_ref()
            .map_or(self.max.features(), Vec::len)
    }

    /// Encodes a raw full-width delta row taken at sampling point `j` into
    /// `out` (cleared first). Reusing `out` across calls makes the
    /// per-interval transform allocation-free.
    pub fn encode_into(&self, row: &[f64], j: usize, out: &mut Vec<f64>) {
        out.clear();
        match &self.projection {
            None => out.extend(
                row.iter()
                    .enumerate()
                    .map(|(i, &v)| encode_value(self.max.max_at(i, j), v, self.encoding)),
            ),
            Some(p) => out.extend(
                p.iter()
                    .map(|&i| encode_value(self.max.max_at(i, j), row[i], self.encoding)),
            ),
        }
    }

    /// Allocating convenience wrapper around [`RowEncoder::encode_into`].
    pub fn encode(&self, row: &[f64], j: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width());
        self.encode_into(row, j, &mut out);
        out
    }

    /// Encodes a raw full-width delta row taken at sampling point `j`
    /// directly into a packed [`BitRow`] (reset first; reallocated only if
    /// its width differs): a lane's bit is set exactly when
    /// [`RowEncoder::encode_into`] would produce `1.0` for it. A masked
    /// lane (a non-finite sensor reading, or a non-finite/subnormal
    /// reference maximum with no usable global fallback) encodes as `0.0`
    /// there, so its bit stays clear.
    ///
    /// # Panics
    ///
    /// Panics unless the encoder uses [`Encoding::KSparse`]: packed rows
    /// are a representation of the binarized encoding only.
    pub fn encode_bits_into(&self, row: &[f64], j: usize, out: &mut BitRow) {
        assert_eq!(
            self.encoding,
            Encoding::KSparse,
            "packed rows exist only for the k-sparse binarized encoding"
        );
        if out.width() != self.width() {
            *out = BitRow::zeros(self.width());
        } else {
            out.clear();
        }
        let mut encode_lane = |lane: usize, i: usize, v: f64| {
            if encode_value(self.max.max_at(i, j), v, Encoding::KSparse) == 1.0 {
                out.set(lane, true);
            }
        };
        match &self.projection {
            None => {
                for (i, &v) in row.iter().enumerate() {
                    encode_lane(i, i, v);
                }
            }
            Some(p) => {
                for (lane, &i) in p.iter().enumerate() {
                    encode_lane(lane, i, row[i]);
                }
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`RowEncoder::encode_bits_into`].
    pub fn encode_bits(&self, row: &[f64], j: usize) -> BitRow {
        let mut out = BitRow::zeros(self.width());
        self.encode_bits_into(row, j, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CollectedCorpus, LabeledTrace};
    use uarch_stats::{stat_group, Counter, SampleTrace, Sampler};
    use workloads::{Class, Family};

    stat_group! {
        /// Two-feature toy group.
        pub struct Toy {
            /// a.
            pub a: Counter => "a",
            /// b.
            pub b: Counter => "b",
        }
    }

    fn toy_corpus(rows: Vec<Vec<f64>>) -> CollectedCorpus {
        let g = Toy::default();
        let s = Sampler::new(&g, "t");
        let mut trace = SampleTrace::new(s.schema().clone());
        for (j, r) in rows.into_iter().enumerate() {
            trace.push((j as u64 + 1) * 10_000, &r);
        }
        CollectedCorpus {
            traces: vec![LabeledTrace {
                name: "toy".into(),
                class: Class::Benign,
                family: Family::Benign,
                trace,
                marks: vec![],
            }],
            sample_interval: 10_000,
        }
    }

    #[test]
    fn maxima_are_per_sampling_point() {
        let c = toy_corpus(vec![vec![10.0, 1.0], vec![2.0, 100.0]]);
        let m = MaxMatrix::fit(&c);
        assert_eq!(m.max_at(0, 0), 10.0);
        assert_eq!(m.max_at(0, 1), 2.0);
        assert_eq!(m.max_at(1, 1), 100.0);
    }

    /// A full-width encoder over the maxima fitted to `rows`.
    fn encoder(rows: Vec<Vec<f64>>, encoding: Encoding) -> RowEncoder {
        RowEncoder::new(Arc::new(MaxMatrix::fit(&toy_corpus(rows))), encoding)
    }

    #[test]
    fn normalize_scales_into_unit_interval() {
        let enc = encoder(vec![vec![10.0, 4.0]], Encoding::Normalized);
        assert_eq!(enc.encode(&[5.0, 4.0], 0), vec![0.5, 1.0]);
    }

    #[test]
    fn binarize_thresholds_at_half() {
        let enc = encoder(vec![vec![10.0, 10.0]], Encoding::KSparse);
        assert_eq!(enc.encode(&[6.0, 5.0], 0), vec![1.0, 0.0]);
    }

    #[test]
    fn dead_counters_encode_as_zero() {
        let enc = encoder(vec![vec![0.0, 10.0]], Encoding::Normalized);
        assert_eq!(enc.encode(&[123.0, 5.0], 0), vec![0.0, 0.5]);
    }

    #[test]
    fn beyond_horizon_falls_back_to_global_max() {
        let enc = encoder(vec![vec![10.0, 1.0], vec![20.0, 2.0]], Encoding::Normalized);
        assert_eq!(enc.max_matrix().max_at(0, 99), 20.0);
        assert_eq!(enc.encode(&[10.0, 1.0], 99), vec![0.5, 0.5]);
    }

    #[test]
    fn corrupted_snapshot_values_encode_finite_and_masked() {
        let c = toy_corpus(vec![vec![10.0, 4.0]]);
        let m = Arc::new(MaxMatrix::fit(&c));
        for encoding in [Encoding::Normalized, Encoding::KSparse] {
            let enc = RowEncoder::new(m.clone(), encoding);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let out = enc.encode(&[bad, 4.0], 0);
                assert!(
                    out.iter().all(|v| v.is_finite()),
                    "{encoding:?}: corrupted input leaked non-finite output"
                );
                assert_eq!(out[0], 0.0, "corrupted value must be masked to 0");
                assert_eq!(
                    out[1],
                    enc.encode(&[1.0, 4.0], 0)[1],
                    "healthy column unaffected"
                );
                if encoding == Encoding::KSparse {
                    assert!(
                        !enc.encode_bits(&[bad, 4.0], 0).get(0),
                        "corrupted value must leave its packed lane clear"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_corpus_values_do_not_poison_the_maxima() {
        let c = toy_corpus(vec![
            vec![f64::INFINITY, 4.0],
            vec![10.0, f64::NAN],
            vec![2.0, 8.0],
        ]);
        let m = MaxMatrix::fit(&c);
        assert_eq!(m.max_at(0, 0), m.global_max(0), "∞ skipped, falls back");
        assert_eq!(m.max_at(0, 1), 10.0);
        assert_eq!(m.global_max(0), 10.0);
        assert_eq!(m.max_at(1, 1), m.global_max(1), "NaN skipped, falls back");
        assert_eq!(m.global_max(1), 8.0);
        let enc = RowEncoder::new(Arc::new(m), Encoding::Normalized);
        assert!(enc.encode(&[5.0, 4.0], 0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn subnormal_maxima_fall_back_to_the_global_maximum() {
        let c = toy_corpus(vec![vec![f64::MIN_POSITIVE / 2.0, 1.0], vec![10.0, 2.0]]);
        let m = MaxMatrix::fit(&c);
        // The stored sampling-point maximum is subnormal: dividing by it
        // explodes the scale, so the global maximum must win.
        assert_eq!(m.max_at(0, 0), 10.0);
        let enc = RowEncoder::new(Arc::new(m), Encoding::Normalized);
        assert_eq!(enc.encode(&[5.0, 1.0], 0)[0], 0.5);
    }

    #[test]
    fn core_feature_indices_slice_private_banks_and_keep_shared_columns() {
        let names = [
            "core0.fetch.SquashCycles",
            "core0.numCycles",
            "core1.fetch.SquashCycles",
            "core1.dcache.demand_misses",
            "l2.demand_misses",
            "tol2bus.arbGrants::core1",
        ];
        // Attacker-core view: own bank + shared uncore (including the
        // arbiter's per-core grant columns — contention *about* other
        // cores is shared-bus state, not their private bank).
        assert_eq!(core_feature_indices(&names, 0), vec![0, 1, 4, 5]);
        // Victim-core view.
        assert_eq!(core_feature_indices(&names, 1), vec![2, 3, 4, 5]);
        // A core with no scoped columns still sees the shared uncore.
        assert_eq!(core_feature_indices(&names, 7), vec![4, 5]);
    }

    #[test]
    fn core_feature_indices_on_a_flat_schema_are_the_identity() {
        let names = ["fetch.SquashCycles", "numCycles", "l2.demand_misses"];
        assert_eq!(core_feature_indices(&names, 0), vec![0, 1, 2]);
        assert_eq!(core_feature_indices(&names, 3), vec![0, 1, 2]);
    }

    #[test]
    fn per_core_projected_encoders_read_their_own_slice() {
        let c = toy_corpus(vec![vec![10.0, 4.0]]);
        let m = Arc::new(MaxMatrix::fit(&c));
        // Treat column 0 as core0-private, column 1 as shared: the core0
        // encoder reads both, a core1 encoder only the shared column.
        let names = ["core0.a", "membus.b"];
        let enc0 = RowEncoder::new(m.clone(), Encoding::Normalized)
            .with_projection(core_feature_indices(&names, 0));
        let enc1 = RowEncoder::new(m, Encoding::Normalized)
            .with_projection(core_feature_indices(&names, 1));
        assert_eq!(enc0.width(), 2);
        assert_eq!(enc1.width(), 1);
        assert_eq!(enc0.encode(&[5.0, 4.0], 0), vec![0.5, 1.0]);
        assert_eq!(enc1.encode(&[5.0, 4.0], 0), vec![1.0]);
    }

    #[test]
    fn row_encoder_projection_selects_and_orders_columns() {
        let c = toy_corpus(vec![vec![10.0, 4.0]]);
        let m = Arc::new(MaxMatrix::fit(&c));
        let enc = RowEncoder::new(m, Encoding::Normalized).with_projection(vec![1, 0]);
        assert_eq!(enc.width(), 2);
        assert_eq!(enc.encode(&[5.0, 4.0], 0), vec![1.0, 0.5]);
    }
}
