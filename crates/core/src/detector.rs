//! The PerSpectron detector: a hardware-style perceptron over the selected
//! replicated invariant features.

use std::sync::Arc;

use mlkit::{confusion, BitRow, Classifier, Confusion, PackedPerceptron, PackedRows, Perceptron};
use uarch_stats::Schema;

use crate::dataset::{Dataset, Encoding};
use crate::encode::{MaxMatrix, RowEncoder};
use crate::features::{component_of, FeatureSelection, SelectionConfig};
use crate::hardware::HardwareCost;
use crate::stream::StreamingDetector;
use crate::trace::{CollectedCorpus, LabeledTrace};

/// Evaluation summary of a detector over a corpus.
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// Confusion counts at the configured threshold.
    pub confusion: Confusion,
    /// Workload names that produced false positives.
    pub false_positive_workloads: Vec<String>,
    /// Workload names that produced false negatives.
    pub false_negative_workloads: Vec<String>,
}

/// The trained detector.
#[derive(Debug, Clone)]
pub struct PerSpectron {
    selection: FeatureSelection,
    perceptron: Perceptron,
    /// Decision threshold on the normalized output. The natural operating
    /// point of the trained perceptron is 0 (its sign); the ROC experiment
    /// (Figure 5) sweeps this to find the best trade-off, as the paper does
    /// when it reports 0.25 on its own output scale.
    pub threshold: f64,
    weight_norm: f64,
    dataset_blueprint: DatasetBlueprint,
    /// The perceptron frozen for bit-packed inference, built on first use
    /// (the weights never change after training, so one freeze serves
    /// every packed scoring call).
    frozen: std::sync::OnceLock<PackedPerceptron>,
}

/// What the detector needs to encode unseen traces the same way the
/// training corpus was encoded. The max matrix is shared (`Arc`) so
/// streaming detectors deployed per-process don't copy it; the schema
/// (already `Arc`-backed) lets degradation checks map columns back to
/// pipeline components.
#[derive(Debug, Clone)]
struct DatasetBlueprint {
    max_matrix: Arc<MaxMatrix>,
    schema: Schema,
    /// Components that never read all-zero in training, with their schema
    /// columns — the live path's dropout watchlist (shared by every
    /// streaming clone).
    always_active: Arc<Vec<(String, Vec<usize>)>>,
}

impl PerSpectron {
    /// Trains a detector end to end on a collected corpus: k-sparse
    /// encoding, feature selection, perceptron training.
    pub fn train(corpus: &CollectedCorpus, _seed: u64) -> Self {
        let dataset = Dataset::from_corpus(corpus, Encoding::KSparse);
        let selection = FeatureSelection::select(&dataset, &SelectionConfig::default());
        Self::train_with_selection(&dataset, selection)
    }

    /// Trains the perceptron over an existing dataset and feature
    /// selection (used by the evaluation harness to share expensive
    /// selection runs).
    pub fn train_with_selection(dataset: &Dataset, selection: FeatureSelection) -> Self {
        let (x, y) = dataset.project(&selection.selected);
        let mut perceptron = Perceptron::new(selection.selected.len());
        // The corpus is imbalanced across attack families: the default 4%
        // early-stop would let the perceptron ignore a small family's
        // cluster entirely (e.g. the eviction-pattern samples). Train to
        // (near) zero error — the paper trains 1000 epochs.
        perceptron.target_error = 0.002;
        perceptron.margin = 2.0;
        perceptron.positive_weight = 3.0;
        perceptron.fit(&x, &y);
        let weight_norm: f64 =
            perceptron.weights().iter().map(|w| w.abs()).sum::<f64>() + perceptron.bias().abs();
        Self {
            selection,
            perceptron,
            threshold: 0.0,
            weight_norm: weight_norm.max(1e-12),
            dataset_blueprint: DatasetBlueprint {
                max_matrix: Arc::new(dataset.max_matrix.clone()),
                schema: dataset.schema.clone(),
                always_active: Arc::new(
                    dataset
                        .always_active_components
                        .iter()
                        .map(|label| {
                            let cols = dataset
                                .schema
                                .names()
                                .iter()
                                .enumerate()
                                .filter(|(_, n)| component_of(n) == label)
                                .map(|(i, _)| i)
                                .collect();
                            (label.clone(), cols)
                        })
                        .collect(),
                ),
            },
            frozen: std::sync::OnceLock::new(),
        }
    }

    /// The selected features.
    pub fn selection(&self) -> &FeatureSelection {
        &self.selection
    }

    /// The trained perceptron (weights are the interpretability story of
    /// §VII-C).
    pub fn perceptron(&self) -> &Perceptron {
        &self.perceptron
    }

    /// Normalizes a raw perceptron score to the `[-1, 1]` confidence scale
    /// — the one place every caller (batch, streaming sink, service
    /// session) divides by the weight norm and clamps non-finite outputs,
    /// so their verdicts cannot drift apart.
    pub(crate) fn normalize_score(&self, raw: f64) -> f64 {
        let score = raw / self.weight_norm;
        if score.is_finite() {
            score
        } else {
            0.0
        }
    }

    /// The reference maxima the detector encodes unseen samples with.
    pub fn max_matrix(&self) -> &Arc<MaxMatrix> {
        &self.dataset_blueprint.max_matrix
    }

    /// The statistic schema the detector was trained against (column
    /// names of the full input row).
    pub fn schema(&self) -> &Schema {
        &self.dataset_blueprint.schema
    }

    /// Components that never read all-zero during training, each with its
    /// schema columns — the sensors whose silence at deployment time
    /// means dropout, not idleness.
    pub(crate) fn always_active_components(&self) -> Arc<Vec<(String, Vec<usize>)>> {
        Arc::clone(&self.dataset_blueprint.always_active)
    }

    /// A per-sample k-sparse encoder over the full statistic space, backed
    /// by the training-time maxima.
    pub fn input_encoder(&self) -> RowEncoder {
        RowEncoder::new(self.dataset_blueprint.max_matrix.clone(), Encoding::KSparse)
    }

    /// A packed-row encoder projected straight down to the selected
    /// features: raw rows come in, [`BitRow`]s as wide as the perceptron
    /// come out, with masked lanes left clear.
    pub fn packed_encoder(&self) -> RowEncoder {
        self.input_encoder()
            .with_projection(self.selection.selected.clone())
    }

    /// The trained perceptron frozen into its bit-packed inference form
    /// (the exact sparse scorer plus its 8-bit quantization) — the one
    /// engine every verdict is scored with. Built once, lazily; subsequent
    /// calls return the cached freeze.
    pub fn packed_perceptron(&self) -> &PackedPerceptron {
        self.frozen
            .get_or_init(|| PackedPerceptron::from_perceptron(&self.perceptron))
    }

    /// An online, per-interval detector sharing this detector's weights
    /// and encoding — plug it into a [`uarch_stats::SampleSink`] producer
    /// (e.g. [`Collector::stream`](crate::trace::Collector::stream)) to
    /// score every sampling window the moment it closes. Its verdicts are
    /// bit-identical to [`PerSpectron::confidence_series`] over the same
    /// rows.
    pub fn streaming_packed(&self) -> StreamingDetector {
        StreamingDetector::new(self)
    }

    /// Per-sample confidences over an unseen trace (encoded with the
    /// training-time max matrix). This is the y-axis of Figures 3 and 4.
    pub fn confidence_series(&self, trace: &LabeledTrace) -> Vec<f64> {
        let encoder = self.packed_encoder();
        let mut row = BitRow::zeros(encoder.width());
        let mut batch = PackedRows::new(encoder.width());
        for (j, raw) in trace.trace.rows().enumerate() {
            encoder.encode_bits_into(raw, j, &mut row);
            batch.push(&row).expect("encoder and batch widths agree");
        }
        self.confidences(&batch)
    }

    /// Normalized confidences for rows already packed onto the selected
    /// features (e.g. [`Dataset::packed_rows`] over
    /// `self.selection().selected`): one [`PackedPerceptron::score_rows`]
    /// sweep, then each raw sum divided by |w|₁ + |b| onto the `[-1, 1]`
    /// confidence scale (non-finite results read 0).
    ///
    /// # Panics
    ///
    /// Panics if the rows are not as wide as the selected feature set.
    pub fn confidences(&self, rows: &PackedRows) -> Vec<f64> {
        let mut scores = Vec::with_capacity(rows.len());
        self.packed_perceptron().score_rows(rows, &mut scores);
        for s in &mut scores {
            *s = self.normalize_score(*s);
        }
        scores
    }

    /// Evaluates on a corpus at the configured threshold.
    pub fn evaluate(&self, corpus: &CollectedCorpus) -> DetectionReport {
        let mut predicted = Vec::new();
        let mut truth = Vec::new();
        let mut fp = std::collections::BTreeSet::new();
        let mut fneg = std::collections::BTreeSet::new();
        for t in &corpus.traces {
            let label = if t.class == workloads::Class::Malicious {
                1i8
            } else {
                -1
            };
            for c in self.confidence_series(t) {
                let p = if c >= self.threshold { 1i8 } else { -1 };
                predicted.push(p);
                truth.push(label);
                if p > 0 && label < 0 {
                    fp.insert(t.name.clone());
                }
                if p < 0 && label > 0 {
                    fneg.insert(t.name.clone());
                }
            }
        }
        DetectionReport {
            confusion: confusion(&predicted, &truth),
            false_positive_workloads: fp.into_iter().collect(),
            false_negative_workloads: fneg.into_iter().collect(),
        }
    }

    /// The hardware cost of this detector (Table IV's "low" complexity).
    pub fn hardware_cost(&self) -> HardwareCost {
        HardwareCost::perceptron(
            self.selection.selected.len(),
            self.dataset_blueprint.max_matrix.sample_points(),
        )
    }

    /// Quantizes the learned weights to signed 8-bit integers — the
    /// representation the hardware tables would hold (perceptron branch
    /// predictors use 8-bit weights; §IV-G1's vendor patches ship these).
    /// Returns `(weights, bias, scale)` with `float ≈ int × scale`.
    pub fn quantized_weights(&self) -> (Vec<i8>, i8, f64) {
        let engine = self.packed_perceptron();
        let (q, b, scale) = engine.quantized();
        (q.to_vec(), b, scale)
    }

    /// Weights grouped by pipeline component, each sorted by magnitude —
    /// the §VII-C interpretability view.
    pub fn explain(&self) -> Vec<(String, Vec<(String, f64)>)> {
        let mut by_comp: std::collections::BTreeMap<String, Vec<(String, f64)>> =
            std::collections::BTreeMap::new();
        for (name, &w) in self.selection.names.iter().zip(self.perceptron.weights()) {
            by_comp
                .entry(component_of(name).to_string())
                .or_default()
                .push((name.clone(), w));
        }
        for list in by_comp.values_mut() {
            list.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("no NaN"));
        }
        by_comp.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CorpusSpec;

    fn mini_corpus() -> &'static CollectedCorpus {
        static CORPUS: std::sync::OnceLock<CollectedCorpus> = std::sync::OnceLock::new();
        CORPUS.get_or_init(build_mini_corpus)
    }

    fn trained() -> &'static PerSpectron {
        static DET: std::sync::OnceLock<PerSpectron> = std::sync::OnceLock::new();
        DET.get_or_init(|| PerSpectron::train(mini_corpus(), 1))
    }

    fn build_mini_corpus() -> CollectedCorpus {
        let mut all = workloads::full_suite();
        all.retain(|w| {
            [
                "spectre-v1-classic",
                "meltdown",
                "flush-flush",
                "prime-probe",
                "bzip2",
                "povray",
                "sjeng",
                "mcf",
            ]
            .contains(&w.name.as_str())
        });
        CorpusSpec {
            insts_per_workload: 150_000,
            sample_interval: 10_000,
            workloads: all,
        }
        .collect()
    }

    #[test]
    fn trains_and_separates_a_mini_corpus() {
        let corpus = mini_corpus();
        let det = trained();
        let report = det.evaluate(corpus);
        assert!(
            report.confusion.accuracy() > 0.9,
            "training-set accuracy should be high, got {}",
            report.confusion.accuracy()
        );
        assert!(report.confusion.recall() > 0.8);
    }

    #[test]
    fn confidence_is_bounded_and_higher_for_attacks() {
        let corpus = mini_corpus();
        let det = trained();
        let mut attack_mean = 0.0;
        let mut benign_mean = 0.0;
        let (mut na, mut nb) = (0, 0);
        for t in &corpus.traces {
            for c in det.confidence_series(t) {
                assert!((-1.0..=1.0).contains(&c), "confidence {c} out of range");
                if t.class == workloads::Class::Malicious {
                    attack_mean += c;
                    na += 1;
                } else {
                    benign_mean += c;
                    nb += 1;
                }
            }
        }
        attack_mean /= na as f64;
        benign_mean /= nb as f64;
        assert!(attack_mean > benign_mean);
    }

    #[test]
    fn quantized_inference_matches_float_inference() {
        let corpus = mini_corpus();
        let det = trained();
        let (q, qbias, scale) = det.quantized_weights();
        assert!(q.iter().any(|&w| w != 0), "weights survive quantization");
        assert!(scale > 0.0);
        let mut agree = 0usize;
        let mut total = 0usize;
        let ds = crate::dataset::Dataset::from_corpus(corpus, Encoding::KSparse);
        let selected = &det.selection().selected;
        let float = det.confidences(&ds.packed_rows(selected));
        for (s, c) in ds.samples.iter().zip(float) {
            // The silicon's sequential adder: add the 8-bit weight of every
            // set input bit to the bias, then take the sign.
            let mut acc = i32::from(qbias);
            for (&i, &w) in selected.iter().zip(&q) {
                if s.x[i] > 0.5 {
                    acc += i32::from(w);
                }
            }
            total += 1;
            if (c >= det.threshold) == (acc >= 0) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.97,
            "8-bit weights must preserve decisions: {agree}/{total}"
        );
    }

    #[test]
    fn explanation_spans_components_with_signed_weights() {
        let det = trained();
        let explained = det.explain();
        assert!(explained.len() >= 5, "weights should span components");
        let any_positive = explained
            .iter()
            .flat_map(|(_, ws)| ws)
            .any(|&(_, w)| w > 0.0);
        assert!(any_positive, "suspicious features carry positive weights");
    }
}
