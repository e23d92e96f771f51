//! Hardware cost model: latency and storage of each candidate detector,
//! backing Table IV's "Hardware Complexity" row.
//!
//! The perceptron's dot product is computed by a modest sequential
//! accumulator (§IV-F): with binary inputs it adds or skips each weight, so
//! inference takes on the order of one cycle per input — trivially fast
//! against a 10K-instruction (~3 µs) sampling interval — and needs no
//! multipliers at all.

/// Latency/area summary for one detector implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareCost {
    /// Cycles for one classification (sequential implementation).
    pub inference_cycles: u64,
    /// Bits of storage for parameters and profiling state.
    pub storage_bits: u64,
    /// Hardware multipliers required.
    pub multipliers: u64,
    /// Qualitative complexity class as printed in Table IV.
    pub complexity: &'static str,
}

/// Bits per stored weight (8-bit quantized weights, as perceptron branch
/// predictors use).
const WEIGHT_BITS: u64 = 8;
/// Bits per stored maximum (matrix *M* entry).
const MAX_BITS: u64 = 16;

impl HardwareCost {
    /// The PerSpectron perceptron: one add per input, no multipliers,
    /// weights plus the per-sampling-point maxima for the selected
    /// features.
    pub fn perceptron(inputs: usize, sample_points: usize) -> Self {
        let n = inputs as u64;
        let s = sample_points.max(1) as u64;
        Self {
            inference_cycles: n + 2, // sequential adds + sign check
            storage_bits: n * WEIGHT_BITS + n * s * MAX_BITS,
            multipliers: 0,
            complexity: "low",
        }
    }

    /// A decision tree: one comparison per level.
    pub fn decision_tree(nodes: usize, depth: usize) -> Self {
        Self {
            inference_cycles: depth as u64 + 1,
            storage_bits: nodes as u64 * (MAX_BITS + 12), // threshold + feature id
            multipliers: 0,
            complexity: "low",
        }
    }

    /// KNN must store the training set and compute a distance per stored
    /// row — the "high overhead and classification latency" of §VII-B.
    pub fn knn(stored_rows: usize, inputs: usize) -> Self {
        let (r, n) = (stored_rows as u64, inputs as u64);
        Self {
            inference_cycles: r * n, // one subtract/accumulate per element
            storage_bits: r * n * MAX_BITS,
            multipliers: 1,
            complexity: "high",
        }
    }

    /// A neural network: `params` multiply-accumulates per inference.
    pub fn neural_network(params: usize) -> Self {
        Self {
            inference_cycles: params as u64 / 4, // 4 parallel MACs
            storage_bits: params as u64 * MAX_BITS,
            multipliers: 4,
            complexity: "high",
        }
    }

    /// Whether one classification fits inside a sampling interval of
    /// `interval_cycles`.
    pub fn fits_interval(&self, interval_cycles: u64) -> bool {
        self.inference_cycles <= interval_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perceptron_inference_is_about_one_cycle_per_input() {
        let c = HardwareCost::perceptron(106, 60);
        assert_eq!(c.inference_cycles, 108);
        assert_eq!(c.multipliers, 0);
        assert_eq!(c.complexity, "low");
    }

    #[test]
    fn perceptron_fits_the_sampling_interval_easily() {
        // 10K instructions at IPC 1 and 2 GHz ≈ 10K cycles (3 µs window).
        let c = HardwareCost::perceptron(106, 60);
        assert!(c.fits_interval(10_000));
    }

    #[test]
    fn knn_is_orders_of_magnitude_heavier() {
        let p = HardwareCost::perceptron(106, 60);
        let k = HardwareCost::knn(5000, 106);
        assert!(k.inference_cycles > 1000 * p.inference_cycles);
        assert_eq!(k.complexity, "high");
        assert!(!k.fits_interval(10_000));
    }

    #[test]
    fn nn_needs_multipliers() {
        let n = HardwareCost::neural_network(106 * 32 + 32 * 2);
        assert!(n.multipliers > 0);
        assert_eq!(n.complexity, "high");
    }
}
