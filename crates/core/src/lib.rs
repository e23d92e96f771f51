//! PerSpectron: detecting invariant footprints of microarchitectural
//! attacks with perceptron learning.
//!
//! Reproduction of the MICRO 2020 paper. The pipeline is:
//!
//! 1. [`trace`] — run labeled workloads on the out-of-order simulator,
//!    dumping all 1159 microarchitectural statistics every N committed
//!    instructions.
//! 2. [`RowEncoder`] — normalize each statistic by its per-sampling-point
//!    maximum (the paper's matrix *M*, [`MaxMatrix`]) and binarize at 0.5
//!    into k-sparse 0/1 feature vectors.
//! 3. [`features`] — group mutually-correlated features (Pearson |c| ≥
//!    0.98) across the 17 pipeline components and greedily select 106
//!    *replicated invariant features*, one bank per component.
//! 4. [`PerSpectron`] — train the hardware-style perceptron over the
//!    selected features; classify with a confidence output and a 0.25
//!    threshold.
//! 5. [`HardwareCost`] — the hardware cost model (sequential-adder
//!    latency, storage bits) justifying "low hardware complexity" in
//!    Table IV.
//! 6. [`stream`] — the online deployment shape: one per-stream state
//!    machine ([`StreamSession`]) and a [`uarch_stats::SampleSink`]
//!    adapter over it ([`StreamingDetector`]) that scores every sampling
//!    window the moment the simulator closes it. Every verdict, batch or
//!    online, comes from one scorer: rows packed into `u64` bitsets and
//!    summed by a frozen [`mlkit::PackedPerceptron`], bit-identical to the
//!    dense dot product it replaces.
//! 7. [`faults`] — deterministic sensor-fault injection (component
//!    dropout, row drops, value corruption, interval jitter) at the sample
//!    boundary, quantifying the paper's replicated-detector resilience
//!    claim; the streaming path degrades gracefully (sanitized inputs,
//!    per-interval [`stream::Degraded`] status) instead of misfiring.
//!
//! Only the modules callers name by path are public — [`corpus_io`],
//! [`dataset`], [`faults`], [`features`], [`map_features`], [`stream`]
//! and [`trace`]; every other item is re-exported at the crate root.
//!
//! Collection itself is streaming and parallel: one [`Collector`] runs
//! every simulation on a [`sim_cpu::Machine`], fans runs out across
//! threads (deterministic per-run seeds, ordered merge) and pushes
//! schema-resolved, value-only delta rows into columnar traces or any
//! caller sink.
//!
//! # Example
//!
//! ```no_run
//! use perspectron::{CorpusSpec, PerSpectron};
//!
//! // Collect a small corpus and train the detector end to end.
//! let corpus = CorpusSpec::quick().collect();
//! let detector = PerSpectron::train(&corpus, 42);
//! let report = detector.evaluate(&corpus);
//! assert!(report.confusion.accuracy() > 0.9);
//! ```

#![warn(missing_docs)]

pub mod corpus_io;
pub mod dataset;
mod detector;
mod encode;
mod eval;
pub mod faults;
pub mod features;
mod hardware;
pub mod map_features;
mod mmap;
pub mod stream;
pub mod trace;

pub use corpus_io::{write_corpus, CorpusIoError, CorpusReader};
pub use dataset::{Dataset, Sample};
pub use detector::{DetectionReport, PerSpectron};
pub use encode::{core_feature_indices, Encoding, MaxMatrix, RowEncoder};
pub use eval::{paper_folds, FoldSpec};
pub use faults::{FaultLog, FaultPlan, FaultSpec, FaultySink};
pub use features::{bank_of, component_of, FeatureSelection, SelectionConfig};
pub use hardware::HardwareCost;
pub use stream::{
    Degraded, IntervalVerdict, SessionSnapshot, SessionState, StreamSession, StreamingDetector,
};
pub use trace::{
    core_seed, workload_seed, CollectedCorpus, CollectionSpec, Collector, CorpusSpec, LabeledTrace,
    ResiliencePolicy, ResilientCorpus, Run, ScenarioSpec, WorkloadFailure,
};
