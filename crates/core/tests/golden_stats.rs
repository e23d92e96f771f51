//! Golden stat snapshot: pins the exact bits every `CorpusSpec::quick()`
//! sample row (and the driving `RunSummary`) produced *before* the pipeline
//! decomposition. Any refactoring of the core must reproduce these hashes —
//! a single flipped mantissa bit anywhere in the 1159-column trace fails
//! this test.
//!
//! The constants were captured from the monolithic pre-decomposition `Core`
//! (commit `ca74781`); `cargo test --release golden -- --nocapture` prints
//! the recomputed values on mismatch.

use perspectron::{CorpusSpec, ScenarioSpec};
use sim_cpu::{CoreConfig, Machine};
use workloads::{CoreScenario, Family};

/// FNV-1a over the full quick-corpus byte stream (schema names, per-trace
/// metadata, instruction counts, raw `f64` row bits, mark events).
const GOLDEN_QUICK_CORPUS_FNV: u64 = 0x283f080699ad2562;

/// `RunSummary` of a 120k-instruction run of `spectre-v1-classic` under the
/// default Table II configuration.
const GOLDEN_SPECTRE_COMMITTED: u64 = 120_000;
const GOLDEN_SPECTRE_CYCLES: u64 = 1_158_003;
const GOLDEN_SPECTRE_HALTED: bool = false;

/// FNV-1a (same layout as [`GOLDEN_QUICK_CORPUS_FNV`]) over
/// `ScenarioSpec::cross_core_quick()`: pins the shared-uncore path that
/// only multi-core machines exercise — bus arbiter grants, snoop
/// back-invalidation and the rotating tick order.
const GOLDEN_CROSS_CORE_QUICK_FNV: u64 = 0xebc7a6d2f832058e;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]); // separator
    }
}

#[test]
fn quick_corpus_rows_match_the_pre_decomposition_golden_hash() {
    let corpus = CorpusSpec::quick().collect();
    let h = corpus_fnv(&corpus);
    assert_eq!(
        h, GOLDEN_QUICK_CORPUS_FNV,
        "quick-corpus stat rows diverged from the pre-decomposition golden \
         snapshot (recomputed hash: {h:#018x})"
    );
}

/// FNV-1a over a collected corpus, byte-identical to the hashing in
/// `quick_corpus_rows_match_the_pre_decomposition_golden_hash`.
fn corpus_fnv(corpus: &perspectron::CollectedCorpus) -> u64 {
    let mut h = Fnv::new();
    let schema = corpus.schema();
    h.u64(schema.len() as u64);
    for name in schema.names() {
        h.str(name);
    }
    for t in &corpus.traces {
        h.str(&t.name);
        h.str(&format!("{:?}/{:?}", t.class, t.family));
        for &insts in t.trace.instruction_counts() {
            h.u64(insts);
        }
        for &v in t.trace.flat_values() {
            h.u64(v.to_bits());
        }
        for m in &t.marks {
            h.str(&format!("{:?}", m.kind));
            h.u64(m.at_inst);
            h.u64(m.at_cycle);
        }
    }
    h.0
}

/// The multi-core refactor's bit-identity gate: collecting the quick
/// corpus as scenarios — every workload wrapped as a one-core scenario,
/// private L1s in front of the machine-owned uncore, the machine run
/// loop and machine stat walk — must reproduce the exact pre-refactor
/// golden hash: same 1159 flat names, same row bits, same marks.
#[test]
fn quick_corpus_through_the_machine_path_matches_the_same_golden_hash() {
    let spec = CorpusSpec::quick();
    let scenarios = ScenarioSpec {
        insts_per_scenario: spec.insts_per_workload,
        sample_interval: spec.sample_interval,
        scenarios: spec
            .workloads
            .iter()
            .map(|w| CoreScenario {
                name: w.name.clone(),
                class: w.class,
                family: w.family,
                programs: vec![w.program.clone()],
            })
            .collect(),
    };
    let corpus = scenarios.collect();
    assert_eq!(
        corpus_fnv(&corpus),
        GOLDEN_QUICK_CORPUS_FNV,
        "one-core Machine collection diverged from the single-core golden \
         snapshot (recomputed hash: {:#018x})",
        corpus_fnv(&corpus)
    );
}

#[test]
fn cross_core_quick_corpus_matches_the_golden_hash() {
    let corpus = ScenarioSpec::cross_core_quick().collect();
    let h = corpus_fnv(&corpus);
    assert_eq!(
        h, GOLDEN_CROSS_CORE_QUICK_FNV,
        "cross-core quick corpus diverged from the golden snapshot \
         (recomputed hash: {h:#018x})"
    );
}

#[test]
fn spectre_run_summary_matches_the_pre_decomposition_golden() {
    let spec = CorpusSpec::quick();
    let w = spec
        .workloads
        .iter()
        .find(|w| w.family == Family::SpectreV1)
        .expect("quick suite includes a Spectre V1 workload");

    let mut machine = Machine::single_core(&CoreConfig::default(), w.program.clone());
    machine
        .core_mut(0)
        .set_noise_seed(perspectron::trace::workload_seed(&w.name));
    let summary = machine.run(120_000);

    assert_eq!(
        (summary.committed, summary.cycles, summary.halted),
        (
            GOLDEN_SPECTRE_COMMITTED,
            GOLDEN_SPECTRE_CYCLES,
            GOLDEN_SPECTRE_HALTED
        ),
        "RunSummary diverged for {} (got {summary:?})",
        w.name
    );
}
