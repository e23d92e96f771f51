//! Golden slice for the root test suite: a small corpus through both
//! collection shapes — two one-core workloads and one two-core scenario —
//! must serialize to exactly the bytes pinned below. A single flipped
//! statistic bit, mark or schema name anywhere in the slice changes the
//! hash; the failure message prints the recomputed hashes.

use perspectron_repro::perspectron::corpus_io::corpus_to_bytes;
use perspectron_repro::perspectron::{CorpusSpec, ScenarioSpec};
use perspectron_repro::workloads;

const INSTS: u64 = 20_000;
const INTERVAL: u64 = 10_000;

/// FNV-1a over `corpus_to_bytes` of the one-core slice
/// (`spectre-v1-classic`, `flush-reload`).
const GOLDEN_ONE_CORE_SLICE_FNV: u64 = 0xe54079c3c1c75d31;
/// FNV-1a over `corpus_to_bytes` of the two-core slice
/// (`xcore-prime-probe-l2`).
const GOLDEN_TWO_CORE_SLICE_FNV: u64 = 0xaee0095ae1e32236;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_slice_serializes_to_the_pinned_bytes() {
    let one_core = CorpusSpec {
        insts_per_workload: INSTS,
        sample_interval: INTERVAL,
        workloads: workloads::full_suite()
            .into_iter()
            .filter(|w| w.name == "spectre-v1-classic" || w.name == "flush-reload")
            .collect(),
    };
    assert_eq!(
        one_core.workloads.len(),
        2,
        "both workloads are in the suite"
    );
    let two_core = ScenarioSpec {
        insts_per_scenario: INSTS,
        sample_interval: INTERVAL,
        scenarios: workloads::cross_core_suite()
            .into_iter()
            .filter(|s| s.name == "xcore-prime-probe-l2")
            .collect(),
    };
    assert_eq!(two_core.scenarios.len(), 1, "the scenario is in the suite");

    let one = one_core.collect();
    let two = two_core.collect();
    for corpus in [&one, &two] {
        assert!(
            corpus.traces.iter().all(|t| t.trace.len() == 2),
            "every run yields two 10K windows"
        );
    }
    let (h1, h2) = (fnv(&corpus_to_bytes(&one)), fnv(&corpus_to_bytes(&two)));
    assert_eq!(
        (h1, h2),
        (GOLDEN_ONE_CORE_SLICE_FNV, GOLDEN_TWO_CORE_SLICE_FNV),
        "golden slice diverged (recomputed: {h1:#018x}, {h2:#018x})"
    );
}
