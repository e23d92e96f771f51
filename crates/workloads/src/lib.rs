//! Attack PoCs and benign kernels for the PerSpectron reproduction.
//!
//! Everything the paper runs on gem5 exists here as a program for the
//! simulated machine: the Spectre family (with twelve polymorphic
//! transformations and bandwidth-reduced variants), Meltdown and its
//! descendants, the three cache attacks with their calibration loops, and a
//! SPEC-CPU-2006-flavored benign suite.
//!
//! # Example
//!
//! ```
//! use workloads::{attack_suite, benign_suite, Class};
//!
//! let attacks = attack_suite();
//! assert!(attacks.iter().all(|w| w.class == Class::Malicious));
//! assert!(benign_suite().len() >= 12);
//! ```

#![warn(missing_docs)]

pub mod benign;
pub mod cache_attacks;
pub mod layout;
pub mod meltdown;
pub mod multicore;
pub mod probes;
pub mod spectre;

use uarch_isa::Program;

pub use cache_attacks::CalibrationKind;
pub use multicore::{cross_core_suite, CoreScenario};
pub use spectre::{SpectreV1Params, V1Variant};

/// Ground-truth label of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A microarchitectural attack (or its calibration phase).
    Malicious,
    /// An ordinary program.
    Benign,
}

/// Attack family, used for the paper's attack-held-out cross-validation
/// folds (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Family {
    SpectreV1,
    SpectreV2,
    SpectreRsb,
    Meltdown,
    BreakingKslr,
    CacheOut,
    FlushFlush,
    FlushReload,
    PrimeProbe,
    Calibration,
    Benign,
}

impl Family {
    /// Human-readable name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Family::SpectreV1 => "spectreV1",
            Family::SpectreV2 => "spectreV2",
            Family::SpectreRsb => "spectreRSB",
            Family::Meltdown => "meltdown",
            Family::BreakingKslr => "breakingKSLR",
            Family::CacheOut => "cacheOut",
            Family::FlushFlush => "flush+flush",
            Family::FlushReload => "flush+reload",
            Family::PrimeProbe => "prime+probe",
            Family::Calibration => "calibration",
            Family::Benign => "benign",
        }
    }
}

/// A labeled program ready to run on the simulator.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Unique workload name.
    pub name: String,
    /// Ground-truth class.
    pub class: Class,
    /// Attack family (or [`Family::Benign`]).
    pub family: Family,
    /// The program itself.
    pub program: Program,
}

impl Workload {
    fn new(class: Class, family: Family, program: Program) -> Self {
        Self {
            name: program.name().to_string(),
            class,
            family,
            program,
        }
    }
}

/// The nine attacks of the paper's training/evaluation set, plus the three
/// calibration programs.
pub fn attack_suite() -> Vec<Workload> {
    use Class::Malicious as M;
    vec![
        Workload::new(
            M,
            Family::SpectreV1,
            spectre::spectre_v1(SpectreV1Params::default()),
        ),
        Workload::new(M, Family::SpectreV2, spectre::spectre_v2()),
        Workload::new(M, Family::SpectreRsb, spectre::spectre_rsb()),
        Workload::new(M, Family::Meltdown, meltdown::meltdown()),
        Workload::new(M, Family::BreakingKslr, meltdown::breaking_kaslr()),
        Workload::new(M, Family::CacheOut, meltdown::cacheout()),
        Workload::new(M, Family::FlushFlush, cache_attacks::flush_flush()),
        Workload::new(M, Family::FlushReload, cache_attacks::flush_reload()),
        Workload::new(M, Family::PrimeProbe, cache_attacks::prime_probe()),
        Workload::new(
            M,
            Family::Calibration,
            cache_attacks::calibration(CalibrationKind::FlushReload),
        ),
        Workload::new(
            M,
            Family::Calibration,
            cache_attacks::calibration(CalibrationKind::FlushFlush),
        ),
        Workload::new(
            M,
            Family::Calibration,
            cache_attacks::calibration(CalibrationKind::PrimeProbe),
        ),
    ]
}

/// The benign SPEC-like suite.
///
/// # Panics
///
/// Panics if a benign kernel fails to assemble (a bug in the builders —
/// see [`try_benign_suite`] for the fallible variant).
pub fn benign_suite() -> Vec<Workload> {
    try_benign_suite().expect("benign suite assembles")
}

/// Fallible variant of [`benign_suite`]: surfaces the first assembly error
/// instead of panicking.
pub fn try_benign_suite() -> Result<Vec<Workload>, uarch_isa::AsmError> {
    Ok(benign::all_benign()?
        .into_iter()
        .map(|p| Workload::new(Class::Benign, Family::Benign, p))
        .collect())
}

/// The twelve polymorphic SpectreV1 variants (none of which appear in the
/// training suite).
pub fn polymorphic_suite() -> Vec<Workload> {
    V1Variant::POLYMORPHIC
        .iter()
        .map(|&variant| {
            Workload::new(
                Class::Malicious,
                Family::SpectreV1,
                spectre::spectre_v1(SpectreV1Params {
                    variant,
                    delay_iters: 0,
                }),
            )
        })
        .collect()
}

/// Bandwidth-reduced SpectreV1 variants. Returns `(bandwidth, workload)`
/// pairs for 1.0x, 0.75x, 0.5x and 0.25x.
pub fn bandwidth_suite() -> Vec<(f64, Workload)> {
    // One attack iteration is roughly 12k instructions; the filler loop is
    // 2 instructions per iteration, split across two injection sites.
    const ITERATION_COST: f64 = 12_000.0;
    [1.0, 0.75, 0.5, 0.25]
        .into_iter()
        .map(|bw| {
            let delay = if bw >= 1.0 {
                0
            } else {
                (ITERATION_COST * (1.0 / bw - 1.0) / 4.0) as i64
            };
            let mut w = Workload::new(
                Class::Malicious,
                Family::SpectreV1,
                spectre::spectre_v1(SpectreV1Params {
                    variant: V1Variant::Classic,
                    delay_iters: delay,
                }),
            );
            w.name = format!("spectre-v1-{bw:.2}x");
            (bw, w)
        })
        .collect()
}

/// The cross-function pair: the interprocedural Spectre v1 gadget (bounds
/// check and secret load in the callee, probe transmit in the caller) and
/// its benign control with the same call/return dependent-load shape.
///
/// Kept out of [`attack_suite`] / [`full_suite`]: those sizes are pinned by
/// the perceptron-corpus tests, and this pair exists to exercise the
/// interprocedural static analyzer, not the trained detector.
pub fn interprocedural_suite() -> Vec<Workload> {
    vec![
        Workload::new(
            Class::Malicious,
            Family::SpectreV1,
            spectre::spectre_v1_crossfn(),
        ),
        Workload::new(Class::Benign, Family::Benign, spectre::crossfn_benign()),
    ]
}

/// The complete labeled corpus: attacks + calibration + benign.
pub fn full_suite() -> Vec<Workload> {
    let mut v = attack_suite();
    v.extend(benign_suite());
    v
}

/// Runs `program` on a one-core machine for up to `insts` instructions.
#[cfg(test)]
pub(crate) fn run_on_machine(program: Program, insts: u64) -> sim_cpu::Machine {
    let mut m = sim_cpu::Machine::single_core(&sim_cpu::CoreConfig::default(), program);
    m.run(insts);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes_and_unique_names() {
        let full = full_suite();
        assert_eq!(attack_suite().len(), 12);
        assert!(benign_suite().len() >= 13);
        assert_eq!(polymorphic_suite().len(), 12);
        assert_eq!(bandwidth_suite().len(), 4);
        let mut names: Vec<_> = full.iter().map(|w| w.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), full.len(), "workload names must be unique");
    }

    #[test]
    fn families_cover_the_paper_table_iii_folds() {
        let fams: std::collections::HashSet<_> = attack_suite().iter().map(|w| w.family).collect();
        for f in [
            Family::SpectreV1,
            Family::SpectreV2,
            Family::SpectreRsb,
            Family::Meltdown,
            Family::BreakingKslr,
            Family::CacheOut,
            Family::FlushFlush,
            Family::FlushReload,
            Family::PrimeProbe,
        ] {
            assert!(fams.contains(&f), "missing family {f:?}");
        }
    }

    #[test]
    fn bandwidth_suite_scales_delay() {
        let suite = bandwidth_suite();
        assert_eq!(suite[0].0, 1.0);
        assert!(suite[3].1.program.len() >= suite[0].1.program.len());
    }
}
