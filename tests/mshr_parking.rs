//! Parked MSHR-blocked loads in the root test suite: the fast machine
//! credits loads waiting at a saturated L1D MSHR pool without visiting
//! them, and must end on exactly the statistics of the reference machine,
//! which visits every blocked load every cycle. Two probes: bursts of
//! cold loads behind a serializing read, and loads parked older than,
//! between and past the issues that use up the memory ports and the issue
//! width, some of them squashed by a mispredicted branch.

use perspectron_repro::sim_cpu::{CoreConfig, Machine};
use perspectron_repro::uarch_isa::Program;
use perspectron_repro::uarch_stats::Snapshot;
use perspectron_repro::workloads::probes;

fn run(program: &Program, reference_scan: bool) -> Snapshot {
    let cfg = CoreConfig {
        reference_scan,
        tick_skip: !reference_scan,
        ..CoreConfig::default()
    };
    let mut m = Machine::single_core(&cfg, program.clone());
    let summary = m.run(100_000);
    assert!(
        summary.halted,
        "{}: the probe runs to completion",
        program.name()
    );
    Snapshot::of(&m, "")
}

#[test]
fn parked_loads_leave_the_reference_statistics_bit_for_bit() {
    for program in [probes::mshr_bound(), probes::parked_loads()] {
        let (fast, reference) = (run(&program, false), run(&program, true));
        assert_eq!(fast.names(), reference.names());
        for (name, (a, b)) in fast
            .names()
            .iter()
            .zip(fast.values().iter().zip(reference.values()))
        {
            assert!(
                a.to_bits() == b.to_bits(),
                "{}: `{name}` diverged: {a} fast vs {b} reference",
                program.name()
            );
        }
        let blocked = fast
            .get("iew.lsq.thread0.blockedLoads")
            .expect("the LSQ publishes blockedLoads");
        assert!(
            blocked > 0.0,
            "{}: loads must wait on MSHRs",
            program.name()
        );
    }
}
