//! End-to-end attack verification: every PoC in the suite actually works
//! against the simulated machine — the secrets really leak through the
//! microarchitecture, which is what makes the detector's job meaningful.

use perspectron_repro::sim_cpu::{CoreConfig, Machine};
use perspectron_repro::uarch_isa::Program;
use workloads::layout::{RESULTS, SECRET};
use workloads::meltdown::{breaking_kaslr, KASLR_MAPPED_SLOT};

/// Runs `program` on a one-core machine.
fn run_program(program: Program, insts: u64) -> Machine {
    let mut m = Machine::single_core(&CoreConfig::default(), program);
    m.run(insts);
    m
}

fn run(name: &str, insts: u64) -> Machine {
    let w = workloads::full_suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} exists"));
    run_program(w.program, insts)
}

fn leaked_bytes(m: &Machine) -> usize {
    SECRET
        .iter()
        .enumerate()
        .filter(|(i, &b)| m.core(0).mem().memory().read(RESULTS + *i as u64, 1) as u8 == b)
        .count()
}

#[test]
fn spectre_v1_exfiltrates_the_secret() {
    let m = run("spectre-v1-classic", 2_500_000);
    assert!(leaked_bytes(&m) >= 12, "got {}", leaked_bytes(&m));
}

#[test]
fn spectre_v2_exfiltrates_the_secret() {
    let m = run("spectre-v2", 2_500_000);
    assert!(leaked_bytes(&m) >= 10, "got {}", leaked_bytes(&m));
}

#[test]
fn spectre_rsb_exfiltrates_the_secret() {
    let m = run("spectre-rsb", 2_500_000);
    assert!(leaked_bytes(&m) >= 10, "got {}", leaked_bytes(&m));
}

#[test]
fn meltdown_reads_kernel_memory() {
    let m = run("meltdown", 2_500_000);
    assert!(leaked_bytes(&m) >= 10, "got {}", leaked_bytes(&m));
    assert!(
        m.core(0).stats().commit.faults.value() > 10,
        "meltdown faults repeatedly"
    );
}

#[test]
fn breaking_kaslr_locates_the_mapped_region() {
    let m = run_program(breaking_kaslr(), 2_500_000);
    assert_eq!(
        m.core(0).mem().memory().read(RESULTS + 32, 1),
        KASLR_MAPPED_SLOT
    );
}

#[test]
fn cache_attacks_recover_victim_nibbles() {
    for (name, min_correct) in [
        ("flush-reload", 20),
        ("flush-flush", 16),
        ("prime-probe", 16),
    ] {
        let m = run(name, 3_000_000);
        let correct = (0..32u64)
            .filter(|&i| {
                let b = SECRET[(i >> 1) as usize];
                let expected = if i & 1 == 0 { b >> 4 } else { b & 15 };
                m.core(0).mem().memory().read(RESULTS + i, 1) as u8 == expected
            })
            .count();
        assert!(
            correct >= min_correct,
            "{name}: only {correct}/32 nibbles recovered"
        );
    }
}

#[test]
fn attacks_leave_their_signature_footprints() {
    // SpectreV1: misspeculation.
    let v1 = run("spectre-v1-classic", 300_000);
    assert!(v1.core(0).stats().iew.branch_mispredicts.value() > 20);
    // Flush+Flush: non-speculative stalls, near-zero attacker D-cache misses
    // during probing (it never reloads).
    let ff = run("flush-flush", 300_000);
    assert!(ff.core(0).stats().commit.non_spec_stalls.value() > 100);
    // Flush+Reload: quiesce footprint from the membar-timed reloads.
    let fr = run("flush-reload", 300_000);
    assert!(
        fr.core(0)
            .stats()
            .fetch
            .pending_quiesce_stall_cycles
            .value()
            > 100
    );
    // Prime+Probe: clean-eviction storms on the L2 bus.
    let pp = run("prime-probe", 300_000);
    assert!(
        pp.uncore()
            .tol2bus()
            .stats()
            .trans_dist
            .get(perspectron_repro::sim_mem::MemCmd::CleanEvict)
            > 50
    );
    // CacheOut analog: write-queue read servicing.
    let co = run("cacheout", 300_000);
    assert!(co.uncore().mem_ctrl().stats().bytes_read_wr_q.value() > 0);
}
