//! §IV-G mitigation demo: what happens after the detector raises the
//! alarm. Branch-predictor noise injection breaks the Spectre family;
//! CEASER-style index randomization breaks Prime+Probe; both cost some
//! performance — which is why the paper gates them behind detection
//! instead of leaving them always-on.

use sim_cpu::{Core, CoreConfig, Machine};
use workloads::layout::{RESULTS, SECRET};
use workloads::spectre::{spectre_v1, SpectreV1Params};

fn leaked_bytes(core: &Core) -> usize {
    SECRET
        .iter()
        .enumerate()
        .filter(|(i, &b)| core.mem().memory().read(RESULTS + *i as u64, 1) as u8 == b)
        .count()
}

fn recovered_nibbles(core: &Core) -> usize {
    (0..32u64)
        .filter(|&i| {
            let b = SECRET[(i >> 1) as usize];
            let expected = if i & 1 == 0 { b >> 4 } else { b & 15 };
            core.mem().memory().read(RESULTS + i, 1) as u8 == expected
        })
        .count()
}

fn main() {
    const INSTS: u64 = 1_500_000;

    println!("MITIGATION DEMO (§IV-G): countermeasures triggered on detection\n");

    // --- SpectreV1 vs branch-predictor noise ---
    let mut baseline = Machine::single_core(
        &CoreConfig::default(),
        spectre_v1(SpectreV1Params::default()),
    );
    baseline.run(INSTS);
    let mut noisy = Machine::single_core(
        &CoreConfig::default(),
        spectre_v1(SpectreV1Params::default()),
    );
    noisy.core_mut(0).set_bp_noise(0.3);
    noisy.run(INSTS);
    println!("SpectreV1, {INSTS} instructions:");
    println!(
        "  no mitigation        : {:>2}/16 secret bytes leaked",
        leaked_bytes(baseline.core(0))
    );
    println!(
        "  30% predictor noise  : {:>2}/16 secret bytes leaked",
        leaked_bytes(noisy.core(0))
    );

    // --- Prime+Probe vs index randomization ---
    let mut pp_base = Machine::single_core(
        &CoreConfig::default(),
        workloads::cache_attacks::prime_probe(),
    );
    pp_base.run(3_000_000);
    let mut pp_rand = Machine::single_core(
        &CoreConfig::default(),
        workloads::cache_attacks::prime_probe(),
    );
    pp_rand.randomize_cache_indexing(0, 0x5DEECE66D);
    pp_rand.run(3_000_000);
    println!("\nPrime+Probe, 3M instructions:");
    println!(
        "  no mitigation        : {:>2}/32 victim nibbles recovered",
        recovered_nibbles(pp_base.core(0))
    );
    println!(
        "  index randomization  : {:>2}/32 victim nibbles recovered",
        recovered_nibbles(pp_rand.core(0))
    );

    // --- Performance cost on benign work (why it's gated on detection) ---
    // hmmer has well-predicted branches, so the injected noise is visible
    // (sjeng's random branches already mispredict constantly).
    let mut bench = Machine::single_core(
        &CoreConfig::default(),
        workloads::benign::hmmer().expect("hmmer assembles"),
    );
    bench.run(500_000);
    let ipc_clean = bench.total_committed() as f64 / bench.cycles() as f64;
    let mut bench_noisy = Machine::single_core(
        &CoreConfig::default(),
        workloads::benign::hmmer().expect("hmmer assembles"),
    );
    bench_noisy.core_mut(0).set_bp_noise(0.05);
    bench_noisy.run(500_000);
    let ipc_noisy = bench_noisy.total_committed() as f64 / bench_noisy.cycles() as f64;
    println!("\nbenign cost (hmmer): IPC {ipc_clean:.3} → {ipc_noisy:.3} under 5% noise");
    println!(
        "  ({:.1}% slowdown — the reason mitigations are gated behind detection)",
        (1.0 - ipc_noisy / ipc_clean) * 100.0
    );
}
