//! Mitigation tests (§IV-G): predictor noise and index randomization must
//! actually break the attacks they target, at a measurable but bounded
//! benign cost.

use sim_cpu::{CoreConfig, Machine};
use workloads::layout::{RESULTS, SECRET};
use workloads::spectre::{spectre_v1, SpectreV1Params};

fn leaked_bytes(m: &Machine) -> usize {
    SECRET
        .iter()
        .enumerate()
        .filter(|(i, &b)| m.core(0).mem().memory().read(RESULTS + *i as u64, 1) as u8 == b)
        .count()
}

#[test]
fn predictor_noise_breaks_spectre_v1() {
    let mut baseline = Machine::single_core(
        &CoreConfig::default(),
        spectre_v1(SpectreV1Params::default()),
    );
    baseline.run(1_200_000);
    let leaked_clean = leaked_bytes(&baseline);
    assert!(
        leaked_clean >= 10,
        "baseline attack must work ({leaked_clean})"
    );

    let mut noisy = Machine::single_core(
        &CoreConfig::default(),
        spectre_v1(SpectreV1Params::default()),
    );
    noisy.core_mut(0).set_bp_noise(0.5);
    noisy.run(1_200_000);
    let leaked_noisy = leaked_bytes(&noisy);
    // The paper's claim is bandwidth reduction, not a hard stop:
    // "Increasing the frequency of the noise increases the time for an
    // attack to succeed". A flipped prediction on the attack iteration
    // denies that byte's speculation window, so the snapshot of correct
    // bytes drops roughly with the flip rate.
    assert!(
        (leaked_noisy as f64) <= leaked_clean as f64 * 0.75,
        "50% predictor noise must substantially cut the leak ({leaked_noisy} vs {leaked_clean})"
    );
}

#[test]
fn index_randomization_breaks_prime_probe() {
    let mut base = Machine::single_core(
        &CoreConfig::default(),
        workloads::cache_attacks::prime_probe(),
    );
    base.run(2_500_000);
    let hits_base = (0..32u64)
        .filter(|&i| {
            let b = SECRET[(i >> 1) as usize];
            let expected = if i & 1 == 0 { b >> 4 } else { b & 15 };
            base.core(0).mem().memory().read(RESULTS + i, 1) as u8 == expected
        })
        .count();
    assert!(hits_base >= 16, "baseline P+P must work ({hits_base}/32)");

    let mut rand = Machine::single_core(
        &CoreConfig::default(),
        workloads::cache_attacks::prime_probe(),
    );
    rand.randomize_cache_indexing(0, 0x5DEECE66D);
    rand.run(2_500_000);
    let hits_rand = (0..32u64)
        .filter(|&i| {
            let b = SECRET[(i >> 1) as usize];
            let expected = if i & 1 == 0 { b >> 4 } else { b & 15 };
            rand.core(0).mem().memory().read(RESULTS + i, 1) as u8 == expected
        })
        .count();
    assert!(
        hits_rand < hits_base / 2,
        "index randomization must break set targeting ({hits_rand} vs {hits_base})"
    );
}

#[test]
fn noise_costs_bounded_benign_performance() {
    let mut clean = Machine::single_core(
        &CoreConfig::default(),
        workloads::benign::hmmer().expect("hmmer assembles"),
    );
    clean.run(300_000);
    let ipc_clean = clean.total_committed() as f64 / clean.cycles() as f64;

    let mut noisy = Machine::single_core(
        &CoreConfig::default(),
        workloads::benign::hmmer().expect("hmmer assembles"),
    );
    noisy.core_mut(0).set_bp_noise(0.05);
    noisy.run(300_000);
    let ipc_noisy = noisy.total_committed() as f64 / noisy.cycles() as f64;

    assert!(ipc_noisy < ipc_clean, "noise is not free");
    assert!(
        ipc_noisy > ipc_clean * 0.3,
        "but it must not destroy benign performance ({ipc_noisy:.3} vs {ipc_clean:.3})"
    );
}
