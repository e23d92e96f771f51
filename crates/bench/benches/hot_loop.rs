//! The simulator hot loop, A/B: the optimized core (decoded-instruction
//! cache, one age-ordered ready queue for wakeup/select, MSHR-blocked
//! loads parked and credited in bulk, completion min-heap, occupancies
//! recorded once per run of equal values, one front-end queue that
//! decode advances over, an allocation-free stepped cycle, tick-skip with
//! bulk stall crediting) against the reference machine (full-window
//! scans, per-cycle occupancy records, stepped clock), and each
//! optimization's runtime toggle in isolation: the `no_tick_skip` arm
//! times stepped cycles alone.
//!
//! The two paths are bit-identical in every statistic (see the
//! `reference_equivalence` tests in sim-cpu); this bench measures what the
//! identity buys. The steady-state allocation gate lives in sim-cpu's
//! `steady_state_allocs` test. `PERSPECTRON_QUICK=1` shrinks the
//! instruction budget for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim_cpu::{CoreConfig, Machine};
use uarch_isa::Program;
use workloads::spectre::{spectre_v1, SpectreV1Params};

fn insts() -> u64 {
    if std::env::var("PERSPECTRON_QUICK").is_ok() {
        10_000
    } else {
        50_000
    }
}

fn cfg(reference_scan: bool, tick_skip: bool) -> CoreConfig {
    CoreConfig {
        reference_scan,
        tick_skip,
        ..CoreConfig::default()
    }
}

fn bench_workload(c: &mut Criterion, name: &str, program: &Program) {
    let n = insts();
    let mut group = c.benchmark_group(format!("simulator_hot_loop/{name}"));
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);

    for (label, reference_scan, tick_skip) in [
        ("optimized", false, true),
        ("no_tick_skip", false, false),
        ("reference_scan", true, false),
    ] {
        let program = program.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                let mut m = Machine::single_core(&cfg(reference_scan, tick_skip), program.clone());
                m.run(n)
            })
        });
    }
    group.finish();
}

fn bench_hot_loop(c: &mut Criterion) {
    bench_workload(
        c,
        "hmmer",
        &workloads::benign::hmmer().expect("hmmer assembles"),
    );
    bench_workload(c, "mcf", &workloads::benign::mcf().expect("mcf assembles"));
    bench_workload(c, "spectre_v1", &spectre_v1(SpectreV1Params::default()));
}

criterion_group!(benches, bench_hot_loop);
criterion_main!(benches);
