//! Simulator throughput: committed instructions per second for a benign
//! kernel and for an attack (attacks stress the squash/flush paths).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim_cpu::{CoreConfig, Machine};
use workloads::spectre::{spectre_v1, SpectreV1Params};

const INSTS: u64 = 50_000;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    group.throughput(Throughput::Elements(INSTS));
    group.sample_size(10);

    group.bench_function("benign_hmmer_50k_insts", |b| {
        b.iter(|| {
            let mut m = Machine::single_core(
                &CoreConfig::default(),
                workloads::benign::hmmer().expect("hmmer assembles"),
            );
            m.run(INSTS)
        })
    });
    group.bench_function("spectre_v1_50k_insts", |b| {
        b.iter(|| {
            let mut m = Machine::single_core(
                &CoreConfig::default(),
                spectre_v1(SpectreV1Params::default()),
            );
            m.run(INSTS)
        })
    });
    group.bench_function("stat_snapshot_1159", |b| {
        let mut m = Machine::single_core(
            &CoreConfig::default(),
            workloads::benign::hmmer().expect("hmmer assembles"),
        );
        m.run(10_000);
        b.iter(|| uarch_stats::Snapshot::of(&m, ""))
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
