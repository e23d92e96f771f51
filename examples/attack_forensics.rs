//! Attack forensics: run SpectreV1 end to end on the simulated machine,
//! watch it actually leak the secret, and inspect the microarchitectural
//! footprint it leaves behind.
//!
//! ```text
//! cargo run --release --example attack_forensics
//! ```

use sim_cpu::{CoreConfig, Machine};
use uarch_isa::MarkKind;
use workloads::layout::{RESULTS, SECRET};
use workloads::spectre::{spectre_v1, SpectreV1Params};

fn main() {
    let program = spectre_v1(SpectreV1Params::default());
    let mut machine = Machine::single_core(&CoreConfig::default(), program);
    println!("running spectre-v1-classic for 400K instructions...");
    let summary = machine.run(400_000);
    let core = machine.core(0);
    println!(
        "  {} instructions in {} cycles (IPC {:.2})\n",
        summary.committed,
        summary.cycles,
        summary.committed as f64 / summary.cycles as f64
    );

    // Did the attack actually work? Read the recovered bytes out of the
    // attacker's results buffer.
    let recovered: Vec<u8> = (0..SECRET.len() as u64)
        .map(|i| core.mem().memory().read(RESULTS + i, 1) as u8)
        .collect();
    println!("secret    : {}", String::from_utf8_lossy(SECRET));
    println!("recovered : {}", String::from_utf8_lossy(&recovered));
    let correct = recovered.iter().zip(SECRET).filter(|(a, b)| a == b).count();
    println!("  {} / {} bytes leaked correctly\n", correct, SECRET.len());

    // Phase timeline from the simulator marks.
    let leaks = core
        .marks()
        .iter()
        .filter(|m| m.kind == MarkKind::LeakByte)
        .count();
    let first_leak = core
        .marks()
        .iter()
        .find(|m| m.kind == MarkKind::LeakByte)
        .map(|m| m.at_inst);
    println!(
        "leak events: {leaks} (first at {} committed instructions)",
        first_leak.map_or("-".into(), |v| v.to_string())
    );

    // The microarchitectural footprint the detector feeds on.
    let s = core.stats();
    println!("\nfootprint (totals over the run):");
    for (name, v) in [
        ("iew.branchMispredicts", s.iew.branch_mispredicts.value()),
        ("commit.SquashedInsts", s.commit.squashed_insts.value()),
        ("lsq.squashedLoads", s.iew.lsq.squashed_loads.value()),
        ("commit.NonSpecStalls", s.commit.non_spec_stalls.value()),
        (
            "rename.serializeStallCycles",
            s.rename.serialize_stall_cycles.value(),
        ),
        ("rename.UndoneMaps", s.rename.undone_maps.value()),
        ("fetch.IcacheSquashes", s.fetch.icache_squashes.value()),
    ] {
        println!("  {name:<30} {v}");
    }
    println!(
        "  {:<30} {}",
        "dcache.flush_invalidations",
        core.mem().l1d().stats().agg.flush_invalidations.value()
    );
    println!(
        "  {:<30} {}",
        "mem_ctrls.bytesReadWrQ",
        machine.uncore().mem_ctrl().stats().bytes_read_wr_q.value()
    );
}
