//! Machine-level tests: single-core tick-skip bit-identity, per-core stat
//! namespacing, cross-core snoop back-invalidation,
//! shared-bus arbitration, multi-core tick-skip equivalence and the
//! sampled run's boundaries and watchdog.

use sim_cpu::{CoreConfig, Machine, SimError};
use sim_mem::HierarchyConfig;
use uarch_isa::{Assembler, Program, Reg};
use uarch_stats::{SampleSink, Snapshot};
use workloads::spectre::{spectre_v1, SpectreV1Params};

fn machine(programs: Vec<Program>) -> Machine {
    Machine::new(
        &CoreConfig::default(),
        &HierarchyConfig::default(),
        programs,
    )
}

/// A program that halts immediately (an idle core).
fn idle() -> Program {
    let mut a = Assembler::new("idle");
    a.halt();
    a.finish().expect("assembles")
}

/// A dependent pointer-stride walk: every load misses to DRAM and the
/// next address depends on nothing but the counter, so the window drains
/// and the whole core stalls on the fill — prime tick-skip territory.
fn dram_walker(base: u64, iters: u64) -> Program {
    let mut a = Assembler::new("dram-walker");
    a.li(Reg::R1, base as i64);
    a.li(Reg::R3, (base + iters * 64) as i64);
    let top = a.label();
    a.bind(top);
    a.load(Reg::R2, Reg::R1, 0);
    a.flush(Reg::R1, 0); // evict so the next lap misses again
    a.addi(Reg::R1, Reg::R1, 64);
    a.blt(Reg::R1, Reg::R3, top);
    a.halt();
    a.finish().expect("assembles")
}

/// A register-only spin loop of `iters` iterations, optionally touching
/// `touch` first (to plant a line in the private L1s).
fn compute(touch: Option<u64>, iters: u64) -> Program {
    let mut a = Assembler::new("compute");
    if let Some(addr) = touch {
        a.li(Reg::R5, addr as i64);
        a.load(Reg::R6, Reg::R5, 0);
    }
    a.li(Reg::R1, 0);
    a.li(Reg::R3, iters as i64);
    let top = a.label();
    a.bind(top);
    a.addi(Reg::R1, Reg::R1, 1);
    a.blt(Reg::R1, Reg::R3, top);
    a.halt();
    a.finish().expect("assembles")
}

/// The golden gate at the unit level: a default one-core machine — the
/// run loop with its tick-skipping, the machine stat walk — must be
/// *bit-identical* to the same machine stepped one cycle at a time
/// (`tick_skip: false`) on a real attack workload: same commit/cycle/halt
/// trajectory and the same value in every one of the 1159 statistics.
#[test]
fn single_core_machine_is_bit_identical_to_a_stepped_one() {
    let program = spectre_v1(SpectreV1Params::default());
    let stepped_cfg = CoreConfig {
        tick_skip: false,
        ..CoreConfig::default()
    };
    let mut stepped = Machine::single_core(&stepped_cfg, program.clone());
    let mut mach = machine(vec![program]);

    let ss = stepped.run(120_000);
    let ms = mach.run(120_000);
    assert_eq!(ms.committed, ss.committed, "committed-instruction drift");
    assert_eq!(ms.cycles, ss.cycles, "cycle drift");
    assert_eq!(ms.halted, ss.halted);

    let want = Snapshot::of(&stepped, "");
    let got = Snapshot::of(&mach, "");
    assert_eq!(want.len(), 1159, "single-core schema");
    assert_eq!(got.names(), want.names(), "schema drift");
    for ((name, w), g) in want.names().iter().zip(want.values()).zip(got.values()) {
        assert!(
            w == g,
            "stat {name} diverged: stepped {w} vs tick-skipping {g}"
        );
    }
}

#[test]
fn two_core_stats_are_namespaced_and_share_one_uncore() {
    let mach = machine(vec![compute(None, 10), compute(None, 10)]);
    let schema = mach.stat_schema();
    let names = schema.names();

    let has = |n: &str| names.iter().any(|s| s == n);
    assert!(has("core0.fetch.IcacheStallCycles"), "core0 pipeline bank");
    assert!(has("core1.fetch.IcacheStallCycles"), "core1 pipeline bank");
    assert!(
        has("core0.numCycles"),
        "dotless cpu stats scope under core0"
    );
    assert!(has("core0.dcache.demand_hits"), "private L1 per core");
    assert!(has("core1.dcache.demand_hits"), "private L1 per core");
    assert!(
        has("tol2bus.arbGrants::core0") && has("tol2bus.arbGrants::core1"),
        "arbiter accounting on the shared bus"
    );
    assert!(
        has("tol2bus.arbWaitCycles::core0") && has("tol2bus.arbWaitCycles::core1"),
        "arbiter wait accounting on the shared bus"
    );

    // Exactly one shared uncore: L2/bus/DRAM groups are unprefixed and
    // never duplicated per core.
    assert!(names.iter().any(|s| s.starts_with("l2.")), "shared l2");
    assert!(
        !names.iter().any(|s| s.starts_with("core0.l2.")),
        "no per-core l2 bank"
    );
    assert!(
        !names.iter().any(|s| s.starts_with("core0.mem_ctrls.")),
        "no per-core DRAM controller"
    );

    // Every name is either core-scoped or belongs to a shared group.
    for n in names {
        let shared = ["l2.", "tol2bus.", "membus.", "mem_ctrls."]
            .iter()
            .any(|p| n.starts_with(p));
        assert!(
            n.starts_with("core0.") || n.starts_with("core1.") || shared,
            "unscoped non-shared stat {n}"
        );
    }
}

#[test]
fn exclusive_store_back_invalidates_the_other_cores_l1_copy() {
    // Core 1 plants 0x4000 in its private L1D and spins; core 0 delays,
    // then stores to the same line. The exclusive (ReadExReq) request
    // must snoop core 1's copy out.
    let mut a = Assembler::new("late-store");
    a.li(Reg::R1, 0);
    a.li(Reg::R3, 2_000);
    let top = a.label();
    a.bind(top);
    a.addi(Reg::R1, Reg::R1, 1);
    a.blt(Reg::R1, Reg::R3, top);
    a.li(Reg::R5, 0x4000);
    a.store(Reg::R1, Reg::R5, 0);
    a.halt();
    let storer = a.finish().expect("assembles");

    let mut mach = machine(vec![storer, compute(Some(0x4000), 50_000)]);
    mach.run(200_000);
    assert!(mach.all_halted(), "both programs must finish");

    let snoops = mach
        .uncore()
        .tol2bus()
        .stats()
        .snoop_filter
        .tot_snoops
        .value();
    assert!(
        snoops >= 1,
        "exclusive store must deliver a back-invalidation snoop ({snoops})"
    );
    // Core 1 planted the line, never touched it again, and must have had
    // it snooped out by core 0's exclusive request.
    assert!(
        !mach.core(1).mem().cached_in_l1d(0x4000),
        "the sharer's copy must be back-invalidated"
    );
}

#[test]
fn arbiter_accounts_grants_for_every_requesting_core() {
    // Two DRAM walkers over disjoint address ranges: both cores miss
    // their L1s constantly and meet at the shared L1↔L2 crossbar.
    let mut mach = machine(vec![
        dram_walker(0x10_0000, 400),
        dram_walker(0x20_0000, 400),
    ]);
    mach.run(100_000);
    assert!(mach.all_halted());

    let a = mach.uncore().arbiter();
    let (g0, g1, w0, w1) = (a.grants(0), a.grants(1), a.wait_cycles(0), a.wait_cycles(1));
    assert!(
        g0 > 0 && g1 > 0,
        "both cores must win bus grants ({g0}/{g1})"
    );
    // Fairness: symmetric workloads must get within 2x of each other.
    let (lo, hi) = (g0.min(g1), g0.max(g1));
    assert!(
        hi <= lo * 2,
        "rotating tick order must keep arbitration roughly fair ({g0} vs {g1})"
    );
    // Contention on a shared bus is real: someone waited.
    assert!(
        w0 + w1 > 0,
        "concurrent walkers must observe bus contention ({w0}/{w1})"
    );

    // No lost packets: the stat walk's grant counters equal the arbiter's.
    let snap = Snapshot::of(&mach, "");
    let col = |name: &str| {
        let idx = snap
            .names()
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"));
        snap.values()[idx]
    };
    assert_eq!(col("tol2bus.arbGrants::core0"), g0 as f64);
    assert_eq!(col("tol2bus.arbGrants::core1"), g1 as f64);
    assert_eq!(col("tol2bus.arbWaitCycles::core0"), w0 as f64);
    assert_eq!(col("tol2bus.arbWaitCycles::core1"), w1 as f64);
}

/// MSHR invariants under concurrent cross-core miss pressure: occupancy
/// never exceeds the configured entry count mid-run, every outstanding
/// miss drains by the time both cores halt, and the stat walk's MSHR
/// counters stay consistent with the demand-miss counters.
#[test]
fn mshrs_respect_capacity_and_drain_under_concurrent_misses() {
    let cfg = HierarchyConfig::default();
    let mut mach = machine(vec![
        dram_walker(0x10_0000, 400),
        dram_walker(0x20_0000, 400),
    ]);

    // Step in small commit chunks and probe occupancy between chunks: the
    // private L1Ds and the shared L2 each own a bounded MSHR file, and
    // concurrent walkers must never oversubscribe it.
    let mut probes = 0;
    while !mach.all_halted() && probes < 2_000 {
        mach.run(500);
        probes += 1;
        for i in 0..2 {
            let l1d = mach.core(i).mem().l1d().outstanding_misses();
            assert!(
                l1d <= cfg.l1d.mshrs,
                "core{i} L1D holds {l1d} MSHRs, configured cap {}",
                cfg.l1d.mshrs
            );
        }
        let l2 = mach.uncore().l2().outstanding_misses();
        assert!(
            l2 <= cfg.l2.mshrs,
            "shared L2 holds {l2} MSHRs, configured cap {}",
            cfg.l2.mshrs
        );
    }
    assert!(mach.all_halted(), "walkers must finish under MSHR probing");

    // No leaked entries once the machine quiesces.
    for i in 0..2 {
        assert_eq!(
            mach.core(i).mem().l1d().outstanding_misses(),
            0,
            "core{i} L1D must drain its MSHR file at halt"
        );
    }
    assert_eq!(
        mach.uncore().l2().outstanding_misses(),
        0,
        "shared L2 must drain its MSHR file at halt"
    );

    // Stat-walk consistency: an MSHR miss allocates a new entry, so per
    // L1D the allocation count can never exceed the demand misses that
    // needed one, and coalesced hits only exist where misses overlapped.
    let snap = Snapshot::of(&mach, "");
    let col = |name: &str| {
        let idx = snap
            .names()
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"));
        snap.values()[idx]
    };
    for i in 0..2 {
        let mshr_misses = col(&format!("core{i}.dcache.ReadReq_mshr_misses"));
        let demand_misses = col(&format!("core{i}.dcache.ReadReq_misses"));
        assert!(mshr_misses > 0.0, "core{i} walker must allocate read MSHRs");
        assert!(
            mshr_misses <= demand_misses,
            "core{i} allocated {mshr_misses} read MSHRs for only {demand_misses} read misses"
        );
    }
}

/// Multi-core tick skipping must be a pure fast-forward: a machine with
/// the skip enabled and one stepping every cycle must agree on every
/// statistic — including while one core is halted and the other is alone
/// in a DRAM stall (the "only one core is stalled" regression the
/// rotation+veto logic exists for).
#[test]
fn two_core_tick_skip_is_stat_identical_to_stepping() {
    let programs = || vec![dram_walker(0x10_0000, 300), idle()];

    let mut skipping = machine(programs());
    let mut stepping = Machine::new(
        &CoreConfig {
            tick_skip: false,
            ..CoreConfig::default()
        },
        &HierarchyConfig::default(),
        programs(),
    );

    let a = skipping.run(100_000);
    let b = stepping.run(100_000);
    assert_eq!(a.committed, b.committed, "committed drift");
    assert_eq!(a.cycles, b.cycles, "cycle drift");
    assert_eq!(a.halted, b.halted);

    let want = Snapshot::of(&stepping, "");
    let got = Snapshot::of(&skipping, "");
    assert_eq!(got.names(), want.names());
    for ((name, w), g) in want.names().iter().zip(want.values()).zip(got.values()) {
        assert!(w == g, "stat {name} diverged: stepped {w} vs skipped {g}");
    }
}

/// Counts the rows a run emits and keeps their instruction stamps.
#[derive(Default)]
struct Stamps(Vec<u64>);

impl SampleSink for Stamps {
    fn on_sample(&mut self, insts: u64, _row: &[f64]) {
        self.0.push(insts);
    }
}

/// A register-only countdown loop of `iters` iterations: never stalls on
/// memory, halts after roughly `2 * iters` instructions.
fn countdown(iters: i64) -> Program {
    let mut a = Assembler::new("countdown");
    a.li(Reg::R1, iters);
    let top = a.label();
    a.bind(top);
    a.subi(Reg::R1, Reg::R1, 1);
    a.bnez(Reg::R1, top);
    a.halt();
    a.finish().expect("assembles")
}

/// A register-only loop that never halts.
fn spin() -> Program {
    let mut a = Assembler::new("spin");
    let top = a.label();
    a.bind(top);
    a.addi(Reg::R1, Reg::R1, 1);
    a.jmp(top);
    a.finish().expect("assembles")
}

/// Sampling boundaries count from the commit count at call entry: a
/// sampled run after a warm-up covers exactly `insts` more instructions
/// and emits `insts / interval` rows.
#[test]
fn sampled_run_after_a_warm_up_counts_from_call_entry() {
    let width = CoreConfig::default().commit_width as u64;
    let mut m = machine(vec![countdown(1_000_000)]);
    m.run(25_000);
    let warm = m.total_committed();
    assert!(
        (25_000..25_000 + width).contains(&warm),
        "warm-up at {warm}"
    );

    let mut stamps = Stamps::default();
    let summary = m
        .run_with_sink(20_000, 10_000, &mut stamps)
        .expect("positive interval");
    assert_eq!(stamps.0.len(), 2, "two boundaries in 20K instructions");
    let committed = m.total_committed();
    assert_eq!(summary.committed, committed);
    assert!(
        (warm + 20_000..warm + 20_000 + width).contains(&committed),
        "ran to {committed}, expected {} more than {warm}",
        20_000
    );
    assert!(
        (warm + 10_000..warm + 10_000 + width).contains(&stamps.0[0]),
        "first row stamped {}",
        stamps.0[0]
    );
    assert_eq!(stamps.0[1], committed);
}

#[test]
fn zero_sample_interval_is_a_typed_error() {
    let mut m = machine(vec![idle()]);
    assert!(matches!(
        m.run_with_sink(100, 0, &mut Stamps::default()),
        Err(SimError::ZeroSampleInterval)
    ));
}

/// A DRAM with no banks or an empty row would divide by zero on the
/// first DRAM access; construction must reject it as a typed error.
#[test]
fn degenerate_dram_geometry_is_a_typed_error() {
    let dram = HierarchyConfig::default().dram;
    for (banks, row_size) in [(0, dram.row_size), (dram.banks, 0)] {
        let mut hcfg = HierarchyConfig::default();
        hcfg.dram.banks = banks;
        hcfg.dram.row_size = row_size;
        let built = Machine::try_new(&CoreConfig::default(), &hcfg, vec![idle()]);
        assert!(
            matches!(built, Err(SimError::Mem(_))),
            "banks = {banks}, row_size = {row_size} must be rejected"
        );
    }
}

#[test]
fn cycle_budget_watchdog_stops_a_spinning_program() {
    let cfg = CoreConfig {
        cycle_budget: Some(50_000),
        ..CoreConfig::default()
    };
    let mut m = Machine::single_core(&cfg, spin());
    let err = m
        .run_with_sink(100_000_000, 10_000, &mut Stamps::default())
        .unwrap_err();
    match err {
        SimError::CycleBudgetExceeded {
            budget,
            cycles,
            committed,
        } => {
            assert_eq!(budget, 50_000);
            assert!(cycles >= 50_000, "watchdog fired at {cycles}");
            assert!(committed > 0, "the loop was making (futile) progress");
        }
        other => panic!("expected CycleBudgetExceeded, got {other:?}"),
    }
    assert!(!m.all_halted());
}

#[test]
fn cycle_budget_does_not_fire_on_a_completing_run() {
    // Generous budget: the run finishes well inside it.
    let cfg = CoreConfig {
        cycle_budget: Some(100_000_000),
        ..CoreConfig::default()
    };
    let mut m = Machine::single_core(&cfg, countdown(40_000));
    let mut stamps = Stamps::default();
    let summary = m.run_with_sink(5_000, 1_000, &mut stamps).unwrap();
    assert!(summary.committed >= 5_000);
    assert_eq!(stamps.0.len(), 5, "all five intervals sampled");
}
