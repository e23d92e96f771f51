//! Bit-identity of the optimized hot loop against the reference machine.
//!
//! The fast path differs from the reference in five mechanisms — the
//! age-ordered ready queue (vs. the full-window scan), parked
//! MSHR-blocked loads credited in bulk (vs. visiting every blocked load
//! each cycle), the completion min-heap (vs. scanning the ROB for due
//! instructions), per-cycle occupancies recorded once per run of equal
//! values (vs. once per cycle) and tick-skipping over fully-stalled
//! cycles with bulk stall crediting — and every one of them is required
//! to be *statistically invisible*: all 1159 counters,
//! distributions and energy accumulators must come out bit-identical. That is the paper's bar: the
//! detector's feature vectors may not depend on how fast the simulator
//! computed them.
//!
//! Both select paths are compiled into one binary and switched with the
//! runtime `CoreConfig::reference_scan` / `CoreConfig::tick_skip` flags,
//! so the comparison needs no feature juggling.

use proptest::prelude::*;
use sim_cpu::{CoreConfig, Machine, RunSummary};
use sim_mem::HierarchyConfig;
use uarch_isa::{AluOp, Assembler, Inst, Program, Reg, Width};
use uarch_stats::{SampleSink, Snapshot};

/// Collects every per-interval delta row.
#[derive(Default)]
struct RowTrace {
    rows: Vec<Vec<f64>>,
}

impl SampleSink for RowTrace {
    fn on_sample(&mut self, _insts: u64, row: &[f64]) {
        self.rows.push(row.to_vec());
    }
}

/// Runs `program` to `insts` under `cfg`, sampling every `interval`
/// committed instructions; returns the per-sample rows, the final full
/// snapshot and the run summary.
fn run_sampled(
    cfg: CoreConfig,
    program: &Program,
    insts: u64,
    interval: u64,
) -> (Vec<Vec<f64>>, Snapshot, RunSummary) {
    run_machine_sampled(cfg, vec![program.clone()], insts, interval)
}

/// [`run_sampled`] on a machine with one core per program.
fn run_machine_sampled(
    cfg: CoreConfig,
    programs: Vec<Program>,
    insts: u64,
    interval: u64,
) -> (Vec<Vec<f64>>, Snapshot, RunSummary) {
    let mut m = Machine::try_new(&cfg, &HierarchyConfig::default(), programs)
        .expect("valid machine configuration");
    let mut trace = RowTrace::default();
    let summary = m
        .run_with_sink(insts, interval, &mut trace)
        .expect("positive interval");
    (trace.rows, Snapshot::of(&m, ""), summary)
}

/// Asserts two snapshots are bit-identical, naming the first divergent
/// statistic (f64 bits, so even sign-of-zero differences are caught).
fn assert_snapshots_identical(a: &Snapshot, b: &Snapshot, what: &str) {
    assert_eq!(a.names(), b.names(), "{what}: schema mismatch");
    for (i, (va, vb)) in a.values().iter().zip(b.values()).enumerate() {
        assert!(
            va.to_bits() == vb.to_bits(),
            "{what}: stat `{}` diverged: {va} vs {vb}",
            a.names()[i]
        );
    }
}

fn assert_rows_identical(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sample count mismatch");
    for (n, (ra, rb)) in a.iter().zip(b).enumerate() {
        for (i, (va, vb)) in ra.iter().zip(rb).enumerate() {
            assert!(
                va.to_bits() == vb.to_bits(),
                "{what}: sample {n}, column {i} diverged: {va} vs {vb}"
            );
        }
    }
}

fn fast() -> CoreConfig {
    CoreConfig {
        reference_scan: false,
        tick_skip: true,
        ..CoreConfig::default()
    }
}

fn reference() -> CoreConfig {
    CoreConfig {
        reference_scan: true,
        tick_skip: false,
        ..CoreConfig::default()
    }
}

fn no_skip() -> CoreConfig {
    CoreConfig {
        reference_scan: false,
        tick_skip: false,
        ..CoreConfig::default()
    }
}

/// A program built to spend most of its cycles fully stalled — the
/// tick-skip's favorite food: a flush-bound dependent pointer chase with a
/// serializing read and a memory barrier thrown in.
fn stall_heavy_program() -> Program {
    let mut a = Assembler::new("stall-heavy");
    a.data(0x1000, vec![0u8; 64]);
    a.li(Reg::R9, 40); // iterations
    let top = a.label();
    a.bind(top);
    a.li(Reg::R1, 0x20_0000);
    a.load(Reg::R2, Reg::R1, 0); // cold / re-flushed miss
    a.flush(Reg::R1, 0);
    a.add(Reg::R3, Reg::R2, Reg::R2); // dependent: waits out the miss
    a.membar(); // quiesce fetch
    a.rdcycle(Reg::R4); // serializing drain
    a.subi(Reg::R9, Reg::R9, 1);
    a.bnez(Reg::R9, top);
    a.halt();
    a.finish().expect("assembles")
}

#[test]
fn tick_skip_credits_exactly_the_stepped_counters() {
    let program = stall_heavy_program();
    let (rows_skip, snap_skip, sum_skip) = run_sampled(fast(), &program, 100_000, 50);
    let (rows_step, snap_step, sum_step) = run_sampled(no_skip(), &program, 100_000, 50);
    assert_eq!(sum_skip.committed, sum_step.committed);
    assert_eq!(sum_skip.cycles, sum_step.cycles);
    assert_eq!(sum_skip.halted, sum_step.halted);
    assert_rows_identical(&rows_skip, &rows_step, "tick-skip vs stepped");
    assert_snapshots_identical(&snap_skip, &snap_step, "tick-skip vs stepped");
    // The run must actually have exercised the skip: a stall-bound chase
    // spends most of its cycles with every stage idle.
    let mut m = Machine::single_core(&fast(), program);
    let s = m.run(100_000);
    assert!(
        s.cycles > 4 * s.committed,
        "the workload must be stall-dominated for this test to mean anything"
    );
}

/// Runs `program` on the fast, the no-skip and the reference machine and
/// asserts all three stream bit-identical rows and end on bit-identical
/// snapshots; returns the fast run's snapshot.
fn assert_fast_matches_no_skip_and_reference(program: &Program, interval: u64) -> Snapshot {
    let (rows_fast, snap_fast, sum_fast) = run_sampled(fast(), program, 100_000, interval);
    for (what, cfg) in [
        ("fast vs no-skip", no_skip()),
        ("fast vs reference", reference()),
    ] {
        let (rows, snap, sum) = run_sampled(cfg, program, 100_000, interval);
        assert_eq!(sum_fast.committed, sum.committed, "{what}");
        assert_eq!(sum_fast.cycles, sum.cycles, "{what}");
        assert_eq!(sum_fast.halted, sum.halted, "{what}");
        assert_rows_identical(&rows_fast, &rows, what);
        assert_snapshots_identical(&snap_fast, &snap, what);
    }
    assert!(sum_fast.halted, "the program must run to completion");
    snap_fast
}

#[test]
fn mshr_blocked_loads_skip_exactly() {
    let snap = assert_fast_matches_no_skip_and_reference(&workloads::probes::mshr_bound(), 40);
    let blocked = snap
        .get("iew.lsq.thread0.blockedLoads")
        .expect("the LSQ publishes blockedLoads");
    assert!(blocked > 0.0, "the bursts must saturate the L1D MSHR pool");
}

/// The select credits parked loads without visiting them: those older
/// than the stores that use up the memory ports, those between the
/// stores and the issue that fills the issue width, those past it, and
/// those a mispredicted branch squashes while they wait must each record
/// exactly what the full scan records.
#[test]
fn parked_loads_match_the_scan_under_port_exhaustion_cutoffs_and_squash() {
    let snap = assert_fast_matches_no_skip_and_reference(&workloads::probes::parked_loads(), 40);
    for stat in [
        "iq.fu_full::MemRead",
        "iew.lsq.thread0.blockedLoads",
        "iew.branchMispredicts",
    ] {
        let value = snap.get(stat).expect("the statistic is published");
        assert!(value > 0.0, "the program must exercise {stat}");
    }
}

#[test]
fn ready_queues_match_reference_scan_on_real_workloads() {
    for (name, program) in [
        ("hmmer", workloads::benign::hmmer().expect("assembles")),
        ("mcf", workloads::benign::mcf().expect("assembles")),
        ("attack", stall_heavy_program()),
    ] {
        let (rows_fast, snap_fast, sum_fast) = run_sampled(fast(), &program, 30_000, 500);
        let (rows_ref, snap_ref, sum_ref) = run_sampled(reference(), &program, 30_000, 500);
        assert_eq!(sum_fast.committed, sum_ref.committed, "{name}");
        assert_eq!(sum_fast.cycles, sum_ref.cycles, "{name}");
        assert_rows_identical(&rows_fast, &rows_ref, name);
        assert_snapshots_identical(&snap_fast, &snap_ref, name);
    }
}

/// The repository benchmark's `collect` shape: every suite workload on a
/// one-core machine and every cross-core scenario on a two-core one, 20K
/// machine-wide instructions sampled every 10K. Tick-skip must match the
/// stepped clock row for row; the attacks' long DRAM-bound skips are
/// where bulk stall crediting could drift.
#[test]
fn collect_shaped_runs_skip_exactly() {
    let jobs = workloads::full_suite()
        .into_iter()
        .map(|w| (w.name, vec![w.program]))
        .chain(
            workloads::cross_core_suite()
                .into_iter()
                .map(|s| (s.name, s.programs)),
        );
    for (name, programs) in jobs {
        let (rows_skip, snap_skip, sum_skip) =
            run_machine_sampled(fast(), programs.clone(), 20_000, 10_000);
        let (rows_step, snap_step, sum_step) =
            run_machine_sampled(no_skip(), programs, 20_000, 10_000);
        assert_eq!(sum_skip.committed, sum_step.committed, "{name}");
        assert_eq!(sum_skip.cycles, sum_step.cycles, "{name}");
        assert_eq!(rows_skip.len(), 2, "{name}: one row per 10K instructions");
        assert_rows_identical(&rows_skip, &rows_step, &name);
        assert_snapshots_identical(&snap_skip, &snap_step, &name);
    }
}

// ---------------------------------------------------------------------
// Random-program equivalence: the same generator family as the
// architectural-correctness proptest, aimed at the stat stream instead.
// ---------------------------------------------------------------------

const DATA_BASE: u64 = 0x1000;
const DATA_LEN: u64 = 256;

#[derive(Debug, Clone)]
enum GenOp {
    Li(u8, i64),
    Alu(u8, u8, u8, u8),
    AluI(u8, u8, u8, i64),
    Load(u8, u8, u8),
    Store(u8, u8, u8),
    Flush(u8),
    RdCycle(u8),
    /// Skip the next instruction when `ra >= rb` (unsigned).
    SkipIf(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    let reg = 0u8..16;
    let alu_op = 0u8..10;
    prop_oneof![
        (reg.clone(), -1000i64..1000).prop_map(|(r, v)| GenOp::Li(r, v)),
        (alu_op.clone(), reg.clone(), reg.clone(), reg.clone())
            .prop_map(|(o, d, a, b)| GenOp::Alu(o, d, a, b)),
        (alu_op, reg.clone(), reg.clone(), -64i64..64)
            .prop_map(|(o, d, a, v)| GenOp::AluI(o, d, a, v)),
        (reg.clone(), reg.clone(), 0u8..3).prop_map(|(d, a, w)| GenOp::Load(d, a, w)),
        (reg.clone(), reg.clone(), 0u8..3).prop_map(|(s, a, w)| GenOp::Store(s, a, w)),
        reg.clone().prop_map(GenOp::Flush),
        reg.clone().prop_map(GenOp::RdCycle),
        (reg.clone(), reg).prop_map(|(a, b)| GenOp::SkipIf(a, b)),
    ]
}

fn alu_of(i: u8) -> AluOp {
    [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Slt,
        AluOp::Sltu,
    ][i as usize]
}

fn width_of(i: u8) -> Width {
    [Width::Byte, Width::Word, Width::Double][i as usize]
}

/// Generated registers live in r8..r23; r1/r2 are address scratch.
fn reg_of(i: u8) -> Reg {
    Reg::from_index(i as usize + 8).expect("r8..r23")
}

/// Emits `R1 = DATA_BASE + ((base & 0xff) % (DATA_LEN - width))` — an
/// always-in-range data address.
fn emit_clamped_addr(a: &mut Assembler, base: Reg, width: Width) {
    a.alui(AluOp::And, Reg::R2, base, 0xff);
    a.alui(
        AluOp::Rem,
        Reg::R1,
        Reg::R2,
        (DATA_LEN - width.bytes()) as i64,
    );
    a.alui(AluOp::Add, Reg::R1, Reg::R1, DATA_BASE as i64);
}

fn build_program(ops: &[GenOp]) -> Program {
    let mut a = Assembler::new("prop-equiv");
    a.data(DATA_BASE, vec![0xa5u8; DATA_LEN as usize]);
    let mut skip: Option<uarch_isa::Label> = None;
    for op in ops {
        if let Some(label) = skip.take() {
            a.bind(label);
        }
        match *op {
            GenOp::Li(r, v) => a.li(reg_of(r), v),
            GenOp::Alu(o, d, x, y) => a.alu(alu_of(o), reg_of(d), reg_of(x), reg_of(y)),
            GenOp::AluI(o, d, x, v) => a.alui(alu_of(o), reg_of(d), reg_of(x), v),
            GenOp::Load(d, base, w) => {
                let width = width_of(w);
                emit_clamped_addr(&mut a, reg_of(base), width);
                a.emit(Inst::Load {
                    rd: reg_of(d),
                    base: Reg::R1,
                    offset: 0,
                    width,
                    fp: false,
                });
            }
            GenOp::Store(s, base, w) => {
                let width = width_of(w);
                emit_clamped_addr(&mut a, reg_of(base), width);
                a.emit(Inst::Store {
                    rs: reg_of(s),
                    base: Reg::R1,
                    offset: 0,
                    width,
                    fp: false,
                });
            }
            GenOp::Flush(base) => {
                emit_clamped_addr(&mut a, reg_of(base), Width::Byte);
                a.flush(Reg::R1, 0);
            }
            GenOp::RdCycle(d) => a.rdcycle(reg_of(d)),
            GenOp::SkipIf(x, y) => {
                let label = a.label();
                a.bgeu(reg_of(x), reg_of(y), label);
                skip = Some(label);
            }
        }
    }
    if let Some(label) = skip {
        a.bind(label);
    }
    a.halt();
    a.finish().expect("assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimized_and_reference_cores_stream_identical_stat_rows(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let program = build_program(&ops);
        let (rows_fast, snap_fast, sum_fast) = run_sampled(fast(), &program, 100_000, 25);
        let (rows_ref, snap_ref, sum_ref) = run_sampled(reference(), &program, 100_000, 25);
        let (rows_ns, snap_ns, sum_ns) = run_sampled(no_skip(), &program, 100_000, 25);

        prop_assert!(sum_fast.halted, "random program must halt");
        prop_assert_eq!(sum_fast.committed, sum_ref.committed);
        prop_assert_eq!(sum_fast.cycles, sum_ref.cycles);
        prop_assert_eq!(sum_fast.cycles, sum_ns.cycles);
        assert_rows_identical(&rows_fast, &rows_ref, "fast vs reference");
        assert_rows_identical(&rows_fast, &rows_ns, "fast vs no-skip");
        assert_snapshots_identical(&snap_fast, &snap_ref, "fast vs reference");
        assert_snapshots_identical(&snap_fast, &snap_ns, "fast vs no-skip");
        let _ = sum_ns;
    }
}
