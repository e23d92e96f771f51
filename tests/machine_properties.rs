//! Property-based verification of the out-of-order machine: random
//! programs must produce exactly the architectural state a simple
//! sequential interpreter computes — out-of-order issue, speculation,
//! store-to-load forwarding and squashing are not allowed to change
//! semantics.

use proptest::prelude::*;

use perspectron_repro::sim_cpu::{CoreConfig, Machine};
use perspectron_repro::uarch_isa::{AluOp, Assembler, Inst, Program, Reg, Width};

const DATA_BASE: u64 = 0x1000;
const DATA_LEN: u64 = 256;

/// A tiny sequential reference interpreter for the ISA fragment the
/// generator emits (ALU ops, clamped loads/stores, forward branches).
fn reference_run(program: &Program) -> ([u64; 32], Vec<u8>) {
    let mut regs = [0u64; 32];
    let mut mem = vec![0u8; DATA_LEN as usize];
    for seg in program.segments() {
        let off = (seg.base - DATA_BASE) as usize;
        mem[off..off + seg.data.len()].copy_from_slice(&seg.data);
    }
    let mut pc = 0usize;
    let mut steps = 0;
    while let Some(inst) = program.fetch(pc) {
        steps += 1;
        assert!(steps < 100_000, "reference interpreter runaway");
        pc = match inst {
            Inst::Li { rd, imm } => {
                regs[rd.index()] = imm as u64;
                pc + 1
            }
            Inst::Alu { op, rd, ra, rb } => {
                regs[rd.index()] = ref_alu(op, regs[ra.index()], regs[rb.index()]);
                pc + 1
            }
            Inst::AluI { op, rd, ra, imm } => {
                regs[rd.index()] = ref_alu(op, regs[ra.index()], imm as u64);
                pc + 1
            }
            Inst::Load {
                rd,
                base,
                offset,
                width,
                ..
            } => {
                let addr = regs[base.index()].wrapping_add(offset as u64);
                assert!(
                    addr >= DATA_BASE && addr + width.bytes() <= DATA_BASE + DATA_LEN,
                    "generated load out of range: {addr:#x}"
                );
                let mut v = 0u64;
                for i in 0..width.bytes() {
                    v |= (mem[(addr - DATA_BASE + i) as usize] as u64) << (8 * i);
                }
                regs[rd.index()] = v;
                pc + 1
            }
            Inst::Store {
                rs,
                base,
                offset,
                width,
                ..
            } => {
                let addr = regs[base.index()].wrapping_add(offset as u64);
                assert!(
                    addr >= DATA_BASE && addr + width.bytes() <= DATA_BASE + DATA_LEN,
                    "generated store out of range: {addr:#x}"
                );
                for i in 0..width.bytes() {
                    mem[(addr - DATA_BASE + i) as usize] = (regs[rs.index()] >> (8 * i)) as u8;
                }
                pc + 1
            }
            Inst::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                if cond.eval(regs[ra.index()], regs[rb.index()]) {
                    target
                } else {
                    pc + 1
                }
            }
            Inst::Halt => break,
            Inst::Nop => pc + 1,
            other => panic!("generator does not emit {other:?}"),
        };
    }
    (regs, mem)
}

fn ref_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => a.wrapping_shr(b as u32 & 63),
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::Div | AluOp::Sar => unreachable!("generator restricts ops"),
    }
}

#[derive(Debug, Clone)]
enum GenOp {
    Li(u8, i64),
    Alu(u8, u8, u8, u8),
    AluI(u8, u8, u8, i64),
    Load(u8, u8, u8),
    Store(u8, u8, u8),
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
/// always-in-range address computed with instructions both machines
/// interpret identically (the masked value is non-negative, so signed Rem
/// equals unsigned).
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
    let mut a = Assembler::new("prop");
    a.data(DATA_BASE, vec![0xa5u8; DATA_LEN as usize]);
    let mut skip: Option<(usize, perspectron_repro::uarch_isa::Label)> = None;
    for op in ops {
        // Close an expired skip window (one generated op long).
        if let Some((0, label)) = skip {
            a.bind(label);
            skip = None;
        }
        if let Some((n, label)) = skip {
            skip = Some((n - 1, label));
            let _ = label;
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
            GenOp::SkipIf(x, y) => {
                if skip.is_none() {
                    let label = a.label();
                    a.bgeu(reg_of(x), reg_of(y), label);
                    skip = Some((1, label));
                }
            }
        }
    }
    if let Some((_, label)) = skip {
        a.bind(label);
    }
    a.halt();
    a.finish().expect("assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn out_of_order_execution_matches_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let program = build_program(&ops);
        let (expect_regs, expect_mem) = reference_run(&program);

        let mut machine = Machine::single_core(&CoreConfig::default(), program);
        let summary = machine.run(200_000);
        prop_assert!(summary.halted, "random program must halt");
        let core = machine.core(0);

        for (i, &expect) in expect_regs.iter().enumerate().take(24).skip(8) {
            let r = Reg::from_index(i).expect("valid");
            prop_assert_eq!(core.reg(r), expect, "register r{} differs", i);
        }
        for (off, &b) in expect_mem.iter().enumerate() {
            prop_assert_eq!(
                core.mem().memory().read(DATA_BASE + off as u64, 1) as u8,
                b,
                "memory byte {} differs",
                off
            );
        }
    }
}
