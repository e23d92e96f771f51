//! Simulator probes: small programs that drive the out-of-order core into
//! the corners its fast paths must reproduce exactly. They are not part
//! of any suite; the simulator's equivalence tests run them on the fast
//! and the reference machine and compare every statistic.

use uarch_isa::{AluOp, Assembler, Program, Reg};

/// A burst of independent cold-line loads, more than the L1D has MSHRs,
/// behind a serializing read: once the pool saturates, the rest of the
/// burst waits at issue while every other stage stalls behind it.
pub fn mshr_bound() -> Program {
    let mut a = Assembler::new("mshr-bound");
    a.li(Reg::R9, 24); // iterations
    a.li(Reg::R1, 0x40_0000);
    let top = a.label();
    a.bind(top);
    a.rdcycle(Reg::R4); // serializing: each burst starts from a drained window
    for k in 0..16 {
        let rd = Reg::from_index(10 + k % 8).expect("r10..r17");
        a.load(rd, Reg::R1, 64 * k as i64);
    }
    a.addi(Reg::R1, Reg::R1, 16 * 64); // fresh lines every iteration
    a.subi(Reg::R9, Reg::R9, 1);
    a.bnez(Reg::R9, top);
    a.halt();
    a.finish().expect("assembles")
}

/// Loads held at a saturated L1D MSHR pool while other work issues past
/// them. Each iteration, from a drained window:
///
/// * twelve cold loads, two more than the L1D's ten MSHRs;
/// * four stores, four more cold loads, eight ALU ops and a branch, all
///   but the loads waiting on one divide;
/// * four cold loads behind the branch.
///
/// The divide completes while the pool is still saturated and the loads
/// it could not take wait at issue. In that cycle the four stores use up
/// the memory ports and four ALU ops fill the issue width, so the waiting
/// loads sit older than the stores, between the stores and the cutoff, and
/// past the cutoff. The branch tests a pseudo-random bit, so it often
/// mispredicts and squashes the loads behind it while they wait.
pub fn parked_loads() -> Program {
    let mut a = Assembler::new("parked-loads");
    a.data(0x1000, vec![0u8; 64]);
    a.li(Reg::R9, 16); // iterations
    a.li(Reg::R1, 0x40_0000); // cold lines
    a.li(Reg::R3, 0x1000); // the stores' warm line
    a.li(Reg::R6, 0x2545_f491); // LCG state
    a.li(Reg::R7, 6_364_136_223_846_793_005);
    a.li(Reg::R8, 1_442_695_040_888_963_407);
    a.li(Reg::R11, 1); // divisor
    let top = a.label();
    let skip = a.label();
    a.bind(top);
    a.rdcycle(Reg::R4); // serializing: each iteration starts drained
    a.mul(Reg::R6, Reg::R6, Reg::R7);
    a.add(Reg::R6, Reg::R6, Reg::R8);
    a.shri(Reg::R10, Reg::R6, 33);
    a.andi(Reg::R10, Reg::R10, 1);
    a.alu(AluOp::Div, Reg::R5, Reg::R10, Reg::R11); // slow copy of the bit
    let cold = |a: &mut Assembler, lines: std::ops::Range<i64>| {
        for k in lines {
            let rd = Reg::from_index(12 + k as usize % 4).expect("r12..r15");
            a.load(rd, Reg::R1, 64 * k);
        }
    };
    cold(&mut a, 0..12);
    for k in 0..4 {
        a.store(Reg::R5, Reg::R3, 8 * k);
    }
    cold(&mut a, 12..16);
    for k in 0..8 {
        let rd = Reg::from_index(20 + k).expect("r20..r27");
        a.add(rd, Reg::R5, Reg::R5);
    }
    a.bnez(Reg::R5, skip);
    cold(&mut a, 16..20);
    a.bind(skip);
    a.addi(Reg::R1, Reg::R1, 20 * 64); // fresh lines every iteration
    a.subi(Reg::R9, Reg::R9, 1);
    a.bnez(Reg::R9, top);
    a.halt();
    a.finish().expect("assembles")
}
