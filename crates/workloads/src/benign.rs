//! Benign workloads: synthetic kernels named after the SPEC CPU 2006
//! programs whose behavior they imitate.
//!
//! The paper's benign set is SPEC CPU 2006; its false-positive-prone
//! members (h264ref, povray, gcc, sjeng, gobmk, dealII, bzip2) are memory-,
//! branch- or FP-intensive. Each kernel here reproduces one of those
//! behavioral axes so the detector has to discriminate attacks from
//! legitimately cache- and branch-aggressive code. All kernels loop forever
//! (the driver bounds them by instruction count).

use uarch_isa::{AsmError, Assembler, FaluOp, Program, Reg};

/// Deterministic data generator (tiny LCG; keeps workload bytes stable
/// across runs without threading a seed through every builder).
fn pseudo_bytes(n: usize, mut state: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push((state >> 33) as u8);
    }
    out
}

const ARENA: u64 = 0x60_0000;

/// bzip2-like: byte-stream transform (move-to-front flavored) over a 64 KB
/// buffer; mixes byte loads/stores with data-dependent branches.
pub fn bzip2() -> Result<Program, AsmError> {
    let mut a = Assembler::new("bzip2");
    a.data(ARENA, pseudo_bytes(64 * 1024, 0xb21b));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, (ARENA + 64 * 1024) as i64);
    a.li(Reg::R12, 0); // running transform state
    let top = a.label();
    let small = a.label();
    let cont = a.label();
    a.bind(top);
    a.loadb(Reg::R13, Reg::R10, 0);
    a.add(Reg::R12, Reg::R12, Reg::R13);
    a.li(Reg::R14, 128);
    a.blt(Reg::R13, Reg::R14, small);
    a.xori(Reg::R13, Reg::R13, 0x5f);
    a.jmp(cont);
    a.bind(small);
    a.addi(Reg::R13, Reg::R13, 1);
    a.bind(cont);
    a.storeb(Reg::R13, Reg::R10, 0);
    a.addi(Reg::R10, Reg::R10, 1);
    a.blt(Reg::R10, Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// gcc-like: pointer chasing over a linked node arena plus a branchy
/// "opcode" dispatch — irregular memory plus hard-to-predict branches.
pub fn gcc() -> Result<Program, AsmError> {
    let mut a = Assembler::new("gcc");
    // Nodes: 4096 nodes of 16 bytes [next: u64, op: u64] in a scrambled
    // permutation cycle.
    let n = 4096u64;
    let mut data = vec![0u8; (n * 16) as usize];
    let mut perm: Vec<u64> = (0..n).collect();
    // Deterministic shuffle.
    let mut s = 0x9cc9u64;
    for i in (1..n as usize).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (s >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    for i in 0..n as usize {
        let next = ARENA + perm[i] * 16;
        let op = (s.wrapping_add(i as u64 * 7)) % 4;
        data[i * 16..i * 16 + 8].copy_from_slice(&next.to_le_bytes());
        data[i * 16 + 8..i * 16 + 16].copy_from_slice(&op.to_le_bytes());
    }
    a.data(ARENA, data);
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, 4096);
    let top = a.label();
    let (op0, op1, op2, done) = (a.label(), a.label(), a.label(), a.label());
    a.bind(top);
    a.load(Reg::R12, Reg::R10, 8); // op
    a.li(Reg::R13, 1);
    a.blt(Reg::R12, Reg::R13, op0);
    a.li(Reg::R13, 2);
    a.blt(Reg::R12, Reg::R13, op1);
    a.li(Reg::R13, 3);
    a.blt(Reg::R12, Reg::R13, op2);
    a.mul(Reg::R14, Reg::R12, Reg::R12);
    a.jmp(done);
    a.bind(op0);
    a.addi(Reg::R14, Reg::R14, 3);
    a.jmp(done);
    a.bind(op1);
    a.xori(Reg::R14, Reg::R14, 0xff);
    a.jmp(done);
    a.bind(op2);
    a.shli(Reg::R14, Reg::R14, 1);
    a.bind(done);
    a.load(Reg::R10, Reg::R10, 0); // chase next
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// mcf-like: repeated shortest-path arc relaxation over adjacency arrays —
/// memory-bound with data-dependent updates.
pub fn mcf() -> Result<Program, AsmError> {
    let mut a = Assembler::new("mcf");
    let nodes = 2048u64;
    let arcs = 8192u64;
    // dist[] at ARENA, arcs [(u, v, w); arcs] at ARENA + nodes*8.
    a.data(ARENA, vec![0x7f; (nodes * 8) as usize]);
    let mut arc_data = Vec::with_capacity((arcs * 24) as usize);
    let mut s = 0x3cf3u64;
    for _ in 0..arcs {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let u = (s >> 13) % nodes;
        let v = (s >> 33) % nodes;
        let w = (s >> 51) % 97;
        arc_data.extend_from_slice(&u.to_le_bytes());
        arc_data.extend_from_slice(&v.to_le_bytes());
        arc_data.extend_from_slice(&w.to_le_bytes());
    }
    let arc_base = ARENA + nodes * 8;
    a.data(arc_base, arc_data);
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, arc_base as i64);
    a.li(Reg::R11, arcs as i64);
    let top = a.label();
    let no_update = a.label();
    a.bind(top);
    a.load(Reg::R12, Reg::R10, 0); // u
    a.load(Reg::R13, Reg::R10, 8); // v
    a.load(Reg::R14, Reg::R10, 16); // w
    a.shli(Reg::R12, Reg::R12, 3);
    a.addi(Reg::R12, Reg::R12, ARENA as i64);
    a.load(Reg::R15, Reg::R12, 0); // dist[u]
    a.add(Reg::R15, Reg::R15, Reg::R14);
    a.shli(Reg::R13, Reg::R13, 3);
    a.addi(Reg::R13, Reg::R13, ARENA as i64);
    a.load(Reg::R16, Reg::R13, 0); // dist[v]
    a.bge(Reg::R15, Reg::R16, no_update);
    a.store(Reg::R15, Reg::R13, 0);
    a.bind(no_update);
    a.addi(Reg::R10, Reg::R10, 24);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// hmmer-like: integer dynamic-programming inner loop (running max of
/// score recurrences) — ALU-dense with predictable branches.
pub fn hmmer() -> Result<Program, AsmError> {
    let mut a = Assembler::new("hmmer");
    a.data(ARENA, pseudo_bytes(32 * 1024, 0x4a3e));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, 4096);
    a.li(Reg::R12, 0); // m
    a.li(Reg::R13, 0); // i-score
    let top = a.label();
    let keep = a.label();
    a.bind(top);
    a.loadb(Reg::R14, Reg::R10, 0);
    a.add(Reg::R15, Reg::R12, Reg::R14);
    a.subi(Reg::R16, Reg::R13, 3);
    a.bge(Reg::R16, Reg::R15, keep);
    a.mv(Reg::R16, Reg::R15);
    a.bind(keep);
    a.mv(Reg::R12, Reg::R13);
    a.mv(Reg::R13, Reg::R16);
    a.addi(Reg::R10, Reg::R10, 1);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// sjeng-like: chess-style search — xorshift-driven unpredictable branches
/// over table lookups.
pub fn sjeng() -> Result<Program, AsmError> {
    let mut a = Assembler::new("sjeng");
    a.data(ARENA, pseudo_bytes(128 * 1024, 0x53e6));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, 0x123456789); // rng state
    a.li(Reg::R11, 8192); // iterations
    let top = a.label();
    let (b0, b1, join) = (a.label(), a.label(), a.label());
    a.bind(top);
    // xorshift64
    a.shli(Reg::R12, Reg::R10, 13);
    a.xor(Reg::R10, Reg::R10, Reg::R12);
    a.shri(Reg::R12, Reg::R10, 7);
    a.xor(Reg::R10, Reg::R10, Reg::R12);
    a.shli(Reg::R12, Reg::R10, 17);
    a.xor(Reg::R10, Reg::R10, Reg::R12);
    // Table lookup at a random slot.
    a.andi(Reg::R12, Reg::R10, (128 * 1024 - 1) & !7);
    a.addi(Reg::R12, Reg::R12, ARENA as i64);
    a.load(Reg::R13, Reg::R12, 0);
    // Unpredictable branch on bit 5.
    a.andi(Reg::R14, Reg::R10, 32);
    a.bnez(Reg::R14, b0);
    a.add(Reg::R15, Reg::R15, Reg::R13);
    a.jmp(join);
    a.bind(b0);
    a.andi(Reg::R14, Reg::R10, 64);
    a.bnez(Reg::R14, b1);
    a.sub(Reg::R15, Reg::R15, Reg::R13);
    a.jmp(join);
    a.bind(b1);
    a.xor(Reg::R15, Reg::R15, Reg::R13);
    a.bind(join);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// gobmk-like: Go board scans — nested loops over a 2D byte board with
/// neighbor counting and branchy liberties checks.
pub fn gobmk() -> Result<Program, AsmError> {
    let mut a = Assembler::new("gobmk");
    let board = 64u64; // 64x64 board
    a.data(ARENA, pseudo_bytes((board * board) as usize, 0x60b2));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, 1); // row
    let row_loop = a.label();
    a.bind(row_loop);
    a.li(Reg::R11, 1); // col
    let col_loop = a.label();
    let occupied = a.label();
    let next = a.label();
    a.bind(col_loop);
    // addr = ARENA + row*64 + col
    a.shli(Reg::R12, Reg::R10, 6);
    a.add(Reg::R12, Reg::R12, Reg::R11);
    a.addi(Reg::R12, Reg::R12, ARENA as i64);
    a.loadb(Reg::R13, Reg::R12, 0);
    a.andi(Reg::R13, Reg::R13, 3);
    a.bnez(Reg::R13, occupied);
    a.addi(Reg::R14, Reg::R14, 1); // empty count
    a.jmp(next);
    a.bind(occupied);
    // Count neighbors.
    a.loadb(Reg::R15, Reg::R12, -1);
    a.loadb(Reg::R16, Reg::R12, 1);
    a.add(Reg::R15, Reg::R15, Reg::R16);
    a.loadb(Reg::R16, Reg::R12, -(board as i64));
    a.add(Reg::R15, Reg::R15, Reg::R16);
    a.loadb(Reg::R16, Reg::R12, board as i64);
    a.add(Reg::R15, Reg::R15, Reg::R16);
    a.add(Reg::R17, Reg::R17, Reg::R15);
    a.bind(next);
    a.addi(Reg::R11, Reg::R11, 1);
    a.li(Reg::R18, (board - 1) as i64);
    a.blt(Reg::R11, Reg::R18, col_loop);
    a.addi(Reg::R10, Reg::R10, 1);
    a.blt(Reg::R10, Reg::R18, row_loop);
    a.jmp(outer);
    a.finish()
}

/// libquantum-like: streaming toggles — long sequential passes XOR-ing a
/// large array (bandwidth bound, very regular).
pub fn libquantum() -> Result<Program, AsmError> {
    let mut a = Assembler::new("libquantum");
    a.data(ARENA, pseudo_bytes(512 * 1024, 0x11b));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, (ARENA + 512 * 1024) as i64);
    let top = a.label();
    a.bind(top);
    a.load(Reg::R12, Reg::R10, 0);
    a.xori(Reg::R12, Reg::R12, 0x40);
    a.store(Reg::R12, Reg::R10, 0);
    a.addi(Reg::R10, Reg::R10, 8);
    a.blt(Reg::R10, Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// h264ref-like: sum-of-absolute-differences over 16×16 blocks using the
/// SIMD lanes — streaming reads plus vector arithmetic.
pub fn h264ref() -> Result<Program, AsmError> {
    let mut a = Assembler::new("h264ref");
    a.data(ARENA, pseudo_bytes(256 * 1024, 0x264));
    let frame2 = ARENA + 128 * 1024;
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, frame2 as i64);
    a.li(Reg::R12, 4096); // blocks of 32 bytes
    let top = a.label();
    a.bind(top);
    a.load(Reg::R13, Reg::R10, 0);
    a.load(Reg::R14, Reg::R11, 0);
    a.falu(FaluOp::VAdd, Reg::R15, Reg::R13, Reg::R14);
    a.load(Reg::R13, Reg::R10, 8);
    a.load(Reg::R14, Reg::R11, 8);
    a.falu(FaluOp::VMul, Reg::R16, Reg::R13, Reg::R14);
    a.falu(FaluOp::VCvt, Reg::R17, Reg::R15, Reg::R16);
    a.add(Reg::R18, Reg::R18, Reg::R17);
    a.addi(Reg::R10, Reg::R10, 32);
    a.addi(Reg::R11, Reg::R11, 32);
    a.subi(Reg::R12, Reg::R12, 1);
    a.bnez(Reg::R12, top);
    a.jmp(outer);
    a.finish()
}

/// astar-like: grid pathfinding sweep — frontier array scans with
/// comparisons and irregular branch outcomes.
pub fn astar() -> Result<Program, AsmError> {
    let mut a = Assembler::new("astar");
    a.data(ARENA, pseudo_bytes(64 * 1024, 0xa57a));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, 8192);
    a.li(Reg::R12, 255); // best cost
    let top = a.label();
    let not_better = a.label();
    a.bind(top);
    a.loadb(Reg::R13, Reg::R10, 0); // g
    a.loadb(Reg::R14, Reg::R10, 1); // h
    a.add(Reg::R15, Reg::R13, Reg::R14); // f = g + h
    a.bge(Reg::R15, Reg::R12, not_better);
    a.mv(Reg::R12, Reg::R15);
    a.storeb(Reg::R15, Reg::R10, 2);
    a.bind(not_better);
    a.addi(Reg::R10, Reg::R10, 8);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, top);
    a.jmp(outer);
    a.finish()
}

/// omnetpp-like: discrete-event simulation — binary-heap sift operations on
/// an event queue (pointer arithmetic + compare/swap chains).
pub fn omnetpp() -> Result<Program, AsmError> {
    let mut a = Assembler::new("omnetpp");
    let n = 4096u64;
    a.data(ARENA, pseudo_bytes((n * 8) as usize, 0x03e7));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, 1); // heap index
    let sift = a.label();
    let no_swap = a.label();
    a.bind(sift);
    // parent = i/2; compare heap[i] and heap[parent]; swap if smaller.
    a.shri(Reg::R11, Reg::R10, 1);
    a.shli(Reg::R12, Reg::R10, 3);
    a.addi(Reg::R12, Reg::R12, ARENA as i64);
    a.shli(Reg::R13, Reg::R11, 3);
    a.addi(Reg::R13, Reg::R13, ARENA as i64);
    a.load(Reg::R14, Reg::R12, 0);
    a.load(Reg::R15, Reg::R13, 0);
    a.bge(Reg::R14, Reg::R15, no_swap);
    a.store(Reg::R15, Reg::R12, 0);
    a.store(Reg::R14, Reg::R13, 0);
    a.bind(no_swap);
    a.addi(Reg::R10, Reg::R10, 1);
    a.li(Reg::R16, n as i64);
    a.blt(Reg::R10, Reg::R16, sift);
    a.jmp(outer);
    a.finish()
}

/// povray-like: ray/sphere intersection math — chains of FP multiply, add,
/// divide and square root.
pub fn povray() -> Result<Program, AsmError> {
    let mut a = Assembler::new("povray");
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, 4096); // rays
                          // Seed FP values.
    a.li(Reg::R11, 3);
    a.falu(FaluOp::FCvtIf, Reg::R12, Reg::R11, Reg::R0); // 3.0
    a.li(Reg::R11, 7);
    a.falu(FaluOp::FCvtIf, Reg::R13, Reg::R11, Reg::R0); // 7.0
    let top = a.label();
    a.bind(top);
    a.falu(FaluOp::FMul, Reg::R14, Reg::R12, Reg::R13); // b = o*d
    a.falu(FaluOp::FMul, Reg::R15, Reg::R14, Reg::R14); // b^2
    a.falu(FaluOp::FSub, Reg::R16, Reg::R15, Reg::R12); // disc
    a.falu(FaluOp::FSqrt, Reg::R17, Reg::R16, Reg::R0);
    a.falu(FaluOp::FDiv, Reg::R12, Reg::R17, Reg::R13); // t
    a.falu(FaluOp::FAdd, Reg::R13, Reg::R13, Reg::R17);
    a.subi(Reg::R10, Reg::R10, 1);
    a.bnez(Reg::R10, top);
    a.jmp(outer);
    a.finish()
}

/// dealII-like: sparse matrix-vector product — indirect index loads feeding
/// FP multiply-accumulate.
pub fn dealii() -> Result<Program, AsmError> {
    let mut a = Assembler::new("dealII");
    let nnz = 8192u64;
    // col indices (u64) then values (f64 bits).
    let mut cols = Vec::with_capacity((nnz * 8) as usize);
    let mut s = 0xdea1u64;
    for _ in 0..nnz {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        cols.extend_from_slice(&(((s >> 30) % 4096) * 8).to_le_bytes());
    }
    a.data(ARENA, cols);
    let vals = ARENA + nnz * 8;
    let mut vbytes = Vec::with_capacity((nnz * 8) as usize);
    for i in 0..nnz {
        vbytes.extend_from_slice(&(1.0 + i as f64 * 0.001).to_bits().to_le_bytes());
    }
    a.data(vals, vbytes);
    let x = vals + nnz * 8;
    let mut xbytes = Vec::with_capacity(4096 * 8);
    for i in 0..4096 {
        xbytes.extend_from_slice(&(0.5 + i as f64 * 0.0001).to_bits().to_le_bytes());
    }
    a.data(x, xbytes);

    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, 0); // k
    a.li(Reg::R18, 0); // acc (f64 bits of 0.0)
    let top = a.label();
    a.bind(top);
    a.shli(Reg::R11, Reg::R10, 3);
    a.addi(Reg::R12, Reg::R11, ARENA as i64);
    a.load(Reg::R13, Reg::R12, 0); // col offset
    a.addi(Reg::R14, Reg::R13, x as i64);
    a.floadd(Reg::R15, Reg::R14, 0); // x[col]
    a.addi(Reg::R12, Reg::R11, vals as i64);
    a.floadd(Reg::R16, Reg::R12, 0); // a[k]
    a.falu(FaluOp::FMul, Reg::R17, Reg::R15, Reg::R16);
    a.falu(FaluOp::FAdd, Reg::R18, Reg::R18, Reg::R17);
    a.addi(Reg::R10, Reg::R10, 1);
    a.li(Reg::R19, nnz as i64);
    a.blt(Reg::R10, Reg::R19, top);
    a.jmp(outer);
    a.finish()
}

/// perlbench-like: string hashing and dictionary probing — byte loads,
/// multiplies and compare-heavy lookups.
pub fn perlbench() -> Result<Program, AsmError> {
    let mut a = Assembler::new("perlbench");
    a.data(ARENA, pseudo_bytes(32 * 1024, 0x9e71));
    let outer = a.label();
    a.bind(outer);
    a.li(Reg::R10, ARENA as i64);
    a.li(Reg::R11, 2048); // strings of 16 bytes
    let str_loop = a.label();
    a.bind(str_loop);
    a.li(Reg::R12, 0); // hash
    a.li(Reg::R13, 16); // len
    let ch_loop = a.label();
    a.bind(ch_loop);
    a.loadb(Reg::R14, Reg::R10, 0);
    a.li(Reg::R15, 31);
    a.mul(Reg::R12, Reg::R12, Reg::R15);
    a.add(Reg::R12, Reg::R12, Reg::R14);
    a.addi(Reg::R10, Reg::R10, 1);
    a.subi(Reg::R13, Reg::R13, 1);
    a.bnez(Reg::R13, ch_loop);
    // Probe the "dictionary": hash-indexed load back into the arena.
    a.andi(Reg::R16, Reg::R12, (32 * 1024 - 1) & !7);
    a.addi(Reg::R16, Reg::R16, ARENA as i64);
    a.load(Reg::R17, Reg::R16, 0);
    a.xor(Reg::R18, Reg::R18, Reg::R17);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, str_loop);
    a.jmp(outer);
    a.finish()
}

/// All benign builders with their names. Fails on the first kernel whose
/// assembly is inconsistent (an unbound or rebound label).
pub fn all_benign() -> Result<Vec<Program>, AsmError> {
    Ok(vec![
        bzip2()?,
        gcc()?,
        mcf()?,
        hmmer()?,
        sjeng()?,
        gobmk()?,
        libquantum()?,
        h264ref()?,
        astar()?,
        omnetpp()?,
        povray()?,
        dealii()?,
        perlbench()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_machine;

    #[test]
    fn every_benign_kernel_runs_indefinitely() -> Result<(), AsmError> {
        for p in all_benign()? {
            let name = p.name().to_string();
            let m = run_on_machine(p, 60_000);
            assert!(!m.all_halted(), "{name} must loop forever");
            assert!(m.total_committed() >= 60_000, "{name} must make progress");
        }
        Ok(())
    }

    #[test]
    fn benign_kernels_do_not_fault_or_flush() -> Result<(), AsmError> {
        for p in all_benign()? {
            let name = p.name().to_string();
            let m = run_on_machine(p, 60_000);
            let core = m.core(0);
            assert_eq!(core.stats().commit.faults.value(), 0, "{name} faults");
            assert_eq!(
                core.mem().l1d().stats().agg.flush_hits.value(),
                0,
                "{name} flushes"
            );
        }
        Ok(())
    }

    #[test]
    fn fp_kernels_exercise_float_units() -> Result<(), AsmError> {
        for p in [povray()?, dealii()?, h264ref()?] {
            let name = p.name().to_string();
            let m = run_on_machine(p, 60_000);
            let core = m.core(0);
            use uarch_isa::OpClass;
            let fp = core.stats().commit.fp_insts.value();
            let simd = core.stats().commit.op_class.get(OpClass::SimdAdd)
                + core.stats().commit.op_class.get(OpClass::SimdMult)
                + core.stats().commit.op_class.get(OpClass::SimdCvt);
            assert!(fp + simd > 0, "{name} must commit FP/SIMD work");
        }
        Ok(())
    }

    #[test]
    fn branchy_kernels_mispredict_sometimes() -> Result<(), AsmError> {
        let m = run_on_machine(sjeng()?, 100_000);
        let core = m.core(0);
        assert!(
            core.stats().iew.branch_mispredicts.value() > 50,
            "sjeng's random branches must defeat the predictor sometimes"
        );
        Ok(())
    }
}
