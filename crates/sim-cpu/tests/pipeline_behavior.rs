//! Pipeline behavior tests: resource stalls, squash recovery, memory
//! ordering, predictor structures and timing properties of the
//! out-of-order core.

use sim_cpu::{CoreConfig, Machine};
use uarch_isa::{AluOp, Assembler, Reg};

/// Runs the assembled program on a one-core machine.
fn run(a: Assembler, max: u64) -> Machine {
    let program = a.finish().expect("assembles");
    let mut m = Machine::single_core(&CoreConfig::default(), program);
    m.run(max);
    m
}

#[test]
fn independent_work_behind_a_miss_fills_the_rob() {
    // A missing load at the head of the window stalls commit; younger
    // INDEPENDENT ops issue and complete but cannot retire, so the ROB
    // (192 entries) fills before the IQ does. (A *dependent* chain would
    // fill the 64-entry IQ first — tested below.)
    let mut a = Assembler::new("rob-pressure");
    a.li(Reg::R1, 0x9_0000);
    let top = a.label();
    a.bind(top);
    a.load(Reg::R2, Reg::R1, 0); // commit-blocking miss
    a.flush(Reg::R1, 0);
    for i in 0..250 {
        // Independent: issue immediately, wait in the ROB to retire.
        a.li(Reg::from_index(8 + (i % 8)).expect("valid reg"), i as i64);
    }
    a.addi(Reg::R1, Reg::R1, 64);
    a.li(Reg::R3, 0xa_0000);
    a.blt(Reg::R1, Reg::R3, top);
    a.halt();
    let m = run(a, 200_000);
    let core = m.core(0);
    assert!(
        core.stats().rename.rob_full_events.value() > 0,
        "completed-but-unretired work must exert ROB pressure"
    );
}

#[test]
fn dependent_chains_fill_the_iq_first() {
    let mut a = Assembler::new("iq-pressure");
    a.li(Reg::R1, 0x9_0000);
    let top = a.label();
    a.bind(top);
    a.load(Reg::R2, Reg::R1, 0);
    a.flush(Reg::R1, 0);
    // 100 ops all dependent on the missing load: they cannot issue, so
    // they sit in the 64-entry IQ.
    for _ in 0..100 {
        a.addi(Reg::R2, Reg::R2, 1);
    }
    a.addi(Reg::R1, Reg::R1, 64);
    a.li(Reg::R3, 0xa_0000);
    a.blt(Reg::R1, Reg::R3, top);
    a.halt();
    let m = run(a, 200_000);
    let core = m.core(0);
    assert!(
        core.stats().rename.iq_full_events.value() > 0,
        "unissued dependent work must exert IQ pressure"
    );
}

#[test]
fn load_queue_fills_under_mass_misses() {
    let mut a = Assembler::new("lq-pressure");
    a.li(Reg::R1, 0x9_0000);
    let top = a.label();
    a.bind(top);
    // 40 independent missing loads (> 32 LQ entries).
    for i in 0..40 {
        a.load(Reg::R10, Reg::R1, i * 4096);
    }
    a.addi(Reg::R1, Reg::R1, 64);
    a.li(Reg::R3, 0x9_2000);
    a.blt(Reg::R1, Reg::R3, top);
    a.halt();
    let m = run(a, 500_000);
    let core = m.core(0);
    assert!(
        core.stats().rename.lq_full_events.value() > 0,
        "mass loads must fill the load queue"
    );
}

#[test]
fn store_queue_fills_under_mass_stores() {
    let mut a = Assembler::new("sq-pressure");
    a.li(Reg::R1, 0x9_0000);
    a.li(Reg::R4, 0x9_0000 + 64 * 100);
    let top = a.label();
    a.bind(top);
    for i in 0..40 {
        a.store(Reg::R2, Reg::R1, i * 8);
    }
    a.addi(Reg::R1, Reg::R1, 64);
    a.blt(Reg::R1, Reg::R4, top);
    a.halt();
    let m = run(a, 500_000);
    let core = m.core(0);
    assert!(core.stats().rename.sq_full_events.value() > 0);
}

#[test]
fn memory_order_violation_recovers_with_correct_value() {
    // A store whose address resolves slowly (behind a divide chain),
    // followed by a load to the same address that will execute first.
    let mut a = Assembler::new("violation");
    a.data(0x1000, vec![0u8; 64]);
    a.li(Reg::R1, 0x1000);
    a.li(Reg::R2, 77);
    // Slow address computation: chain of divides.
    a.li(Reg::R3, 1 << 30);
    for _ in 0..4 {
        a.alui(AluOp::Div, Reg::R3, Reg::R3, 2);
    }
    // addr = 0x1000 + (R3 - R3) = 0x1000, but unknown until divides finish.
    a.sub(Reg::R4, Reg::R3, Reg::R3);
    a.add(Reg::R4, Reg::R4, Reg::R1);
    a.store(Reg::R2, Reg::R4, 0);
    a.load(Reg::R5, Reg::R1, 0); // races ahead, reads stale 0, must replay
    a.halt();
    let m = run(a, 50_000);
    let core = m.core(0);
    assert_eq!(
        core.reg(Reg::R5),
        77,
        "the load must observe the older store after recovery"
    );
    assert!(
        core.stats().iew.mem_order_violation_events.value() >= 1,
        "the speculation must have been caught"
    );
}

#[test]
fn deep_call_chains_wrap_the_ras_but_stay_correct() {
    // 24 nested calls (> 16 RAS entries): returns past the wrap mispredict
    // but the architectural call stack keeps execution correct.
    let mut a = Assembler::new("deep-calls");
    let mut labels = Vec::new();
    for _ in 0..24 {
        labels.push(a.label());
    }
    let end = a.label();
    a.li(Reg::R1, 0);
    a.call(labels[0]);
    a.jmp(end);
    for i in 0..24 {
        a.bind(labels[i]);
        a.addi(Reg::R1, Reg::R1, 1);
        if i + 1 < 24 {
            a.call(labels[i + 1]);
        }
        a.ret();
    }
    a.bind(end);
    a.halt();
    let m = run(a, 50_000);
    let core = m.core(0);
    assert!(core.halted());
    assert_eq!(core.reg(Reg::R1), 24, "every frame executed exactly once");
    assert!(
        core.stats().bpred.ras_incorrect.value() > 0,
        "RAS wrap must mispredict some returns"
    );
}

#[test]
fn tlb_misses_scale_with_page_footprint() {
    // Sweep 256 pages (> 64 D-TLB entries) twice; the second sweep still
    // misses because the TLB capacity is exceeded.
    let mut a = Assembler::new("tlb-sweep");
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 0x10_0000 + 256 * 4096);
    let top = a.label();
    a.bind(top);
    a.loadb(Reg::R3, Reg::R1, 0);
    a.addi(Reg::R1, Reg::R1, 4096);
    a.blt(Reg::R1, Reg::R2, top);
    a.halt();
    let m = run(a, 100_000);
    let core = m.core(0);
    assert!(
        core.stats().dtb.rd_misses.value() >= 250,
        "every new page misses the TLB"
    );
}

#[test]
fn ipc_reflects_program_character() {
    // Independent ALU ops in a hot loop: high IPC (straight-line code
    // would be bounded by cold I-cache misses instead). Dependent missing
    // loads: low IPC.
    let mut fast = Assembler::new("ilp");
    fast.li(Reg::R1, 200); // iterations
    let top = fast.label();
    fast.bind(top);
    for i in 0..64 {
        fast.li(Reg::from_index(8 + (i % 16)).expect("valid reg"), i as i64);
    }
    fast.subi(Reg::R1, Reg::R1, 1);
    fast.bnez(Reg::R1, top);
    fast.halt();
    let f = run(fast, 20_000);
    let ipc_fast = f.total_committed() as f64 / f.cycles() as f64;

    let mut slow = Assembler::new("pointer-chase");
    slow.li(Reg::R1, 0x20_0000);
    let top = slow.label();
    slow.bind(top);
    slow.load(Reg::R1, Reg::R1, 0); // self-dependent missing load chain
    slow.flush(Reg::R1, 0);
    slow.li(Reg::R1, 0x20_0000);
    slow.load(Reg::R1, Reg::R1, 0);
    slow.subi(Reg::R2, Reg::R2, 1);
    slow.li(Reg::R1, 0x20_0000);
    slow.bnez(Reg::R2, top);
    slow.halt();
    let s = run(slow, 5_000);
    let ipc_slow = s.total_committed() as f64 / s.cycles() as f64;

    assert!(
        ipc_fast > 3.0 * ipc_slow,
        "ILP code (IPC {ipc_fast:.2}) must dwarf a flush-bound chase (IPC {ipc_slow:.2})"
    );
    assert!(ipc_fast > 1.0, "8-wide core must exceed IPC 1 on pure ILP");
}

#[test]
fn squash_restores_architectural_register_state() {
    // A mispredicted branch guards register updates; after recovery the
    // wrong-path writes must be invisible.
    let mut a = Assembler::new("squash-arch");
    a.li(Reg::R10, 5);
    a.li(Reg::R11, 100);
    a.li(Reg::R12, 0);
    let top = a.label();
    let skip = a.label();
    a.bind(top);
    // Alternating branch (hard to predict early).
    a.andi(Reg::R2, Reg::R12, 1);
    a.bnez(Reg::R2, skip);
    a.addi(Reg::R10, Reg::R10, 10);
    a.bind(skip);
    a.addi(Reg::R12, Reg::R12, 1);
    a.blt(Reg::R12, Reg::R11, top);
    a.halt();
    let m = run(a, 50_000);
    let core = m.core(0);
    // Exactly 50 even iterations took the +10 path.
    assert_eq!(core.reg(Reg::R10), 5 + 50 * 10);
    assert_eq!(core.reg(Reg::R12), 100);
}

#[test]
fn serializing_fence_drains_outstanding_misses() {
    // rdcycle after a missing load must observe the full miss latency.
    let mut a = Assembler::new("fence-timing");
    a.li(Reg::R1, 0x30_0000);
    a.rdcycle(Reg::R10);
    a.load(Reg::R2, Reg::R1, 0); // cold miss, ~100+ cycles
    a.rdcycle(Reg::R11);
    a.load(Reg::R3, Reg::R1, 8); // hit
    a.rdcycle(Reg::R12);
    a.halt();
    let m = run(a, 10_000);
    let core = m.core(0);
    let miss = core.reg(Reg::R11) - core.reg(Reg::R10);
    let hit = core.reg(Reg::R12) - core.reg(Reg::R11);
    assert!(
        miss > hit + 30,
        "serialized timing must expose the miss ({miss}) vs hit ({hit})"
    );
}

#[test]
fn flush_of_dirty_line_takes_longest() {
    let mut a = Assembler::new("flush-tiers");
    a.data(0x5000, vec![1u8; 64]);
    a.li(Reg::R1, 0x5000);
    // Dirty: store then flush.
    a.store(Reg::R2, Reg::R1, 0);
    a.fence();
    a.rdcycle(Reg::R10);
    a.flush(Reg::R1, 0);
    a.fence();
    a.rdcycle(Reg::R11);
    // Clean: load then flush.
    a.load(Reg::R3, Reg::R1, 0);
    a.fence();
    a.rdcycle(Reg::R12);
    a.flush(Reg::R1, 0);
    a.fence();
    a.rdcycle(Reg::R13);
    // Absent: flush again.
    a.rdcycle(Reg::R14);
    a.flush(Reg::R1, 0);
    a.fence();
    a.rdcycle(Reg::R15);
    a.halt();
    let m = run(a, 10_000);
    let core = m.core(0);
    let dirty = core.reg(Reg::R11) - core.reg(Reg::R10);
    let clean = core.reg(Reg::R13) - core.reg(Reg::R12);
    let absent = core.reg(Reg::R15) - core.reg(Reg::R14);
    assert!(
        dirty > clean,
        "dirty flush ({dirty}) > clean flush ({clean})"
    );
    assert!(
        clean > absent,
        "clean flush ({clean}) > absent flush ({absent})"
    );
}

#[test]
fn wrong_path_loads_install_cache_lines() {
    // The side-channel primitive in isolation: a line touched ONLY on the
    // wrong path of a mispredicted branch must still be cached afterwards.
    let mut a = Assembler::new("wrongpath-install");
    let line = 0x8_0000u64; // user-space line never touched architecturally
    a.li(Reg::R10, line as i64);
    a.li(Reg::R1, 0x9_0000);
    a.li(Reg::R2, 0); // i
    a.li(Reg::R3, 200);
    let top = a.label();
    let skip = a.label();
    a.bind(top);
    // Branch on a slowly-loaded value: taken on iteration 100 only.
    a.flush(Reg::R1, 0);
    a.fence();
    a.load(Reg::R4, Reg::R1, 0); // always 0 → R4+100 != i except i==100
    a.addi(Reg::R4, Reg::R4, 100);
    a.bne(Reg::R2, Reg::R4, skip);
    a.loadb(Reg::R5, Reg::R10, 0); // architectural on i==100; wrong-path else
    a.bind(skip);
    a.addi(Reg::R2, Reg::R2, 1);
    a.blt(Reg::R2, Reg::R3, top);
    a.halt();
    let m = run(a, 200_000);
    let core = m.core(0);
    assert!(core.halted());
    // After i==100 the line is cached architecturally; the point is the
    // machine ALSO touched it speculatively earlier — count accesses.
    assert!(
        core.mem()
            .l1d()
            .stats()
            .cmd
            .accesses(sim_mem::MemCmd::ReadReq)
            > 0,
        "loads flowed through the data cache"
    );
    assert!(
        core.mem().l1d().probe(line).is_some() || m.uncore().l2().probe(line).is_some(),
        "the secret-dependent line must be resident"
    );
}

#[test]
fn partial_store_overlap_forwards_merged_bytes() {
    // Regression (found by machine_properties proptest): a word load
    // partially overlapping an older UNCOMMITTED byte store must see the
    // store's byte merged over memory — store data reaches memory only at
    // commit, so reading the functional memory image alone is stale.
    let mut a = Assembler::new("partial-forward");
    a.data(0x1000, vec![0xa5u8; 64]);
    a.li(Reg::R1, 0x1000);
    a.li(Reg::R2, 0);
    a.storeb(Reg::R2, Reg::R1, 0); // byte 0x1000 <- 0x00 (in flight)
    a.emit(uarch_isa::Inst::Load {
        rd: Reg::R3,
        base: Reg::R1,
        offset: 0,
        width: uarch_isa::Width::Word,
        fp: false,
    });
    a.halt();
    let m = run(a, 10_000);
    let core = m.core(0);
    assert_eq!(
        core.reg(Reg::R3),
        0xa5a5a500,
        "store byte must merge over memory bytes"
    );
}

#[test]
fn violation_squash_rollback_and_redirect_are_consistent() {
    // Regression (found by machine_properties proptest): when a late-
    // resolving store squashes a conflicting younger load, the rollback
    // point and the fetch redirect must identify the SAME load — a
    // mismatch silently skips the instructions in between (here, the
    // `li r8, -1` between two conflicting loads).
    let mut a = Assembler::new("violation-consistency");
    a.data(0x1000, vec![0xa5u8; 64]);
    a.li(Reg::R8, 0);
    a.li(Reg::R1, 0x1000);
    a.loadb(Reg::R19, Reg::R1, 0); // slow (cold miss): store data dependency
    a.storeb(Reg::R19, Reg::R1, 0); // resolves late
    a.storeb(Reg::R8, Reg::R1, 0); // resolves early
    a.loadb(Reg::R8, Reg::R1, 0); // may execute before the late store
    a.li(Reg::R8, -1); // must never be lost by the squash
    a.loadb(Reg::R9, Reg::R1, 0);
    a.halt();
    let m = run(a, 50_000);
    let core = m.core(0);
    assert!(core.halted());
    assert_eq!(
        core.reg(Reg::R8),
        u64::MAX,
        "the li between conflicting loads must survive violation recovery"
    );
    assert_eq!(core.reg(Reg::R9), 0, "final load sees the youngest store");
    assert_eq!(core.mem().memory().read(0x1000, 1), 0);
}
