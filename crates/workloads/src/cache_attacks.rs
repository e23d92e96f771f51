//! The cache side-channel attacks: Flush+Reload, Flush+Flush, Prime+Probe,
//! and their calibration (threshold-finding) programs.
//!
//! All three monitor an in-process victim that touches one of 16 cache
//! lines depending on the current secret nibble. The attacks differ only in
//! their measurement primitive — which is exactly what gives them their
//! distinct microarchitectural footprints:
//!
//! - Flush+Reload: flush, let the victim run, *reload with a timed load*
//!   (memory-barrier heavy → `fetch.PendingQuiesceStallCycles`).
//! - Flush+Flush: never loads — *times the flush itself*
//!   (`commit.NonSpecStalls` from the non-speculative flushes; no cache
//!   misses from the attacker, the property that defeats miss-counting
//!   detectors).
//! - Prime+Probe: no flushes at all — fills cache sets with its own lines
//!   and times re-loading them (`tol2bus.trans_dist::CleanEvict` storms).

use uarch_isa::{Assembler, MarkKind, Program, Reg};

use crate::layout::{
    emit_record_result, install_common_segments, LINE, PRIME_ARENA, USER_SECRET, VICTIM_BUF,
};

/// Number of victim lines monitored (one per secret nibble value).
pub const MONITORED_LINES: u64 = 16;

/// Stride between lines mapping to the same L1D set (128 sets × 64 B).
pub const L1D_SET_STRIDE: u64 = 128 * 64;

/// L1D associativity (ways primed per set).
pub const L1D_WAYS: u64 = 8;

/// Total L1D sets (the full-cache Prime+Probe sweep).
pub const L1D_SETS: u64 = 128;

/// Base of the Prime+Probe victim's working set: 48 lines on L1D sets
/// 32..80, colliding with the attacker's full-cache sweep but not with the
/// monitored sets 0..16 — the mutual-eviction churn a real victim causes.
pub const VICTIM_WORK: u64 = 0x34_0800;

/// Lines in the Prime+Probe victim's working set.
pub const VICTIM_WORK_LINES: u64 = 48;

/// Emits the shared victim function: reads the secret nibble selected by
/// `R15` (0 = high nibble of byte 0, 1 = low nibble of byte 0, ...) and
/// touches `VICTIM_BUF + nibble_value * 64`.
///
/// Clobbers `R5..=R8`.
fn emit_victim(a: &mut Assembler) {
    // byte index = R15 >> 1; use low nibble when R15 is odd.
    a.shri(Reg::R5, Reg::R15, 1);
    a.addi(Reg::R5, Reg::R5, USER_SECRET as i64);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.andi(Reg::R7, Reg::R15, 1);
    let low = a.label();
    let have = a.label();
    a.bnez(Reg::R7, low);
    a.shri(Reg::R6, Reg::R6, 4);
    a.jmp(have);
    a.bind(low);
    a.andi(Reg::R6, Reg::R6, 15);
    a.bind(have);
    a.shli(Reg::R6, Reg::R6, 6);
    a.addi(Reg::R6, Reg::R6, VICTIM_BUF as i64);
    a.loadb(Reg::R8, Reg::R6, 0);
    a.ret();
}

fn install_victim_segments(a: &mut Assembler) {
    install_common_segments(a);
    a.data(VICTIM_BUF, vec![7u8; (MONITORED_LINES * LINE) as usize]);
}

/// Emits the Prime+Probe victim: the secret-dependent touch of
/// [`emit_victim`] plus a sweep over its 48-line working set — the part of
/// a real victim that keeps evicting the attacker's primed lines.
///
/// Clobbers `R5..=R9`.
fn emit_victim_with_work(a: &mut Assembler) {
    // Secret-dependent line touch (same as the shared victim, inlined so
    // the final `ret` covers both parts).
    a.shri(Reg::R5, Reg::R15, 1);
    a.addi(Reg::R5, Reg::R5, USER_SECRET as i64);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.andi(Reg::R7, Reg::R15, 1);
    let low = a.label();
    let have = a.label();
    a.bnez(Reg::R7, low);
    a.shri(Reg::R6, Reg::R6, 4);
    a.jmp(have);
    a.bind(low);
    a.andi(Reg::R6, Reg::R6, 15);
    a.bind(have);
    a.shli(Reg::R6, Reg::R6, 6);
    a.addi(Reg::R6, Reg::R6, VICTIM_BUF as i64);
    a.loadb(Reg::R8, Reg::R6, 0);
    // Working-set sweep.
    a.li(Reg::R5, VICTIM_WORK as i64);
    a.li(Reg::R9, (VICTIM_WORK + VICTIM_WORK_LINES * LINE) as i64);
    let sweep = a.label();
    a.bind(sweep);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.addi(Reg::R5, Reg::R5, LINE as i64);
    a.blt(Reg::R5, Reg::R9, sweep);
    a.ret();
}

/// Builds the Flush+Reload attack.
pub fn flush_reload() -> Program {
    let mut a = Assembler::new("flush-reload");
    install_victim_segments(&mut a);
    let victim = a.label();
    let outer = a.label();
    a.jmp(outer);
    a.bind(victim);
    emit_victim(&mut a);

    a.bind(outer);
    a.li(Reg::R20, 0); // nibble index
    let iter = a.label();
    a.bind(iter);
    a.mark(MarkKind::PhasePrime);
    // Flush the monitored lines.
    a.li(Reg::R10, VICTIM_BUF as i64);
    a.li(Reg::R11, MONITORED_LINES as i64);
    let fl = a.label();
    a.bind(fl);
    a.flush(Reg::R10, 0);
    a.addi(Reg::R10, Reg::R10, LINE as i64);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, fl);
    a.fence(); // flushes complete before the victim runs

    a.mark(MarkKind::PhaseSpeculate); // victim-execution window
    a.mv(Reg::R15, Reg::R20);
    a.call(victim);

    a.mark(MarkKind::PhaseProbe);
    // Reload each line with a timed load; fastest = victim's nibble.
    // The memory barrier before each measurement is Flush+Reload's
    // signature quiesce footprint.
    let (k, best_t, best_k) = (Reg::R10, Reg::R11, Reg::R12);
    a.li(k, 0);
    a.li(best_t, i64::MAX);
    a.li(best_k, 0);
    let probe = a.label();
    let worse = a.label();
    a.bind(probe);
    a.shli(Reg::R5, k, 6);
    a.addi(Reg::R5, Reg::R5, VICTIM_BUF as i64);
    a.membar();
    a.rdcycle(Reg::R6);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.rdcycle(Reg::R8);
    a.sub(Reg::R8, Reg::R8, Reg::R6);
    a.bge(Reg::R8, best_t, worse);
    a.mv(best_t, Reg::R8);
    a.mv(best_k, k);
    a.bind(worse);
    a.addi(k, k, 1);
    a.li(Reg::R5, MONITORED_LINES as i64);
    a.blt(k, Reg::R5, probe);

    emit_record_result(&mut a, Reg::R20, best_k);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, 31);
    a.jmp(iter);

    a.finish().expect("flush_reload assembles")
}

/// Builds the Flush+Flush attack: no loads, no cache misses from the
/// attacker — only flush-latency measurements.
pub fn flush_flush() -> Program {
    let mut a = Assembler::new("flush-flush");
    install_victim_segments(&mut a);
    let victim = a.label();
    let outer = a.label();
    a.jmp(outer);
    a.bind(victim);
    emit_victim(&mut a);

    a.bind(outer);
    a.li(Reg::R20, 0);
    let iter = a.label();
    a.bind(iter);
    a.mark(MarkKind::PhasePrime);
    // Reset: flush all monitored lines (untimed).
    a.li(Reg::R10, VICTIM_BUF as i64);
    a.li(Reg::R11, MONITORED_LINES as i64);
    let fl = a.label();
    a.bind(fl);
    a.flush(Reg::R10, 0);
    a.addi(Reg::R10, Reg::R10, LINE as i64);
    a.subi(Reg::R11, Reg::R11, 1);
    a.bnez(Reg::R11, fl);
    a.fence();

    a.mark(MarkKind::PhaseSpeculate);
    a.mv(Reg::R15, Reg::R20);
    a.call(victim);

    a.mark(MarkKind::PhaseProbe);
    // Time the flush of each line; the slowest flush hit cached data.
    let (k, best_t, best_k) = (Reg::R10, Reg::R11, Reg::R12);
    a.li(k, 0);
    a.li(best_t, -1);
    a.li(best_k, 0);
    let probe = a.label();
    let worse = a.label();
    a.bind(probe);
    a.shli(Reg::R5, k, 6);
    a.addi(Reg::R5, Reg::R5, VICTIM_BUF as i64);
    a.fence();
    a.rdcycle(Reg::R6);
    a.flush(Reg::R5, 0);
    a.rdcycle(Reg::R8);
    a.sub(Reg::R8, Reg::R8, Reg::R6);
    a.bge(best_t, Reg::R8, worse);
    a.mv(best_t, Reg::R8);
    a.mv(best_k, k);
    a.bind(worse);
    a.addi(k, k, 1);
    a.li(Reg::R5, MONITORED_LINES as i64);
    a.blt(k, Reg::R5, probe);

    emit_record_result(&mut a, Reg::R20, best_k);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, 31);
    a.jmp(iter);

    a.finish().expect("flush_flush assembles")
}

/// Builds the Prime+Probe attack: no flushes and no shared memory — the
/// attacker fills the victim's L1D sets with its own lines and times
/// re-loading them.
pub fn prime_probe() -> Program {
    let mut a = Assembler::new("prime-probe");
    install_victim_segments(&mut a);
    a.data(VICTIM_WORK, vec![9u8; (VICTIM_WORK_LINES * LINE) as usize]);
    let victim = a.label();
    let outer = a.label();
    a.jmp(outer);
    a.bind(victim);
    emit_victim_with_work(&mut a);

    a.bind(outer);
    a.li(Reg::R20, 0);
    let iter = a.label();
    a.bind(iter);
    a.mark(MarkKind::PhasePrime);
    // Prime the ENTIRE L1D with a tight linear sweep of a cache-sized
    // buffer (the classic full-cache prime). The victim's working set will
    // punch holes in it.
    let (s, w) = (Reg::R10, Reg::R11);
    // The sweep stops one line short of the arena end: the loop-exit
    // misprediction speculatively loads one line PAST the bound, and on a
    // power-of-two arena that wrong-path line maps back to set 0 —
    // polluting the attacker's own monitored sets. (Real PoCs fight the
    // same self-interference.)
    a.li(Reg::R5, PRIME_ARENA as i64);
    a.li(
        Reg::R6,
        (PRIME_ARENA + (L1D_SETS * L1D_WAYS - 1) * LINE) as i64,
    );
    let prime_sweep = a.label();
    a.bind(prime_sweep);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.addi(Reg::R5, Reg::R5, LINE as i64);
    a.blt(Reg::R5, Reg::R6, prime_sweep);
    a.fence(); // priming complete before the victim runs

    a.mark(MarkKind::PhaseSpeculate);
    a.mv(Reg::R15, Reg::R20);
    a.call(victim);

    a.mark(MarkKind::PhaseProbe);
    // Probe the non-monitored sets first (untimed bulk — the attacker
    // re-establishes its lines; the victim's working set makes these miss
    // and evict every iteration: the sustained contention footprint).
    // Sets 16..127 are contiguous within each way-sized block, so each way
    // is one tight linear sweep.
    a.li(w, 0);
    let bulk_way = a.label();
    a.bind(bulk_way);
    a.li(Reg::R5, L1D_SET_STRIDE as i64);
    a.mul(Reg::R5, Reg::R5, w);
    a.addi(
        Reg::R5,
        Reg::R5,
        (PRIME_ARENA + MONITORED_LINES * LINE) as i64,
    );
    // One line short of the way block: the exit misprediction's wrong-path
    // load lands in set 127 instead of wrapping to set 0.
    a.addi(
        Reg::R6,
        Reg::R5,
        ((L1D_SETS - MONITORED_LINES - 1) * LINE) as i64,
    );
    let bulk_sweep = a.label();
    a.bind(bulk_sweep);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.addi(Reg::R5, Reg::R5, LINE as i64);
    a.blt(Reg::R5, Reg::R6, bulk_sweep);
    a.addi(w, w, 1);
    a.li(Reg::R6, L1D_WAYS as i64);
    a.blt(w, Reg::R6, bulk_way);

    // Timed probe of the monitored sets: slowest = victim's nibble.
    let (best_t, best_s) = (Reg::R13, Reg::R14);
    a.li(best_t, -1);
    a.li(best_s, 0);
    a.li(s, 0);
    let pset = a.label();
    a.bind(pset);
    a.rdcycle(Reg::R12);
    a.li(w, 0);
    let pway = a.label();
    a.bind(pway);
    a.li(Reg::R5, L1D_SET_STRIDE as i64);
    a.mul(Reg::R5, Reg::R5, w);
    a.shli(Reg::R6, s, 6);
    a.add(Reg::R5, Reg::R5, Reg::R6);
    a.addi(Reg::R5, Reg::R5, PRIME_ARENA as i64);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.addi(w, w, 1);
    a.li(Reg::R6, L1D_WAYS as i64);
    a.blt(w, Reg::R6, pway);
    a.rdcycle(Reg::R8);
    a.sub(Reg::R8, Reg::R8, Reg::R12);
    let worse = a.label();
    a.bge(best_t, Reg::R8, worse);
    a.mv(best_t, Reg::R8);
    a.mv(best_s, s);
    a.bind(worse);
    a.addi(s, s, 1);
    a.li(Reg::R6, MONITORED_LINES as i64);
    a.blt(s, Reg::R6, pset);

    emit_record_result(&mut a, Reg::R20, best_s);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, 31);
    a.jmp(iter);

    a.finish().expect("prime_probe assembles")
}

/// Which cache-attack technique a calibration program profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationKind {
    /// Flush+Reload: hit vs. miss load latency.
    FlushReload,
    /// Flush+Flush: flush latency on cached vs. uncached lines.
    FlushFlush,
    /// Prime+Probe: primed-set reload latency with and without eviction.
    PrimeProbe,
}

impl CalibrationKind {
    /// Short identifier used in workload names.
    pub fn tag(self) -> &'static str {
        match self {
            CalibrationKind::FlushReload => "fr",
            CalibrationKind::FlushFlush => "ff",
            CalibrationKind::PrimeProbe => "pp",
        }
    }
}

/// Builds a calibration (threshold-profiling) program for the given attack
/// technique. These loop forever, measuring the fast/slow timing pairs the
/// attack will later threshold on, accumulating running sums in the results
/// buffer.
pub fn calibration(kind: CalibrationKind) -> Program {
    let mut a = Assembler::new(format!("calibration-{}", kind.tag()));
    install_victim_segments(&mut a);

    let outer = a.label();
    a.li(Reg::R20, 0); // accumulated fast time
    a.li(Reg::R21, 0); // accumulated slow time
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    a.li(Reg::R10, VICTIM_BUF as i64);

    match kind {
        CalibrationKind::FlushReload => {
            // Cached load (fast).
            a.loadb(Reg::R5, Reg::R10, 0);
            a.rdcycle(Reg::R6);
            a.loadb(Reg::R5, Reg::R10, 0);
            a.rdcycle(Reg::R7);
            a.sub(Reg::R7, Reg::R7, Reg::R6);
            a.add(Reg::R20, Reg::R20, Reg::R7);
            // Flushed load (slow).
            a.flush(Reg::R10, 0);
            a.rdcycle(Reg::R6);
            a.loadb(Reg::R5, Reg::R10, 0);
            a.rdcycle(Reg::R7);
            a.sub(Reg::R7, Reg::R7, Reg::R6);
            a.add(Reg::R21, Reg::R21, Reg::R7);
        }
        CalibrationKind::FlushFlush => {
            // Flush of uncached line (fast).
            a.flush(Reg::R10, 0);
            a.rdcycle(Reg::R6);
            a.flush(Reg::R10, 0);
            a.rdcycle(Reg::R7);
            a.sub(Reg::R7, Reg::R7, Reg::R6);
            a.add(Reg::R20, Reg::R20, Reg::R7);
            // Flush of cached line (slow).
            a.loadb(Reg::R5, Reg::R10, 0);
            a.rdcycle(Reg::R6);
            a.flush(Reg::R10, 0);
            a.rdcycle(Reg::R7);
            a.sub(Reg::R7, Reg::R7, Reg::R6);
            a.add(Reg::R21, Reg::R21, Reg::R7);
        }
        CalibrationKind::PrimeProbe => {
            // Prime+Probe calibration sweeps the whole cache, exactly like
            // the attack it is calibrating: time a hit-sweep of a primed
            // arena, then evict it with a conflicting arena and time the
            // miss-sweep. (One line short of each boundary for the same
            // wrong-path reason as the attack.)
            let sweep = |a: &mut Assembler, base: u64| {
                a.li(Reg::R10, base as i64);
                a.li(Reg::R11, (base + (L1D_SETS * L1D_WAYS - 1) * LINE) as i64);
                let lp = a.label();
                a.bind(lp);
                a.loadb(Reg::R5, Reg::R10, 0);
                a.addi(Reg::R10, Reg::R10, LINE as i64);
                a.blt(Reg::R10, Reg::R11, lp);
            };
            let conflict_arena = PRIME_ARENA + L1D_SETS * L1D_WAYS * LINE;
            // Prime, then timed hit-sweep (fast).
            sweep(&mut a, PRIME_ARENA);
            a.rdcycle(Reg::R12);
            sweep(&mut a, PRIME_ARENA);
            a.rdcycle(Reg::R13);
            a.sub(Reg::R13, Reg::R13, Reg::R12);
            a.add(Reg::R20, Reg::R20, Reg::R13);
            // Evict with the conflicting arena, then timed miss-sweep (slow).
            sweep(&mut a, conflict_arena);
            a.rdcycle(Reg::R12);
            sweep(&mut a, PRIME_ARENA);
            a.rdcycle(Reg::R13);
            a.sub(Reg::R13, Reg::R13, Reg::R12);
            a.add(Reg::R21, Reg::R21, Reg::R13);
        }
    }

    // Publish running sums (overflow-free enough for our run lengths).
    a.li(Reg::R5, crate::layout::RESULTS as i64);
    a.store(Reg::R20, Reg::R5, 40);
    a.store(Reg::R21, Reg::R5, 48);
    // Real calibration loops spend most of their time on bookkeeping
    // (histograms, statistics, printing) between measurements; model that
    // so the calibration's cache-traffic rate stays comparable to the
    // attack it calibrates rather than saturating the normalization maxima.
    crate::layout::emit_delay(&mut a, 2000);
    a.mark(MarkKind::IterationEnd);
    a.jmp(outer);

    a.finish().expect("calibration assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{RESULTS, SECRET};
    use crate::run_on_machine;

    fn nibble_of(i: u64) -> u8 {
        let b = SECRET[(i >> 1) as usize];
        if i & 1 == 0 {
            b >> 4
        } else {
            b & 15
        }
    }

    fn recovered_nibbles(p: Program, insts: u64) -> (usize, usize, sim_cpu::Machine) {
        let m = run_on_machine(p, insts);
        let core = m.core(0);
        let mut attempted = 0;
        let mut correct = 0;
        for i in 0..32u64 {
            let got = core.mem().memory().read(RESULTS + i, 1) as u8;
            attempted += 1;
            if got == nibble_of(i) {
                correct += 1;
            }
        }
        (correct, attempted, m)
    }

    #[test]
    fn flush_reload_recovers_victim_nibbles() {
        let (correct, _, m) = recovered_nibbles(flush_reload(), 2_000_000);
        let core = m.core(0);
        assert!(
            correct >= 24,
            "F+R should recover most nibbles, got {correct}/32"
        );
        assert!(
            core.stats().fetch.pending_quiesce_stall_cycles.value() > 0,
            "F+R's membar timing leaves a quiesce footprint"
        );
    }

    #[test]
    fn flush_flush_recovers_without_attacker_loads() {
        let (correct, _, m) = recovered_nibbles(flush_flush(), 2_000_000);
        let core = m.core(0);
        assert!(
            correct >= 20,
            "F+F should recover nibbles, got {correct}/32"
        );
        assert!(
            core.stats().commit.non_spec_stalls.value() > 0,
            "flush storms stall commit non-speculatively"
        );
    }

    #[test]
    fn prime_probe_detects_victim_set() {
        let (correct, _, m) = recovered_nibbles(prime_probe(), 4_000_000);
        assert!(
            correct >= 16,
            "P+P should recover nibbles, got {correct}/32"
        );
        assert!(
            m.uncore()
                .tol2bus()
                .stats()
                .trans_dist
                .get(sim_mem::MemCmd::CleanEvict)
                > 0,
            "priming evicts clean lines onto the L2 bus"
        );
    }

    #[test]
    fn calibrations_separate_fast_and_slow() {
        for kind in [
            CalibrationKind::FlushReload,
            CalibrationKind::FlushFlush,
            CalibrationKind::PrimeProbe,
        ] {
            let m = run_on_machine(calibration(kind), 300_000);
            let core = m.core(0);
            let fast = core.mem().memory().read(RESULTS + 40, 8);
            let slow = core.mem().memory().read(RESULTS + 48, 8);
            assert!(
                slow > fast,
                "{kind:?}: slow path ({slow}) must exceed fast path ({fast})"
            );
        }
    }
}
