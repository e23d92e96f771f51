//! Shared address-space layout and assembler building blocks for the attack
//! PoCs.

use uarch_isa::{Assembler, Reg};

/// Cache line size used throughout the workloads.
pub const LINE: u64 = 64;

/// The Flush+Reload probe array: 256 lines, one per possible byte value.
pub const PROBE_ARRAY: u64 = 0x10_0000;

/// SpectreV1's in-bounds array (16 bytes).
pub const ARRAY1: u64 = 0x20_0000;

/// Address holding `array1_size` (its own cache line, flushable).
pub const ARRAY1_SIZE_ADDR: u64 = 0x20_1000;

/// User-space secret the Spectre variants leak (reachable out-of-bounds
/// from [`ARRAY1`]). Deliberately placed on L1D set 16 so the victim's own
/// secret read does not alias the sets Prime+Probe monitors (sets 0..16).
pub const USER_SECRET: u64 = 0x24_0400;

/// Kernel-space secret (Meltdown / CacheOut territory; faults at commit).
pub const KERNEL_SECRET: u64 = 0x8000_0000;

/// Victim scratch buffer for the cache attacks.
pub const VICTIM_BUF: u64 = 0x30_0000;

/// Prime+Probe's eviction-set arena.
pub const PRIME_ARENA: u64 = 0x40_0000;

/// Recovered bytes are stored here so tests can verify end-to-end leakage.
pub const RESULTS: u64 = 0x50_0000;

/// The secret string every attack tries to recover.
pub const SECRET: &[u8] = b"TheMagicWords!!!";

/// Register conventions shared by the attack kit helpers: helpers clobber
/// only `R1..=R7`; workload state lives in `R10..=R25`.
pub mod regs {
    use uarch_isa::Reg;

    /// Scratch registers the kit helpers may clobber.
    pub const SCRATCH: [Reg; 7] = [
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
    ];
}

/// Emits a probe sweep over the 256 lines of [`PROBE_ARRAY`], timing each
/// reload and leaving the index of the fastest line (the leaked byte) in
/// `out`.
///
/// Clobbers `R1..=R7`. Relies on `rdcycle` being serializing, so no fences
/// are needed around the timed load.
pub fn emit_probe_argmin(a: &mut Assembler, out: Reg) {
    emit_probe_argmin_from(a, out, 0);
}

/// Like [`emit_probe_argmin`] but starting the sweep at line `first`.
///
/// The Spectre variants probe from 16: their training iterations
/// architecturally touch probe lines 0..16 (`array2[array1[x] * 64]` with
/// in-bounds `x`), and ASCII secrets are ≥ 32 anyway — the same reason the
/// original PoC can ignore its low lines.
pub fn emit_probe_argmin_from(a: &mut Assembler, out: Reg, first: i64) {
    let (idx, best_t) = (Reg::R1, Reg::R2);
    let (addr, t0, t1, limit) = (Reg::R3, Reg::R4, Reg::R5, Reg::R6);
    a.li(best_t, i64::MAX);
    a.li(out, 0);
    a.li(idx, first);
    a.li(limit, 256);
    let top = a.label();
    let not_better = a.label();
    a.bind(top);
    a.shli(addr, idx, 6);
    a.addi(addr, addr, PROBE_ARRAY as i64);
    a.rdcycle(t0);
    a.loadb(Reg::R7, addr, 0);
    a.rdcycle(t1);
    a.sub(t1, t1, t0);
    a.bge(t1, best_t, not_better);
    a.mv(best_t, t1);
    a.mv(out, idx);
    a.bind(not_better);
    a.addi(idx, idx, 1);
    a.blt(idx, limit, top);
}

/// Emits a flush of `lines` consecutive cache lines starting at `base`.
///
/// Clobbers `R1` and `R2`.
pub fn emit_flush_range(a: &mut Assembler, base: u64, lines: u64) {
    let (addr, limit) = (Reg::R1, Reg::R2);
    a.li(addr, base as i64);
    a.li(limit, (base + lines * LINE) as i64);
    let top = a.label();
    a.bind(top);
    a.flush(addr, 0);
    a.addi(addr, addr, LINE as i64);
    a.blt(addr, limit, top);
}

/// Emits loads touching `lines` consecutive cache lines starting at `base`
/// (pre-warming or priming).
///
/// Clobbers `R1..=R3`.
pub fn emit_touch_range(a: &mut Assembler, base: u64, lines: u64) {
    let (addr, limit) = (Reg::R1, Reg::R2);
    a.li(addr, base as i64);
    a.li(limit, (base + lines * LINE) as i64);
    let top = a.label();
    a.bind(top);
    a.loadb(Reg::R3, addr, 0);
    a.addi(addr, addr, LINE as i64);
    a.blt(addr, limit, top);
}

/// Emits a busy-wait of roughly `iters` ALU iterations (safe filler used by
/// the bandwidth-reduction evasion variants).
///
/// Clobbers `R1`.
pub fn emit_delay(a: &mut Assembler, iters: i64) {
    if iters <= 0 {
        return;
    }
    let c = Reg::R1;
    a.li(c, iters);
    let top = a.label();
    a.bind(top);
    a.subi(c, c, 1);
    a.bnez(c, top);
}

/// Emits `mem8[RESULTS + slot_reg] = byte_reg` — recording a recovered
/// byte for end-to-end verification.
///
/// Clobbers `R1`.
pub fn emit_record_result(a: &mut Assembler, slot: Reg, byte: Reg) {
    let addr = Reg::R1;
    a.li(addr, RESULTS as i64);
    a.add(addr, addr, slot);
    a.storeb(byte, addr, 0);
}

/// Installs the standard data segments most attacks need: the probe array,
/// `array1` + its size, the user secret, and the results buffer.
pub fn install_common_segments(a: &mut Assembler) {
    a.data(PROBE_ARRAY, vec![1u8; 256 * LINE as usize]);
    a.data(
        ARRAY1,
        vec![0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    );
    a.data(ARRAY1_SIZE_ADDR, 16u64.to_le_bytes().to_vec());
    a.data(USER_SECRET, SECRET.to_vec());
    a.data(RESULTS, vec![0u8; 64]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_machine;

    #[test]
    fn probe_argmin_finds_the_cached_line() {
        let mut a = Assembler::new("probe-test");
        install_common_segments(&mut a);
        // Flush the whole probe array, then touch line 0x41 only.
        emit_flush_range(&mut a, PROBE_ARRAY, 256);
        a.li(Reg::R10, (PROBE_ARRAY + 0x41 * LINE) as i64);
        a.loadb(Reg::R11, Reg::R10, 0);
        emit_probe_argmin(&mut a, Reg::R20);
        a.halt();
        let m = run_on_machine(a.finish().unwrap(), 2_000_000);
        let core = m.core(0);
        assert!(core.halted());
        assert_eq!(
            core.reg(Reg::R20),
            0x41,
            "fastest probe line = touched line"
        );
    }

    #[test]
    fn delay_loop_executes_expected_iterations() {
        let mut a = Assembler::new("delay-test");
        emit_delay(&mut a, 50);
        a.halt();
        let m = run_on_machine(a.finish().unwrap(), 10_000);
        assert!(m.all_halted());
        // 2 instructions per iteration plus setup.
        assert!(m.total_committed() >= 100);
    }

    #[test]
    fn record_result_writes_to_results_buffer() {
        let mut a = Assembler::new("record-test");
        install_common_segments(&mut a);
        a.li(Reg::R10, 3); // slot
        a.li(Reg::R11, 0x5a); // byte
        emit_record_result(&mut a, Reg::R10, Reg::R11);
        a.halt();
        let m = run_on_machine(a.finish().unwrap(), 10_000);
        let core = m.core(0);
        assert_eq!(core.mem().memory().read(RESULTS + 3, 1), 0x5a);
    }
}
