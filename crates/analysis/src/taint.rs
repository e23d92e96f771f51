//! Speculative-taint dataflow and gadget detection.
//!
//! A forward fixpoint over the CFG tracks, per register:
//!
//! - a **base value** ([`Base`]): a known constant, a pointer with a known
//!   region base (`Ptr`), or unknown (`Top`);
//! - **taint tags** ([`Taint`]): whether the value came from memory, from a
//!   statically-flushed cache line, from kernel-space data, the set of load
//!   instructions it originated from, and the set of `rdcycle` instructions
//!   it derives from.
//!
//! Implicit flows are approximated structurally: the assembler emits
//! structured code, so a forward conditional branch at `i` targeting `t > i+1`
//! guards the linear region `[i+1, t)`; definitions inside the region pick up
//! the branch condition's data taint (this is what catches the
//! predicate-encoding `leak-cmp` Spectre variant). Flushed cache lines are
//! collected from `clflush` instructions whose address resolves to a constant;
//! both sets feed back into the dataflow until the whole system stabilizes.
//!
//! On top of the fixpoint, six detectors flag the gadget patterns the attack
//! corpus uses (see [`GadgetKind`]): bounds-check-bypass speculation windows,
//! kernel-data dereferences, BTB injection, return-address hijacking, and
//! timed-load / timed-flush side-channel probes.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use uarch_isa::{AluOp, GadgetKind, Inst, Program, Reg};

use crate::callgraph::CallGraph;
use crate::cfg::{path_condition, Cfg, DomTree, LoopForest};
use crate::specwindow::SpecWindow;

/// Cache line size assumed when matching flushed lines.
pub const LINE: u64 = 64;

/// Constants at or above this are treated as pointer-region bases when they
/// flow into address arithmetic (`base + unknown index`).
const PTR_MIN: i64 = 0x1000;

/// Abstract base value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Unknown.
    Top,
    /// Exactly this constant.
    Const(i64),
    /// `base + unknown offset` — the result of indexing off a known region.
    Ptr(u64),
}

/// Taint tags carried by a register value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Taint {
    /// Derived from a memory load.
    pub mem: bool,
    /// Derived (directly or transitively) from a statically-flushed line.
    pub flushed: bool,
    /// Derived from kernel-space data.
    pub kernel: bool,
    /// Load instructions (indices) this value originates from.
    pub loads: BTreeSet<usize>,
    /// `rdcycle` instructions (indices) this value derives from.
    pub cycles: BTreeSet<usize>,
}

impl Taint {
    fn is_empty_data(&self) -> bool {
        !self.mem && !self.flushed && !self.kernel && self.loads.is_empty()
    }

    /// Unions all tags; returns whether `self` changed.
    fn union_with(&mut self, o: &Taint) -> bool {
        let before = (
            self.mem,
            self.flushed,
            self.kernel,
            self.loads.len(),
            self.cycles.len(),
        );
        self.mem |= o.mem;
        self.flushed |= o.flushed;
        self.kernel |= o.kernel;
        self.loads.extend(o.loads.iter().copied());
        self.cycles.extend(o.cycles.iter().copied());
        before
            != (
                self.mem,
                self.flushed,
                self.kernel,
                self.loads.len(),
                self.cycles.len(),
            )
    }

    /// Unions only the data tags (everything but the cycle origins) — the
    /// part that propagates through implicit control dependences.
    fn union_data(&mut self, o: &Taint) {
        self.mem |= o.mem;
        self.flushed |= o.flushed;
        self.kernel |= o.kernel;
        self.loads.extend(o.loads.iter().copied());
    }
}

/// Abstract value of one register.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsVal {
    /// Base-value abstraction.
    pub base: Base,
    /// Taint tags.
    pub tags: Taint,
}

impl AbsVal {
    fn top() -> Self {
        AbsVal {
            base: Base::Top,
            tags: Taint::default(),
        }
    }

    fn join_with(&mut self, o: &AbsVal) -> bool {
        let mut changed = false;
        let joined = if self.base == o.base {
            self.base
        } else {
            Base::Top
        };
        if joined != self.base {
            self.base = joined;
            changed = true;
        }
        changed | self.tags.union_with(&o.tags)
    }
}

type State = Vec<AbsVal>;

fn initial_state() -> State {
    let mut s = vec![AbsVal::top(); Reg::COUNT];
    // r0 is pinned to zero by the assembler's implicit prologue, which runs
    // before any root (including the fault handler) can be entered.
    s[0] = AbsVal {
        base: Base::Const(0),
        tags: Taint::default(),
    };
    s
}

/// A detected gadget, with the severity metadata the speculative-window
/// model attaches ([`SpecWindow::severity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What pattern matched.
    pub kind: GadgetKind,
    /// Instruction index the finding anchors to.
    pub at: usize,
    /// Human-readable explanation.
    pub detail: String,
    /// Name of the function containing the anchor (from the call graph).
    pub func: String,
    /// Control-flow path condition guarding the anchor block (empty when
    /// reached unconditionally) — see [`path_condition`].
    pub path: String,
    /// Whether the anchor sits inside a natural loop (training/probe
    /// cadence).
    pub in_loop: bool,
    /// Whether the gadget's dependent pair spans a call/return boundary.
    pub cross_function: bool,
    /// Transient depth (instructions past the mispredicted branch) at which
    /// the second load of a dependent pair executes, when applicable.
    pub pair_depth: Option<usize>,
    /// Severity score, 0–100.
    pub severity: u32,
    /// Estimated leak bandwidth in bits per second.
    pub bandwidth: u64,
}

impl Finding {
    /// A bare finding; the severity metadata is attached by
    /// [`detect`]'s decoration pass.
    fn new(kind: GadgetKind, at: usize, detail: String) -> Finding {
        Finding {
            kind,
            at,
            detail,
            func: String::new(),
            path: String::new(),
            in_loop: false,
            cross_function: false,
            pair_depth: None,
            severity: 0,
            bandwidth: 0,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} sev={}] @{} in {}: {}",
            self.kind, self.severity, self.at, self.func, self.detail
        )
    }
}

/// The converged dataflow facts.
#[derive(Debug)]
pub struct TaintResult {
    /// Pre-state (abstract register file) before each instruction.
    pub pre: Vec<State>,
    /// Cache lines (address / [`LINE`]) flushed at statically-resolved
    /// addresses.
    pub flushed_lines: BTreeSet<u64>,
    /// `clflush` sites whose address did not resolve to a constant (flush
    /// loops after the first iteration, pointer-relative flushes).
    pub unresolved_flushes: usize,
}

fn eval(op: AluOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        AluOp::Add => x.wrapping_add(y),
        AluOp::Sub => x.wrapping_sub(y),
        AluOp::Mul => x.wrapping_mul(y),
        AluOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        AluOp::Rem => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        AluOp::And => x & y,
        AluOp::Or => x | y,
        AluOp::Xor => x ^ y,
        AluOp::Shl => ((x as u64) << (y as u64 & 63)) as i64,
        AluOp::Shr => ((x as u64) >> (y as u64 & 63)) as i64,
        AluOp::Sar => x >> (y as u64 & 63),
        AluOp::Slt => (x < y) as i64,
        AluOp::Sltu => ((x as u64) < (y as u64)) as i64,
    })
}

fn alu_base(op: AluOp, a: Base, b: Base) -> Base {
    if let (Base::Const(x), Base::Const(y)) = (a, b) {
        return eval(op, x, y).map_or(Base::Top, Base::Const);
    }
    match op {
        AluOp::Add => match (a, b) {
            (Base::Ptr(p), Base::Const(k)) | (Base::Const(k), Base::Ptr(p)) => {
                Base::Ptr(p.wrapping_add_signed(k))
            }
            (Base::Ptr(p), _) | (_, Base::Ptr(p)) => Base::Ptr(p),
            // `base + unknown index` with a pointer-sized constant base:
            // the canonical array-indexing idiom.
            (Base::Const(c), _) | (_, Base::Const(c)) if c >= PTR_MIN => Base::Ptr(c as u64),
            _ => Base::Top,
        },
        AluOp::Sub => match (a, b) {
            (Base::Ptr(p), Base::Const(k)) => Base::Ptr(p.wrapping_add_signed(-k)),
            _ => Base::Top,
        },
        _ => Base::Top,
    }
}

/// `(possible address, exact)`: exact means the full address is a known
/// constant; inexact means only the region base is known (`Ptr`).
fn abs_addr(v: &AbsVal, offset: i64) -> (Option<u64>, bool) {
    match v.base {
        Base::Const(c) => (Some(c.wrapping_add(offset) as u64), true),
        Base::Ptr(p) => (Some(p.wrapping_add_signed(offset)), false),
        Base::Top => (None, false),
    }
}

struct Ctx<'a> {
    program: &'a Program,
    kernel_base: u64,
    flushed: &'a BTreeSet<u64>,
    implicit: &'a [Taint],
}

impl Ctx<'_> {
    fn is_kernel(&self, addr: u64) -> bool {
        addr >= self.kernel_base || self.program.is_kernel_addr(addr)
    }

    fn transfer(&self, s: &mut State, idx: usize) {
        let inst = self.program.code()[idx];
        let r = |s: &State, reg: Reg| s[reg.index()].clone();
        let new = match inst {
            Inst::Li { imm, .. } => {
                let mut tags = Taint::default();
                tags.union_data(&self.implicit[idx]);
                Some(AbsVal {
                    base: Base::Const(imm),
                    tags,
                })
            }
            Inst::Alu { op, ra, rb, .. } => {
                let (a, b) = (r(s, ra), r(s, rb));
                let mut tags = a.tags.clone();
                tags.union_with(&b.tags);
                tags.union_data(&self.implicit[idx]);
                Some(AbsVal {
                    base: alu_base(op, a.base, b.base),
                    tags,
                })
            }
            Inst::AluI { op, ra, imm, .. } => {
                let a = r(s, ra);
                let mut tags = a.tags.clone();
                tags.union_data(&self.implicit[idx]);
                Some(AbsVal {
                    base: alu_base(op, a.base, Base::Const(imm)),
                    tags,
                })
            }
            Inst::Falu { ra, rb, .. } => {
                let mut tags = r(s, ra).tags;
                tags.union_with(&r(s, rb).tags);
                tags.union_data(&self.implicit[idx]);
                Some(AbsVal {
                    base: Base::Top,
                    tags,
                })
            }
            Inst::Load { base, offset, .. } => {
                let a = r(s, base);
                let (addr, exact) = abs_addr(&a, offset);
                let mut tags = Taint {
                    mem: true,
                    ..Taint::default()
                };
                tags.loads.insert(idx);
                tags.flushed = a.tags.flushed
                    || (exact && addr.is_some_and(|ad| self.flushed.contains(&(ad / LINE))));
                tags.kernel = a.tags.kernel || addr.is_some_and(|ad| self.is_kernel(ad));
                tags.union_data(&self.implicit[idx]);
                Some(AbsVal {
                    base: Base::Top,
                    tags,
                })
            }
            Inst::RdCycle { .. } => {
                let mut tags = Taint::default();
                tags.cycles.insert(idx);
                Some(AbsVal {
                    base: Base::Top,
                    tags,
                })
            }
            _ => None,
        };
        if let (Some(v), Some(rd)) = (new, inst.dest()) {
            s[rd.index()] = v;
        }
    }
}

/// Runs the dataflow to a fixpoint and returns the pre-state of every
/// instruction plus the resolved flush set.
///
/// `ret` successors are the call graph's matched return targets
/// ([`CallGraph::ret_successors`]) rather than the CFG's global return-site
/// approximation, so a value tainted inside one callee flows only to the
/// continuations of call sites that can actually invoke it.
pub fn propagate(program: &Program, cfg: &Cfg, cg: &CallGraph, kernel_base: u64) -> TaintResult {
    let code = program.code();
    let n = code.len();
    let mut flushed: BTreeSet<u64> = BTreeSet::new();
    let mut implicit: Vec<Taint> = vec![Taint::default(); n];
    let mut pre: Vec<State> = Vec::new();
    let mut unresolved = 0;

    // Outer loop: the flush set and the implicit-flow map feed back into the
    // dataflow. Base values never depend on tags, so the flush set is stable
    // after the first round; implicit tags grow monotonically, so this
    // converges (the bound is a safety net).
    for _ in 0..8 {
        let ctx = Ctx {
            program,
            kernel_base,
            flushed: &flushed,
            implicit: &implicit,
        };
        pre = fixpoint(&ctx, cfg, cg, n);

        let mut new_flushed = BTreeSet::new();
        unresolved = 0;
        for (i, inst) in code.iter().enumerate() {
            if let Inst::Flush { base, offset } = *inst {
                match abs_addr(&pre[i][base.index()], offset) {
                    (Some(addr), true) => {
                        new_flushed.insert(addr / LINE);
                    }
                    _ => unresolved += 1,
                }
            }
        }

        let mut new_implicit = vec![Taint::default(); n];
        for (i, inst) in code.iter().enumerate() {
            if let Inst::Branch { ra, rb, target, .. } = *inst {
                if target > i + 1 && target <= n {
                    let mut t = Taint::default();
                    t.union_data(&pre[i][ra.index()].tags);
                    t.union_data(&pre[i][rb.index()].tags);
                    if !t.is_empty_data() {
                        for item in new_implicit.iter_mut().take(target).skip(i + 1) {
                            item.union_data(&t);
                        }
                    }
                }
            }
        }

        if new_flushed == flushed && new_implicit == implicit {
            break;
        }
        flushed = new_flushed;
        implicit = new_implicit;
    }

    TaintResult {
        pre,
        flushed_lines: flushed,
        unresolved_flushes: unresolved,
    }
}

fn fixpoint(ctx: &Ctx<'_>, cfg: &Cfg, cg: &CallGraph, n: usize) -> Vec<State> {
    let blocks = cfg.blocks();
    let code = ctx.program.code();
    let mut entry: Vec<Option<State>> = vec![None; blocks.len()];
    for &root in cfg.roots() {
        entry[root] = Some(initial_state());
    }
    let mut work: Vec<usize> = cfg.roots().to_vec();
    while let Some(b) = work.pop() {
        let Some(state) = entry[b].clone() else {
            continue;
        };
        let mut s = state;
        for i in blocks[b].start..blocks[b].end {
            ctx.transfer(&mut s, i);
        }
        // A `ret` flows only to its call-graph-matched return sites; every
        // other terminator uses the CFG edges.
        let succs: Vec<usize> = if matches!(code[blocks[b].terminator()], Inst::Ret) {
            cg.ret_successors(b)
        } else {
            blocks[b].succs.clone()
        };
        for &succ in &succs {
            match &mut entry[succ] {
                Some(dst) => {
                    let mut changed = false;
                    for (d, v) in dst.iter_mut().zip(&s) {
                        changed |= d.join_with(v);
                    }
                    if changed {
                        work.push(succ);
                    }
                }
                slot @ None => {
                    *slot = Some(s.clone());
                    work.push(succ);
                }
            }
        }
    }

    // Per-instruction pre-states: walk each block from its converged entry.
    // Blocks never reached by the dataflow use the all-unknown initial state
    // (conservative, keeps `pre` total).
    let mut pre = vec![initial_state(); n];
    for (b, blk) in blocks.iter().enumerate() {
        let mut s = entry[b].clone().unwrap_or_else(initial_state);
        for (i, slot) in pre.iter_mut().enumerate().take(blk.end).skip(blk.start) {
            *slot = s.clone();
            ctx.transfer(&mut s, i);
        }
    }
    pre
}

/// The guarded region of a forward conditional branch at `i` targeting `t`:
/// the linear shadow `[i+1, t)` extended through `call`s into their callee
/// bodies (speculation past the check follows calls too — the `fn-leak`
/// Spectre variant leaks from a called function).
fn guarded_region(cfg: &Cfg, code: &[Inst], i: usize, t: usize) -> BTreeSet<usize> {
    let mut region: BTreeSet<usize> = (i + 1..t.min(code.len())).collect();
    let mut frontier: Vec<usize> = region
        .iter()
        .filter_map(|&j| match code[j] {
            Inst::Call { target } if target < code.len() => Some(target),
            _ => None,
        })
        .collect();
    while let Some(callee) = frontier.pop() {
        for j in cfg.span_from(cfg.block_of(callee), code) {
            if region.insert(j) {
                if let Inst::Call { target } = code[j] {
                    if target < code.len() {
                        frontier.push(target);
                    }
                }
            }
        }
    }
    region
}

/// Instruction indices a `call` at `c` can lead into (its callee, followed
/// transitively, without traversing return edges).
fn callee_span(cfg: &Cfg, code: &[Inst], c: usize) -> Vec<usize> {
    match code[c] {
        Inst::Call { target } if target < code.len() => cfg.span_from(cfg.block_of(target), code),
        _ => Vec::new(),
    }
}

/// The structural analyses [`detect`] consumes alongside the taint facts.
pub struct AnalysisCtx<'a> {
    /// The control-flow graph.
    pub cfg: &'a Cfg,
    /// The call graph (matched returns, function names).
    pub cg: &'a CallGraph,
    /// Dominator tree (path conditions).
    pub dom: &'a DomTree,
    /// Natural loops (training/probe cadence).
    pub loops: &'a LoopForest,
    /// The speculative-window model (severity, bandwidth, depth bound).
    pub window: &'a SpecWindow,
}

/// Deepest call stack the transient walk tracks (the RAS depth of the
/// Table II machine — deeper speculation returns through the RSB anyway).
const TRANSIENT_STACK_CAP: usize = 16;

/// Safety valve on the transient walk's total work.
const TRANSIENT_BUDGET: usize = 50_000;

/// The set of instructions transiently reachable from `from` within
/// `limit` instructions, mapped to their minimum transient depth.
///
/// The walk is an interprocedural BFS: calls push the fall-through on a
/// bounded return stack and enter the callee; `ret` pops the stack (or,
/// bare, falls back to the call graph's matched return sites); branches
/// fork both ways (transient execution may follow either arm); `fence`
/// and `halt` terminate the path. Unlike [`guarded_region`], the walk
/// crosses matched call/return boundaries — this is what lets the
/// bounds-bypass detector pair a secret load in a callee with a probe
/// load in its caller.
fn transient_region(
    cfg: &Cfg,
    cg: &CallGraph,
    code: &[Inst],
    from: usize,
    limit: usize,
) -> BTreeMap<usize, usize> {
    let n = code.len();
    let mut depth_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen: HashSet<(usize, Vec<usize>)> = HashSet::new();
    let mut queue: VecDeque<(usize, usize, Vec<usize>)> = VecDeque::new();
    if from < n {
        queue.push_back((from, 0, Vec::new()));
    }
    let mut budget = TRANSIENT_BUDGET;
    while let Some((idx, depth, stack)) = queue.pop_front() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        if !seen.insert((idx, stack.clone())) {
            continue;
        }
        let slot = depth_of.entry(idx).or_insert(depth);
        *slot = (*slot).min(depth);
        if depth >= limit {
            continue;
        }
        let d = depth + 1;
        let push = |queue: &mut VecDeque<_>, t: usize, st: Vec<usize>| {
            if t < n {
                queue.push_back((t, d, st));
            }
        };
        match code[idx] {
            // A fence drains the window; a halt ends the program.
            Inst::Fence | Inst::Halt => {}
            Inst::Branch { target, .. } => {
                push(&mut queue, idx + 1, stack.clone());
                push(&mut queue, target, stack);
            }
            Inst::Jump { target } => push(&mut queue, target, stack),
            Inst::JumpInd { .. } => {
                for &b in cfg.address_taken() {
                    push(&mut queue, cfg.blocks()[b].start, stack.clone());
                }
            }
            Inst::Call { target } => {
                if stack.len() < TRANSIENT_STACK_CAP {
                    let mut st = stack;
                    st.push(idx + 1);
                    push(&mut queue, target, st);
                }
            }
            Inst::CallInd { .. } => {
                if stack.len() < TRANSIENT_STACK_CAP {
                    for &b in cfg.address_taken() {
                        let mut st = stack.clone();
                        st.push(idx + 1);
                        push(&mut queue, cfg.blocks()[b].start, st);
                    }
                }
            }
            Inst::Ret => {
                let mut st = stack;
                if let Some(r) = st.pop() {
                    push(&mut queue, r, st);
                } else {
                    // Entered transiently without a matching call: return
                    // to the matched sites of the containing function.
                    for t in cg.ret_successors(cfg.block_of(idx)) {
                        push(&mut queue, cfg.blocks()[t].start, Vec::new());
                    }
                }
            }
            _ => push(&mut queue, idx + 1, stack),
        }
    }
    depth_of
}

/// Runs all gadget detectors over the converged dataflow facts, then
/// decorates every finding with its function, path condition, loop
/// membership, severity and estimated bandwidth.
pub fn detect(program: &Program, ctx: &AnalysisCtx<'_>, taint: &TaintResult) -> Vec<Finding> {
    let (cfg, cg) = (ctx.cfg, ctx.cg);
    let code = program.code();
    let pre = &taint.pre;
    let mut findings: Vec<Finding> = Vec::new();

    // Timed-load / timed-flush probes: a subtraction of two distinct cycle
    // counter reads whose program-order window brackets a load or a flush.
    for (i, inst) in code.iter().enumerate() {
        let Inst::Alu {
            op: AluOp::Sub,
            ra,
            rb,
            ..
        } = *inst
        else {
            continue;
        };
        let ca = &pre[i][ra.index()].tags.cycles;
        let cb = &pre[i][rb.index()].tags.cycles;
        let mut best: Option<(usize, usize)> = None;
        for &a in ca {
            for &b in cb {
                if a != b {
                    let w = (a.min(b), a.max(b));
                    if best.is_none_or(|cur| w.1 - w.0 < cur.1 - cur.0) {
                        best = Some(w);
                    }
                }
            }
        }
        let Some((lo, hi)) = best else { continue };
        let window = &code[lo + 1..hi];
        if window.iter().any(|x| matches!(x, Inst::Load { .. })) {
            findings.push(Finding::new(
                GadgetKind::TimedLoad,
                i,
                format!("cycle delta of rdcycle@{lo}/rdcycle@{hi} brackets a load"),
            ));
        }
        if window.iter().any(|x| matches!(x, Inst::Flush { .. })) {
            findings.push(Finding::new(
                GadgetKind::TimedFlush,
                i,
                format!("cycle delta of rdcycle@{lo}/rdcycle@{hi} brackets a clflush"),
            ));
        }
    }

    // Kernel reads: a load whose address derives from kernel-space data (the
    // transmitting half of a Meltdown gadget). The first, faulting load is
    // what plants the kernel tag.
    for (i, inst) in code.iter().enumerate() {
        let Inst::Load { base, .. } = *inst else {
            continue;
        };
        if pre[i][base.index()].tags.kernel {
            findings.push(Finding::new(
                GadgetKind::KernelRead,
                i,
                "load address derives from kernel-space data".to_string(),
            ));
        }
    }

    // BTB injection: an indirect call/jump whose target came from memory —
    // the attacker-reachable half of a SpectreV2 site.
    for (i, inst) in code.iter().enumerate() {
        let base = match *inst {
            Inst::CallInd { base } | Inst::JumpInd { base } => base,
            _ => continue,
        };
        if pre[i][base.index()].tags.mem {
            findings.push(Finding::new(
                GadgetKind::BtbInjection,
                i,
                "indirect control target loaded from memory".to_string(),
            ));
        }
    }

    // Return hijack: a `setret` inside a called function whose replacement
    // target is not the calling site's fall-through (SpectreRSB's unmatched
    // call/return pair). An unresolvable target is treated as a hijack.
    let calls: Vec<usize> = (0..code.len())
        .filter(|&c| matches!(code[c], Inst::Call { .. }))
        .collect();
    for (i, inst) in code.iter().enumerate() {
        let Inst::SetRet { base } = *inst else {
            continue;
        };
        let legit = match pre[i][base.index()].base {
            Base::Const(t) => calls
                .iter()
                .any(|&c| t as usize == c + 1 && callee_span(cfg, code, c).contains(&i)),
            _ => false,
        };
        if !legit {
            findings.push(Finding::new(
                GadgetKind::RetHijack,
                i,
                "return address replaced with a non-return-site target".to_string(),
            ));
        }
    }

    // Speculative bounds-check bypass: a forward conditional branch whose
    // resolution is slow (its condition, or a load in its shadow, depends on
    // a statically-flushed line) guarding a dependent load pair — and no
    // fence inside the window.
    for (i, inst) in code.iter().enumerate() {
        let Inst::Branch { ra, rb, target, .. } = *inst else {
            continue;
        };
        if target <= i + 1 {
            continue; // backward or degenerate: loop branches don't guard
        }
        let region = guarded_region(cfg, code, i, target);
        let cond_slow = pre[i][ra.index()].tags.flushed || pre[i][rb.index()].tags.flushed;
        let shadow_flushed_load = region.iter().any(|&j| {
            let Inst::Load { base, offset, .. } = code[j] else {
                return false;
            };
            let v = &pre[j][base.index()];
            let (addr, exact) = abs_addr(v, offset);
            v.tags.flushed
                || (exact && addr.is_some_and(|ad| taint.flushed_lines.contains(&(ad / LINE))))
        });
        if !(cond_slow || shadow_flushed_load) {
            continue;
        }
        if region.iter().any(|&j| matches!(code[j], Inst::Fence)) {
            continue; // serialized: the window is closed
        }
        // Pair search over the *transient* region: everything reachable
        // within the speculative window, crossing matched call/return
        // boundaries. The guarded region above decides whether the branch
        // is a slow, unfenced guard at all; the transient walk decides how
        // far the misprediction can carry a dependent pair.
        let transient = transient_region(cfg, cg, code, i + 1, ctx.window.transient_limit());
        // A realizable pair must execute l1 before l2 *within one window*:
        // l1's transient depth must be strictly below l2's. (Taint sets
        // also carry dependences through the enclosing architectural loop,
        // where l1 sits later in the trace — those are not transient
        // pairs.)
        let pair = transient.iter().find_map(|(&l2, &d2)| {
            let Inst::Load { base, .. } = code[l2] else {
                return None;
            };
            pre[l2][base.index()]
                .tags
                .loads
                .iter()
                .find(|l1| transient.get(l1).is_some_and(|&d1| d1 < d2))
                .map(|&l1| (l1, l2))
        });
        if let Some((l1, l2)) = pair {
            let cross = cg.name_of_block(cfg.block_of(l1)) != cg.name_of_block(cfg.block_of(l2))
                || cg.name_of_block(cfg.block_of(i)) != cg.name_of_block(cfg.block_of(l2));
            let mut f = Finding::new(
                GadgetKind::SpecBoundsBypass,
                i,
                format!("slow guard shadows dependent loads @{l1} -> @{l2} with no fence"),
            );
            f.cross_function = cross;
            f.pair_depth = transient.get(&l2).copied();
            findings.push(f);
        }
    }

    // Decoration: every finding gets its function, path condition, loop
    // membership, severity score and bandwidth estimate.
    for f in &mut findings {
        let b = cfg.block_of(f.at);
        f.func = cg.name_of_block(b).to_string();
        f.path = path_condition(cfg, ctx.dom, code, b);
        f.in_loop = ctx.loops.innermost(b).is_some();
        f.severity = ctx
            .window
            .severity(f.kind, f.in_loop, f.cross_function, f.pair_depth);
        f.bandwidth = ctx
            .window
            .leak_bandwidth(f.kind, cfg, ctx.loops, f.at, code.len());
    }

    findings.sort_by_key(|f| (f.at, f.kind));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_isa::{AsmError, Assembler, Reg};

    fn kinds(p: &Program) -> BTreeSet<GadgetKind> {
        crate::analyze_program(p).kinds()
    }

    const BOUND: i64 = 0x2000;
    const ARR: i64 = 0x3000;
    const PROBE: i64 = 0x8000;

    fn mini_spectre(fenced: bool) -> Program {
        let mut a = Assembler::new(if fenced {
            "mini-fenced"
        } else {
            "mini-spectre"
        });
        a.data(BOUND as u64, 8u64.to_le_bytes().to_vec());
        a.data(ARR as u64, vec![1u8; 64]);
        a.data(PROBE as u64, vec![0u8; 64 * 256]);
        let skip = a.label();
        let (x, y, size) = (Reg::R1, Reg::R2, Reg::R3);
        a.li(x, 3);
        a.li(Reg::R5, BOUND);
        a.flush(Reg::R5, 0);
        a.load(size, Reg::R5, 0);
        a.bge(x, size, skip);
        if fenced {
            a.fence();
        }
        a.li(Reg::R5, ARR);
        a.add(Reg::R5, Reg::R5, x);
        a.loadb(y, Reg::R5, 0);
        a.shli(y, y, 6);
        a.addi(y, y, PROBE);
        a.loadb(Reg::R6, y, 0);
        a.bind(skip);
        a.halt();
        a.finish().expect("mini-spectre assembles")
    }

    #[test]
    fn mini_spectre_is_flagged() {
        assert_eq!(
            kinds(&mini_spectre(false)),
            BTreeSet::from([GadgetKind::SpecBoundsBypass])
        );
    }

    #[test]
    fn fence_closes_the_window() {
        assert!(kinds(&mini_spectre(true)).is_empty());
    }

    #[test]
    fn kernel_dependent_load_is_flagged() -> Result<(), AsmError> {
        let mut a = Assembler::new("mini-meltdown");
        a.kernel_data(0x8000_0000, vec![42u8; 8]);
        a.data(PROBE as u64, vec![0u8; 64 * 256]);
        let (s, y) = (Reg::R1, Reg::R2);
        a.li(s, 0x8000_0000u32 as i64);
        a.loadb(y, s, 0);
        a.shli(y, y, 6);
        a.addi(y, y, PROBE);
        a.loadb(Reg::R3, y, 0);
        a.halt();
        let p = a.finish()?;
        assert_eq!(kinds(&p), BTreeSet::from([GadgetKind::KernelRead]));
        Ok(())
    }

    #[test]
    fn memory_loaded_indirect_target_is_flagged() -> Result<(), AsmError> {
        let mut a = Assembler::new("mini-btb");
        a.data(0x2000, vec![0u8; 8]);
        let f = a.label();
        a.li(Reg::R1, 0x2000);
        a.load(Reg::R2, Reg::R1, 0);
        a.call_ind(Reg::R2);
        a.halt();
        a.bind(f);
        a.ret();
        let p = a.finish()?;
        assert_eq!(kinds(&p), BTreeSet::from([GadgetKind::BtbInjection]));
        Ok(())
    }

    #[test]
    fn register_indirect_target_is_clean() -> Result<(), AsmError> {
        let mut a = Assembler::new("mini-ind-clean");
        let f = a.label();
        a.la(Reg::R2, f);
        a.call_ind(Reg::R2);
        a.halt();
        a.bind(f);
        a.ret();
        let p = a.finish()?;
        assert!(kinds(&p).is_empty());
        Ok(())
    }

    #[test]
    fn unmatched_set_ret_is_flagged_and_matched_one_is_not() -> Result<(), AsmError> {
        let mut bad = Assembler::new("mini-rsb");
        let (f, elsewhere) = (bad.label(), bad.label());
        bad.la(Reg::R9, elsewhere);
        bad.call(f);
        bad.nop();
        bad.bind(elsewhere);
        bad.halt();
        bad.bind(f);
        bad.set_ret(Reg::R9);
        bad.ret();
        let p = bad.finish()?;
        assert_eq!(kinds(&p), BTreeSet::from([GadgetKind::RetHijack]));

        let mut ok = Assembler::new("mini-rsb-ok");
        let f = ok.label();
        let back = ok.label();
        ok.la(Reg::R9, back);
        ok.call(f);
        ok.bind(back);
        ok.halt();
        ok.bind(f);
        ok.set_ret(Reg::R9); // restores the genuine return site
        ok.ret();
        let p = ok.finish()?;
        assert!(kinds(&p).is_empty());
        Ok(())
    }

    #[test]
    fn timed_load_and_timed_flush_probes() -> Result<(), AsmError> {
        let mut a = Assembler::new("mini-timer");
        a.data(0x2000, vec![0u8; 64]);
        a.li(Reg::R1, 0x2000);
        a.rdcycle(Reg::R2);
        a.loadb(Reg::R3, Reg::R1, 0);
        a.rdcycle(Reg::R4);
        a.sub(Reg::R4, Reg::R4, Reg::R2);
        a.rdcycle(Reg::R5);
        a.flush(Reg::R1, 0);
        a.rdcycle(Reg::R6);
        a.sub(Reg::R6, Reg::R6, Reg::R5);
        a.halt();
        let p = a.finish()?;
        assert_eq!(
            kinds(&p),
            BTreeSet::from([GadgetKind::TimedLoad, GadgetKind::TimedFlush])
        );
        Ok(())
    }

    #[test]
    fn benign_pointer_chasing_is_clean() -> Result<(), AsmError> {
        // Dependent loads under a forward branch, but nothing is flushed and
        // no timer brackets them: ordinary linked-list code.
        let mut a = Assembler::new("mini-chase");
        a.data(0x2000, 0x2000u64.to_le_bytes().to_vec());
        let done = a.label();
        let top = a.label();
        a.li(Reg::R1, 0x2000);
        a.li(Reg::R2, 100);
        a.bind(top);
        a.load(Reg::R1, Reg::R1, 0);
        a.load(Reg::R3, Reg::R1, 8);
        a.beq(Reg::R3, Reg::R0, done);
        a.addi(Reg::R2, Reg::R2, -1);
        a.bnez(Reg::R2, top);
        a.bind(done);
        a.halt();
        let p = a.finish()?;
        assert!(kinds(&p).is_empty());
        Ok(())
    }

    #[test]
    fn leak_comparison_implicit_flow_is_caught() -> Result<(), AsmError> {
        // The predicate-encoding variant: the secret byte only influences
        // which constant is materialized, never flows into the address as
        // data.
        let mut a = Assembler::new("mini-leak-cmp");
        a.data(BOUND as u64, 8u64.to_le_bytes().to_vec());
        a.data(ARR as u64, vec![1u8; 64]);
        a.data(PROBE as u64, vec![0u8; 64 * 256]);
        let skip = a.label();
        let neq = a.label();
        let (x, y, size) = (Reg::R1, Reg::R2, Reg::R3);
        a.li(x, 3);
        a.li(Reg::R5, BOUND);
        a.flush(Reg::R5, 0);
        a.load(size, Reg::R5, 0);
        a.bge(x, size, skip);
        a.li(Reg::R5, ARR);
        a.add(Reg::R5, Reg::R5, x);
        a.loadb(y, Reg::R5, 0);
        a.li(Reg::R6, 84);
        a.li(Reg::R7, 0);
        a.bne(y, Reg::R6, neq);
        a.li(Reg::R7, 1);
        a.bind(neq);
        a.shli(Reg::R7, Reg::R7, 6);
        a.addi(Reg::R7, Reg::R7, PROBE);
        a.loadb(Reg::R8, Reg::R7, 0);
        a.bind(skip);
        a.halt();
        let p = a.finish()?;
        assert_eq!(kinds(&p), BTreeSet::from([GadgetKind::SpecBoundsBypass]));
        Ok(())
    }
}
