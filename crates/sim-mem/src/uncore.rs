//! The shared uncore: everything below the private L1s.
//!
//! The machine owns exactly one [`Uncore`] and lends it, by `&mut`, to
//! each core's [`MemoryHierarchy`](crate::MemoryHierarchy) access in turn,
//! so all cores contend on the same L2, the same L1↔L2 crossbar, the same
//! memory bus and the same DRAM controller — the physical substrate of
//! cross-core Prime+Probe. Cores tick sequentially, so plain borrowing is
//! all the sharing needs: no lock, no reference count.
//!
//! Multi-core-only machinery (the shared-bus arbiter accounting and the
//! snoop back-invalidation queue) is armed only when the uncore is built
//! for more than one core: a single-core uncore records and publishes
//! exactly the statistics it always has, preserving the golden-snapshot
//! bit-identity guarantee.

use uarch_stats::{StatGroup, StatItem, StatVisitor};

use crate::bus::Bus;
use crate::cache::{Cache, Eviction};
use crate::cmd::MemCmd;
use crate::dram::MemCtrl;
use crate::error::MemError;
use crate::hierarchy::{AccessOutcome, HierarchyConfig};

const LINE: u64 = 64;

/// A line that left the shared L2 (eviction, flush) or was requested
/// exclusively by one core, and must be back-invalidated from the other
/// cores' private L1s by the machine's snoop drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingInvalidation {
    /// Line-aligned address of the affected line.
    pub line_addr: u64,
    /// The core whose request caused the invalidation (its own L1 is
    /// exempt from the snoop).
    pub src_core: usize,
}

/// Per-core shared-bus arbiter accounting: how many L1-miss requests each
/// core won the L1↔L2 crossbar for, and how many cycles it spent waiting
/// for the bus to free up. Published under `tol2bus.*` only on multi-core
/// machines (a single-core schema is pinned at 1159 statistics).
#[derive(Debug, Clone, Default)]
pub struct ArbiterStats {
    grants: Vec<u64>,
    wait_cycles: Vec<u64>,
}

impl ArbiterStats {
    fn new(n_cores: usize) -> Self {
        Self {
            grants: vec![0; n_cores],
            wait_cycles: vec![0; n_cores],
        }
    }

    /// Bus grants won by `core`.
    pub fn grants(&self, core: usize) -> u64 {
        self.grants.get(core).copied().unwrap_or(0)
    }

    /// Cycles `core` spent waiting for the bus.
    pub fn wait_cycles(&self, core: usize) -> u64 {
        self.wait_cycles.get(core).copied().unwrap_or(0)
    }
}

/// The shared memory system below the private L1s: L2, both crossbars and
/// the DRAM controller, plus the multi-core arbitration/snoop state.
#[derive(Debug)]
pub struct Uncore {
    pub(crate) l2: Cache,
    pub(crate) tol2bus: Bus,
    pub(crate) membus: Bus,
    pub(crate) mem_ctrl: MemCtrl,
    tol2bus_latency: u64,
    n_cores: usize,
    snoops_enabled: bool,
    pending_invalidations: Vec<PendingInvalidation>,
    arb: ArbiterStats,
}

impl Uncore {
    /// Builds an uncore for `n_cores` cores from the shared parts of a
    /// hierarchy configuration. Snooping and arbiter accounting arm only
    /// for `n_cores > 1`.
    ///
    /// # Errors
    ///
    /// Rejects degenerate L2 geometry, and a DRAM configuration with zero
    /// banks or a zero row size (the bank/row decode divides by both).
    pub fn try_new(cfg: &HierarchyConfig, n_cores: usize) -> Result<Self, MemError> {
        let dram = |param, value| MemError::InvalidGeometry {
            param,
            value,
            reason: "must be at least 1",
        };
        if cfg.dram.banks == 0 {
            return Err(dram("dram.banks", 0));
        }
        if cfg.dram.row_size == 0 {
            return Err(dram("dram.row_size", 0));
        }
        Ok(Self {
            l2: Cache::try_new(cfg.l2.clone())?,
            tol2bus: Bus::new(cfg.tol2bus_latency),
            membus: Bus::new(cfg.membus_latency),
            mem_ctrl: MemCtrl::new(cfg.dram.clone()),
            tol2bus_latency: cfg.tol2bus_latency,
            n_cores,
            snoops_enabled: n_cores > 1,
            pending_invalidations: Vec::new(),
            arb: ArbiterStats::new(n_cores),
        })
    }

    /// Number of cores sharing this uncore.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The shared L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L1↔L2 crossbar.
    pub fn tol2bus(&self) -> &Bus {
        &self.tol2bus
    }

    /// The L2↔memory crossbar.
    pub fn membus(&self) -> &Bus {
        &self.membus
    }

    /// The DRAM controller.
    pub fn mem_ctrl(&self) -> &MemCtrl {
        &self.mem_ctrl
    }

    /// The shared-bus arbiter accounting.
    pub fn arbiter(&self) -> &ArbiterStats {
        &self.arb
    }

    /// Drains the queued snoop back-invalidations (lines that left the
    /// shared L2 or were requested exclusively). The machine applies each
    /// entry to every *other* core's private L1s.
    pub fn take_pending_invalidations(&mut self) -> Vec<PendingInvalidation> {
        std::mem::take(&mut self.pending_invalidations)
    }

    /// Records `n` delivered snoop invalidations on the L1↔L2 crossbar's
    /// snoop filter (the previously always-zero `tot_snoops` counter).
    pub fn record_snoops(&mut self, n: u64) {
        self.tol2bus.record_snoops(n);
    }

    /// Queues a back-invalidation for a line that left the shared L2 (by
    /// eviction or flush) or was requested exclusively. No-op on
    /// single-core uncores, preserving golden bit-identity.
    pub(crate) fn l2_eviction_snoop(&mut self, addr: u64, src_core: usize) {
        if self.snoops_enabled {
            self.pending_invalidations.push(PendingInvalidation {
                line_addr: addr & !(LINE - 1),
                src_core,
            });
        }
    }

    /// Handles an L1 eviction packet: puts it on the L1↔L2 bus and applies
    /// it to the L2.
    pub(crate) fn l1_eviction(&mut self, ev: Eviction, now: u64, src_core: usize) {
        let bytes = if ev.cmd == MemCmd::CleanEvict {
            0
        } else {
            LINE
        };
        self.tol2bus.send(ev.cmd, bytes, now);
        match ev.cmd {
            MemCmd::WritebackDirty => {
                if let Some(l2ev) = self.l2.fill(ev.addr, false, true) {
                    self.l2_eviction(l2ev, now, src_core);
                }
            }
            MemCmd::WritebackClean => {
                if let Some(l2ev) = self.l2.fill(ev.addr, false, false) {
                    self.l2_eviction(l2ev, now, src_core);
                }
            }
            _ => {} // CleanEvict: notification only
        }
    }

    /// Handles an L2 eviction packet: membus traffic plus a DRAM write for
    /// dirty data. On multi-core machines the displaced line is queued for
    /// back-invalidation from the other cores' L1s.
    pub(crate) fn l2_eviction(&mut self, ev: Eviction, now: u64, src_core: usize) {
        let bytes = if ev.cmd == MemCmd::CleanEvict {
            0
        } else {
            LINE
        };
        self.membus.send(ev.cmd, bytes, now);
        if ev.cmd == MemCmd::WritebackDirty {
            self.mem_ctrl.write(ev.addr, LINE, now);
        }
        self.l2_eviction_snoop(ev.addr, src_core);
    }

    /// The downstream path for an L1 miss: L2 access, then memory on an L2
    /// miss. Returns (latency-below-L1, outcome).
    pub(crate) fn below_l1(
        &mut self,
        l2cmd: MemCmd,
        addr: u64,
        now: u64,
        exclusive: bool,
        src_core: usize,
    ) -> (u64, AccessOutcome) {
        let mut lat = self.tol2bus.send(l2cmd, 0, now);
        if let Some(g) = self.arb.grants.get_mut(src_core) {
            *g += 1;
            self.arb.wait_cycles[src_core] += lat.saturating_sub(self.tol2bus_latency);
        }
        if exclusive {
            self.l2_eviction_snoop(addr, src_core);
        }
        let l2res = self.l2.access(l2cmd, addr, now + lat);
        lat += l2res.latency;
        let outcome;
        if l2res.hit {
            outcome = AccessOutcome::L2Hit;
        } else if let Some(ready) = l2res.coalesced_ready_at {
            lat = lat.max(ready.saturating_sub(now));
            outcome = AccessOutcome::MshrCoalesced;
        } else {
            // L2 miss → memory.
            let memcmd = if exclusive {
                MemCmd::ReadExReq
            } else {
                MemCmd::ReadReq
            };
            let mut below = self.membus.send(memcmd, 0, now + lat);
            below += self.mem_ctrl.read(addr, LINE, now + lat + below);
            below += self.membus.send(MemCmd::ReadResp, LINE, now + lat + below);
            self.l2.complete_miss(l2cmd, addr, now + lat, below);
            if let Some(ev) = self.l2.fill(addr, exclusive, false) {
                self.l2_eviction(ev, now + lat + below, src_core);
            }
            lat += below + self.l2.config().response_latency;
            outcome = AccessOutcome::MemAccess;
        }
        // Response back up the L1↔L2 bus.
        lat += self.tol2bus.send(MemCmd::ReadResp, LINE, now + lat);
        (lat, outcome)
    }
}

impl StatGroup for Uncore {
    /// Walks the uncore's statistic groups in the canonical order
    /// (`l2`, `tol2bus`, `membus`, `mem_ctrls`). The arbiter counters are
    /// appended under `tol2bus` only on multi-core uncores, keeping the
    /// single-core schema pinned at 1159 names.
    fn visit(&self, v: &mut dyn StatVisitor) {
        self.l2.visit_item("l2", v);
        v.enter(format_args!("tol2bus"));
        self.tol2bus.visit(v);
        if self.n_cores > 1 {
            for (i, g) in self.arb.grants.iter().enumerate() {
                v.scalar(format_args!("arbGrants::core{i}"), *g as f64);
            }
            for (i, w) in self.arb.wait_cycles.iter().enumerate() {
                v.scalar(format_args!("arbWaitCycles::core{i}"), *w as f64);
            }
        }
        v.leave();
        self.membus.visit_item("membus", v);
        self.mem_ctrl.visit_item("mem_ctrls", v);
    }
}
