//! The memory hierarchy: L1I + L1D → tol2bus → L2 → membus → DRAM
//! controller, with a flat functional backing store.
//!
//! A [`MemoryHierarchy`] is one core's private slice — its L1s and its
//! functional memory. Everything below the L1s lives in the [`Uncore`],
//! which has one owner (the machine) and is passed into every timed
//! access, so every core of a machine contends on the same L2/bus/DRAM
//! timing state.

use uarch_stats::{StatGroup, StatItem, StatVisitor};

use crate::cache::{Cache, CacheConfig};
use crate::cmd::MemCmd;
use crate::dram::DramConfig;
use crate::error::MemError;
use crate::memory::Memory;
use crate::uncore::Uncore;

const LINE: u64 = 64;

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// DRAM controller.
    pub dram: DramConfig,
    /// L1↔L2 crossbar transfer latency.
    pub tol2bus_latency: u64,
    /// L2↔memory crossbar transfer latency.
    pub membus_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram: DramConfig::default(),
            tol2bus_latency: 1,
            membus_latency: 2,
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the first-level cache.
    L1Hit,
    /// Missed L1, hit L2.
    L2Hit,
    /// Missed both, went to memory.
    MemAccess,
    /// Coalesced onto an already-outstanding miss.
    MshrCoalesced,
}

/// Result of a data load.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    /// Total latency in cycles.
    pub latency: u64,
    /// The loaded value.
    pub value: u64,
    /// Where the access was satisfied.
    pub outcome: AccessOutcome,
}

/// One core's private slice of the memory system: L1I, L1D and the
/// functional backing store. Timed accesses that miss the L1s continue
/// into the [`Uncore`] the caller lends them.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    memory: Memory,
    core_id: usize,
}

impl MemoryHierarchy {
    /// Builds core `core_id`'s private L1s and functional memory,
    /// rejecting degenerate cache geometry with a typed [`MemError`].
    pub fn try_new(l1i: CacheConfig, l1d: CacheConfig, core_id: usize) -> Result<Self, MemError> {
        Ok(Self {
            l1i: Cache::try_new(l1i)?,
            l1d: Cache::try_new(l1d)?,
            memory: Memory::new(),
            core_id,
        })
    }

    /// The functional backing memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the functional backing memory (used to install
    /// program data segments and by the core's commit path).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The L1 data cache (for probes in tests and attack verification).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The core this hierarchy belongs to.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Performs a timed data load: returns latency, value and where it hit.
    pub fn load(&mut self, uncore: &mut Uncore, addr: u64, size: u64, now: u64) -> LoadResult {
        let value = self.memory.read(addr, size);
        let res = self.l1d.access(MemCmd::ReadReq, addr, now);
        if res.hit {
            return LoadResult {
                latency: res.latency,
                value,
                outcome: AccessOutcome::L1Hit,
            };
        }
        if let Some(ready) = res.coalesced_ready_at {
            return LoadResult {
                latency: res.latency.max(ready.saturating_sub(now)),
                value,
                outcome: AccessOutcome::MshrCoalesced,
            };
        }
        let (below, outcome) = uncore.below_l1(
            MemCmd::ReadSharedReq,
            addr,
            now + res.latency,
            false,
            self.core_id,
        );
        let total = res.latency + below;
        self.l1d.complete_miss(MemCmd::ReadReq, addr, now, total);
        if let Some(ev) = self.l1d.fill(addr, false, false) {
            let wb_delay = self.l1d.reserve_write_buffer(now + total, 20);
            uncore.l1_eviction(ev, now + total + wb_delay, self.core_id);
        }
        LoadResult {
            latency: total,
            value,
            outcome,
        }
    }

    /// Performs a timed data store (write-allocate, write-back). The value
    /// is written through to the functional backing store.
    pub fn store(
        &mut self,
        uncore: &mut Uncore,
        addr: u64,
        size: u64,
        value: u64,
        now: u64,
    ) -> u64 {
        self.memory.write(addr, size, value);
        let res = self.l1d.access(MemCmd::WriteReq, addr, now);
        if res.hit {
            return res.latency;
        }
        if let Some(ready) = res.coalesced_ready_at {
            return res.latency.max(ready.saturating_sub(now));
        }
        let (below, _) = uncore.below_l1(
            MemCmd::ReadExReq,
            addr,
            now + res.latency,
            true,
            self.core_id,
        );
        let total = res.latency + below;
        self.l1d.complete_miss(MemCmd::WriteReq, addr, now, total);
        if let Some(ev) = self.l1d.fill(addr, true, true) {
            let wb_delay = self.l1d.reserve_write_buffer(now + total, 20);
            uncore.l1_eviction(ev, now + total + wb_delay, self.core_id);
        }
        total
    }

    /// Performs a timed instruction fetch of the line containing `addr`.
    pub fn fetch(&mut self, uncore: &mut Uncore, addr: u64, now: u64) -> (u64, AccessOutcome) {
        let res = self.l1i.access(MemCmd::ReadCleanReq, addr, now);
        if res.hit {
            return (res.latency, AccessOutcome::L1Hit);
        }
        if let Some(ready) = res.coalesced_ready_at {
            return (
                res.latency.max(ready.saturating_sub(now)),
                AccessOutcome::MshrCoalesced,
            );
        }
        let (below, outcome) = uncore.below_l1(
            MemCmd::ReadCleanReq,
            addr,
            now + res.latency,
            false,
            self.core_id,
        );
        let total = res.latency + below;
        self.l1i
            .complete_miss(MemCmd::ReadCleanReq, addr, now, total);
        if let Some(ev) = self.l1i.fill(addr, true, false) {
            uncore.l1_eviction(ev, now + total, self.core_id);
        }
        (total, outcome)
    }

    /// Flushes the line containing `addr` from the entire hierarchy
    /// (`clflush`). The latency depends on where (and how dirty) the line
    /// was — the timing signal Flush+Flush reads.
    pub fn flush_line(&mut self, u: &mut Uncore, addr: u64, now: u64) -> u64 {
        let mut lat = 10; // base cost of the flush micro-op
        let in_l1 = self.l1d.probe(addr).is_some() || self.l1i.probe(addr).is_some();
        let in_l2 = u.l2.probe(addr).is_some();

        if in_l1 || in_l2 {
            u.tol2bus.send(MemCmd::FlushReq, 0, now);
        }
        if let Some(ev) = self.l1d.invalidate(addr) {
            lat += 15;
            if ev.cmd == MemCmd::WritebackDirty {
                u.tol2bus.send(MemCmd::WritebackDirty, LINE, now + lat);
                u.membus.send(MemCmd::WritebackDirty, LINE, now + lat);
                lat += 10 + u.mem_ctrl.write(ev.addr, LINE, now + lat);
            }
        }
        if self.l1i.invalidate(addr).is_some() {
            lat += 10;
        }
        if in_l2 {
            u.membus.send(MemCmd::FlushReq, 0, now + lat);
        }
        if let Some(ev) = u.l2.invalidate(addr) {
            lat += 20;
            if ev.cmd == MemCmd::WritebackDirty {
                u.membus.send(MemCmd::WritebackDirty, LINE, now + lat);
                lat += 10 + u.mem_ctrl.write(ev.addr, LINE, now + lat);
            }
            u.l2_eviction_snoop(ev.addr, self.core_id);
        }
        lat
    }

    /// Applies a snoop back-invalidation to this core's private L1s (a
    /// line another core evicted from the shared L2 or requested
    /// exclusively). Returns how many L1 copies were dropped. Pure state
    /// removal: the shared-bus traffic was already accounted by the
    /// originating core's request.
    pub fn snoop_invalidate(&mut self, line_addr: u64) -> u64 {
        let mut dropped = 0;
        if self.l1d.invalidate(line_addr).is_some() {
            dropped += 1;
        }
        if self.l1i.invalidate(line_addr).is_some() {
            dropped += 1;
        }
        dropped
    }

    /// Whether the line containing `addr` is resident in the L1 data cache.
    pub fn cached_in_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr).is_some()
    }

    /// Applies CEASER-style index randomization to the data-side caches
    /// (the §IV-G1 mitigation a suspected cache attack triggers): this
    /// core's L1D and the L2 behind it. Resident lines are invalidated by
    /// the remap.
    pub fn randomize_indexing(&mut self, uncore: &mut Uncore, key: u64) {
        self.l1d.set_index_key(key);
        uncore.l2.set_index_key(key.rotate_left(7));
    }
}

impl StatGroup for MemoryHierarchy {
    /// Publishes the private L1s only; the uncore below them is published
    /// once, by its owner.
    fn visit(&self, v: &mut dyn StatVisitor) {
        self.l1i.visit_item("icache", v);
        self.l1d.visit_item("dcache", v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_stats::Snapshot;

    /// One core's private slice and a one-core uncore: the single-core
    /// layout.
    fn standalone() -> (MemoryHierarchy, Uncore) {
        let cfg = HierarchyConfig::default();
        let u = Uncore::try_new(&cfg, 1).expect("uncore builds");
        let h = MemoryHierarchy::try_new(cfg.l1i, cfg.l1d, 0).expect("hierarchy builds");
        (h, u)
    }

    /// The pair's statistics in the machine's single-core layout: private
    /// L1s, then the uncore groups.
    struct Standalone<'a>(&'a MemoryHierarchy, &'a Uncore);

    impl StatGroup for Standalone<'_> {
        fn visit(&self, v: &mut dyn StatVisitor) {
            self.0.visit(v);
            self.1.visit(v);
        }
    }

    #[test]
    fn load_miss_fills_all_levels() {
        let (mut h, mut u) = standalone();
        h.memory_mut().write(0x4000, 8, 77);
        let r = h.load(&mut u, 0x4000, 8, 0);
        assert_eq!(r.outcome, AccessOutcome::MemAccess);
        assert_eq!(r.value, 77);
        assert!(h.cached_in_l1d(0x4000));
        assert!(u.l2().probe(0x4000).is_some());
        let r2 = h.load(&mut u, 0x4000, 8, r.latency + 1);
        assert_eq!(r2.outcome, AccessOutcome::L1Hit);
        assert!(r2.latency < r.latency);
    }

    #[test]
    fn flush_removes_line_everywhere_and_costs_more_when_resident() {
        let (mut h, mut u) = standalone();
        h.load(&mut u, 0x4000, 8, 0);
        let lat_present = h.flush_line(&mut u, 0x4000, 100);
        assert!(!h.cached_in_l1d(0x4000));
        assert!(u.l2().probe(0x4000).is_none());
        let lat_absent = h.flush_line(&mut u, 0x4000, 200);
        assert!(
            lat_present > lat_absent,
            "flush of resident line ({lat_present}) must exceed absent ({lat_absent})"
        );
    }

    #[test]
    fn store_dirties_line_and_flush_writes_back() {
        let (mut h, mut u) = standalone();
        h.store(&mut u, 0x9000, 8, 42, 0);
        let lat_dirty = h.flush_line(&mut u, 0x9000, 100);
        h.load(&mut u, 0x9000, 8, 200);
        let lat_clean = h.flush_line(&mut u, 0x9000, 500);
        assert!(lat_dirty > lat_clean, "dirty flush writes back");
        assert_eq!(h.memory().read(0x9000, 8), 42);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let (mut h, mut u) = standalone();
        // L1D is 64KB 8-way = 128 sets. Fill 9 lines mapping to set 0 to
        // force one eviction; the victim should still hit in L2.
        let stride = 128 * 64; // one L1D set apart
        for i in 0..9u64 {
            h.load(&mut u, 0x10_0000 + i * stride, 8, i * 1000);
        }
        let r = h.load(&mut u, 0x10_0000, 8, 100_000);
        assert_eq!(r.outcome, AccessOutcome::L2Hit);
    }

    #[test]
    fn prime_like_sweep_emits_clean_evictions_on_tol2bus() {
        let (mut h, mut u) = standalone();
        let stride = 128 * 64;
        for i in 0..64u64 {
            h.load(&mut u, 0x20_0000 + i * stride, 8, i * 500);
        }
        assert!(
            u.tol2bus().stats().trans_dist.get(MemCmd::CleanEvict) > 0,
            "L1 conflict evictions of clean lines must show up on the bus"
        );
    }

    #[test]
    fn fetch_uses_icache() {
        let (mut h, mut u) = standalone();
        let (miss_lat, out) = h.fetch(&mut u, 0x100, 0);
        assert_eq!(out, AccessOutcome::MemAccess);
        let (hit_lat, out2) = h.fetch(&mut u, 0x104, miss_lat);
        assert_eq!(out2, AccessOutcome::L1Hit);
        assert!(hit_lat < miss_lat);
    }

    #[test]
    fn stats_tree_has_expected_names() {
        let (h, u) = standalone();
        let snap = Snapshot::of(&Standalone(&h, &u), "system");
        assert!(snap.get("system.dcache.ReadReq_misses").is_some());
        assert!(snap
            .get("system.l2.ReadSharedReq_mshr_miss_latency")
            .is_some());
        assert!(snap.get("system.tol2bus.trans_dist::CleanEvict").is_some());
        assert!(snap.get("system.mem_ctrls.selfRefreshEnergy").is_some());
        assert!(snap.get("system.mem_ctrls.bytesReadWrQ").is_some());
    }

    #[test]
    fn single_core_uncore_records_no_snoops_or_arb_stats() {
        let (mut h, mut u) = standalone();
        h.store(&mut u, 0x4000, 8, 1, 0);
        h.load(&mut u, 0x8000, 8, 100);
        h.flush_line(&mut u, 0x4000, 200);
        assert_eq!(
            u.take_pending_invalidations().len(),
            0,
            "single-core uncore must not queue snoops"
        );
        assert_eq!(u.tol2bus().stats().snoop_filter.tot_snoops.value(), 0);
        let snap = Snapshot::of(&Standalone(&h, &u), "");
        assert!(
            snap.get("tol2bus.arbGrants::core0").is_none(),
            "single-core schema must not grow arbiter stats"
        );
    }

    #[test]
    fn shared_uncore_queues_back_invalidations() {
        let cfg = HierarchyConfig::default();
        let mut u = Uncore::try_new(&cfg, 2).expect("uncore builds");
        let mut a =
            MemoryHierarchy::try_new(cfg.l1i.clone(), cfg.l1d.clone(), 0).expect("core0 hierarchy");
        let mut b = MemoryHierarchy::try_new(cfg.l1i, cfg.l1d, 1).expect("core1");

        // Core 1 caches a line; core 0 stores to the same line address —
        // the exclusive request queues a snoop against core 1's copy.
        b.load(&mut u, 0x4000, 8, 0);
        assert!(b.cached_in_l1d(0x4000));
        a.store(&mut u, 0x4000, 8, 7, 100);
        let pending = u.take_pending_invalidations();
        assert!(
            pending
                .iter()
                .any(|p| p.line_addr == 0x4000 && p.src_core == 0),
            "exclusive store must queue a snoop: {pending:?}"
        );
        assert_eq!(b.snoop_invalidate(0x4000), 1);
        assert!(!b.cached_in_l1d(0x4000));
    }
}
