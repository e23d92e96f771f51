//! Set-associative caches with MSHRs and write buffers.
//!
//! Outstanding misses and in-flight evictions are short lists (at most 20
//! MSHRs and 8 write buffers in the paper's geometry). Every access first
//! retires the entries whose completion cycle has passed; a miss that
//! finds every MSHR busy, or an eviction that finds every write buffer
//! busy, waits for the minimum over the live entries.

use uarch_stats::{stat_group, Counter, Distribution, StatGroup, StatVisitor};

use crate::cmd::MemCmd;
use crate::error::MemError;

/// Geometry and timing of one cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Tag lookup latency in cycles.
    pub tag_latency: u64,
    /// Data array latency in cycles.
    pub data_latency: u64,
    /// Latency to forward a response upward.
    pub response_latency: u64,
    /// Miss status handling registers (outstanding misses).
    pub mshrs: usize,
    /// Targets (coalesced requests) per MSHR.
    pub tgts_per_mshr: usize,
    /// Write buffers for evictions in flight.
    pub write_buffers: usize,
    /// Whether clean exclusive evictions emit `WritebackClean` (data) rather
    /// than `CleanEvict` (notification only).
    pub writeback_clean: bool,
}

impl CacheConfig {
    /// The paper's L1 I-cache: 32 KB, 64 B lines, 4-way.
    pub fn l1i() -> Self {
        Self {
            size: 32 * 1024,
            assoc: 4,
            line: 64,
            tag_latency: 1,
            data_latency: 1,
            response_latency: 1,
            mshrs: 4,
            tgts_per_mshr: 8,
            write_buffers: 4,
            writeback_clean: true,
        }
    }

    /// The paper's L1 D-cache: 64 KB, 64 B lines, 8-way.
    pub fn l1d() -> Self {
        Self {
            size: 64 * 1024,
            assoc: 8,
            line: 64,
            tag_latency: 2,
            data_latency: 2,
            response_latency: 2,
            mshrs: 10,
            tgts_per_mshr: 8,
            write_buffers: 8,
            writeback_clean: false,
        }
    }

    /// The paper's shared L2: 2 MB, 64 B lines, 8-way, 20-cycle tag/data/
    /// response latencies, 20 MSHRs, 12 targets per MSHR, 8 write buffers.
    pub fn l2() -> Self {
        Self {
            size: 2 * 1024 * 1024,
            assoc: 8,
            line: 64,
            tag_latency: 20,
            data_latency: 20,
            response_latency: 20,
            mshrs: 20,
            tgts_per_mshr: 12,
            write_buffers: 8,
            writeback_clean: false,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.line * self.assoc)
    }
}

/// Coherence-ish state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, potentially shared (filled by a read).
    Shared,
    /// Clean but exclusively owned (filled by a read-for-ownership that was
    /// never written).
    Exclusive,
    /// Modified.
    Dirty,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    last_use: u64,
    valid: bool,
}

/// A line evicted to make room for a fill (or removed by a flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// The packet the eviction sends downstream.
    pub cmd: MemCmd,
}

/// Per-command counters emitted as `{Cmd}_{stat}` — gem5's flat cache stat
/// names (`ReadReq_hits`, `ReadSharedReq_mshr_miss_latency`, ...).
#[derive(Debug, Clone, Default)]
pub struct PerCmdStats {
    hits: [u64; MemCmd::COUNT],
    hit_latency: [u64; MemCmd::COUNT],
    misses: [u64; MemCmd::COUNT],
    accesses: [u64; MemCmd::COUNT],
    miss_latency: [u64; MemCmd::COUNT],
    mshr_hits: [u64; MemCmd::COUNT],
    mshr_misses: [u64; MemCmd::COUNT],
    mshr_miss_latency: [u64; MemCmd::COUNT],
}

impl PerCmdStats {
    fn idx(cmd: MemCmd) -> usize {
        use uarch_stats::StatKey;
        cmd.index()
    }

    /// Total hits for `cmd`.
    pub fn hits(&self, cmd: MemCmd) -> u64 {
        self.hits[Self::idx(cmd)]
    }

    /// Total misses for `cmd`.
    pub fn misses(&self, cmd: MemCmd) -> u64 {
        self.misses[Self::idx(cmd)]
    }

    /// Total accesses for `cmd`.
    pub fn accesses(&self, cmd: MemCmd) -> u64 {
        self.accesses[Self::idx(cmd)]
    }
}

impl StatGroup for PerCmdStats {
    fn visit(&self, v: &mut dyn StatVisitor) {
        use uarch_stats::StatKey;
        for i in 0..MemCmd::COUNT {
            let label = MemCmd::label(i);
            v.scalar(format_args!("{label}_hits"), self.hits[i] as f64);
            v.scalar(
                format_args!("{label}_hit_latency"),
                self.hit_latency[i] as f64,
            );
            let avg_miss = if self.misses[i] == 0 {
                0.0
            } else {
                self.miss_latency[i] as f64 / self.misses[i] as f64
            };
            v.scalar(format_args!("{label}_avg_miss_latency"), avg_miss);
            v.scalar(format_args!("{label}_misses"), self.misses[i] as f64);
            v.scalar(format_args!("{label}_accesses"), self.accesses[i] as f64);
            v.scalar(
                format_args!("{label}_miss_latency"),
                self.miss_latency[i] as f64,
            );
            v.scalar(format_args!("{label}_mshr_hits"), self.mshr_hits[i] as f64);
            v.scalar(
                format_args!("{label}_mshr_misses"),
                self.mshr_misses[i] as f64,
            );
            v.scalar(
                format_args!("{label}_mshr_miss_latency"),
                self.mshr_miss_latency[i] as f64,
            );
        }
    }
}

stat_group! {
    /// Aggregate (non-per-command) cache statistics.
    pub struct CacheAggStats {
        /// Demand (ReadReq/WriteReq/fetch) hits.
        pub demand_hits: Counter => "demand_hits",
        /// Demand misses.
        pub demand_misses: Counter => "demand_misses",
        /// Demand accesses.
        pub demand_accesses: Counter => "demand_accesses",
        /// All hits.
        pub overall_hits: Counter => "overall_hits",
        /// All misses.
        pub overall_misses: Counter => "overall_misses",
        /// All accesses.
        pub overall_accesses: Counter => "overall_accesses",
        /// Victim lines replaced by fills.
        pub replacements: Counter => "replacements",
        /// Dirty lines written back.
        pub writebacks: Counter => "writebacks",
        /// Events blocked for want of an MSHR.
        pub blocked_no_mshrs: Counter => "blocked::no_mshrs",
        /// Events blocked for want of an MSHR target slot.
        pub blocked_no_targets: Counter => "blocked::no_targets",
        /// Cycles spent blocked for want of an MSHR.
        pub blocked_cycles_no_mshrs: Counter => "blocked_cycles::no_mshrs",
        /// Cycles spent blocked for want of an MSHR target slot.
        pub blocked_cycles_no_targets: Counter => "blocked_cycles::no_targets",
        /// Valid tags currently in use (sampled at access time).
        pub tags_in_use: Counter => "tagsinuse",
        /// Lines invalidated by flushes.
        pub flush_invalidations: Counter => "flush_invalidations",
        /// Flushes that found the line resident.
        pub flush_hits: Counter => "flush_hits",
        /// Events blocked for want of a write buffer.
        pub wb_full_events: Counter => "writeBufferFullEvents",
    }
}

stat_group! {
    /// Full statistics of one cache: the per-command and aggregate
    /// counters flat under the cache's own scope, then its distributions.
    pub struct CacheStats {
        /// Per-command counters.
        pub cmd: PerCmdStats => "",
        /// Aggregates.
        pub agg: CacheAggStats => "",
        /// Demand miss latency distribution.
        pub miss_latency_dist: Distribution = (0.0, 400.0, 8) => "missLatencyDist",
        /// Valid ways in the accessed set, sampled per access.
        pub set_occupancy: Distribution = (0.0, 9.0, 9) => "setOccupancyDist",
    }
}

/// Result of a timing access.
#[derive(Debug, Clone)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// Cycles consumed at this level (excluding downstream on a miss).
    pub latency: u64,
    /// If an MSHR for this line was already outstanding, the absolute cycle
    /// at which it completes.
    pub coalesced_ready_at: Option<u64>,
}

/// One level of cache: timing + state, no data.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    /// Outstanding misses: (line address, completion cycle, target count).
    mshrs: Vec<(u64, u64, usize)>,
    /// CEASER-style index randomization key (XORed into the set index).
    index_key: u64,
    /// Write buffer entries in flight: completion cycles.
    wb_entries: Vec<u64>,
    use_clock: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate; prefer [`Cache::try_new`]
    /// for a typed error.
    pub fn new(cfg: CacheConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("degenerate cache geometry: {e}"))
    }

    /// Builds a cache, rejecting degenerate geometry with a typed error
    /// instead of panicking. The checks establish the invariants the
    /// access paths rely on — in particular `write_buffers >= 1`, which
    /// guarantees [`Cache::reserve_write_buffer`] always finds an entry
    /// to drain when the buffers are full.
    pub fn try_new(cfg: CacheConfig) -> Result<Self, MemError> {
        let geometry = |param, value, reason| MemError::InvalidGeometry {
            param,
            value,
            reason,
        };
        if !cfg.line.is_power_of_two() {
            return Err(geometry("line", cfg.line, "must be a power of two"));
        }
        if cfg.assoc == 0 {
            return Err(geometry("assoc", cfg.assoc, "must be at least 1"));
        }
        let sets = cfg.sets();
        if sets == 0 {
            return Err(geometry("size", cfg.size, "yields zero sets"));
        }
        if cfg.mshrs == 0 {
            return Err(geometry("mshrs", cfg.mshrs, "must be at least 1"));
        }
        if cfg.tgts_per_mshr == 0 {
            return Err(geometry(
                "tgts_per_mshr",
                cfg.tgts_per_mshr,
                "must be at least 1",
            ));
        }
        if cfg.write_buffers == 0 {
            return Err(geometry(
                "write_buffers",
                cfg.write_buffers,
                "must be at least 1",
            ));
        }
        Ok(Self {
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        state: LineState::Shared,
                        last_use: 0,
                        valid: false
                    };
                    cfg.assoc
                ];
                sets
            ],
            cfg,
            stats: CacheStats::default(),
            mshrs: Vec::new(),
            index_key: 0,
            wb_entries: Vec::new(),
            use_clock: 0,
        })
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// This cache's statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        let line = addr / self.cfg.line as u64;
        if self.index_key == 0 {
            (line % self.sets.len() as u64) as usize
        } else {
            // Keyed hash mixing ALL line-address bits (a plain XOR would
            // only permute set labels and leave congruence classes — and
            // therefore eviction sets — intact).
            let mixed = (line ^ self.index_key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((mixed >> 32) % self.sets.len() as u64) as usize
        }
    }

    /// Sets the CEASER-style index randomization key and flushes all lines
    /// (remapping invalidates every existing placement). The mitigation
    /// §IV-G1 proposes triggering on a suspected cache attack.
    pub fn set_index_key(&mut self, key: u64) {
        self.index_key = key;
        for set in &mut self.sets {
            for line in set.iter_mut() {
                line.valid = false;
            }
        }
        self.mshrs.clear();
    }

    /// Whether the line containing `addr` is resident, and in which state.
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        let tag = self.line_addr(addr);
        self.sets[self.set_index(addr)]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| l.state)
    }

    fn retire_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|&(_, ready, _)| ready > now);
        self.wb_entries.retain(|&ready| ready > now);
    }

    /// Performs a timing access for `cmd` at cycle `now`.
    ///
    /// On a hit the line's LRU position refreshes and a write dirties it.
    /// On a miss the caller is responsible for the downstream access and a
    /// subsequent [`Cache::fill`] + [`Cache::complete_miss`].
    pub fn access(&mut self, cmd: MemCmd, addr: u64, now: u64) -> AccessResult {
        use uarch_stats::StatKey;
        self.retire_mshrs(now);
        self.use_clock += 1;
        let i = cmd.index();
        self.stats.cmd.accesses[i] += 1;
        self.stats.agg.overall_accesses.inc();
        let demand = matches!(
            cmd,
            MemCmd::ReadReq | MemCmd::WriteReq | MemCmd::ReadCleanReq
        );
        if demand {
            self.stats.agg.demand_accesses.inc();
        }

        let write = matches!(cmd, MemCmd::WriteReq | MemCmd::ReadExReq);
        let tag = self.line_addr(addr);
        let set = self.set_index(addr);
        let valid_ways = self.sets[set].iter().filter(|l| l.valid).count();
        self.stats.set_occupancy.record(valid_ways as f64);
        let clock = self.use_clock;
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            if write {
                line.state = LineState::Dirty;
            }
            self.stats.cmd.hits[i] += 1;
            self.stats.cmd.hit_latency[i] += self.cfg.tag_latency + self.cfg.data_latency;
            self.stats.agg.overall_hits.inc();
            if demand {
                self.stats.agg.demand_hits.inc();
            }
            return AccessResult {
                hit: true,
                latency: self.cfg.tag_latency + self.cfg.data_latency,
                coalesced_ready_at: None,
            };
        }

        // Miss path.
        self.stats.cmd.misses[i] += 1;
        self.stats.agg.overall_misses.inc();
        if demand {
            self.stats.agg.demand_misses.inc();
        }

        // MSHR bookkeeping.
        let mut latency = self.cfg.tag_latency;
        if let Some(entry) = self.mshrs.iter_mut().find(|(a, _, _)| *a == tag) {
            // Coalesce onto the outstanding miss.
            if entry.2 >= self.cfg.tgts_per_mshr {
                self.stats.agg.blocked_no_targets.inc();
                self.stats
                    .agg
                    .blocked_cycles_no_targets
                    .add(entry.1.saturating_sub(now));
            } else {
                entry.2 += 1;
            }
            self.stats.cmd.mshr_hits[i] += 1;
            let ready = entry.1;
            return AccessResult {
                hit: false,
                latency,
                coalesced_ready_at: Some(ready),
            };
        }
        self.stats.cmd.mshr_misses[i] += 1;
        if self.mshrs.len() >= self.cfg.mshrs {
            // Block until the earliest outstanding miss completes.
            let earliest = self.mshrs.iter().map(|&(_, r, _)| r).min().unwrap_or(now);
            let wait = earliest.saturating_sub(now);
            self.stats.agg.blocked_no_mshrs.inc();
            self.stats.agg.blocked_cycles_no_mshrs.add(wait);
            latency += wait;
            self.mshrs.retain(|&(_, r, _)| r > earliest);
        }
        AccessResult {
            hit: false,
            latency,
            coalesced_ready_at: None,
        }
    }

    /// Registers the downstream completion of a miss started at `now` with
    /// total `miss_latency` cycles (for MSHR occupancy and latency stats).
    pub fn complete_miss(&mut self, cmd: MemCmd, addr: u64, now: u64, miss_latency: u64) {
        use uarch_stats::StatKey;
        let i = cmd.index();
        self.stats.cmd.miss_latency[i] += miss_latency;
        self.stats.cmd.mshr_miss_latency[i] += miss_latency.saturating_sub(self.cfg.tag_latency);
        self.stats.miss_latency_dist.record(miss_latency as f64);
        let tag = self.line_addr(addr);
        self.mshrs.push((tag, now + miss_latency, 1));
    }

    /// Installs the line containing `addr`, returning the victim's eviction
    /// packet if one had to be replaced.
    ///
    /// `exclusive` marks lines filled for ownership (write misses);
    /// `dirty` installs the line already modified (writebacks arriving from
    /// an upper level).
    pub fn fill(&mut self, addr: u64, exclusive: bool, dirty: bool) -> Option<Eviction> {
        let tag = self.line_addr(addr);
        let set = self.set_index(addr);
        self.use_clock += 1;
        let clock = self.use_clock;

        let state = if dirty {
            LineState::Dirty
        } else if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };

        // Already resident (e.g. a writeback from above hitting in L2).
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            if dirty {
                line.state = LineState::Dirty;
            }
            return None;
        }

        // Invalid way available?
        if let Some(line) = self.sets[set].iter_mut().find(|l| !l.valid) {
            *line = Line {
                tag,
                state,
                last_use: clock,
                valid: true,
            };
            self.stats.agg.tags_in_use.inc();
            return None;
        }

        // Evict LRU.
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|l| l.last_use)
            .expect("assoc > 0");
        let ev_addr = victim.tag;
        let ev_state = victim.state;
        *victim = Line {
            tag,
            state,
            last_use: clock,
            valid: true,
        };
        self.stats.agg.replacements.inc();

        let cmd = match ev_state {
            LineState::Dirty => {
                self.stats.agg.writebacks.inc();
                MemCmd::WritebackDirty
            }
            LineState::Exclusive if self.cfg.writeback_clean => MemCmd::WritebackClean,
            _ => MemCmd::CleanEvict,
        };
        Some(Eviction { addr: ev_addr, cmd })
    }

    /// Reserves a write buffer entry for an eviction at `now`; returns the
    /// extra delay if buffers were full.
    ///
    /// Never panics: `write_buffers >= 1` (enforced by [`Cache::try_new`])
    /// guarantees the full path has an entry to drain, and an empty
    /// minimum would fall back to zero extra delay.
    pub fn reserve_write_buffer(&mut self, now: u64, occupancy: u64) -> u64 {
        self.wb_entries.retain(|&r| r > now);
        let mut delay = 0;
        if self.wb_entries.len() >= self.cfg.write_buffers {
            let earliest = self.wb_entries.iter().copied().min().unwrap_or(now);
            delay = earliest.saturating_sub(now);
            self.stats.agg.wb_full_events.inc();
            self.wb_entries.retain(|&r| r > earliest);
        }
        self.wb_entries.push(now + delay + occupancy);
        delay
    }

    /// Invalidates the line containing `addr` (flush), returning a
    /// writeback eviction if it was dirty. Outstanding MSHR entries for the
    /// line are cancelled: a later access must be a fresh miss, not a
    /// coalescing onto a fill the flush already superseded.
    pub fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        let tag = self.line_addr(addr);
        let set = self.set_index(addr);
        self.mshrs.retain(|&(a, _, _)| a != tag);
        let line = self.sets[set]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)?;
        line.valid = false;
        self.stats.agg.flush_invalidations.inc();
        self.stats.agg.flush_hits.inc();
        if line.state == LineState::Dirty {
            self.stats.agg.writebacks.inc();
            Some(Eviction {
                addr: tag,
                cmd: MemCmd::WritebackDirty,
            })
        } else {
            Some(Eviction {
                addr: tag,
                cmd: MemCmd::CleanEvict,
            })
        }
    }

    /// Number of outstanding MSHR entries (for tests and blocked modeling).
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }
}

impl StatGroup for Cache {
    fn visit(&self, v: &mut dyn StatVisitor) {
        self.stats.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256B
        Cache::new(CacheConfig {
            size: 256,
            assoc: 2,
            line: 64,
            tag_latency: 1,
            data_latency: 1,
            response_latency: 1,
            mshrs: 2,
            tgts_per_mshr: 2,
            write_buffers: 1,
            writeback_clean: false,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let r = c.access(MemCmd::ReadReq, 0x100, 0);
        assert!(!r.hit);
        c.complete_miss(MemCmd::ReadReq, 0x100, 0, 50);
        c.fill(0x100, false, false);
        let r2 = c.access(MemCmd::ReadReq, 0x120, 100); // same 64B line
        assert!(r2.hit);
        assert_eq!(c.stats().cmd.hits(MemCmd::ReadReq), 1);
        assert_eq!(c.stats().cmd.misses(MemCmd::ReadReq), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0x000 and 0x080 (two ways). Touch 0x000 last.
        c.fill(0x000, false, false);
        c.fill(0x080, false, false);
        c.access(MemCmd::ReadReq, 0x000, 10);
        let ev = c.fill(0x100, false, false).expect("conflict evicts");
        assert_eq!(ev.addr, 0x080);
        assert_eq!(ev.cmd, MemCmd::CleanEvict);
    }

    #[test]
    fn dirty_eviction_is_writeback_dirty() {
        let mut c = tiny();
        c.fill(0x000, true, false);
        c.access(MemCmd::WriteReq, 0x000, 0); // dirty it
        c.fill(0x080, false, false);
        let ev = c.fill(0x100, false, false).expect("evicts");
        assert_eq!(ev.cmd, MemCmd::WritebackDirty);
        assert_eq!(c.stats().agg.writebacks.value(), 1);
    }

    #[test]
    fn writeback_clean_mode_emits_writeback_clean() {
        let mut cfg = CacheConfig::l1i();
        cfg.size = 256;
        cfg.assoc = 2;
        let mut c = Cache::new(cfg);
        c.fill(0x000, true, false); // exclusive, never written
        c.fill(0x080, false, false);
        let ev = c.fill(0x100, false, false).expect("evicts");
        assert_eq!(ev.cmd, MemCmd::WritebackClean);
    }

    #[test]
    fn flush_invalidates_and_reports_dirty() {
        let mut c = tiny();
        c.fill(0x000, true, false);
        c.access(MemCmd::WriteReq, 0x000, 0);
        let ev = c.invalidate(0x000).expect("was resident");
        assert_eq!(ev.cmd, MemCmd::WritebackDirty);
        assert_eq!(c.probe(0x000), None);
        assert!(c.invalidate(0x000).is_none());
    }

    #[test]
    fn coalesced_miss_counts_mshr_hit() {
        let mut c = tiny();
        let r1 = c.access(MemCmd::ReadReq, 0x100, 0);
        assert!(!r1.hit);
        c.complete_miss(MemCmd::ReadReq, 0x100, 0, 80);
        let r2 = c.access(MemCmd::ReadReq, 0x110, 5); // same line, still in flight
        assert_eq!(r2.coalesced_ready_at, Some(80));
        assert_eq!(c.stats().cmd.mshr_hits[0], 1);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = tiny();
        for (i, addr) in [0x000u64, 0x040].iter().enumerate() {
            let r = c.access(MemCmd::ReadReq, *addr, i as u64);
            assert!(!r.hit);
            c.complete_miss(MemCmd::ReadReq, *addr, i as u64, 100);
        }
        // Third distinct miss with only 2 MSHRs → blocked.
        let r = c.access(MemCmd::ReadReq, 0x200, 2);
        assert!(!r.hit);
        assert_eq!(c.stats().agg.blocked_no_mshrs.value(), 1);
        assert!(r.latency > c.config().tag_latency);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.fill(0x000, false, false);
        c.fill(0x080, false, false);
        assert_eq!(c.probe(0x000), Some(LineState::Shared));
        // 0x000 was filled first and probe must not refresh it.
        let ev = c.fill(0x100, false, false).expect("evicts");
        assert_eq!(ev.addr, 0x000);
    }

    #[test]
    fn write_buffer_full_adds_delay() {
        let mut c = tiny();
        let d1 = c.reserve_write_buffer(0, 50);
        assert_eq!(d1, 0);
        let d2 = c.reserve_write_buffer(10, 50);
        assert!(d2 > 0, "single write buffer forces a wait");
        assert_eq!(c.stats().agg.wb_full_events.value(), 1);
    }

    #[test]
    fn try_new_rejects_degenerate_geometry() {
        let mut cfg = CacheConfig::l1d();
        cfg.write_buffers = 0;
        assert!(matches!(
            Cache::try_new(cfg),
            Err(MemError::InvalidGeometry {
                param: "write_buffers",
                ..
            })
        ));
        let mut cfg = CacheConfig::l1d();
        cfg.mshrs = 0;
        assert!(Cache::try_new(cfg).is_err());
        let mut cfg = CacheConfig::l1d();
        cfg.line = 48;
        assert!(Cache::try_new(cfg).is_err());
        assert!(Cache::try_new(CacheConfig::l1d()).is_ok());
    }

    /// Starts a miss on `addr` at `now` whose fill lands `latency` later.
    fn miss(c: &mut Cache, addr: u64, now: u64, latency: u64) {
        assert!(!c.access(MemCmd::ReadReq, addr, now).hit);
        c.complete_miss(MemCmd::ReadReq, addr, now, latency);
    }

    #[test]
    fn full_mshrs_wait_for_the_earliest_live_fill() {
        let mut c = tiny();
        miss(&mut c, 0x000, 0, 100);
        miss(&mut c, 0x040, 0, 60);
        let r = c.access(MemCmd::ReadReq, 0x200, 10);
        assert_eq!(r.latency, c.config().tag_latency + (60 - 10));
        assert_eq!(c.stats().agg.blocked_no_mshrs.value(), 1);
        assert_eq!(c.stats().agg.blocked_cycles_no_mshrs.value(), 50);
        // The wait retired the fill at 60; the one at 100 is still live.
        assert_eq!(c.outstanding_misses(), 1);
    }

    #[test]
    fn invalidated_fill_no_longer_ends_the_wait() {
        let mut c = tiny();
        miss(&mut c, 0x000, 0, 100);
        miss(&mut c, 0x040, 0, 60);
        // A flush cancels the earliest fill; a new miss refills the MSHRs.
        c.fill(0x040, false, false);
        c.invalidate(0x040);
        assert_eq!(c.outstanding_misses(), 1);
        miss(&mut c, 0x080, 5, 150);
        let r = c.access(MemCmd::ReadReq, 0x200, 10);
        assert_eq!(r.latency, c.config().tag_latency + (100 - 10));
        assert_eq!(c.stats().agg.blocked_cycles_no_mshrs.value(), 90);
    }

    #[test]
    fn full_write_buffer_waits_for_the_earliest_drain() {
        let mut c = Cache::new(CacheConfig {
            write_buffers: 2,
            ..tiny().cfg
        });
        assert_eq!(c.reserve_write_buffer(0, 50), 0); // drains at 50
        assert_eq!(c.reserve_write_buffer(5, 30), 0); // drains at 35
        assert_eq!(c.reserve_write_buffer(10, 20), 35 - 10); // drains at 55
        assert_eq!(c.reserve_write_buffer(12, 1), 50 - 12);
        assert_eq!(c.stats().agg.wb_full_events.value(), 2);
    }

    #[test]
    fn paper_l2_geometry() {
        let cfg = CacheConfig::l2();
        assert_eq!(cfg.sets(), 4096);
        assert_eq!(cfg.mshrs, 20);
        assert_eq!(cfg.tgts_per_mshr, 12);
    }
}
