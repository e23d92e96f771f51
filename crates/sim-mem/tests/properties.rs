//! Property-based tests for the memory substrate.

use proptest::prelude::*;
use sim_mem::{Cache, CacheConfig, HierarchyConfig, MemCmd, Memory, MemoryHierarchy, Uncore};

/// One core's private slice and a one-core uncore.
fn standalone() -> (MemoryHierarchy, Uncore) {
    let cfg = HierarchyConfig::default();
    let u = Uncore::try_new(&cfg, 1).expect("uncore builds");
    let h = MemoryHierarchy::try_new(cfg.l1i, cfg.l1d, 0).expect("hierarchy builds");
    (h, u)
}

/// A test-local model of a cache's MSHRs and write buffers: plain lists,
/// whose waits are the minimum over the live entries.
#[derive(Default)]
struct BufferModel {
    /// Outstanding misses: (line address, fill cycle, targets).
    mshrs: Vec<(u64, u64, usize)>,
    /// Write-buffer drain cycles.
    wbs: Vec<u64>,
    blocked_no_mshrs: u64,
    blocked_cycles_no_mshrs: u64,
    blocked_no_targets: u64,
    blocked_cycles_no_targets: u64,
    wb_full_events: u64,
}

impl BufferModel {
    /// The latency of a miss on line `tag` at `now` and its coalesced fill.
    fn miss(&mut self, cfg: &CacheConfig, tag: u64, now: u64) -> (u64, Option<u64>) {
        if let Some(e) = self.mshrs.iter_mut().find(|e| e.0 == tag) {
            if e.2 >= cfg.tgts_per_mshr {
                self.blocked_no_targets += 1;
                self.blocked_cycles_no_targets += e.1.saturating_sub(now);
            } else {
                e.2 += 1;
            }
            return (cfg.tag_latency, Some(e.1));
        }
        let mut wait = 0;
        if self.mshrs.len() >= cfg.mshrs {
            let earliest = self.mshrs.iter().map(|e| e.1).min().expect("full");
            wait = earliest - now;
            self.blocked_no_mshrs += 1;
            self.blocked_cycles_no_mshrs += wait;
            self.mshrs.retain(|e| e.1 > earliest);
        }
        (cfg.tag_latency + wait, None)
    }

    fn reserve_write_buffer(&mut self, cfg: &CacheConfig, now: u64, occupancy: u64) -> u64 {
        self.wbs.retain(|&r| r > now);
        let mut delay = 0;
        if self.wbs.len() >= cfg.write_buffers {
            let earliest = *self.wbs.iter().min().expect("full");
            delay = earliest - now;
            self.wb_full_events += 1;
            self.wbs.retain(|&r| r > earliest);
        }
        self.wbs.push(now + delay + occupancy);
        delay
    }
}

proptest! {
    #[test]
    fn mshr_and_write_buffer_waits_match_a_min_over_live_entries_model(
        shape in (1usize..4, 1usize..3, 1usize..4),
        ops in proptest::collection::vec((0u8..6, 0u64..6, 0u64..25, 1u64..150), 1..200)
    ) {
        let (mshrs, tgts_per_mshr, write_buffers) = shape;
        let cfg = CacheConfig {
            size: 256,
            assoc: 2,
            line: 64,
            tag_latency: 3,
            data_latency: 2,
            response_latency: 1,
            mshrs,
            tgts_per_mshr,
            write_buffers,
            writeback_clean: false,
        };
        let mut cache = Cache::new(cfg.clone());
        let mut model = BufferModel::default();
        let mut now = 0u64;
        for (kind, line, dt, latency) in ops {
            now += dt;
            let addr = line * 64;
            match kind {
                0 | 1 => {
                    let resident = cache.probe(addr).is_some();
                    let r = cache.access(MemCmd::ReadReq, addr, now);
                    prop_assert_eq!(r.hit, resident);
                    model.mshrs.retain(|e| e.1 > now);
                    let want = if resident {
                        (cfg.tag_latency + cfg.data_latency, None)
                    } else {
                        model.miss(&cfg, addr, now)
                    };
                    prop_assert_eq!((r.latency, r.coalesced_ready_at), want);
                }
                2 => {
                    cache.complete_miss(MemCmd::ReadReq, addr, now, latency);
                    model.mshrs.push((addr, now + latency, 1));
                    if latency % 2 == 0 {
                        cache.fill(addr, false, false);
                    }
                }
                3 => {
                    cache.invalidate(addr);
                    model.mshrs.retain(|e| e.0 != addr);
                }
                4 => {
                    let got = cache.reserve_write_buffer(now, latency);
                    prop_assert_eq!(got, model.reserve_write_buffer(&cfg, now, latency));
                }
                _ => {
                    if latency % 8 == 0 {
                        cache.set_index_key(latency);
                        model.mshrs.clear();
                    } else {
                        cache.fill(addr, latency % 3 == 0, false);
                    }
                }
            }
            prop_assert_eq!(cache.outstanding_misses(), model.mshrs.len());
            let agg = &cache.stats().agg;
            prop_assert_eq!(
                (
                    agg.blocked_no_mshrs.value(),
                    agg.blocked_cycles_no_mshrs.value(),
                    agg.blocked_no_targets.value(),
                    agg.blocked_cycles_no_targets.value(),
                    agg.wb_full_events.value(),
                ),
                (
                    model.blocked_no_mshrs,
                    model.blocked_cycles_no_mshrs,
                    model.blocked_no_targets,
                    model.blocked_cycles_no_targets,
                    model.wb_full_events,
                )
            );
        }
    }

    #[test]
    fn memory_read_back_equals_last_write(
        writes in proptest::collection::vec((0u64..0x10_000, 0u8..4, any::<u64>()), 1..60)
    ) {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::<u64, u8>::new();
        for (addr, size_sel, value) in writes {
            let size = [1u64, 2, 4, 8][size_sel as usize];
            mem.write(addr, size, value);
            for i in 0..size {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (addr, byte) in model {
            prop_assert_eq!(mem.read_byte(addr), byte);
        }
    }

    #[test]
    fn cache_hits_plus_misses_equal_accesses(
        addrs in proptest::collection::vec(0u64..0x8000, 1..300)
    ) {
        let mut cache = Cache::new(CacheConfig::l1d());
        for (i, &addr) in addrs.iter().enumerate() {
            let r = cache.access(MemCmd::ReadReq, addr, i as u64 * 10);
            if !r.hit && r.coalesced_ready_at.is_none() {
                cache.complete_miss(MemCmd::ReadReq, addr, i as u64 * 10, 100);
                cache.fill(addr, false, false);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(
            s.cmd.hits(MemCmd::ReadReq) + s.cmd.misses(MemCmd::ReadReq),
            s.cmd.accesses(MemCmd::ReadReq)
        );
    }

    #[test]
    fn repeated_access_to_same_line_eventually_hits(
        addr in 0u64..0x10_0000
    ) {
        let mut cache = Cache::new(CacheConfig::l1d());
        let r0 = cache.access(MemCmd::ReadReq, addr, 0);
        prop_assert!(!r0.hit);
        cache.complete_miss(MemCmd::ReadReq, addr, 0, 50);
        cache.fill(addr, false, false);
        let r1 = cache.access(MemCmd::ReadReq, addr, 1000);
        prop_assert!(r1.hit);
    }

    #[test]
    fn hierarchy_load_returns_functional_value(
        pairs in proptest::collection::vec((0u64..0x4000, any::<u64>()), 1..40)
    ) {
        let (mut h, mut u) = standalone();
        let mut now = 0u64;
        for (addr, value) in &pairs {
            let addr = addr * 8; // aligned
            now += h.store(&mut u, addr, 8, *value, now) + 1;
        }
        // Last write wins per address.
        let mut model = std::collections::HashMap::new();
        for (addr, value) in &pairs {
            model.insert(addr * 8, *value);
        }
        for (addr, value) in model {
            let r = h.load(&mut u, addr, 8, now);
            now += r.latency + 1;
            prop_assert_eq!(r.value, value);
        }
    }

    #[test]
    fn flush_always_leaves_line_uncached(
        addrs in proptest::collection::vec(0u64..0x8000, 1..40)
    ) {
        let (mut h, mut u) = standalone();
        let mut now = 0;
        for &addr in &addrs {
            let r = h.load(&mut u, addr, 1, now);
            now += r.latency + 1;
            now += h.flush_line(&mut u, addr, now) + 1;
            prop_assert!(!h.cached_in_l1d(addr));
            prop_assert!(u.l2().probe(addr).is_none());
        }
    }
}
