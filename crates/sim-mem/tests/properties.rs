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

proptest! {
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
