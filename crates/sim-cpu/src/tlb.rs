//! A small fully-associative TLB model (timing only; translation is
//! identity in this machine).

use std::collections::VecDeque;

/// A FIFO-replacement TLB caching page translations.
///
/// The simulated machine uses identity mapping, so the TLB's only job is
/// producing realistic `dtb.rdMisses`-style statistics and miss latencies
/// for workloads that sweep many pages (Prime+Probe does; tight Spectre
/// loops do not).
#[derive(Debug)]
pub struct Tlb {
    entries: VecDeque<u64>,
    capacity: usize,
    miss_latency: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` page entries and the given miss
    /// penalty (page-walk cycles).
    pub fn new(capacity: usize, miss_latency: u64) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            miss_latency,
        }
    }

    /// Translates the page containing `addr`; returns the added latency
    /// (zero on hit) and whether it missed.
    pub fn access(&mut self, addr: u64) -> (u64, bool) {
        let page = addr >> 12;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            // Move to the back (most recent).
            let p = self.entries.remove(pos).expect("position valid");
            self.entries.push_back(p);
            (0, false)
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back(page);
            (self.miss_latency, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut t = Tlb::new(4, 20);
        assert_eq!(t.access(0x1234), (20, true));
        assert_eq!(t.access(0x1fff), (0, false)); // same page
        assert_eq!(t.access(0x2000), (20, true)); // next page
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut t = Tlb::new(2, 20);
        t.access(0x1000);
        t.access(0x2000);
        t.access(0x1000); // refresh page 1
        t.access(0x3000); // evicts page 2
        assert!(!t.access(0x1000).1);
        assert!(t.access(0x2000).1);
    }
}
