//! Packet-typed interconnects with transaction-distribution statistics.

use uarch_stats::{stat_group, Counter, StatGroup, StatVisitor, VectorStat};

use crate::cmd::MemCmd;

stat_group! {
    /// Snoop-filter statistics (single requestor, so these count lookups
    /// rather than filtering effectiveness).
    pub struct SnoopFilterStats {
        /// Requests examined by the snoop filter.
        pub tot_requests: Counter => "tot_requests",
        /// Requests whose line had a single holder.
        pub hit_single_requests: Counter => "hit_single_requests",
        /// Snoops examined.
        pub tot_snoops: Counter => "tot_snoops",
    }
}

stat_group! {
    /// Statistics for one crossbar/bus.
    pub struct BusStats {
        /// Transaction distribution per memory command
        /// (`trans_dist::ReadSharedReq`, `trans_dist::CleanEvict`, ...).
        pub trans_dist: VectorStat<MemCmd> => "trans_dist",
        /// Total packets.
        pub pkt_count: Counter => "pkt_count",
        /// Total payload bytes.
        pub pkt_size: Counter => "pkt_size",
        /// Payload bytes per memory command.
        pub pkt_bytes: VectorStat<MemCmd> => "pkt_size_dist",
        /// Request-class packets.
        pub req_count: Counter => "reqCount",
        /// Response-class packets.
        pub resp_count: Counter => "respCount",
        /// Cycles the bus was occupied by transfers.
        pub utilization_cycles: Counter => "utilizedCycles",
        /// Requests that had to retry because the bus was busy.
        pub retries: Counter => "numRetries",
        /// Snoop filter statistics.
        pub snoop_filter: SnoopFilterStats => "snoop_filter",
    }
}

/// A crossbar connecting cache levels (gem5 `tol2bus` / `membus`).
///
/// Timing: a fixed per-packet transfer latency plus a busy model — if a
/// packet arrives while a previous transfer is still in flight it waits.
///
/// # Example
///
/// ```
/// use sim_mem::{Bus, MemCmd};
/// let mut bus = Bus::new(2);
/// let l0 = bus.send(MemCmd::ReadSharedReq, 64, 0);
/// assert_eq!(l0, 2);
/// let l1 = bus.send(MemCmd::ReadResp, 64, 0); // bus still busy
/// assert!(l1 > 2);
/// ```
#[derive(Debug)]
pub struct Bus {
    stats: BusStats,
    transfer_latency: u64,
    busy_until: u64,
}

impl Bus {
    /// Creates a bus with the given per-packet transfer latency.
    pub fn new(transfer_latency: u64) -> Self {
        Self {
            stats: BusStats::default(),
            transfer_latency,
            busy_until: 0,
        }
    }

    /// Sends one packet at cycle `now`; returns the latency until it is
    /// delivered (including any wait for the bus to free up).
    pub fn send(&mut self, cmd: MemCmd, bytes: u64, now: u64) -> u64 {
        self.stats.trans_dist.inc(cmd);
        self.stats.pkt_count.inc();
        self.stats.pkt_size.add(bytes);
        self.stats.pkt_bytes.add(cmd, bytes);
        if matches!(cmd, MemCmd::ReadResp | MemCmd::WriteResp) {
            self.stats.resp_count.inc();
        } else {
            self.stats.req_count.inc();
        }
        self.stats.snoop_filter.tot_requests.inc();
        if !cmd.is_eviction() {
            self.stats.snoop_filter.hit_single_requests.inc();
        }

        let wait = self.busy_until.saturating_sub(now);
        if wait > 0 {
            self.stats.retries.inc();
        }
        let start = now + wait;
        self.busy_until = start + self.transfer_latency;
        self.stats.utilization_cycles.add(self.transfer_latency);
        wait + self.transfer_latency
    }

    /// Records `n` delivered snoop invalidations on the snoop filter —
    /// multi-core back-invalidations of lines that left the shared L2 or
    /// were requested exclusively by another core. A single-requestor bus
    /// never snoops, so `tot_snoops` stays zero on single-core machines.
    pub fn record_snoops(&mut self, n: u64) {
        self.stats.snoop_filter.tot_snoops.add(n);
    }

    /// The bus statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }
}

impl StatGroup for Bus {
    fn visit(&self, v: &mut dyn StatVisitor) {
        self.stats.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trans_dist_counts_per_command() {
        let mut b = Bus::new(1);
        b.send(MemCmd::CleanEvict, 0, 0);
        b.send(MemCmd::CleanEvict, 0, 10);
        b.send(MemCmd::ReadSharedReq, 64, 20);
        assert_eq!(b.stats().trans_dist.get(MemCmd::CleanEvict), 2);
        assert_eq!(b.stats().trans_dist.get(MemCmd::ReadSharedReq), 1);
        assert_eq!(b.stats().pkt_count.value(), 3);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut b = Bus::new(4);
        assert_eq!(b.send(MemCmd::ReadReq, 64, 100), 4);
        // Arrives while the first transfer occupies the bus.
        assert_eq!(b.send(MemCmd::ReadResp, 64, 101), 3 + 4);
        assert_eq!(b.stats().retries.value(), 1);
    }

    #[test]
    fn idle_bus_adds_no_wait() {
        let mut b = Bus::new(4);
        b.send(MemCmd::ReadReq, 64, 0);
        assert_eq!(b.send(MemCmd::ReadReq, 64, 50), 4);
    }
}
