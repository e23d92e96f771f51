//! DRAM controller: queues, row buffers, bus turnaround and the power-state
//! machine.
//!
//! The statistics here carry several of the paper's most discriminative
//! invariant features: `bytesReadWrQ` (reads serviced by the write queue —
//! "most attacks attempt to read data freshly evicted from the caches"),
//! `bytesPerActivate`, `wrPerTurnAround`, and `selfRefreshEnergy`.

use std::collections::VecDeque;

use uarch_stats::{
    stat_group, Average, Counter, Distribution, Scalar, StatGroup, StatItem, StatKey, StatVisitor,
    VectorStat,
};

/// Per-bank activation counters emitted as `perBankActivations::N`.
#[derive(Debug, Clone, Default)]
pub struct PerBankActivations(pub Vec<u64>);

impl StatItem for PerBankActivations {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        for (i, c) in self.0.iter().enumerate() {
            v.scalar(format_args!("{name}::{i}"), *c as f64);
        }
    }
}

/// DRAM power states, mirroring gem5's `PowerState` enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PowerState {
    Idle,
    Active,
    ActivePowerDown,
    PrechargePowerDown,
    SelfRefresh,
}

impl PowerState {
    /// All power states in stat order.
    pub const ALL: [PowerState; 5] = [
        PowerState::Idle,
        PowerState::Active,
        PowerState::ActivePowerDown,
        PowerState::PrechargePowerDown,
        PowerState::SelfRefresh,
    ];
}

impl StatKey for PowerState {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        PowerState::ALL
            .iter()
            .position(|&s| s == self)
            .expect("state in ALL")
    }

    fn label(i: usize) -> &'static str {
        ["IDLE", "ACT", "ACT_PDN", "PRE_PDN", "SREF"][i]
    }
}

/// Timing and sizing of the DRAM controller.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// Row (page) size in bytes per bank.
    pub row_size: u64,
    /// Activate (row open) latency.
    pub t_rcd: u64,
    /// Column access latency.
    pub t_cas: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Data burst latency.
    pub t_burst: u64,
    /// Write queue capacity.
    pub write_queue: usize,
    /// Drain the write queue down to this level when it fills.
    pub wq_drain_to: usize,
    /// Idle cycles after which the device drops into a power-down state.
    pub powerdown_threshold: u64,
    /// Idle cycles after which the device enters self-refresh.
    pub selfrefresh_threshold: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            banks: 8,
            row_size: 2048,
            t_rcd: 14,
            t_cas: 14,
            t_rp: 14,
            t_burst: 4,
            write_queue: 64,
            wq_drain_to: 16,
            powerdown_threshold: 300,
            selfrefresh_threshold: 3000,
        }
    }
}

stat_group! {
    /// DRAM controller statistics (gem5 `mem_ctrls.*`).
    pub struct DramStats {
        /// Read requests received.
        pub read_reqs: Counter => "readReqs",
        /// Write requests received.
        pub write_reqs: Counter => "writeReqs",
        /// Bytes read from the DRAM devices.
        pub bytes_read_dram: Counter => "bytesReadDRAM",
        /// Bytes of read requests serviced directly by the write queue.
        pub bytes_read_wr_q: Counter => "bytesReadWrQ",
        /// Bytes written to DRAM.
        pub bytes_written: Counter => "bytesWritten",
        /// Read row-buffer hits.
        pub read_row_hits: Counter => "readRowHits",
        /// Write row-buffer hits.
        pub write_row_hits: Counter => "writeRowHits",
        /// Row activations.
        pub activations: Counter => "rankTotalActivations",
        /// Bytes accessed per row activation.
        pub bytes_per_activate: Average => "bytesPerActivate",
        /// Writes serviced per write→read bus turnaround.
        pub wr_per_turn_around: Average => "wrPerTurnAround",
        /// Total read-queue latency.
        pub tot_q_lat: Counter => "totQLat",
        /// Write bursts drained.
        pub write_bursts: Counter => "writeBursts",
        /// Read bursts serviced.
        pub read_bursts: Counter => "readBursts",
        /// Activate energy (pJ).
        pub act_energy: Scalar => "actEnergy",
        /// Precharge energy (pJ).
        pub pre_energy: Scalar => "preEnergy",
        /// Read burst energy (pJ).
        pub read_energy: Scalar => "readEnergy",
        /// Write burst energy (pJ).
        pub write_energy: Scalar => "writeEnergy",
        /// Background energy while active (pJ).
        pub act_back_energy: Scalar => "actBackEnergy",
        /// Background energy while precharged (pJ).
        pub pre_back_energy: Scalar => "preBackEnergy",
        /// Energy spent in self-refresh (pJ).
        pub self_refresh_energy: Scalar => "selfRefreshEnergy",
        /// Refresh energy (pJ).
        pub refresh_energy: Scalar => "refreshEnergy",
        /// Total energy (pJ).
        pub total_energy: Scalar => "totalEnergy",
        /// Cycles spent in each power state.
        pub memory_state_time: VectorStat<PowerState> => "memoryStateTime",
        /// Average queueing latency per serviced read.
        pub avg_q_lat: Average => "avgQLat",
        /// Write-queue length sampled at each write arrival.
        pub wr_q_len_pdf: Distribution = (0.0, 64.0, 8) => "wrQLenPdf",
        /// Write-queue length sampled at each read arrival.
        pub rd_q_len_pdf: Distribution = (0.0, 64.0, 8) => "rdQLenPdf",
        /// Read service latency distribution.
        pub read_latency_dist: Distribution = (0.0, 120.0, 8) => "readLatencyDist",
        /// Activations per bank.
        pub per_bank_activations: PerBankActivations => "perBankActivations",
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusDir {
    Reads,
    Writes,
}

/// The DRAM memory controller (gem5 `mem_ctrls`).
///
/// Synchronous model: each request returns its service latency immediately;
/// queue, row-buffer and power bookkeeping happen as side effects.
#[derive(Debug)]
pub struct MemCtrl {
    cfg: DramConfig,
    stats: DramStats,
    open_row: Vec<Option<u64>>,
    bytes_this_row: Vec<u64>,
    write_q: VecDeque<u64>,
    bus_dir: BusDir,
    writes_since_turnaround: u64,
    last_busy: u64,
}

impl MemCtrl {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            open_row: vec![None; cfg.banks],
            bytes_this_row: vec![0; cfg.banks],
            write_q: VecDeque::new(),
            bus_dir: BusDir::Reads,
            writes_since_turnaround: 0,
            last_busy: 0,
            stats: {
                let mut st = DramStats::default();
                st.per_bank_activations.0 = vec![0; cfg.banks];
                st
            },
            cfg,
        }
    }

    /// The controller statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Current write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_bytes = self.cfg.row_size;
        let bank = ((addr / row_bytes) % self.cfg.banks as u64) as usize;
        let row = addr / (row_bytes * self.cfg.banks as u64);
        (bank, row)
    }

    /// Updates power-state accounting for the idle gap before `now`.
    fn account_idle(&mut self, now: u64) {
        let gap = now.saturating_sub(self.last_busy);
        if gap == 0 {
            return;
        }
        if gap > self.cfg.selfrefresh_threshold {
            let pd = self.cfg.powerdown_threshold.min(gap);
            let sr = gap - self.cfg.selfrefresh_threshold;
            let idle = gap - sr - pd.min(gap - sr);
            self.stats.memory_state_time.add(PowerState::Idle, idle);
            self.stats
                .memory_state_time
                .add(PowerState::PrechargePowerDown, pd.min(gap - sr));
            self.stats
                .memory_state_time
                .add(PowerState::SelfRefresh, sr);
            self.stats.self_refresh_energy.add(sr as f64 * 0.4);
            self.stats
                .pre_back_energy
                .add(pd.min(gap - sr) as f64 * 0.8);
            // Entering self-refresh closes all rows.
            for (row, bytes) in self.open_row.iter_mut().zip(&mut self.bytes_this_row) {
                *row = None;
                *bytes = 0;
            }
        } else if gap > self.cfg.powerdown_threshold {
            let pd = gap - self.cfg.powerdown_threshold;
            self.stats.memory_state_time.add(PowerState::Idle, gap - pd);
            self.stats
                .memory_state_time
                .add(PowerState::ActivePowerDown, pd);
            self.stats.act_back_energy.add(pd as f64 * 1.2);
        } else {
            self.stats.memory_state_time.add(PowerState::Idle, gap);
            self.stats.pre_back_energy.add(gap as f64 * 1.0);
        }
    }

    fn row_access(&mut self, addr: u64, bytes: u64) -> (u64, bool) {
        let (bank, row) = self.bank_and_row(addr);
        if self.open_row[bank] == Some(row) {
            self.bytes_this_row[bank] += bytes;
            (self.cfg.t_cas + self.cfg.t_burst, true)
        } else {
            let mut lat = self.cfg.t_rcd + self.cfg.t_cas + self.cfg.t_burst;
            if self.open_row[bank].is_some() {
                lat += self.cfg.t_rp;
                self.stats.pre_energy.add(2.0);
                self.stats
                    .bytes_per_activate
                    .record(self.bytes_this_row[bank] as f64);
            }
            self.open_row[bank] = Some(row);
            self.bytes_this_row[bank] = bytes;
            self.stats.activations.inc();
            self.stats.per_bank_activations.0[bank] += 1;
            self.stats.act_energy.add(6.0);
            (lat, false)
        }
    }

    fn drain_writes(&mut self, now: u64) -> u64 {
        let mut lat = 0;
        if self.bus_dir == BusDir::Reads {
            self.bus_dir = BusDir::Writes;
        }
        while self.write_q.len() > self.cfg.wq_drain_to {
            let addr = self.write_q.pop_front().expect("non-empty");
            let (l, hit) = self.row_access(addr, 64);
            if hit {
                self.stats.write_row_hits.inc();
            }
            lat += l / 2; // write bursts pipeline behind each other
            self.stats.write_bursts.inc();
            self.stats.write_energy.add(4.5);
            self.writes_since_turnaround += 1;
        }
        self.last_busy = now + lat;
        lat
    }

    /// Services a line read at cycle `now`; returns the latency.
    pub fn read(&mut self, addr: u64, bytes: u64, now: u64) -> u64 {
        self.account_idle(now);
        self.stats.read_reqs.inc();
        self.stats.read_bursts.inc();
        self.stats.rd_q_len_pdf.record(self.write_q.len() as f64);

        // Serviced by the write queue?
        let line = addr & !63;
        if self.write_q.iter().any(|&w| (w & !63) == line) {
            self.stats.bytes_read_wr_q.add(bytes);
            let lat = self.cfg.t_burst;
            self.last_busy = now + lat;
            self.stats.memory_state_time.add(PowerState::Active, lat);
            return lat;
        }

        // Bus turnaround if we were draining writes.
        if self.bus_dir == BusDir::Writes {
            self.bus_dir = BusDir::Reads;
            self.stats
                .wr_per_turn_around
                .record(self.writes_since_turnaround as f64);
            self.writes_since_turnaround = 0;
        }

        let (lat, hit) = self.row_access(addr, bytes);
        if hit {
            self.stats.read_row_hits.inc();
        }
        self.stats.bytes_read_dram.add(bytes);
        self.stats.read_energy.add(4.0);
        self.stats.tot_q_lat.add(lat);
        self.stats.avg_q_lat.record(lat as f64);
        self.stats.read_latency_dist.record(lat as f64);
        self.stats.memory_state_time.add(PowerState::Active, lat);
        self.stats.total_energy.set(self.total_energy_now());
        self.last_busy = now + lat;
        lat
    }

    /// Accepts a line write (writeback) at cycle `now`; returns the latency
    /// charged to the requester (usually just the enqueue cost).
    pub fn write(&mut self, addr: u64, bytes: u64, now: u64) -> u64 {
        self.account_idle(now);
        self.stats.write_reqs.inc();
        self.stats.bytes_written.add(bytes);
        self.stats.wr_q_len_pdf.record(self.write_q.len() as f64);
        self.write_q.push_back(addr);
        let mut lat = 1;
        if self.write_q.len() >= self.cfg.write_queue {
            lat += self.drain_writes(now);
        }
        self.stats.memory_state_time.add(PowerState::Active, lat);
        self.stats.total_energy.set(self.total_energy_now());
        self.last_busy = now + lat;
        lat
    }

    fn total_energy_now(&self) -> f64 {
        self.stats.act_energy.value()
            + self.stats.pre_energy.value()
            + self.stats.read_energy.value()
            + self.stats.write_energy.value()
            + self.stats.act_back_energy.value()
            + self.stats.pre_back_energy.value()
            + self.stats.self_refresh_energy.value()
            + self.stats.refresh_energy.value()
    }
}

impl StatGroup for MemCtrl {
    fn visit(&self, v: &mut dyn StatVisitor) {
        self.stats.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut m = MemCtrl::new(DramConfig::default());
        let miss = m.read(0x0, 64, 0);
        let hit = m.read(0x40, 64, 100); // same row
        assert!(hit < miss);
        assert_eq!(m.stats().read_row_hits.value(), 1);
    }

    #[test]
    fn read_hitting_write_queue_counts_bytes_read_wr_q() {
        let mut m = MemCtrl::new(DramConfig::default());
        m.write(0x1000, 64, 0);
        let lat = m.read(0x1000, 64, 10);
        assert_eq!(m.stats().bytes_read_wr_q.value(), 64);
        assert_eq!(lat, m.cfg.t_burst);
    }

    #[test]
    fn write_queue_fills_then_drains() {
        let cfg = DramConfig {
            write_queue: 4,
            wq_drain_to: 1,
            ..Default::default()
        };
        let mut m = MemCtrl::new(cfg);
        for i in 0..4 {
            m.write(0x1000 * i, 64, i);
        }
        assert!(m.write_queue_len() <= 1);
        assert!(m.stats().write_bursts.value() >= 3);
    }

    #[test]
    fn turnaround_records_writes_per_switch() {
        let cfg = DramConfig {
            write_queue: 2,
            wq_drain_to: 0,
            ..Default::default()
        };
        let mut m = MemCtrl::new(cfg);
        m.write(0x0, 64, 0);
        m.write(0x4000, 64, 1); // triggers drain → bus to Writes
        m.read(0x8000, 64, 50); // turnaround back to Reads
        assert_eq!(m.stats().wr_per_turn_around.count(), 1);
        assert_eq!(m.stats().wr_per_turn_around.sum(), 2.0);
    }

    #[test]
    fn long_idle_gap_accrues_self_refresh_energy() {
        let mut m = MemCtrl::new(DramConfig::default());
        m.read(0x0, 64, 0);
        m.read(0x40, 64, 100_000); // huge gap
        assert!(m.stats().self_refresh_energy.value() > 0.0);
        assert!(m.stats().memory_state_time.get(PowerState::SelfRefresh) > 0);
    }

    #[test]
    fn self_refresh_closes_rows() {
        let mut m = MemCtrl::new(DramConfig::default());
        let first = m.read(0x0, 64, 0);
        // Without the gap this would be a row hit; after self-refresh the
        // row must be re-activated.
        let after_sr = m.read(0x40, 64, 100_000);
        assert_eq!(first, after_sr);
        assert_eq!(m.stats().read_row_hits.value(), 0);
    }

    #[test]
    fn bytes_per_activate_records_on_row_close() {
        let cfg = DramConfig {
            banks: 1,
            row_size: 128,
            ..Default::default()
        };
        let mut m = MemCtrl::new(cfg);
        m.read(0x00, 64, 0);
        m.read(0x40, 64, 10); // same row: 128 bytes accumulated
        m.read(0x100, 64, 20); // different row → closes previous
        assert_eq!(m.stats().bytes_per_activate.count(), 1);
        assert_eq!(m.stats().bytes_per_activate.sum(), 128.0);
    }
}
