//! The memory substrate: caches, buses, DRAM.
//!
//! Mirrors gem5's classic memory system closely enough that the statistics
//! the PerSpectron paper selects features from all exist with their gem5
//! names: per-command cache stats (`dcache.ReadReq_mshr_misses`,
//! `l2.ReadSharedReq_miss_latency`), bus transaction distributions
//! (`tol2bus.trans_dist::CleanEvict`), and DRAM controller stats
//! (`mem_ctrls.bytesReadWrQ`, `mem_ctrls.bytesPerActivate`,
//! `mem_ctrls.wrPerTurnAround`, `mem_ctrls.selfRefreshEnergy`).
//!
//! Design: the hierarchy is a *timing and state* model; data lives in the
//! flat [`Memory`] backing store and is accessed functionally. With a single
//! core and no DMA this is exact, and it keeps the out-of-order core free to
//! replay/squash memory operations without corrupting data. Each
//! [`Cache`] tracks its outstanding misses and in-flight evictions in short
//! lists: a miss that finds every MSHR busy (or an eviction every write
//! buffer) waits for the earliest live entry.
//!
//! Ownership follows the hardware split: each core owns a
//! [`MemoryHierarchy`] (its private L1s and functional memory), and one
//! [`Uncore`] (L2, crossbars, DRAM) is owned by whoever drives the cores
//! and lent to every timed access.
//!
//! # Example
//!
//! ```
//! use sim_mem::{HierarchyConfig, MemoryHierarchy, Uncore};
//!
//! let cfg = HierarchyConfig::default();
//! let mut uncore = Uncore::try_new(&cfg, 1).unwrap();
//! let mut mem = MemoryHierarchy::try_new(cfg.l1i, cfg.l1d, 0).unwrap();
//! mem.memory_mut().write(0x1000, 8, 0xdead_beef);
//! let miss = mem.load(&mut uncore, 0x1000, 8, 0);
//! let hit = mem.load(&mut uncore, 0x1000, 8, miss.latency);
//! assert!(hit.latency < miss.latency, "second access hits in L1D");
//! assert_eq!(hit.value, 0xdead_beef);
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod cmd;
pub mod dram;
pub mod error;
pub mod hierarchy;
pub mod memory;
pub mod uncore;

pub use bus::Bus;
pub use cache::{Cache, CacheConfig};
pub use cmd::MemCmd;
pub use dram::{DramConfig, MemCtrl, PowerState};
pub use error::MemError;
pub use hierarchy::{AccessOutcome, HierarchyConfig, LoadResult, MemoryHierarchy};
pub use memory::Memory;
pub use uncore::{ArbiterStats, PendingInvalidation, Uncore};
