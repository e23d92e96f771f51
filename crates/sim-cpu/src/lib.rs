//! A cycle-driven out-of-order core with real speculative execution and a
//! gem5-style statistics inventory.
//!
//! The core reproduces the mechanisms microarchitectural attacks exploit:
//!
//! - **Speculation past branches** — fetch follows a tournament predictor,
//!   a 4096-entry BTB and a 16-entry return address stack; wrong-path
//!   instructions execute and leave cache footprints before the squash.
//! - **Late permission checks** — loads from kernel addresses forward their
//!   data speculatively and fault only at commit (the Meltdown window).
//! - **Timing read-out** — `rdcycle` is a serializing cycle-counter read, so
//!   workloads can implement Flush+Reload / Prime+Probe / Flush+Flush timers
//!   exactly as the PoCs do.
//!
//! # Example
//!
//! ```
//! use sim_cpu::{CoreConfig, Machine};
//! use sim_mem::HierarchyConfig;
//! use uarch_isa::{Assembler, Reg};
//!
//! let mut a = Assembler::new("demo");
//! a.li(Reg::R1, 21);
//! a.add(Reg::R2, Reg::R1, Reg::R1);
//! a.halt();
//! let program = a.finish().unwrap();
//! let mut m = Machine::single_core(&CoreConfig::default(), program);
//! let summary = m.run(100);
//! assert!(summary.halted);
//! assert_eq!(m.core(0).reg(Reg::R2), 42);
//! ```

#![warn(missing_docs)]

mod bpred;
pub mod config;
pub mod core;
mod decoded;
mod dyninst;
pub mod error;
pub mod machine;
mod pipeline;
pub mod stats;
mod tlb;

pub use crate::core::{Core, CoreStatsView, MarkEvent, KERNEL_SPACE_BASE};
pub use config::CoreConfig;
pub use error::SimError;
pub use machine::{Machine, RunSummary};
pub use stats::stat_invariants;
