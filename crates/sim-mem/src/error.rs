//! Typed construction errors for the memory hierarchy.
//!
//! Geometry problems (zero sets, zero MSHRs, a write buffer count that
//! could never satisfy [`Cache::reserve_write_buffer`], zero DRAM banks)
//! are rejected here, at construction, instead of surfacing later as
//! panics on the access path. `sim-cpu` folds these into its `SimError` layer so a bad
//! `HierarchyConfig` is reported like any other configuration mistake.
//!
//! [`Cache::reserve_write_buffer`]: crate::Cache::reserve_write_buffer

use std::fmt;

/// Why a memory-side component could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// A cache or DRAM parameter is degenerate: the timing model's
    /// invariants (at least one set, way, MSHR, MSHR target and write
    /// buffer; a power-of-two line size; at least one DRAM bank and a
    /// nonzero row size) would not hold.
    InvalidGeometry {
        /// The offending parameter name.
        param: &'static str,
        /// The rejected value.
        value: usize,
        /// What the parameter must satisfy.
        reason: &'static str,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::InvalidGeometry {
                param,
                value,
                reason,
            } => write!(f, "invalid memory geometry: {param} = {value} ({reason})"),
        }
    }
}

impl std::error::Error for MemError {}
