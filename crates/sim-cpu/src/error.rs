//! Typed simulator errors.
//!
//! Everything a caller can get wrong from the outside — a degenerate
//! [`CoreConfig`](crate::CoreConfig), a program with no instructions, a
//! zero sampling interval, a stat row that does not line up with its schema
//! — surfaces as a [`SimError`] instead of a panic, so embedding code (the
//! corpus collector, the online monitor, user harnesses) can report and
//! recover. Invariant violations that can only arise from simulator bugs
//! (a sequence number missing from the ROB, a free-list underflow) remain
//! hard panics: returning `Err` for those would let a corrupted machine
//! keep running.

use sim_mem::MemError;
use uarch_isa::AsmError;

/// An error constructing or driving the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A [`CoreConfig`](crate::CoreConfig) parameter has a value the
    /// pipeline cannot operate with.
    InvalidConfig {
        /// The offending parameter (field name).
        param: &'static str,
        /// The rejected value.
        value: u64,
        /// Why the value is unusable.
        reason: &'static str,
    },
    /// The program has no instructions to fetch.
    EmptyProgram {
        /// Program name.
        name: String,
    },
    /// A sampling interval of zero committed instructions was requested.
    ZeroSampleInterval,
    /// A value row or stat walk did not match the resolved schema shape.
    SchemaMismatch {
        /// Columns the schema defines.
        expected: usize,
        /// Columns actually produced.
        got: usize,
    },
    /// A program failed to assemble.
    Assembly(AsmError),
    /// The memory hierarchy rejected its configuration (degenerate cache
    /// or DRAM geometry).
    Mem(MemError),
    /// The core's watchdog fired: the simulated clock reached
    /// [`CoreConfig::cycle_budget`](crate::CoreConfig::cycle_budget) before
    /// the run finished — a runaway, spinning or deadlocked workload.
    CycleBudgetExceeded {
        /// The configured budget, in simulated cycles.
        budget: u64,
        /// Cycles actually simulated when the watchdog fired.
        cycles: u64,
        /// Instructions committed before the budget ran out.
        committed: u64,
    },
    /// A workload's simulation panicked and the panic was caught at the
    /// collection boundary — the payload is preserved so the quarantine
    /// report can say why.
    WorkloadPanicked {
        /// Name of the workload whose run panicked.
        workload: String,
        /// Stringified panic payload (or a placeholder for non-string
        /// payloads).
        payload: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig {
                param,
                value,
                reason,
            } => {
                write!(f, "invalid core config: {param} = {value} ({reason})")
            }
            SimError::EmptyProgram { name } => {
                write!(f, "program `{name}` has no instructions")
            }
            SimError::ZeroSampleInterval => {
                write!(f, "sampling interval must be a positive instruction count")
            }
            SimError::SchemaMismatch { expected, got } => {
                write!(
                    f,
                    "stat shape mismatch: schema has {expected} columns, walk produced {got}"
                )
            }
            SimError::Assembly(e) => write!(f, "assembly failed: {e}"),
            SimError::Mem(e) => write!(f, "memory hierarchy rejected its configuration: {e}"),
            SimError::CycleBudgetExceeded {
                budget,
                cycles,
                committed,
            } => {
                write!(
                    f,
                    "cycle budget exceeded: {cycles} cycles simulated \
                     (budget {budget}), only {committed} instructions committed"
                )
            }
            SimError::WorkloadPanicked { workload, payload } => {
                write!(f, "workload `{workload}` panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Assembly(e) => Some(e),
            SimError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for SimError {
    fn from(e: AsmError) -> Self {
        SimError::Assembly(e)
    }
}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidConfig {
            param: "rob_entries",
            value: 0,
            reason: "must be positive",
        };
        assert!(e.to_string().contains("rob_entries"));
        assert!(e.to_string().contains("must be positive"));
        let e = SimError::SchemaMismatch {
            expected: 1159,
            got: 7,
        };
        assert!(e.to_string().contains("1159"));
    }

    #[test]
    fn budget_and_panic_errors_display_their_context() {
        let e = SimError::CycleBudgetExceeded {
            budget: 50_000,
            cycles: 50_001,
            committed: 120,
        };
        assert!(e.to_string().contains("50000"));
        assert!(e.to_string().contains("120"));
        let e = SimError::WorkloadPanicked {
            workload: "poison".into(),
            payload: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("poison"));
        assert!(e.to_string().contains("index out of bounds"));
    }

    #[test]
    fn assembly_errors_convert_and_chain() {
        let mut a = uarch_isa::Assembler::new("broken");
        let l = a.label();
        a.jmp(l); // never bound
        let err = a.finish().unwrap_err();
        let sim: SimError = err.into();
        assert!(matches!(sim, SimError::Assembly(_)));
        assert!(std::error::Error::source(&sim).is_some());
    }
}
