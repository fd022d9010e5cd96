//! The `Accelerator` trait and the CPU reference backend.
//!
//! Every backend — CPU, quantum, oscillator, memcomputing — implements
//! [`Accelerator`]; the host runtime ([`crate::host`]) owns them as trait
//! objects and dispatches kernels. The CPU backend supports every kernel
//! (each family entry in [`crate::family`] carries a conventional
//! classical algorithm for it), so there is always a correct (if slow)
//! fallback and a von-Neumann baseline for every comparison.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::{Accelerator, CpuBackend};
//! use accel::kernel::{Kernel, KernelResult};
//!
//! let mut cpu = CpuBackend::new(7);
//! let run = cpu.execute(&Kernel::Compare { x: 0.25, y: 0.75 })?;
//! match run.result {
//!     KernelResult::Distance(d) => assert!((d - 0.5).abs() < 1e-12),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), accel::AccelError>(())
//! ```

use crate::family::BackendProfile;
use crate::kernel::{CostEstimate, Kernel, KernelExecution};
use crate::AccelError;

/// A device that can execute some subset of kernels.
///
/// Object-safe so the host can hold heterogeneous backends, and `Send` so
/// the `runtime` crate's worker threads can own backend sets.
pub trait Accelerator: Send {
    /// A stable backend name for reports and errors.
    fn name(&self) -> &str;

    /// Whether this backend can execute the kernel.
    fn supports(&self, kernel: &Kernel) -> bool;

    /// Executes a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Unsupported`] for unsupported kernels or a
    /// wrapped backend failure.
    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError>;

    /// Predicts the cost of executing `kernel` on this backend, *without*
    /// executing it.
    ///
    /// Returns `None` for kernels the backend does not support or has no
    /// cost model for; the planner ranks such backends last. Estimates
    /// must be pure functions of the kernel (no RNG, no mutable state) so
    /// planning stays deterministic.
    fn estimate(&self, _kernel: &Kernel) -> Option<CostEstimate> {
        None
    }

    /// Resets the backend's stochastic state to a deterministic seed.
    ///
    /// Concurrent serving dispatches jobs to whichever backend instance is
    /// free, so a backend that advances an internal RNG per execution would
    /// make job results depend on scheduling history. Reseeding before each
    /// execution pins every job's result to its own seed instead. The
    /// default is a no-op for backends with no stochastic state.
    fn reseed(&mut self, _seed: u64) {}
}

/// Seconds per abstract CPU operation: a generously fast classical core,
/// so the *relative* scaling against the specialized backends is what
/// shows up in reports.
const CPU_SECONDS_PER_OP: f64 = 1e-9;

/// Modelled core power draw in watts, used for energy estimates. A
/// conservative 1 W scalar-core budget: generous next to the paper's
/// 3 mW figure for a single 32 nm CMOS comparison *block*, but the CPU
/// here stands in for a whole general-purpose core, not one datapath.
const CPU_WATTS: f64 = 1.0;

/// The classical (von Neumann) reference backend: every family has a
/// conventional classical algorithm for it (see [`crate::family`]).
#[derive(Debug, Clone)]
pub struct CpuBackend {
    seed: u64,
}

impl CpuBackend {
    /// Creates a CPU backend with a deterministic seed for its stochastic
    /// fallbacks.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CpuBackend { seed }
    }

    fn profile(&self) -> BackendProfile<'static> {
        BackendProfile::Cpu {
            seconds_per_op: CPU_SECONDS_PER_OP,
            watts: CPU_WATTS,
        }
    }
}

impl Accelerator for CpuBackend {
    fn name(&self) -> &str {
        self.profile().backend_name()
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.profile().supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.profile().estimate(kernel)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        self.profile().execute(kernel, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelResult;
    use mem::generators::planted_3sat;

    #[test]
    fn cpu_supports_everything() {
        let cpu = CpuBackend::new(1);
        assert!(cpu.supports(&Kernel::Factor { n: 15 }));
        assert!(cpu.supports(&Kernel::Compare { x: 0.0, y: 1.0 }));
    }

    #[test]
    fn cpu_factors() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu.execute(&Kernel::Factor { n: 91 }).unwrap();
        match run.result {
            KernelResult::Factors(p, q) => assert_eq!(p * q, 91),
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.operations > 0);
    }

    #[test]
    fn cpu_factor_of_prime_errors() {
        let mut cpu = CpuBackend::new(1);
        assert!(cpu.execute(&Kernel::Factor { n: 13 }).is_err());
    }

    #[test]
    fn cpu_search_scans_linearly() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::Search {
                n_qubits: 8,
                marked: vec![200],
            })
            .unwrap();
        assert_eq!(run.result, KernelResult::Found(200));
        assert_eq!(run.cost.operations, 201);
    }

    #[test]
    fn cpu_solves_sat() {
        let inst = planted_3sat(15, 3.5, 2).unwrap();
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::SolveSat {
                formula: inst.formula.clone(),
            })
            .unwrap();
        match run.result {
            KernelResult::SatSolution(Some(bits)) => {
                let a = mem::assignment::Assignment::from_bools(&bits);
                assert!(inst.formula.is_satisfied(&a));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cpu_dna_similarity_in_unit_interval() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "ACGTTCGT".into(),
                k: 2,
            })
            .unwrap();
        match run.result {
            KernelResult::Similarity(s) => assert!((0.0..=1.0).contains(&s)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cost_scales_with_ops() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::Search {
                n_qubits: 10,
                marked: vec![999],
            })
            .unwrap();
        assert_eq!(run.cost.operations, 1000);
        assert!((run.cost.device_seconds - 1e-6).abs() < 1e-18);
    }
}
