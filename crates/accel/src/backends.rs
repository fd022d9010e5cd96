//! The specialized backends.
//!
//! * [`QuantumBackend`] — Shor factoring, Grover search, swap-test DNA
//!   similarity on the state-vector simulator, with device time from the
//!   micro-architecture timing model.
//! * [`OscillatorBackend`] — the calibrated coupled-oscillator distance
//!   primitive; device time is one readout window per comparison.
//! * [`MemBackend`] — the DMM SAT solver; device time is the simulated
//!   physical time `steps · dt`.
//! * [`WalkSatBackend`] — a stochastic-local-search SAT engine (WalkSAT/
//!   SKC); device time is flips at a pipelined flip cadence. Only part of
//!   [`portfolio_pool`], where it gives hedged dispatch a third SAT path
//!   to race against the DMM and the CPU's DPLL.
//!
//! Each backend is a name, a [`BackendProfile`] and a seed source. How a
//! kernel is supported, costed and run on a backend class lives in the
//! kernel's [`crate::family`] entry, which the backend hands the kernel
//! and its profile to.
//!
//! # Example
//!
//! ```no_run
//! use accel::accelerator::Accelerator;
//! use accel::backends::MemBackend;
//! use accel::kernel::Kernel;
//! use mem::generators::planted_3sat;
//!
//! let inst = planted_3sat(20, 4.0, 1)?;
//! let mut backend = MemBackend::new(3);
//! let run = backend.execute(&Kernel::SolveSat { formula: inst.formula })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::accelerator::Accelerator;
use crate::family::BackendProfile;
use crate::kernel::{CostEstimate, Kernel, KernelExecution};
use crate::AccelError;
use mem::dmm::{DmmParams, DmmSolver};
use mem::walksat::{WalkSat, WalkSatParams};
use numerics::rng::SeedStream;
use osc::norms::{NormRegime, OscillatorDistance};
use quantum::microarch::TimingModel;

/// Oscillator FAST block power: "0.936 mW, significantly smaller than
/// … 3 mW" for the 32 nm CMOS equivalent (paper §III; see
/// `osc::power` / `vision::energy` for the derivation from the circuit
/// model).
const OSC_BLOCK_WATTS: f64 = 0.936e-3;

/// Oscillator readout window per comparison: one 32-cycle window at a
/// ~20 MHz oscillation.
const OSC_WINDOW_SECONDS: f64 = 32.0 / 20e6;

/// Modelled quantum control-plane power (cryo drive + readout
/// electronics per active chip) for energy estimates.
const QUANTUM_CONTROL_WATTS: f64 = 25.0;

/// Swap-test shots per DNA similarity on the quantum backend.
const QUANTUM_DNA_SHOTS: usize = 500;

/// Modelled memcomputing crossbar power for energy estimates.
const MEM_CELL_WATTS: f64 = 10e-3;

/// Modelled seconds per WalkSAT variable flip: a dedicated local-search
/// pipeline evaluating break counts from incrementally maintained
/// occurrence lists, one flip per few cycles at a GHz-class clock.
const WALKSAT_FLIP_SECONDS: f64 = 2e-9;

/// Modelled WalkSAT engine power: a compact fixed-function datapath, far
/// below a full core but above the memcomputing crossbar.
const WALKSAT_ENGINE_WATTS: f64 = 0.2;

/// Builds the full heterogeneous pool — quantum, oscillator, memcomputing,
/// and the CPU fallback — in the priority order
/// [`crate::host::DispatchPolicy::PreferSpecialized`] expects.
///
/// This is the constructor the `runtime` crate's workers use: each worker
/// thread owns its own pool, so backends only need `Send`, not `Sync`.
///
/// # Errors
///
/// Propagates oscillator calibration failures.
pub fn standard_pool(
    seed: u64,
) -> Result<Vec<Box<dyn crate::accelerator::Accelerator>>, AccelError> {
    let mut seeds = SeedStream::new(seed);
    Ok(vec![
        Box::new(QuantumBackend::new(seeds.next_seed())),
        Box::new(OscillatorBackend::new()?),
        Box::new(MemBackend::new(seeds.next_seed())),
        Box::new(crate::accelerator::CpuBackend::new(seeds.next_seed())),
    ])
}

/// The SAT-portfolio pool: [`standard_pool`] plus a [`WalkSatBackend`]
/// between the DMM and the CPU, so hedged dispatch has three genuinely
/// different SAT paths to race — DMM dynamics, stochastic local search,
/// and systematic DPLL.
///
/// The standard pool's registration order (and therefore its
/// `PreferSpecialized` rankings and every seeded result derived from
/// them) is deliberately left untouched; serving configurations opt into
/// the portfolio explicitly when hedging is enabled.
///
/// Seed derivation for the backends shared with [`standard_pool`] uses
/// the same stream positions, so a job's result on those backends is
/// identical under either pool.
///
/// # Errors
///
/// Propagates oscillator calibration failures.
pub fn portfolio_pool(
    seed: u64,
) -> Result<Vec<Box<dyn crate::accelerator::Accelerator>>, AccelError> {
    let mut seeds = SeedStream::new(seed);
    let quantum = seeds.next_seed();
    let dmm = seeds.next_seed();
    let cpu = seeds.next_seed();
    let walksat = seeds.next_seed();
    Ok(vec![
        Box::new(QuantumBackend::new(quantum)),
        Box::new(OscillatorBackend::new()?),
        Box::new(MemBackend::new(dmm)),
        Box::new(WalkSatBackend::new(walksat)),
        Box::new(crate::accelerator::CpuBackend::new(cpu)),
    ])
}

/// Draws one seed from `seeds` when `profile` can serve `kernel`, so an
/// unsupported request leaves the stream where it was.
fn seed_if_supported(profile: &BackendProfile<'_>, kernel: &Kernel, seeds: &mut SeedStream) -> u64 {
    if profile.supports(kernel) {
        seeds.next_seed()
    } else {
        0
    }
}

/// The quantum accelerator (Fig. 2's stack over the state-vector chip).
#[derive(Debug, Clone)]
pub struct QuantumBackend {
    seeds: SeedStream,
}

impl QuantumBackend {
    /// Creates a quantum backend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        QuantumBackend {
            seeds: SeedStream::new(seed),
        }
    }

    fn profile(&self) -> BackendProfile<'static> {
        BackendProfile::Quantum {
            timing: TimingModel::default(),
            control_watts: QUANTUM_CONTROL_WATTS,
            dna_shots: QUANTUM_DNA_SHOTS,
        }
    }
}

impl Accelerator for QuantumBackend {
    fn name(&self) -> &str {
        self.profile().backend_name()
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.profile().supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.profile().estimate(kernel)
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        // One seed per execution, supported or not.
        let seed = self.seeds.next_seed();
        self.profile().execute(kernel, seed)
    }
}

/// The coupled-oscillator analog backend.
#[derive(Debug, Clone)]
pub struct OscillatorBackend {
    distance: OscillatorDistance,
}

impl OscillatorBackend {
    /// Calibrates an oscillator backend in the shallow-norm regime.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn new() -> Result<Self, AccelError> {
        let config = NormRegime::Shallow.config();
        let distance = OscillatorDistance::calibrate(config, 0.62, 0.02, 9)
            .map_err(|e| AccelError::backend("oscillator", e))?;
        Ok(OscillatorBackend { distance })
    }

    fn profile(&self) -> BackendProfile<'_> {
        BackendProfile::Oscillator {
            distance: &self.distance,
            window_seconds: OSC_WINDOW_SECONDS,
            block_watts: OSC_BLOCK_WATTS,
        }
    }
}

impl Accelerator for OscillatorBackend {
    fn name(&self) -> &str {
        self.profile().backend_name()
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.profile().supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.profile().estimate(kernel)
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        // The oscillator substrate is deterministic — no seed state.
        self.profile().execute(kernel, 0)
    }
}

/// The digital-memcomputing optimization backend.
#[derive(Debug, Clone)]
pub struct MemBackend {
    seeds: SeedStream,
}

impl MemBackend {
    /// Creates a memcomputing backend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MemBackend {
            seeds: SeedStream::new(seed),
        }
    }

    fn profile(&self) -> BackendProfile<'static> {
        BackendProfile::Mem {
            solver: DmmSolver::new(DmmParams::default()),
            cell_watts: MEM_CELL_WATTS,
        }
    }
}

impl Accelerator for MemBackend {
    fn name(&self) -> &str {
        self.profile().backend_name()
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.profile().supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.profile().estimate(kernel)
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        let profile = self.profile();
        let seed = seed_if_supported(&profile, kernel, &mut self.seeds);
        profile.execute(kernel, seed)
    }
}

/// A stochastic-local-search SAT backend (WalkSAT/SKC).
///
/// Gives the dispatch layer a third SAT substrate with a cost profile
/// unlike either the DMM (continuous dynamics, strong on structured
/// instances) or DPLL (systematic, strong on small/unsatisfiable ones):
/// local search is cheap per step and excellent on underconstrained
/// satisfiable formulas, but gives up (`SatSolution(None)`) rather than
/// proving unsatisfiability. That asymmetry is exactly what hedged
/// portfolio dispatch exploits.
#[derive(Debug, Clone)]
pub struct WalkSatBackend {
    seeds: SeedStream,
}

impl WalkSatBackend {
    /// Creates a WalkSAT backend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WalkSatBackend {
            seeds: SeedStream::new(seed),
        }
    }

    fn profile(&self) -> BackendProfile<'static> {
        BackendProfile::WalkSat {
            solver: WalkSat::new(WalkSatParams::default()),
            flip_seconds: WALKSAT_FLIP_SECONDS,
            watts: WALKSAT_ENGINE_WATTS,
        }
    }
}

impl Accelerator for WalkSatBackend {
    fn name(&self) -> &str {
        self.profile().backend_name()
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.profile().supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.profile().estimate(kernel)
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        let profile = self.profile();
        let seed = seed_if_supported(&profile, kernel, &mut self.seeds);
        profile.execute(kernel, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelResult;
    use mem::generators::planted_3sat;

    #[test]
    fn quantum_backend_factors() {
        let mut q = QuantumBackend::new(1);
        let run = q.execute(&Kernel::Factor { n: 15 }).unwrap();
        match run.result {
            KernelResult::Factors(p, qf) => assert_eq!(p * qf, 15),
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.device_seconds > 0.0);
    }

    #[test]
    fn quantum_backend_searches() {
        let mut q = QuantumBackend::new(2);
        let run = q
            .execute(&Kernel::Search {
                n_qubits: 6,
                marked: vec![42],
            })
            .unwrap();
        assert_eq!(run.result, KernelResult::Found(42));
    }

    #[test]
    fn quantum_backend_rejects_sat() {
        let inst = planted_3sat(10, 3.0, 1).unwrap();
        let mut q = QuantumBackend::new(1);
        assert!(matches!(
            q.execute(&Kernel::SolveSat {
                formula: inst.formula
            }),
            Err(AccelError::Unsupported { .. })
        ));
    }

    #[test]
    fn mem_backend_solves_sat() {
        let inst = planted_3sat(15, 3.8, 4).unwrap();
        let mut m = MemBackend::new(3);
        let run = m
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
        assert!(run.cost.operations > 0);
    }

    #[test]
    fn oscillator_backend_compares() {
        let mut o = OscillatorBackend::new().unwrap();
        let near = o.execute(&Kernel::Compare { x: 0.5, y: 0.52 }).unwrap();
        let far = o.execute(&Kernel::Compare { x: 0.1, y: 0.9 }).unwrap();
        let (dn, df) = match (near.result, far.result) {
            (KernelResult::Distance(a), KernelResult::Distance(b)) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        assert!(df >= dn, "{dn} vs {df}");
    }

    #[test]
    fn support_matrices_disjoint() {
        let q = QuantumBackend::new(1);
        let m = MemBackend::new(1);
        let k = Kernel::Compare { x: 0.0, y: 0.0 };
        assert!(!q.supports(&k));
        assert!(!m.supports(&k));
    }

    #[test]
    fn walksat_backend_solves_sat_deterministically() {
        let inst = planted_3sat(15, 3.5, 9).unwrap();
        let kernel = Kernel::SolveSat {
            formula: inst.formula.clone(),
        };
        let mut w = WalkSatBackend::new(5);
        let run = w.execute(&kernel).unwrap();
        match run.result {
            KernelResult::SatSolution(Some(bits)) => {
                let a = mem::assignment::Assignment::from_bools(&bits);
                assert!(inst.formula.is_satisfied(&a));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.device_seconds > 0.0);
        // Reseeding replays the identical search.
        let mut again = WalkSatBackend::new(999);
        w.reseed(1234);
        again.reseed(1234);
        assert_eq!(w.execute(&kernel).unwrap(), again.execute(&kernel).unwrap());
    }

    #[test]
    fn walksat_backend_only_speaks_sat() {
        let w = WalkSatBackend::new(1);
        assert!(!w.supports(&Kernel::Factor { n: 21 }));
        assert!(w.estimate(&Kernel::Factor { n: 21 }).is_none());
        let inst = planted_3sat(10, 3.0, 2).unwrap();
        let k = Kernel::SolveSat {
            formula: inst.formula,
        };
        assert!(w.supports(&k));
        let est = w.estimate(&k).unwrap();
        assert!(est.device_seconds > 0.0 && est.energy_joules > 0.0);
    }

    #[test]
    fn portfolio_pool_extends_the_standard_pool() {
        let standard: Vec<String> = standard_pool(7)
            .unwrap()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        let portfolio: Vec<String> = portfolio_pool(7)
            .unwrap()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(
            standard,
            vec!["quantum", "oscillator", "memcomputing", "cpu"]
        );
        assert_eq!(
            portfolio,
            vec!["quantum", "oscillator", "memcomputing", "walksat", "cpu"]
        );
    }

    #[test]
    fn shared_backends_agree_across_pools() {
        // A reseeded job must produce identical bytes on the backends the
        // two pools share — hedging opt-in cannot silently change results.
        let inst = planted_3sat(12, 3.8, 6).unwrap();
        let kernel = Kernel::SolveSat {
            formula: inst.formula,
        };
        let mut std_pool = standard_pool(7).unwrap();
        let mut port_pool = portfolio_pool(7).unwrap();
        for name in ["memcomputing", "cpu"] {
            let a = std_pool.iter_mut().find(|b| b.name() == name).unwrap();
            let b = port_pool.iter_mut().find(|b| b.name() == name).unwrap();
            a.reseed(42);
            b.reseed(42);
            assert_eq!(a.execute(&kernel).unwrap(), b.execute(&kernel).unwrap());
        }
    }
}
