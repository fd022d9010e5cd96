//! Answer certificates and outcome fingerprints.
//!
//! Every served answer is checked against a cheap certificate before it
//! counts as completed; an answer that fails its certificate counts in
//! `failed_frac` like a refused or timed-out job.

use accel::family::{FamilyKernel, FamilyResult};
use accel::kernel::{Kernel, KernelResult};
use wire::{encode_kernel_result, WireOutcome};

/// Checks `result` against `kernel`'s certificate.
pub fn certify(kernel: &Kernel, result: &KernelResult) -> Result<(), String> {
    let unit = |v: f64, what: &str| {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Ok(())
        } else {
            Err(format!("{what} {v} is not in [0, 1]"))
        }
    };
    match (kernel, result) {
        (Kernel::Factor { n }, KernelResult::Factors(p, q)) => {
            if *p > 1 && *q > 1 && p.checked_mul(*q) == Some(*n) {
                Ok(())
            } else {
                Err(format!(
                    "{p} x {q} is not a nontrivial factorization of {n}"
                ))
            }
        }
        (Kernel::Search { marked, .. }, KernelResult::Found(item)) => {
            if marked.contains(item) {
                Ok(())
            } else {
                Err(format!("found item {item} is not marked"))
            }
        }
        (Kernel::DnaSimilarity { .. }, KernelResult::Similarity(s)) => unit(*s, "similarity"),
        (Kernel::Compare { .. }, KernelResult::Distance(d)) => unit(*d, "distance"),
        (Kernel::SolveSat { formula }, KernelResult::SatSolution(Some(bits))) => {
            if bits.len() != formula.n_vars() {
                return Err(format!(
                    "assignment has {} values for {} variables",
                    bits.len(),
                    formula.n_vars()
                ));
            }
            let broken = formula
                .clauses()
                .iter()
                .filter(|c| !c.literals().iter().any(|l| l.eval(bits[l.var()])))
                .count();
            if broken == 0 {
                Ok(())
            } else {
                Err(format!("assignment leaves {broken} clauses unsatisfied"))
            }
        }
        (Kernel::SolveSat { .. }, KernelResult::SatSolution(None)) => {
            Err("no assignment for a planted (satisfiable) formula".into())
        }
        (
            Kernel::Family(FamilyKernel::Coloring(spec)),
            KernelResult::Family(FamilyResult::Coloring { colors, conflicts }),
        ) => {
            if colors.len() != spec.n_vertices || colors.iter().any(|&c| c >= spec.n_colors) {
                return Err("coloring does not assign one valid color per vertex".into());
            }
            let recomputed = spec
                .edges
                .iter()
                .filter(|&&(a, b)| colors[a] == colors[b])
                .count() as u64;
            if recomputed == *conflicts {
                Ok(())
            } else {
                Err(format!(
                    "coloring reports {conflicts} conflicts, the edges give {recomputed}"
                ))
            }
        }
        (
            Kernel::Family(FamilyKernel::Qubo(spec)),
            KernelResult::Family(FamilyResult::Qubo { bits, energy }),
        ) => {
            if bits.len() != spec.n_vars {
                return Err("QUBO assignment has the wrong length".into());
            }
            let x = |i: usize| if bits[i] { 1.0 } else { 0.0 };
            let linear: f64 = spec.linear.iter().map(|&(i, c)| c * x(i)).sum();
            let quadratic: f64 = spec
                .quadratic
                .iter()
                .map(|&(i, j, q)| q * x(i) * x(j))
                .sum();
            let recomputed = linear + quadratic;
            // The server sums the terms in its canonical order; allow for
            // the rounding that reordering a float sum can introduce.
            let scale: f64 = 1.0
                + spec.linear.iter().map(|t| t.1.abs()).sum::<f64>()
                + spec.quadratic.iter().map(|t| t.2.abs()).sum::<f64>();
            if energy.is_finite() && (energy - recomputed).abs() <= 1e-9 * scale {
                Ok(())
            } else {
                Err(format!("QUBO energy {energy} recomputes to {recomputed}"))
            }
        }
        (kernel, result) => Err(format!(
            "{} answered with the wrong result kind {result:?}",
            kernel.describe()
        )),
    }
}

/// The bytes that identify an outcome: backend, result and modelled
/// cost. The wall time is left out, so a cache hit and the execution it
/// replays have the same fingerprint.
pub fn fingerprint(outcome: &WireOutcome) -> Vec<u8> {
    match outcome {
        WireOutcome::Completed {
            backend,
            result,
            cost,
            ..
        } => {
            let mut bytes = vec![0u8];
            bytes.extend_from_slice(backend.as_bytes());
            bytes.push(0);
            bytes.extend(encode_kernel_result(result).expect("served results encode"));
            bytes.extend(cost.operations.to_le_bytes());
            bytes.extend(cost.device_seconds.to_bits().to_le_bytes());
            bytes
        }
        WireOutcome::Failed(msg) => [&[1u8][..], msg.as_bytes()].concat(),
        WireOutcome::TimedOut => vec![2],
        WireOutcome::Cancelled => vec![3],
    }
}

/// FNV-1a over a job index and its fingerprint. Summing these (wrapping)
/// over every job gives a digest that does not depend on completion
/// order.
pub fn job_hash(index: usize, fingerprint: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in (index as u64).to_le_bytes().iter().chain(fingerprint) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::{ColoringSpec, QuboSpec};
    use mem::cnf::{Clause, Formula, Literal};

    #[test]
    fn factors_must_be_nontrivial_and_multiply_to_n() {
        let k = Kernel::Factor { n: 15 };
        assert!(certify(&k, &KernelResult::Factors(3, 5)).is_ok());
        assert!(certify(&k, &KernelResult::Factors(1, 15)).is_err());
        assert!(certify(&k, &KernelResult::Factors(3, 7)).is_err());
        assert!(certify(&k, &KernelResult::Distance(0.5)).is_err());
    }

    #[test]
    fn sat_needs_a_satisfying_assignment() {
        let clause = Clause::new(vec![Literal::positive(0), Literal::negative(1)]).unwrap();
        let k = Kernel::SolveSat {
            formula: Formula::new(2, vec![clause]).unwrap(),
        };
        let answer = |bits: Option<Vec<bool>>| certify(&k, &KernelResult::SatSolution(bits));
        assert!(answer(Some(vec![true, true])).is_ok());
        assert!(answer(Some(vec![false, true])).is_err());
        assert!(answer(Some(vec![true])).is_err());
        assert!(
            answer(None).is_err(),
            "giving up on a planted formula fails"
        );
    }

    #[test]
    fn search_similarity_and_distance() {
        let k = Kernel::Search {
            n_qubits: 3,
            marked: vec![5],
        };
        assert!(certify(&k, &KernelResult::Found(5)).is_ok());
        assert!(certify(&k, &KernelResult::Found(4)).is_err());
        let dna = Kernel::DnaSimilarity {
            a: "ACGT".into(),
            b: "ACGA".into(),
            k: 2,
        };
        assert!(certify(&dna, &KernelResult::Similarity(0.5)).is_ok());
        assert!(certify(&dna, &KernelResult::Similarity(f64::NAN)).is_err());
        let cmp = Kernel::Compare { x: 0.1, y: 0.2 };
        assert!(certify(&cmp, &KernelResult::Distance(1.5)).is_err());
    }

    #[test]
    fn coloring_conflicts_and_qubo_energy_are_recomputed() {
        let coloring = Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: 3,
            n_colors: 2,
            edges: vec![(0, 1), (1, 2), (2, 0)],
        }));
        let colored = |colors: Vec<usize>, conflicts| {
            certify(
                &coloring,
                &KernelResult::Family(FamilyResult::Coloring { colors, conflicts }),
            )
        };
        assert!(colored(vec![0, 1, 0], 1).is_ok());
        assert!(colored(vec![0, 1, 0], 0).is_err());
        assert!(colored(vec![0, 2, 0], 1).is_err());
        let qubo = Kernel::Family(FamilyKernel::Qubo(QuboSpec {
            n_vars: 2,
            linear: vec![(0, 1.0), (1, -2.0)],
            quadratic: vec![(0, 1, 0.5)],
        }));
        let energy = |bits: Vec<bool>, energy| {
            certify(
                &qubo,
                &KernelResult::Family(FamilyResult::Qubo { bits, energy }),
            )
        };
        assert!(energy(vec![true, true], -0.5).is_ok());
        assert!(energy(vec![true, true], -2.0).is_err());
    }

    #[test]
    fn fingerprints_ignore_wall_time() {
        let served = |wall_nanos| WireOutcome::Completed {
            backend: "cpu".into(),
            result: KernelResult::Found(3),
            cost: accel::kernel::CostReport {
                device_seconds: 1e-6,
                operations: 7,
            },
            wall_nanos,
        };
        assert_eq!(fingerprint(&served(0)), fingerprint(&served(12_345)));
        assert_ne!(
            job_hash(0, &fingerprint(&served(0))),
            job_hash(1, &fingerprint(&served(0)))
        );
    }
}
