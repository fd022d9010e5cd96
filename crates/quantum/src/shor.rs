//! Shor's factoring algorithm.
//!
//! The paper names cryptography as the clearest quantum killer app: "a
//! quantum computer has the potential to break any RSA-based encryption by
//! finding the prime factors of the public key" (§II-C). This module runs
//! the full pipeline on the simulator:
//!
//! 1. classical pre-checks (even, perfect power, lucky gcd);
//! 2. quantum order finding: phase estimation over the modular
//!    exponentiation of [`crate::arith`], with an inverse QFT on the
//!    counting register, simulated on the live work-register slices only;
//! 3. continued-fraction post-processing of the measured phase;
//! 4. factor extraction from an even order `r` with
//!    `a^{r/2} ≢ −1 (mod N)`.
//!
//! # Example
//!
//! ```
//! use quantum::shor;
//! use numerics::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(7);
//! let outcome = shor::factor(15, &mut rng, 20)?;
//! let (p, q) = outcome.factors;
//! assert_eq!(p * q, 15);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::arith::modexp_map;
use crate::gate::Gate;
use crate::numtheory::{convergents, gcd, is_perfect_power, is_prime, mod_pow};
use crate::qft::inverse_qft_circuit;
use crate::state::StateVector;
use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;

/// Result of one quantum order-finding run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderFinding {
    /// The base whose order was sought.
    pub a: u64,
    /// The modulus.
    pub n: u64,
    /// The measured counting-register value.
    pub measurement: u64,
    /// Counting-register width.
    pub counting_bits: usize,
    /// The recovered order, when continued fractions succeeded and the
    /// candidate verified (`a^r ≡ 1 mod n`).
    pub order: Option<u64>,
}

/// Statistics of a full factoring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorOutcome {
    /// The recovered nontrivial factors `(p, q)` with `p·q = n`.
    pub factors: (u64, u64),
    /// Number of quantum order-finding invocations used.
    pub quantum_calls: u64,
    /// Total simulated quantum gates/permutations applied.
    pub quantum_ops: u64,
    /// Whether a classical shortcut (gcd/parity/perfect power) short-
    /// circuited the quantum part.
    pub classical_shortcut: bool,
}

fn bits_for(n: u64) -> usize {
    (64 - n.leading_zeros()) as usize
}

/// One quantum order-finding attempt for `a` modulo `n`.
///
/// Uses `2·m` counting qubits (where `m = ⌈log₂ n⌉`), capped so the total
/// register stays within [`MAX_QUBITS`].
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `gcd(a, n) != 1` or the problem needs
///   more than [`MAX_QUBITS`] qubits.
pub fn order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> Result<OrderFinding, QuantumError> {
    if gcd(a, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1"),
        });
    }
    let work_bits = bits_for(n);
    let counting_bits = (2 * work_bits).min(MAX_QUBITS.saturating_sub(work_bits));
    if counting_bits < work_bits {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} too large to simulate"),
        });
    }
    let mut slices = counting_slices(a, n, counting_bits)?;

    // Measure the counting register, one qubit at a time across all slices.
    let mut measurement = 0u64;
    for q in 0..counting_bits {
        if StateVector::measure_qubit_joint(&mut slices, q, rng)? {
            measurement |= 1 << q;
        }
    }

    // Continued fractions: measurement / 2^counting ≈ s / r.
    let denom = 1u64 << counting_bits;
    let mut order = None;
    for (_, q) in convergents(measurement, denom, n) {
        if q > 1 && mod_pow(a, q, n) == 1 {
            order = Some(q);
            break;
        }
    }
    Ok(OrderFinding {
        a,
        n,
        measurement,
        counting_bits,
        order,
    })
}

/// The `2^(c+w)` register of order finding just before measurement, kept
/// as one `2^c`-amplitude counting-register slice per work value that holds
/// any amplitude, in ascending order of that value.
///
/// The work register starts at `|1⟩` and the controlled `U^(2^j)` cascade
/// only permutes basis states, `|x⟩|1⟩ → |x⟩|a^x mod n⟩`, so it runs as the
/// classical [`modexp_map`]. The inverse QFT touches only the counting
/// qubits, so it runs on each slice alone, and the `ord_n(a)` live slices
/// are all that is simulated. Every amplitude gets the same floating-point
/// result as on the full register; only operations on exact zeros are
/// skipped.
fn counting_slices(a: u64, n: u64, counting_bits: usize) -> Result<Vec<StateVector>, QuantumError> {
    // Counting register into uniform superposition.
    let mut counting = StateVector::try_zero(counting_bits)?;
    for q in 0..counting_bits {
        Gate::H(q).apply(&mut counting)?;
    }

    let work = modexp_map(a, n, counting_bits)?;
    let mut live = work.clone();
    live.sort_unstable();
    live.dedup();
    let slice_of: Vec<usize> = work
        .iter()
        .map(|y| live.partition_point(|v| v < y))
        .collect();
    let mut slices = counting.split(&slice_of, live.len())?;

    // Inverse QFT on the counting register, slice by slice so each stays
    // in cache for the whole circuit.
    let iqft = inverse_qft_circuit(counting_bits)?;
    for slice in &mut slices {
        for gate in iqft.gates() {
            gate.apply(slice)?;
        }
    }
    Ok(slices)
}

/// Factors `n` with Shor's algorithm, retrying order finding up to
/// `max_attempts` times. Classical shortcuts (parity, perfect powers,
/// lucky gcd draws) are taken when available.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `n` is prime, smaller than 4, or no
///   factor was found within the attempt budget.
pub fn factor<R: Rng>(
    n: u64,
    rng: &mut R,
    max_attempts: u64,
) -> Result<FactorOutcome, QuantumError> {
    factor_with_options(n, rng, max_attempts, true)
}

/// Like [`factor`], but with classical shortcuts optionally disabled so the
/// run exercises the quantum order-finding path even when a lucky `gcd`
/// draw would have produced a factor for free (used by the benches to
/// measure the quantum pipeline itself). The parity and primality
/// pre-checks still apply — they are prerequisites of the algorithm, not
/// shortcuts.
///
/// # Errors
///
/// Same conditions as [`factor`].
pub fn factor_with_options<R: Rng>(
    n: u64,
    rng: &mut R,
    max_attempts: u64,
    classical_shortcuts: bool,
) -> Result<FactorOutcome, QuantumError> {
    if n < 4 {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} has no nontrivial factorization"),
        });
    }
    if is_prime(n) {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} is prime"),
        });
    }
    if n % 2 == 0 {
        return Ok(FactorOutcome {
            factors: (2, n / 2),
            quantum_calls: 0,
            quantum_ops: 0,
            classical_shortcut: true,
        });
    }
    if is_perfect_power(n) {
        // Find the base by root extraction.
        for k in 2..=n.ilog2() {
            let b = (n as f64).powf(1.0 / k as f64).round() as u64;
            if b >= 2 && b.checked_pow(k) == Some(n) {
                return Ok(FactorOutcome {
                    factors: (b, n / b),
                    quantum_calls: 0,
                    quantum_ops: 0,
                    classical_shortcut: true,
                });
            }
        }
    }

    let mut quantum_calls = 0u64;
    let mut quantum_ops = 0u64;
    for _ in 0..max_attempts {
        let a = rng.gen_range(2..n);
        let g = gcd(a, n);
        if g != 1 {
            if classical_shortcuts {
                // Lucky classical factor.
                return Ok(FactorOutcome {
                    factors: (g, n / g),
                    quantum_calls,
                    quantum_ops,
                    classical_shortcut: true,
                });
            }
            continue; // redraw a coprime base
        }
        quantum_calls += 1;
        let run = order_finding(a, n, rng)?;
        // Cost model: counting_bits controlled-modmuls + iQFT gates.
        quantum_ops +=
            run.counting_bits as u64 + (run.counting_bits * (run.counting_bits + 3) / 2) as u64;
        let Some(r) = run.order else { continue };
        if r % 2 != 0 {
            continue;
        }
        let half = mod_pow(a, r / 2, n);
        if half == n - 1 {
            continue; // a^{r/2} ≡ −1: useless
        }
        let p = gcd(half + 1, n);
        let q = gcd(half + n - 1, n);
        for f in [p, q] {
            if f > 1 && f < n {
                return Ok(FactorOutcome {
                    factors: (f, n / f),
                    quantum_calls,
                    quantum_ops,
                    classical_shortcut: false,
                });
            }
        }
    }
    Err(QuantumError::Algorithm {
        reason: format!("no factor of {n} found in {max_attempts} attempts"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numtheory::gcd;
    use numerics::rng::rng_from_seed;
    use numerics::Complex;

    /// `y ↦ a·y mod n` on a `work_bits` register, identity for `y ≥ n`.
    fn modmul_permutation(a: u64, n: u64, work_bits: usize) -> Vec<usize> {
        (0..1u64 << work_bits)
            .map(|y| {
                if y < n {
                    (a % n * y % n) as usize
                } else {
                    y as usize
                }
            })
            .collect()
    }

    /// Controlled `U_a` on the full register as a basis-state permutation:
    /// `|c⟩|y⟩ → |c⟩|a^c · y mod n⟩`, the counting register in the low
    /// `counting_bits` qubits and the work register above it.
    fn apply_controlled_modmul(
        state: &mut StateVector,
        control: usize,
        counting_bits: usize,
        work_bits: usize,
        a: u64,
        n: u64,
    ) {
        let work_perm = modmul_permutation(a, n, work_bits);
        let work_mask = (1usize << work_bits) - 1;
        let amps = state.amplitudes();
        let mut moved = vec![Complex::ZERO; amps.len()];
        for (i, &amp) in amps.iter().enumerate() {
            let target = if i & (1 << control) == 0 {
                i
            } else {
                let y = (i >> counting_bits) & work_mask;
                (i & !(work_mask << counting_bits)) | (work_perm[y] << counting_bits)
            };
            moved[target] = amp;
        }
        *state = StateVector::from_raw(moved);
    }

    /// The whole `2^(c+w)` register just before measurement, simulated
    /// gate by gate: H layer, X on the work register, one controlled
    /// mod-mul per counting qubit, inverse QFT.
    fn full_register(a: u64, n: u64) -> (StateVector, usize) {
        let work_bits = bits_for(n);
        let counting_bits = (2 * work_bits).min(MAX_QUBITS - work_bits);
        let mut state = StateVector::zero(counting_bits + work_bits);
        for q in 0..counting_bits {
            Gate::H(q).apply(&mut state).unwrap();
        }
        Gate::X(counting_bits).apply(&mut state).unwrap();
        for j in 0..counting_bits {
            let a_pow = mod_pow(a, 1u64 << j, n);
            apply_controlled_modmul(&mut state, j, counting_bits, work_bits, a_pow, n);
        }
        for gate in inverse_qft_circuit(counting_bits).unwrap().gates() {
            gate.apply(&mut state).unwrap();
        }
        (state, counting_bits)
    }

    /// Measures the counting qubits of the whole register in order, each
    /// with the whole-register loop: the probability over every index with
    /// the bit set, one draw, collapse, [`StateVector::normalize`].
    fn measure_whole<R: Rng>(state: &mut StateVector, counting_bits: usize, rng: &mut R) -> u64 {
        let mut measurement = 0u64;
        for q in 0..counting_bits {
            let mask = 1usize << q;
            let amps = state.amplitudes();
            let p1: f64 = amps
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            let outcome = rng.gen::<f64>() < p1;
            let collapsed = amps
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    if (i & mask != 0) == outcome {
                        a
                    } else {
                        Complex::ZERO
                    }
                })
                .collect();
            *state = StateVector::from_raw(collapsed);
            state.normalize();
            measurement |= u64::from(outcome) << q;
        }
        measurement
    }

    /// Asserts the slices hold the whole register bit for bit (`==`
    /// equates ±0): live slices in ascending work value, the rest zero.
    fn assert_same_state(whole: &StateVector, slices: &[StateVector], live: &[u64], what: &str) {
        let dim = slices[0].dim();
        for (i, amp) in whole.amplitudes().iter().enumerate() {
            let (y, x) = ((i / dim) as u64, i % dim);
            match live.binary_search(&y) {
                Ok(k) => assert_eq!(slices[k].amplitudes()[x], *amp, "{what} at {i}"),
                Err(_) => assert_eq!(*amp, Complex::ZERO, "{what} at {i}"),
            }
        }
    }

    /// `(n, coprime bases)` for the reference comparisons.
    const CASES: [(u64, &[u64]); 7] = [
        (1, &[2]),
        (15, &[2, 7, 11]),
        (21, &[2, 5, 13]),
        (33, &[2, 5, 7]),
        (35, &[2, 3, 12]),
        (55, &[2, 7, 21]),
        (77, &[2, 10]),
    ];

    #[test]
    fn sliced_order_finding_matches_full_register() {
        for (n, bases) in CASES {
            for &a in bases {
                assert_eq!(gcd(a, n), 1);
                let (full, counting_bits) = full_register(a, n);
                let prepared = counting_slices(a, n, counting_bits).unwrap();
                let mut live = modexp_map(a, n, counting_bits).unwrap();
                live.sort_unstable();
                live.dedup();
                assert_same_state(&full, &prepared, &live, &format!("{a} mod {n}"));
                for seed in [1u64, 2, 3] {
                    let what = format!("{a} mod {n}, seed {seed}");
                    let mut whole = full.clone();
                    let mut whole_rng = rng_from_seed(seed);
                    let expected = measure_whole(&mut whole, counting_bits, &mut whole_rng);

                    // The collapsed slices match the collapsed register.
                    let mut slices = prepared.clone();
                    let mut rng = rng_from_seed(seed);
                    for q in 0..counting_bits {
                        StateVector::measure_qubit_joint(&mut slices, q, &mut rng).unwrap();
                    }
                    assert_same_state(&whole, &slices, &live, &what);

                    // Same measurement, and the next draw is the same.
                    let mut rng = rng_from_seed(seed);
                    let run = order_finding(a, n, &mut rng).unwrap();
                    assert_eq!(run.measurement, expected, "{what}");
                    assert_eq!(run.counting_bits, counting_bits);
                    assert_eq!(rng.gen::<u64>(), whole_rng.gen::<u64>(), "{what}");
                }
            }
        }
    }

    #[test]
    fn order_finding_keeps_width_and_gcd_checks() {
        let mut rng = rng_from_seed(1);
        // 13 work bits leave 11 counting bits under MAX_QUBITS: too few.
        let err = order_finding(2, 4097, &mut rng).unwrap_err();
        assert!(err.to_string().contains("too large to simulate"), "{err}");
        assert!(order_finding(7, 77, &mut rng).is_err());
        assert!(order_finding(1, 0, &mut rng).is_err());
    }

    /// `(n, seed, factors, quantum_calls, quantum_ops, classical_shortcut)`.
    type GoldenRow = (u64, u64, (u64, u64), u64, u64, bool);

    /// `shor::factor(n, seed, 50)` as computed by the full-register
    /// simulation.
    const FACTOR_GOLDEN: [GoldenRow; 30] = [
        (15, 1, (3, 5), 0, 0, true),
        (15, 2, (3, 5), 1, 52, false),
        (15, 3, (5, 3), 2, 104, false),
        (15, 4, (5, 3), 0, 0, true),
        (15, 5, (5, 3), 0, 0, true),
        (21, 1, (3, 7), 4, 300, true),
        (21, 2, (3, 7), 1, 75, true),
        (21, 3, (7, 3), 3, 225, true),
        (21, 4, (7, 3), 0, 0, true),
        (21, 5, (7, 3), 0, 0, true),
        (33, 1, (3, 11), 0, 0, true),
        (33, 2, (3, 11), 3, 306, true),
        (33, 3, (3, 11), 0, 0, true),
        (33, 4, (3, 11), 2, 204, false),
        (33, 5, (11, 3), 0, 0, true),
        (35, 1, (7, 5), 0, 0, true),
        (35, 2, (7, 5), 4, 408, false),
        (35, 3, (7, 5), 4, 408, false),
        (35, 4, (5, 7), 4, 408, true),
        (35, 5, (5, 7), 4, 408, true),
        (55, 1, (5, 11), 0, 0, true),
        (55, 2, (5, 11), 2, 204, false),
        (55, 3, (5, 11), 4, 408, true),
        (55, 4, (5, 11), 2, 204, false),
        (55, 5, (5, 11), 1, 102, false),
        (77, 1, (11, 7), 4, 532, false),
        (77, 2, (7, 11), 1, 133, false),
        (77, 3, (11, 7), 2, 266, false),
        (77, 4, (7, 11), 5, 665, true),
        (77, 5, (11, 7), 3, 399, true),
    ];

    #[test]
    fn factor_matches_full_register_golden() {
        for (n, seed, factors, quantum_calls, quantum_ops, classical_shortcut) in FACTOR_GOLDEN {
            let out = factor(n, &mut rng_from_seed(seed), 50).unwrap();
            let expected = FactorOutcome {
                factors,
                quantum_calls,
                quantum_ops,
                classical_shortcut,
            };
            assert_eq!(out, expected, "factor({n}) with seed {seed}");
        }
    }

    #[test]
    fn order_finding_recovers_known_order() {
        let mut rng = rng_from_seed(11);
        // Order of 7 mod 15 is 4; phase estimation succeeds with high
        // probability — try a few runs.
        let mut found = false;
        for _ in 0..6 {
            let run = order_finding(7, 15, &mut rng).unwrap();
            if run.order == Some(4) {
                found = true;
                break;
            }
        }
        assert!(found, "order of 7 mod 15 never recovered");
    }

    #[test]
    fn order_finding_rejects_common_factor() {
        let mut rng = rng_from_seed(1);
        assert!(order_finding(5, 15, &mut rng).is_err());
    }

    #[test]
    fn factors_15() {
        let mut rng = rng_from_seed(3);
        let out = factor(15, &mut rng, 30).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 15);
        assert!(p > 1 && q > 1);
    }

    #[test]
    fn factors_21() {
        let mut rng = rng_from_seed(5);
        let out = factor(21, &mut rng, 30).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 21);
        assert!(p > 1 && q > 1);
    }

    #[test]
    fn even_numbers_shortcut() {
        let mut rng = rng_from_seed(2);
        let out = factor(22, &mut rng, 5).unwrap();
        assert!(out.classical_shortcut);
        assert_eq!(out.factors.0 * out.factors.1, 22);
        assert_eq!(out.quantum_calls, 0);
    }

    #[test]
    fn perfect_power_shortcut() {
        let mut rng = rng_from_seed(2);
        let out = factor(27, &mut rng, 5).unwrap();
        assert!(out.classical_shortcut);
        assert_eq!(out.factors.0 * out.factors.1, 27);
    }

    #[test]
    fn primes_rejected() {
        let mut rng = rng_from_seed(4);
        assert!(factor(13, &mut rng, 5).is_err());
        assert!(factor(3, &mut rng, 5).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = factor(15, &mut rng_from_seed(9), 30).unwrap();
        let b = factor(15, &mut rng_from_seed(9), 30).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantum_only_path_factors_without_shortcuts() {
        let mut rng = rng_from_seed(6);
        let out = factor_with_options(15, &mut rng, 40, false).unwrap();
        assert_eq!(out.factors.0 * out.factors.1, 15);
        assert!(!out.classical_shortcut);
        assert!(out.quantum_calls >= 1, "must use order finding");
    }
}
