//! Modular exponentiation for order finding.
//!
//! Shor's algorithm applies one controlled `U_a^(2^j)` per counting qubit,
//! where `U_a |y⟩ = |a·y mod N⟩` on the work register (and identity for
//! `y ≥ N`). Started from `|x⟩|1⟩`, the whole cascade is the map
//! `|x⟩|1⟩ → |x⟩|a^x mod N⟩`: a basis-state permutation that moves
//! amplitudes without mixing them. The simulator therefore runs it as the
//! classical map [`modexp_map`], which names the work value each counting
//! basis state lands on; [`crate::shor`] keeps one slice of the counting
//! register per work value that receives any amplitude.
//!
//! # Example
//!
//! ```
//! use quantum::arith::modexp_map;
//!
//! // 7^x mod 15 cycles with period 4.
//! let work = modexp_map(7, 15, 3)?;
//! assert_eq!(work, [1, 7, 4, 13, 1, 7, 4, 13]);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::numtheory::gcd;
use crate::{QuantumError, MAX_QUBITS};

/// The work-register value `U_a^x |1⟩` for every counting value
/// `x < 2^counting_bits`: `a^x mod n`, except that a work register at or
/// above the modulus (only `n = 1`) is left at `1`.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `n` is zero or `gcd(a, n) != 1` (the
///   multiplication would not be a bijection).
/// * [`QuantumError::BadRegisterWidth`] when `counting_bits` exceeds
///   [`MAX_QUBITS`].
pub fn modexp_map(a: u64, n: u64, counting_bits: usize) -> Result<Vec<u64>, QuantumError> {
    if n == 0 {
        return Err(QuantumError::Algorithm {
            reason: "modulus 0".to_string(),
        });
    }
    if gcd(a % n, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1: modular multiplication is not invertible"),
        });
    }
    if counting_bits > MAX_QUBITS {
        return Err(QuantumError::BadRegisterWidth {
            n_qubits: counting_bits,
        });
    }
    let a = u128::from(a % n);
    let mut y = 1u64;
    Ok((0..1usize << counting_bits)
        .map(|_| {
            let current = y;
            if y < n {
                y = (u128::from(y) * a % u128::from(n)) as u64;
            }
            current
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numtheory::{mod_pow, multiplicative_order};

    #[test]
    fn map_matches_mod_pow() {
        for (a, n) in [(7u64, 15u64), (2, 21), (5, 33), (3, 77), (80, 77)] {
            let work = modexp_map(a, n, 8).unwrap();
            assert_eq!(work.len(), 256);
            for (x, &y) in work.iter().enumerate() {
                assert_eq!(y, mod_pow(a, x as u64, n), "{a}^{x} mod {n}");
            }
        }
    }

    #[test]
    fn distinct_values_number_the_order() {
        for (a, n) in [(7u64, 15u64), (2, 21), (4, 55), (3, 77)] {
            let mut live = modexp_map(a, n, 10).unwrap();
            live.sort_unstable();
            live.dedup();
            assert_eq!(Some(live.len() as u64), multiplicative_order(a, n));
        }
    }

    #[test]
    fn register_above_modulus_is_untouched() {
        assert_eq!(modexp_map(4, 1, 2).unwrap(), [1, 1, 1, 1]);
    }

    #[test]
    fn bad_arguments_rejected() {
        assert!(modexp_map(3, 15, 4).is_err());
        assert!(modexp_map(5, 15, 4).is_err());
        assert!(modexp_map(2, 0, 4).is_err());
        assert!(modexp_map(2, 15, MAX_QUBITS + 1).is_err());
    }
}
