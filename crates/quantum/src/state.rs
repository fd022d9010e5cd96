//! Exact state-vector simulation.
//!
//! [`StateVector`] holds the `2^n` complex amplitudes of an `n`-qubit
//! register. Qubit 0 is the least-significant bit of the basis index.
//! Single-qubit and controlled gates are applied in place with the standard
//! stride walk; measurement collapses the state.
//!
//! # Example
//!
//! ```
//! use quantum::state::StateVector;
//! use quantum::gate::matrices;
//!
//! let mut state = StateVector::zero(1);
//! state.apply_single(0, &matrices::HADAMARD)?;
//! assert!((state.probability(0)? - 0.5).abs() < 1e-12);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;
use numerics::Complex;
use std::ops::Range;

/// A 2×2 complex matrix in row-major order.
pub type Matrix2 = [[Complex; 2]; 2];

/// The quantum state of an `n`-qubit register.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `n_qubits` is 0 or exceeds [`MAX_QUBITS`]; use
    /// [`StateVector::try_zero`] for a fallible constructor.
    #[must_use]
    pub fn zero(n_qubits: usize) -> Self {
        Self::try_zero(n_qubits).expect("invalid register width")
    }

    /// Fallible form of [`StateVector::zero`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] outside `1..=MAX_QUBITS`.
    pub fn try_zero(n_qubits: usize) -> Result<Self, QuantumError> {
        if n_qubits == 0 || n_qubits > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        let mut amps = vec![Complex::ZERO; 1 << n_qubits];
        amps[0] = Complex::ONE;
        Ok(StateVector { n_qubits, amps })
    }

    /// A computational basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::BadRegisterWidth`] for an invalid width.
    /// * [`QuantumError::BasisOutOfRange`] when `index >= 2^n`.
    pub fn basis(n_qubits: usize, index: usize) -> Result<Self, QuantumError> {
        let mut s = Self::try_zero(n_qubits)?;
        if index >= s.amps.len() {
            return Err(QuantumError::BasisOutOfRange {
                basis: index,
                dim: s.amps.len(),
            });
        }
        s.amps[0] = Complex::ZERO;
        s.amps[index] = Complex::ONE;
        Ok(s)
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadAmplitudes`] when the length is not a
    /// power of two ≥ 2, or the vector has zero norm or non-finite entries.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, QuantumError> {
        let len = amps.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(QuantumError::BadAmplitudes {
                reason: "length must be a power of two >= 2",
            });
        }
        if amps.iter().any(|a| !a.is_finite()) {
            return Err(QuantumError::BadAmplitudes {
                reason: "non-finite amplitude",
            });
        }
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if norm_sqr <= 0.0 {
            return Err(QuantumError::BadAmplitudes {
                reason: "zero norm",
            });
        }
        let scale = 1.0 / norm_sqr.sqrt();
        let n_qubits = len.trailing_zeros() as usize;
        if n_qubits > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        Ok(StateVector {
            n_qubits,
            amps: amps.into_iter().map(|a| a.scale(scale)).collect(),
        })
    }

    /// Splits the register by a classical function of its basis index:
    /// amplitude `i` moves, unchanged, to index `i` of slice `slice_of[i]`,
    /// and every other entry of every slice is zero. This is the state after
    /// an oracle `|i⟩|0⟩ → |i⟩|f(i)⟩` writes into a higher register held as
    /// one slice per value of `f` (see [`StateVector::measure_qubit_joint`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadAmplitudes`] when `slice_of` does not
    /// have one entry per amplitude, each below `slices`.
    pub(crate) fn split(
        &self,
        slice_of: &[usize],
        slices: usize,
    ) -> Result<Vec<StateVector>, QuantumError> {
        if slice_of.len() != self.amps.len() || slice_of.iter().any(|&k| k >= slices) {
            return Err(QuantumError::BadAmplitudes {
                reason: "split needs one slice index below the slice count per amplitude",
            });
        }
        let mut out = vec![
            StateVector {
                n_qubits: self.n_qubits,
                amps: vec![Complex::ZERO; self.amps.len()],
            };
            slices
        ];
        for (i, (&k, &a)) in slice_of.iter().zip(&self.amps).enumerate() {
            out[k].amps[i] = a;
        }
        Ok(out)
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// State dimension `2^n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The raw amplitudes, basis-ordered.
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BasisOutOfRange`] when out of range.
    pub fn amplitude(&self, index: usize) -> Result<Complex, QuantumError> {
        self.amps
            .get(index)
            .copied()
            .ok_or(QuantumError::BasisOutOfRange {
                basis: index,
                dim: self.amps.len(),
            })
    }

    /// The probability of measuring basis state `index`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BasisOutOfRange`] when out of range.
    pub fn probability(&self, index: usize) -> Result<f64, QuantumError> {
        Ok(self.amplitude(index)?.norm_sqr())
    }

    /// Total norm (should stay 1 under unitary evolution).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Renormalizes in place (used after non-unitary noise branches).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let s = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(s);
            }
        }
    }

    fn check_qubit(&self, q: usize) -> Result<(), QuantumError> {
        if q >= self.n_qubits {
            return Err(QuantumError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            });
        }
        Ok(())
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub fn apply_single(&mut self, q: usize, m: &Matrix2) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let stride = 1usize << q;
        for block in self.amps.chunks_exact_mut(stride << 1) {
            let (zeros, ones) = block.split_at_mut(stride);
            for (a0, a1) in zeros.iter_mut().zip(ones) {
                (*a0, *a1) = (m[0][0] * *a0 + m[0][1] * *a1, m[1][0] * *a0 + m[1][1] * *a1);
            }
        }
        Ok(())
    }

    /// Applies a single-qubit unitary to qubit `target`, controlled on
    /// `control` being `|1⟩`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::QubitOutOfRange`] for bad indices.
    /// * [`QuantumError::DuplicateQubits`] when `control == target`.
    pub fn apply_controlled(
        &mut self,
        control: usize,
        target: usize,
        m: &Matrix2,
    ) -> Result<(), QuantumError> {
        self.check_distinct(&[control, target])?;
        let t_stride = 1usize << target;
        let c_mask = 1usize << control;
        for run in clear_bit_runs(self.amps.len(), [control, target]) {
            for base in run {
                self.apply_pair(base | c_mask, t_stride, m);
            }
        }
        Ok(())
    }

    /// Applies a doubly-controlled single-qubit unitary (for Toffoli).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateVector::apply_controlled`].
    pub fn apply_controlled2(
        &mut self,
        c1: usize,
        c2: usize,
        target: usize,
        m: &Matrix2,
    ) -> Result<(), QuantumError> {
        self.check_distinct(&[c1, c2, target])?;
        let t_stride = 1usize << target;
        let mask = (1usize << c1) | (1usize << c2);
        for run in clear_bit_runs(self.amps.len(), [c1, c2, target]) {
            for base in run {
                self.apply_pair(base | mask, t_stride, m);
            }
        }
        Ok(())
    }

    /// Applies the controlled `diag(1, phase)` gate: multiplies every
    /// amplitude whose `control` and `target` bits are both set by `phase`.
    /// The gate is symmetric in its two qubits; `CPhase` and `CZ` run here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateVector::apply_controlled`].
    pub(crate) fn apply_controlled_phase(
        &mut self,
        control: usize,
        target: usize,
        phase: Complex,
    ) -> Result<(), QuantumError> {
        self.check_distinct(&[control, target])?;
        let mask = (1usize << control) | (1usize << target);
        for run in clear_bit_runs(self.amps.len(), [control, target]) {
            let start = run.start | mask;
            for a in &mut self.amps[start..start + run.len()] {
                *a = phase * *a;
            }
        }
        Ok(())
    }

    /// Swaps qubits `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::QubitOutOfRange`] for bad indices.
    /// * [`QuantumError::DuplicateQubits`] when `a == b`.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> Result<(), QuantumError> {
        self.check_distinct(&[a, b])?;
        let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
        for run in clear_bit_runs(self.amps.len(), [a, b]) {
            let (head, tail) = self.amps.split_at_mut(run.start | hi);
            head[run.start | lo..][..run.len()].swap_with_slice(&mut tail[..run.len()]);
        }
        Ok(())
    }

    /// Checks every index and that no two coincide.
    fn check_distinct(&self, qubits: &[usize]) -> Result<(), QuantumError> {
        for &q in qubits {
            self.check_qubit(q)?;
        }
        for (i, q) in qubits.iter().enumerate() {
            if qubits[..i].contains(q) {
                return Err(QuantumError::DuplicateQubits);
            }
        }
        Ok(())
    }

    /// `m` on the pair `(i0, i0 + stride)`.
    fn apply_pair(&mut self, i0: usize, stride: usize, m: &Matrix2) {
        let i1 = i0 + stride;
        let a0 = self.amps[i0];
        let a1 = self.amps[i1];
        self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
        self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
    }

    /// Probability that qubit `q` measures as `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub fn prob_one(&self, q: usize) -> Result<f64, QuantumError> {
        self.check_qubit(q)?;
        Ok(prob_one_joint(std::slice::from_ref(self), q))
    }

    /// Measures qubit `q`, collapsing the state. Returns the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub fn measure_qubit<R: Rng>(&mut self, q: usize, rng: &mut R) -> Result<bool, QuantumError> {
        Self::measure_qubit_joint(std::slice::from_mut(self), q, rng)
    }

    /// Measures qubit `q` of one register held as slices, collapsing every
    /// slice. The slices are the blocks of the whole register that hold any
    /// amplitude, one per value of the qubits above them, in ascending order
    /// of that value; every block left out is all zeros. `q` indexes the
    /// low qubits, which every slice spans. The probability and the
    /// renormalization are summed over the slices in order, so the outcome
    /// and the single draw from `rng` are exactly those of
    /// [`StateVector::measure_qubit`] on the whole register.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] when a slice has no qubit
    /// `q`.
    pub(crate) fn measure_qubit_joint<R: Rng>(
        slices: &mut [StateVector],
        q: usize,
        rng: &mut R,
    ) -> Result<bool, QuantumError> {
        for slice in slices.iter() {
            slice.check_qubit(q)?;
        }
        let p1 = prob_one_joint(slices, q);
        let outcome = rng.gen::<f64>() < p1;
        // Collapse and sum the surviving norm in one ascending pass; the
        // zeroed amplitudes would only add exact zeros.
        let stride = 1usize << q;
        let norm = slices
            .iter_mut()
            .flat_map(|s| s.amps.chunks_exact_mut(stride << 1))
            .flat_map(|block| collapse_block(block, stride, outcome))
            .map(|a| a.norm_sqr())
            .sum::<f64>()
            .sqrt();
        if norm > 0.0 {
            let s = 1.0 / norm;
            let offset = if outcome { stride } else { 0 };
            for block in slices
                .iter_mut()
                .flat_map(|s| s.amps.chunks_exact_mut(stride << 1))
            {
                for a in &mut block[offset..offset + stride] {
                    *a = a.scale(s);
                }
            }
        }
        Ok(outcome)
    }

    /// Measures the full register, collapsing to a basis state. Returns the
    /// basis index.
    pub fn measure_all<R: Rng>(&mut self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut outcome = self.amps.len() - 1;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                outcome = i;
                break;
            }
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i == outcome {
                Complex::ONE
            } else {
                Complex::ZERO
            };
        }
        outcome
    }

    /// Samples `shots` measurement outcomes *without* collapsing the state.
    pub fn sample_counts<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<(usize, usize)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        // Cumulative distribution for inversion sampling.
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            let idx = match cdf.binary_search_by(|p| p.partial_cmp(&r).expect("finite")) {
                Ok(i) | Err(i) => i.min(self.amps.len() - 1),
            };
            *counts.entry(idx).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] on width mismatch.
    pub fn overlap(&self, other: &StateVector) -> Result<Complex, QuantumError> {
        if self.n_qubits != other.n_qubits {
            return Err(QuantumError::BadRegisterWidth {
                n_qubits: other.n_qubits,
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// The tensor product `self ⊗ other` (`other`'s qubits become the
    /// low-order qubits of the result).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] when the combined width
    /// exceeds [`MAX_QUBITS`].
    pub fn tensor(&self, other: &StateVector) -> Result<StateVector, QuantumError> {
        let n = self.n_qubits + other.n_qubits;
        if n > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits: n });
        }
        let mut amps = vec![Complex::ZERO; 1 << n];
        for (i, a) in self.amps.iter().enumerate() {
            for (j, b) in other.amps.iter().enumerate() {
                amps[(i << other.n_qubits) | j] = *a * *b;
            }
        }
        Ok(StateVector { n_qubits: n, amps })
    }
}

#[cfg(test)]
impl StateVector {
    /// Wraps raw amplitudes without normalizing them, for reference
    /// simulations in tests that must keep every bit.
    pub(crate) fn from_raw(amps: Vec<Complex>) -> StateVector {
        assert!(amps.len().is_power_of_two() && amps.len() >= 2);
        StateVector {
            n_qubits: amps.len().trailing_zeros() as usize,
            amps,
        }
    }
}

/// `P(qubit q = 1)` summed in slice order, then ascending index.
fn prob_one_joint(slices: &[StateVector], q: usize) -> f64 {
    let stride = 1usize << q;
    slices
        .iter()
        .flat_map(|s| s.amps.chunks_exact(stride << 1))
        .flat_map(|block| &block[stride..])
        .map(|a| a.norm_sqr())
        .sum()
}

/// Zeroes the half of a `2·stride` block whose qubit disagrees with
/// `outcome`; returns the kept half.
fn collapse_block(block: &mut [Complex], stride: usize, outcome: bool) -> &[Complex] {
    let (zeros, ones) = block.split_at_mut(stride);
    let (kept, lost) = if outcome {
        (ones, zeros)
    } else {
        (zeros, ones)
    };
    lost.fill(Complex::ZERO);
    kept
}

/// Every index below `dim` with all of the `bits` positions clear, in
/// ascending order, as contiguous runs of `2^min(bits)` indices: the base
/// index of each amplitude group a gate on those qubits touches. `bits`
/// must be distinct qubits of a `dim`-amplitude register.
fn clear_bit_runs<const K: usize>(
    dim: usize,
    mut bits: [usize; K],
) -> impl Iterator<Item = Range<usize>> {
    bits.sort_unstable();
    let run = 1usize << bits[0];
    // Spread a compact counter over the free bit positions by inserting a
    // zero at each position, lowest first; bits below the lowest position
    // pass through unchanged, so each run stays contiguous.
    (0..dim >> K).step_by(run).map(move |compact| {
        let start = bits.iter().fold(compact, |i, &b| {
            ((i >> b) << (b + 1)) | (i & ((1 << b) - 1))
        });
        start..start + run
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{matrices, Gate};
    use numerics::rng::rng_from_seed;

    #[test]
    fn zero_state() {
        let s = StateVector::zero(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(0).unwrap(), 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn width_limits() {
        assert!(StateVector::try_zero(0).is_err());
        assert!(StateVector::try_zero(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn basis_state() {
        let s = StateVector::basis(2, 3).unwrap();
        assert_eq!(s.probability(3).unwrap(), 1.0);
        assert!(StateVector::basis(2, 4).is_err());
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![Complex::new(3.0, 0.0), Complex::new(4.0, 0.0)])
            .unwrap();
        assert!((s.probability(0).unwrap() - 0.36).abs() < 1e-12);
        assert!((s.probability(1).unwrap() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_rejects_bad() {
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ZERO; 4]).is_err());
        assert!(
            StateVector::from_amplitudes(vec![Complex::new(f64::NAN, 0.0), Complex::ONE]).is_err()
        );
    }

    #[test]
    fn hadamard_and_x() {
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        assert!((s.probability(0b00).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b01).unwrap() - 0.5).abs() < 1e-12);
        s.apply_single(1, &matrices::PAULI_X).unwrap();
        assert!((s.probability(0b10).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn controlled_x_makes_bell() {
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        s.apply_controlled(0, 1, &matrices::PAULI_X).unwrap();
        assert!((s.probability(0b00).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11).unwrap() - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01).unwrap() < 1e-12);
    }

    #[test]
    fn controlled_requires_distinct() {
        let mut s = StateVector::zero(2);
        assert_eq!(
            s.apply_controlled(1, 1, &matrices::PAULI_X),
            Err(QuantumError::DuplicateQubits)
        );
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0..8usize {
            let mut s = StateVector::basis(3, input).unwrap();
            s.apply_controlled2(0, 1, 2, &matrices::PAULI_X).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert_eq!(s.probability(expected).unwrap(), 1.0, "input {input}");
        }
    }

    #[test]
    fn swap_exchanges_bits() {
        for input in 0..4usize {
            let mut s = StateVector::basis(2, input).unwrap();
            s.apply_swap(0, 1).unwrap();
            let expected = ((input & 1) << 1) | ((input >> 1) & 1);
            assert_eq!(s.probability(expected).unwrap(), 1.0);
        }
    }

    /// The dense 2×2 formula: `m` on every `(i0, i0 + 2^target)` pair
    /// whose control bits are all set, found by testing every index.
    fn dense_controlled(
        amps: &[Complex],
        controls: &[usize],
        target: usize,
        m: &Matrix2,
    ) -> Vec<Complex> {
        let t = 1usize << target;
        let mut out = amps.to_vec();
        for i0 in 0..amps.len() {
            if i0 & t != 0 || controls.iter().any(|&c| i0 & (1 << c) == 0) {
                continue;
            }
            let (a0, a1) = (amps[i0], amps[i0 + t]);
            out[i0] = m[0][0] * a0 + m[0][1] * a1;
            out[i0 + t] = m[1][0] * a0 + m[1][1] * a1;
        }
        out
    }

    /// Random components, a quarter of them exact zeros of either sign.
    fn random_component<R: Rng>(rng: &mut R) -> f64 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    fn random_complex<R: Rng>(rng: &mut R) -> Complex {
        Complex::new(random_component(rng), random_component(rng))
    }

    #[test]
    fn sparse_gate_walks_match_dense_formula() {
        use numerics::rng::sample_indices;
        let mut rng = rng_from_seed(2024);
        for _ in 0..300 {
            let n = rng.gen_range(3..8);
            let amps: Vec<Complex> = (0..1 << n).map(|_| random_complex(&mut rng)).collect();
            let state = StateVector::from_raw(amps.clone());
            let q = sample_indices(&mut rng, n, 3);
            let (c1, c2, t) = (q[0], q[1], q[2]);
            let m = [
                [random_complex(&mut rng), random_complex(&mut rng)],
                [random_complex(&mut rng), random_complex(&mut rng)],
            ];

            let mut s = state.clone();
            s.apply_controlled(c1, t, &m).unwrap();
            assert_eq!(s.amplitudes(), dense_controlled(&amps, &[c1], t, &m));

            let mut s = state.clone();
            s.apply_controlled2(c1, c2, t, &m).unwrap();
            assert_eq!(s.amplitudes(), dense_controlled(&amps, &[c1, c2], t, &m));

            let theta = rng.gen_range(-4.0..4.0);
            let mut s = state.clone();
            Gate::CPhase(c1, t, theta).apply(&mut s).unwrap();
            let dense = dense_controlled(&amps, &[c1], t, &matrices::phase(theta));
            assert_eq!(s.amplitudes(), dense);

            let mut s = state.clone();
            Gate::CZ(c1, t).apply(&mut s).unwrap();
            let dense = dense_controlled(&amps, &[c1], t, &matrices::PAULI_Z);
            assert_eq!(s.amplitudes(), dense);

            let mut s = state.clone();
            s.apply_swap(c1, t).unwrap();
            let swapped: Vec<Complex> = (0..amps.len())
                .map(|i| {
                    let cleared = i & !((1 << c1) | (1 << t));
                    amps[cleared | ((i >> c1) & 1) << t | ((i >> t) & 1) << c1]
                })
                .collect();
            assert_eq!(s.amplitudes(), swapped);
        }
    }

    #[test]
    fn joint_measurement_equals_whole_register() {
        let mut rng = rng_from_seed(8);
        for seed in 0..20u64 {
            // Three 8-amplitude slices of a 5-qubit register: high-qubit
            // values 0, 1 and 3 live, 2 all zeros.
            let highs = [0usize, 1, 3];
            let mut slices: Vec<StateVector> = highs
                .iter()
                .map(|_| StateVector::from_raw((0..8).map(|_| random_complex(&mut rng)).collect()))
                .collect();
            let mut whole = vec![Complex::ZERO; 32];
            for (slice, high) in slices.iter().zip(highs) {
                whole[high * 8..][..8].copy_from_slice(slice.amplitudes());
            }
            let mut whole = StateVector::from_raw(whole);
            let (mut rng_a, mut rng_b) = (rng_from_seed(seed), rng_from_seed(seed));
            for q in 0..3 {
                // The probability itself is summed in whole-register order.
                assert_eq!(prob_one_joint(&slices, q), whole.prob_one(q).unwrap());
                let joint = StateVector::measure_qubit_joint(&mut slices, q, &mut rng_a).unwrap();
                assert_eq!(joint, whole.measure_qubit(q, &mut rng_b).unwrap());
                for (slice, high) in slices.iter().zip(highs) {
                    assert_eq!(slice.amplitudes(), &whole.amplitudes()[high * 8..][..8]);
                }
            }
            assert!(StateVector::measure_qubit_joint(&mut slices, 3, &mut rng_a).is_err());
        }
    }

    #[test]
    fn split_moves_amplitudes_by_slice_index() {
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        s.apply_single(1, &matrices::HADAMARD).unwrap();
        let slices = s.split(&[1, 0, 1, 0], 2).unwrap();
        let h = s.amplitude(0).unwrap();
        let z = Complex::ZERO;
        assert_eq!(slices[0].amplitudes(), [z, h, z, h]);
        assert_eq!(slices[1].amplitudes(), [h, z, h, z]);
        assert!(s.split(&[0, 0, 0], 1).is_err());
        assert!(s.split(&[0, 0, 0, 2], 2).is_err());
    }

    #[test]
    fn norm_preserved_by_gates() {
        let mut s = StateVector::zero(4);
        let mut rng = rng_from_seed(3);
        for i in 0..50 {
            let q = i % 4;
            s.apply_single(q, &matrices::HADAMARD).unwrap();
            s.apply_single((q + 1) % 4, &matrices::phase(0.3)).unwrap();
            s.apply_controlled(q, (q + 2) % 4, &matrices::PAULI_X)
                .unwrap();
            let _ = rng.gen::<f64>();
        }
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = rng_from_seed(1);
        let mut s = StateVector::zero(1);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        let outcome = s.measure_qubit(0, &mut rng).unwrap();
        let idx = usize::from(outcome);
        assert!((s.probability(idx).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics() {
        let mut rng = rng_from_seed(7);
        let mut ones = 0;
        for _ in 0..2000 {
            let mut s = StateVector::zero(1);
            s.apply_single(0, &matrices::HADAMARD).unwrap();
            if s.measure_qubit(0, &mut rng).unwrap() {
                ones += 1;
            }
        }
        assert!((900..1100).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn sample_counts_total_and_support() {
        let mut rng = rng_from_seed(5);
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        let counts = s.sample_counts(1000, &mut rng);
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 1000);
        for (idx, _) in counts {
            assert!(idx == 0 || idx == 1, "impossible outcome {idx}");
        }
    }

    #[test]
    fn overlap_and_tensor() {
        let zero = StateVector::zero(1);
        let one = StateVector::basis(1, 1).unwrap();
        assert!((zero.overlap(&zero).unwrap().re - 1.0).abs() < 1e-12);
        assert!(zero.overlap(&one).unwrap().norm() < 1e-12);

        let prod = one.tensor(&zero).unwrap();
        assert_eq!(prod.n_qubits(), 2);
        // `one` occupies the high qubit: |1⟩⊗|0⟩ = |10⟩ = index 2.
        assert_eq!(prod.probability(2).unwrap(), 1.0);
    }

    #[test]
    fn measure_all_deterministic_on_basis() {
        let mut rng = rng_from_seed(2);
        let mut s = StateVector::basis(3, 5).unwrap();
        assert_eq!(s.measure_all(&mut rng), 5);
        assert_eq!(s.probability(5).unwrap(), 1.0);
    }
}
