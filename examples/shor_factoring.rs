//! Shor's algorithm on the quantum-accelerator stack (paper §II-C's
//! cryptography killer app), compared against classical trial division.
//!
//! Run with: `cargo run --release --example shor_factoring`

use numerics::rng::rng_from_seed;
use quantum::numtheory::trial_division;
use quantum::shor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>6} | {:>10} | {:>14} | {:>14} | {:>16}",
        "N", "factors", "quantum calls", "quantum ops", "classical divs"
    );
    println!("{}", "-".repeat(72));
    let mut rng = rng_from_seed(11);
    for n in [15u64, 21, 33, 35, 55, 77] {
        let outcome = shor::factor(n, &mut rng, 60)?;
        let (_, classical_ops) = trial_division(n);
        println!(
            "{:>6} | {:>4} x {:>3} | {:>14} | {:>14} | {:>16}",
            n,
            outcome.factors.0,
            outcome.factors.1,
            outcome.quantum_calls,
            outcome.quantum_ops,
            classical_ops
        );
    }
    println!("\nNote: at these toy sizes trial division is trivially cheap — the");
    println!("point of the experiment is that the full quantum pipeline (phase");
    println!("estimation over modular exponentiation, inverse QFT, continued");
    println!("fractions) runs end-to-end and recovers correct factors.");
    Ok(())
}
