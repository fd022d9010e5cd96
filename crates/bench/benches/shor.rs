//! E9 — §II-C cryptography killer app: Shor factoring on the simulated
//! quantum accelerator, with the classical trial-division cost alongside.

use bench::banner;
use criterion::{criterion_group, criterion_main, Criterion};
use numerics::rng::rng_from_seed;
use quantum::numtheory::trial_division;
use quantum::shor;

fn print_experiment() {
    banner("E9 shor", "§II-C Shor factorization");
    println!(
        "{:>5} | {:>9} | {:>13} | {:>12} | {:>14}",
        "N", "factors", "quantum calls", "quantum ops", "classical divs"
    );
    println!("{}", "-".repeat(64));
    let mut rng = rng_from_seed(17);
    for n in [15u64, 21, 33, 35, 39, 55, 77] {
        // Classical gcd shortcuts disabled so every row exercises the
        // quantum order-finding pipeline.
        let outcome = shor::factor_with_options(n, &mut rng, 60, false).expect("factors");
        let (_, divs) = trial_division(n);
        println!(
            "{:>5} | {:>3} x {:>3} | {:>13} | {:>12} | {:>14}",
            n,
            outcome.factors.0,
            outcome.factors.1,
            outcome.quantum_calls,
            outcome.quantum_ops,
            divs
        );
    }
    println!("\norder finding: 2m counting qubits over modular exponentiation,");
    println!("inverse QFT on the live work-register slices, continued fractions");
}

fn bench(c: &mut Criterion) {
    print_experiment();
    c.bench_function("shor/order_finding_15", |b| {
        let mut rng = rng_from_seed(5);
        b.iter(|| criterion::black_box(shor::order_finding(7, 15, &mut rng).expect("order")));
    });
    c.bench_function("shor/order_finding_77", |b| {
        let mut rng = rng_from_seed(5);
        b.iter(|| criterion::black_box(shor::order_finding(2, 77, &mut rng).expect("order")));
    });
    c.bench_function("shor/factor_21", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = rng_from_seed(seed);
            criterion::black_box(shor::factor(21, &mut rng, 60).expect("factor"))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
