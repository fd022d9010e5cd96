//! Fixture: a backend that costs legacy kernels in its own match arms.

pub fn predicted_ops(kernel: &Kernel) -> f64 {
    match kernel {
        Kernel::Factor { n } => (*n as f64).sqrt(),
        Kernel::Search { .. } | Kernel::Compare { .. } => 3.0,
        _ => 0.0,
    }
}

pub fn is_sat(kernel: &Kernel) -> bool {
    matches!(kernel, Kernel::SolveSat { .. })
}

pub fn sample() -> Vec<Kernel> {
    // Building legacy kernels is fine; only matching them is flagged.
    vec![Kernel::Factor { n: 15 }, Kernel::Compare { x: 0.1, y: 0.2 }]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_match_legacy_variants() {
        assert!(matches!(super::sample()[0], Kernel::Factor { .. }));
    }
}
