//! Shared helpers for the experiment benches.
//!
//! Every bench target in `benches/` regenerates one of the paper's figures
//! or quantitative claims: it prints the reproduced table/series once, and
//! then times the experiment's core operation with Criterion.

// Deliberate style choices for numerical simulation code: `!(x > 0.0)`
// rejects NaN alongside non-positive values, and indexed loops mirror the
// mathematics they implement (state-vector strides, lattice walks).
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::needless_range_loop,
    clippy::manual_is_multiple_of,
    clippy::field_reassign_with_default
)]
/// Prints a banner announcing which paper artifact a bench reproduces.
pub fn banner(experiment: &str, artifact: &str) {
    println!();
    println!("==================================================================");
    println!("  {experiment} — reproduces {artifact}");
    println!("==================================================================");
}

/// Formats a floating value in engineering style for table cells.
#[must_use]
pub fn eng(value: f64) -> String {
    if value == 0.0 {
        return "0".into();
    }
    let abs = value.abs();
    if !(1e-3..1e6).contains(&abs) {
        format!("{value:.3e}")
    } else if abs < 1.0 {
        format!("{value:.4}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(0.25), "0.2500");
        assert_eq!(eng(12.5), "12.50");
        assert!(eng(1e-9).contains('e'));
    }
}
