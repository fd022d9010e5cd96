//! Frozen-golden equivalence proof for the kernel-family registry.
//!
//! The golden tables below were generated against the pre-registry code
//! (the closed `Kernel` enum with per-crate match arms) and then frozen.
//! Every observable the refactor could have perturbed is pinned for all
//! five legacy families: `describe`/`validate`, the two-level
//! canonical key and routing hash, the wire encoding of both the raw and
//! the canonicalized kernel, per-backend `supports`/`estimate` bits, the
//! planner's ranked dispatch order under every policy, and the result and
//! cost bits of executing every corpus kernel on every backend that
//! supports it (WalkSAT included) under fixed reseeds. The execution rows
//! were captured while the legacy families still ran in backend match
//! arms, before their cost models and execution moved into the registry
//! entries. If any of
//! these assertions fails, registry-driven behavior has drifted from the
//! enum behavior — that is a serving-compatibility break, not a test to
//! "fix" by re-blessing.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! cargo test --test family_registry regenerate -- --ignored --nocapture
//! ```

use accel::backends::{portfolio_pool, standard_pool};
use accel::family::{ColoringSpec, FamilyKernel, QuboSpec};
use accel::host::{CorrectionTable, DispatchPolicy, Planner};
use accel::kernel::{Kernel, KernelExecution};
use accel::AccelError;
use admission::{canonical_key, canonicalize, routing_hash};
use mem::cnf::{Clause, Formula, Literal};
use mem::generators::planted_3sat;
use wire::{encode_kernel, encode_kernel_result};

/// Fixed pool seed: estimates and plans must not depend on it (no legacy
/// estimator is stochastic), but we pin it anyway so the corpus is fully
/// deterministic.
const POOL_SEED: u64 = 7;

/// The seeds each backend is reseeded with before the pinned executions.
const EXEC_SEEDS: [u64; 2] = [3, 0x5eed];

const POLICIES: [(&str, DispatchPolicy); 5] = [
    ("prefer-specialized", DispatchPolicy::PreferSpecialized),
    ("cpu-only", DispatchPolicy::CpuOnly),
    ("min-latency", DispatchPolicy::MinPredictedLatency),
    ("min-energy", DispatchPolicy::MinPredictedEnergy),
    ("deadline-aware", DispatchPolicy::DeadlineAware),
];

fn lit(dimacs: i64) -> Literal {
    Literal::from_dimacs(dimacs).expect("valid literal")
}

fn clause(lits: &[i64]) -> Clause {
    Clause::new(lits.iter().map(|&l| lit(l)).collect()).expect("valid clause")
}

/// A formula with unsorted literals, unsorted clauses, and a duplicate
/// clause — exercises every normalization step of SAT canonicalization.
fn scrambled_formula() -> Formula {
    Formula::new(
        5,
        vec![
            clause(&[4, -2, 1]),
            clause(&[-5, 3]),
            clause(&[1, -2, 4]),
            clause(&[2, -1]),
        ],
    )
    .expect("valid formula")
}

/// The frozen corpus: one row per observable behavior worth pinning,
/// including canonicalization-sensitive variants (unsorted marked sets,
/// scrambled clauses, negative-zero compares) and every invalid-kernel
/// arm. Values are arbitrary but frozen: changing them invalidates the
/// golden tables.
fn corpus() -> Vec<(&'static str, Kernel)> {
    vec![
        ("factor_77", Kernel::Factor { n: 77 }),
        ("factor_15", Kernel::Factor { n: 15 }),
        ("factor_too_small", Kernel::Factor { n: 3 }),
        (
            "search_unsorted_dups",
            Kernel::Search {
                n_qubits: 4,
                marked: vec![9, 3, 9, 1],
            },
        ),
        (
            "search_single",
            Kernel::Search {
                n_qubits: 3,
                marked: vec![5],
            },
        ),
        (
            "search_empty_space",
            Kernel::Search {
                n_qubits: 0,
                marked: vec![],
            },
        ),
        (
            "search_marked_oob",
            Kernel::Search {
                n_qubits: 2,
                marked: vec![4],
            },
        ),
        (
            "dna_mixed",
            Kernel::DnaSimilarity {
                a: "ACGTACGTTGCA".into(),
                b: "TGCAACGTACGT".into(),
                k: 3,
            },
        ),
        (
            "dna_zero_kmer",
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGT".into(),
                k: 0,
            },
        ),
        (
            "dna_kmer_too_long",
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACG".into(),
                k: 4,
            },
        ),
        (
            "sat_planted",
            Kernel::SolveSat {
                formula: planted_3sat(8, 3.5, 11).expect("planted instance").formula,
            },
        ),
        (
            "sat_scrambled",
            Kernel::SolveSat {
                formula: scrambled_formula(),
            },
        ),
        ("compare_quarters", Kernel::Compare { x: 0.25, y: 0.75 }),
        ("compare_neg_zero", Kernel::Compare { x: -0.0, y: 0.5 }),
        (
            "compare_nan",
            Kernel::Compare {
                x: f64::NAN,
                y: 0.5,
            },
        ),
        ("compare_oob", Kernel::Compare { x: 0.1, y: 1.5 }),
        // Registry-born families share the backend profiles with the
        // legacy ones, so their estimates and executions are pinned too.
        (
            "coloring_cycle",
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 5,
                n_colors: 3,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            })),
        ),
        (
            "qubo_small",
            Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                n_vars: 4,
                linear: vec![(0, 1.0), (3, -2.0)],
                quadratic: vec![(0, 1, 1.5), (2, 3, -1.0), (1, 2, 0.5)],
            })),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn validate_text(kernel: &Kernel) -> String {
    match kernel.validate() {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    }
}

fn wire_hex(kernel: &Kernel) -> String {
    match encode_kernel(kernel) {
        Ok(bytes) => hex(&bytes),
        Err(e) => format!("err: {e}"),
    }
}

/// `supports` + corrected-estimate bit patterns for every backend in the
/// standard pool — the complete input surface of the planner.
fn estimate_text(kernel: &Kernel) -> String {
    let pool = standard_pool(POOL_SEED).expect("standard pool");
    pool.iter()
        .map(|b| {
            if !b.supports(kernel) {
                return format!("{}:unsupported", b.name());
            }
            match b.estimate(kernel) {
                Some(e) => format!(
                    "{}:ds={:016x},ej={:016x}",
                    b.name(),
                    e.device_seconds.to_bits(),
                    e.energy_joules.to_bits()
                ),
                None => format!("{}:no-estimate", b.name()),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The planner's ranked backend order under one policy (pure function of
/// the estimate surface above, pinned separately for direct readability).
fn plan_text(kernel: &Kernel, policy: DispatchPolicy) -> String {
    let pool = standard_pool(POOL_SEED).expect("standard pool");
    let planner = Planner::frozen(CorrectionTable::new());
    match planner.plan(&pool, kernel, policy, None) {
        Ok(plan) => plan
            .ranked
            .iter()
            .map(|&(i, _)| pool[i].name())
            .collect::<Vec<_>>()
            .join(">"),
        Err(e) => format!("err: {e}"),
    }
}

/// One execution as `result-hex/device-seconds-bits/operations`.
fn run_text(run: Result<KernelExecution, AccelError>) -> String {
    match run {
        Ok(run) => format!(
            "{}/{:016x}/{}",
            hex(&encode_kernel_result(&run.result).expect("encodable result")),
            run.cost.device_seconds.to_bits(),
            run.cost.operations
        ),
        Err(e) => format!("err: {e}"),
    }
}

/// One row per backend of the portfolio pool that supports the kernel:
/// its estimate bits, then for each seed a reseeded execution followed by
/// a second one without a reseed, which pins how far one execution
/// advances the backend's seed stream.
fn execute_rows(kernel: &Kernel) -> Vec<(String, String)> {
    let mut pool = portfolio_pool(POOL_SEED).expect("portfolio pool");
    let mut rows = Vec::new();
    for backend in &mut pool {
        if !backend.supports(kernel) {
            continue;
        }
        let mut value = match backend.estimate(kernel) {
            Some(e) => format!(
                "est={:016x},{:016x}",
                e.device_seconds.to_bits(),
                e.energy_joules.to_bits()
            ),
            None => "est=none".to_string(),
        };
        for seed in EXEC_SEEDS {
            backend.reseed(seed);
            let first = run_text(backend.execute(kernel));
            let second = run_text(backend.execute(kernel));
            value.push_str(&format!(" s{seed}={first};{second}"));
        }
        rows.push((format!("exec:{}", backend.name()), value));
    }
    rows
}

/// One golden row: everything observable about a corpus kernel.
fn observe(kernel: &Kernel) -> Vec<(String, String)> {
    let valid = kernel.validate().is_ok();
    let mut row = vec![
        ("describe".to_string(), kernel.describe()),
        ("validate".to_string(), validate_text(kernel)),
        ("wire".to_string(), wire_hex(kernel)),
    ];
    if valid {
        let canonical = canonicalize(kernel);
        let key = canonical_key(&canonical);
        row.push(("canon_coarse".to_string(), format!("{:016x}", key.key)));
        row.push(("canon_exact".to_string(), format!("{:016x}", key.exact)));
        row.push((
            "routing".to_string(),
            format!("{:016x}", routing_hash(kernel)),
        ));
        row.push(("canon_wire".to_string(), wire_hex(&canonical)));
        row.push(("estimates".to_string(), estimate_text(kernel)));
        for (policy_name, policy) in POLICIES {
            row.push((policy_name.to_string(), plan_text(kernel, policy)));
        }
        row.extend(execute_rows(kernel));
    }
    row
}

// ---------------------------------------------------------------------
// Golden tables, generated against the pre-registry enum code. Each row
// is (kernel, field, value). Regenerate with the ignored test below ONLY
// for an intentional, wire-compatible behavior change.
// ---------------------------------------------------------------------

const GOLDENS: &[(&str, &str, &str)] = &[
    ("factor_77", "describe", "factor(77)"),
    ("factor_77", "validate", "ok"),
    ("factor_77", "wire", "00000000000000004d"),
    ("factor_77", "canon_coarse", "529a71dc8ff5a8eb"),
    ("factor_77", "canon_exact", "529a71dc8ff5a8eb"),
    ("factor_77", "routing", "5be7a50aee5a4f15"),
    ("factor_77", "canon_wire", "00000000000000004d"),
    ("factor_77", "estimates", "quantum:ds=3f2cc5de710f0be2,ej=3f767a95c853c149 oscillator:unsupported memcomputing:unsupported cpu:ds=3e3723996cccc750,ej=3e3723996cccc750"),
    ("factor_77", "prefer-specialized", "quantum>cpu"),
    ("factor_77", "cpu-only", "cpu"),
    ("factor_77", "min-latency", "cpu>quantum"),
    ("factor_77", "min-energy", "cpu>quantum"),
    ("factor_77", "deadline-aware", "cpu>quantum"),
    ("factor_77", "exec:quantum", "est=3f2cc5de710f0be2,3f767a95c853c149 s3=00000000000000000b0000000000000007/3f038644a825a37e/931;00000000000000000b0000000000000007/3f00bc3ad944d547/798 s24301=000000000000000007000000000000000b/3ee6504e770671b5/266;000000000000000007000000000000000b/3ee6504e770671b5/266"),
    ("factor_77", "exec:cpu", "est=3e3723996cccc750,3e3723996cccc750 s3=000000000000000007000000000000000b/3e312e0be826d695/4;000000000000000007000000000000000b/3e312e0be826d695/4 s24301=000000000000000007000000000000000b/3e312e0be826d695/4;000000000000000007000000000000000b/3e312e0be826d695/4"),
    ("factor_15", "describe", "factor(15)"),
    ("factor_15", "validate", "ok"),
    ("factor_15", "wire", "00000000000000000f"),
    ("factor_15", "canon_coarse", "529a33dc8ff53f91"),
    ("factor_15", "canon_exact", "529a33dc8ff53f91"),
    ("factor_15", "routing", "c7f6ca66f90c2951"),
    ("factor_15", "canon_wire", "00000000000000000f"),
    ("factor_15", "estimates", "quantum:ds=3f05798ee2308c3a,ej=3f50c6f7a0b5ed8d oscillator:unsupported memcomputing:unsupported cpu:ds=3e293969d9c0a586,ej=3e293969d9c0a586"),
    ("factor_15", "prefer-specialized", "quantum>cpu"),
    ("factor_15", "cpu-only", "cpu"),
    ("factor_15", "min-latency", "cpu>quantum"),
    ("factor_15", "min-energy", "cpu>quantum"),
    ("factor_15", "deadline-aware", "cpu>quantum"),
    ("factor_15", "exec:quantum", "est=3f05798ee2308c3a,3f50c6f7a0b5ed8d s3=0000000000000000050000000000000003/3ec172c417c771ef/52;0000000000000000030000000000000005/3e65798ee2308c3a/1 s24301=0000000000000000050000000000000003/3ec172c417c771ef/52;0000000000000000050000000000000003/3e65798ee2308c3a/1"),
    ("factor_15", "exec:cpu", "est=3e293969d9c0a586,3e293969d9c0a586 s3=0000000000000000030000000000000005/3e212e0be826d695/2;0000000000000000030000000000000005/3e212e0be826d695/2 s24301=0000000000000000030000000000000005/3e212e0be826d695/2;0000000000000000030000000000000005/3e212e0be826d695/2"),
    ("factor_too_small", "describe", "factor(3)"),
    ("factor_too_small", "validate", "err: factor(3): composites below 4 have no nontrivial factors"),
    ("factor_too_small", "wire", "000000000000000003"),
    ("search_unsorted_dups", "describe", "search(2^4, 4 marked)"),
    ("search_unsorted_dups", "validate", "ok"),
    ("search_unsorted_dups", "wire", "0100000004000000040000000000000009000000000000000300000000000000090000000000000001"),
    ("search_unsorted_dups", "canon_coarse", "3678c93179214ef1"),
    ("search_unsorted_dups", "canon_exact", "3678c93179214ef1"),
    ("search_unsorted_dups", "routing", "d0d45053f73ea425"),
    ("search_unsorted_dups", "canon_wire", "010000000400000003000000000000000100000000000000030000000000000009"),
    ("search_unsorted_dups", "estimates", "quantum:ds=3e9ad7f29abcaf49,ej=3ee4f8b588e368f1 oscillator:unsupported memcomputing:unsupported cpu:ds=3e2d34add7753997,ej=3e2d34add7753997"),
    ("search_unsorted_dups", "prefer-specialized", "quantum>cpu"),
    ("search_unsorted_dups", "cpu-only", "cpu"),
    ("search_unsorted_dups", "min-latency", "cpu>quantum"),
    ("search_unsorted_dups", "min-energy", "cpu>quantum"),
    ("search_unsorted_dups", "deadline-aware", "cpu>quantum"),
    ("search_unsorted_dups", "exec:quantum", "est=3e9ad7f29abcaf49,3ee4f8b588e368f1 s3=010000000000000003/3e9ad7f29abcaf49/10;010000000000000003/3e9ad7f29abcaf49/10 s24301=010000000000000007/3e9ad7f29abcaf49/10;010000000000000001/3e9ad7f29abcaf49/10"),
    ("search_unsorted_dups", "exec:cpu", "est=3e2d34add7753997,3e2d34add7753997 s3=010000000000000001/3e212e0be826d695/2;010000000000000001/3e212e0be826d695/2 s24301=010000000000000001/3e212e0be826d695/2;010000000000000001/3e212e0be826d695/2"),
    ("search_single", "describe", "search(2^3, 1 marked)"),
    ("search_single", "validate", "ok"),
    ("search_single", "wire", "0100000003000000010000000000000005"),
    ("search_single", "canon_coarse", "ace7e6cf6a345160"),
    ("search_single", "canon_exact", "ace7e6cf6a345160"),
    ("search_single", "routing", "c858e0058dbd6735"),
    ("search_single", "canon_wire", "0100000003000000010000000000000005"),
    ("search_single", "estimates", "quantum:ds=3ea5798ee2308c3a,ej=3ef0c6f7a0b5ed8d oscillator:unsupported memcomputing:unsupported cpu:ds=3e3353cd652bb168,ej=3e3353cd652bb168"),
    ("search_single", "prefer-specialized", "quantum>cpu"),
    ("search_single", "cpu-only", "cpu"),
    ("search_single", "min-latency", "cpu>quantum"),
    ("search_single", "min-energy", "cpu>quantum"),
    ("search_single", "deadline-aware", "cpu>quantum"),
    ("search_single", "exec:quantum", "est=3ea5798ee2308c3a,3ef0c6f7a0b5ed8d s3=010000000000000005/3ea5798ee2308c3a/16;010000000000000005/3ea5798ee2308c3a/16 s24301=010000000000000005/3ea5798ee2308c3a/16;010000000000000005/3ea5798ee2308c3a/16"),
    ("search_single", "exec:cpu", "est=3e3353cd652bb168,3e3353cd652bb168 s3=010000000000000005/3e39c511dc3a41e0/6;010000000000000005/3e39c511dc3a41e0/6 s24301=010000000000000005/3e39c511dc3a41e0/6;010000000000000005/3e39c511dc3a41e0/6"),
    ("search_empty_space", "describe", "search(2^0, 0 marked)"),
    ("search_empty_space", "validate", "err: search over 0 qubits: the search space is empty"),
    ("search_empty_space", "wire", "010000000000000000"),
    ("search_marked_oob", "describe", "search(2^2, 1 marked)"),
    ("search_marked_oob", "validate", "err: marked item 4 outside search space 0..2^2"),
    ("search_marked_oob", "wire", "0100000002000000010000000000000004"),
    ("dna_mixed", "describe", "dna_similarity(|a|=12, |b|=12, k=3)"),
    ("dna_mixed", "validate", "ok"),
    ("dna_mixed", "wire", "020000000c4143475441434754544743410000000c5447434141434754414347540000000000000003"),
    ("dna_mixed", "canon_coarse", "f8d573df3ad015a3"),
    ("dna_mixed", "canon_exact", "f8d573df3ad015a3"),
    ("dna_mixed", "routing", "040ed11e7c774add"),
    ("dna_mixed", "canon_wire", "020000000c4143475441434754544743410000000c5447434141434754414347540000000000000003"),
    ("dna_mixed", "estimates", "quantum:ds=3f40b630a91537a0,ej=3f8a1cac083126ea oscillator:unsupported memcomputing:unsupported cpu:ds=3e8cfdb417c18a1b,ej=3e8cfdb417c18a1b"),
    ("dna_mixed", "prefer-specialized", "quantum>cpu"),
    ("dna_mixed", "cpu-only", "cpu"),
    ("dna_mixed", "min-latency", "cpu>quantum"),
    ("dna_mixed", "min-energy", "cpu>quantum"),
    ("dna_mixed", "deadline-aware", "cpu>quantum"),
    ("dna_mixed", "exec:quantum", "est=3f40b630a91537a0,3f8a1cac083126ea s3=023fe95810624dd2f2/3f40b630a91537a0/9000;023fe83126e978d4fe/3f40b630a91537a0/9000 s24301=023fe51eb851eb851e/3f40b630a91537a0/9000;023fe53f7ced916872/3f40b630a91537a0/9000"),
    ("dna_mixed", "exec:cpu", "est=3e8cfdb417c18a1b,3e8cfdb417c18a1b s3=023fe7829cbc14e5e0/3e8cfdb417c18a1b/216;023fe7829cbc14e5e0/3e8cfdb417c18a1b/216 s24301=023fe7829cbc14e5e0/3e8cfdb417c18a1b/216;023fe7829cbc14e5e0/3e8cfdb417c18a1b/216"),
    ("dna_zero_kmer", "describe", "dna_similarity(|a|=4, |b|=4, k=0)"),
    ("dna_zero_kmer", "validate", "err: dna similarity with k = 0"),
    ("dna_zero_kmer", "wire", "02000000044143475400000004414347540000000000000000"),
    ("dna_kmer_too_long", "describe", "dna_similarity(|a|=4, |b|=3, k=4)"),
    ("dna_kmer_too_long", "validate", "err: dna similarity k-mer length 4 exceeds shorter sequence length 3"),
    ("dna_kmer_too_long", "wire", "020000000441434754000000034143470000000000000004"),
    ("sat_planted", "describe", "solve_sat(8 vars, 28 clauses)"),
    ("sat_planted", "validate", "ok"),
    ("sat_planted", "wire", "03000000080000001c00000003fffffffffffffff9fffffffffffffffcffffffffffffffff0000000300000000000000010000000000000007fffffffffffffffd0000000300000000000000010000000000000005000000000000000800000003fffffffffffffffc0000000000000001fffffffffffffffd000000030000000000000005fffffffffffffff9000000000000000300000003fffffffffffffffffffffffffffffffbfffffffffffffffd00000003fffffffffffffffd00000000000000060000000000000004000000030000000000000008fffffffffffffffb000000000000000700000003fffffffffffffffc000000000000000500000000000000030000000300000000000000030000000000000007000000000000000600000003fffffffffffffffefffffffffffffffcfffffffffffffff80000000300000000000000040000000000000005fffffffffffffffe000000030000000000000004fffffffffffffffafffffffffffffffb000000030000000000000006000000000000000800000000000000020000000300000000000000010000000000000008fffffffffffffffa00000003fffffffffffffffdfffffffffffffff8fffffffffffffffc00000003fffffffffffffff8fffffffffffffffffffffffffffffffb000000030000000000000001fffffffffffffff800000000000000070000000300000000000000010000000000000002fffffffffffffffb00000003fffffffffffffff9fffffffffffffffcfffffffffffffff8000000030000000000000006fffffffffffffffeffffffffffffffff000000030000000000000001fffffffffffffffa000000000000000300000003fffffffffffffff8fffffffffffffffe000000000000000600000003fffffffffffffff8fffffffffffffffffffffffffffffffd000000030000000000000008fffffffffffffff9ffffffffffffffff00000003fffffffffffffffafffffffffffffff9fffffffffffffffe00000003ffffffffffffffff0000000000000003000000000000000500000003fffffffffffffffdfffffffffffffffbfffffffffffffff8"),
    ("sat_planted", "canon_coarse", "53494a553875189e"),
    ("sat_planted", "canon_exact", "10a23d57c8457003"),
    ("sat_planted", "routing", "60395e93dbc86dfd"),
    ("sat_planted", "canon_wire", "03000000080000001c0000000300000000000000010000000000000002fffffffffffffffb0000000300000000000000010000000000000003fffffffffffffffa000000030000000000000001fffffffffffffffdfffffffffffffffc000000030000000000000001fffffffffffffffd000000000000000700000003000000000000000100000000000000050000000000000008000000030000000000000001fffffffffffffffa00000000000000080000000300000000000000010000000000000007fffffffffffffff800000003fffffffffffffffffffffffffffffffe000000000000000600000003ffffffffffffffff0000000000000003000000000000000500000003fffffffffffffffffffffffffffffffdfffffffffffffffb00000003fffffffffffffffffffffffffffffffdfffffffffffffff800000003fffffffffffffffffffffffffffffffcfffffffffffffff900000003fffffffffffffffffffffffffffffffbfffffffffffffff800000003fffffffffffffffffffffffffffffff900000000000000080000000300000000000000020000000000000006000000000000000800000003fffffffffffffffe0000000000000004000000000000000500000003fffffffffffffffefffffffffffffffcfffffffffffffff800000003fffffffffffffffe0000000000000006fffffffffffffff800000003fffffffffffffffefffffffffffffffafffffffffffffff9000000030000000000000003fffffffffffffffc00000000000000050000000300000000000000030000000000000005fffffffffffffff90000000300000000000000030000000000000006000000000000000700000003fffffffffffffffd0000000000000004000000000000000600000003fffffffffffffffdfffffffffffffffcfffffffffffffff800000003fffffffffffffffdfffffffffffffffbfffffffffffffff8000000030000000000000004fffffffffffffffbfffffffffffffffa00000003fffffffffffffffcfffffffffffffff9fffffffffffffff800000003fffffffffffffffb00000000000000070000000000000008"),
    ("sat_planted", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e8353cd652bb168,ej=3e18bd2fdda89129 cpu:ds=3e7cc673433a523a,ej=3e7cc673433a523a"),
    ("sat_planted", "prefer-specialized", "memcomputing>cpu"),
    ("sat_planted", "cpu-only", "cpu"),
    ("sat_planted", "min-latency", "cpu>memcomputing"),
    ("sat_planted", "min-energy", "memcomputing>cpu"),
    ("sat_planted", "deadline-aware", "cpu>memcomputing"),
    ("sat_planted", "exec:memcomputing", "est=3e8353cd652bb168,3e18bd2fdda89129 s3=0301000000080101010100010000/3e212e0be826d695/25;0301000000080000010000010101/3e212e0be826d695/25 s24301=0301000000080001000001000100/3e212e0be826d695/25;0301000000080100010000010000/3e212e0be826d695/25"),
    ("sat_planted", "exec:walksat", "est=3ece1094d643f785,3ea80d43de9cc604 s3=0301000000080001000101000100/3e39c511dc3a41e0/3;0301000000080001000001000100/3e6240eca6a943fe/17 s24301=0301000000080001000001000100/3e212e0be826d695/1;0301000000080001000001000100/3e49c511dc3a41e0/6"),
    ("sat_planted", "exec:cpu", "est=3e7cc673433a523a,3e7cc673433a523a s3=0301000000080100010100010000/3e4353cd652bb168/9;0301000000080100010100010000/3e4353cd652bb168/9 s24301=0301000000080100010100010000/3e4353cd652bb168/9;0301000000080100010100010000/3e4353cd652bb168/9"),
    ("sat_scrambled", "describe", "solve_sat(5 vars, 4 clauses)"),
    ("sat_scrambled", "validate", "ok"),
    ("sat_scrambled", "wire", "030000000500000004000000030000000000000004fffffffffffffffe000000000000000100000002fffffffffffffffb0000000000000003000000030000000000000001fffffffffffffffe0000000000000004000000020000000000000002ffffffffffffffff"),
    ("sat_scrambled", "canon_coarse", "2d54f6244358c38b"),
    ("sat_scrambled", "canon_exact", "b39e67eb9a6bced0"),
    ("sat_scrambled", "routing", "f4ea5e0120965b8d"),
    ("sat_scrambled", "canon_wire", "030000000500000003000000030000000000000001fffffffffffffffe000000000000000400000002ffffffffffffffff0000000000000002000000020000000000000003fffffffffffffffb"),
    ("sat_scrambled", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e6353cd652bb168,ej=3df8bd2fdda89129 cpu:ds=3e4bcc305134218a,ej=3e4bcc305134218a"),
    ("sat_scrambled", "prefer-specialized", "memcomputing>cpu"),
    ("sat_scrambled", "cpu-only", "cpu"),
    ("sat_scrambled", "min-latency", "cpu>memcomputing"),
    ("sat_scrambled", "min-energy", "memcomputing>cpu"),
    ("sat_scrambled", "deadline-aware", "cpu>memcomputing"),
    ("sat_scrambled", "exec:memcomputing", "est=3e6353cd652bb168,3df8bd2fdda89129 s3=0301000000050001010100/3e212e0be826d695/25;0301000000050000010101/3e212e0be826d695/25 s24301=0301000000050101010000/3e212e0be826d695/25;0301000000050001000100/3e212e0be826d695/25"),
    ("sat_scrambled", "exec:walksat", "est=3e95798ee2308c3a,3e712e0be826d695 s3=0301000000050001010100/3e212e0be826d695/1;0301000000050101010001/3e212e0be826d695/1 s24301=0301000000050101000000/3e212e0be826d695/1;0301000000050001000100/3e212e0be826d695/1"),
    ("sat_scrambled", "exec:cpu", "est=3e4bcc305134218a,3e4bcc305134218a s3=0301000000050001010100/3e35798ee2308c3a/5;0301000000050001010100/3e35798ee2308c3a/5 s24301=0301000000050001010100/3e35798ee2308c3a/5;0301000000050001010100/3e35798ee2308c3a/5"),
    ("compare_quarters", "describe", "compare(0.250, 0.750)"),
    ("compare_quarters", "validate", "ok"),
    ("compare_quarters", "wire", "043fd00000000000003fe8000000000000"),
    ("compare_quarters", "canon_coarse", "a9516d064a078a38"),
    ("compare_quarters", "canon_exact", "77b17fd813e5cc48"),
    ("compare_quarters", "routing", "273f3f40ba4953e2"),
    ("compare_quarters", "canon_wire", "043fd00000000000003fe8000000000000"),
    ("compare_quarters", "estimates", "quantum:unsupported oscillator:ds=3ebad7f29abcaf48,ej=3e19ba83b3532652 memcomputing:unsupported cpu:ds=3e29c511dc3a41e0,ej=3e29c511dc3a41e0"),
    ("compare_quarters", "prefer-specialized", "oscillator>cpu"),
    ("compare_quarters", "cpu-only", "cpu"),
    ("compare_quarters", "min-latency", "cpu>oscillator"),
    ("compare_quarters", "min-energy", "oscillator>cpu"),
    ("compare_quarters", "deadline-aware", "cpu>oscillator"),
    ("compare_quarters", "exec:oscillator", "est=3ebad7f29abcaf48,3e19ba83b3532652 s3=043fd46a6540d3271e/3ebad7f29abcaf48/1;043fd46a6540d3271e/3ebad7f29abcaf48/1 s24301=043fd46a6540d3271e/3ebad7f29abcaf48/1;043fd46a6540d3271e/3ebad7f29abcaf48/1"),
    ("compare_quarters", "exec:cpu", "est=3e29c511dc3a41e0,3e29c511dc3a41e0 s3=043fe0000000000000/3e29c511dc3a41e0/3;043fe0000000000000/3e29c511dc3a41e0/3 s24301=043fe0000000000000/3e29c511dc3a41e0/3;043fe0000000000000/3e29c511dc3a41e0/3"),
    ("compare_neg_zero", "describe", "compare(-0.000, 0.500)"),
    ("compare_neg_zero", "validate", "ok"),
    ("compare_neg_zero", "wire", "0480000000000000003fe0000000000000"),
    ("compare_neg_zero", "canon_coarse", "0911d125d8fe7cb8"),
    ("compare_neg_zero", "canon_exact", "4f1aa366e149989f"),
    ("compare_neg_zero", "routing", "6f3a3d72cb5ed520"),
    ("compare_neg_zero", "canon_wire", "0400000000000000003fe0000000000000"),
    ("compare_neg_zero", "estimates", "quantum:unsupported oscillator:ds=3ebad7f29abcaf48,ej=3e19ba83b3532652 memcomputing:unsupported cpu:ds=3e29c511dc3a41e0,ej=3e29c511dc3a41e0"),
    ("compare_neg_zero", "prefer-specialized", "oscillator>cpu"),
    ("compare_neg_zero", "cpu-only", "cpu"),
    ("compare_neg_zero", "min-latency", "cpu>oscillator"),
    ("compare_neg_zero", "min-energy", "oscillator>cpu"),
    ("compare_neg_zero", "deadline-aware", "cpu>oscillator"),
    ("compare_neg_zero", "exec:oscillator", "est=3ebad7f29abcaf48,3e19ba83b3532652 s3=043fd46a6540d3271e/3ebad7f29abcaf48/1;043fd46a6540d3271e/3ebad7f29abcaf48/1 s24301=043fd46a6540d3271e/3ebad7f29abcaf48/1;043fd46a6540d3271e/3ebad7f29abcaf48/1"),
    ("compare_neg_zero", "exec:cpu", "est=3e29c511dc3a41e0,3e29c511dc3a41e0 s3=043fe0000000000000/3e29c511dc3a41e0/3;043fe0000000000000/3e29c511dc3a41e0/3 s24301=043fe0000000000000/3e29c511dc3a41e0/3;043fe0000000000000/3e29c511dc3a41e0/3"),
    ("compare_nan", "describe", "compare(NaN, 0.500)"),
    ("compare_nan", "validate", "err: compare operands (NaN, 0.5) must be finite"),
    ("compare_nan", "wire", "047ff80000000000003fe0000000000000"),
    ("compare_oob", "describe", "compare(0.100, 1.500)"),
    ("compare_oob", "validate", "err: compare operands (0.1, 1.5) must lie in [0, 1]"),
    ("compare_oob", "wire", "043fb999999999999a3ff8000000000000"),
    ("coloring_cycle", "describe", "coloring(5 vertices, 5 edges, 3 colors)"),
    ("coloring_cycle", "validate", "ok"),
    ("coloring_cycle", "wire", "0500060000006400000000000000050000000000000003000000050000000000000000000000000000000100000000000000010000000000000002000000000000000200000000000000030000000000000003000000000000000400000000000000040000000000000000"),
    ("coloring_cycle", "canon_coarse", "cb2d706140dec8a0"),
    ("coloring_cycle", "canon_exact", "cb2d706140dec8a0"),
    ("coloring_cycle", "routing", "d864f5621120f0e9"),
    ("coloring_cycle", "canon_wire", "0500060000006400000000000000050000000000000003000000050000000000000000000000000000000100000000000000000000000000000004000000000000000100000000000000020000000000000002000000000000000300000000000000030000000000000004"),
    ("coloring_cycle", "estimates", "quantum:unsupported oscillator:ds=3ed77cf44765195f,ej=3e5c24000c22f1ea memcomputing:unsupported cpu:ds=3e501b2b29a4692c,ej=3e501b2b29a4692c"),
    ("coloring_cycle", "prefer-specialized", "oscillator>cpu"),
    ("coloring_cycle", "cpu-only", "cpu"),
    ("coloring_cycle", "min-latency", "cpu>oscillator"),
    ("coloring_cycle", "min-energy", "cpu>oscillator"),
    ("coloring_cycle", "deadline-aware", "cpu>oscillator"),
    ("coloring_cycle", "exec:oscillator", "est=3ed77cf44765195f,3e5c24000c22f1ea s3=050006000000200000000500000000000000020000000000000001000000000000000000000001/3ed77cf44765195f/10;050006000000200000000500000000000000020000000000000001000000000000000000000001/3ed77cf44765195f/10 s24301=050006000000200000000500000000000000020000000000000001000000000000000000000001/3ed77cf44765195f/10;050006000000200000000500000000000000020000000000000001000000000000000000000001/3ed77cf44765195f/10"),
    ("coloring_cycle", "exec:cpu", "est=3e501b2b29a4692c,3e501b2b29a4692c s3=050006000000200000000500000000000000010000000000000001000000020000000000000000/3e501b2b29a4692c/15;050006000000200000000500000000000000010000000000000001000000020000000000000000/3e501b2b29a4692c/15 s24301=050006000000200000000500000000000000010000000000000001000000020000000000000000/3e501b2b29a4692c/15;050006000000200000000500000000000000010000000000000001000000020000000000000000/3e501b2b29a4692c/15"),
    ("qubo_small", "describe", "qubo(4 vars, 5 terms)"),
    ("qubo_small", "validate", "ok"),
    ("qubo_small", "wire", "0500070000007800000000000000040000000200000000000000003ff00000000000000000000000000003c00000000000000000000003000000000000000000000000000000013ff800000000000000000000000000020000000000000003bff0000000000000000000000000000100000000000000023fe0000000000000"),
    ("qubo_small", "canon_coarse", "9e5e1b970b00c979"),
    ("qubo_small", "canon_exact", "d9fe908f3f70bf9d"),
    ("qubo_small", "routing", "3ad79a443bc4087f"),
    ("qubo_small", "canon_wire", "0500070000007800000000000000040000000200000000000000003ff00000000000000000000000000003c00000000000000000000003000000000000000000000000000000013ff8000000000000000000000000000100000000000000023fe000000000000000000000000000020000000000000003bff0000000000000"),
    ("qubo_small", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e6353cd652bb168,ej=3df8bd2fdda89129 cpu:ds=3e6353cd652bb168,ej=3e6353cd652bb168"),
    ("qubo_small", "prefer-specialized", "memcomputing>cpu"),
    ("qubo_small", "cpu-only", "cpu"),
    ("qubo_small", "min-latency", "memcomputing>cpu"),
    ("qubo_small", "min-energy", "memcomputing>cpu"),
    ("qubo_small", "deadline-aware", "memcomputing>cpu"),
    ("qubo_small", "exec:memcomputing", "est=3e6353cd652bb168,3df8bd2fdda89129 s3=050007000000100000000400000101c008000000000000/3e6353cd652bb168/450;050007000000100000000400000101c008000000000000/3e6353cd652bb168/450 s24301=050007000000100000000400000101c008000000000000/3e6353cd652bb168/450;050007000000100000000400000101c008000000000000/3e6353cd652bb168/450"),
    ("qubo_small", "exec:cpu", "est=3e6353cd652bb168,3e6353cd652bb168 s3=050007000000100000000400000101c008000000000000/3e6353cd652bb168/36;050007000000100000000400000101c008000000000000/3e6353cd652bb168/36 s24301=050007000000100000000400000101c008000000000000/3e6353cd652bb168/36;050007000000100000000400000101c008000000000000/3e6353cd652bb168/36"),
];

#[test]
fn legacy_families_match_pre_registry_goldens() {
    if GOLDENS.len() == 1 && GOLDENS[0].0 == "placeholder" {
        panic!("golden table not yet generated — run the regenerate test");
    }
    let mut checked = 0usize;
    for (name, kernel) in corpus() {
        for (field, value) in observe(&kernel) {
            let golden = GOLDENS
                .iter()
                .find(|(n, f, _)| *n == name && *f == field)
                .unwrap_or_else(|| panic!("missing golden for {name}/{field}"));
            assert_eq!(
                value, golden.2,
                "{name}/{field} drifted from pre-registry behavior"
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        GOLDENS.len(),
        "golden table has rows the corpus no longer produces"
    );
}

/// Prints the full golden table. Run after an *intentional* behavior
/// change, then paste the output over the constant above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    println!("const GOLDENS: &[(&str, &str, &str)] = &[");
    for (name, kernel) in corpus() {
        for (field, value) in observe(&kernel) {
            println!(
                "    (\"{name}\", \"{field}\", \"{}\"),",
                value.escape_debug()
            );
        }
    }
    println!("];");
}
