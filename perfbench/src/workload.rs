//! The benchmark's workloads: what each one submits, in which order, and
//! against which serving topology.
//!
//! Every job is a pure function of `(workload, --seed, job index)`, so a
//! run can be repeated exactly and two client threads can generate their
//! own slices without sharing state. The seed changes the inputs (SAT
//! formulas, DNA strings, marked items, operands, graphs, QUBO
//! coefficients, execution seeds), never the number of jobs per
//! (family, size) stratum.

use accel::family::{ColoringSpec, FamilyKernel, QuboSpec};
use accel::host::{DispatchPolicy, HostRuntime};
use accel::kernel::Kernel;
use mem::generators::planted_3sat;
use numerics::rng::{rng_from_seed, Rng, StdRng};

/// Salt for the per-job execution seeds drawn from `--seed`.
const EXEC_SALT: u64 = 0x6a09_e667_f3bc_c908;
/// Salt for the stream that draws kernel inputs from `--seed`.
const INPUT_SALT: u64 = 0xbb67_ae85_84ca_a73b;
/// Salt for the cached-cluster replay order.
const ORDER_SALT: u64 = 0x3c6e_f372_fe94_f82b;
/// Master seed of the fixed factoring schedule (see [`exec_seed`]).
const FACTOR_SCHEDULE: u64 = 0xa54f_f53a_5f1d_36f1;

/// Unique jobs in the cached-cluster pool: more than one shard's
/// 256-entry result cache holds, fewer than two shards hold together.
pub const CLUSTER_POOL: usize = 322;

/// One (family, size) class of the stratified mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stratum {
    /// Shor factoring of this semiprime.
    Factor(u64),
    /// Grover search over 12 qubits with one marked item.
    Search12,
    /// Quantum DNA similarity of two 12-base strings, k = 2.
    Dna12,
    /// Planted 3-SAT at this many variables, clause ratio 3.8.
    Sat(usize),
    /// Oscillator comparison of two operands in [0, 1].
    Compare,
    /// 3-coloring of a 10-vertex ring with 3 chords.
    Coloring10,
    /// QUBO over this many binary variables.
    Qubo(usize),
}

impl Stratum {
    /// A stable label, `family-size`.
    pub fn label(self) -> String {
        match self {
            Stratum::Factor(n) => format!("factor-{n}"),
            Stratum::Search12 => "search-12q".into(),
            Stratum::Dna12 => "dna-similarity-12".into(),
            Stratum::Sat(n) => format!("solve-sat-{n}"),
            Stratum::Compare => "compare".into(),
            Stratum::Coloring10 => "coloring-10".into(),
            Stratum::Qubo(n) => format!("qubo-{n}"),
        }
    }

    fn generate(self, rng: &mut StdRng) -> Kernel {
        match self {
            Stratum::Factor(n) => Kernel::Factor { n },
            Stratum::Search12 => Kernel::Search {
                n_qubits: 12,
                marked: vec![rng.gen_range(0..1usize << 12)],
            },
            Stratum::Dna12 => {
                let bases = ['A', 'C', 'G', 'T'];
                let mut seq =
                    || -> String { (0..12).map(|_| bases[rng.gen_range(0..4usize)]).collect() };
                let a = seq();
                let b = seq();
                Kernel::DnaSimilarity { a, b, k: 2 }
            }
            Stratum::Sat(n_vars) => Kernel::SolveSat {
                formula: planted_3sat(n_vars, 3.8, rng.gen::<u64>())
                    .expect("planted 3-SAT parameters are valid")
                    .formula,
            },
            Stratum::Compare => Kernel::Compare {
                x: rng.gen_range(0.0..1.0),
                y: rng.gen_range(0.0..1.0),
            },
            Stratum::Coloring10 => {
                let n = 10;
                let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
                // Chords join vertices at ring distance >= 2 and are drawn
                // without repeats, so the edge list has no duplicates.
                while edges.len() < n + 3 {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(2..n - 1)) % n;
                    let chord = (a.min(b), a.max(b));
                    if !edges[n..].contains(&chord) {
                        edges.push(chord);
                    }
                }
                Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                    n_vertices: n,
                    n_colors: 3,
                    edges,
                }))
            }
            Stratum::Qubo(n_vars) => {
                let linear = (0..n_vars).map(|v| (v, rng.gen_range(-1.0..1.0))).collect();
                // One coupling per variable towards a random partner,
                // kept when the partner is higher, so no pair repeats.
                let mut quadratic = Vec::new();
                for i in 0..n_vars {
                    let j = (i + 1 + rng.gen_range(0..n_vars - 1)) % n_vars;
                    let q = rng.gen_range(-1.0..1.0);
                    if i < j {
                        quadratic.push((i, j, q));
                    }
                }
                Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                    n_vars,
                    linear,
                    quadratic,
                }))
            }
        }
    }
}

const FACTORS: [Stratum; 6] = [
    Stratum::Factor(15),
    Stratum::Factor(21),
    Stratum::Factor(33),
    Stratum::Factor(35),
    Stratum::Factor(55),
    Stratum::Factor(77),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique jobs on the specialized substrates: kernel time dominates.
    SpecializedMix,
    /// Unique CPU-sized jobs: the host stack dominates.
    CpuStack,
    /// A replayed pool on a two-shard cluster: the admission read path
    /// and router affinity dominate.
    CachedCluster,
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub policy: DispatchPolicy,
    /// Client threads, one connection (or router) each.
    pub clients: usize,
    /// Outstanding jobs per client.
    pub window: usize,
    /// Servers; more than one means a cluster driven by routers.
    pub shards: usize,
    /// Runtime workers per server.
    pub workers: usize,
    /// One round of the stratified mix, in submission order.
    pub strata: &'static [Stratum],
    /// The latency tail percentile reported, fixed per workload so every
    /// run has at least ten samples beyond it.
    pub tail: f64,
    /// Equal time slices of the timed phase. Throughput is taken per
    /// slice and reported as the median over slices, so a burst of
    /// contention from outside the process (on a shared host, stolen
    /// CPU) moves a few slices, not the run.
    pub slices: usize,
    /// Timed jobs per `--seconds`, sized so a run lasts about that long
    /// on a 2-core host. The count is fixed, so every counter the run
    /// reports repeats exactly for one seed.
    pub jobs_per_second: f64,
}

impl Spec {
    pub fn cluster(&self) -> bool {
        self.shards > 1
    }
}

const SPECIALIZED_STRATA: [Stratum; 13] = [
    FACTORS[0],
    FACTORS[1],
    FACTORS[2],
    FACTORS[3],
    FACTORS[4],
    FACTORS[5],
    Stratum::Search12,
    Stratum::Dna12,
    Stratum::Sat(12),
    Stratum::Sat(20),
    Stratum::Compare,
    Stratum::Coloring10,
    Stratum::Qubo(8),
];

/// The loadgen sizes (SAT at 12 variables only), except QUBO: its cost
/// model puts a QUBO on the CPU under `MinPredictedLatency` only below 4
/// variables (DMM 4·(n + terms) ns against CPU n·(n + terms) ns), so
/// cpu-stack uses 3.
const CPU_STRATA: [Stratum; 12] = [
    FACTORS[0],
    FACTORS[1],
    FACTORS[2],
    FACTORS[3],
    FACTORS[4],
    FACTORS[5],
    Stratum::Search12,
    Stratum::Dna12,
    Stratum::Sat(12),
    Stratum::Compare,
    Stratum::Coloring10,
    Stratum::Qubo(3),
];

/// Small families only: no factoring, so a miss costs milliseconds.
const CLUSTER_STRATA: [Stratum; 7] = [
    Stratum::Search12,
    Stratum::Dna12,
    Stratum::Sat(12),
    Stratum::Sat(20),
    Stratum::Compare,
    Stratum::Coloring10,
    Stratum::Qubo(8),
];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SpecializedMix,
        Workload::CpuStack,
        Workload::CachedCluster,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::SpecializedMix => Spec {
                name: "specialized-mix",
                policy: DispatchPolicy::PreferSpecialized,
                // One job outstanding per client and two workers: a job
                // never queues behind another, so its latency is its own
                // kernel time and the median does not depend on where a
                // Factor{77} fell.
                clients: 2,
                window: 1,
                shards: 1,
                workers: 2,
                strata: &SPECIALIZED_STRATA,
                tail: 0.90,
                // Kernel costs span four decades, so completions are too
                // lumpy to slice.
                slices: 1,
                jobs_per_second: 6.5,
            },
            Workload::CpuStack => Spec {
                name: "cpu-stack",
                policy: DispatchPolicy::MinPredictedLatency,
                clients: 2,
                window: 32,
                shards: 1,
                workers: 2,
                strata: &CPU_STRATA,
                tail: 0.99,
                slices: 100,
                jobs_per_second: 40_000.0,
            },
            Workload::CachedCluster => Spec {
                name: "cached-cluster",
                policy: DispatchPolicy::PreferSpecialized,
                clients: 2,
                window: 1,
                shards: 2,
                workers: 1,
                strata: &CLUSTER_STRATA,
                tail: 0.99,
                slices: 25,
                jobs_per_second: 1_500.0,
            },
        }
    }
}

/// SplitMix64: a bijection on `u64`, so distinct inputs give distinct
/// seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The execution seed of the job at `index`.
///
/// Factor jobs draw theirs from a fixed schedule, the same in every run:
/// Shor's number of order-finding attempts is a draw on the execution
/// seed, and one `Factor{77}` costs from 0 to 15 s of state-vector work
/// depending on it (mean about 4 s over 24 seeds on a 2-core host). With
/// a handful of such jobs per run, seed-drawn schedules would make
/// throughput a measure of Shor's luck rather than of the stack. Every
/// other job's seed comes from `--seed`.
fn exec_seed(stratum: Stratum, run_seed: u64, index: u64) -> u64 {
    match stratum {
        Stratum::Factor(n) => mix(FACTOR_SCHEDULE ^ (n << 40) ^ index),
        _ => mix(run_seed ^ EXEC_SALT ^ mix(index)),
    }
}

/// One submission: a kernel and its explicit execution seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub kernel: Kernel,
    pub seed: u64,
    pub stratum: Stratum,
}

/// Every job a run submits, generated up front.
///
/// * `pool` holds the distinct kernels with their seeds; the timed phase
///   submits `job(i)` for `i in 0..timed_jobs`.
/// * specialized-mix: the pool *is* the timed sequence, all unique.
/// * cpu-stack: a pool of 256 rounds of distinct kernels, cycled; every
///   submission gets a fresh execution seed, so every job is unique and
///   misses the result cache.
/// * cached-cluster: the pool is warmed once during set-up, then replayed
///   in seeded order (each pass a fresh shuffle).
pub struct Plan {
    pub workload: Workload,
    pub spec: Spec,
    run_seed: u64,
    pub pool: Vec<Job>,
    pub timed_jobs: usize,
    /// cached-cluster: pool index of each timed job.
    order: Vec<u32>,
}

impl Plan {
    pub fn new(workload: Workload, run_seed: u64, seconds: f64) -> Plan {
        let spec = workload.spec();
        // Whole rounds of the mix (whole passes over the pool on the
        // cluster), so the timed phase's composition is the same for
        // every seed.
        let round = match workload {
            Workload::CachedCluster => CLUSTER_POOL,
            _ => spec.strata.len(),
        };
        let wanted = (seconds * spec.jobs_per_second).ceil().max(1.0) as usize;
        let timed_jobs = wanted.div_ceil(round) * round;
        let pool_rounds = match workload {
            Workload::SpecializedMix => timed_jobs / round,
            Workload::CpuStack => 256,
            Workload::CachedCluster => CLUSTER_POOL / spec.strata.len(),
        };
        let mut inputs = rng_from_seed(run_seed ^ INPUT_SALT);
        let mut pool = Vec::with_capacity(pool_rounds * spec.strata.len());
        for _ in 0..pool_rounds {
            for &stratum in spec.strata {
                let index = pool.len() as u64;
                pool.push(Job {
                    kernel: stratum.generate(&mut inputs),
                    seed: exec_seed(stratum, run_seed, index),
                    stratum,
                });
            }
        }
        let order = if workload == Workload::CachedCluster {
            let mut rng = rng_from_seed(run_seed ^ ORDER_SALT);
            let mut order = Vec::with_capacity(timed_jobs);
            while order.len() < timed_jobs {
                let mut pass: Vec<u32> = (0..pool.len() as u32).collect();
                numerics::rng::shuffle(&mut rng, &mut pass);
                order.extend(pass);
            }
            order
        } else {
            Vec::new()
        };
        Plan {
            workload,
            spec,
            run_seed,
            pool,
            timed_jobs,
            order,
        }
    }

    /// The timed job at `index`.
    pub fn job(&self, index: usize) -> Job {
        match self.workload {
            Workload::SpecializedMix => self.pool[index].clone(),
            Workload::CpuStack => {
                let base = &self.pool[index % self.pool.len()];
                Job {
                    kernel: base.kernel.clone(),
                    seed: exec_seed(base.stratum, self.run_seed, index as u64),
                    stratum: base.stratum,
                }
            }
            Workload::CachedCluster => self.pool[self.order[index] as usize].clone(),
        }
    }

    /// The pool index a cached-cluster timed job replays.
    pub fn pool_index(&self, index: usize) -> usize {
        self.order[index] as usize
    }
}

/// Plan length for the self-test: a round of each mix, a pass over the
/// cluster pool, 2000 cpu-stack jobs.
const SELF_TEST_SECONDS: f64 = 0.05;

/// Checks the generators: two seeds give the same per-stratum
/// composition and different inputs, every kernel validates, and on
/// cpu-stack the planner puts every kernel on the CPU.
pub fn self_test(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        let spec = workload.spec();
        let a = Plan::new(workload, seed, SELF_TEST_SECONDS);
        let b = Plan::new(workload, seed ^ 1, SELF_TEST_SECONDS);
        let again = Plan::new(workload, seed, SELF_TEST_SECONDS);
        let jobs = |p: &Plan| (0..p.timed_jobs).map(|i| p.job(i)).collect::<Vec<_>>();
        let (ja, jb) = (jobs(&a), jobs(&b));
        if ja != jobs(&again) {
            return Err(format!("{}: one seed gave two job lists", spec.name));
        }
        let composition = |js: &[Job]| {
            let mut c: Vec<String> = js.iter().map(|j| j.stratum.label()).collect();
            c.sort();
            c
        };
        if composition(&ja) != composition(&jb) || composition(&a.pool) != composition(&b.pool) {
            return Err(format!("{}: the seed changed the composition", spec.name));
        }
        if ja.iter().zip(&jb).all(|(x, y)| x.kernel == y.kernel) {
            return Err(format!("{}: the seed did not change the inputs", spec.name));
        }
        for job in ja.iter().chain(&a.pool) {
            job.kernel
                .validate()
                .map_err(|e| format!("{}: invalid kernel: {e}", spec.name))?;
        }
        // Distinct execution seeds make every timed job a distinct
        // admission key; the cluster replays its pool on purpose.
        if workload != Workload::CachedCluster {
            let mut seeds: Vec<u64> = ja.iter().map(|j| j.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            if seeds.len() < ja.len() {
                return Err(format!("{}: timed jobs repeat", spec.name));
            }
        }
    }
    let plan = Plan::new(Workload::CpuStack, seed, SELF_TEST_SECONDS);
    let mut host = HostRuntime::new(DispatchPolicy::MinPredictedLatency);
    for backend in accel::backends::standard_pool(seed).map_err(|e| e.to_string())? {
        host.register(backend);
    }
    let names = host.backend_names();
    for job in &plan.pool {
        let ranked = host
            .plan(&job.kernel, None, None)
            .map_err(|e| e.to_string())?;
        let first = ranked.ranked.first().map(|&(i, _)| names[i].as_str());
        if first != Some("cpu") {
            return Err(format!(
                "cpu-stack: {} plans onto {first:?}, not cpu",
                job.stratum.label()
            ));
        }
    }
    Ok(())
}
