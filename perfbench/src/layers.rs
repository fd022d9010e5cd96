//! Per-layer numbers for the traced run.
//!
//! Serving counters come from `GetStats` snapshots around the untraced
//! pass and from the replies themselves. Per-call microtimings (wire
//! codecs, `admit`, `plan`, `route_for`, ping, connect, calibration)
//! come from a replay over the workload's own kernels and served results
//! after the serving passes, so they do not perturb serving.

use crate::serve::{self, Pass, Reply, Stack, Status};
use crate::trace;
use crate::workload::{Plan, Workload};
use crate::{median, Metric};
use accel::host::{HostRuntime, QuarantinePolicy};
use accel::kernel::Kernel;
use runtime::{JobOptions, JobOutcome, Runtime, RuntimeConfig, RuntimeStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(family, backend)` pairs whose execution time is reported: where
/// each workload's policy routes its families.
const EXEC_PAIRS: [(&str, &str); 14] = [
    ("factor", "quantum"),
    ("search", "quantum"),
    ("dna-similarity", "quantum"),
    ("solve-sat", "memcomputing"),
    ("qubo", "memcomputing"),
    ("compare", "oscillator"),
    ("coloring", "oscillator"),
    ("factor", "cpu"),
    ("search", "cpu"),
    ("dna-similarity", "cpu"),
    ("solve-sat", "cpu"),
    ("compare", "cpu"),
    ("coloring", "cpu"),
    ("qubo", "cpu"),
];

/// The four backends of the standard pool.
const POOL_BACKENDS: [&str; 4] = ["quantum", "oscillator", "memcomputing", "cpu"];

/// Span names whose self time is reported, in the order a job meets them.
const LAYERS: [&str; 8] = [
    "job",
    "wire.encode",
    "socket.write",
    "cluster.submit",
    "server",
    "cluster.wait",
    "runtime.exec",
    "wire.decode",
];

/// Calls per item in one microtiming sample, to lift short calls well
/// above the clock's overhead.
const REPS: u32 = 8;
/// Sweeps over the items; each item keeps its fastest sweep, which
/// drops samples a preemption landed in.
const SWEEPS: usize = 3;

/// Mean per-call time in microseconds of `f` over `items`: the cost per
/// job of this call on the workload's own mix.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut best = vec![f64::INFINITY; items.len()];
    for _ in 0..SWEEPS {
        for (item, best) in items.iter().zip(&mut best) {
            let t = Instant::now();
            for _ in 0..REPS {
                f(black_box(item));
            }
            *best = best.min(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        }
    }
    best.iter().sum::<f64>() / items.len().max(1) as f64
}

/// Median of `n` timed calls of `f`, in seconds.
fn timed<E: std::fmt::Debug>(
    n: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f().map_err(|e| format!("{e:?}"))?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(samples))
}

fn diff(after: &[RuntimeStats], before: &[RuntimeStats], f: impl Fn(&RuntimeStats) -> u64) -> u64 {
    after.iter().zip(before).map(|(a, b)| f(a) - f(b)).sum()
}

fn busy_seconds(stats: &[RuntimeStats]) -> f64 {
    stats
        .iter()
        .flat_map(|s| s.per_backend.values())
        .map(|b| b.busy_seconds)
        .sum()
}

/// Exact counters that must repeat for one seed, and the timing-dependent
/// ones printed beside them.
pub struct Counters {
    pub digest: u64,
    /// Per backend: jobs executed, operations, modelled device seconds.
    pub backends: Vec<(&'static str, u64, u64, f64)>,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub queue_full: u64,
}

impl Counters {
    /// `warm` are the cluster warm-phase replies, which executed on the
    /// same servers before the pass.
    pub fn new(pass: &Pass, warm: &[Reply]) -> Counters {
        let digest = pass
            .replies
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(r.hash));
        let backends = POOL_BACKENDS
            .iter()
            .map(|&b| {
                let jobs = pass
                    .after
                    .iter()
                    .filter_map(|s| s.per_backend.get(b))
                    .map(|t| t.jobs)
                    .sum();
                let ops = pass
                    .after
                    .iter()
                    .filter_map(|s| s.per_backend.get(b))
                    .map(|t| t.operations)
                    .sum();
                // Summed in sorted order, so the total does not depend
                // on completion order.
                let mut device: Vec<f64> = warm
                    .iter()
                    .chain(&pass.replies)
                    .filter(|r| r.backend() == b && r.wall_ns > 0)
                    .map(|r| r.device_s)
                    .collect();
                device.sort_by(f64::total_cmp);
                (b, jobs, ops, device.iter().sum::<f64>() + 0.0)
            })
            .collect();
        Counters {
            digest,
            backends,
            request_bytes: pass
                .replies
                .iter()
                .map(|r| u64::from(r.request_bytes))
                .sum(),
            response_bytes: pass
                .replies
                .iter()
                .map(|r| u64::from(r.response_bytes))
                .sum(),
            cache_misses: diff(&pass.after, &pass.before, |s| s.cache_misses),
            coalesced: diff(&pass.after, &pass.before, |s| s.coalesced),
            queue_full: diff(&pass.after, &pass.before, |s| s.rejected),
        }
    }

    /// Whether the counters that must repeat match bit for bit; the
    /// timing-dependent `coalesced` and `queue_full` are not compared.
    pub fn repeats(&self, other: &Counters) -> bool {
        let exact = |c: &Counters| {
            let backends: Vec<_> = c
                .backends
                .iter()
                .map(|&(b, j, o, d)| (b, j, o, d.to_bits()))
                .collect();
            (
                c.digest,
                backends,
                c.request_bytes,
                c.response_bytes,
                c.cache_misses,
            )
        };
        exact(self) == exact(other)
    }

    pub fn print(&self) {
        println!("outcome digest: {:016x}", self.digest);
        for (b, jobs, ops, device) in &self.backends {
            println!("  {b:<13} jobs {jobs:>8}  ops {ops:>12}  device_s {device:e}");
        }
        println!(
            "  wire bytes: {} requested, {} returned; cache misses {}",
            self.request_bytes, self.response_bytes, self.cache_misses
        );
        println!(
            "  timing-dependent, not checked: coalesced {}, queue_full {}",
            self.coalesced, self.queue_full
        );
    }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
pub fn measure(
    plan: &Plan,
    stack: &Stack,
    untraced: &Pass,
    counters: &Counters,
    warm: &[Reply],
    traced: &Pass,
    server_starts: &[Duration],
) -> Result<Vec<Metric>, String> {
    let spec = plan.spec;
    let mut out = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| out.push((name, value, unit));

    // wire
    let kernels: Vec<&Kernel> = plan.pool.iter().map(|j| &j.kernel).collect();
    let encoded: Vec<Vec<u8>> = kernels
        .iter()
        .map(|k| wire::encode_kernel(k).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let results = &traced.samples;
    let encoded_results: Vec<Vec<u8>> = results
        .iter()
        .map(|r| wire::encode_kernel_result(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    put(
        "wire.encode_kernel_us".into(),
        per_call_us(&kernels, |k| {
            let _ = black_box(wire::encode_kernel(k));
        }),
        "us",
    );
    put(
        "wire.decode_kernel_us".into(),
        per_call_us(&encoded, |b| {
            let _ = black_box(wire::decode_kernel(b));
        }),
        "us",
    );
    put(
        "wire.encode_result_us".into(),
        per_call_us(results, |r| {
            let _ = black_box(wire::encode_kernel_result(r));
        }),
        "us",
    );
    put(
        "wire.decode_result_us".into(),
        per_call_us(&encoded_results, |b| {
            let _ = black_box(wire::decode_kernel_result(b));
        }),
        "us",
    );
    put(
        "wire.request_bytes".into(),
        counters.request_bytes as f64,
        "bytes",
    );
    put(
        "wire.response_bytes".into(),
        counters.response_bytes as f64,
        "bytes",
    );

    // server
    let addrs = stack.addrs();
    let mut client = server::Client::connect(addrs[0]).map_err(|e| e.to_string())?;
    let mut token = 0u64;
    let ping = timed(200, || {
        token += 1;
        client.ping(token)
    })?;
    drop(client);
    put("server.ping_rtt_us".into(), ping * 1e6, "us");
    let connect = timed(20, || server::Client::connect(addrs[0]).map(drop))?;
    put("server.connect_ms".into(), connect * 1e3, "ms");

    // admission
    put(
        "admission.admit_us".into(),
        per_call_us(&kernels, |k| {
            let _ = black_box(admission::admit(k));
        }),
        "us",
    );
    let (a, b) = (&untraced.after, &untraced.before);
    let hits = diff(a, b, |s| s.cache_hits);
    let keyed = hits + counters.cache_misses + counters.coalesced;
    put(
        "admission.hit_ratio".into(),
        if keyed == 0 {
            0.0
        } else {
            (hits + counters.coalesced) as f64 / keyed as f64
        },
        "frac",
    );
    put(
        "admission.cache_misses".into(),
        counters.cache_misses as f64,
        "count",
    );
    put(
        "admission.evictions".into(),
        diff(a, b, |s| s.cache_evictions) as f64,
        "count",
    );
    put(
        "admission.coalesced".into(),
        counters.coalesced as f64,
        "count",
    );

    // cluster
    let router = cluster::Router::connect(&addrs, cluster::RouterConfig::default())
        .map_err(|e| format!("{e:?}"))?;
    let routed: Vec<(&Kernel, JobOptions)> = plan
        .pool
        .iter()
        .map(|j| (&j.kernel, serve::options(plan, j)))
        .collect();
    put(
        "cluster.route_us".into(),
        per_call_us(&routed, |(k, o)| {
            let _ = black_box(router.route_for(k, o));
        }),
        "us",
    );
    drop(router);
    let submitted: Vec<u64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.submitted - y.submitted)
        .collect();
    let total: u64 = submitted.iter().sum();
    put(
        "cluster.shard_share_max".into(),
        submitted.iter().max().copied().unwrap_or(0) as f64 / total.max(1) as f64,
        "frac",
    );
    put("cluster.reroutes".into(), untraced.reroutes as f64, "count");

    // runtime
    for (family, backend) in EXEC_PAIRS {
        let walls: Vec<f64> = warm
            .iter()
            .chain(&untraced.replies)
            .filter(|r| r.family() == family && r.backend() == backend && r.wall_ns > 0)
            .map(|r| r.wall_ns as f64 / 1e6)
            .collect();
        let value = if walls.is_empty() { 0.0 } else { median(walls) };
        put(format!("runtime.exec_ms.{family}.{backend}"), value, "ms");
    }
    let nonexec: Vec<f64> = untraced
        .replies
        .iter()
        .filter(|r| r.status == Status::Certified)
        .map(|r| r.latency_ns.saturating_sub(r.wall_ns) as f64 / 1e6)
        .collect();
    put("runtime.nonexec_ms".into(), median(nonexec), "ms");
    let workers = (spec.workers * spec.shards) as f64;
    put(
        "runtime.busy_frac".into(),
        (busy_seconds(a) - busy_seconds(b)) / (workers * untraced.elapsed.as_secs_f64()),
        "frac",
    );
    put(
        "runtime.queue_full".into(),
        counters.queue_full as f64,
        "count",
    );
    let direct = if plan.workload == Workload::CpuStack {
        direct_us(plan)?
    } else {
        0.0
    };
    put("runtime.direct_us".into(), direct, "us");

    // accel
    let mut host = HostRuntime::new(spec.policy);
    for backend in accel::backends::standard_pool(0).map_err(|e| e.to_string())? {
        host.register(backend);
    }
    put(
        "accel.plan_us".into(),
        per_call_us(&kernels, |k| {
            let _ = black_box(host.plan(k, None, None));
        }),
        "us",
    );
    for (backend, jobs, _, _) in &counters.backends {
        put(format!("accel.jobs.{backend}"), *jobs as f64, "count");
    }
    for (backend, _, ops, _) in &counters.backends {
        put(format!("accel.ops.{backend}"), *ops as f64, "count");
    }
    for (backend, _, _, device) in &counters.backends {
        put(format!("accel.device_s.{backend}"), *device, "s");
    }
    for (backend, _, ops, _) in &counters.backends {
        let busy: f64 = a
            .iter()
            .filter_map(|s| s.per_backend.get(*backend))
            .map(|t| t.busy_seconds)
            .sum();
        let per_op = if *ops == 0 {
            0.0
        } else {
            busy * 1e9 / *ops as f64
        };
        put(format!("accel.host_ns_per_op.{backend}"), per_op, "ns");
    }

    // oscillator calibration and set-up
    let calibrate = timed(5, || accel::backends::OscillatorBackend::new().map(drop))?;
    put("osc.calibrate_ms".into(), calibrate * 1e3, "ms");
    let pool = timed(5, || accel::backends::standard_pool(0).map(drop))?;
    put("setup.pool_ms".into(), pool * 1e3, "ms");
    let starts: Vec<f64> = server_starts
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    put("setup.server_start_ms".into(), median(starts), "ms");

    // where the traced pass's time went
    let (selfs, total) = trace::self_times(&traced.spans);
    for layer in LAYERS {
        let share = selfs.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64;
        put(format!("self_share.{layer}"), share, "frac");
    }
    let overhead = traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0;
    put("bench.trace_overhead_frac".into(), overhead, "frac");

    println!(
        "\nlayer self time over the traced pass ({} spans):",
        traced.spans.len()
    );
    for layer in LAYERS {
        if let Some(&ns) = selfs.get(layer) {
            println!(
                "  {layer:<15} {:>12.3} ms  {:>6.2}% of end-to-end",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
    }
    for (family, backend) in unexpected_pairs(warm, &untraced.replies) {
        println!("  note: {family} also ran on {backend}");
    }
    Ok(out)
}

/// `(family, backend)` pairs that executed but have no metric.
fn unexpected_pairs(warm: &[Reply], replies: &[Reply]) -> Vec<(&'static str, &'static str)> {
    let mut pairs: Vec<_> = warm
        .iter()
        .chain(replies)
        .filter(|r| r.wall_ns > 0)
        .map(|r| (r.family(), r.backend()))
        .filter(|pair| !EXEC_PAIRS.contains(pair))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// In-process `Runtime::submit_with` + `wait`, one job at a time, with no
/// network: the runtime's own cost per job on cpu-stack's kernels.
fn direct_us(plan: &Plan) -> Result<f64, String> {
    let spec = plan.spec;
    let rt = Runtime::start(RuntimeConfig {
        workers: spec.workers,
        policy: spec.policy,
        quarantine: QuarantinePolicy::disabled(),
        ..RuntimeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(2000);
    for i in 0..2000 {
        let job = plan.job(i);
        let t = Instant::now();
        let handle = rt
            .submit_with(job.kernel, JobOptions::with_seed(job.seed))
            .map_err(|e| e.to_string())?;
        let outcome = handle.wait();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(outcome, JobOutcome::Completed { .. }) {
            return Err(format!("direct job {i} did not complete: {outcome:?}"));
        }
    }
    let _ = rt.shutdown();
    Ok(median(samples))
}
