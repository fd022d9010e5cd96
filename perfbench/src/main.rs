//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <specialized-mix|cpu-stack|cached-cluster> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`workload`]) as a closed loop from one process
//! against an in-process server or two-shard cluster, certifies every
//! answer, prints a human-readable report and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured over
//! the timed phase; `setup_s` is the median of three set-ups. The timed
//! phase submits a fixed number of jobs, sized so it lasts about
//! `--seconds` on a 2-core host, so every exact counter repeats for one
//! seed. With `--trace 1` the run then repeats the timed phase on a fresh
//! stack with spans recorded around every layer call (every job, or an
//! even sample of 50 000 on longer passes), checks that both passes
//! produced the same outcome digest and exact counters, runs a replay
//! pass for per-call microtimings, writes the spans to
//! `perfbench/traces/<workload>.tsv` and reports the per-layer metrics.
//! Per-layer metrics a workload does not exercise (a backend it never
//! routes to, the cluster numbers of a single server, `runtime.direct_us`
//! outside cpu-stack) read 0.

mod certify;
mod layers;
mod serve;
mod trace;
mod workload;

use serve::{run_pass, Pass, Stack, Status};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// The median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The nearest-rank `q` quantile of sorted `values`, with the number of
/// samples above it.
fn quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Process user + system CPU time in clock ticks, from `/proc/self/stat`.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Milliseconds per clock tick (`USER_HZ` is 100 on Linux).
const MS_PER_TICK: f64 = 10.0;

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Builds the stack `SETUP_REPEATS` times, keeping the last one.
fn set_up(plan: &Plan) -> Result<(Stack, Vec<Duration>, Vec<Duration>), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut starts = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let stack = Stack::build(plan)?;
        setups.push(stack.setup);
        starts.extend(&stack.server_start);
        if rep + 1 == SETUP_REPEATS {
            return Ok((stack, setups, starts));
        }
        stack.shutdown();
        release_freed_memory();
    }
    unreachable!("SETUP_REPEATS is at least 1")
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the memory of a torn-down stack back to the kernel, so the kept
/// stack's peak RSS does not depend on which allocator arenas its threads
/// happen to reuse.
fn release_freed_memory() {
    // SAFETY: `malloc_trim` only releases free pages; it takes no
    // pointers and is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Jobs attempted, failed, and whether every answer was right.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
}

fn outcome(pass: &Pass, warm_failures: usize) -> Outcome {
    let failed = pass
        .replies
        .iter()
        .filter(|r| r.status != Status::Certified)
        .count();
    let wrong = pass
        .replies
        .iter()
        .filter(|r| matches!(r.status, Status::Uncertified | Status::Mismatch))
        .count();
    Outcome {
        attempted: pass.replies.len(),
        failed,
        correct: wrong == 0 && warm_failures == 0,
    }
}

/// The end-to-end metrics of one untraced pass.
fn end_to_end(plan: &Plan, pass: &Pass, setups: &[Duration]) -> Vec<Metric> {
    let spec = plan.spec;
    let done: Vec<u64> = pass
        .replies
        .iter()
        .filter(|r| r.status == Status::Certified)
        .map(|r| r.done_ns)
        .collect();
    let mut latencies: Vec<f64> = pass
        .replies
        .iter()
        .filter(|r| r.status == Status::Certified)
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len();
    let (tail, beyond) = if completed == 0 {
        (0.0, 0)
    } else {
        quantile(&latencies, spec.tail)
    };
    let p50 = median(latencies);
    // Completions per second in each slice; the last slice ends one past
    // the last reply.
    let (n, wall_ns) = (spec.slices as u64, pass.elapsed.as_nanos() as u64 + 1);
    let rates = (0..n)
        .map(|k| {
            let (from, to) = (wall_ns * k / n, wall_ns * (k + 1) / n);
            let count = done.iter().filter(|&&t| (from..to).contains(&t)).count();
            count as f64 * 1e9 / (to - from) as f64
        })
        .collect();
    let throughput = median(rates);
    let failed = pass.replies.len() - completed;
    let setup = median(setups.iter().map(Duration::as_secs_f64).collect());
    let cpu_ms = pass.cpu_ticks as f64 * MS_PER_TICK / completed.max(1) as f64;
    let rss = peak_rss_mb();
    let pct = (spec.tail * 100.0).round();
    println!(
        "\nend-to-end, {} timed jobs over {:.3} s:",
        pass.replies.len(),
        pass.elapsed.as_secs_f64()
    );
    println!(
        "  throughput_jobs_s  {throughput:>12.3} 1/s  ({completed} completed, median of {n} \
         slices)"
    );
    println!("  latency_p50_ms     {p50:>12.4} ms   (n = {completed})");
    println!("  latency_tail_ms    {tail:>12.4} ms   (p{pct}, n = {completed}, {beyond} beyond)");
    println!(
        "  failed_frac        {:>12.6}      ({failed} of {})",
        failed as f64 / pass.replies.len().max(1) as f64,
        pass.replies.len()
    );
    println!(
        "  setup_s            {setup:>12.4} s    (median of {} set-ups)",
        setups.len()
    );
    println!("  peak_rss_mb        {rss:>12.2} MiB");
    println!(
        "  cpu_ms_per_job     {cpu_ms:>12.5} ms   ({} ticks over {completed} jobs)",
        pass.cpu_ticks
    );
    if beyond < 10 {
        println!("  warning: only {beyond} samples beyond p{pct}");
    }
    // The tail and `failed_frac` are printed, not returned: on a shared
    // 2-core host the p99 moves two- to four-fold with stolen CPU, too
    // far for any bound, and `failed_frac` is 0 on a healthy run
    // (`failed` and `attempted` carry it in the result line).
    vec![
        ("throughput_jobs_s".into(), throughput, "1/s"),
        ("latency_p50_ms".into(), p50, "ms"),
        ("setup_s".into(), setup, "s"),
        ("peak_rss_mb".into(), rss, "MiB"),
        ("cpu_ms_per_job".into(), cpu_ms, "ms"),
    ]
}

/// The cluster warm phase's replies (none elsewhere), after printing
/// any failures among them.
fn warm_of(stack: &Stack) -> Vec<serve::Reply> {
    stack.warm.as_ref().map_or_else(Vec::new, |w| {
        report_failures("warm", &w.errors);
        w.replies.clone()
    })
}

fn report_failures(label: &str, errors: &[String]) {
    for e in errors {
        println!("  {label}: {e}");
    }
}

fn json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    workload::self_test(args.seed).map_err(|e| format!("workload self-test: {e}"))?;
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let spec = plan.spec;
    println!(
        "perfbench {}: seed {}, {} timed jobs, {} client(s) x {} outstanding, {} server(s) x {} \
         worker(s), policy {:?}, {} cores",
        spec.name,
        args.seed,
        plan.timed_jobs,
        spec.clients,
        spec.window,
        spec.shards,
        spec.workers,
        spec.policy,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("workload self-test: ok");

    let (mut stack, setups, mut starts) = set_up(&plan)?;
    let warm_replies = warm_of(&stack);
    let warm_failures = warm_replies
        .iter()
        .filter(|r| r.status != Status::Certified)
        .count();
    let pass = run_pass(&mut stack, &plan, false)?;
    report_failures("failure", &pass.errors);
    let counters = layers::Counters::new(&pass, &warm_replies);
    let e2e = end_to_end(&plan, &pass, &setups);
    counters.print();
    let mut result = outcome(&pass, warm_failures);
    stack.shutdown();
    if !args.trace {
        return Ok(json(&result, &e2e));
    }

    let mut traced_stack = Stack::build(&plan)?;
    starts.extend(&traced_stack.server_start);
    let traced = run_pass(&mut traced_stack, &plan, true)?;
    let again = layers::Counters::new(&traced, &warm_of(&traced_stack));
    let repeat = again.repeats(&counters);
    println!(
        "\nrepeat of the timed phase on a fresh stack: digest and exact counters {}",
        if repeat { "match" } else { "DIFFER" }
    );
    if !repeat {
        again.print();
    }
    let per_layer = layers::measure(
        &plan,
        &traced_stack,
        &pass,
        &counters,
        &warm_replies,
        &traced,
        &starts,
    )?;
    traced_stack.shutdown();
    let path = std::path::PathBuf::from("perfbench/traces").join(format!("{}.tsv", spec.name));
    trace::write(&path, &traced.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    println!("\nper-layer:");
    for (name, value, unit) in &per_layer {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    result.correct &= repeat && outcome(&traced, 0).correct;
    Ok(json(&result, &per_layer))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile_counts_the_samples_beyond() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.99), (198.0, 2));
        assert_eq!(quantile(&sorted, 0.90), (180.0, 20));
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
