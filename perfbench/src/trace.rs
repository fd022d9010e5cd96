//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory during the traced pass and are written out when
//! the run ends. Times are nanoseconds since the start of the pass.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// One timed interval of one job.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub job: u32,
    pub name: &'static str,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// Jobs traced per pass at most; longer passes trace every k-th job
/// index, an even sample, so span memory stays bounded.
const TRACED_JOBS: usize = 50_000;

/// A per-thread span store.
pub struct Recorder {
    origin: Instant,
    /// Trace jobs whose index is a multiple of this; 0 traces none.
    every: usize,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for a pass of `jobs` jobs, tracing when `traced`.
    pub fn new(origin: Instant, traced: bool, jobs: usize) -> Recorder {
        Recorder {
            origin,
            every: if traced {
                jobs.div_ceil(TRACED_JOBS).max(1)
            } else {
                0
            },
            spans: Vec::new(),
        }
    }

    /// Whether the job at `index` is traced.
    pub fn wants(&self, index: usize) -> bool {
        self.every > 0 && index.is_multiple_of(self.every)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its index for use as a parent.
    pub fn span(
        &mut self,
        job: usize,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start, end) = (self.ns(start), self.ns(end));
        self.span_ns(job, name, parent, start, end)
    }

    pub fn span_ns(
        &mut self,
        job: usize,
        name: &'static str,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            job: job as u32,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() as u32 - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `other`'s spans to `into`, shifting their parent indices.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let offset = into.len() as u32;
    into.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time per span name: each span's duration minus the part its
/// children cover, summed. Also returns the summed duration of root
/// (`job`) spans, the end-to-end total the shares are taken against.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end.saturating_sub(s.start);
        }
    }
    let mut selfs = BTreeMap::new();
    let mut total = 0;
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end.saturating_sub(s.start);
        *selfs.entry(s.name).or_insert(0) += dur.saturating_sub(cov);
        if s.parent.is_none() {
            total += dur;
        }
    }
    (selfs, total)
}

/// Writes every span as a tab-separated line:
/// `span job parent name start_ns end_ns` (`parent` is `-` for roots).
pub fn write(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span\tjob\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}",
            s.job, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, true, 1);
        let root = Some(rec.span_ns(0, "job", None, 0, 100));
        let server = Some(rec.span_ns(0, "server", root, 10, 90));
        rec.span_ns(0, "runtime.exec", server, 30, 80);
        let mut spans = Vec::new();
        merge(&mut spans, Vec::new());
        merge(&mut spans, rec.into_spans());
        let (selfs, total) = self_times(&spans);
        assert_eq!(total, 100);
        assert_eq!(selfs["job"], 20);
        assert_eq!(selfs["server"], 30);
        assert_eq!(selfs["runtime.exec"], 50);
    }

    #[test]
    fn long_passes_trace_an_even_sample() {
        let rec = Recorder::new(Instant::now(), true, 4 * TRACED_JOBS);
        assert!(rec.wants(0) && rec.wants(4) && !rec.wants(3));
        assert!(!Recorder::new(Instant::now(), false, 10).wants(0));
    }
}
