//! The serving stack under test and the closed-loop clients that drive
//! it.
//!
//! Single-server workloads talk to the server through [`Conn`], a thin
//! pipelined client over `wire`'s public frame and message codecs.
//! `server::Client` redeems one named ticket at a time and stashes any
//! other reply it reads on the way, so it can tell neither when a given
//! reply came off the socket nor which slot of the window freed first;
//! a closed loop that refills on whichever job completes, and a latency
//! stamped when each reply frame is read, both need the frames
//! themselves. The cluster workload uses `cluster::Router`, the repo's
//! own caller, with one job outstanding per router.

use crate::certify::{certify, fingerprint, job_hash};
use crate::trace::{self, Recorder, Span};
use crate::workload::{Job, Plan};
use accel::family::registry;
use accel::host::QuarantinePolicy;
use accel::kernel::KernelResult;
use cluster::{Router, RouterConfig, RouterError};
use runtime::{JobOptions, RuntimeConfig, RuntimeStats};
use server::{Server, ServerConfig};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wire::{
    decode_response, decode_response_v, encode_request, encode_request_v, encode_response_v,
    read_frame, write_frame, Request, Response, WireOutcome, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};

/// Master seed of every server's runtime.
const MASTER_SEED: u64 = 2019;
/// Frame header: 4 magic bytes and a 4-byte length.
const FRAME_HEADER: u64 = 8;
/// Served results kept per client for the replay pass's codec timings.
const RESULT_SAMPLES: usize = 2048;
/// Failure reasons kept per client for the report.
const KEPT_ERRORS: usize = 4;

/// Backend names as served, indexed by [`Reply::backend`].
const BACKENDS: [&str; 6] = [
    "none",
    "quantum",
    "oscillator",
    "memcomputing",
    "cpu",
    "other",
];

fn backend_index(name: &str) -> u8 {
    BACKENDS[1..]
        .iter()
        .position(|&b| b == name)
        .map_or(BACKENDS.len() - 1, |i| i + 1) as u8
}

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Certified,
    /// Turned away with an error frame (`Busy`, `QueueFull`, ...).
    Refused,
    Failed,
    /// Timed out in the queue or cancelled.
    TimedOut,
    /// Completed, but the answer failed its certificate.
    Uncertified,
    /// A cached-cluster replay whose bytes differ from its warm reply.
    Mismatch,
}

/// What the benchmark keeps of one served job (kept small: cpu-stack
/// holds hundreds of thousands).
#[derive(Debug, Clone)]
pub struct Reply {
    pub index: u32,
    pub status: Status,
    /// The kernel family's registry tag.
    family: u16,
    /// Index into [`BACKENDS`].
    backend: u8,
    /// Frame sizes, header included.
    pub request_bytes: u32,
    pub response_bytes: u32,
    /// Submit to reply frame read.
    pub latency_ns: u64,
    /// When the reply was read, in nanoseconds since the pass started.
    pub done_ns: u64,
    /// Server-reported execution time; 0 for cache hits and non-answers.
    pub wall_ns: u64,
    pub device_s: f64,
    /// [`job_hash`] of the outcome fingerprint.
    pub hash: u64,
}

impl Reply {
    /// A refused job; [`ClientOut::settle`] fills in the outcome.
    fn new(index: usize, job: &Job, latency_ns: u64, done_ns: u64, bytes: (u64, u64)) -> Reply {
        Reply {
            index: index as u32,
            status: Status::Refused,
            family: registry().family_of(&job.kernel).tag(),
            backend: 0,
            request_bytes: bytes.0 as u32,
            response_bytes: bytes.1 as u32,
            latency_ns,
            done_ns,
            wall_ns: 0,
            device_s: 0.0,
            hash: 0,
        }
    }

    pub fn family(&self) -> &'static str {
        registry()
            .by_tag(self.family)
            .map_or("unknown", |f| f.name())
    }

    pub fn backend(&self) -> &'static str {
        BACKENDS[usize::from(self.backend)]
    }
}

/// What one client thread brings home.
#[derive(Default)]
struct ClientOut {
    replies: Vec<Reply>,
    spans: Vec<Span>,
    samples: Vec<KernelResult>,
    fingerprints: Vec<(usize, Vec<u8>)>,
    errors: Vec<String>,
}

impl ClientOut {
    /// Certifies and records one outcome into `reply`. `warm` is the
    /// fingerprint the same job got in the warm phase, when there was one.
    fn settle(
        &mut self,
        mut reply: Reply,
        job: &Job,
        outcome: Option<WireOutcome>,
        warm: Option<&[u8]>,
        keep_fingerprint: bool,
    ) {
        let index = reply.index as usize;
        let mut problem = None;
        if let Some(outcome) = outcome {
            let fp = fingerprint(&outcome);
            reply.hash = job_hash(index, &fp);
            reply.status = match &outcome {
                WireOutcome::Completed {
                    backend,
                    result,
                    cost,
                    wall_nanos,
                } => {
                    reply.wall_ns = *wall_nanos;
                    reply.backend = backend_index(backend);
                    reply.device_s = cost.device_seconds;
                    if self.samples.len() < RESULT_SAMPLES {
                        self.samples.push(result.clone());
                    }
                    match certify(&job.kernel, result) {
                        Err(e) => {
                            problem = Some(format!("{}: {e}", job.stratum.label()));
                            Status::Uncertified
                        }
                        Ok(()) if warm.is_some_and(|w| w != fp.as_slice()) => {
                            problem = Some(format!(
                                "{}: replay differs from its warm reply",
                                job.stratum.label()
                            ));
                            Status::Mismatch
                        }
                        Ok(()) => Status::Certified,
                    }
                }
                WireOutcome::Failed(msg) => {
                    problem = Some(format!("{}: failed: {msg}", job.stratum.label()));
                    Status::Failed
                }
                WireOutcome::TimedOut | WireOutcome::Cancelled => {
                    problem = Some(format!("{}: {outcome:?}", job.stratum.label()));
                    Status::TimedOut
                }
            };
            if keep_fingerprint {
                self.fingerprints.push((index, fp));
            }
        } else {
            problem = Some(format!("{}: refused", job.stratum.label()));
        }
        if let Some(p) = problem {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(p);
            }
        }
        self.replies.push(reply);
    }

    fn merge(&mut self, other: ClientOut) {
        self.replies.extend(other.replies);
        trace::merge(&mut self.spans, other.spans);
        self.samples.extend(other.samples);
        self.fingerprints.extend(other.fingerprints);
        self.errors.extend(other.errors);
    }
}

/// A pipelined connection speaking the wire protocol directly.
pub struct Conn {
    stream: TcpStream,
    version: u16,
}

impl Conn {
    /// Connects and performs the version handshake.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let hello = encode_request(&Request::Hello {
            min_version: MIN_SUPPORTED_VERSION,
            max_version: PROTOCOL_VERSION,
        })
        .map_err(|e| e.to_string())?;
        write_frame(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
        let ack = read_frame(&mut stream).map_err(|e| format!("hello ack: {e}"))?;
        match decode_response(&ack).map_err(|e| e.to_string())? {
            Response::HelloAck { version } => Ok(Conn { stream, version }),
            other => Err(format!("handshake answered with {other:?}")),
        }
    }

    /// The server's statistics (`GetStats`); no job may be in flight.
    fn stats(&mut self) -> Result<RuntimeStats, String> {
        let request = Request::GetStats {
            request_id: u64::MAX,
        };
        let payload = encode_request_v(&request, self.version).map_err(|e| e.to_string())?;
        write_frame(&mut self.stream, &payload).map_err(|e| format!("stats: {e}"))?;
        let frame = read_frame(&mut self.stream).map_err(|e| format!("stats: {e}"))?;
        match decode_response_v(&frame, self.version).map_err(|e| e.to_string())? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(format!("GetStats answered with {other:?}")),
        }
    }

    /// Runs this client's slice of the timed jobs as a closed loop with
    /// `window` jobs outstanding.
    fn drive(
        &mut self,
        plan: &Plan,
        indices: impl Iterator<Item = usize>,
        window: usize,
        rec: &mut Recorder,
    ) -> Result<ClientOut, String> {
        struct Pending {
            index: usize,
            job: Job,
            submitted: Instant,
            /// Encode start and end, write end; set for traced jobs.
            stamps: Option<(u64, u64, u64)>,
            request_bytes: u64,
        }
        let mut out = ClientOut::default();
        let mut indices = indices.peekable();
        let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(window);
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        while indices.peek().is_some() || !pending.is_empty() {
            while pending.len() < window {
                let Some(index) = indices.next() else { break };
                let job = plan.job(index);
                let request_id = index as u64 + 1; // 0 is the connection-error id
                let submitted = Instant::now();
                let request = Request::Submit {
                    request_id,
                    timeout_ms: None,
                    seed: Some(job.seed),
                    policy: Some(plan.spec.policy),
                    kernel: job.kernel.clone(),
                };
                let payload =
                    encode_request_v(&request, self.version).map_err(|e| err("encode", &e))?;
                let encoded = rec.wants(index).then(Instant::now);
                write_frame(&mut self.stream, &payload).map_err(|e| err("write", &e))?;
                let stamps = encoded.map(|encoded| {
                    let written = rec.ns(Instant::now());
                    (rec.ns(submitted), rec.ns(encoded), written)
                });
                pending.insert(
                    request_id,
                    Pending {
                        index,
                        job,
                        submitted,
                        stamps,
                        request_bytes: payload.len() as u64 + FRAME_HEADER,
                    },
                );
            }
            let frame = read_frame(&mut self.stream).map_err(|e| err("read", &e))?;
            let read = Instant::now();
            let response =
                decode_response_v(&frame, self.version).map_err(|e| err("decode", &e))?;
            let (request_id, outcome) = match response {
                Response::JobResult {
                    request_id,
                    outcome,
                } => (request_id, Some(outcome)),
                Response::Error { request_id, .. } if request_id != 0 => (request_id, None),
                other => return Err(format!("unexpected response {other:?}")),
            };
            let p = pending
                .remove(&request_id)
                .ok_or_else(|| format!("reply for unknown request {request_id}"))?;
            let latency_ns = read.duration_since(p.submitted).as_nanos() as u64;
            let wall_ns = match &outcome {
                Some(WireOutcome::Completed { wall_nanos, .. }) => *wall_nanos,
                _ => 0,
            };
            if let Some((start, encoded, written)) = p.stamps {
                let decoded = Instant::now();
                let job = p.index;
                let root = Some(rec.span(job, "job", None, p.submitted, decoded));
                rec.span_ns(job, "wire.encode", root, start, encoded);
                rec.span_ns(job, "socket.write", root, encoded, written);
                let read_ns = rec.ns(read);
                let server = Some(rec.span_ns(job, "server", root, written, read_ns));
                let exec_start = read_ns.saturating_sub(wall_ns).max(written);
                rec.span_ns(job, "runtime.exec", server, exec_start, read_ns);
                rec.span(job, "wire.decode", root, read, decoded);
            }
            let bytes = (p.request_bytes, frame.len() as u64 + FRAME_HEADER);
            let reply = Reply::new(p.index, &p.job, latency_ns, rec.ns(read), bytes);
            out.settle(reply, &p.job, outcome, None, false);
        }
        Ok(out)
    }
}

/// The options every submission carries: its seed and the workload's
/// policy.
pub fn options(plan: &Plan, job: &Job) -> JobOptions {
    JobOptions {
        seed: Some(job.seed),
        policy: Some(plan.spec.policy),
        timeout: None,
    }
}

/// Runs jobs one at a time through a router. `warm` holds the pool's
/// warm-phase fingerprints, which every timed reply must match.
fn drive_router(
    router: &mut Router,
    plan: &Plan,
    jobs: impl Iterator<Item = (usize, Job)>,
    warm: &[Vec<u8>],
    rec: &mut Recorder,
) -> Result<ClientOut, String> {
    let mut out = ClientOut::default();
    for (index, job) in jobs {
        let options = options(plan, &job);
        let submitted = Instant::now();
        let ticket = router
            .submit_blocking(job.kernel.clone(), options)
            .map_err(|e| format!("submit: {e:?}"))?;
        let sent = Instant::now();
        let outcome = match router.wait(ticket) {
            Ok(outcome) => Some(outcome),
            Err(RouterError::Rejected { .. }) => None,
            Err(e) => return Err(format!("wait: {e:?}")),
        };
        let done = Instant::now();
        let wall_ns = match &outcome {
            Some(WireOutcome::Completed { wall_nanos, .. }) => *wall_nanos,
            _ => 0,
        };
        if rec.wants(index) {
            let root = Some(rec.span(index, "job", None, submitted, done));
            rec.span(index, "cluster.submit", root, submitted, sent);
            let wait = Some(rec.span(index, "cluster.wait", root, sent, done));
            let done_ns = rec.ns(done);
            let exec_start = done_ns.saturating_sub(wall_ns).max(rec.ns(sent));
            rec.span_ns(index, "runtime.exec", wait, exec_start, done_ns);
        }
        // The router encodes internally; size its frames from the same
        // messages it sends and receives.
        let request = Request::Submit {
            request_id: ticket,
            timeout_ms: None,
            seed: options.seed,
            policy: options.policy,
            kernel: job.kernel.clone(),
        };
        let request_bytes = encode_request_v(&request, PROTOCOL_VERSION)
            .map_or(0, |b| b.len() as u64 + FRAME_HEADER);
        let response_bytes = match &outcome {
            Some(outcome) => encode_response_v(
                &Response::JobResult {
                    request_id: ticket,
                    outcome: outcome.clone(),
                },
                PROTOCOL_VERSION,
            )
            .map_or(0, |b| b.len() as u64 + FRAME_HEADER),
            None => 0,
        };
        let latency_ns = done.duration_since(submitted).as_nanos() as u64;
        let bytes = (request_bytes, response_bytes);
        let reply = Reply::new(index, &job, latency_ns, rec.ns(done), bytes);
        out.settle(
            reply,
            &job,
            outcome,
            Some(&warm[plan.pool_index(index)]),
            false,
        );
    }
    Ok(out)
}

enum Links {
    Direct(Vec<Conn>),
    Routed(Vec<Router>),
}

/// The cached-cluster warm phase: each unique job once.
pub struct Warm {
    pub fingerprints: Vec<Vec<u8>>,
    pub replies: Vec<Reply>,
    pub errors: Vec<String>,
}

/// A running serving stack with its connected clients.
pub struct Stack {
    servers: Vec<Server>,
    links: Links,
    pub server_start: Vec<Duration>,
    pub warm: Option<Warm>,
    /// Time from the start of set-up until the stack is ready for the
    /// first timed submit.
    pub setup: Duration,
}

impl Stack {
    /// Starts the servers, connects the clients and, on the cluster,
    /// warms the pool.
    pub fn build(plan: &Plan) -> Result<Stack, String> {
        let spec = plan.spec;
        let started = Instant::now();
        let mut servers = Vec::with_capacity(spec.shards);
        let mut server_start = Vec::with_capacity(spec.shards);
        for _ in 0..spec.shards {
            let t = Instant::now();
            servers.push(
                Server::start(ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    runtime: RuntimeConfig {
                        workers: spec.workers,
                        policy: spec.policy,
                        seed: MASTER_SEED,
                        // Quarantine is history-dependent; off, routing is
                        // a pure function of the job.
                        quarantine: QuarantinePolicy::disabled(),
                        ..RuntimeConfig::default()
                    },
                    ..ServerConfig::default()
                })
                .map_err(|e| format!("server start: {e}"))?,
            );
            server_start.push(t.elapsed());
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
        let mut warm = None;
        let links = if spec.cluster() {
            let mut routers = (0..spec.clients)
                .map(|_| {
                    Router::connect(
                        &addrs,
                        RouterConfig {
                            seed: MASTER_SEED,
                            ..RouterConfig::default()
                        },
                    )
                    .map_err(|e| format!("router connect: {e:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            warm = Some(warm_pool(&mut routers, plan)?);
            Links::Routed(routers)
        } else {
            Links::Direct(
                (0..spec.clients)
                    .map(|_| Conn::connect(addrs[0]))
                    .collect::<Result<_, _>>()?,
            )
        };
        let setup = started.elapsed();
        Ok(Stack {
            servers,
            links,
            server_start,
            warm,
            setup,
        })
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(Server::local_addr).collect()
    }

    /// Every server's statistics, fetched with `GetStats` over the first
    /// client's links while no job is in flight.
    pub fn stats(&mut self) -> Result<Vec<RuntimeStats>, String> {
        match &mut self.links {
            Links::Direct(conns) => Ok(vec![conns[0].stats()?]),
            Links::Routed(routers) => {
                let cluster = routers[0].stats().map_err(|e| format!("stats: {e:?}"))?;
                if cluster.per_shard.len() != self.servers.len() {
                    return Err("a shard did not answer GetStats".into());
                }
                Ok(cluster.per_shard.into_iter().map(|(_, s)| s).collect())
            }
        }
    }

    /// Re-routed tickets summed over the clients' routers.
    pub fn reroutes(&self) -> u64 {
        match &self.links {
            Links::Routed(routers) => routers.iter().map(Router::reroutes).sum(),
            Links::Direct(_) => 0,
        }
    }

    /// Closes every client and drains every server.
    pub fn shutdown(self) {
        drop(self.links);
        for server in self.servers {
            let _ = server.shutdown();
        }
    }
}

/// Jobs each router keeps outstanding while warming the pool.
const WARM_WINDOW: usize = 16;

/// Each router warms its stripe of the pool, pipelined: set-up cost is
/// what the stack needs to execute every unique job once.
fn warm_pool(routers: &mut [Router], plan: &Plan) -> Result<Warm, String> {
    let clients = routers.len();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = routers
            .iter_mut()
            .enumerate()
            .map(|(c, router)| {
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut pending = std::collections::VecDeque::new();
                    let mut stripe = (c..plan.pool.len()).step_by(clients).peekable();
                    while stripe.peek().is_some() || !pending.is_empty() {
                        if pending.len() < WARM_WINDOW {
                            if let Some(index) = stripe.next() {
                                let job = &plan.pool[index];
                                let ticket = router
                                    .submit_blocking(job.kernel.clone(), options(plan, job))
                                    .map_err(|e| format!("warm submit: {e:?}"))?;
                                pending.push_back((ticket, index));
                                continue;
                            }
                        }
                        let (ticket, index) = pending.pop_front().expect("a job is pending");
                        let outcome = match router.wait(ticket) {
                            Ok(outcome) => Some(outcome),
                            Err(RouterError::Rejected { .. }) => None,
                            Err(e) => return Err(format!("warm wait: {e:?}")),
                        };
                        let job = &plan.pool[index];
                        let reply = Reply::new(index, job, 0, 0, (0, 0));
                        out.settle(reply, job, outcome, None, true);
                    }
                    Ok(out)
                })
            })
            .collect();
        collect(handles)
    })?;
    let mut fingerprints = vec![Vec::new(); plan.pool.len()];
    for (i, fp) in outs.fingerprints {
        fingerprints[i] = fp;
    }
    Ok(Warm {
        fingerprints,
        replies: outs.replies,
        errors: outs.errors,
    })
}

fn collect(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<ClientOut, String>>>,
) -> Result<ClientOut, String> {
    let mut all = ClientOut::default();
    for h in handles {
        all.merge(
            h.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }
    Ok(all)
}

/// One timed pass over the plan's jobs.
pub struct Pass {
    /// Every timed job, by index.
    pub replies: Vec<Reply>,
    pub spans: Vec<Span>,
    pub samples: Vec<KernelResult>,
    pub errors: Vec<String>,
    /// First submit to last reply.
    pub elapsed: Duration,
    pub before: Vec<RuntimeStats>,
    pub after: Vec<RuntimeStats>,
    /// Process user + system CPU over the pass, in clock ticks.
    pub cpu_ticks: u64,
    pub reroutes: u64,
}

pub fn run_pass(stack: &mut Stack, plan: &Plan, traced: bool) -> Result<Pass, String> {
    let spec = plan.spec;
    let clients = spec.clients;
    let before = stack.stats()?;
    let cpu_before = crate::cpu_ticks();
    let origin = Instant::now();
    let indices = move |c: usize| (c..plan.timed_jobs).step_by(clients);
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = match &mut stack.links {
            Links::Direct(conns) => conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        let mut rec = Recorder::new(origin, traced, plan.timed_jobs);
                        let mut out = conn.drive(plan, indices(c), spec.window, &mut rec)?;
                        out.spans = rec.into_spans();
                        Ok(out)
                    })
                })
                .collect(),
            Links::Routed(routers) => {
                let warm = stack
                    .warm
                    .as_ref()
                    .map_or(&[][..], |w| w.fingerprints.as_slice());
                routers
                    .iter_mut()
                    .enumerate()
                    .map(|(c, router)| {
                        scope.spawn(move || {
                            let mut rec = Recorder::new(origin, traced, plan.timed_jobs);
                            let jobs = indices(c).map(|i| (i, plan.job(i)));
                            let mut out = drive_router(router, plan, jobs, warm, &mut rec)?;
                            out.spans = rec.into_spans();
                            Ok(out)
                        })
                    })
                    .collect()
            }
        };
        collect(handles)
    })?;
    let cpu_ticks = crate::cpu_ticks().saturating_sub(cpu_before);
    let after = stack.stats()?;
    let mut replies = out.replies;
    replies.sort_by_key(|r| r.index);
    let last_ns = replies.iter().map(|r| r.done_ns).max().unwrap_or(1);
    Ok(Pass {
        replies,
        spans: out.spans,
        samples: out.samples,
        errors: out.errors,
        elapsed: Duration::from_nanos(last_ns),
        before,
        after,
        cpu_ticks,
        reroutes: stack.reroutes(),
    })
}
