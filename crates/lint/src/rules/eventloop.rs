//! No blocking operation on the event-loop dispatch path.
//!
//! The cluster/server tier serves every connection from one readiness
//! loop (`Server::event_loop`, fed by `cluster::poll`): a single blocked
//! thread stalls the whole shard. This rule builds the workspace call
//! graph over the loop crates ([`crate::callgraph::CallGraph`]), takes
//! every `fn event_loop` and every function in a `poll.rs` file as a
//! root, and walks the reachable set looking for operations that can
//! park the thread:
//!
//! * `Mutex::lock` / `lock_or_recover` (lock acquisition can wait on a
//!   contended guard),
//! * `thread::sleep`,
//! * `Condvar`/`JobHandle` waits (`.wait`, `.wait_timeout`, `.wait_while`),
//! * blocking channel ops (`.recv`, `.recv_timeout`, and `.send` on a
//!   *bounded* endpoint — classified by [`super::channel::channel_map`]),
//! * thread joins (`.join()`),
//! * blocking stream I/O (`.read_exact`, `.read_to_end`,
//!   `TcpStream::connect`, `set_nonblocking(false)`),
//! * calls to any function declared in an `extern` block of a scanned
//!   file — the analysis cannot see into foreign code, and a system call
//!   such as `poll(2)` may park the thread.
//!
//! Closures handed to deferred-execution sinks (`spawn` / `execute` /
//! `on_finish`) run off-loop and are skipped, matching the call graph's
//! own convention. Legitimate on-loop blocking — the `poll(2)` wait in
//! `poll::sys_poll`, short lock holds on loop-local state — carries an
//! audited `// lint:allow(eventloop, reason = "...")`.

use super::channel::channel_map;
use crate::callgraph::{deferred_ranges, CallGraph};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{matching, SourceFile};
use std::collections::BTreeSet;

pub const BLOCKING: &str = "eventloop::blocking";

/// Files whose functions are event-loop roots, by stem.
const ROOT_FILE_STEMS: &[&str] = &["poll"];

/// Functions that are event-loop roots wherever they live.
const ROOT_FNS: &[&str] = &["event_loop"];

/// Runs the rule over `files` (pre-filtered to the event-loop crates;
/// the synchronous client tier is excluded by the caller — blocking is
/// its design).
pub fn check(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(files);
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            ROOT_FNS.contains(&n.name.as_str())
                || files[n.file]
                    .path
                    .file_stem()
                    .is_some_and(|s| ROOT_FILE_STEMS.contains(&s.to_string_lossy().as_ref()))
        })
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }

    let foreign = foreign_fns(files);
    let parent = graph.reachable(&roots);
    for &n in parent.keys() {
        let node = &graph.nodes[n];
        let file = files[node.file];
        let item = &file.fns[node.item];
        let Some((open, close)) = item.body else {
            continue;
        };
        let chain = graph.path_to(&parent, n).join(" -> ");
        scan_ops(file, &foreign, open, close, &chain, out);
    }
}

/// Names of the functions declared in `extern` blocks (`extern "C" {
/// fn poll(..); }`) across `files`.
fn foreign_fns(files: &[&SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != "extern" {
                continue;
            }
            let abi = usize::from(toks.get(i + 1).is_some_and(|x| x.kind == TokKind::Str));
            let open = i + 1 + abi;
            if toks.get(open).is_none_or(|x| x.text != "{") {
                continue; // `extern crate`, `extern "C" fn` definitions
            }
            let Some(close) = matching(toks, open, "{", "}") else {
                continue;
            };
            names.extend(
                file.fns
                    .iter()
                    .filter(|f| f.kw > open && f.kw < close)
                    .map(|f| f.name.clone()),
            );
        }
    }
    names
}

/// Scans one reachable function body for blocking operations, skipping
/// deferred-closure spans.
fn scan_ops(
    file: &SourceFile,
    foreign: &BTreeSet<String>,
    open: usize,
    close: usize,
    chain: &str,
    out: &mut Vec<Diagnostic>,
) {
    let chans = channel_map(file);
    let skipped = deferred_ranges(file, open, close);
    let toks = &file.toks;
    let mut k = open;
    while k <= close {
        if let Some(&(_, end)) = skipped.iter().find(|&&(s, e)| k >= s && k <= e) {
            k = end + 1;
            continue;
        }
        if let Some(desc) = blocking_op(file, &chans, foreign, k) {
            let t = &toks[k];
            out.push(Diagnostic::error(
                BLOCKING,
                &file.path,
                t.line,
                t.col,
                format!("{desc} on the event-loop path ({chain})"),
                "move the blocking work off-loop (pool.execute / completion watcher) \
                 or annotate `// lint:allow(eventloop, reason = \"...\")`",
            ));
        }
        k += 1;
    }
}

/// Classifies the token at `k` as a blocking operation, if it is one.
fn blocking_op(
    file: &SourceFile,
    chans: &super::channel::ChannelMap,
    foreign: &BTreeSet<String>,
    k: usize,
) -> Option<&'static str> {
    let toks = &file.toks;
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |off: usize, s: &str| toks.get(k + off).is_some_and(|x| x.text == s);
    let prev = |off: usize| k.checked_sub(off).map(|j| toks[j].text.as_str());
    let called = next_is(1, "(");
    let method = called && prev(1) == Some(".");

    match t.text.as_str() {
        "sleep" if called && prev(1) == Some("::") && prev(2) == Some("thread") => {
            Some("blocking call `thread::sleep`")
        }
        "lock" if method => Some("lock acquisition `Mutex::lock`"),
        "lock_or_recover" if called && prev(1) != Some("fn") => {
            Some("lock acquisition `lock_or_recover`")
        }
        "wait" | "wait_timeout" | "wait_while" if method => {
            Some("blocking wait (`Condvar`/`JobHandle`)")
        }
        "recv" | "recv_timeout" if method => Some("blocking channel recv"),
        "send" if method => {
            let receiver = prev(2)?;
            chans
                .bounded_send
                .contains_key(receiver)
                .then_some("bounded channel send (parks when full)")
        }
        // Bare `.join()` only: `path.join(seg)` / `parts.join(",")` take
        // arguments, a thread join never does.
        "join" if method && next_is(2, ")") => Some("blocking `JoinHandle::join`"),
        "read_exact" | "read_to_end" if method => Some("blocking stream read"),
        "set_nonblocking" if called && next_is(2, "false") => {
            Some("switch to blocking I/O (`set_nonblocking(false)`)")
        }
        "connect" | "connect_timeout"
            if called && prev(1) == Some("::") && prev(2) == Some("TcpStream") =>
        {
            Some("blocking `TcpStream::connect`")
        }
        name if called && !matches!(prev(1), Some("fn" | "." | "::")) && foreign.contains(name) => {
            Some("foreign call into an `extern` function")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(name, src)| SourceFile::parse(PathBuf::from(*name), "cluster", src))
            .collect();
        let refs: Vec<&SourceFile> = parsed.iter().collect();
        let mut out = Vec::new();
        check(&refs, &mut out);
        out
    }

    #[test]
    fn sleep_in_event_loop_is_flagged() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { std::thread::sleep(ms); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, BLOCKING);
        assert!(out[0].message.contains("thread::sleep"), "{out:?}");
        assert!(out[0].message.contains("event_loop"), "{out:?}");
    }

    #[test]
    fn blocking_reached_through_a_callee_names_the_path() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { self.drain_work(); }\n\
             fn drain_work(&self) { let g = lock_or_recover(&self.inbox); go(g); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("event_loop -> drain_work"),
            "{out:?}"
        );
    }

    #[test]
    fn functions_off_the_loop_path_may_block() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { tick(); }\n\
             fn tick() {}\n\
             fn background(&self) { std::thread::sleep(ms); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn deferred_closures_may_block() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { pool.execute(move || { std::thread::sleep(ms); }); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn poll_file_fns_are_roots() {
        let out = run(&[("poll.rs", "fn scan(&mut self) { handle.wait(); }")]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("blocking wait"), "{out:?}");
    }

    #[test]
    fn calls_to_extern_block_functions_are_blocking() {
        let out = run(&[(
            "poll.rs",
            "extern \"C\" { fn poll(fds: *mut PollFd, n: u64, ms: i32) -> i32; }\n\
             fn wait(fds: &mut [PollFd]) -> i32 { unsafe { poll(fds.as_mut_ptr(), 1, 0) } }\n\
             fn scan(&mut self) { self.poll(); other::poll(); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2, "{out:?}");
        assert!(out[0].message.contains("foreign call"), "{out:?}");
    }

    #[test]
    fn path_join_is_not_a_thread_join() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { let p = dir.join(name); let h = self.done; h.join(); go(p); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("JoinHandle"), "{out:?}");
    }

    #[test]
    fn bounded_send_blocks_unbounded_does_not() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { let (btx, brx) = mpsc::sync_channel(4); \
             let (utx, urx) = mpsc::channel(); \
             btx.send(1); utx.send(2); park(brx, urx); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("bounded channel send"), "{out:?}");
    }
}
