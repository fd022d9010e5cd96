//! Per-file analysis model: the token stream, `#[cfg(test)]` region mask,
//! function items, and parsed `// lint:allow(...)` escape hatches.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::path::PathBuf;

/// One `// lint:allow(rule, reason = "...")` escape hatch.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment starts on. The allow suppresses matching
    /// diagnostics on this line and the next one, so it works both as a
    /// trailing comment and on its own line above the annotated site.
    pub line: u32,
    pub col: u32,
    /// Rule selector: a full id (`determinism::wall-clock`), a family
    /// (`determinism`), or a leaf (`wall-clock`).
    pub rule: String,
    pub reason: Option<String>,
}

/// A `fn` item: name, position, and the token range of its body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Token range of the body including both braces; `None` for
    /// body-less trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A lexed and structurally annotated source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used verbatim in diagnostics).
    pub path: PathBuf,
    /// The crate this file belongs to (`wire`, `server`, ...).
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// Parallel to `toks`: true for tokens inside `#[cfg(test)]` items.
    pub is_test: Vec<bool>,
    pub fns: Vec<FnItem>,
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lexes and annotates `src`.
    #[must_use]
    pub fn parse(path: PathBuf, crate_name: &str, src: &str) -> Self {
        let lexed = lex(src);
        let is_test = test_mask(&lexed.toks);
        let fns = scan_fns(&lexed.toks, &is_test);
        let allows = lexed.comments.iter().filter_map(parse_allow).collect();
        SourceFile {
            path,
            crate_name: crate_name.to_string(),
            toks: lexed.toks,
            comments: lexed.comments,
            is_test,
            fns,
            allows,
        }
    }

    /// Finds an allow whose selector matches `rule` and whose window
    /// covers `line`. Returns the allow's index for usage tracking.
    #[must_use]
    pub fn allow_for(&self, rule: &str, line: u32) -> Option<usize> {
        self.allows
            .iter()
            .position(|a| (a.line == line || a.line + 1 == line) && selector_matches(&a.rule, rule))
    }
}

/// Does an allow selector cover a full rule id?
#[must_use]
pub fn selector_matches(selector: &str, rule: &str) -> bool {
    if selector == rule {
        return true;
    }
    match rule.split_once("::") {
        Some((family, leaf)) => selector == family || selector == leaf,
        None => false,
    }
}

/// Parses `lint:allow(rule)` / `lint:allow(rule, reason = "...")` out of a
/// comment. A malformed reason clause is kept as `reason: None` so the
/// engine can demand one.
fn parse_allow(comment: &Comment) -> Option<Allow> {
    let at = comment.text.find("lint:allow(")?;
    let rest = &comment.text[at + "lint:allow(".len()..];
    let end = rest.find([',', ')'])?;
    let rule = rest[..end].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    let reason = rest[end..].strip_prefix(',').and_then(|clause| {
        let clause = clause.trim_start();
        let clause = clause.strip_prefix("reason")?.trim_start();
        let clause = clause.strip_prefix('=')?.trim_start();
        let body = clause.strip_prefix('"')?;
        let close = body.rfind('"')?;
        let text = body[..close].trim();
        (!text.is_empty()).then(|| text.to_string())
    });
    Some(Allow {
        line: comment.line,
        col: u32::try_from(at).unwrap_or(0) + 1,
        rule,
        reason,
    })
}

/// Marks every token that belongs to a `#[cfg(test)]`- or `#[test]`-gated
/// item (including everything inside `mod tests { ... }` blocks carrying
/// the attribute).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let attr_end = match matching(toks, i + 1, "[", "]") {
                Some(e) => e,
                None => break,
            };
            if attr_gates_test(&toks[i + 2..attr_end]) {
                let item_end = item_extent(toks, attr_end + 1);
                for flag in mask.iter_mut().take(item_end + 1).skip(i) {
                    *flag = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Is this attribute body a test gate? `cfg(test)`, `cfg(any(test, ...))`
/// and the bare `test` attribute are; `cfg(not(test))` is not.
fn attr_gates_test(body: &[Tok]) -> bool {
    for (j, t) in body.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "test" {
            let negated = j >= 2 && body[j - 1].text == "(" && body[j - 2].text == "not";
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Given the token index right after a gating attribute, returns the index
/// of the last token of the gated item: through any further attributes,
/// then either a braced body or a terminating `;`.
fn item_extent(toks: &[Tok], mut i: usize) -> usize {
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod tests`).
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        match matching(toks, i + 1, "[", "]") {
            Some(e) => i = e + 1,
            None => return toks.len().saturating_sub(1),
        }
    }
    let mut depth_paren = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" => depth_paren += 1,
            ")" | "]" => depth_paren -= 1,
            "{" => {
                return matching(toks, i, "{", "}").unwrap_or(toks.len().saturating_sub(1));
            }
            ";" if depth_paren == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the delimiter closing the one at `open`, scanning only that
/// delimiter kind (sufficient for well-formed code).
pub(crate) fn matching(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_s {
                depth += 1;
            } else if t.text == close_s {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// Collects every `fn` item with its body range.
fn scan_fns(toks: &[Tok], is_test: &[bool]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
        {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Find the body `{` at bracket depth 0, or a `;` (no body).
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body = matching(toks, j, "{", "}").map(|e| (j, e));
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            fns.push(FnItem {
                name,
                line,
                kw: i,
                body,
                in_test: is_test[i],
            });
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("t.rs"), "t", src)
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let f = file(
            "fn live() { a(); }\n\
             #[cfg(test)]\nmod tests {\n    fn gated() { b(); }\n}\n\
             fn also_live() {}\n",
        );
        let live: Vec<_> = f.fns.iter().map(|x| (x.name.clone(), x.in_test)).collect();
        assert_eq!(
            live,
            vec![
                ("live".to_string(), false),
                ("gated".to_string(), true),
                ("also_live".to_string(), false)
            ]
        );
    }

    #[test]
    fn cfg_not_test_is_live() {
        let f = file("#[cfg(not(test))]\nfn live() {}\n#[test]\nfn gated() {}\n");
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
    }

    #[test]
    fn fn_bodies_span_their_braces() {
        let f = file("fn f(x: [u8; 4]) -> u8 { if x[0] > 0 { 1 } else { 0 } }");
        let (open, close) = f.fns[0].body.unwrap();
        assert_eq!(f.toks[open].text, "{");
        assert_eq!(close, f.toks.len() - 1);
    }

    #[test]
    fn allow_parsing() {
        let f = file(
            "// lint:allow(wall-clock, reason = \"latency stamping only\")\n\
             let t = now();\n\
             // lint:allow(panic)\n\
             x.unwrap();\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "wall-clock");
        assert_eq!(f.allows[0].reason.as_deref(), Some("latency stamping only"));
        assert_eq!(f.allows[1].rule, "panic");
        assert!(f.allows[1].reason.is_none());
    }

    #[test]
    fn allow_window_covers_same_and_next_line() {
        let f = file("// lint:allow(wall-clock, reason = \"x\")\nlet t = now();\n");
        assert!(f.allow_for("determinism::wall-clock", 2).is_some());
        assert!(f.allow_for("determinism::wall-clock", 3).is_none());
        assert!(f.allow_for("panic::unwrap", 2).is_none());
    }

    #[test]
    fn selector_granularity() {
        assert!(selector_matches(
            "determinism::wall-clock",
            "determinism::wall-clock"
        ));
        assert!(selector_matches("determinism", "determinism::wall-clock"));
        assert!(selector_matches("wall-clock", "determinism::wall-clock"));
        assert!(!selector_matches("panic", "determinism::wall-clock"));
    }
}
