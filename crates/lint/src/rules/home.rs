//! Family-home: a kernel family's support, cost model and execution live
//! in its `accel::family` registry entry, not also in backend match arms.
//!
//! The five legacy families (factor, search, DNA similarity, SAT, analog
//! compare) once had a second cost model and execution path written as
//! per-variant `match` arms in every backend. This rule keeps them from
//! growing back: outside non-test code of the registry itself
//! (`crates/accel/src/family.rs`) and the native v1 wire codec
//! (`crates/wire/src/payload.rs`), a *pattern* on a legacy `Kernel`
//! variant is an error. Constructing a legacy kernel is fine anywhere —
//! only matching on one routes around the registry.
//!
//! A `Kernel::<Variant>` path counts as a pattern when, after its field
//! group, the token stream continues like a pattern and not like an
//! expression: a match arm (`=>`), an or-pattern (`|`), a guard (`if`), a
//! `let` binding (`=`), or an argument of `matches!`. Tuple and wrapper
//! patterns (`(Kernel::Factor { n }, r) =>`, `Some(Kernel::Search { .. })
//! =`) are followed out through their enclosing brackets.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::SourceFile;
use std::path::Path;

pub const HOME: &str = "family::home";

/// The `Kernel` variants whose families predate the registry.
pub const LEGACY_VARIANTS: &[&str] = &["Factor", "Search", "DnaSimilarity", "SolveSat", "Compare"];

/// The files allowed to match legacy variants: the registry entries and
/// the v1 wire codec that frames them natively.
pub const HOME_FILES: &[&str] = &["crates/accel/src/family.rs", "crates/wire/src/payload.rs"];

const HELP: &str = "a family's support, cost model and execution live in its `accel::family` \
                    entry: go through `registry().family_of(kernel)` or a `BackendProfile` \
                    instead of matching the variant";

/// Flags every non-test pattern on a legacy `Kernel` variant in `file`,
/// unless `file` is one of the [`HOME_FILES`].
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if HOME_FILES.iter().any(|home| file.path == Path::new(home)) {
        return;
    }
    let toks = &file.toks;
    let mut brackets: Option<Brackets> = None;
    for i in 0..toks.len().saturating_sub(2) {
        if file.is_test[i]
            || toks[i].text != "Kernel"
            || toks[i + 1].text != "::"
            || !LEGACY_VARIANTS.contains(&toks[i + 2].text.as_str())
        {
            continue;
        }
        let brackets = brackets.get_or_insert_with(|| Brackets::new(toks));
        if brackets.is_pattern(toks, i + 2) {
            out.push(Diagnostic::error(
                HOME,
                &file.path,
                toks[i].line,
                toks[i].col,
                format!(
                    "`Kernel::{}` is matched outside its family entry",
                    toks[i + 2].text
                ),
                HELP,
            ));
        }
    }
}

/// Bracket structure of a token stream: each bracket's partner and each
/// token's innermost enclosing opener.
struct Brackets {
    partner: Vec<Option<usize>>,
    enclosing: Vec<Option<usize>>,
}

impl Brackets {
    fn new(toks: &[Tok]) -> Self {
        let mut partner = vec![None; toks.len()];
        let mut enclosing = vec![None; toks.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                ")" | "]" | "}" => {
                    if let Some(o) = open.pop() {
                        partner[o] = Some(i);
                        partner[i] = Some(o);
                    }
                    enclosing[i] = open.last().copied();
                }
                text => {
                    enclosing[i] = open.last().copied();
                    if matches!(text, "(" | "[" | "{") {
                        open.push(i);
                    }
                }
            }
        }
        Brackets { partner, enclosing }
    }

    /// Does the path ending at the variant token `v` sit in pattern
    /// position?
    fn is_pattern(&self, toks: &[Tok], v: usize) -> bool {
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        // Step over the variant's own field group.
        let mut j = v + 1;
        if matches!(text(j), "{" | "(") {
            match self.partner[j] {
                Some(close) => j = close + 1,
                None => return false,
            }
        }
        loop {
            match text(j) {
                "=" => return text(j + 1) != "=",
                "|" => return text(j + 1) != "|",
                "if" => return true,
                // Leaving a group: a tuple, wrapper or macro argument.
                "," | ")" | "]" | "}" => {
                    let opener = if text(j) == "," {
                        self.enclosing[j]
                    } else {
                        self.partner[j]
                    };
                    let Some(opener) = opener else {
                        return false;
                    };
                    if text(opener) == "(" && opener >= 2 && text(opener - 1) == "!" {
                        return text(opener - 2) == "matches";
                    }
                    match self.partner[opener] {
                        Some(close) => j = close + 1,
                        None => return false,
                    }
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(path: &str, src: &str) -> Vec<u32> {
        let file = SourceFile::parse(PathBuf::from(path), "accel", src);
        let mut out = Vec::new();
        check(&file, &mut out);
        out.iter().map(|d| d.line).collect()
    }

    #[test]
    fn every_pattern_shape_fires() {
        let src = "fn f(k: &Kernel) -> u8 {\n\
                   match k {\n\
                   Kernel::Factor { n } => 1,\n\
                   Kernel::Search { .. } | Kernel::Compare { .. } => 2,\n\
                   _ => 0,\n\
                   }\n\
                   }\n\
                   fn g(k: &Kernel) -> bool {\n\
                   if let Some(Kernel::SolveSat { formula }) = wrap(k) { return true; }\n\
                   matches!(k, Kernel::DnaSimilarity { .. })\n\
                   }\n\
                   fn h(p: (&Kernel, u8)) -> u8 {\n\
                   match p { (Kernel::Factor { n }, r) if r > 0 => r, _ => 0 }\n\
                   }\n";
        assert_eq!(
            run("crates/accel/src/backends.rs", src),
            vec![3, 4, 4, 9, 10, 13]
        );
    }

    #[test]
    fn constructions_and_new_families_are_silent() {
        let src = "fn f() -> Vec<Kernel> {\n\
                   let a = Kernel::Factor { n: 15 };\n\
                   let b = wrap(Kernel::Compare { x: 0.1, y: 0.2 });\n\
                   let same = a == Kernel::Factor { n: 15 };\n\
                   let job = Job { kernel: Kernel::Search { n_qubits: 3, marked: vec![1] }, seed: 1 };\n\
                   match b { Kernel::Family(_) => {} _ => {} }\n\
                   vec![a, Kernel::SolveSat { formula: f() }]\n\
                   }\n";
        assert!(run("crates/runtime/src/engine.rs", src).is_empty());
    }

    #[test]
    fn home_files_and_tests_are_exempt() {
        let arm = "fn f(k: &Kernel) -> u8 { match k { Kernel::Factor { .. } => 1, _ => 0 } }\n";
        for home in HOME_FILES {
            assert!(run(home, arm).is_empty(), "{home}");
        }
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{arm}}}\n");
        assert!(run("crates/accel/src/host.rs", &in_test).is_empty());
    }
}
