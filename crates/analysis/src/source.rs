//! Source model shared by the passes: lexed files, extracted functions,
//! `#[cfg(test)] mod … { … }` ranges, `lint:allow` annotations, and findings.

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use std::ops::Range;

/// The annotation kinds `// lint:allow(<lint>): <reason>` may name.
/// `lock-order` findings are deliberately not suppressible.
pub const ALLOW_LINTS: &[&str] = &["hash-iter", "wall-clock", "panic", "unseeded-rng"];

/// One reported defect. Sorted by file then line for stable output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A parsed `lint:allow` annotation. `line..=last_line` spans the comment
/// block itself (multi-line reasons continue on consecutive comment lines).
#[derive(Debug, Clone)]
pub struct Allow {
    pub lint: String,
    pub reason: String,
    pub line: usize,
    pub last_line: usize,
}

/// A function item: its name and the token-index range of its brace-delimited
/// body (inclusive of both braces).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub body: Range<usize>,
    pub line: usize,
}

/// One lexed file with everything the passes pattern-match over.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used verbatim in findings and the summary.
    pub rel: String,
    pub lexed: Lexed,
    pub fns: Vec<FnItem>,
    /// Token ranges of `#[cfg(test)]` / `mod tests` bodies. Test code is out
    /// of scope for every pass: tests exercise invariant *violations* on
    /// purpose (the lockdep regression test inverts the lock order).
    pub test_ranges: Vec<Range<usize>>,
    pub allows: Vec<Allow>,
    /// Annotations that failed to parse become findings immediately.
    pub malformed: Vec<Finding>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let fns = functions(&lexed.toks);
        let test_ranges = test_mod_ranges(&lexed.toks);
        let (allows, malformed) = parse_allows(rel, &lexed.comments);
        SourceFile {
            rel: rel.to_string(),
            lexed,
            fns,
            test_ranges,
            allows,
            malformed,
        }
    }

    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    pub fn in_tests(&self, tok_index: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&tok_index))
    }

    /// Non-test functions, the only ones any pass analyzes.
    pub fn production_fns(&self) -> impl Iterator<Item = &FnItem> {
        self.fns.iter().filter(|f| !self.in_tests(f.body.start))
    }

    /// True when a finding of kind `lint` on `line` is covered by an
    /// annotation. An annotation covers its own comment block plus the
    /// statement that follows it: tokens from the first one at or below the
    /// annotation up to the next `;`, `{`, or `}` (so a rustfmt-wrapped
    /// method chain is covered in full, while a multi-line block body that
    /// follows is deliberately not).
    pub fn allowed(&self, lint: &str, line: usize) -> bool {
        self.allows
            .iter()
            .filter(|a| a.lint == lint)
            .any(|a| self.allow_coverage(a).contains(&line))
    }

    fn allow_coverage(&self, allow: &Allow) -> std::ops::RangeInclusive<usize> {
        let toks = self.toks();
        let Some(start) = toks.iter().position(|t| t.line >= allow.line) else {
            return allow.line..=allow.last_line;
        };
        let mut end_line = toks[start].line;
        for t in &toks[start..] {
            end_line = t.line;
            if matches!(t.kind, TokKind::Punct(';' | '{' | '}')) {
                break;
            }
        }
        allow.line..=end_line.max(allow.last_line)
    }
}

/// Extracts every `fn name … { … }` item, including ones nested in impl
/// blocks and test modules (callers filter via [`SourceFile::in_tests`]).
fn functions(toks: &[Tok]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Walk the signature for the body brace; a `;` at bracket depth zero
        // first means a bodyless trait-method declaration.
        let mut nest = 0i32;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 2) {
            match t.kind {
                TokKind::Punct('(' | '[') => nest += 1,
                TokKind::Punct(')' | ']') => nest -= 1,
                TokKind::Punct('{') if nest == 0 => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(';') if nest == 0 => break,
                _ => {}
            }
        }
        if let Some(open) = open {
            let close = matching_brace(toks, open);
            fns.push(FnItem {
                name: name_tok.text.clone(),
                body: open..close + 1,
                line: name_tok.line,
            });
        }
    }
    fns
}

/// Index of the `}` matching the `{` at `open` (last token if unbalanced).
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Token ranges of modules that are test-only: `mod tests { … }` or any
/// `mod` directly preceded by a `#[cfg(test)]` attribute.
fn test_mod_ranges(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("mod") {
            continue;
        }
        let named_tests = toks.get(i + 1).is_some_and(|t| t.is_ident("tests"));
        let cfg_test = i >= 7
            && toks[i - 1].is_punct(']')
            && toks[i - 3].is_ident("test")
            && toks[i - 5].is_ident("cfg")
            && toks[i - 7].is_punct('#');
        if !(named_tests || cfg_test) {
            continue;
        }
        if let Some(open) = toks[i + 1..].iter().position(|t| t.is_punct('{')) {
            let open = i + 1 + open;
            ranges.push(open..matching_brace(toks, open) + 1);
        }
    }
    ranges
}

/// Parses `lint:allow(<lint>): <reason>` out of the comment stream. The
/// directive must open the comment (prose *mentioning* the syntax, like this
/// sentence, is not an annotation). A reason may continue across
/// directly-consecutive comment lines; an annotation with an unknown lint
/// name or an empty reason is a (non-suppressible) `annotation` finding.
fn parse_allows(rel: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows: Vec<Allow> = Vec::new();
    let mut malformed = Vec::new();
    let mut idx = 0;
    while idx < comments.len() {
        let comment = &comments[idx];
        let Some(rest) = comment.text.trim_start().strip_prefix("lint:allow(") else {
            idx += 1;
            continue;
        };
        let Some((lint, after)) = rest.split_once(')') else {
            malformed.push(Finding {
                file: rel.to_string(),
                line: comment.line,
                lint: "annotation",
                message: "malformed lint:allow — missing closing ')'".to_string(),
            });
            idx += 1;
            continue;
        };
        if !ALLOW_LINTS.contains(&lint) {
            malformed.push(Finding {
                file: rel.to_string(),
                line: comment.line,
                lint: "annotation",
                message: format!(
                    "lint:allow names unknown lint '{lint}' (expected one of: {})",
                    ALLOW_LINTS.join(", ")
                ),
            });
            idx += 1;
            continue;
        }
        let mut reason = after.trim_start_matches(':').trim().to_string();
        let mut last_line = comment.line;
        // Swallow the continuation lines of a multi-line reason.
        while let Some(next) = comments.get(idx + 1) {
            if next.line != last_line + 1 || next.text.trim_start().starts_with("lint:allow(") {
                break;
            }
            reason.push(' ');
            reason.push_str(next.text.trim_start_matches(['/', '!']).trim());
            last_line = next.line;
            idx += 1;
        }
        if reason.trim().is_empty() {
            malformed.push(Finding {
                file: rel.to_string(),
                line: comment.line,
                lint: "annotation",
                message: format!("lint:allow({lint}) requires a non-empty justification after ':'"),
            });
        } else {
            allows.push(Allow {
                lint: lint.to_string(),
                reason,
                line: comment.line,
                last_line,
            });
        }
        idx += 1;
    }
    (allows, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_and_test_mods_are_extracted() {
        let src = r#"
            fn outer() { inner(); }
            impl Foo { fn method(&self) -> u32 { 1 } }
            trait T { fn decl(&self); }
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
        "#;
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<_> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "method", "helper"]);
        let prod: Vec<_> = f.production_fns().map(|f| f.name.as_str()).collect();
        assert_eq!(prod, ["outer", "method"]);
    }

    #[test]
    fn allow_covers_the_following_statement() {
        let src = "fn f() {\n    // lint:allow(panic): justified\n    // because reasons.\n    value\n        .unwrap();\n    other.unwrap();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].reason, "justified because reasons.");
        assert!(f.allowed("panic", 5), "wrapped chain line covered");
        assert!(!f.allowed("panic", 6), "next statement not covered");
        assert!(!f.allowed("hash-iter", 5), "other lints not covered");
    }

    #[test]
    fn malformed_annotations_are_findings() {
        let src = "// lint:allow(panic):\n// lint:allow(bogus): reason\nfn f() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows.is_empty());
        assert_eq!(f.malformed.len(), 2);
    }
}
