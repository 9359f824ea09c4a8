//! `spade-lint`: a dependency-free static analyzer for this repository's
//! concurrency, determinism, and panic-surface invariants.
//!
//! All passes run over a hand-rolled token stream (no `syn`; the build
//! container has no registry access). A workspace-wide [`symbols::SymbolIndex`]
//! and name-based [`callgraph::CallGraph`] underpin the cross-file passes:
//!
//! 1. **Lock order** ([`locks`]) — mutex acquisitions must follow the
//!    declared order `state → stream-entry → inflight-slot → budget-tokens`.
//!    Every workspace file is walked; inversions and cross-function cycles
//!    are findings.
//! 2. **Determinism taint** ([`determinism`]) — source→sink propagation over
//!    the call graph: hash-container iteration, wall-clock/thread-id reads,
//!    and unseeded RNG construction are flagged in any function that can
//!    feed a pinned export (report tables, rule books, protocol payloads,
//!    cache keys), with the full call chain in the message.
//! 3. **Panic surface** ([`panics`]) — potential panics reachable from the
//!    request-handling call graph must be individually justified.
//!
//! Units of measure and export schemas are not lint passes: cycle and byte
//! counts are `spade_sim::units` newtypes the compiler checks, and the
//! export headers and `STATS` keys are pinned by golden tests.
//!
//! Suppressions use `// lint:allow(<lint>): <reason>` with a mandatory
//! reason; `spade-lint --summary` renders them all for the committed
//! allowlist (`crates/analysis/ALLOWLIST.md`) that CI diffs against.
//! `lock-order` findings are not suppressible by design.

pub mod callgraph;
pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod source;
pub mod symbols;

use callgraph::CallGraph;
use source::{Finding, SourceFile};
use std::path::Path;
use symbols::SymbolIndex;

/// Files whose call graph the panic-surface audit covers.
pub const PANIC_FILES: &[&str] = &["crates/bench/src/serve.rs", "crates/bench/src/protocol.rs"];

/// Everything one full run produces.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Count of findings an annotation suppressed.
    pub suppressed: usize,
    /// `(file, lint, reason)` of every parsed annotation, for the summary.
    pub allows: Vec<(String, String, String)>,
    /// Workspace-relative paths the run analyzed (diagnostics / `--json`).
    pub files_analyzed: usize,
}

/// Production `.rs` files the passes walk: every workspace crate's `src/`
/// tree plus the root facade — not `vendor/` (stub code), not
/// `crates/analysis/fixtures/` (deliberate violations), not `tests/`, and
/// not `examples/` (demo code feeds no pinned export).
pub fn walk_workspace(root: &Path) -> Result<Vec<String>, String> {
    let mut rels = vec!["src/lib.rs".to_string()];
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(root, &src, &mut rels)?;
        }
    }
    rels.sort();
    Ok(rels)
}

fn collect_rs(root: &Path, dir: &Path, rels: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(root, &path, rels)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            rels.push(rel);
        }
    }
    Ok(())
}

/// Runs every pass over the workspace at `root`.
pub fn analyze_tree(root: &Path) -> Result<Analysis, String> {
    let rels = walk_workspace(root)?;
    // A listed file the walk did not find is a hard error, never a silent
    // skip: a rename must update the list (or the list is stale — either way
    // a human decides).
    let missing: Vec<&str> = PANIC_FILES
        .iter()
        .copied()
        .filter(|rel| !rels.iter().any(|r| r == rel))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "listed file(s) missing from the workspace walk: {} — update PANIC_FILES in \
             crates/analysis/src/lib.rs to match the tree",
            missing.join(", ")
        ));
    }
    let mut files = Vec::new();
    for rel in &rels {
        files.push(load(root, rel)?);
    }

    let index = SymbolIndex::build(&files);
    let graph = CallGraph::build(&files, &index);
    let all: Vec<&SourceFile> = files.iter().collect();
    let panic_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| PANIC_FILES.contains(&f.rel.as_str()))
        .collect();
    let mut raw = locks::lock_order_pass(&all);
    raw.extend(determinism::taint_pass(&files, &index, &graph));
    raw.extend(panics::panic_pass(&panic_files));
    Ok(finish(&files, raw))
}

/// Runs a single pass over explicit file paths (fixtures, ad-hoc checks).
pub enum Pass {
    LockOrder,
    /// The determinism taint pass, with the symbol index and call graph
    /// built over exactly the given files.
    Determinism,
    Panics,
}

pub fn analyze_files(paths: &[String], pass: &Pass) -> Result<Analysis, String> {
    let mut files = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        files.push(SourceFile::parse(p, &src));
    }
    let refs: Vec<&SourceFile> = files.iter().collect();
    let raw = match pass {
        Pass::LockOrder => locks::lock_order_pass(&refs),
        Pass::Determinism => {
            let index = SymbolIndex::build(&files);
            let graph = CallGraph::build(&files, &index);
            determinism::taint_pass(&files, &index, &graph)
        }
        Pass::Panics => panics::panic_pass(&refs),
    };
    Ok(finish(&files, raw))
}

fn load(root: &Path, rel: &str) -> Result<SourceFile, String> {
    let path = root.join(rel);
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(SourceFile::parse(rel, &src))
}

/// Collects the files' annotations and malformed-annotation findings,
/// applies suppression, and sorts what remains.
fn finish(files: &[SourceFile], mut raw: Vec<Finding>) -> Analysis {
    let mut analysis = Analysis {
        files_analyzed: files.len(),
        ..Analysis::default()
    };
    for file in files {
        raw.extend(file.malformed.iter().cloned());
        for a in &file.allows {
            analysis
                .allows
                .push((file.rel.clone(), a.lint.clone(), a.reason.clone()));
        }
    }
    for finding in raw {
        let allowed = source::ALLOW_LINTS.contains(&finding.lint)
            && files
                .iter()
                .find(|f| f.rel == finding.file)
                .is_some_and(|f| f.allowed(finding.lint, finding.line));
        if allowed {
            analysis.suppressed += 1;
        } else {
            analysis.findings.push(finding);
        }
    }
    analysis.findings.sort();
    analysis.findings.dedup();
    analysis.allows.sort();
    analysis
}

/// Renders the committed allowlist. Deliberately line-number-free so the
/// file stays stable under unrelated edits; CI diffs it to make every new
/// suppression visible in review.
pub fn render_summary(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("# spade-lint allowlist\n\n");
    out.push_str(
        "Every `lint:allow` annotation in the tree, by file. Regenerate with:\n\n\
         ```\n\
         cargo run -q -p spade-analysis --bin spade-lint -- --summary > crates/analysis/ALLOWLIST.md\n\
         ```\n\n",
    );
    let mut last_file = "";
    for (file, lint, reason) in &analysis.allows {
        if file != last_file {
            out.push_str(&format!("\n## {file}\n\n"));
            last_file = file;
        }
        out.push_str(&format!("- **{lint}** — {reason}\n"));
    }
    out.push_str(&format!(
        "\n---\n{} annotations across {} files.\n",
        analysis.allows.len(),
        analysis
            .allows
            .iter()
            .map(|(f, _, _)| f)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    ));
    out
}

/// Renders one run as a JSON object (machine-readable CI artifact). Emitted
/// by hand — the analyzer is deliberately dependency-free.
pub fn render_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(f.lint),
            json_str(&f.message)
        ));
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"allows\": [");
    for (i, (file, lint, reason)) in analysis.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"lint\": {}, \"reason\": {}}}",
            json_str(file),
            json_str(lint),
            json_str(reason)
        ));
    }
    if !analysis.allows.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"suppressed\": {},\n  \"files_analyzed\": {}\n}}\n",
        analysis.suppressed, analysis.files_analyzed
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
