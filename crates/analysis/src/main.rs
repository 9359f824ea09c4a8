//! `spade-lint` CLI. Exit codes: 0 clean, 1 findings, 2 usage/io error.
//!
//! ```text
//! spade-lint [--root DIR]                  # all passes over the workspace
//! spade-lint [--root DIR] --summary        # render the allowlist (stdout)
//! spade-lint [--root DIR] --json           # machine-readable run report
//! spade-lint --lock-order FILE...          # lock pass only, explicit files
//! spade-lint --determinism FILE...         # taint pass only
//! spade-lint --panics FILE...              # panic-surface pass only
//! ```
//!
//! A pass flag's file list ends at the next `--` argument, so output flags
//! may follow it (`--determinism f.rs --json`).

use spade_analysis::{analyze_files, analyze_tree, render_json, render_summary, Analysis, Pass};
use std::iter::Peekable;
use std::path::PathBuf;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: spade-lint [--root DIR] [--summary] [--json] \
         [--lock-order|--determinism|--panics FILE...]"
    );
    std::process::exit(2);
}

/// A pass flag's file arguments: everything up to the next `--` flag.
fn files(it: &mut Peekable<impl Iterator<Item = String>>) -> Vec<String> {
    std::iter::from_fn(|| it.next_if(|arg| !arg.starts_with("--"))).collect()
}

fn main() {
    let mut root = PathBuf::from(".");
    let mut summary = false;
    let mut json = false;
    let mut pass: Option<(Pass, Vec<String>)> = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage_error("--root expects a directory")),
                )
            }
            "--summary" => summary = true,
            "--json" => json = true,
            "--lock-order" => pass = Some((Pass::LockOrder, files(&mut it))),
            "--determinism" => pass = Some((Pass::Determinism, files(&mut it))),
            "--panics" => pass = Some((Pass::Panics, files(&mut it))),
            flag => usage_error(&format!("unknown flag: {flag}")),
        }
    }
    let analysis = match &pass {
        Some((which, files)) if !files.is_empty() => analyze_files(files, which),
        Some(_) => usage_error("pass flags expect at least one file"),
        None => analyze_tree(&root),
    };
    let analysis: Analysis = analysis.unwrap_or_else(|e| {
        eprintln!("spade-lint: {e}");
        std::process::exit(2);
    });
    if summary {
        print!("{}", render_summary(&analysis));
        return;
    }
    if json {
        print!("{}", render_json(&analysis));
        if !analysis.findings.is_empty() {
            std::process::exit(1);
        }
        return;
    }
    for finding in &analysis.findings {
        println!("{}", finding.render());
    }
    if analysis.findings.is_empty() {
        println!(
            "spade-lint: clean — 0 findings across {} files ({} sites suppressed by {} annotations)",
            analysis.files_analyzed,
            analysis.suppressed,
            analysis.allows.len()
        );
    } else {
        println!(
            "spade-lint: {} finding(s) ({} suppressed by annotations)",
            analysis.findings.len(),
            analysis.suppressed
        );
        std::process::exit(1);
    }
}
