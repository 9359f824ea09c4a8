//! `spade-lint` self-tests: every pass against its committed known-good /
//! known-bad fixture, plus the gate the repo actually relies on — the
//! current tree reports zero unannotated findings.

use spade_analysis::{analyze_files, analyze_tree, render_summary, Analysis, Pass};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Vec<String> {
    fixtures(&[name])
}

fn fixtures(names: &[&str]) -> Vec<String> {
    names
        .iter()
        .map(|name| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(name)
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

fn run(name: &str, pass: Pass) -> Analysis {
    analyze_files(&fixture(name), &pass).expect("fixture readable")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn bad_lock_fixture_reports_the_pr7_abba_cycle() {
    let analysis = run("lock_order_bad.rs", Pass::LockOrder);
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered
            .iter()
            .any(|f| f.contains("acquires 'state' while holding 'stream-entry'")),
        "inversion edge missing: {rendered:?}"
    );
    assert!(
        rendered
            .iter()
            .any(|f| f.contains("lock-order cycle: state → stream-entry → state")),
        "ABBA cycle missing: {rendered:?}"
    );
    assert!(
        rendered.iter().all(|f| f.contains("[lock-order]")),
        "unexpected non-lock findings: {rendered:?}"
    );
}

#[test]
fn good_lock_fixture_is_clean() {
    let analysis = run("lock_order_good.rs", Pass::LockOrder);
    assert!(
        analysis.findings.is_empty(),
        "false positives: {:?}",
        analysis.findings
    );
}

#[test]
fn bad_determinism_fixture_flags_hash_iteration_and_wall_clock() {
    let analysis = run("determinism_bad.rs", Pass::Determinism);
    let by_lint = |lint: &str| analysis.findings.iter().filter(|f| f.lint == lint).count();
    assert_eq!(by_lint("hash-iter"), 3, "{:?}", analysis.findings);
    assert_eq!(by_lint("wall-clock"), 2, "{:?}", analysis.findings);
    // Every finding carries its chain to the sink.
    assert!(
        analysis
            .findings
            .iter()
            .all(|f| f.message.contains("feeds `push_row`")),
        "{:?}",
        analysis.findings
    );
}

#[test]
fn taint_chain_crosses_files_with_at_least_two_hops() {
    let analysis = analyze_files(
        &fixtures(&["taint_chain_bad_a.rs", "taint_chain_bad_b.rs"]),
        &Pass::Determinism,
    )
    .expect("fixtures readable");
    assert_eq!(analysis.findings.len(), 1, "{:?}", analysis.findings);
    let f = &analysis.findings[0];
    assert!(f.file.ends_with("taint_chain_bad_b.rs"), "{f:?}");
    assert_eq!(f.lint, "hash-iter");
    // The chain walks out of file B, through file A's collector, into the
    // sink: `gather_values` → called by `collect_cells` → calls
    // `write_report` → feeds `push_row` — two call hops before the sink.
    for hop in [
        "`gather_values`",
        "called by `collect_cells`",
        "calls `write_report`",
        "feeds `push_row`",
    ] {
        assert!(f.message.contains(hop), "missing hop {hop}: {}", f.message);
    }
}

#[test]
fn good_determinism_fixture_is_clean_and_annotations_counted() {
    let analysis = run("determinism_good.rs", Pass::Determinism);
    assert!(
        analysis.findings.is_empty(),
        "false positives: {:?}",
        analysis.findings
    );
    assert_eq!(analysis.suppressed, 2);
    assert_eq!(analysis.allows.len(), 2);
}

#[test]
fn bad_panic_fixture_flags_only_the_reachable_sites() {
    let analysis = run("panics_bad.rs", Pass::Panics);
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.render()).collect();
    assert_eq!(rendered.len(), 2, "{rendered:?}");
    assert!(rendered.iter().any(|f| f.contains("`.unwrap()`")));
    assert!(rendered
        .iter()
        .any(|f| f.contains("`panic!`") && f.contains("handle_connection → parse")));
    assert!(
        !rendered.iter().any(|f| f.contains("build_server")),
        "setup-path unwrap must stay unflagged: {rendered:?}"
    );
}

#[test]
fn good_panic_fixture_is_clean() {
    let analysis = run("panics_good.rs", Pass::Panics);
    assert!(
        analysis.findings.is_empty(),
        "false positives: {:?}",
        analysis.findings
    );
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn json_rendering_escapes_payloads_and_reports_counts() {
    let analysis = run("determinism_bad.rs", Pass::Determinism);
    let json = spade_analysis::render_json(&analysis);
    assert!(json.contains("\"findings\": ["), "{json}");
    assert!(json.contains("\"lint\": \"hash-iter\""), "{json}");
    // Messages quote identifiers in backticks and call chains verbatim; the
    // escaper must keep the output a single well-formed JSON document
    // (no raw quotes or newlines inside string values).
    for line in json.lines() {
        let mut escaped = false;
        let mut in_str = false;
        for c in line.chars() {
            match c {
                '\\' if in_str => escaped = !escaped,
                '"' if !escaped => in_str = !in_str,
                _ => escaped = false,
            }
        }
        assert!(!in_str, "unterminated string in JSON line: {line}");
    }
    assert!(
        json.contains(&format!("\"files_analyzed\": {}", analysis.files_analyzed)),
        "{json}"
    );
}

#[test]
fn missing_listed_file_is_a_hard_error_not_a_silent_skip() {
    // A root whose `crates/` exists but holds none of the listed files must
    // refuse to run rather than quietly analyzing nothing.
    let empty = workspace_root().join("target/selftest-empty-ws");
    std::fs::create_dir_all(empty.join("crates")).expect("temp workspace creatable");
    let err = analyze_tree(&empty).expect_err("stale file lists must not pass silently");
    assert!(
        err.contains("missing from the workspace walk"),
        "wrong error: {err}"
    );
    assert!(
        err.contains("crates/bench/src/serve.rs"),
        "wrong error: {err}"
    );
}

#[test]
fn current_tree_has_zero_unannotated_findings() {
    let analysis = analyze_tree(&workspace_root()).expect("workspace sources readable");
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "lint findings in the tree: {rendered:#?}"
    );
    assert!(
        analysis.suppressed > 0,
        "suppression accounting broke: annotated sites exist in serve.rs"
    );
}

#[test]
fn summary_is_deterministic_and_matches_the_committed_allowlist() {
    let root = workspace_root();
    let first = render_summary(&analyze_tree(&root).unwrap());
    let second = render_summary(&analyze_tree(&root).unwrap());
    assert_eq!(first, second, "summary rendering must be deterministic");
    let committed = std::fs::read_to_string(root.join("crates/analysis/ALLOWLIST.md"))
        .expect("ALLOWLIST.md committed");
    assert_eq!(
        committed, first,
        "ALLOWLIST.md is stale; regenerate with \
         `cargo run -q -p spade-analysis --bin spade-lint -- --summary > crates/analysis/ALLOWLIST.md`"
    );
}
