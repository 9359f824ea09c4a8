//! Command-line contract of the `spade-lint` binary.

use std::path::Path;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spade-lint"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
        .args(args)
        .output()
        .expect("spawn spade-lint")
}

#[test]
fn pass_file_list_stops_at_the_next_flag() {
    // `--json` after the file list is an output flag, not a file to read.
    let out = lint(&["--determinism", "determinism_bad.rs", "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "findings exit 1: {stderr}");
    assert!(stdout.starts_with('{'), "JSON report expected: {stdout}");
    assert!(stdout.contains("\"lint\": \"hash-iter\""), "{stdout}");

    let out = lint(&["--lock-order", "lock_order_good.rs", "--summary"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# spade-lint allowlist"), "{stdout}");
}

#[test]
fn pass_flag_without_files_is_a_usage_error() {
    let out = lint(&["--panics", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("pass flags expect at least one file"),
        "{stderr}"
    );
}
