//! Command-line contract of the `spade-experiments` binary.

use std::process::Command;

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_spade-experiments"))
        .args(["--reduced", "fig06c", "fig99"])
        .output()
        .expect("spawn spade-experiments");
    assert_eq!(out.status.code(), Some(2), "unknown ids must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id: fig99"), "{stderr}");
    // Rejected before anything runs: the valid id printed nothing.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
