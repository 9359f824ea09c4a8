//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-enlarged|sweep-sim|serve-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints what it measured, one metric per line with its unit, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes every span to
//! `perfbench/out/<workload>-<seed>.spans.tsv`.
//!
//! `--record-digests <from> <to>` prints the sweep workloads' export
//! digests for a seed range, the format of `reference_digests.txt`.

mod common;
mod fidelity;
mod replay;
mod stream;
mod sweep;
mod trace;

use common::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use sweep::Sweep;

const WORKLOADS: [&str; 3] = ["sweep-enlarged", "sweep-sim", "serve-stream"];

const END_TO_END: [&str; 6] = [
    "setup_s",
    "sweep_s",
    "peak_rss_mib",
    "req_p50_ms",
    "req_p99_ms",
    "frame_p99_ms",
];

/// Per-layer metrics of the result line: every one is measured on every
/// workload (counts of a layer a workload does not use read 0). Times of
/// layers only one workload uses are printed above the result line only.
const PER_LAYER: [&str; 47] = [
    "pointcloud.drive_ms",
    "pointcloud.frames",
    "pointcloud.active_pillars",
    "nn.exec_ms",
    "nn.exec_ms_per_frame",
    "nn.rules",
    "nn.macs",
    "nn.spconv_p.dilated",
    "nn.spconv_p.kept",
    "nn.spconv_p.keep_ratio",
    "nn.delta.frames_patched",
    "nn.delta.rows_swept",
    "nn.delta.rows_full_equivalent",
    "nn.delta.useful_ratio",
    "nn.delta.host_ratio",
    "nn.delta.modelled_speedup",
    "core.sim_ms",
    "baselines.sim_ms",
    "core.sim_calls",
    "baselines.sim_calls",
    "core.sim_us_per_call",
    "adaptive.cells_screened",
    "adaptive.cells_simulated",
    "adaptive.frames_saved",
    "adaptive.simulated_ratio",
    "dse.frontier_ms",
    "dse.export_ms",
    "dse.export_bytes",
    "dse.cells",
    "dse.frontier_cells",
    "dse.unattributed_ms",
    "serve.cache_hit_rate",
    "serve.sweeps_executed",
    "serve.dedup_joined",
    "serve.frames_served",
    "serve.errors",
    "trace.overhead_ms",
    "fidelity.spp2.savings_pct",
    "fidelity.spp2.he_speedup",
    "fidelity.spp2.he_energy_saving",
    "fidelity.spp2.le_speedup",
    "fidelity.spp2.le_energy_saving",
    "fidelity.scp3.savings_pct",
    "fidelity.scp3.he_speedup",
    "fidelity.scp3.he_energy_saving",
    "fidelity.scp3.le_speedup",
    "fidelity.scp3.le_energy_saving",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (mut out, tracer) = match args.workload.as_str() {
        "sweep-enlarged" => sweep::run(Sweep::Enlarged, args.seed, args.seconds, args.trace),
        "sweep-sim" => sweep::run(Sweep::Sim, args.seed, args.seconds, args.trace),
        _ => stream::run(args.seed, args.seconds, args.trace)
            .map_err(|e| format!("serve-stream set-up failed: {e}"))?,
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("error_rate", error_rate, "ratio");
    if !out.metrics.contains_key("slo_miss_ratio") {
        // Sweeps carry no latency limit: only failures miss.
        out.set("slo_miss_ratio", error_rate, "ratio");
    }
    if args.trace {
        fidelity::measure(&mut out);
        // `sweep` spans are the whole end-to-end call and `bench` spans the
        // replay's own glue; neither is a layer.
        let mut table = String::from("layer self time (ms):");
        let mut layers: Vec<(&str, f64)> = tracer
            .layer_self_ms()
            .into_iter()
            .filter(|(layer, _)| !matches!(*layer, "sweep" | "bench"))
            .collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (layer, ms) in layers {
            let _ = write!(table, " {layer}={ms:.3}");
        }
        out.note(table);
        let path = format!("perfbench/out/{}-{}.spans.tsv", args.workload, args.seed);
        match tracer.write_tsv(std::path::Path::new(&path)) {
            Ok(()) => out.note(format!("{} spans written to {path}", tracer.len())),
            Err(e) => return Err(format!("writing {path}: {e}")),
        }
    }
    Ok(out)
}

fn result_line(out: &Outcome, names: &[&str]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &name in names {
        let &(value, unit) = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.invalid.is_none(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-digests") {
        let range = (argv.get(1), argv.get(2));
        let (Some(Ok(from)), Some(Ok(to))) = (
            range.0.map(|s| s.parse::<u64>()),
            range.1.map(|s| s.parse::<u64>()),
        ) else {
            eprintln!("usage: --record-digests <from-seed> <to-seed>");
            return ExitCode::from(2);
        };
        for seed in from..=to {
            for sweep in [Sweep::Enlarged, Sweep::Sim] {
                println!("{}", sweep::record(sweep, seed));
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    if let Some(reason) = &out.invalid {
        println!("  INVALID RUN: {reason}");
    }
    for (name, (value, unit)) in &out.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&out, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
