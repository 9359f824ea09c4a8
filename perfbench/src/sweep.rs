//! The two sweep workloads: `sweep-enlarged` (full-scale drive, enlarged
//! grid, adaptive exploration) and `sweep-sim` (reduced-scale drive,
//! enlarged grid, exhaustive exploration).
//!
//! One operation is one `run_dse_on_pool` call on a one-wide pool followed
//! by its CSV export, which is what a `spade-experiments dse --csv` caller
//! waits for. Every export is checked against the digest recorded for the
//! seed (`reference_digests.txt`) and against the set-up sweep; on the
//! adaptive workload the frontier rows are also checked against an
//! exhaustive sweep run during set-up.

use crate::common::{fnv1a, mean, median, ms, peak_rss_mib, setup_s, tail, timed, Outcome};
use crate::replay::{replay, Counts};
use crate::trace::Tracer;
use spade_bench::dse::{DseParams, DseResult, SweepAxes};
use spade_bench::workload::WorkloadScale;
use spade_bench::{run_dse_on_pool, WorkerPool};
use spade_nn::ModelKind;
use std::time::{Duration, Instant};

/// Digests of the CSV export per `(workload, seed)`, recorded from the
/// program before any optimisation; see `--record-digests`.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed operations per run, whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Most traced operations per run: the replay records a span per call,
/// tens of thousands per sweep on the exhaustive grid.
const MAX_TRACED_OPS: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Enlarged,
    Sim,
}

impl Sweep {
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Enlarged => "sweep-enlarged",
            Sweep::Sim => "sweep-sim",
        }
    }

    /// The sweep the workload runs for `seed`: SPP2 and SCP3 over the
    /// enlarged grid, with the seed as the drive's base seed.
    pub fn params(self, seed: u64) -> DseParams {
        let (scale, adaptive) = match self {
            Sweep::Enlarged => (WorkloadScale::Full, true),
            Sweep::Sim => (WorkloadScale::Reduced, false),
        };
        DseParams {
            axes: SweepAxes::enlarged(),
            models: vec![ModelKind::Spp2, ModelKind::Scp3],
            adaptive,
            base_seed: seed,
            ..DseParams::default_for(scale)
        }
    }
}

fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// The frontier cells of a result, exported with the legacy column set so
/// an adaptive and an exhaustive sweep can be compared row for row.
fn frontier_csv(result: &DseResult) -> String {
    DseResult {
        cells: result.frontier().into_iter().cloned().collect(),
        adaptive: false,
        ..result.clone()
    }
    .to_csv()
}

struct Setup {
    pool: WorkerPool,
    digest: u64,
    exhaustive_frontier: Option<String>,
}

/// Pool, warm-up sweep (fills the thread-local execution arena and gives
/// the run's own reference export) and, for adaptive sweeps, the
/// exhaustive frontier.
fn set_up(params: &DseParams) -> Setup {
    let pool = WorkerPool::new(1);
    let warm = run_dse_on_pool(params, &pool);
    let exhaustive_frontier = params.adaptive.then(|| {
        let exhaustive = DseParams {
            adaptive: false,
            ..params.clone()
        };
        frontier_csv(&run_dse_on_pool(&exhaustive, &pool))
    });
    Setup {
        pool,
        digest: fnv1a(warm.to_csv().as_bytes()),
        exhaustive_frontier,
    }
}

/// Checks one sweep's export; returns a failure reason.
fn check(setup: &Setup, expected: u64, result: &DseResult, csv: &str) -> Option<String> {
    let digest = fnv1a(csv.as_bytes());
    if digest != expected || digest != setup.digest {
        return Some(format!(
            "CSV digest {digest:016x} != reference {expected:016x}"
        ));
    }
    if let Some(exhaustive) = &setup.exhaustive_frontier {
        if frontier_csv(result) != *exhaustive {
            return Some("adaptive frontier differs from the exhaustive frontier".to_owned());
        }
    }
    None
}

/// Prints the digest line `--record-digests` writes for one seed.
pub fn record(sweep: Sweep, seed: u64) -> String {
    let result = run_dse_on_pool(&sweep.params(seed), &WorkerPool::new(1));
    format!(
        "{} {seed} {:016x}",
        sweep.name(),
        fnv1a(result.to_csv().as_bytes())
    )
}

pub fn run(sweep: Sweep, seed: u64, seconds: f64, traced: bool) -> (Outcome, Tracer) {
    let params = sweep.params(seed);
    let mut out = Outcome::default();
    let (setup, first_setup_s) = timed(|| set_up(&params));
    let expected = match recorded_digest(sweep.name(), seed) {
        Some(d) => {
            if d != setup.digest {
                out.note(format!(
                    "set-up export digest {:016x} differs from the recorded {d:016x}",
                    setup.digest
                ));
            }
            d
        }
        None => {
            out.note(format!(
                "no recorded digest for seed {seed}: exports are checked against the set-up sweep only"
            ));
            setup.digest
        }
    };
    let frames_per_op = (params.num_frames.max(1) * params.models.len()) as f64;
    let start = Instant::now();
    let mut tr = Tracer::new(traced);
    // A traced run first traces a few operations (at most two thirds of
    // the time), then spends the rest on the untraced baseline the tracing
    // overhead is measured against.
    let mut counts = Counts::default();
    let mut last: Option<DseResult> = None;
    let mut export_bytes = 0usize;
    let traced_deadline = start + Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let mut req = 0u64;
    while traced
        && (req < MIN_OPS as u64 || (req < MAX_TRACED_OPS && Instant::now() < traced_deadline))
    {
        let result = tr.span("sweep.run_dse_on_pool", req, || {
            run_dse_on_pool(&params, &setup.pool)
        });
        let csv = tr.span("dse.to_csv", req, || result.to_csv());
        let json = tr.span("dse.to_json", req, || result.to_json());
        export_bytes = csv.len() + json.len();
        out.attempted += 1;
        if let Some(reason) = check(&setup, expected, &result, &csv) {
            out.fail(reason);
        }
        tr.enter("bench.replay", req);
        counts = replay(&params, &result, &mut tr, req);
        tr.exit();
        last = Some(result);
        req += 1;
    }

    let mut sweep_ms = Vec::new();
    let mut req_ms = Vec::new();
    let deadline = start + Duration::from_secs_f64(seconds);
    while sweep_ms.len() < MIN_OPS || Instant::now() < deadline {
        let t0 = Instant::now();
        let result = run_dse_on_pool(&params, &setup.pool);
        let t1 = Instant::now();
        let csv = result.to_csv();
        let t2 = Instant::now();
        out.attempted += 1;
        if let Some(reason) = check(&setup, expected, &result, &csv) {
            out.fail(reason);
        }
        sweep_ms.push(ms(t1 - t0));
        req_ms.push(ms(t2 - t0));
    }

    out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    if !traced {
        // The adaptive set-up includes an exhaustive sweep: fewer repetitions.
        let reps = if params.adaptive { 3 } else { SETUP_REPS };
        out.set(
            "setup_s",
            setup_s(first_setup_s, reps - 1, || set_up(&params)),
            "s",
        );
        let frame_ms: Vec<f64> = req_ms.iter().map(|t| t / frames_per_op).collect();
        out.set("sweep_s", mean(&sweep_ms) / 1e3, "s");
        out.set("req_p50_ms", median(&req_ms), "ms");
        out.set("req_p99_ms", tail(&req_ms), "ms");
        out.set("frame_p99_ms", tail(&frame_ms), "ms");
        out.note(format!(
            "{} sweeps timed; a request is one sweep plus its CSV export, a frame is one of its {frames_per_op} drive frames; p99 figures are the highest percentile with ten samples beyond it",
            sweep_ms.len()
        ));
        return (out, tr);
    }

    let result = last.expect("at least one traced sweep ran");
    if !counts.worklist_matches {
        out.note(
            "replayed work-list does not match the sweep's cells; layer attribution is approximate",
        );
    }

    let per_req = tr.per_req();
    let series = |pred: &dyn Fn(&str) -> bool| -> Vec<f64> {
        per_req
            .values()
            .map(|names| {
                names
                    .iter()
                    .filter(|(n, _)| pred(n))
                    .map(|(_, (ms, _))| ms)
                    .sum()
            })
            .collect()
    };
    let run_ms = series(&|n| n == "sweep.run_dse_on_pool");
    let attributed = series(&|n| {
        [
            "pointcloud.",
            "nn.",
            "core.",
            "baselines.",
            "adaptive.",
            "dse.pareto",
        ]
        .iter()
        .any(|p| n.starts_with(p))
    });
    let unattributed: Vec<f64> = run_ms.iter().zip(&attributed).map(|(r, a)| r - a).collect();
    let drive = median(&series(&|n| n.starts_with("pointcloud.")));
    let exec = median(&series(&|n| n.starts_with("nn.")));
    let core = median(&series(&|n| n.starts_with("core.")));
    let base = median(&series(&|n| n.starts_with("baselines.")));
    out.set("pointcloud.drive_ms", drive, "ms");
    out.set("pointcloud.frames", counts.frames as f64, "count");
    out.set(
        "pointcloud.active_pillars",
        counts.active_pillars as f64,
        "count",
    );
    out.set("nn.exec_ms", exec, "ms");
    out.set("nn.exec_ms_per_frame", exec / frames_per_op, "ms");
    set_exec_counts(&mut out, &counts);
    out.set("core.sim_ms", core, "ms");
    out.set("baselines.sim_ms", base, "ms");
    out.set("core.sim_calls", counts.core_calls as f64, "count");
    out.set("baselines.sim_calls", counts.baseline_calls as f64, "count");
    out.set(
        "core.sim_us_per_call",
        core * 1e3 / counts.core_calls.max(1) as f64,
        "us",
    );
    out.set(
        "adaptive.bound_ms",
        median(&series(&|n| n.starts_with("adaptive."))),
        "ms",
    );
    set_result_counts(&mut out, &[&result]);
    out.set(
        "dse.frontier_ms",
        median(&series(&|n| n == "dse.pareto_frontier")),
        "ms",
    );
    out.set(
        "dse.export_ms",
        median(&series(&|n| n == "dse.to_csv" || n == "dse.to_json")),
        "ms",
    );
    out.set("dse.export_bytes", export_bytes as f64, "bytes");
    out.set("dse.unattributed_ms", median(&unattributed), "ms");
    out.set(
        "trace.overhead_ms",
        median(&run_ms) - median(&sweep_ms),
        "ms",
    );
    set_idle_serve_counts(&mut out);
    out.note(format!(
        "traced {} sweeps, then {} untraced; tracing overhead = traced minus untraced median sweep time",
        run_ms.len(),
        sweep_ms.len()
    ));
    (out, tr)
}

/// Pattern-execution counts shared by every workload's traced run.
pub fn set_exec_counts(out: &mut Outcome, c: &Counts) {
    out.set("nn.rules", c.rules as f64, "count");
    out.set("nn.macs", c.macs as f64, "count");
    out.set("nn.spconv_p.dilated", c.spconv_p_dilated as f64, "count");
    out.set("nn.spconv_p.kept", c.spconv_p_kept as f64, "count");
    out.set(
        "nn.spconv_p.keep_ratio",
        c.spconv_p_kept as f64 / c.spconv_p_dilated.max(1) as f64,
        "ratio",
    );
}

/// Exploration and export counts summed over sweep results.
pub fn set_result_counts(out: &mut Outcome, results: &[&DseResult]) {
    let sum = |f: &dyn Fn(&DseResult) -> usize| results.iter().map(|r| f(r)).sum::<usize>() as f64;
    let cells = sum(&|r| r.cells.len());
    let simulated = sum(&|r| r.cells_simulated);
    out.set(
        "adaptive.cells_screened",
        sum(&|r| r.cells_screened),
        "count",
    );
    out.set("adaptive.cells_simulated", simulated, "count");
    out.set("adaptive.frames_saved", sum(&|r| r.frames_saved), "count");
    out.set(
        "adaptive.simulated_ratio",
        simulated / cells.max(1.0),
        "ratio",
    );
    out.set("dse.cells", cells, "count");
    out.set("dse.frontier_cells", sum(&|r| r.frontier().len()), "count");
}

/// The sweep workloads neither stream frames nor serve requests: their
/// delta and service counters are zero.
fn set_idle_serve_counts(out: &mut Outcome) {
    for name in [
        "nn.delta.frames_patched",
        "nn.delta.rows_swept",
        "nn.delta.rows_full_equivalent",
        "serve.sweeps_executed",
        "serve.dedup_joined",
        "serve.frames_served",
        "serve.errors",
    ] {
        out.set(name, 0.0, "count");
    }
    for name in [
        "nn.delta.useful_ratio",
        "nn.delta.host_ratio",
        "nn.delta.modelled_speedup",
        "serve.cache_hit_rate",
    ] {
        out.set(name, 0.0, "ratio");
    }
}
