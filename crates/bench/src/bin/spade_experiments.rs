//! Regenerates every table and figure of the paper's evaluation, plus the
//! design-space exploration sweep.
//!
//! Usage:
//!
//! ```text
//! spade-experiments              # run every experiment at full scale
//! spade-experiments table1 fig09 # run selected experiments
//! spade-experiments --reduced    # quarter-scale grids (fast smoke run)
//!
//! # DSE-specific flags (only meaningful with the `dse` experiment):
//! spade-experiments dse --jobs 4                    # sweep on 4 worker threads
//! spade-experiments dse --frames 8 --drive-seed 7   # reshape the drive
//! spade-experiments dse --scenario stop-and-go      # scripted persistent drive
//! spade-experiments dse --scenario urban --delta    # temporal delta execution
//! spade-experiments dse --csv pareto.csv            # export the grid as CSV
//! spade-experiments dse --json pareto.json          # ... or as JSON
//! spade-experiments dse --enlarged --adaptive       # 91x grid, screened sweep
//! ```
//!
//! `--jobs` defaults to the machine's available parallelism; the sweep
//! result is bit-identical for every worker count. `--scenario` selects a
//! scripted drive (`constant | urban | stop-and-go | tunnel`); without it
//! the sweep runs the legacy i.i.d. density-ramp drive. `--delta` executes
//! each drive through the temporal delta path (the same sweeps, plus a count
//! of the rows SPADE's RGU would re-sweep from frame to frame; byte-identical
//! results, adds the `frames_delta_executed` / `delta_speedup` export columns);
//! `--no-delta` restores the full-sweep default. `--enlarged` crosses the
//! grid with the buffer-split × banking axes (~91× more configurations);
//! `--adaptive` explores the grid via roofline screening + successive
//! halving (identical Pareto frontier, a fraction of the simulations; adds
//! the `simulated` / `cells_screened` / `cells_simulated` / `frames_saved`
//! export columns) and `--exhaustive` restores the simulate-everything
//! default.

use spade_bench::dse::{DseParams, SweepAxes};
use spade_bench::experiments::all_experiment_ids;
use spade_bench::{default_jobs, run_dse_on_pool, run_experiment, WorkerPool, WorkloadScale};
use spade_pointcloud::NamedScenario;

struct Cli {
    scale: WorkloadScale,
    ids: Vec<String>,
    jobs: Option<usize>,
    frames: Option<usize>,
    drive_seed: Option<u64>,
    scenario: Option<NamedScenario>,
    delta: Option<bool>,
    adaptive: Option<bool>,
    enlarged: bool,
    csv_path: Option<String>,
    json_path: Option<String>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} expects a value")))
}

fn int_value_of<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let raw = value_of(it, flag);
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects an integer, got '{raw}'")))
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        scale: WorkloadScale::Full,
        ids: Vec::new(),
        jobs: None,
        frames: None,
        drive_seed: None,
        scenario: None,
        delta: None,
        adaptive: None,
        enlarged: false,
        csv_path: None,
        json_path: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reduced" => cli.scale = WorkloadScale::Reduced,
            // 0 is accepted and clamped to 1 by the worker pool.
            "--jobs" => cli.jobs = Some(int_value_of(&mut it, "--jobs")),
            "--frames" => {
                let frames: usize = int_value_of(&mut it, "--frames");
                if frames == 0 {
                    usage_error("--frames expects a positive integer");
                }
                cli.frames = Some(frames);
            }
            "--drive-seed" => cli.drive_seed = Some(int_value_of(&mut it, "--drive-seed")),
            "--scenario" => {
                let raw = value_of(&mut it, "--scenario");
                let scenario = NamedScenario::parse(&raw).unwrap_or_else(|| {
                    let names: Vec<&str> = NamedScenario::ALL.iter().map(|s| s.name()).collect();
                    usage_error(&format!(
                        "--scenario expects one of {}, got '{raw}'",
                        names.join(" | ")
                    ))
                });
                cli.scenario = Some(scenario);
            }
            "--delta" => cli.delta = Some(true),
            "--no-delta" => cli.delta = Some(false),
            "--adaptive" => cli.adaptive = Some(true),
            "--exhaustive" => cli.adaptive = Some(false),
            "--enlarged" => cli.enlarged = true,
            "--csv" => cli.csv_path = Some(value_of(&mut it, "--csv")),
            "--json" => cli.json_path = Some(value_of(&mut it, "--json")),
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown flag: {flag}"));
            }
            id if all_experiment_ids().contains(&id) => cli.ids.push(id.to_owned()),
            id => usage_error(&format!(
                "unknown experiment id: {id} (expected one of {})",
                all_experiment_ids().join(" | ")
            )),
        }
    }
    cli
}

fn run_dse_with(cli: &Cli) {
    let mut params = DseParams::default_for(cli.scale);
    if cli.enlarged {
        params.axes = SweepAxes::enlarged();
    }
    if let Some(frames) = cli.frames {
        params.num_frames = frames;
    }
    if let Some(seed) = cli.drive_seed {
        params.base_seed = seed;
    }
    params.scenario = cli.scenario;
    if let Some(delta) = cli.delta {
        params.delta = delta;
    }
    if let Some(adaptive) = cli.adaptive {
        params.adaptive = adaptive;
    }
    // The pool clamps 0 to 1 internally; clamp here too so the banner below
    // reports the worker count that actually runs.
    let jobs = cli.jobs.unwrap_or_else(default_jobs).max(1);
    let result = run_dse_on_pool(&params, &WorkerPool::new(jobs));
    let drive = match cli.scenario {
        Some(s) => format!("{s} scenario"),
        None => "legacy i.i.d. drive".to_owned(),
    };
    let exec = if params.delta {
        ", delta execution"
    } else {
        ""
    };
    let explore = if params.adaptive {
        ", adaptive exploration"
    } else {
        ""
    };
    println!(
        "\n=== dse ({jobs} worker threads, {drive}{exec}{explore}) ===\n{}",
        result.summary()
    );
    if let Some(path) = &cli.csv_path {
        std::fs::write(path, result.to_csv()).expect("failed to write CSV");
        println!("wrote {} cells to {path}", result.cells.len());
    }
    if let Some(path) = &cli.json_path {
        std::fs::write(path, result.to_json()).expect("failed to write JSON");
        println!("wrote {} cells to {path}", result.cells.len());
    }
}

fn main() {
    let cli = parse_cli();
    let ids: Vec<String> = if cli.ids.is_empty() {
        all_experiment_ids().into_iter().map(String::from).collect()
    } else {
        cli.ids.clone()
    };
    for id in &ids {
        // `dse` takes the drive/export flags, so it runs through its own path.
        if id == "dse" {
            run_dse_with(&cli);
            continue;
        }
        // `parse_cli` rejected unknown ids, so every id here runs.
        if let Some(out) = run_experiment(id, cli.scale) {
            println!("\n=== {id} ===\n{out}");
        }
    }
}
