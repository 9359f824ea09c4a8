//! Design-space exploration walkthrough: compare the legacy i.i.d. drive
//! against a scripted persistent scenario (frame-to-frame object
//! persistence, stopped-traffic / crossing-wave events), print how occupancy
//! and temporal locality evolve, then sweep the hardware grid against the
//! scripted drive and extract the latency/energy/area Pareto frontier. The
//! sweep fans out across every available core; the result is bit-identical
//! to a serial run.
//!
//! ```text
//! cargo run --release --example dse_explorer
//! ```
//!
//! For the full default sweep with an explicit worker count and CSV/JSON
//! export, use the binary instead: `cargo run --release -p spade-bench --bin
//! spade-experiments -- dse --jobs 4 --scenario stop-and-go --csv pareto.csv`.

use spade::pointcloud::{DatasetPreset, DriveScenario, NamedScenario};
use spade_bench::dse::{run_dse_on_pool, DseParams, SweepAxes};
use spade_bench::{default_jobs, WorkerPool, WorkloadScale};

fn print_drive(name: &str, frames: &[spade::pointcloud::DriveFrame]) {
    println!("{name}:");
    for f in frames {
        let events = if f.active_events.is_empty() {
            String::new()
        } else {
            format!(" [{}]", f.active_events.join(", "))
        };
        let overlap = f
            .pillar_overlap
            .map_or_else(|| "    -".to_owned(), |o| format!("{o:.3}"));
        println!(
            "  frame {} | density {:.2}x | {:>6} points | {:>5} active pillars | overlap {}{}",
            f.index,
            f.density_factor,
            f.frame.num_points,
            f.frame.pillars.num_active(),
            overlap,
            events,
        );
    }
    println!(
        "  mean consecutive-frame pillar overlap: {:.3}",
        DriveScenario::mean_overlap_of(frames)
    );
}

fn main() {
    // 1. The workload axis. The i.i.d. baseline resamples the whole scene
    //    every frame; the scripted stop-and-go scenario evolves one
    //    persistent world, so consecutive frames share most active pillars.
    let preset = DatasetPreset::kitti_like();
    let baseline = DriveScenario::named(preset.clone(), NamedScenario::Constant, 6, 2024);
    print_drive("Legacy i.i.d. drive (constant density)", &baseline.frames());
    let scripted = DriveScenario::named(preset, NamedScenario::StopAndGo, 6, 2024);
    print_drive(
        "\nScripted stop-and-go drive (persistent world)",
        &scripted.frames(),
    );

    // 2. The hardware axes, crossed with the scripted drive. The reduced
    //    scale keeps this example snappy; the `dse` experiment runs the
    //    paper-scale grid.
    let mut params = DseParams::default_for(WorkloadScale::Reduced);
    params.axes = SweepAxes::paper_neighbourhood();
    params.scenario = Some(NamedScenario::StopAndGo);
    params.num_frames = 6;
    let jobs = default_jobs();
    println!(
        "\nSweeping {} configurations across {} worker threads...",
        params.axes.expand_configs().len(),
        jobs,
    );
    let result = run_dse_on_pool(&params, &WorkerPool::new(jobs));
    println!("\n{}", result.summary());
}
