//! Model-fidelity counts: the modelled quantities the paper publishes.
//!
//! For SPP2 and SCP3 on one fixed full-scale frame: computation savings
//! over the dense network, and the speedup and energy saving of SPADE.HE
//! and SPADE.LE over DenseAcc at the same configuration. They are pure
//! functions of the fixed inputs, so they repeat exactly between runs.
//! The repository holds no hardware measurement, so no error figure is
//! given.

use crate::common::Outcome;
use spade_baselines::DenseAccelerator;
use spade_bench::workload::{model_run, simulate_on, WorkloadScale};
use spade_core::{SpadeAccelerator, SpadeConfig};
use spade_nn::ModelKind;

/// The frame seed of the repository's Fig. 10 comparison.
const FRAME_SEED: u64 = 61;

const LABEL: &str = "unvalidated model: no hardware reference in repo";

/// Published ranges: computation savings (%), speedup and energy saving
/// over DenseAcc (×).
const PAPER_SAVINGS_PCT: (f64, f64) = (36.3, 89.2);
const PAPER_SPEEDUP: (f64, f64) = (1.9, 10.1);
const PAPER_ENERGY: (f64, f64) = (2.2, 5.7);

pub fn measure(out: &mut Outcome) {
    out.note(format!("model fidelity ({LABEL}); paper ranges: savings {:.1}-{:.1}%, speedup {:.1}-{:.1}x, energy saving {:.1}-{:.1}x",
        PAPER_SAVINGS_PCT.0, PAPER_SAVINGS_PCT.1, PAPER_SPEEDUP.0, PAPER_SPEEDUP.1, PAPER_ENERGY.0, PAPER_ENERGY.1));
    for (kind, tag) in [(ModelKind::Spp2, "spp2"), (ModelKind::Scp3, "scp3")] {
        let run = model_run(kind, FRAME_SEED, WorkloadScale::Full);
        let savings = run.trace.computation_savings() * 100.0;
        out.set(format!("fidelity.{tag}.savings_pct"), savings, "%");
        let mut line = format!("  {}: savings {savings:.1}%", kind.name());
        for (cfg_tag, cfg) in [
            ("he", SpadeConfig::high_end()),
            ("le", SpadeConfig::low_end()),
        ] {
            let spade = simulate_on(&SpadeAccelerator::new(cfg), &run);
            let dense = simulate_on(&DenseAccelerator::new(cfg), &run);
            let speedup = dense.total_cycles as f64 / spade.total_cycles.max(1) as f64;
            let energy = dense.energy.total_pj() / spade.energy.total_pj().max(1e-9);
            out.set(format!("fidelity.{tag}.{cfg_tag}_speedup"), speedup, "x");
            out.set(
                format!("fidelity.{tag}.{cfg_tag}_energy_saving"),
                energy,
                "x",
            );
            line.push_str(&format!(
                ", SPADE.{} speedup {speedup:.2}x energy saving {energy:.2}x",
                cfg_tag.to_uppercase()
            ));
        }
        out.note(line);
    }
}
