//! The Gather-Scatter Unit (GSU) and its Active Tile Manager (ATM).
//!
//! The ATM exploits the monotone progression of input and output indices in
//! CPR order: a contiguous range of input pillars maps onto a contiguous range
//! of output pillars, so loading one input tile and one output tile guarantees
//! full reuse — no cache, no refetches, and conflict-free single-bank output
//! updates (Sec. III-C).

/// Active-tile plan for one layer: how many active input pillars one tile
/// holds and how many tiles the layer needs. The data each tile moves is
/// not part of the plan: the ATM moves every element exactly once however
/// the layer is tiled ([`crate::LayerCounts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Active input pillars per tile.
    pub input_tile: usize,
    /// Number of input tiles.
    pub num_tiles: usize,
}

/// The Active Tile Manager.
#[derive(Debug, Clone, Copy)]
pub struct ActiveTileManager {
    buf_in_bytes: u64,
    buf_out_bytes: u64,
}

impl ActiveTileManager {
    /// Creates an ATM with the given input/output buffer capacities (KiB).
    #[must_use]
    pub fn new(buf_in_kib: u64, buf_out_kib: u64) -> Self {
        Self {
            buf_in_bytes: buf_in_kib * 1024,
            buf_out_bytes: buf_out_kib * 1024,
        }
    }

    /// Plans the active tiles of a layer from its workload counts.
    ///
    /// Inputs are int8 (`C` bytes per pillar); partial sums are int32
    /// (`4 × M` bytes per output pillar).
    #[must_use]
    pub fn plan_for_counts(
        &self,
        active_inputs: usize,
        active_outputs: usize,
        in_channels: usize,
        out_channels: usize,
    ) -> TilePlan {
        let a = active_inputs.max(1);
        let q = active_outputs.max(1);
        let c = in_channels.max(1) as u64;
        let m = out_channels.max(1) as u64;
        // Input-side limit: pillars that fit in the input buffer.
        let by_input = (self.buf_in_bytes / c).max(1) as usize;
        // Output-side limit: because indices progress together, an input tile
        // of T pillars touches roughly T·(Q/A) outputs.
        let outputs_per_input = q as f64 / a as f64;
        let by_output =
            (((self.buf_out_bytes / (4 * m)).max(1) as f64 / outputs_per_input.max(0.1)).floor()
                as usize)
                .max(1);
        let input_tile = by_input.min(by_output).min(a).max(1);
        TilePlan {
            input_tile,
            num_tiles: a.div_ceil(input_tile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layers_fit_in_one_tile() {
        let plan = ActiveTileManager::new(64, 128).plan_for_counts(100, 100, 64, 64);
        assert_eq!(plan.num_tiles, 1);
        assert_eq!(plan.input_tile, 100);
    }

    #[test]
    fn large_layers_are_tiled() {
        let plan = ActiveTileManager::new(16, 32).plan_for_counts(10_000, 10_000, 64, 64);
        assert!(plan.num_tiles > 1);
        assert!(plan.input_tile <= 16 * 1024 / 64);
        assert_eq!(plan.num_tiles, 10_000usize.div_ceil(plan.input_tile));
    }

    #[test]
    fn dilation_shrinks_the_tile() {
        // Twice the outputs per input fill the output buffer twice as fast.
        let atm = ActiveTileManager::new(64, 16);
        let plain = atm.plan_for_counts(1_000, 1_000, 64, 64);
        let dilated = atm.plan_for_counts(1_000, 2_000, 64, 64);
        assert!(dilated.input_tile < plain.input_tile);
        assert!(dilated.num_tiles >= plain.num_tiles);
    }
}
