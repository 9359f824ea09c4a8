//! The input-output pillar ratio (IOPR) of a layer.

/// The input-output pillar ratio (IOPR) of a sparse convolution layer:
/// `output active pillars / input active pillars`.
///
/// IOPR > 1 indicates dilation (standard SpConv on sparse inputs), IOPR = 1
/// indicates submanifold behaviour, and IOPR < 1 indicates pruning or striding
/// (Fig. 2(d–f) of the paper).
#[must_use]
pub fn iopr(input_active: usize, output_active: usize) -> f64 {
    if input_active == 0 {
        if output_active == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        output_active as f64 / input_active as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iopr_edge_cases() {
        assert_eq!(iopr(0, 0), 1.0);
        assert!(iopr(0, 5).is_infinite());
        assert!((iopr(10, 20) - 2.0).abs() < 1e-12);
        assert!((iopr(20, 10) - 0.5).abs() < 1e-12);
    }
}
