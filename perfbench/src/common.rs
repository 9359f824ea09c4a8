//! Statistics, digests and result reporting shared by the workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linearly interpolated quantile (`q` in `[0, 1]`) of a sample set; the
/// same definition as numpy's default. `NaN` for an empty set.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `NaN` for an empty set. Host speed on a shared box
/// switches between a fast and a slow phase lasting seconds, so a run's
/// samples are bimodal: their median jumps to whichever phase held more
/// than half the run, while the mean moves in proportion to it.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that still has ten
/// beyond it (never below the median).
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    quantile(values, ((n - 10.0) / n).clamp(0.5, 0.99))
}

/// FNV-1a over a byte string: a stable digest for comparing exports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<S>(f: impl FnOnce() -> S) -> (S, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median set-up time over the run's own set-up (`first`, in seconds) and
/// `extra` repetitions, each dropped before the next starts. The
/// repetitions run after the timed window, so the memory they churn never
/// reaches the window's peak RSS.
pub fn setup_s<S>(first: f64, extra: usize, mut setup: impl FnMut() -> S) -> f64 {
    let mut times = vec![first];
    for _ in 0..extra {
        let (state, secs) = timed(&mut setup);
        drop(state);
        times.push(secs);
    }
    median(&times)
}

/// What one benchmark run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the run itself is invalid (e.g. a growing backlog), apart
    /// from per-operation failures.
    pub invalid: Option<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts a failed operation; the first failure's reason is printed.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failed == 1 {
            self.note(format!(
                "first failure (operation {}): {reason}",
                self.attempted
            ));
        }
    }
}
