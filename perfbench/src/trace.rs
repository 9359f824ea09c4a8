//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions; the program under test carries no tracing.
//! A span's name is `<layer>.<call>`, so a layer's self time is the summed
//! duration of its spans minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Operation (sweep or request) the span belongs to.
    req: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// same code path serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose children are the spans recorded until `exit`.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Appends another tracer's spans (e.g. a client thread's).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-span self time (duration minus the duration of direct children).
    fn self_ms(&self) -> Vec<f64> {
        let mut self_ms: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ms[p] -= span.ms();
            }
        }
        self_ms
    }

    /// Self time summed per layer (the span name up to its first `.`).
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ms) in self.spans.iter().zip(self.self_ms()) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *out.entry(layer).or_insert(0.0) += ms;
        }
        out
    }

    /// Total duration and call count per span name, per operation.
    pub fn per_req(&self) -> BTreeMap<u64, BTreeMap<&'static str, (f64, u64)>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, (f64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            let slot = out
                .entry(span.req)
                .or_default()
                .entry(span.name)
                .or_default();
            slot.0 += span.ms();
            slot.1 += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
