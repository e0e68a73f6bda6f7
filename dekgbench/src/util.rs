//! Small measurement helpers shared by the workloads: order
//! statistics, the "tail" percentile rule, peak RSS and the trace-span
//! recorder the traced runs write out.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even
/// count). Empty input gives `NaN`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) of `values` with linear interpolation
/// between order statistics. Empty input gives `NaN`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Mean of the middle half of `values` (the quarter at each end
/// dropped). Empty input gives `NaN`.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The "tail" of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that leaves at least ten samples beyond it. Returns
/// `(percentile, value)`; with fewer than 40 samples the median is the
/// only honest tail and is returned as such.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = TAIL_LADDER.iter().copied().find(|p| n * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0);
    (p, percentile(values, p))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One closed span of a traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `kg.extract`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span in recording order, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for the traced runs: spans are pushed when
/// they open, closed in place, and only written out at the end, so the
/// recording itself costs two clock reads and a `Vec` push per span.
/// Single-threaded by design — every traced replay runs on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// When no span is open.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured span (used for server-side phases
    /// whose durations arrive in response headers).
    pub fn record(&mut self, name: &'static str, start: f64, end: f64, parent: Option<usize>) {
        self.spans.push(Span { name, start, end, parent });
    }

    /// Seconds since the recorder's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Index the next recorded span will get.
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Total inclusive seconds of all spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Stage coverage of the bracket spans called `root`: the share of
    /// their time spent inside direct children (the layer self-times
    /// sum to exactly this).
    pub fn coverage(&self, root: &str) -> f64 {
        let mut bracket = 0.0;
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            bracket += s.end - s.start;
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end - c.start)
                .sum::<f64>();
        }
        if bracket > 0.0 {
            covered / bracket
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// IO failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}
