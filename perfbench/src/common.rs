//! Pieces every workload shares: sample statistics, the metric sheet, the
//! in-memory span recorder and the seeded inputs.

use igc_graph::generator::random_update_batch;
use igc_graph::{DynamicGraph, NodeId, Update, UpdateBatch};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How one invocation of a workload is parameterised.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny graphs and few ticks, for the benchmark's own tests.
    pub smoke: bool,
    /// Directory this run may write to (journals, the trace file).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Scale a size for smoke mode: `full` normally, `smoke` when smoke.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured, by name (end-to-end and per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (commits, submissions, reads, recoveries).
    pub attempted: u64,
    /// Operations that failed, were shed or found no snapshot.
    pub failed: u64,
    /// Audit findings; empty when every output checked out.
    pub audit_failures: Vec<String>,
    /// The reproducibility record: settings the numbers depend on.
    pub record: Vec<(&'static str, String)>,
    /// The recorded spans (traced run only).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    /// Record an audit result; a failure fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.audit_failures.push(what());
        }
    }
}

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

/// A bag of samples in one unit.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Linearly interpolated quantile (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Durations in seconds, for the record.
pub fn list_s(ds: &[Duration]) -> String {
    let v: Vec<String> = ds
        .iter()
        .map(|d| format!("{:.4}", d.as_secs_f64()))
        .collect();
    v.join(" ")
}

/// Median of a few durations, in seconds.
pub fn median_s(ds: &[Duration]) -> f64 {
    let mut s = Samples::default();
    for d in ds {
        s.push(d.as_secs_f64());
    }
    s.p50()
}

/// Set-up time sampled before the measured phase (and as much again after
/// it): long enough that a burst of machine noise lasting a second or two
/// moves the median little.
pub const SETUP_TOTAL: Duration = Duration::from_secs(4);
/// Recovery time sampled after the run.
pub const RECOVER_TOTAL: Duration = Duration::from_secs(2);

/// Whether to repeat a set-up or recovery again: at least `MIN_REPS`
/// times, and more while the repeats so far took under `total`, so that
/// short ones are repeated enough for a steady median.
pub fn more_reps(done: &[Duration], total: Duration) -> bool {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 60;
    done.len() < MIN_REPS || (done.len() < MAX_REPS && done.iter().sum::<Duration>() < total)
}

/// Cumulative (steal, total) CPU time of the machine from `/proc/stat`,
/// in clock ticks; `None` where it cannot be read.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` is the id of the span
/// that caused it (0 = none); ids start at 1.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn span(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Balanced churn from the repository's generator: one
/// `random_update_batch` of `parts × units` updates against `mirror` (half
/// deletions of present edges, half insertions of absent ones, no edge
/// touched twice), applied to the mirror and split into `parts` batches
/// with the same balance. No edge is in two batches, so none of them
/// normalizes to less, whatever order they are applied in.
pub fn churn(mirror: &mut DynamicGraph, parts: usize, units: usize, seed: u64) -> Vec<UpdateBatch> {
    let all = random_update_batch(mirror, parts * units, 0.5, seed);
    mirror.apply_batch(&all);
    let (ins, del): (Vec<Update>, Vec<Update>) = all
        .iter()
        .copied()
        .partition(|u| matches!(u, Update::Insert { .. }));
    (0..parts)
        .map(|i| {
            let part = |v: &[Update]| -> Vec<Update> {
                v.iter().skip(i).step_by(parts).copied().collect()
            };
            UpdateBatch::from_updates([part(&del), part(&ins)].concat())
        })
        .collect()
}

/// Two distinct random nodes of a graph with `n >= 2` nodes: the key of a
/// point read.
pub fn read_pair(rng: &mut StdRng, n: usize) -> (NodeId, NodeId) {
    let u = rng.gen_range(0..n as u32);
    let mut v = rng.gen_range(0..n as u32 - 1);
    if v >= u {
        v += 1;
    }
    (NodeId(u), NodeId(v))
}

/// A fresh directory under the run's scratch space (wiped first).
pub fn fresh_dir(ctx: &Ctx, name: &str) -> Result<PathBuf, String> {
    let dir = ctx.scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
