//! The closed loop shared by `bulk_views` and `window_undo`: one
//! caller thread commits a batch, waits for the receipt, reads, and only
//! then sends the next batch.

use crate::common::{
    fresh_dir, list_s, median_s, more_reps, peak_rss_mb, Ctx, Outcome, Samples, Tracer,
    RECOVER_TOTAL, SETUP_TOTAL,
};
use igc_engine::{Engine, EngineError, Snapshot};
use igc_graph::{DynamicGraph, NodeId, UpdateBatch};
use igc_log::{FileBackend, LogBackend};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point reads issued after every commit.
pub const READS_PER_COMMIT: usize = 16;
/// Share of the measured phase the traced run may spend re-running the
/// views' batch algorithms for `*.inc_over_batch`.
pub const BATCH_SAMPLE_SHARE: f64 = 0.25;

/// What one point read saw: the epoch it pinned, its key and the two
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointRead {
    pub epoch: u64,
    pub key: (NodeId, NodeId),
    pub answer: (bool, bool),
}

/// One closed-loop workload: how to build it and what to feed, read and
/// audit. `run` owns timing, tracing and the metric sheet.
pub trait Scenario {
    /// View labels, in registration order.
    fn views(&self) -> &'static [&'static str];
    /// Build the graph, the engine and every view, and bring the stream to
    /// its steady state (this is `setup_s`); returns each view's build
    /// time.
    fn build(&mut self, ctx: &Ctx) -> Result<(Engine, Vec<Duration>), EngineError>;
    /// Prepare the update stream for the engine that will be measured
    /// (after set-up, not timed).
    fn start(&mut self, _engine: &Engine) {}
    /// The next batch of the stream.
    fn next_batch(&mut self) -> UpdateBatch;
    /// One point read on a pinned snapshot (timed).
    fn query(&mut self, snap: &Snapshot) -> Result<PointRead, EngineError>;
    /// The same lookups on the live engine, for the audit (untimed).
    fn live(&self, engine: &Engine, key: (NodeId, NodeId)) -> Result<(bool, bool), EngineError>;
    /// `|AFF|` of the last commit, per view (0 where a view has no
    /// change metrics).
    fn affected(&mut self, engine: &Engine) -> Vec<u64>;
    /// Time the view's batch algorithm on the current graph.
    fn batch_time(&self, engine: &Engine, view: usize) -> Duration;
    /// Workload-specific counters after a traced commit.
    fn after_commit(&mut self, _engine: &Engine) {}
    /// Workload-specific per-layer metrics at the end of the traced run.
    fn finish(&self, _out: &mut Outcome) {}
    /// Final audits beyond `verify_all`.
    fn audit(&self, engine: &Engine, out: &mut Outcome);
    /// Re-register every view lazily (recovery).
    fn reregister(&self, engine: &mut Engine) -> Result<(), EngineError>;
}

/// Per-view accumulators of the traced run.
#[derive(Default)]
struct ViewAcc {
    apply: Samples,
    work: u64,
    aff: u64,
    ratio: Samples,
    build: Duration,
}

/// Per-commit accumulators of the traced run.
#[derive(Default)]
struct Layers {
    normalize: Samples,
    prepare: Samples,
    apply: Samples,
    graph: Samples,
    publish: Samples,
    views_sum: Samples,
    fanout_wall: Samples,
    critical: Samples,
    overhead: Duration,
    submitted: u64,
    dropped: u64,
}

pub fn run(ctx: &Ctx, sc: &mut dyn Scenario, out: &mut Outcome) -> Result<(), String> {
    let err = |e: EngineError| e.to_string();
    let names = sc.views();

    // Set-up, several times; the last engine is the one measured.
    let mut setups = Vec::new();
    let mut built: Option<(Engine, Vec<Duration>)> = None;
    while more_reps(&setups, SETUP_TOTAL) {
        drop(built.take());
        let t = Instant::now();
        let b = sc.build(ctx).map_err(err)?;
        setups.push(t.elapsed());
        built = Some(b);
    }
    let (mut engine, builds) = built.expect("at least one set-up");
    sc.start(&engine);
    out.note("nodes", engine.graph().node_count());
    out.note("edges", engine.graph().edge_count());
    out.note("commit_mode", format!("{:?}", engine.commit_mode()));

    let store = Arc::clone(engine.snapshot_store());
    let origin = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, origin);
    let mut accs: Vec<ViewAcc> = builds
        .iter()
        .map(|&build| ViewAcc {
            build,
            ..ViewAcc::default()
        })
        .collect();
    let mut lay = Layers::default();
    let mut writes = Samples::default();
    let mut reads = Samples::default();
    let mut pin_wait = Samples::default();
    let mut query = Samples::default();
    let mut commit_time = Duration::ZERO;
    let mut applied = 0u64;
    let mut sampling = Duration::ZERO;
    let mut window_max = store.window();
    let budget = Duration::from_secs_f64(ctx.seconds);

    let mut commits = 0u64;
    while origin.elapsed() < budget || commits == 0 {
        let batch = sc.next_batch();
        out.attempted += 1;
        let receipt = if ctx.trace {
            let t0 = Instant::now();
            let normalized = batch.normalize_against(engine.graph());
            let t1 = Instant::now();
            let prepared = engine.prepare(&batch).map_err(err)?;
            let t2 = Instant::now();
            let publish0 = store.publish_elapsed();
            let (receipt, _) = engine.apply_prepared(prepared, None).map_err(err)?;
            let t3 = Instant::now();
            let publish = store.publish_elapsed().saturating_sub(publish0);
            let parent = tracer.span("commit", 0, t0, t3);
            tracer.span("graph.normalize", parent, t0, t1);
            tracer.span("engine.prepare", parent, t1, t2);
            tracer.span("engine.apply", parent, t2, t3);
            std::hint::black_box(normalized);
            let views: Duration = receipt.per_view.iter().map(|v| v.elapsed).sum();
            let slowest = receipt.slowest_view().map_or(Duration::ZERO, |v| v.elapsed);
            lay.normalize.push_ms(t1 - t0);
            lay.prepare.push_ms(t2 - t1);
            lay.apply.push_ms(t3 - t2);
            lay.graph.push_ms(receipt.graph_elapsed);
            lay.publish.push_us(publish);
            lay.views_sum.push_ms(views);
            lay.fanout_wall
                .push_ms((t3 - t2).saturating_sub(receipt.graph_elapsed + publish));
            if !views.is_zero() {
                lay.critical
                    .push(slowest.as_secs_f64() / views.as_secs_f64());
            }
            lay.submitted += receipt.submitted as u64;
            lay.dropped += receipt.dropped as u64;
            let aff = sc.affected(&engine);
            for (i, acc) in accs.iter_mut().enumerate() {
                if let Some(v) = receipt.per_view.iter().find(|v| &*v.label == names[i]) {
                    acc.apply.push_ms(v.elapsed);
                    acc.work += v.work.total();
                    tracer.span(names[i], parent, t2, t2 + v.elapsed);
                }
                acc.aff += aff[i];
            }
            sc.after_commit(&engine);
            let booked = Instant::now();
            // Every commit that fits the sampling budget is followed by
            // one run of each view's batch algorithm on the same graph.
            if sampling.as_secs_f64() < BATCH_SAMPLE_SHARE * origin.elapsed().as_secs_f64() {
                let s0 = Instant::now();
                for (i, acc) in accs.iter_mut().enumerate() {
                    let batch_t = sc.batch_time(&engine, i);
                    if let (Some(v), false) = (
                        receipt.per_view.iter().find(|v| &*v.label == names[i]),
                        batch_t.is_zero(),
                    ) {
                        acc.ratio
                            .push(v.elapsed.as_secs_f64() / batch_t.as_secs_f64());
                    }
                }
                sampling += s0.elapsed();
            }
            // Work the untraced run does not do: the separate normalize
            // call and the bookkeeping above (batch samples excluded).
            lay.overhead += (t1 - t0) + (booked - t3);
            writes.push_ms(t3 - t1);
            commit_time += t3 - t1;
            receipt
        } else {
            let t0 = Instant::now();
            let receipt = engine.commit(&batch).map_err(err)?;
            let d = t0.elapsed();
            writes.push_ms(d);
            commit_time += d;
            receipt
        };
        commits += 1;
        applied += receipt.applied as u64;
        window_max = window_max.max(store.window());

        for _ in 0..READS_PER_COMMIT {
            out.attempted += 1;
            let t0 = Instant::now();
            let snap = match engine.snapshot() {
                Ok(s) => s,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("snapshot after commit: {e}"));
                    continue;
                }
            };
            let t1 = Instant::now();
            let read = sc.query(&snap);
            let t2 = Instant::now();
            window_max = window_max.max(store.window());
            drop(snap);
            let t3 = Instant::now();
            reads.push_us(t3 - t0);
            pin_wait.push_us(t1 - t0);
            query.push_us(t2 - t1);
            // The audit: the live views at the same epoch agree.
            let checked = read.and_then(|r| {
                let live = sc.live(&engine, r.key)?;
                Ok((r, live))
            });
            match checked {
                Ok((r, live)) => out.check(r.answer == live && r.epoch == engine.epoch(), || {
                    format!("snapshot read {r:?} differs from the live views {live:?}")
                }),
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("point read: {e}"));
                }
            }
        }
    }
    let measured = origin.elapsed();
    out.note("commits", commits);
    out.note("reads", reads.len());

    out.set("write_p50_ms", writes.p50());
    out.set("write_p99_ms", writes.p99());
    out.set("units_per_s", applied as f64 / commit_time.as_secs_f64());
    out.set("read_p50_us", reads.p50());
    out.set("read_p99_us", reads.p99());
    out.note("write_samples", writes.len());
    out.note("read_samples", reads.len());

    // Per-layer sheet (traced run).
    if ctx.trace {
        let n = commits.max(1) as f64;
        out.set("graph.normalize_ms", lay.normalize.mean());
        out.set("graph.apply_ms", lay.graph.mean());
        out.set(
            "graph.dropped_frac",
            lay.dropped as f64 / lay.submitted.max(1) as f64,
        );
        out.set("engine.prepare_ms", lay.prepare.mean());
        out.set("engine.apply_ms", lay.apply.mean());
        out.set("engine.views_sum_ms", lay.views_sum.mean());
        out.set("engine.fanout_wall_ms", lay.fanout_wall.mean());
        out.set(
            "engine.fanout_speedup",
            lay.views_sum.sum() / lay.fanout_wall.sum().max(f64::MIN_POSITIVE),
        );
        out.set("engine.critical_view_share", lay.critical.mean());
        out.set("snapshot.pin_wait_us", pin_wait.p99());
        out.set("snapshot.query_us", query.p50());
        // No pin outlives a commit here, so no commit copies anything.
        out.set("snapshot.cow_ms", 0.0);
        out.set("snapshot.cow_share", 0.0);
        out.set("snapshot.publish_us", lay.publish.mean());
        out.set("snapshot.window_max", window_max as f64);
        let views_total: f64 = accs.iter().map(|a| a.apply.sum()).sum();
        for (i, acc) in accs.iter().enumerate() {
            let key = |m: &str| format!("{}.{m}", names[i]);
            out.set(key("apply_ms"), acc.apply.mean());
            out.set(
                key("share"),
                acc.apply.sum() / views_total.max(f64::MIN_POSITIVE),
            );
            out.set(key("work"), acc.work as f64 / n);
            out.set(key("aff"), acc.aff as f64 / n);
            out.set(key("work_per_aff"), acc.work as f64 / acc.aff.max(1) as f64);
            out.set(key("inc_over_batch"), acc.ratio.p50());
            out.set(key("build_s"), acc.build.as_secs_f64());
        }
        out.set(
            "trace.overhead_pct",
            100.0 * lay.overhead.as_secs_f64() / commit_time.as_secs_f64(),
        );
        out.set("trace.batch_sample_s", sampling.as_secs_f64());
        out.note("batch_samples", accs.first().map_or(0, |a| a.ratio.len()));
        sc.finish(out);
    }
    out.note("measured_s", format!("{:.3}", measured.as_secs_f64()));

    // Audits (untimed).
    if let Err(e) = engine.verify_all() {
        out.check(false, || format!("verify_all: {e}"));
    }
    sc.audit(&engine, out);

    // Recovery: journal a checkpoint of the final graph, drop the engine,
    // bring it back.
    let expected = engine.graph().clone();
    drop(engine);
    let dir = fresh_dir(ctx, "recover")?;
    let backend: Arc<dyn LogBackend> = Arc::new(FileBackend::new(&dir).map_err(|e| e.to_string())?);
    drop(
        Engine::new(expected.clone())
            .with_log(Arc::clone(&backend))
            .map_err(err)?,
    );
    let mut recovery = Recovery::default();
    while more_reps(recovery.reps(), RECOVER_TOTAL) {
        recovery.rep(&backend, &|e: &mut Engine| sc.reregister(e), &expected, out)?;
    }
    recovery.finish(out);
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);

    // As many set-ups again after the run, so that `setup_s` samples both
    // ends of it.
    let before = setups.len();
    while setups.len() < 2 * before {
        let t = Instant::now();
        let rebuilt = sc.build(ctx).map_err(err)?;
        setups.push(t.elapsed());
        drop(rebuilt);
    }
    out.set("setup_s", median_s(&setups));
    out.note("setups_s", list_s(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.spans = tracer.into_spans();
    Ok(())
}

/// Timed recoveries: each one is `Engine::recover` on a journal plus lazy
/// re-registration of every view; `recover.total_s` is their median. The first
/// recovered engine is audited against the graph it must reproduce.
#[derive(Default)]
pub struct Recovery {
    totals: Vec<Duration>,
    replays: Vec<Duration>,
    rebuilds: Vec<Duration>,
}

impl Recovery {
    pub fn rep(
        &mut self,
        backend: &Arc<dyn LogBackend>,
        reregister: &dyn Fn(&mut Engine) -> Result<(), EngineError>,
        expected: &DynamicGraph,
        out: &mut Outcome,
    ) -> Result<(), String> {
        out.attempted += 1;
        let t0 = Instant::now();
        let mut engine = Engine::recover(Arc::clone(backend)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        reregister(&mut engine).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        if self.totals.is_empty() {
            out.check(
                engine.epoch() == expected.epoch()
                    && engine.graph().sorted_edges() == expected.sorted_edges(),
                || format!("recovered graph differs at epoch {}", engine.epoch()),
            );
            if let Err(e) = engine.verify_all() {
                out.check(false, || format!("recovered views: {e}"));
            }
        }
        self.totals.push(t2 - t0);
        self.replays.push(t1 - t0);
        self.rebuilds.push(t2 - t1);
        Ok(())
    }

    pub fn reps(&self) -> &[Duration] {
        &self.totals
    }

    pub fn finish(&self, out: &mut Outcome) {
        out.set("recover.total_s", median_s(&self.totals));
        out.note("recoveries_s", list_s(&self.totals));
        out.set("recover.replay_s", median_s(&self.replays));
        out.set("recover.rebuild_s", median_s(&self.rebuilds));
    }
}
