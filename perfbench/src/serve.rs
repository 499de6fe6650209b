//! `serve_mixed`: open-loop writes and reads against an `IngestServer`
//! with a group-commit journal. Generator thread 1 sends 8-unit
//! submissions and point reads on fixed schedules and refreshes a report
//! pin; thread 2 awaits the tickets in order. Every request is timed from
//! the moment it was due.

use crate::bulk::{register_paper_views, PaperViews, PAPER_VIEWS};
use crate::closed::Recovery;
use crate::common::{
    churn, fresh_dir, list_s, median_s, more_reps, peak_rss_mb, read_pair, Ctx, Outcome, Samples,
    Span, Tracer, RECOVER_TOTAL, SETUP_TOTAL,
};
use igc_bench::workloads;
use igc_engine::{
    CommitReceipt, Engine, EngineError, IngestConfig, IngestReceipt, IngestServer, IngestTicket,
    Snapshot,
};
use igc_graph::generator::Dataset;
use igc_graph::{DynamicGraph, UpdateBatch};
use igc_log::{DurabilityMode, FileBackend, LogBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Graph scale (1.0 = 30k nodes, 280k edges).
pub const SCALE: f64 = 0.2;
/// Units per submission (balanced edge toggles).
pub const UNITS: usize = 8;
/// Submissions per second in the base phase (the end-to-end figures).
pub const BASE_RATE: f64 = 250.0;
/// Point reads per second, throughout.
pub const READ_RATE: f64 = 200.0;
/// How often the long-running report refreshes its pin. The tick after
/// each refresh copies the graph and the views, and those copies set the
/// write and read tails; at this period a run holds a few hundred of them,
/// so a p99 does not hang on the few slowest. The tick thread still keeps
/// most of its time free at the base and read rates.
pub const REFRESH: Duration = Duration::from_millis(100);
/// Share of the measured phase spent at the base rate; the rest climbs
/// the ladder.
pub const BASE_SHARE: f64 = 0.6;
/// How far past the end of the schedule a lagging generator may run.
pub const OVERRUN_GRACE_S: f64 = 5.0;
/// Submission rates of the ladder steps above the base rate.
pub const LADDER: &[f64] = &[1000.0, 2000.0, 4000.0, 8000.0];
/// A step is sustained only with its ack p99 under this limit…
pub const ACK_P99_LIMIT_MS: f64 = 100.0;
/// …and the generator's p99 lateness under this one.
pub const LATE_P99_LIMIT_MS: f64 = 50.0;

/// Submissions generated per call of the repository's update generator.
const CHURN_BLOCK: usize = 64;

/// Logged commits between graph checkpoints. Ticks here carry a few
/// submissions each, so the engine's default cadence (32) would write a
/// full graph snapshot about ten times a second.
pub const CHECKPOINT_EVERY: u64 = 1024;

fn durability() -> DurabilityMode {
    DurabilityMode::GroupCommit {
        max_batch: 8,
        max_delay: Duration::from_millis(5),
    }
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        // Sequential fan-out leaves nothing to overlap: pipelining would
        // only hold tick n's receipts until tick n+1 is journaled.
        pipeline: false,
        ..IngestConfig::default()
    }
}

/// A built serving engine: the engine, its journal and view handles, and
/// each view's build time.
type Built = (Engine, Arc<dyn LogBackend>, PaperViews, Vec<Duration>);

/// Graph + journal + views: what `setup_s` times.
fn build(scale: f64, dir: &std::path::Path) -> Result<Built, String> {
    let e = |e: EngineError| e.to_string();
    let g = workloads::dataset(Dataset::DbpediaLike, scale);
    let backend: Arc<dyn LogBackend> = Arc::new(FileBackend::new(dir).map_err(|e| e.to_string())?);
    let mut engine = Engine::new(g).with_log(Arc::clone(&backend)).map_err(e)?;
    engine.set_durability(durability()).map_err(e)?;
    engine.set_checkpoint_every(CHECKPOINT_EVERY);
    let (handles, builds) = register_paper_views(&mut engine).map_err(e)?;
    Ok((engine, backend, handles, builds))
}

/// The answers of every view in a snapshot, for the frozen-pin audit.
#[derive(PartialEq, Eq, Debug)]
struct Answers {
    epoch: u64,
    rpq: Vec<(igc_graph::NodeId, igc_graph::NodeId)>,
    scc: Vec<Vec<igc_graph::NodeId>>,
    kws: Vec<(igc_graph::NodeId, Vec<u32>)>,
    iso: Vec<igc_iso::MatchKey>,
}

fn answers(snap: &Snapshot, h: &PaperViews) -> Result<Answers, EngineError> {
    Ok(Answers {
        epoch: snap.epoch(),
        rpq: snap.view(&h.rpq)?.sorted_answer(),
        scc: snap.view(&h.scc)?.components(),
        kws: snap.view(&h.kws)?.answer_signature(),
        iso: snap.view(&h.iso)?.sorted_matches(),
    })
}

/// One phase of the schedule: submissions at `rate` from `start` to `end`
/// (offsets from the origin).
#[derive(Debug, Clone, Copy)]
struct Phase {
    rate: f64,
    start: f64,
    end: f64,
}

/// A submission on its way to thread 2.
struct Pending {
    idx: usize,
    ticket: IngestTicket,
}

/// What thread 1 saw of one submission.
#[derive(Debug, Clone, Copy)]
struct Sent {
    phase: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    accepted: bool,
}

/// What thread 2 saw of one accepted submission.
struct Acked {
    idx: usize,
    at: Instant,
    result: Result<IngestReceipt, EngineError>,
}

/// One point read.
#[derive(Debug, Clone, Copy)]
struct Read {
    phase: usize,
    due: Instant,
    pinned_at: Instant,
    pinned: Instant,
    queried: Instant,
    done: Instant,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let err = |e: EngineError| e.to_string();
    let scale = ctx.pick(SCALE, 0.02);
    let base_rate = ctx.pick(BASE_RATE, 200.0);

    // Set-up, several times; the last is measured.
    let mut setups = Vec::new();
    let mut built = None;
    while more_reps(&setups, SETUP_TOTAL) {
        let i = setups.len();
        drop(built.take());
        let dir = fresh_dir(ctx, &format!("wal-{i}"))?;
        let t = Instant::now();
        let b = build(scale, &dir)?;
        setups.push(t.elapsed());
        built = Some((b, dir));
        if i > 0 {
            let _ = std::fs::remove_dir_all(ctx.scratch.join(format!("wal-{}", i - 1)));
        }
    }
    let ((engine, backend, handles, builds), _dir) = built.expect("at least one set-up");
    for (name, b) in PAPER_VIEWS.iter().zip(&builds) {
        out.set(format!("{name}.build_s"), b.as_secs_f64());
    }
    out.note("scale", scale);
    out.note("nodes", engine.graph().node_count());
    out.note("edges", engine.graph().edge_count());
    out.note("commit_mode", format!("{:?}", engine.commit_mode()));
    out.note("durability", format!("{:?}", durability()));
    out.note(
        "flush_policy",
        "barrier when the tick loop parks on an empty queue",
    );
    out.note("ingest_config", format!("{:?}", ingest_config()));
    out.note("units_per_submission", UNITS);
    out.note("base_rate_per_s", base_rate);
    out.note("read_rate_per_s", READ_RATE);
    out.note("report_refresh_ms", REFRESH.as_millis());
    out.note("ladder_per_s", format!("{LADDER:?}"));
    out.note("ack_p99_limit_ms", ACK_P99_LIMIT_MS);
    out.note("late_p99_limit_ms", LATE_P99_LIMIT_MS);
    out.note("generator_threads", 2);

    // The schedule and every submission, generated before the clock runs.
    // The untraced run spends all its time at the base rate; the traced
    // run climbs the ladder after it.
    let base_end = if ctx.trace {
        ctx.seconds * BASE_SHARE
    } else {
        ctx.seconds
    };
    let step = (ctx.seconds - base_end) / LADDER.len() as f64;
    let mut phases = vec![Phase {
        rate: base_rate,
        start: 0.0,
        end: base_end,
    }];
    for (i, &rate) in LADDER.iter().enumerate().filter(|_| ctx.trace) {
        let start = base_end + i as f64 * step;
        phases.push(Phase {
            rate: ctx.pick(rate, rate * base_rate / BASE_RATE),
            start,
            end: start + step,
        });
    }
    let mut dues: Vec<(usize, f64)> = Vec::new();
    for (p, ph) in phases.iter().enumerate() {
        let n = ((ph.end - ph.start) * ph.rate).floor() as usize;
        dues.extend((0..n).map(|k| (p, ph.start + k as f64 / ph.rate)));
    }
    let mut mirror = engine.graph().clone();
    let batches: Vec<UpdateBatch> = (0..dues.len().div_ceil(CHURN_BLOCK))
        .flat_map(|b| churn(&mut mirror, CHURN_BLOCK, UNITS, ctx.seed << 32 | b as u64))
        .take(dues.len())
        .collect();
    drop(mirror);
    let node_count = engine.graph().node_count();
    let store = Arc::clone(engine.snapshot_store());

    let server = IngestServer::spawn_with(engine, ingest_config());
    let ingest = server.handle();

    // The long-held audit pin and the copy its answers must keep.
    let audit_pin = ingest.snapshot().map_err(err)?;
    let frozen = answers(&audit_pin, &handles).map_err(err)?;

    let origin = Instant::now() + Duration::from_millis(20);
    let at = |s: f64| origin + Duration::from_secs_f64(s);
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut sent: Vec<Sent> = Vec::with_capacity(dues.len());
    let mut reads: Vec<Read> = Vec::new();
    let mut read_failures: Vec<String> = Vec::new();
    let mut pinned_epochs: Vec<u64> = vec![audit_pin.epoch()];
    // Epochs whose point-read pin was still held when the next commit
    // began, so that commit copied too.
    let mut read_held: HashSet<u64> = HashSet::new();
    let mut shed = 0u64;
    let mut submit_errors: Vec<String> = Vec::new();
    let mut window_max = store.window();

    let acked: Vec<Acked> = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut acked = Vec::new();
            for p in rx {
                let result = p.ticket.wait();
                acked.push(Acked {
                    idx: p.idx,
                    at: Instant::now(),
                    result,
                });
            }
            acked
        });

        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5EAD);
        let mut report: Option<Snapshot> = None;
        let mut next_submit = 0usize;
        let mut next_read = 0u64;
        let mut next_refresh = 0u64;
        let read_every = 1.0 / READ_RATE;
        let refresh_every = REFRESH.as_secs_f64();
        let mut last_epoch = 0u64;
        loop {
            let submit_due = dues.get(next_submit).map(|&(_, d)| d);
            let read_due = next_read as f64 * read_every;
            let refresh_due = next_refresh as f64 * refresh_every;
            let due_s = submit_due
                .unwrap_or(f64::INFINITY)
                .min(read_due)
                .min(refresh_due);
            if due_s >= ctx.seconds {
                break;
            }
            // A generator this far behind schedule stops: what it has not
            // sent counts against its step.
            if Instant::now() > at(ctx.seconds + OVERRUN_GRACE_S) {
                break;
            }
            let due = at(due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let phase = phases.iter().rposition(|p| due_s >= p.start).unwrap_or(0);
            if submit_due == Some(due_s) {
                let idx = next_submit;
                next_submit += 1;
                let batch = batches[idx].clone();
                let t0 = Instant::now();
                let result = ingest.submit(batch);
                let t1 = Instant::now();
                let accepted = result.is_ok();
                match result {
                    Ok(ticket) => {
                        if tx.send(Pending { idx, ticket }).is_err() {
                            submit_errors.push("ticket waiter is gone".into());
                        }
                    }
                    Err(EngineError::Overloaded { .. }) => shed += 1,
                    Err(e) => submit_errors.push(e.to_string()),
                }
                sent.push(Sent {
                    phase: dues[idx].0,
                    due,
                    sent: t0,
                    submitted: t1,
                    accepted,
                });
            } else if read_due == due_s {
                next_read += 1;
                let t0 = Instant::now();
                let snap = match ingest.snapshot() {
                    Ok(s) => s,
                    Err(e) => {
                        read_failures.push(e.to_string());
                        continue;
                    }
                };
                let t1 = Instant::now();
                let (u, v) = read_pair(&mut rng, node_count);
                let hit = snap
                    .view(&handles.rpq)
                    .map(|r| r.contains_pair(u, v))
                    .and_then(|a| snap.view(&handles.scc).map(|c| a ^ c.same_scc(u, v)));
                let t2 = Instant::now();
                match hit {
                    Ok(h) => {
                        std::hint::black_box(h);
                    }
                    Err(e) => read_failures.push(e.to_string()),
                }
                if snap.epoch() < last_epoch {
                    read_failures.push(format!(
                        "read went back from epoch {last_epoch} to {}",
                        snap.epoch()
                    ));
                }
                last_epoch = snap.epoch();
                window_max = window_max.max(store.window());
                if store.head() > snap.epoch() {
                    read_held.insert(snap.epoch());
                }
                drop(snap);
                reads.push(Read {
                    phase,
                    due,
                    pinned_at: t0,
                    pinned: t1,
                    queried: t2,
                    done: Instant::now(),
                });
            } else {
                next_refresh += 1;
                match ingest.snapshot() {
                    Ok(s) => {
                        pinned_epochs.push(s.epoch());
                        report = Some(s);
                    }
                    Err(e) => read_failures.push(format!("report pin: {e}")),
                }
                window_max = window_max.max(store.window());
            }
        }
        drop(report);
        drop(tx);
        waiter.join().expect("ticket waiter thread")
    });
    let measured = origin.elapsed();

    // The frozen-pin audit, then the pins go.
    match answers(&audit_pin, &handles) {
        Ok(now) => out.check(now == frozen, || {
            format!(
                "audit pin at epoch {} no longer reads its answers",
                frozen.epoch
            )
        }),
        Err(e) => out.check(false, || format!("audit pin: {e}")),
    }
    drop(audit_pin);
    let engine = server.shutdown().map_err(err)?;

    // --- Accounting and audits ---------------------------------------
    let accepted = sent.iter().filter(|s| s.accepted).count();
    out.attempted += (sent.len() + reads.len() + read_failures.len()) as u64;
    out.failed += shed + submit_errors.len() as u64 + read_failures.len() as u64;
    for e in submit_errors.iter().chain(&read_failures).take(3) {
        out.check(false, || format!("operation failed: {e}"));
    }
    out.check(acked.len() == accepted, || {
        format!(
            "{accepted} submissions accepted, {} tickets resolved",
            acked.len()
        )
    });
    let mut seen = vec![false; sent.len()];
    let mut ticks: BTreeMap<u64, (Arc<CommitReceipt>, usize)> = BTreeMap::new();
    let mut tick_of = vec![None; sent.len()];
    let mut ack_at: Vec<Option<Instant>> = vec![None; sent.len()];
    for a in &acked {
        out.check(!seen[a.idx], || format!("ticket {} resolved twice", a.idx));
        seen[a.idx] = true;
        match &a.result {
            Ok(r) => {
                out.check(r.units == batches[a.idx].len(), || {
                    format!(
                        "ticket {} echoed {} units, sent {}",
                        a.idx,
                        r.units,
                        batches[a.idx].len()
                    )
                });
                ticks
                    .entry(r.epoch)
                    .or_insert_with(|| (Arc::clone(&r.commit), r.coalesced));
                tick_of[a.idx] = Some(r.epoch);
                ack_at[a.idx] = Some(a.at);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("ticket {}: {e}", a.idx));
            }
        }
    }
    if let Err(e) = engine.verify_all() {
        out.check(false, || format!("verify_all: {e}"));
    }

    // --- End-to-end ---------------------------------------------------
    let mut write = Samples::default();
    let mut read = Samples::default();
    for (i, s) in sent.iter().enumerate() {
        if s.phase == 0 {
            if let Some(a) = ack_at[i] {
                write.push_ms(a - s.due);
            }
        }
    }
    for r in reads.iter().filter(|r| r.phase == 0) {
        read.push_us(r.done - r.due);
    }
    out.set("write_p50_ms", write.p50());
    out.set("write_p99_ms", write.p99());
    out.set("read_p50_us", read.p50());
    out.set("read_p99_us", read.p99());
    out.note("write_samples", write.len());
    out.note("read_samples", read.len());
    let applied: u64 = ticks.values().map(|(c, _)| c.applied as u64).sum();
    let busy: Duration = ticks.values().map(|(c, _)| c.elapsed).sum();
    out.set(
        "units_per_s",
        applied as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    out.note("ticks", ticks.len());
    out.note("measured_s", format!("{:.3}", measured.as_secs_f64()));

    // --- The ladder ---------------------------------------------------
    let mut max_rate = 0.0f64;
    let mut backlog_max = 0usize;
    let mut events: Vec<(Instant, i32)> = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        if let Some(a) = ack_at[i] {
            events.push((s.submitted, 1));
            events.push((a, -1));
        }
    }
    events.sort_by_key(|&(t, d)| (t, d));
    let backlog_at = |t: Instant| -> i64 {
        events
            .iter()
            .take_while(|e| e.0 <= t)
            .map(|e| e.1 as i64)
            .sum()
    };
    {
        let mut level = 0i64;
        for e in &events {
            level += e.1 as i64;
            backlog_max = backlog_max.max(level as usize);
        }
    }
    let mut late_all = Samples::default();
    for (p, ph) in phases.iter().enumerate() {
        let mut ack = Samples::default();
        let mut late = Samples::default();
        let scheduled = dues.iter().filter(|d| d.0 == p).count();
        let mut missed = scheduled - sent.iter().filter(|s| s.phase == p).count();
        for (i, s) in sent.iter().enumerate().filter(|(_, s)| s.phase == p) {
            late.push_ms(s.sent - s.due);
            late_all.push_ms(s.sent - s.due);
            match ack_at[i] {
                Some(a) => ack.push_ms(a - s.due),
                None => missed += 1,
            }
        }
        let bound = (ph.rate * ACK_P99_LIMIT_MS / 1e3).ceil() as i64;
        let backlog_end = backlog_at(at(ph.end));
        let sustained = missed == 0
            && ack.len() > 0
            && ack.p99() <= ACK_P99_LIMIT_MS
            && late.p99() <= LATE_P99_LIMIT_MS
            && backlog_end <= bound;
        if sustained {
            max_rate = max_rate.max(ph.rate);
        }
        println!(
            "step rate={} ack_p25_ms={:.3} ack_p50_ms={:.3} ack_p75_ms={:.3} ack_p90_ms={:.3} ack_p99_ms={:.3} late_p99_ms={:.3} backlog_end={} missed={} sustained={}",
            ph.rate,
            ack.quantile(0.25),
            ack.p50(),
            ack.quantile(0.75),
            ack.quantile(0.9),
            ack.p99(),
            late.p99(),
            backlog_end,
            missed,
            sustained
        );
    }
    out.set("serve.max_rate_per_s", max_rate);
    out.set("ingest.backlog_max", backlog_max as f64);
    out.set("gen.late_p99_ms", late_all.p99());
    out.set("ingest.shed", shed as f64);

    // --- Per-layer (computed always, reported by the traced run) -------
    let n_ticks = ticks.len().max(1) as f64;
    let mut views_sum = Samples::default();
    let mut graph = Samples::default();
    let mut elapsed = Samples::default();
    let mut critical = Samples::default();
    let mut per_view: Vec<(Samples, u64)> = vec![(Samples::default(), 0); PAPER_VIEWS.len()];
    // Ticks right after a report or audit pin copy the graph and views;
    // ticks right after a point read that outlived a commit's start copy
    // too and are left out of the baseline.
    let cow_epochs: HashSet<u64> = pinned_epochs.iter().map(|e| e + 1).collect();
    let (mut cow_other, mut plain_other) = (Samples::default(), Samples::default());
    let mut submitted_units = 0u64;
    let mut dropped_units = 0u64;
    let mut retries = 0u64;
    let mut coalesced = Samples::default();
    for (&epoch, (c, k)) in &ticks {
        let vs: Duration = c.per_view.iter().map(|v| v.elapsed).sum();
        views_sum.push_ms(vs);
        graph.push_ms(c.graph_elapsed);
        elapsed.push_ms(c.elapsed);
        if let (Some(slow), false) = (c.slowest_view(), vs.is_zero()) {
            critical.push(slow.elapsed.as_secs_f64() / vs.as_secs_f64());
        }
        for (i, name) in PAPER_VIEWS.iter().enumerate() {
            if let Some(v) = c.per_view.iter().find(|v| &*v.label == *name) {
                per_view[i].0.push_ms(v.elapsed);
                per_view[i].1 += v.work.total();
            }
        }
        let other = c.elapsed.saturating_sub(vs);
        if cow_epochs.contains(&epoch) {
            cow_other.push_ms(other);
        } else if !read_held.contains(&epoch.wrapping_sub(1)) {
            plain_other.push_ms(other);
        }
        submitted_units += c.submitted as u64;
        dropped_units += c.dropped as u64;
        retries += c.log_retries;
        coalesced.push(*k as f64);
    }
    let publish_us = store.publish_elapsed().as_secs_f64() * 1e6 / n_ticks;
    let cow_ms = cow_other.p50() - plain_other.p50();
    out.note("cow_ticks", cow_other.len());
    out.note("plain_ticks", plain_other.len());
    out.set("graph.apply_ms", graph.mean());
    out.set(
        "graph.dropped_frac",
        dropped_units as f64 / submitted_units.max(1) as f64,
    );
    out.set("engine.views_sum_ms", views_sum.mean());
    out.set("engine.critical_view_share", critical.mean());
    out.set("snapshot.cow_ms", cow_ms);
    out.set(
        "snapshot.cow_share",
        cow_ms * cow_other.len() as f64 / elapsed.sum().max(f64::MIN_POSITIVE),
    );
    out.set("snapshot.publish_us", publish_us);
    out.set("snapshot.window_max", window_max as f64);
    let mut pin = Samples::default();
    let mut query = Samples::default();
    for r in &reads {
        pin.push_us(r.pinned - r.pinned_at);
        query.push_us(r.queried - r.pinned);
    }
    out.set("snapshot.pin_wait_us", pin.p99());
    out.set("snapshot.query_us", query.p50());
    let mut wait = Samples::default();
    let mut submit = Samples::default();
    for (i, s) in sent.iter().enumerate() {
        submit.push_us(s.submitted - s.sent);
        if let (Some(a), Some(e)) = (ack_at[i], tick_of[i]) {
            let commit = ticks[&e].0.elapsed;
            wait.push_ms((a - s.submitted).saturating_sub(commit));
        }
    }
    out.set("ingest.wait_ms", wait.mean());
    out.set("ingest.submit_us", submit.p50());
    out.set("ingest.coalesced_mean", coalesced.mean());
    out.set(
        "ingest.ticks_per_s",
        ticks.len() as f64 / measured.as_secs_f64(),
    );
    let views_total: f64 = per_view.iter().map(|(s, _)| s.sum()).sum();
    for (i, name) in PAPER_VIEWS.iter().enumerate() {
        let (s, work) = &per_view[i];
        out.set(format!("{name}.apply_ms"), s.mean());
        out.set(
            format!("{name}.share"),
            s.sum() / views_total.max(f64::MIN_POSITIVE),
        );
        out.set(format!("{name}.work"), *work as f64 / n_ticks);
    }
    if let Some(log) = engine.log() {
        out.set("log.syncs_per_tick", log.syncs() as f64 / n_ticks);
        let bytes = log.bytes().map_err(|e| e.to_string())?;
        out.set("log.bytes_per_unit", bytes as f64 / applied.max(1) as f64);
        out.note("log_deltas", log.deltas());
        out.note("log_checkpoints", log.checkpoints());
    }
    out.set("log.retries", retries as f64);

    let mut spans = Vec::new();
    let mut extra = Duration::ZERO;
    if ctx.trace {
        let t = Instant::now();
        let ticks_in_order: Vec<(u64, Vec<usize>)> = group_ticks(&tick_of);
        let twin = replay_twin(ctx, scale, &ticks_in_order, &batches)?;
        out.check(twin.edges == engine.graph().sorted_edges(), || {
            "re-driving the run's ticks gave another graph".into()
        });
        out.set("graph.normalize_ms", twin.normalize.mean());
        out.set("log.append_ms", twin.append.mean());
        out.set("engine.prepare_ms", twin.prepare.mean());
        let apply = elapsed.mean() - twin.prepare.mean();
        out.set("engine.apply_ms", apply);
        let fanout = apply - graph.mean() - publish_us / 1e3;
        out.set("engine.fanout_wall_ms", fanout);
        out.set(
            "engine.fanout_speedup",
            views_sum.mean() / fanout.max(f64::MIN_POSITIVE),
        );
        spans = request_spans(origin, &sent, &ack_at, &reads);
        extra = t.elapsed();
    }
    out.set(
        "trace.overhead_pct",
        100.0 * extra.as_secs_f64() / measured.as_secs_f64(),
    );

    // --- Recovery -------------------------------------------------------
    let expected = engine.graph().clone();
    drop(engine);
    let mut recovery = Recovery::default();
    let reregister = |e: &mut Engine| register_paper_views(e).map(|_| ());
    while more_reps(recovery.reps(), RECOVER_TOTAL) {
        recovery.rep(&backend, &reregister, &expected, out)?;
    }
    recovery.finish(out);

    // As many set-ups again after the run, so that `setup_s` samples both
    // ends of it.
    let before = setups.len();
    while setups.len() < 2 * before {
        let dir = fresh_dir(ctx, "wal-after")?;
        let t = Instant::now();
        let rebuilt = build(scale, &dir)?;
        setups.push(t.elapsed());
        drop(rebuilt);
    }
    out.set("setup_s", median_s(&setups));
    out.note("setups_s", list_s(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.spans = spans;
    Ok(())
}

/// Accepted submissions grouped by the tick (epoch) that carried them,
/// in epoch order, each group in submission order.
fn group_ticks(tick_of: &[Option<u64>]) -> Vec<(u64, Vec<usize>)> {
    let mut by: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, t) in tick_of.iter().enumerate() {
        if let Some(e) = t {
            by.entry(*e).or_default().push(i);
        }
    }
    by.into_iter().collect()
}

struct Twin {
    normalize: Samples,
    prepare: Samples,
    append: Samples,
    edges: Vec<igc_graph::Edge>,
}

/// Re-drive the run's ticks, coalesced exactly as the server did, through
/// `normalize_against` and `Engine::prepare` / `apply_prepared` on a
/// view-less twin with the same journal settings: the graph and log
/// layers timed call by call, off the serving path.
fn replay_twin(
    ctx: &Ctx,
    scale: f64,
    ticks: &[(u64, Vec<usize>)],
    batches: &[UpdateBatch],
) -> Result<Twin, String> {
    let e = |e: EngineError| e.to_string();
    let dir = fresh_dir(ctx, "twin")?;
    let g: DynamicGraph = workloads::dataset(Dataset::DbpediaLike, scale);
    let backend: Arc<dyn LogBackend> = Arc::new(FileBackend::new(&dir).map_err(|e| e.to_string())?);
    let mut twin = Engine::new(g).with_log(backend).map_err(e)?;
    twin.set_durability(durability()).map_err(e)?;
    twin.set_checkpoint_every(CHECKPOINT_EVERY);
    let mut out = Twin {
        normalize: Samples::default(),
        prepare: Samples::default(),
        append: Samples::default(),
        edges: Vec::new(),
    };
    for (_, subs) in ticks {
        let mega = UpdateBatch::from_updates(
            subs.iter()
                .flat_map(|&i| batches[i].iter().copied())
                .collect(),
        );
        let t0 = Instant::now();
        std::hint::black_box(mega.normalize_against(twin.graph()));
        let t1 = Instant::now();
        let prepared = twin.prepare(&mega).map_err(e)?;
        let t2 = Instant::now();
        twin.apply_prepared(prepared, None).map_err(e)?;
        out.normalize.push_ms(t1 - t0);
        out.prepare.push_ms(t2 - t1);
        out.append.push_ms((t2 - t1).saturating_sub(t1 - t0));
    }
    twin.sync_log().map_err(e)?;
    out.edges = twin.graph().sorted_edges();
    drop(twin);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Spans of every request and read, built from the timestamps the run
/// took anyway: the request is the parent, its phases the children.
fn request_spans(
    origin: Instant,
    sent: &[Sent],
    ack_at: &[Option<Instant>],
    reads: &[Read],
) -> Vec<Span> {
    let mut tr = Tracer::new(true, origin);
    for (i, s) in sent.iter().enumerate() {
        let end = ack_at[i].unwrap_or(s.submitted);
        let parent = tr.span("request", 0, s.due, end);
        tr.span("gen.late", parent, s.due, s.sent);
        tr.span("ingest.submit", parent, s.sent, s.submitted);
        if let Some(a) = ack_at[i] {
            tr.span("ingest.ticket_wait", parent, s.submitted, a);
        }
    }
    for r in reads {
        let parent = tr.span("read", 0, r.due, r.done);
        tr.span("gen.late", parent, r.due, r.pinned_at);
        tr.span("snapshot.pin", parent, r.pinned_at, r.pinned);
        tr.span("snapshot.query", parent, r.pinned, r.queried);
        tr.span("snapshot.release", parent, r.queried, r.done);
    }
    tr.into_spans()
}
