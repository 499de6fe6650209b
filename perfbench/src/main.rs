//! The incgraph benchmark: three workloads through the engine's public
//! API, end-to-end metrics from an untraced run and per-layer metrics from
//! a traced one, every output audited.
//!
//! ```text
//! perfbench --workload <bulk_views|serve_mixed|window_undo> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the reproducibility record and every metric the run measured. A
//! failed audit prints `"correct": false` and exits with code 1.

mod bulk;
mod closed;
mod common;
mod serve;
mod undo;

use common::{Ctx, Outcome, Span};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The gated end-to-end metrics, measured on every workload by the
/// untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("units_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Views with per-view metrics, and those metrics.
const VIEWS: &[&str] = &["rpq", "scc", "kws", "iso", "rules"];
const VIEW_METRICS: &[(&str, &str)] = &[
    ("apply_ms", "ms"),
    ("share", "ratio"),
    ("work", "count"),
    ("aff", "count"),
    ("work_per_aff", "ratio"),
    ("inc_over_batch", "ratio"),
    ("build_s", "s"),
];

/// Per-layer metrics of the traced run (`--trace 1`), besides the
/// per-view ones. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.normalize_ms", "ms"),
    ("graph.apply_ms", "ms"),
    ("graph.dropped_frac", "ratio"),
    ("log.append_ms", "ms"),
    ("log.syncs_per_tick", "ratio"),
    ("log.bytes_per_unit", "B"),
    ("log.retries", "count"),
    ("engine.prepare_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.views_sum_ms", "ms"),
    ("engine.fanout_wall_ms", "ms"),
    ("engine.fanout_speedup", "ratio"),
    ("engine.critical_view_share", "ratio"),
    ("snapshot.pin_wait_us", "us"),
    ("snapshot.query_us", "us"),
    ("snapshot.cow_ms", "ms"),
    ("snapshot.cow_share", "ratio"),
    ("snapshot.publish_us", "us"),
    ("snapshot.window_max", "count"),
    ("ingest.wait_ms", "ms"),
    ("ingest.coalesced_mean", "count"),
    ("ingest.ticks_per_s", "1/s"),
    ("ingest.submit_us", "us"),
    ("ingest.shed", "count"),
    ("ingest.backlog_max", "count"),
    ("gen.late_p99_ms", "ms"),
    ("serve.max_rate_per_s", "1/s"),
    ("recover.total_s", "s"),
    ("recover.replay_s", "s"),
    ("recover.rebuild_s", "s"),
    ("rules.overdeleted", "count"),
    ("rules.rederived", "count"),
    ("rules.rederive_frac", "ratio"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.batch_sample_s", "s"),
];

pub const WORKLOADS: &[&str] = &["bulk_views", "serve_mixed", "window_undo"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value("--trace")? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload and return its outcome (audit failures included).
pub fn run_workload(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("workload", workload);
    out.note("seed", ctx.seed);
    out.note("seconds", ctx.seconds);
    out.note("traced", ctx.trace);
    out.note("smoke", ctx.smoke);
    out.note(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let steal0 = common::cpu_steal();
    match workload {
        "bulk_views" => {
            let mut sc = bulk::BulkViews::new(ctx);
            closed::run(ctx, &mut sc, &mut out)?;
            sc.record(&mut out);
        }
        "window_undo" => {
            let mut sc = undo::WindowUndo::new(ctx);
            closed::run(ctx, &mut sc, &mut out)?;
            sc.record(&mut out);
        }
        _ => serve::run(ctx, &mut out)?,
    }
    // Time the hypervisor ran something else on this machine's CPUs while
    // the run lasted: the main source of run-to-run noise on a shared box.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, common::cpu_steal()) {
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.note("cpu_steal_pct", format!("{pct:.2}"));
    }
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Every per-layer metric name with its unit, per-view ones included.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for view in VIEWS {
        for &(m, u) in VIEW_METRICS {
            v.push((format!("{view}.{m}"), u));
        }
    }
    v
}

fn json_metrics(out: &Outcome, names: &[(String, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Where run scratch and traces go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        scratch: Path::new(OUT_DIR).join(format!("run-{}", std::process::id())),
    };
    let result = run_workload(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    for (k, v) in &out.record {
        println!("record {k} = {v}");
    }
    for (k, v) in &out.metrics {
        println!("metric {k} = {v}");
    }
    if ctx.trace {
        match write_trace(&args.workload, &out.spans) {
            Ok(p) => println!("trace {} spans -> {}", out.spans.len(), p.display()),
            Err(e) => eprintln!("perfbench: writing the trace failed: {e}"),
        }
    }
    for f in &out.audit_failures {
        eprintln!("perfbench: AUDIT FAILED: {f}");
    }
    let names: Vec<(String, &str)> = if ctx.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = match json_metrics(&out, &names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = out.audit_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let ctx = Ctx {
            seed: 7,
            seconds: 0.3,
            trace,
            smoke: true,
            scratch: Path::new(OUT_DIR).join(format!("smoke-{workload}-{trace}")),
        };
        let out = run_workload(workload, &ctx).expect("smoke run completes");
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        assert!(out.audit_failures.is_empty(), "{:?}", out.audit_failures);
        assert_eq!(out.failed, 0);
        out
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric() {
        for w in WORKLOADS {
            let out = smoke(w, false);
            for (name, _) in END_TO_END {
                let v = out.metrics.get(*name).copied();
                assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
            }
        }
    }

    #[test]
    fn traced_runs_report_their_layers() {
        let bulk = smoke("bulk_views", true);
        assert_eq!(bulk.metrics["snapshot.cow_ms"], 0.0);
        assert!(bulk.metrics["rpq.apply_ms"] > 0.0);
        assert!(!bulk.spans.is_empty());
        let serve = smoke("serve_mixed", true);
        assert!(serve.metrics["snapshot.pin_wait_us"] > 0.0);
        assert!(serve.metrics["snapshot.cow_ms"] > 0.0);
        assert!(serve.metrics["ingest.coalesced_mean"] >= 1.0);
        let undo = smoke("window_undo", true);
        assert!(undo.metrics["scc.inc_over_batch"] > 0.0);
        assert!(undo.metrics.contains_key("rules.rederive_frac"));
    }
}
