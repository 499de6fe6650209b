//! `bulk_views`: balanced random churn on the DBpedia-like graph, the four
//! paper views fanned out over two pool threads. The view algorithms do
//! almost all the work.

use crate::closed::{PointRead, Scenario};
use crate::common::{churn, read_pair, Ctx, Outcome};
use igc_bench::workloads::{self, default_iso, default_kws, default_rpq};
use igc_core::work::WorkStats;
use igc_engine::{CommitMode, Engine, EngineError, Snapshot, ViewHandle};
use igc_graph::generator::Dataset;
use igc_graph::{DynamicGraph, NodeId, UpdateBatch};
use igc_iso::IncIso;
use igc_kws::IncKws;
use igc_nfa::build_nfa;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Graph scale (1.0 = 30k nodes, 280k edges).
pub const SCALE: f64 = 0.4;
/// Batch size as a share of `|E|`.
pub const BATCH_FRAC: f64 = 0.005;
/// Fan-out pool threads.
pub const THREADS: usize = 2;

/// Handles of the four paper views, as registered by [`register_paper_views`].
pub struct PaperViews {
    pub rpq: ViewHandle<IncRpq>,
    pub scc: ViewHandle<IncScc>,
    pub kws: ViewHandle<IncKws>,
    pub iso: ViewHandle<IncIso>,
}

/// Labels of the four paper views, in registration order.
pub const PAPER_VIEWS: [&str; 4] = ["rpq", "scc", "kws", "iso"];

pub struct BulkViews {
    seed: u64,
    scale: f64,
    units: usize,
    /// What the engine's graph must be: every generated batch applied.
    mirror: DynamicGraph,
    batches: u64,
    handles: Option<PaperViews>,
    reads: StdRng,
}

impl BulkViews {
    pub fn new(ctx: &Ctx) -> Self {
        BulkViews {
            seed: ctx.seed,
            scale: ctx.pick(SCALE, 0.02),
            units: 0,
            mirror: DynamicGraph::new(),
            batches: 0,
            handles: None,
            reads: StdRng::seed_from_u64(ctx.seed ^ 0x5EAD),
        }
    }

    fn h(&self) -> &PaperViews {
        self.handles.as_ref().expect("built before use")
    }

    pub fn record(&self, out: &mut Outcome) {
        out.note("scale", self.scale);
        out.note("batch_units", self.units);
        out.note("rho_insert", 0.5);
        out.note("pool_threads", THREADS);
        out.note("durability", "no log");
    }
}

/// Register the four paper views with their default queries lazily,
/// timing each build.
pub fn register_paper_views(
    engine: &mut Engine,
) -> Result<(PaperViews, Vec<Duration>), EngineError> {
    let mut builds = Vec::new();
    let t = Instant::now();
    let rpq = engine.register_lazy("rpq", IncRpq::init(rpq_query()))?;
    builds.push(t.elapsed());
    let t = Instant::now();
    let scc = engine.register_lazy("scc", IncScc::init())?;
    builds.push(t.elapsed());
    let t = Instant::now();
    let kws = engine.register_lazy("kws", IncKws::init(default_kws()))?;
    builds.push(t.elapsed());
    let t = Instant::now();
    let iso = engine.register_lazy("iso", IncIso::init(default_iso()))?;
    builds.push(t.elapsed());
    Ok((PaperViews { rpq, scc, kws, iso }, builds))
}

fn rpq_query() -> igc_nfa::Regex {
    default_rpq(Dataset::DbpediaLike.alphabet())
}

impl Scenario for BulkViews {
    fn views(&self) -> &'static [&'static str] {
        &PAPER_VIEWS
    }

    fn build(&mut self, _ctx: &Ctx) -> Result<(Engine, Vec<Duration>), EngineError> {
        let g = workloads::dataset(Dataset::DbpediaLike, self.scale);
        let mut engine = Engine::new(g);
        engine.set_commit_mode(CommitMode::Parallel { threads: THREADS });
        let (handles, builds) = register_paper_views(&mut engine)?;
        self.handles = Some(handles);
        Ok((engine, builds))
    }

    fn start(&mut self, engine: &Engine) {
        self.units = ((engine.graph().edge_count() as f64 * BATCH_FRAC).round() as usize).max(2);
        self.mirror = engine.graph().clone();
    }

    fn next_batch(&mut self) -> UpdateBatch {
        self.batches += 1;
        let seed = self.seed << 32 | self.batches;
        let mut b = churn(&mut self.mirror, 1, self.units, seed);
        b.pop().expect("one batch")
    }

    fn query(&mut self, snap: &Snapshot) -> Result<PointRead, EngineError> {
        let (u, v) = read_pair(&mut self.reads, snap.graph().node_count());
        let h = self.h();
        Ok(PointRead {
            epoch: snap.epoch(),
            key: (u, v),
            answer: (
                snap.view(&h.rpq)?.contains_pair(u, v),
                snap.view(&h.scc)?.same_scc(u, v),
            ),
        })
    }

    fn live(&self, engine: &Engine, (u, v): (NodeId, NodeId)) -> Result<(bool, bool), EngineError> {
        let h = self.h();
        Ok((
            engine.view(&h.rpq)?.contains_pair(u, v),
            engine.view(&h.scc)?.same_scc(u, v),
        ))
    }

    fn affected(&mut self, engine: &Engine) -> Vec<u64> {
        let h = self.h();
        let aff =
            |m: Result<igc_core::work::ChangeMetrics, EngineError>| m.map_or(0, |m| m.affected);
        vec![
            aff(engine.view(&h.rpq).map(|v| v.last_metrics())),
            aff(engine.view(&h.scc).map(|v| v.last_metrics())),
            aff(engine.view(&h.kws).map(|v| v.last_metrics())),
            aff(engine.view(&h.iso).map(|v| v.last_metrics())),
        ]
    }

    fn batch_time(&self, engine: &Engine, view: usize) -> Duration {
        let g = engine.graph();
        let mut work = WorkStats::new();
        let t = Instant::now();
        match view {
            0 => {
                let nfa = build_nfa(&rpq_query());
                let t = Instant::now();
                black_box(igc_rpq::batch::evaluate(g, &nfa, &mut work));
                return t.elapsed();
            }
            1 => {
                black_box(igc_scc::tarjan(g));
            }
            2 => {
                let q = default_kws();
                let kd = igc_kws::batch::compute_kdist(g, &q, &mut work);
                black_box(igc_kws::batch::roots(g, &q, &kd));
            }
            _ => {
                black_box(igc_iso::enumerate_matches(g, &default_iso(), &mut work));
            }
        }
        t.elapsed()
    }

    fn audit(&self, engine: &Engine, out: &mut Outcome) {
        out.check(
            engine.graph().sorted_edges() == self.mirror.sorted_edges(),
            || "engine graph differs from the generator's mirror".into(),
        );
    }

    fn reregister(&self, engine: &mut Engine) -> Result<(), EngineError> {
        register_paper_views(engine).map(|_| ())
    }
}
