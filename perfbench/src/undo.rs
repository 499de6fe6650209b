//! `window_undo`: a sliding edge window beside a persistent backbone. Each
//! tick inserts a cohort and retracts the one that slid out; a periodic
//! storm retracts half the window at once. SCC and the attack-graph rule
//! view repair deletions — the paper's "undoable" regime.

use crate::closed::{PointRead, Scenario};
use crate::common::{read_pair, Ctx, Outcome};
use igc_bench::workloads::{attack_program, WindowedStream};
use igc_engine::{Engine, EngineError, Snapshot, ViewHandle};
use igc_graph::{NodeId, UpdateBatch};
use igc_rules::{naive_fixpoint, IncRules, PredId, Program};
use igc_scc::IncScc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hosts in the churn region. The cost of a commit follows the giant
/// SCC's size, which grows and shrinks over stretches of a few hundred
/// ticks; at this size a run spans many of them, so the write tail does not
/// hang on which stretch a seed's run happens to hit.
pub const NODES: usize = 1500;
/// Persistent backbone hosts beside it.
pub const BACKBONE: usize = 1500;
/// Live ticks in the window.
pub const WINDOW: usize = 8;
/// Mean live out-degree of the churn region (cohort = degree × nodes /
/// window edges).
pub const DEGREE: f64 = 1.6;
/// Every this many ticks, a storm retracts half the window.
pub const STORM_EVERY: u64 = 12;

struct Handles {
    scc: ViewHandle<IncScc>,
    rules: ViewHandle<IncRules>,
}

pub struct WindowUndo {
    seed: u64,
    nodes: usize,
    backbone: usize,
    per_tick: usize,
    stream: Option<WindowedStream>,
    handles: Option<Handles>,
    program: Program,
    exec: PredId,
    ticks: u64,
    reads: StdRng,
    rules_aff: u64,
    overdeleted: u64,
    rederived: u64,
}

impl WindowUndo {
    pub fn new(ctx: &Ctx) -> Self {
        let nodes = ctx.pick(NODES, 200);
        let (program, exec, _) = attack_program();
        WindowUndo {
            seed: ctx.seed,
            nodes,
            backbone: ctx.pick(BACKBONE, 200),
            per_tick: (DEGREE * nodes as f64 / WINDOW as f64).round() as usize,
            stream: None,
            handles: None,
            program,
            exec,
            ticks: 0,
            reads: StdRng::seed_from_u64(ctx.seed ^ 0x5EAD),
            rules_aff: 0,
            overdeleted: 0,
            rederived: 0,
        }
    }

    fn h(&self) -> &Handles {
        self.handles.as_ref().expect("built before use")
    }

    pub fn record(&self, out: &mut Outcome) {
        out.note("churn_nodes", self.nodes);
        out.note("backbone_nodes", self.backbone);
        out.note("window_ticks", WINDOW);
        out.note("cohort_edges", self.per_tick);
        out.note("storm_every_ticks", STORM_EVERY);
        out.note("durability", "no log");
    }

    fn register_all(&self, engine: &mut Engine) -> Result<(Handles, Vec<Duration>), EngineError> {
        let t = Instant::now();
        let scc = engine.register_lazy("scc", IncScc::init())?;
        let scc_t = t.elapsed();
        let t = Instant::now();
        let rules = engine.register_lazy("rules", IncRules::init(self.program.clone()))?;
        Ok((Handles { scc, rules }, vec![scc_t, t.elapsed()]))
    }
}

impl Scenario for WindowUndo {
    fn views(&self) -> &'static [&'static str] {
        &["scc", "rules"]
    }

    fn build(&mut self, _ctx: &Ctx) -> Result<(Engine, Vec<Duration>), EngineError> {
        let (g, stream) = WindowedStream::with_backbone(
            self.backbone,
            self.nodes,
            WINDOW,
            self.per_tick,
            self.seed,
        );
        let mut engine = Engine::new(g);
        let (handles, builds) = self.register_all(&mut engine)?;
        // Fill the window: the measured ticks all slide a full one.
        let mut stream = stream;
        for _ in 0..WINDOW {
            engine.commit(&stream.next_batch())?;
        }
        self.rules_aff = engine.view(&handles.rules)?.metrics().affected;
        self.stream = Some(stream);
        self.handles = Some(handles);
        self.ticks = 0;
        Ok((engine, builds))
    }

    fn next_batch(&mut self) -> UpdateBatch {
        self.ticks += 1;
        let stream = self.stream.as_mut().expect("built");
        if self.ticks.is_multiple_of(STORM_EVERY) {
            stream.storm(WINDOW / 2)
        } else {
            stream.next_batch()
        }
    }

    fn query(&mut self, snap: &Snapshot) -> Result<PointRead, EngineError> {
        let (u, v) = read_pair(&mut self.reads, snap.graph().node_count());
        let h = self.h();
        Ok(PointRead {
            epoch: snap.epoch(),
            key: (u, v),
            answer: (
                snap.view(&h.scc)?.same_scc(u, v),
                snap.view(&h.rules)?.holds(self.exec, &[u]),
            ),
        })
    }

    fn live(&self, engine: &Engine, (u, v): (NodeId, NodeId)) -> Result<(bool, bool), EngineError> {
        let h = self.h();
        Ok((
            engine.view(&h.scc)?.same_scc(u, v),
            engine.view(&h.rules)?.holds(self.exec, &[u]),
        ))
    }

    fn affected(&mut self, engine: &Engine) -> Vec<u64> {
        let h = self.h();
        let scc = engine.view(&h.scc).map_or(0, |v| v.last_metrics().affected);
        // The rule view keeps cumulative change metrics; take the step.
        let total = engine.view(&h.rules).map_or(0, |v| v.metrics().affected);
        let rules = total.saturating_sub(self.rules_aff);
        self.rules_aff = total;
        vec![scc, rules]
    }

    fn after_commit(&mut self, engine: &Engine) {
        if let Ok(v) = engine.view(&self.h().rules) {
            let d = v.last_delta();
            self.overdeleted += d.overdeleted;
            self.rederived += d.rederived;
        }
    }

    fn finish(&self, out: &mut Outcome) {
        out.set("rules.overdeleted", self.overdeleted as f64);
        out.set("rules.rederived", self.rederived as f64);
        out.set(
            "rules.rederive_frac",
            self.rederived as f64 / self.overdeleted.max(1) as f64,
        );
    }

    fn batch_time(&self, engine: &Engine, view: usize) -> Duration {
        let g = engine.graph();
        let t = Instant::now();
        if view == 0 {
            black_box(igc_scc::tarjan(g));
        } else {
            black_box(IncRules::new(g, self.program.clone()));
        }
        t.elapsed()
    }

    fn audit(&self, engine: &Engine, out: &mut Outcome) {
        let h = self.h();
        match engine.view(&h.rules) {
            Ok(v) => out.check(
                v.sorted_facts() == naive_fixpoint(engine.graph(), &self.program).sorted_facts(),
                || "rule view differs from the naive fixpoint oracle".into(),
            ),
            Err(e) => out.check(false, || format!("rule view: {e}")),
        }
    }

    fn reregister(&self, engine: &mut Engine) -> Result<(), EngineError> {
        self.register_all(engine).map(|_| ())
    }
}
