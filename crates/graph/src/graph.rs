//! The dynamic labelled directed graph.

use crate::chunked::ChunkedVec;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::label::Label;
use crate::node::NodeId;
use crate::update::{Update, UpdateBatch};

/// A directed edge `(from, to)`.
pub type Edge = (NodeId, NodeId);

/// A mutable directed graph `G = (V, E, l)` with node labels.
///
/// Designed for the paper's update model: unit edge insertions (which may
/// introduce fresh nodes) and unit edge deletions. Both directions of
/// adjacency are maintained, since the incremental algorithms of Sections 4–5
/// propagate changes through *predecessors* (IncKWS, IncRPQ) as well as
/// successors (IncSCC). Edge membership is O(1) via a hash set; `E` is a set,
/// so parallel edges are not represented. Self-loops are allowed.
///
/// The adjacency lists live in [`ChunkedVec`]s, so a clone shares them
/// chunk by chunk and a later mutation of either copy duplicates only the
/// chunks it touches — what keeps a commit under a pinned MVCC snapshot
/// from copying the whole graph.
#[derive(Clone, Default)]
pub struct DynamicGraph {
    labels: Vec<Label>,
    out: ChunkedVec<Vec<NodeId>>,
    inn: ChunkedVec<Vec<NodeId>>,
    edges: FxHashSet<Edge>,
    by_label: FxHashMap<Label, Vec<NodeId>>,
    /// Version counter: the number of update transactions applied so far
    /// (each [`DynamicGraph::apply`] and [`DynamicGraph::apply_batch`] call
    /// counts as one). Construction-time primitives (`add_node`,
    /// `insert_edge`, `delete_edge`) do not bump it.
    epoch: u64,
}

impl DynamicGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut g = DynamicGraph {
            labels: Vec::with_capacity(nodes),
            out: ChunkedVec::with_capacity(nodes),
            inn: ChunkedVec::with_capacity(nodes),
            edges: FxHashSet::default(),
            by_label: FxHashMap::default(),
            epoch: 0,
        };
        g.edges.reserve(edges);
        g
    }

    /// Add a fresh isolated node with the given label; returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        self.labels.push(label);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.by_label.entry(label).or_default().push(id);
        id
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when `v` is a node of this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.labels.len()
    }

    /// The label `l(v)`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// All nodes carrying `label`, in creation order.
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.by_label.get(&label).map_or(&[], |v| v.as_slice())
    }

    /// True when the edge `(u, v)` is present.
    #[inline]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(&(u, v))
    }

    /// Insert edge `(u, v)`. Returns `true` if the edge was new.
    ///
    /// Panics if either endpoint is not a node; use [`DynamicGraph::add_node`]
    /// first when an update introduces fresh nodes.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            self.contains_node(u) && self.contains_node(v),
            "insert_edge({u:?}, {v:?}): node out of bounds (|V| = {})",
            self.node_count()
        );
        if !self.edges.insert((u, v)) {
            return false;
        }
        self.out[u.index()].push(v);
        self.inn[v.index()].push(u);
        true
    }

    /// Delete edge `(u, v)`. Returns `true` if the edge was present.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.edges.remove(&(u, v)) {
            return false;
        }
        let out = &mut self.out[u.index()];
        let pos = out.iter().position(|&x| x == v).expect("out list desync");
        out.swap_remove(pos);
        let inn = &mut self.inn[v.index()];
        let pos = inn.iter().position(|&x| x == u).expect("in list desync");
        inn.swap_remove(pos);
        true
    }

    /// Successors of `v` (targets of out-edges).
    #[inline]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        &self.out[v.index()]
    }

    /// Predecessors of `v` (sources of in-edges).
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.inn[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn[v.index()].len()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len()).map(NodeId::from_index)
    }

    /// Iterate over all edges (in unspecified order).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// All edges as a sorted vector — for deterministic comparisons in tests.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let mut e: Vec<_> = self.edges.iter().copied().collect();
        e.sort_unstable();
        e
    }

    /// The graph's version: how many update transactions ([`apply`] calls
    /// and [`apply_batch`] calls) have been applied since construction.
    /// The engine's commit pipeline tags every commit receipt with the
    /// post-commit epoch.
    ///
    /// [`apply`]: DynamicGraph::apply
    /// [`apply_batch`]: DynamicGraph::apply_batch
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restore the epoch counter on a graph reconstructed from an external
    /// snapshot (a commit-log checkpoint): the construction primitives that
    /// rebuilt it do not bump the epoch, so the restorer must re-stamp the
    /// version the snapshot captured. Replaying logged batches with
    /// [`DynamicGraph::apply_batch`] then advances it one transaction at a
    /// time, exactly as the original graph did.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Apply a single update as one transaction (bumps the epoch), creating
    /// referenced nodes on demand for insertions (the paper allows
    /// `insert e` "possibly with new nodes"; fresh nodes take labels from
    /// [`Update::Insert`]'s optional labels).
    pub fn apply(&mut self, update: &Update) {
        self.apply_update(update);
        self.epoch += 1;
    }

    /// Apply every update of a batch in order, as one transaction (the
    /// epoch advances by exactly one however long the batch is).
    pub fn apply_batch(&mut self, batch: &UpdateBatch) {
        for u in batch.iter() {
            self.apply_update(u);
        }
        self.epoch += 1;
    }

    /// Apply one unit update without advancing the epoch.
    fn apply_update(&mut self, update: &Update) {
        match *update {
            Update::Insert {
                from,
                to,
                from_label,
                to_label,
            } => {
                // Create endpoints in ascending id order: otherwise a
                // lower-id fresh endpoint would first be materialised as
                // default-labelled padding for the higher one, and its
                // explicit label silently lost.
                if from.index() <= to.index() {
                    self.ensure_node(from, from_label);
                    self.ensure_node(to, to_label);
                } else {
                    self.ensure_node(to, to_label);
                    self.ensure_node(from, from_label);
                }
                self.insert_edge(from, to);
            }
            Update::Delete { from, to } => {
                self.delete_edge(from, to);
            }
        }
    }

    /// Grow the node set so that `v` exists. Only `v` itself takes `label`
    /// (default [`Label::DEFAULT`] when `None`); any intermediate fresh
    /// nodes a gap-jumping id implies are labelled [`Label::DEFAULT`] — see
    /// [`Update::insert_labeled`] for the rule.
    fn ensure_node(&mut self, v: NodeId, label: Option<Label>) {
        while self.labels.len() < v.index() {
            self.add_node(Label::DEFAULT);
        }
        if self.labels.len() == v.index() {
            self.add_node(label.unwrap_or(Label::DEFAULT));
        }
    }

    /// Total size `|V| + |E|`, the paper's `|G|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Build a graph from a label slice and an edge list — convenient in tests.
pub fn graph_from(labels: &[u32], edges: &[(u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::with_capacity(labels.len(), edges.len());
    for &l in labels {
        g.add_node(Label(l));
    }
    for &(u, v) in edges {
        g.insert_edge(NodeId(u), NodeId(v));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(NodeId(0), NodeId(1)));
        assert!(g.delete_edge(NodeId(0), NodeId(1)));
        assert!(!g.contains_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.delete_edge(NodeId(0), NodeId(1)), "double delete");
        assert!(g.insert_edge(NodeId(0), NodeId(1)));
        assert!(!g.insert_edge(NodeId(0), NodeId(1)), "duplicate insert");
    }

    #[test]
    fn adjacency_both_directions() {
        let g = graph_from(&[0, 0, 0], &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.successors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.predecessors(NodeId(2)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn self_loop_supported() {
        let mut g = graph_from(&[0], &[]);
        assert!(g.insert_edge(NodeId(0), NodeId(0)));
        assert!(g.contains_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.successors(NodeId(0)), &[NodeId(0)]);
        assert_eq!(g.predecessors(NodeId(0)), &[NodeId(0)]);
        assert!(g.delete_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.out_degree(NodeId(0)), 0);
    }

    #[test]
    fn label_index_tracks_nodes() {
        let mut g = DynamicGraph::new();
        let a = g.add_node(Label(7));
        let b = g.add_node(Label(7));
        let c = g.add_node(Label(9));
        assert_eq!(g.nodes_with_label(Label(7)), &[a, b]);
        assert_eq!(g.nodes_with_label(Label(9)), &[c]);
        assert_eq!(g.nodes_with_label(Label(11)), &[] as &[NodeId]);
    }

    #[test]
    fn apply_insert_creates_nodes() {
        let mut g = graph_from(&[0], &[]);
        g.apply(&Update::insert_labeled(
            NodeId(0),
            NodeId(3),
            None,
            Some(Label(5)),
        ));
        assert_eq!(g.node_count(), 4);
        assert!(g.contains_edge(NodeId(0), NodeId(3)));
        assert_eq!(g.label(NodeId(3)), Label(5));
        // intermediate fresh nodes take the default label, not the
        // endpoint's: only the endpoint itself is labelled by the update
        assert_eq!(g.label(NodeId(1)), Label::DEFAULT);
        assert_eq!(g.label(NodeId(2)), Label::DEFAULT);
    }

    #[test]
    fn apply_insert_labels_both_fresh_endpoints_regardless_of_order() {
        // from > to, both fresh: the lower endpoint must still receive its
        // explicit label, not be pre-created as padding for the higher one.
        let mut g = graph_from(&[0], &[]);
        g.apply(&Update::insert_labeled(
            NodeId(4),
            NodeId(3),
            Some(Label(7)),
            Some(Label(9)),
        ));
        assert_eq!(g.node_count(), 5);
        assert!(g.contains_edge(NodeId(4), NodeId(3)));
        assert_eq!(g.label(NodeId(3)), Label(9));
        assert_eq!(g.label(NodeId(4)), Label(7));
        assert_eq!(g.label(NodeId(1)), Label::DEFAULT);
        assert_eq!(g.label(NodeId(2)), Label::DEFAULT);
    }

    #[test]
    fn epoch_counts_transactions_not_units() {
        let mut g = graph_from(&[0, 0, 0], &[]);
        assert_eq!(g.epoch(), 0, "construction primitives leave epoch at 0");
        g.apply(&Update::insert(NodeId(0), NodeId(1)));
        assert_eq!(g.epoch(), 1);
        let delta = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(2)),
            Update::delete(NodeId(0), NodeId(1)),
        ]);
        g.apply_batch(&delta);
        assert_eq!(g.epoch(), 2, "a batch is one transaction");
        let cloned = g.clone();
        assert_eq!(cloned.epoch(), 2);
    }

    #[test]
    fn apply_delete_of_absent_edge_is_noop() {
        let mut g = graph_from(&[0, 0], &[(0, 1)]);
        g.apply(&Update::delete(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn sorted_edges_deterministic() {
        let g = graph_from(&[0, 0, 0], &[(2, 0), (0, 1), (1, 2)]);
        assert_eq!(
            g.sorted_edges(),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(0))
            ]
        );
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        let edges: Vec<(u32, u32)> = (0..40).map(|i| (i, (i * 7 + 3) % 40)).collect();
        let g = graph_from(&[0; 40], &edges);
        let adjacency = |g: &DynamicGraph| -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
            g.nodes()
                .map(|v| (g.successors(v).to_vec(), g.predecessors(v).to_vec()))
                .collect()
        };
        let (adj, sorted) = (adjacency(&g), g.sorted_edges());
        let mut c = g.clone();
        c.apply_batch(&UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(2)),
            Update::insert(NodeId(39), NodeId(45)),
            Update::delete(NodeId(0), NodeId(3)),
            Update::delete(NodeId(20), NodeId(23)),
        ]));
        assert_eq!(c.edge_count(), g.edge_count());
        assert_ne!(adjacency(&c)[..40], adj[..]);
        assert_eq!(adjacency(&g), adj);
        assert_eq!(g.sorted_edges(), sorted);
        assert_eq!(g.node_count(), 40);
        assert_eq!((g.out_degree(NodeId(0)), g.in_degree(NodeId(3))), (1, 1));
        assert_eq!((c.out_degree(NodeId(0)), c.in_degree(NodeId(3))), (0, 0));
        assert!(g.contains_edge(NodeId(20), NodeId(23)));
        assert!(!g.contains_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn size_counts_nodes_plus_edges() {
        let g = graph_from(&[0, 0, 0], &[(0, 1)]);
        assert_eq!(g.size(), 4);
    }
}
