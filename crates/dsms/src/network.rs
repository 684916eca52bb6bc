//! The shared query network: one physical operator per distinct plan
//! signature, reference-counted across the continuous queries that use it.
//!
//! This is the substrate property the whole paper builds on — "it is
//! expected that many CQs may contain the same operator" (§II). Adding a
//! query walks its logical plan bottom-up, reusing any node whose signature
//! (operator kind + parameters + transitive inputs) already exists;
//! removing a query decrements reference counts and garbage-collects
//! orphaned operators.
//!
//! Invariant exploited by the engine: every edge points from a
//! lower-numbered node to a higher-numbered node (children are always
//! instantiated before parents, and reused parents already have their input
//! edges), so ascending node id is a topological order.
//!
//! Instantiation runs a **fusion pass** (on by default, see
//! [`QueryNetwork::set_fusion_enabled`]): a chain of adjacent stateless
//! operators (filter→filter, filter→project, project→project) collapses
//! into a single [`FusedOp`] node, keyed by the chain's top signature.
//! Sharing beats fusion — the chain walk stops at any sub-plan already
//! materialized as a (possibly shared) node and subscribes to it instead.
//! The cost of fusing is that a chain's *interior* signatures are not
//! registered, so operator sharing becomes order-dependent in one corner:
//! a query equal to an interior prefix of an already-fused chain gets its
//! own node (duplicate work, identical results) instead of splitting the
//! fused chain. See `fusion_does_not_share_interior_prefixes_added_later`
//! for the pinned behavior.

use crate::ops::{
    AggregateOp, FilterOp, FusedOp, FusedStage, JoinOp, OpClass, Operator, ProjectOp, UnionOp,
};
use crate::plan::{AggFunc, LogicalPlan, PlanError, StreamCatalog};
use crate::types::{DataType, Schema};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a continuous query registered in a network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CqId(pub u32);

impl fmt::Display for CqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cq{}", self.0)
    }
}

/// Identifies a physical operator node within a network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where an operator's (or stream's) output goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Input port `1` of node `0`.
    Node(NodeId, usize),
    /// The output sink of a continuous query.
    Sink(CqId),
}

/// What produces a plan node's input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Producer {
    /// A raw registered stream.
    Stream(String),
    /// Another operator node.
    Node(NodeId),
}

/// A physical operator node.
pub struct Node {
    /// The executable operator.
    pub op: Box<dyn Operator>,
    /// The sharing signature that keyed this node.
    pub signature: String,
    /// Operator kind label (for reports).
    pub kind: &'static str,
    /// Downstream consumers.
    pub downstream: Vec<Target>,
    /// Number of registered queries whose plan contains this node.
    pub refcount: u32,
    /// Tuples consumed (all ports).
    pub in_count: u64,
    /// Batches consumed (all ports); `in_count / in_batches` is the mean
    /// batch size the operator actually saw.
    pub in_batches: u64,
    /// Tuples produced.
    pub out_count: u64,
    /// Cumulative wall-clock time spent inside the operator — the measured
    /// per-batch timing the cost model normalizes to per-tuple load.
    pub busy: Duration,
    /// Watermark already propagated to this node.
    pub last_watermark: u64,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind)
            .field("refcount", &self.refcount)
            .field("in", &self.in_count)
            .field("out", &self.out_count)
            .finish()
    }
}

/// Everything the network remembers about one registered query.
#[derive(Clone, Debug)]
pub struct QueryInfo {
    /// The logical plan as submitted.
    pub plan: LogicalPlan,
    /// The distinct node ids the query's plan maps to.
    pub nodes: Vec<NodeId>,
    /// What feeds the query's sink.
    pub top: Producer,
    /// The query's output schema.
    pub schema: Schema,
}

/// One node of the **parallel plan** (see
/// [`QueryNetwork::keyed_plan`]).
#[derive(Clone, Debug)]
pub struct KeyedNode {
    /// The physical node.
    pub id: NodeId,
    /// Whether the node is a keyed *stateful* operator (join, aggregate)
    /// running against per-shard state partitions; stateless plan members
    /// are pure functions of their input batch.
    pub stateful: bool,
    /// Whether the node is a **partial-aggregation** member (an exact
    /// aggregate whose single group — or shard-incompatible group key —
    /// spans shards): workers absorb rows into per-*worker* partial
    /// accumulators instead of key-homed partitions, and the control
    /// thread's watermark pass combines the partials in partition order
    /// when windows close. Grouped members hash-accumulate per group key
    /// within each worker partition. Downstream consumers still see the
    /// node as a merge barrier (its output is produced on the control
    /// thread), so a partial node's `internal` is always empty.
    pub partial: bool,
    /// Downstream consumers *inside* the plan, as
    /// `(index into [`KeyedPlan::nodes`], input port)` pairs, in the
    /// node's `downstream` order.
    pub internal: Vec<(usize, usize)>,
    /// Downstream consumers *outside* the plan — sinks and
    /// shard-incompatible nodes, in `downstream` order. These are the
    /// **merge points**: the deterministic merge relocates here, past
    /// every keyed join and aggregate of the plan.
    pub exits: Vec<Target>,
}

/// One source stream of the parallel plan — every registered stream has
/// one. The root decides how a flush deals the stream's batches to the
/// shards, and that is the only thing a shard key changes.
#[derive(Clone, Debug)]
pub struct KeyedRoot {
    /// The stream name.
    pub stream: String,
    /// The stream's shard-key column: rows hash-partition on it (equal
    /// keys share a shard, so stateful members keyed compatibly run
    /// in-plan). `None` = no shard key: whole batches are dealt
    /// round-robin, and only stateless members and partial aggregates sit
    /// behind the root.
    pub key: Option<usize>,
    /// Plan members fed directly by the stream, as
    /// `(index into [`KeyedPlan::nodes`], input port)` pairs.
    pub targets: Vec<(usize, usize)>,
    /// Stream subscribers outside the plan (shard-incompatible nodes,
    /// sinks): routed whole at flush time, exactly like the
    /// single-threaded path.
    pub direct: Vec<Target>,
}

/// The maximal subgraph the shard executor can run *inside* the worker
/// shards: every stateless single-input operator reachable from a stream
/// through other members, **plus every downstream stateful operator keyed
/// compatibly with a tracked partition key** — joins whose both sides are
/// partitioned by their join keys, aggregates whose group-by column is
/// the partition key (equal keys already share a shard, so per-shard
/// operator state is exact) — plus exact aggregates anywhere else behind
/// members, as partial members. Computed across *all* streams at once,
/// because a join couples two streams' prefixes.
///
/// The deterministic merge happens at the plan's exits — the first
/// shard-incompatible node or sink past each member — instead of in front
/// of every stateful operator.
#[derive(Clone, Debug, Default)]
pub struct KeyedPlan {
    /// Plan members in ascending id order (a topological order: edges
    /// ascend, and a member's producers are members or roots).
    pub nodes: Vec<KeyedNode>,
    /// One entry per registered stream, sorted by stream name.
    pub roots: Vec<KeyedRoot>,
    /// Whether any member is stateful — if so, every flush that advances
    /// the watermark must run a window-close pass on every shard.
    pub has_stateful: bool,
}

impl KeyedPlan {
    /// The root of `stream`, if it is registered.
    pub fn root_of(&self, stream: &str) -> Option<usize> {
        self.roots.iter().position(|r| r.stream == stream)
    }
}

/// The shared operator network (see module docs).
pub struct QueryNetwork {
    streams: HashMap<String, Arc<Schema>>,
    nodes: Vec<Option<Node>>,
    by_signature: HashMap<String, NodeId>,
    source_subs: HashMap<String, Vec<Target>>,
    queries: HashMap<CqId, QueryInfo>,
    next_cq: u32,
    /// When true (the default), chains of adjacent stateless operators are
    /// collapsed into single [`FusedOp`] nodes at instantiation time.
    fusion: bool,
    /// Worker-shard count for the parallel executor (1 = single-threaded).
    /// Carried by the network so every engine built over it — including
    /// the center's shadow calibration engines — runs the same shape.
    shards: usize,
}

impl Default for QueryNetwork {
    fn default() -> Self {
        Self {
            streams: HashMap::new(),
            nodes: Vec::new(),
            by_signature: HashMap::new(),
            source_subs: HashMap::new(),
            queries: HashMap::new(),
            next_cq: 0,
            fusion: true,
            shards: 1,
        }
    }
}

impl fmt::Debug for QueryNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryNetwork")
            .field("streams", &self.streams.keys().collect::<Vec<_>>())
            .field("nodes", &self.num_nodes())
            .field("queries", &self.queries.len())
            .finish()
    }
}

impl StreamCatalog for QueryNetwork {
    fn stream_schema(&self, name: &str) -> Option<&Schema> {
        self.streams.get(name).map(Arc::as_ref)
    }
}

impl QueryNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the stateless-operator fusion pass is enabled (on by
    /// default).
    pub fn fusion_enabled(&self) -> bool {
        self.fusion
    }

    /// Enables or disables the fusion pass. Affects only *subsequently
    /// instantiated* operators; live nodes keep whatever shape they were
    /// built with (identical plans keep sharing either way, because fused
    /// and unfused nodes are keyed by the same plan signature).
    pub fn set_fusion_enabled(&mut self, enabled: bool) {
        self.fusion = enabled;
    }

    /// The worker-shard count of the parallel executor (1 = the
    /// single-threaded path; the default).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Sets the worker-shard count. Shard count 1 compiles down to the
    /// single-threaded engine path; higher counts run the parallel plan
    /// ([`QueryNetwork::keyed_plan`]) on that many worker threads with a
    /// deterministic merge at its exits.
    ///
    /// Live stateful operators re-home their keyed state to match
    /// ([`crate::ops::Operator::set_partitions`]), so the change is
    /// invisible in the outputs.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn set_shards(&mut self, n: usize) {
        assert!(n > 0, "shard count must be positive");
        self.shards = n;
        self.rehome_state();
    }

    /// Re-homes every live operator's partitioned state onto the current
    /// shard count ([`crate::ops::Operator::set_partitions`]): a key's
    /// tuples move whole, in order, to the partition the key hashes to,
    /// and per-worker partials of one group combine there. Afterwards the
    /// state sits where *any* plan membership expects it — a full member
    /// closes windows per partition, which is only right once no group
    /// spans two — so the engine runs this whenever it re-derives the
    /// plan.
    pub(crate) fn rehome_state(&mut self) {
        for node in self.nodes.iter_mut().flatten() {
            node.op.set_partitions(self.shards);
        }
    }

    /// Registers an input stream. Re-registering with the same schema is a
    /// no-op; with a different schema it panics (streams are append-only
    /// contracts).
    pub fn register_stream(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        match self.streams.get(&name) {
            Some(existing) => assert_eq!(
                existing.as_ref(),
                &schema,
                "stream '{name}' re-registered with a different schema"
            ),
            None => {
                self.streams.insert(name.clone(), Arc::new(schema));
                self.source_subs.entry(name).or_default();
            }
        }
    }

    /// The shared schema handle of a registered stream (source batches
    /// clone this `Arc` instead of copying the schema).
    pub fn stream_schema_arc(&self, name: &str) -> Option<&Arc<Schema>> {
        self.streams.get(name)
    }

    /// Live (non-removed) node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The node with the given id, if live.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to a live node.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Ids of all live nodes, ascending (a valid topological order).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32)))
            .collect()
    }

    /// Registered query ids, ascending.
    pub fn query_ids(&self) -> Vec<CqId> {
        let mut ids: Vec<CqId> = self.queries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Info for a registered query.
    pub fn query(&self, cq: CqId) -> Option<&QueryInfo> {
        self.queries.get(&cq)
    }

    /// The subscribers of a raw stream.
    pub fn stream_subscribers(&self, stream: &str) -> &[Target] {
        self.source_subs.get(stream).map_or(&[], Vec::as_slice)
    }

    /// Every query whose plan contains physical node `node`, ascending —
    /// the blast radius of a fault at that node. Because
    /// [`QueryInfo::nodes`] lists *all* nodes a query's plan materialized
    /// to (shared or not), a panic at a shared operator attributes to each
    /// co-owning query, which is exactly the set the quarantine machinery
    /// must excise.
    pub fn queries_owning(&self, node: NodeId) -> Vec<CqId> {
        let mut owners: Vec<CqId> = self
            .queries
            .iter()
            .filter(|(_, info)| info.nodes.contains(&node))
            .map(|(cq, _)| *cq)
            .collect();
        owners.sort_unstable();
        owners
    }

    /// The maximum number of queries sharing one node — the paper's "degree
    /// of sharing" realized in the running system.
    pub fn max_degree_of_sharing(&self) -> u32 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.refcount)
            .max()
            .unwrap_or(0)
    }

    /// Statically verifies a plan against this network's stream catalog,
    /// returning **every** problem as a diagnostic report rather than the
    /// first error (see [`crate::diag`]). An error-severity report means
    /// [`Self::add_query`] would reject the plan.
    pub fn verify_plan(&self, plan: &LogicalPlan) -> crate::diag::Report {
        crate::diag::check_plan(plan, self)
    }

    /// Adds a continuous query, sharing operators with existing queries
    /// wherever signatures match. Returns the new query's id.
    pub fn add_query(&mut self, plan: LogicalPlan) -> Result<CqId, PlanError> {
        // Statically verify before mutating: the analyzer accumulates every
        // problem, and its first error-severity diagnostic maps back onto
        // the `Result` API this method exposes.
        let report = self.verify_plan(&plan);
        if let Some(err) = report.first_error() {
            return Err(err);
        }
        let schema = plan
            .output_schema(self)
            .expect("verified plan has a schema");
        let mut new_nodes: Vec<NodeId> = Vec::new();
        let top = self.instantiate(&plan, &mut new_nodes)?;

        let cq = CqId(self.next_cq);
        self.next_cq += 1;

        // Collect the full node set of the plan (shared and new).
        let mut node_set = Vec::new();
        self.collect_plan_nodes(&plan, &mut node_set);
        node_set.sort_unstable();
        node_set.dedup();
        for &n in &node_set {
            self.nodes[n.index()]
                .as_mut()
                .expect("plan node is live")
                .refcount += 1;
        }

        // Wire the sink.
        self.connect(&top, Target::Sink(cq));

        self.queries.insert(
            cq,
            QueryInfo {
                plan,
                nodes: node_set,
                top,
                schema,
            },
        );
        Ok(cq)
    }

    /// Removes a query, garbage-collecting operators no longer referenced by
    /// any registered query. Returns the info of the removed query, or
    /// `None` if no query with that id is registered (removal is
    /// idempotent — removing an already-removed query is a no-op).
    pub fn remove_query(&mut self, cq: CqId) -> Option<QueryInfo> {
        let info = self.queries.remove(&cq)?;
        // Unwire the sink.
        self.disconnect(&info.top, Target::Sink(cq));
        // Drop references; collect orphans.
        let mut orphans = Vec::new();
        for &n in &info.nodes {
            let node = self.nodes[n.index()].as_mut().expect("query node is live");
            node.refcount -= 1;
            if node.refcount == 0 {
                orphans.push(n);
            }
        }
        for n in orphans {
            self.remove_node(n);
        }
        Some(info)
    }

    fn remove_node(&mut self, id: NodeId) {
        let node = self.nodes[id.index()].take().expect("node is live");
        self.by_signature.remove(&node.signature);
        // Remove edges pointing at the node from streams and other nodes.
        for subs in self.source_subs.values_mut() {
            subs.retain(|t| !matches!(t, Target::Node(n, _) if *n == id));
        }
        for other in self.nodes.iter_mut().flatten() {
            other
                .downstream
                .retain(|t| !matches!(t, Target::Node(n, _) if *n == id));
        }
    }

    fn connect(&mut self, producer: &Producer, target: Target) {
        match producer {
            Producer::Stream(s) => {
                let subs = self
                    .source_subs
                    .get_mut(s)
                    .expect("stream registered before connect");
                if !subs.contains(&target) {
                    subs.push(target);
                }
            }
            Producer::Node(id) => {
                let node = self.nodes[id.index()].as_mut().expect("producer is live");
                if !node.downstream.contains(&target) {
                    node.downstream.push(target);
                }
            }
        }
    }

    fn disconnect(&mut self, producer: &Producer, target: Target) {
        match producer {
            Producer::Stream(s) => {
                if let Some(subs) = self.source_subs.get_mut(s) {
                    subs.retain(|t| *t != target);
                }
            }
            Producer::Node(id) => {
                if let Some(node) = self.nodes[id.index()].as_mut() {
                    node.downstream.retain(|t| *t != target);
                }
            }
        }
    }

    fn new_node(
        &mut self,
        mut op: Box<dyn Operator>,
        signature: String,
        kind: &'static str,
    ) -> NodeId {
        // Stateful operators partition their keyed state per shard from
        // birth, so shard workers and the control thread agree on where a
        // key's state lives.
        op.set_partitions(self.shards);
        let id = NodeId(self.nodes.len() as u32);
        self.by_signature.insert(signature.clone(), id);
        self.nodes.push(Some(Node {
            op,
            signature,
            kind,
            downstream: Vec::new(),
            refcount: 0,
            in_count: 0,
            in_batches: 0,
            out_count: 0,
            busy: Duration::ZERO,
            last_watermark: 0,
        }));
        id
    }

    /// Recursively instantiates a plan, reusing signature-identical nodes.
    fn instantiate(
        &mut self,
        plan: &LogicalPlan,
        created: &mut Vec<NodeId>,
    ) -> Result<Producer, PlanError> {
        if let LogicalPlan::Source { stream } = plan {
            if !self.streams.contains_key(stream) {
                return Err(PlanError::UnknownStream(stream.clone()));
            }
            return Ok(Producer::Stream(stream.clone()));
        }
        let signature = plan.signature();
        if let Some(&existing) = self.by_signature.get(&signature) {
            return Ok(Producer::Node(existing));
        }
        let producer = match plan {
            LogicalPlan::Source { .. } => unreachable!("handled above"),
            LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
                self.instantiate_stateless(plan, signature, created)?
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                window_ms,
            } => {
                let lp = self.instantiate(left, created)?;
                let rp = self.instantiate(right, created)?;
                let schema = plan.output_schema(self)?;
                let id = self.new_node(
                    Box::new(JoinOp::new(*left_key, *right_key, *window_ms, schema)),
                    signature,
                    "join",
                );
                self.connect(&lp, Target::Node(id, 0));
                self.connect(&rp, Target::Node(id, 1));
                id
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                func,
                column,
                window_ms,
                slide_ms,
            } => {
                let child = self.instantiate(input, created)?;
                let in_schema = input.output_schema(self)?;
                let schema = plan.output_schema(self)?;
                let int_input =
                    *func != AggFunc::Count && in_schema.data_type(*column) == DataType::Int;
                let id = self.new_node(
                    Box::new(AggregateOp::with_slide(
                        *group_by, *func, *column, *window_ms, *slide_ms, schema, int_input,
                    )),
                    signature,
                    "aggregate",
                );
                self.connect(&child, Target::Node(id, 0));
                id
            }
            LogicalPlan::Union { left, right } => {
                let lp = self.instantiate(left, created)?;
                let rp = self.instantiate(right, created)?;
                let schema = plan.output_schema(self)?;
                let id = self.new_node(Box::new(UnionOp::new(schema)), signature, "union");
                self.connect(&lp, Target::Node(id, 0));
                self.connect(&rp, Target::Node(id, 1));
                id
            }
        };
        created.push(producer);
        Ok(Producer::Node(producer))
    }

    /// Lowers a stateless plan node (filter or project), fusing the maximal
    /// chain of stateless ancestors into one [`FusedOp`] when fusion is
    /// enabled.
    ///
    /// The chain walk stops at the first ancestor that either is stateful
    /// (or a source) or already exists as a physical node — **sharing beats
    /// fusion**: a materialized prefix may serve other queries, so the
    /// chain subscribes to it instead of re-computing it. The fused node is
    /// keyed by the chain's *top* signature (which transitively encodes the
    /// whole chain), so identical chains submitted by different users still
    /// collapse onto one node, and `collect_plan_nodes` attributes the node
    /// to every query whose plan contains the chain's top — per-CQ cost
    /// attribution is unchanged by fusion. Interior signatures of the
    /// fused chain are *not* registered: a later query equal to such a
    /// prefix builds its own node rather than splitting the chain (see the
    /// module docs).
    fn instantiate_stateless(
        &mut self,
        plan: &LogicalPlan,
        signature: String,
        created: &mut Vec<NodeId>,
    ) -> Result<NodeId, PlanError> {
        let mut chain: Vec<&LogicalPlan> = vec![plan];
        let mut cursor = plan.stateless_input().expect("stateless plan node");
        if self.fusion {
            while cursor.is_stateless() && !self.by_signature.contains_key(&cursor.signature()) {
                chain.push(cursor);
                cursor = cursor.stateless_input().expect("stateless plan node");
            }
        }
        let child = self.instantiate(cursor, created)?;
        let id = if chain.len() == 1 {
            // Nothing to fuse with: a plain single-operator node.
            match plan {
                LogicalPlan::Filter { input, predicate } => {
                    let schema = input.output_schema(self)?;
                    self.new_node(
                        Box::new(FilterOp::new(predicate.clone(), schema)),
                        signature,
                        "filter",
                    )
                }
                LogicalPlan::Project { columns, .. } => {
                    let schema = plan.output_schema(self)?;
                    let exprs = columns.iter().map(|(_, e)| e.clone()).collect();
                    self.new_node(
                        Box::new(ProjectOp::new(exprs, schema)),
                        signature,
                        "project",
                    )
                }
                _ => unreachable!("stateless plan nodes are filter or project"),
            }
        } else {
            // Stage list in chain order (upstream first), each stage
            // carrying its analytic unit cost: the fused node reports a
            // selectivity-aware effective cost, so the admission auction
            // prices the fused chain like the unfused chain's measured
            // per-stage rates, while the measured cost model observes the
            // real (lower) per-tuple time.
            let mut stages = Vec::with_capacity(chain.len());
            for node in chain.iter().rev() {
                match node {
                    LogicalPlan::Filter { predicate, .. } => {
                        stages.push((FusedStage::Filter(predicate.clone()), FilterOp::UNIT_COST));
                    }
                    LogicalPlan::Project { columns, .. } => {
                        // Each projection stage carries its own output
                        // schema so the columnar kernels can materialize
                        // intermediate batches without re-deriving types.
                        let stage_schema = Arc::new(node.output_schema(self)?);
                        stages.push((
                            FusedStage::Project(
                                columns.iter().map(|(_, e)| e.clone()).collect(),
                                stage_schema,
                            ),
                            ProjectOp::UNIT_COST,
                        ));
                    }
                    _ => unreachable!("stateless plan nodes are filter or project"),
                }
            }
            let schema = plan.output_schema(self)?;
            self.new_node(Box::new(FusedOp::new(stages, schema)), signature, "fused")
        };
        self.connect(&child, Target::Node(id, 0));
        Ok(id)
    }

    /// Computes the [`KeyedPlan`] — the one plan of the parallel executor —
    /// over every registered stream, for the given per-stream shard keys.
    ///
    /// Every stream is a root, with or without a shard key (see
    /// [`KeyedRoot::key`]), and one membership rule applies behind all of
    /// them. A node joins the plan only when **every** producer is a
    /// stream or a (full) member, and then: stateless operators always;
    /// keyed stateful operators as *full* members when
    /// [`crate::ops::Operator::keyed_out`] accepts the producers' key
    /// positions — which takes a tracked key, so never behind a keyless
    /// root; exact aggregates otherwise as *partial* members
    /// ([`crate::ops::Operator::keyed_partial`]). Key positions are
    /// tracked through the plan: filters pass the key through, projections
    /// keep it only where an output column is exactly the key column,
    /// fused chains thread it stage by stage, joins carry it at the left
    /// key's position, aggregates at the group column.
    pub fn keyed_plan(&self, shard_keys: &HashMap<String, usize>) -> KeyedPlan {
        // Upstream view: producers per node, per port. (The network stores
        // downstream edges; invert them once.)
        enum Src {
            Stream(String),
            Node(NodeId),
        }
        let mut in_edges: HashMap<NodeId, Vec<(usize, Src)>> = HashMap::new();
        for (stream, subs) in &self.source_subs {
            for t in subs {
                if let Target::Node(id, port) = t {
                    in_edges
                        .entry(*id)
                        .or_default()
                        .push((*port, Src::Stream(stream.clone())));
                }
            }
        }
        for id in self.node_ids() {
            for t in &self.node(id).expect("live node").downstream {
                if let Target::Node(d, port) = t {
                    in_edges.entry(*d).or_default().push((*port, Src::Node(id)));
                }
            }
        }

        // Membership + key tracking, ascending id order (producers always
        // have smaller ids, so one pass suffices). `members[id]` holds the
        // member's output key position (`None` = key lost; stateless
        // members stay shardable either way).
        let mut members: HashMap<NodeId, Option<usize>> = HashMap::new();
        let mut partials: HashSet<NodeId> = HashSet::new();
        let mut order: Vec<NodeId> = Vec::new();
        for id in self.node_ids() {
            let Some(edges) = in_edges.get(&id) else {
                continue;
            };
            let node = self.node(id).expect("live node");
            let num_ports = edges.iter().map(|(p, _)| p + 1).max().unwrap_or(0);
            let mut in_keys: Vec<Option<usize>> = vec![None; num_ports];
            let mut all_covered = true;
            for (port, src) in edges {
                let key = match src {
                    // Every stream is a root; only its key may be unknown.
                    Src::Stream(s) => shard_keys.get(s).copied(),
                    Src::Node(p) => match members.get(p) {
                        Some(&k) => k,
                        None => {
                            all_covered = false;
                            break;
                        }
                    },
                };
                in_keys[*port] = key;
            }
            if !all_covered {
                continue;
            }
            let key_out = node.op.keyed_out(&in_keys);
            let class = node.op.class();
            if class == OpClass::Stateless || (class == OpClass::Keyed && key_out.is_some()) {
                members.insert(id, key_out);
                order.push(id);
            } else if class == OpClass::Keyed && node.op.keyed_partial() {
                // Partial-aggregation member: absorbs rows inside the
                // shards (per-worker partials, no key needed — every row
                // folds into whichever worker ran its morsel, legal
                // because the combine is exact; grouped aggregates at a
                // shard-incompatible key accumulate per group *within*
                // each worker partition), but its *output* is produced by
                // the control thread's watermark pass, which combines the
                // partials. Downstream nodes therefore see a merge
                // barrier: the node joins `order` but not `members`.
                partials.insert(id);
                order.push(id);
            }
        }

        // Second pass: split downstream edges into internal edges and
        // exits (the merge points).
        let index_of = |id: NodeId| order.binary_search(&id).ok();
        let nodes: Vec<KeyedNode> = order
            .iter()
            .map(|&id| {
                let node = self.node(id).expect("plan node is live");
                let mut internal = Vec::new();
                let mut exits = Vec::new();
                for &t in &node.downstream {
                    match t {
                        Target::Node(d, port) if index_of(d).is_some() => {
                            internal.push((index_of(d).expect("member"), port));
                        }
                        other => exits.push(other),
                    }
                }
                debug_assert!(
                    !partials.contains(&id) || internal.is_empty(),
                    "partial members emit on the control thread, never in-plan"
                );
                KeyedNode {
                    id,
                    stateful: node.op.class() == OpClass::Keyed,
                    partial: partials.contains(&id),
                    internal,
                    exits,
                }
            })
            .collect();
        let mut streams: Vec<&String> = self.streams.keys().collect();
        streams.sort();
        let roots: Vec<KeyedRoot> = streams
            .into_iter()
            .map(|stream| {
                let subs = self.stream_subscribers(stream);
                let mut targets = Vec::new();
                let mut direct = Vec::new();
                for &t in subs {
                    match t {
                        Target::Node(d, port) if index_of(d).is_some() => {
                            targets.push((index_of(d).expect("member"), port));
                        }
                        other => direct.push(other),
                    }
                }
                KeyedRoot {
                    stream: stream.clone(),
                    key: shard_keys.get(stream).copied(),
                    targets,
                    direct,
                }
            })
            .collect();
        let has_stateful = nodes.iter().any(|n| n.stateful);
        KeyedPlan {
            nodes,
            roots,
            has_stateful,
        }
    }

    /// Collects the node ids a (registered) plan maps to.
    fn collect_plan_nodes(&self, plan: &LogicalPlan, out: &mut Vec<NodeId>) {
        if let LogicalPlan::Source { .. } = plan {
            return;
        }
        if let Some(&id) = self.by_signature.get(&plan.signature()) {
            out.push(id);
        }
        match plan {
            LogicalPlan::Source { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => self.collect_plan_nodes(input, out),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                self.collect_plan_nodes(left, out);
                self.collect_plan_nodes(right, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::types::{Field, Value};

    fn network_with_quotes() -> QueryNetwork {
        let mut n = QueryNetwork::new();
        n.register_stream(
            "quotes",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        );
        n
    }

    fn high_price_filter() -> LogicalPlan {
        LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
    }

    #[test]
    fn identical_queries_share_all_nodes() {
        let mut n = network_with_quotes();
        let q1 = n.add_query(high_price_filter()).unwrap();
        let q2 = n.add_query(high_price_filter()).unwrap();
        assert_eq!(n.num_nodes(), 1, "one shared filter node");
        assert_eq!(n.max_degree_of_sharing(), 2);
        let filter = n.query(q1).unwrap().nodes[0];
        assert_eq!(n.query(q2).unwrap().nodes, vec![filter]);
        // Both sinks hang off the shared node.
        let node = n.node(filter).unwrap();
        assert_eq!(node.downstream.len(), 2);
    }

    #[test]
    fn different_predicates_do_not_share() {
        let mut n = network_with_quotes();
        n.add_query(high_price_filter()).unwrap();
        n.add_query(
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(50.0)))),
        )
        .unwrap();
        assert_eq!(n.num_nodes(), 2);
        assert_eq!(n.max_degree_of_sharing(), 1);
    }

    #[test]
    fn subplan_sharing_with_distinct_tops() {
        // Both queries share the select; each has its own aggregate.
        let mut n = network_with_quotes();
        let base = high_price_filter();
        n.add_query(base.clone().aggregate(Some(0), AggFunc::Count, 0, 1000))
            .unwrap();
        n.add_query(base.aggregate(Some(0), AggFunc::Avg, 1, 1000))
            .unwrap();
        assert_eq!(n.num_nodes(), 3, "filter + 2 aggregates");
        assert_eq!(n.max_degree_of_sharing(), 2); // the shared filter
    }

    #[test]
    fn remove_query_keeps_shared_nodes() {
        let mut n = network_with_quotes();
        let q1 = n.add_query(high_price_filter()).unwrap();
        let q2 = n.add_query(high_price_filter()).unwrap();
        n.remove_query(q1);
        assert_eq!(n.num_nodes(), 1, "q2 still needs the filter");
        n.remove_query(q2);
        assert_eq!(n.num_nodes(), 0, "orphaned node collected");
        assert!(n.stream_subscribers("quotes").is_empty());
    }

    #[test]
    fn remove_query_cleans_sink_edges() {
        let mut n = network_with_quotes();
        let q1 = n.add_query(high_price_filter()).unwrap();
        let q2 = n.add_query(high_price_filter()).unwrap();
        let node = n.query(q1).unwrap().nodes[0];
        n.remove_query(q2);
        let targets = &n.node(node).unwrap().downstream;
        assert_eq!(targets, &vec![Target::Sink(q1)]);
    }

    #[test]
    fn source_only_query_sinks_from_stream() {
        let mut n = network_with_quotes();
        let q = n.add_query(LogicalPlan::source("quotes")).unwrap();
        assert_eq!(n.num_nodes(), 0);
        assert_eq!(n.stream_subscribers("quotes"), &[Target::Sink(q)]);
        n.remove_query(q);
        assert!(n.stream_subscribers("quotes").is_empty());
    }

    #[test]
    fn unknown_stream_is_rejected_before_mutation() {
        let mut n = network_with_quotes();
        let err = n.add_query(LogicalPlan::source("nope")).unwrap_err();
        assert_eq!(err, PlanError::UnknownStream("nope".into()));
        assert_eq!(n.num_nodes(), 0);
        assert_eq!(n.num_queries(), 0);
    }

    #[test]
    fn remove_of_unknown_query_is_a_no_op() {
        let mut n = network_with_quotes();
        assert!(n.remove_query(CqId(7)).is_none());
        let q = n.add_query(high_price_filter()).unwrap();
        let info = n.remove_query(q).expect("registered query removes");
        assert_eq!(info.plan, high_price_filter());
        // Idempotent: the second removal finds nothing and mutates nothing.
        assert!(n.remove_query(q).is_none());
        assert_eq!(n.num_nodes(), 0);
    }

    #[test]
    fn add_query_accumulates_diagnostics_in_verify_plan() {
        let n = network_with_quotes();
        // Three independent problems; `add_query` surfaces the first as
        // its `PlanError`, `verify_plan` reports them all.
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(9).gt(Expr::lit(Value::Int(0))))
            .aggregate(Some(1), AggFunc::Count, 0, 0);
        let report = n.verify_plan(&plan);
        assert_eq!(report.num_errors(), 3);
        let mut n = n;
        let err = n.add_query(plan).unwrap_err();
        assert_eq!(err, report.first_error().unwrap());
        assert_eq!(n.num_nodes(), 0);
    }

    #[test]
    fn edges_always_ascend() {
        // The engine relies on ascending ids being a topo order.
        let mut n = network_with_quotes();
        n.register_stream(
            "news",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("headline", DataType::Str),
            ]),
        );
        let select_quotes = high_price_filter();
        let select_news =
            LogicalPlan::source("news").filter(Expr::col(1).eq(Expr::lit(Value::str("earnings"))));
        n.add_query(select_quotes.clone()).unwrap();
        n.add_query(select_quotes.clone().join(select_news, 0, 0, 1000))
            .unwrap();
        for id in n.node_ids() {
            for t in &n.node(id).unwrap().downstream {
                if let Target::Node(d, _) = t {
                    assert!(d.0 > id.0, "edge {id} -> {d} must ascend");
                }
            }
        }
    }

    fn stateless_chain() -> LogicalPlan {
        LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))])
    }

    #[test]
    fn stateless_chain_fuses_into_one_node() {
        let mut n = network_with_quotes();
        let q = n.add_query(stateless_chain()).unwrap();
        assert_eq!(n.num_nodes(), 1, "three stateless ops fuse into one node");
        let id = n.query(q).unwrap().nodes[0];
        let node = n.node(id).unwrap();
        assert_eq!(node.kind, "fused");
        // The auction still sees the full chain's analytic load.
        assert_eq!(
            node.op.unit_cost(),
            2.0 * crate::ops::FilterOp::UNIT_COST + crate::ops::ProjectOp::UNIT_COST
        );
    }

    #[test]
    fn fusion_off_materializes_each_stage() {
        let mut n = network_with_quotes();
        assert!(n.fusion_enabled(), "fusion defaults to on");
        n.set_fusion_enabled(false);
        n.add_query(stateless_chain()).unwrap();
        assert_eq!(n.num_nodes(), 3, "unfused: one node per operator");
    }

    #[test]
    fn identical_fused_chains_share_one_node() {
        let mut n = network_with_quotes();
        n.add_query(stateless_chain()).unwrap();
        n.add_query(stateless_chain()).unwrap();
        assert_eq!(n.num_nodes(), 1);
        assert_eq!(n.max_degree_of_sharing(), 2);
    }

    #[test]
    fn fusion_stops_at_materialized_shared_prefix() {
        // The bare filter exists first; the chain must subscribe to it
        // rather than re-computing the shared prefix inside a fused node.
        let mut n = network_with_quotes();
        let q1 = n.add_query(high_price_filter()).unwrap();
        let chain = high_price_filter()
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let q2 = n.add_query(chain).unwrap();
        assert_eq!(n.num_nodes(), 2, "shared filter + fused suffix");
        let shared = n.query(q1).unwrap().nodes[0];
        assert_eq!(n.node(shared).unwrap().refcount, 2, "prefix serves both");
        let suffix = *n
            .query(q2)
            .unwrap()
            .nodes
            .iter()
            .find(|id| **id != shared)
            .unwrap();
        assert_eq!(n.node(suffix).unwrap().kind, "fused");
        assert_eq!(
            n.node(shared).unwrap().downstream,
            vec![Target::Sink(q1), Target::Node(suffix, 0)]
        );
    }

    #[test]
    fn fused_chain_serves_as_prefix_for_later_queries() {
        // A query whose plan extends an already-fused chain reuses the
        // fused node, and per-CQ attribution lists both physical nodes.
        let mut n = network_with_quotes();
        n.add_query(stateless_chain()).unwrap();
        let extended = n
            .add_query(stateless_chain().aggregate(None, AggFunc::Count, 0, 1000))
            .unwrap();
        assert_eq!(n.num_nodes(), 2, "fused chain + aggregate");
        let info = n.query(extended).unwrap();
        assert_eq!(info.nodes.len(), 2, "attribution covers fused + aggregate");
        let kinds: Vec<&str> = info
            .nodes
            .iter()
            .map(|id| n.node(*id).unwrap().kind)
            .collect();
        assert!(kinds.contains(&"fused") && kinds.contains(&"aggregate"));
    }

    #[test]
    fn fusion_does_not_share_interior_prefixes_added_later() {
        // Pinned tradeoff (see module docs): a fused chain does not
        // register its interior signatures, so a *later* query equal to an
        // interior prefix gets its own node — duplicate computation, never
        // wrong results. Submitted in the opposite order the prefix is
        // shared (`fusion_stops_at_materialized_shared_prefix`).
        let mut n = network_with_quotes();
        n.add_query(stateless_chain()).unwrap();
        assert_eq!(n.num_nodes(), 1);
        let prefix = n.add_query(high_price_filter()).unwrap();
        assert_eq!(
            n.num_nodes(),
            2,
            "the interior prefix is re-materialized, not split out"
        );
        let prefix_node = n.query(prefix).unwrap().nodes[0];
        assert_eq!(n.node(prefix_node).unwrap().kind, "filter");
        assert_eq!(n.node(prefix_node).unwrap().refcount, 1);
    }

    #[test]
    fn fused_node_is_garbage_collected_with_its_query() {
        let mut n = network_with_quotes();
        let q = n.add_query(stateless_chain()).unwrap();
        assert_eq!(n.num_nodes(), 1);
        n.remove_query(q);
        assert_eq!(n.num_nodes(), 0);
        assert!(n.stream_subscribers("quotes").is_empty());
    }

    fn register_news(n: &mut QueryNetwork) {
        n.register_stream(
            "news",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("headline", DataType::Str),
            ]),
        );
    }

    #[test]
    fn keyless_root_covers_chains_and_stops_at_inexact_stateful() {
        let mut n = network_with_quotes();
        // Shared filter with its own sink, a fused suffix hanging off it,
        // an inexact aggregate on the filter, and a source-only query.
        let q_filter = n.add_query(high_price_filter()).unwrap();
        let chain = high_price_filter()
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let q_chain = n.add_query(chain).unwrap();
        let q_agg = n
            .add_query(high_price_filter().aggregate(None, AggFunc::Avg, 1, 100))
            .unwrap();
        let q_raw = n.add_query(LogicalPlan::source("quotes")).unwrap();

        let plan = n.keyed_plan(&HashMap::new());
        assert_eq!(plan.nodes.len(), 2, "shared filter + fused suffix");
        assert!(!plan.has_stateful);
        let root = &plan.roots[plan.root_of("quotes").unwrap()];
        assert_eq!(root.key, None, "whole batches, dealt round-robin");
        assert_eq!(
            root.targets,
            vec![(0, 0)],
            "only the filter reads the stream"
        );
        assert_eq!(
            root.direct,
            vec![Target::Sink(q_raw)],
            "the source-only sink routes raw"
        );
        let filter = &plan.nodes[0];
        assert_eq!(
            filter.internal,
            vec![(1, 0)],
            "filter feeds the fused suffix"
        );
        let agg_node = *n
            .query(q_agg)
            .unwrap()
            .nodes
            .iter()
            .find(|id| n.node(**id).unwrap().kind == "aggregate")
            .unwrap();
        assert_eq!(
            filter.exits,
            vec![Target::Sink(q_filter), Target::Node(agg_node, 0)],
            "exits keep the node's downstream order"
        );
        let fused = &plan.nodes[1];
        assert!(fused.internal.is_empty());
        assert_eq!(fused.exits, vec![Target::Sink(q_chain)]);
    }

    #[test]
    fn keyless_roots_keep_joins_behind_the_merge() {
        let mut n = network_with_quotes();
        register_news(&mut n);
        n.add_query(LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 0, 0, 100))
            .unwrap();
        let plan = n.keyed_plan(&HashMap::new());
        assert!(plan.nodes.is_empty(), "a join is a merge barrier");
        assert_eq!(plan.roots.len(), 2, "every registered stream is a root");
        for root in &plan.roots {
            assert!(root.targets.is_empty());
            assert_eq!(root.direct.len(), 1, "the join subscribes raw");
        }
    }

    fn keys(pairs: &[(&str, usize)]) -> HashMap<String, usize> {
        pairs.iter().map(|(s, c)| (s.to_string(), *c)).collect()
    }

    #[test]
    fn keyed_plan_extends_past_compatible_aggregates() {
        let mut n = network_with_quotes();
        let q = n
            .add_query(
                high_price_filter()
                    .aggregate(Some(0), AggFunc::Count, 0, 100)
                    .filter(Expr::col(2).gt(Expr::lit(Value::Int(1)))),
            )
            .unwrap();
        let plan = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert_eq!(
            plan.nodes.len(),
            3,
            "filter, keyed aggregate, and post-aggregate filter all shard"
        );
        assert!(plan.has_stateful);
        let agg = plan
            .nodes
            .iter()
            .find(|kn| n.node(kn.id).unwrap().kind == "aggregate")
            .unwrap();
        assert!(agg.stateful);
        assert!(agg.exits.is_empty(), "the merge moved past the aggregate");
        let last = plan.nodes.last().unwrap();
        assert_eq!(
            last.exits,
            vec![Target::Sink(q)],
            "the sink is the merge point"
        );
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.roots[0].key, Some(0));
    }

    #[test]
    fn keyed_plan_stops_at_inexact_ungrouped_aggregates() {
        let mut n = network_with_quotes();
        // An ungrouped float Sum cannot combine per-worker partials
        // exactly (reassociation changes the rounding), so it must stay a
        // merge barrier.
        n.add_query(high_price_filter().aggregate(None, AggFunc::Sum, 1, 100))
            .unwrap();
        let plan = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert_eq!(plan.nodes.len(), 1, "only the filter shards");
        assert!(!plan.has_stateful);
        let filter = &plan.nodes[0];
        assert_eq!(filter.exits.len(), 1, "the aggregate is an exit");
    }

    #[test]
    fn keyed_plan_admits_ungrouped_exact_aggregates_as_partials() {
        let mut n = network_with_quotes();
        // An ungrouped Count combines exactly, so it joins the plan as a
        // partial-aggregation member: rows fold into per-worker partials
        // in-shard, and the control thread's watermark pass combines
        // them. Its consumers still see a merge barrier (empty internal).
        let q = n
            .add_query(high_price_filter().aggregate(None, AggFunc::Count, 0, 100))
            .unwrap();
        let plan = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert_eq!(plan.nodes.len(), 2, "filter + partial aggregate");
        assert!(plan.has_stateful);
        let agg = plan.nodes.last().unwrap();
        assert!(agg.stateful);
        assert!(agg.partial, "ungrouped exact aggregate absorbs as partials");
        assert!(agg.internal.is_empty());
        assert_eq!(agg.exits, vec![Target::Sink(q)]);
        assert!(
            !plan.nodes[0].partial,
            "stateless members are never partial"
        );
    }

    #[test]
    fn keyed_plan_includes_joins_keyed_on_both_shard_keys() {
        let mut n = network_with_quotes();
        register_news(&mut n);
        let join = high_price_filter().join(LogicalPlan::source("news"), 0, 0, 100);
        let q = n.add_query(join).unwrap();
        // Both streams keyed on the join keys: the join runs in-shard.
        let plan = n.keyed_plan(&keys(&[("quotes", 0), ("news", 0)]));
        assert_eq!(plan.nodes.len(), 2, "filter + join");
        assert!(plan.has_stateful);
        let join_node = plan.nodes.last().unwrap();
        assert!(join_node.stateful);
        assert_eq!(join_node.exits, vec![Target::Sink(q)]);
        assert_eq!(plan.roots.len(), 2);
        assert!(plan.roots.iter().all(|r| r.key == Some(0)));
        // The news root feeds the join's port 1 directly.
        let news_root = &plan.roots[plan.root_of("news").unwrap()];
        assert_eq!(news_root.targets.len(), 1);
        assert_eq!(news_root.targets[0].1, 1, "news feeds the right port");

        // With only one stream keyed, the join is a barrier again.
        let half = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert_eq!(half.nodes.len(), 1, "just the quotes filter");
        assert!(!half.has_stateful);
    }

    #[test]
    fn keyed_plan_tracks_key_position_through_projections() {
        let mut n = network_with_quotes();
        // The projection moves symbol to column 1; grouping by column 1
        // downstream is therefore keyed-compatible.
        n.add_query(
            LogicalPlan::source("quotes")
                .project(vec![
                    ("price".to_string(), Expr::col(1)),
                    ("symbol".to_string(), Expr::col(0)),
                ])
                .aggregate(Some(1), AggFunc::Count, 0, 100),
        )
        .unwrap();
        let plan = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert!(
            plan.has_stateful,
            "key tracked to column 1 through the project"
        );

        // A projection that *drops* the key severs the keyed chain for a
        // *grouped* aggregate (its groups then span shards) — but an
        // exact combine lets it rejoin as a grouped *partial* member:
        // per-worker hash partials, combined behind the merge barrier.
        let mut n2 = QueryNetwork::new();
        n2.register_stream(
            "trades",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("size", DataType::Int),
            ]),
        );
        n2.add_query(
            LogicalPlan::source("trades")
                .project(vec![("size".to_string(), Expr::col(1))])
                .aggregate(Some(0), AggFunc::Count, 0, 100),
        )
        .unwrap();
        let plan2 = n2.keyed_plan(&keys(&[("trades", 0)]));
        assert!(plan2.has_stateful, "exact grouped aggregate re-enters");
        let agg2 = plan2.nodes.last().unwrap();
        assert!(agg2.partial, "…as a grouped partial member");
        assert!(agg2.internal.is_empty());

        // An *inexact* grouped aggregate (float Avg) at a
        // shard-incompatible group key cannot combine partials exactly:
        // it keeps the merge barrier.
        let mut n2b = QueryNetwork::new();
        n2b.register_stream(
            "ticks",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
                Field::new("venue", DataType::Str),
            ]),
        );
        n2b.add_query(LogicalPlan::source("ticks").aggregate(Some(2), AggFunc::Avg, 1, 100))
            .unwrap();
        let plan2b = n2b.keyed_plan(&keys(&[("ticks", 0)]));
        assert!(
            !plan2b.has_stateful,
            "inexact grouped aggregate keeps the merge barrier"
        );

        // An *ungrouped* exact aggregate doesn't need the key at all: it
        // also joins the plan as a partial member.
        let mut n3 = network_with_quotes();
        n3.add_query(
            LogicalPlan::source("quotes")
                .project(vec![("price".to_string(), Expr::col(1))])
                .aggregate(None, AggFunc::Count, 0, 100),
        )
        .unwrap();
        let plan3 = n3.keyed_plan(&keys(&[("quotes", 0)]));
        assert!(plan3.has_stateful, "partial members survive key loss");
        assert!(plan3.nodes.last().unwrap().partial);
    }

    #[test]
    fn keyed_plan_without_shard_keys_admits_exact_aggregates_as_partials() {
        let mut n = network_with_quotes();
        let q = n
            .add_query(high_price_filter().aggregate(Some(0), AggFunc::Count, 0, 100))
            .unwrap();
        // No key to home the groups by: the exact Count absorbs as
        // per-worker partials behind the keyless root, where with
        // `quotes` keyed on the symbol it would be a full member.
        let plan = n.keyed_plan(&HashMap::new());
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.roots[0].key, None);
        assert_eq!(plan.nodes.len(), 2, "filter + partial aggregate");
        assert!(plan.has_stateful);
        let agg = plan.nodes.last().unwrap();
        assert!(agg.stateful && agg.partial);
        assert!(agg.internal.is_empty());
        assert_eq!(agg.exits, vec![Target::Sink(q)]);
        let full = n.keyed_plan(&keys(&[("quotes", 0)]));
        assert!(!full.nodes.last().unwrap().partial);
    }

    #[test]
    fn one_plan_mixes_keyed_and_keyless_roots() {
        let mut n = network_with_quotes();
        register_news(&mut n);
        // quotes is keyed on the symbol, news is not: the symbol-grouped
        // aggregate runs as a full member, the news filter as a stateless
        // member, and the join across the two roots stays an exit — its
        // right side has no key to meet the left side's shard by.
        n.add_query(high_price_filter().aggregate(Some(0), AggFunc::Max, 1, 100))
            .unwrap();
        let tagged =
            LogicalPlan::source("news").filter(Expr::col(1).eq(Expr::lit(Value::str("up"))));
        let q_join = n
            .add_query(high_price_filter().join(tagged, 0, 0, 100))
            .unwrap();
        let plan = n.keyed_plan(&keys(&[("quotes", 0)]));
        let kinds: Vec<&str> = plan
            .nodes
            .iter()
            .map(|kn| n.node(kn.id).unwrap().kind)
            .collect();
        assert_eq!(kinds, vec!["filter", "aggregate", "filter"]);
        assert!(plan.nodes[1].stateful && !plan.nodes[1].partial);
        let root = |stream| &plan.roots[plan.root_of(stream).unwrap()];
        assert_eq!((root("quotes").key, root("news").key), (Some(0), None));
        assert_eq!(root("quotes").targets, vec![(0, 0)]);
        assert_eq!(root("news").targets, vec![(2, 0)]);
        let join = *n.query(q_join).unwrap().nodes.last().unwrap();
        assert_eq!(n.node(join).unwrap().kind, "join");
        assert!(plan.nodes[0].exits.contains(&Target::Node(join, 0)));
        assert_eq!(plan.nodes[2].exits, vec![Target::Node(join, 1)]);
    }

    #[test]
    fn shards_knob_threads_through_the_network() {
        let mut n = QueryNetwork::new();
        assert_eq!(n.shards(), 1, "single-threaded by default");
        n.set_shards(4);
        assert_eq!(n.shards(), 4);
    }

    #[test]
    #[should_panic(expected = "different schema")]
    fn stream_schema_conflict_panics() {
        let mut n = network_with_quotes();
        n.register_stream("quotes", Schema::new(vec![Field::new("x", DataType::Int)]));
    }
}
