//! Operator load estimation — the bridge from the running substrate to the
//! auction model.
//!
//! §II assumes "each operator `o_j` has an associated load `c_j` … and this
//! load can at least be reasonably approximated by the system". Here the
//! approximation is measured: after replaying a calibration sample through
//! the (shadow) network, an operator's load is
//!
//! ```text
//! c_j = input_rate_j (tuples/ms) × unit_cost_j × scale
//! ```
//!
//! where `unit_cost_j` is the operator's per-tuple work and `scale`
//! converts abstract work per millisecond into the auction's capacity
//! units. Two sources feed `unit_cost_j`:
//!
//! * the operator's **analytic** unit cost (joins > aggregates > filters) —
//!   deterministic, the default, and what all experiment seeds use;
//! * the **measured** per-tuple cost — the engine times every operator
//!   invocation and the estimator normalizes the node's
//!   cumulative busy time by its tuple count. Batched execution is what
//!   makes this measurement usable: one clock read per *batch* (not per
//!   tuple) keeps probe overhead out of the measured quantity, so the
//!   per-tuple figure stabilizes as batches grow. Opt in with
//!   [`CostModel::measured`].

use crate::engine::DsmsEngine;
use crate::network::{CqId, NodeId};
use cqac_core::model::{AuctionInstance, InstanceBuilder, OperatorId, UserId};
use cqac_core::units::{Load, Money};
use std::collections::HashMap;

/// How a node's per-tuple unit cost is obtained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnitCostSource {
    /// The operator's analytic unit cost (deterministic; the default).
    #[default]
    Analytic,
    /// The measured per-batch timings, normalized to microseconds per
    /// tuple. Falls back to the analytic cost for nodes the calibration
    /// sample never reached.
    Measured,
}

/// Conversion parameters from measured work to auction capacity units.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Capacity units per (tuple/ms × unit-cost). Default 1.0.
    pub scale: f64,
    /// Load charged to a query that sinks a raw stream without any operator
    /// (delivery cost per tuple/ms).
    pub delivery_unit_cost: f64,
    /// Minimum load assigned to any operator (avoids zero-load operators
    /// when the calibration sample misses a path).
    pub min_load: Load,
    /// Where per-tuple unit costs come from.
    pub unit_cost_source: UnitCostSource,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            scale: 1.0,
            delivery_unit_cost: 0.2,
            min_load: Load::from_micro(1_000), // 0.001 capacity units
            unit_cost_source: UnitCostSource::Analytic,
        }
    }
}

impl CostModel {
    /// A model whose unit costs come from the engine's per-batch timing
    /// measurements (µs per tuple) instead of the analytic constants.
    pub fn measured() -> Self {
        Self {
            unit_cost_source: UnitCostSource::Measured,
            ..Self::default()
        }
    }
}

/// One node's estimated load with its provenance.
#[derive(Clone, Debug)]
pub struct NodeLoadEstimate {
    /// The node.
    pub node: NodeId,
    /// Operator kind label.
    pub kind: &'static str,
    /// Measured input rate in tuples per millisecond.
    pub input_rate: f64,
    /// The per-tuple unit cost that entered the load formula (analytic or
    /// measured, per [`CostModel::unit_cost_source`]).
    pub unit_cost: f64,
    /// Mean batch size the node saw during calibration (0 when idle).
    pub mean_batch: f64,
    /// Measured per-tuple processing time in microseconds, when the node
    /// processed at least one tuple.
    pub measured_us_per_tuple: Option<f64>,
    /// The resulting auction load `c_j`.
    pub load: Load,
}

/// The aggregate capacity an admission auction should price against when
/// the engine runs `shards` worker shards: `shards × per-core capacity`.
///
/// This is the capacity-side half of per-shard load aggregation: on the
/// load side, a sharded engine's per-node statistics (`in_count`, `busy`)
/// already sum over every worker shard — `CostModel::measured` therefore
/// observes the *total* multi-core work of an operator, and the auction
/// must compare that total against the total capacity of all cores, not
/// one core's.
///
/// **Keyed stateful sharding** makes this honest for stateful-heavy
/// workloads too: when a stream carries a shard key, every join keyed on
/// it and every aggregate grouping by it executes *inside* the worker
/// shards with per-shard state, and exact aggregates do so with or without
/// a key (see [`crate::network::QueryNetwork::keyed_plan`], the one
/// parallel plan), so their measured loads
/// — which aggregate across shards exactly like stateless loads — really
/// are served by `shards` cores, and the auction admits more stateful
/// bidders at higher shard counts (pinned by the center's
/// `sharded_center_admits_more_keyed_stateful_bidders` test).
///
/// **Residual approximation (Amdahl):** shard-*incompatible* operators
/// (unions, joins/aggregates not keyed by the partition key), the
/// deterministic merge, and sink delivery still run on the control
/// thread; a workload dominated by those can be admitted up to `shards ×`
/// what the control thread alone can serve. The serial fraction has been
/// shrinking release over release — keyed stateful sharding moved
/// compatible joins/aggregates onto the workers, partial aggregation
/// moved exact aggregates at any other key — or behind no key — there too
/// (only the per-window partial-combine fold stays on the control
/// thread), and a job that finishes its own home shard claims any home
/// still unclaimed, so a seat that wakes late does not hold the flush
/// up — but pricing the remaining
/// residue against per-core capacity is still a ROADMAP follow-on.
///
/// **Measured:** on the 2-vCPU reference box, `auction-day`'s
/// `serve_keyed_stateful` serves 1.23 M rows/s at 2 shards against
/// 1.39 M on one (`engine.s1_rows_per_s`) — a ratio of 0.88, where this
/// function assumes 2. Taking a measured factor instead changes which
/// bids win, and is left to a follow-on (ROADMAP direction 1(c)).
pub fn effective_capacity(per_core: Load, shards: usize) -> Load {
    assert!(shards > 0, "shard count must be positive");
    Load::from_units(per_core.as_f64() * shards as f64)
}

/// Measures every live node's load from the engine's accumulated statistics.
///
/// With a sharded engine the statistics aggregate across worker shards
/// (each shard's rows and busy time fold into the same per-node totals),
/// so estimated loads are the query's full multi-core load — price them
/// against [`effective_capacity`].
///
/// The observation window is the event-time span of all pushed streams; an
/// engine that has seen no tuples yields `min_load` for every node.
pub fn estimate_node_loads(engine: &DsmsEngine, model: &CostModel) -> Vec<NodeLoadEstimate> {
    let duration_ms = observation_span_ms(engine).max(1);
    engine
        .network()
        .node_ids()
        .into_iter()
        .map(|id| {
            let node = engine.network().node(id).expect("live node");
            let input_rate = node.in_count as f64 / duration_ms as f64;
            let mean_batch = if node.in_batches == 0 {
                0.0
            } else {
                node.in_count as f64 / node.in_batches as f64
            };
            let measured_us_per_tuple =
                (node.in_count > 0).then(|| node.busy.as_secs_f64() * 1e6 / node.in_count as f64);
            let unit_cost = match model.unit_cost_source {
                UnitCostSource::Analytic => node.op.unit_cost(),
                UnitCostSource::Measured => {
                    measured_us_per_tuple.unwrap_or_else(|| node.op.unit_cost())
                }
            };
            let raw = Load::from_units(input_rate * unit_cost * model.scale);
            let load = raw.max(model.min_load);
            NodeLoadEstimate {
                node: id,
                kind: node.kind,
                input_rate,
                unit_cost,
                mean_batch,
                measured_us_per_tuple,
                load,
            }
        })
        .collect()
}

fn observation_span_ms(engine: &DsmsEngine) -> u64 {
    engine
        .stream_stats()
        .values()
        .map(|s| s.max_ts.saturating_sub(s.min_ts) + 1)
        .max()
        .unwrap_or(0)
}

/// The auction instance built from a calibrated engine: one auction
/// operator per live network node (plus one synthetic *delivery* operator
/// per node-less, source-only query), and one auction query per network
/// query with the caller-provided user and bid.
///
/// Returns the instance together with the instance-index → [`CqId`]
/// mapping.
pub fn auction_instance(
    engine: &DsmsEngine,
    bids: &[(CqId, UserId, Money)],
    capacity: Load,
    model: &CostModel,
) -> (AuctionInstance, Vec<CqId>) {
    let estimates = estimate_node_loads(engine, model);
    let mut builder = InstanceBuilder::new(capacity);
    let mut op_of_node: HashMap<NodeId, OperatorId> = HashMap::new();
    for est in &estimates {
        let op = builder.operator(est.load);
        op_of_node.insert(est.node, op);
    }

    let duration_ms = observation_span_ms(engine).max(1);
    let mut mapping = Vec::with_capacity(bids.len());
    for (cq, user, bid) in bids {
        let info = engine
            .network()
            .query(*cq)
            .unwrap_or_else(|| panic!("bid for unregistered query {cq}"));
        let mut ops: Vec<OperatorId> = info.nodes.iter().map(|n| op_of_node[n]).collect();
        if ops.is_empty() {
            // Source-only query: charge a private delivery operator sized by
            // the stream's measured rate.
            let rate: f64 = info
                .plan
                .input_streams()
                .iter()
                .filter_map(|s| engine.stream_stats().get(s))
                .map(|s| s.count as f64 / duration_ms as f64)
                .sum();
            let load =
                Load::from_units(rate * model.delivery_unit_cost * model.scale).max(model.min_load);
            ops.push(builder.operator(load));
        }
        builder.query_for_user(*user, *bid, &ops);
        mapping.push(*cq);
    }
    let inst = builder.build().expect("engine-derived instance is valid");
    (inst, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::LogicalPlan;
    use crate::types::{DataType, Field, Schema, Tuple, Value};
    use cqac_core::model::QueryId;

    fn quote(ts: u64, sym: &str, price: f64) -> Tuple {
        Tuple::new(ts, vec![Value::str(sym), Value::Float(price)])
    }

    fn calibrated_engine() -> (DsmsEngine, CqId, CqId) {
        let mut e = DsmsEngine::new();
        e.register_stream(
            "quotes",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        );
        let shared =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
        let q1 = e.add_query(shared.clone()).unwrap();
        let q2 = e
            .add_query(shared.filter(Expr::col(0).eq(Expr::lit(Value::str("IBM")))))
            .unwrap();
        // 100 tuples over 100 ms → 1 tuple/ms into the shared filter.
        e.push_batch((0..100).map(|i| {
            (
                "quotes".to_string(),
                quote(
                    i,
                    if i % 2 == 0 { "IBM" } else { "AAPL" },
                    90.0 + (i % 20) as f64,
                ),
            )
        }));
        (e, q1, q2)
    }

    #[test]
    fn loads_scale_with_rate_and_unit_cost() {
        let (e, _, _) = calibrated_engine();
        let model = CostModel::default();
        let estimates = estimate_node_loads(&e, &model);
        assert_eq!(estimates.len(), 2);
        let filter1 = &estimates[0]; // upstream shared filter
        let filter2 = &estimates[1]; // downstream IBM filter
        assert!(filter1.input_rate > filter2.input_rate);
        assert!(filter1.load > filter2.load);
        // 100 tuples over span 100ms → rate 1.0; unit cost 1.0 → load 1.0.
        assert!((filter1.input_rate - 1.0).abs() < 0.02);
        assert_eq!(filter1.load, Load::from_units(filter1.input_rate * 1.0));
    }

    #[test]
    fn auction_instance_reflects_sharing() {
        let (e, q1, q2) = calibrated_engine();
        let bids = vec![
            (q1, UserId(0), Money::from_dollars(10.0)),
            (q2, UserId(1), Money::from_dollars(20.0)),
        ];
        let (inst, mapping) =
            auction_instance(&e, &bids, Load::from_units(100.0), &CostModel::default());
        assert_eq!(mapping, vec![q1, q2]);
        assert_eq!(inst.num_queries(), 2);
        assert_eq!(inst.num_operators(), 2);
        // The shared filter has sharing degree 2.
        assert_eq!(inst.max_degree_of_sharing(), 2);
        // q2's total load strictly exceeds q1's (superset of operators).
        assert!(inst.total_load(QueryId(1)) > inst.total_load(QueryId(0)));
    }

    #[test]
    fn source_only_query_gets_delivery_operator() {
        let mut e = DsmsEngine::new();
        e.register_stream(
            "quotes",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        );
        let cq = e.add_query(LogicalPlan::source("quotes")).unwrap();
        e.push_batch((0..50).map(|i| ("quotes".to_string(), quote(i, "A", 1.0))));
        let (inst, _) = auction_instance(
            &e,
            &[(cq, UserId(0), Money::from_dollars(5.0))],
            Load::from_units(10.0),
            &CostModel::default(),
        );
        assert_eq!(inst.num_operators(), 1);
        assert!(inst.total_load(QueryId(0)) > Load::ZERO);
    }

    #[test]
    fn measured_costs_come_from_batch_timings() {
        let (e, _, _) = calibrated_engine();
        let estimates = estimate_node_loads(&e, &CostModel::measured());
        for est in &estimates {
            let measured = est
                .measured_us_per_tuple
                .expect("calibrated nodes have timings");
            assert!(measured > 0.0);
            assert_eq!(est.unit_cost, measured, "measured mode uses the timing");
            assert!(est.mean_batch >= 1.0, "batched ingestion amortizes timing");
            assert!(est.load >= CostModel::default().min_load);
        }
    }

    /// Runs `chain` through a fused and an unfused engine over the same
    /// feed and returns the two total analytic loads.
    fn total_loads(
        chain: &LogicalPlan,
        feed: &[Tuple],
        expected_unfused_nodes: usize,
    ) -> (f64, f64) {
        let schema = || {
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ])
        };
        let mut fused = DsmsEngine::new();
        fused.register_stream("quotes", schema());
        let mut unfused = DsmsEngine::new().with_fusion(false);
        unfused.register_stream("quotes", schema());
        fused.add_query(chain.clone()).unwrap();
        unfused.add_query(chain.clone()).unwrap();
        fused.push_rows("quotes", feed.to_vec());
        unfused.push_rows("quotes", feed.to_vec());

        let model = CostModel::default();
        let fused_est = estimate_node_loads(&fused, &model);
        let unfused_est = estimate_node_loads(&unfused, &model);
        assert_eq!(fused_est.len(), 1);
        assert_eq!(unfused_est.len(), expected_unfused_nodes);
        (
            fused_est.iter().map(|e| e.load.as_f64()).sum(),
            unfused_est.iter().map(|e| e.load.as_f64()).sum(),
        )
    }

    #[test]
    fn fused_chain_charges_the_summed_analytic_load() {
        // Selectivity-1 chain: every stage of the unfused network sees the
        // full input rate, so the fused node's effective cost degenerates
        // to the plain sum and the totals match exactly.
        let chain = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0))))
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(-1.0))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let feed: Vec<Tuple> = (0..200).map(|i| quote(i, "IBM", 50.0)).collect();
        let (fused_total, unfused_total) = total_loads(&chain, &feed, 3);
        assert!(
            (fused_total - unfused_total).abs() < 1e-3,
            "fused {fused_total} vs unfused {unfused_total}"
        );
    }

    #[test]
    fn fused_chain_load_tracks_intra_chain_selectivity() {
        // Half the rows pass the filter, so the unfused project node sees
        // half the rate. The fused node's selectivity-aware effective cost
        // must reproduce that — not charge every input row the full chain
        // sum (which would inflate admission prices ~1.6× here and change
        // auction outcomes).
        let chain = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let feed: Vec<Tuple> = (0..200)
            .map(|i| quote(i, "IBM", if i % 2 == 0 { 50.0 } else { 150.0 }))
            .collect();
        let (fused_total, unfused_total) = total_loads(&chain, &feed, 2);
        assert!(
            (fused_total - unfused_total).abs() < 1e-3,
            "fused {fused_total} vs unfused {unfused_total}"
        );
        // And it is strictly below the naive full-sum charge.
        let naive = 200.0 / 200.0 * (1.0 + 1.2);
        assert!(fused_total < naive - 0.5);
    }

    #[test]
    fn measured_cost_path_covers_fused_nodes() {
        let chain = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let mut e = DsmsEngine::new();
        e.register_stream(
            "quotes",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        );
        e.add_query(chain).unwrap();
        e.push_rows("quotes", (0..200).map(|i| quote(i, "IBM", 50.0)).collect());
        let measured = estimate_node_loads(&e, &CostModel::measured());
        assert_eq!(measured.len(), 1);
        assert!(measured[0].measured_us_per_tuple.is_some());
    }

    #[test]
    fn effective_capacity_scales_with_shards() {
        let per_core = Load::from_units(1.5);
        assert_eq!(effective_capacity(per_core, 1), per_core);
        assert_eq!(effective_capacity(per_core, 4), Load::from_units(6.0));
    }

    #[test]
    fn sharded_engine_measures_the_same_aggregate_load() {
        // The same feed through a 1-shard and a 4-shard engine must yield
        // identical analytic load estimates: per-shard input counts fold
        // into the same per-node totals.
        let schema = || {
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ])
        };
        let plan =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
        let feed: Vec<Tuple> = (0..200)
            .map(|i| {
                quote(
                    i,
                    if i % 2 == 0 { "IBM" } else { "AAPL" },
                    90.0 + (i % 20) as f64,
                )
            })
            .collect();
        let mut single = DsmsEngine::new().with_max_batch_size(16);
        single.register_stream("quotes", schema());
        single.add_query(plan.clone()).unwrap();
        single.push_rows("quotes", feed.clone());
        let mut sharded = DsmsEngine::new().with_max_batch_size(16).with_shards(4);
        sharded.register_stream("quotes", schema());
        sharded.set_shard_key("quotes", 0).unwrap();
        sharded.add_query(plan).unwrap();
        sharded.push_rows("quotes", feed);

        let model = CostModel::default();
        let single_est = estimate_node_loads(&single, &model);
        let sharded_est = estimate_node_loads(&sharded, &model);
        assert_eq!(single_est.len(), sharded_est.len());
        for (a, b) in single_est.iter().zip(&sharded_est) {
            assert_eq!(a.load, b.load, "aggregate load is shard-count invariant");
            assert!((a.input_rate - b.input_rate).abs() < 1e-9);
        }
        // Measured mode still has timings for every calibrated node.
        for est in estimate_node_loads(&sharded, &CostModel::measured()) {
            assert!(est.measured_us_per_tuple.is_some());
        }
    }

    #[test]
    fn keyed_stateful_loads_are_shard_count_invariant() {
        // A grouped aggregate keyed by the shard key runs *inside* the
        // shards (merge barrier moved past it); its per-shard input counts
        // must still fold into the same aggregate load a single-threaded
        // engine estimates — that invariance is what makes pricing keyed
        // stateful nodes against `effective_capacity` honest.
        use crate::plan::AggFunc;
        let schema = || {
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ])
        };
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(50.0))))
            .aggregate(Some(0), AggFunc::Count, 0, 40);
        let feed: Vec<Tuple> = (0..300)
            .map(|i| {
                quote(
                    i,
                    if i % 2 == 0 { "IBM" } else { "AAPL" },
                    40.0 + (i % 40) as f64,
                )
            })
            .collect();
        let run = |shards: usize| {
            let mut e = DsmsEngine::new()
                .with_max_batch_size(16)
                .with_shards(shards);
            e.register_stream("quotes", schema());
            if shards > 1 {
                e.set_shard_key("quotes", 0).unwrap();
            }
            e.add_query(plan.clone()).unwrap();
            e.push_rows("quotes", feed.clone());
            estimate_node_loads(&e, &CostModel::default())
        };
        let single = run(1);
        let sharded = run(4);
        assert_eq!(single.len(), sharded.len());
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(
                a.load, b.load,
                "keyed stateful load is shard-count invariant"
            );
        }
        assert!(sharded.iter().any(|e| e.kind == "aggregate"));
    }

    #[test]
    fn empty_engine_yields_min_loads() {
        let mut e = DsmsEngine::new();
        e.register_stream(
            "quotes",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        );
        let _cq = e
            .add_query(
                LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(1.0)))),
            )
            .unwrap();
        let model = CostModel::default();
        let estimates = estimate_node_loads(&e, &model);
        assert_eq!(estimates[0].load, model.min_load);
    }
}
