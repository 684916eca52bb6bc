//! Per-layer measurements of the traced run, all taken from outside:
//! timing calls into each layer's public functions and reading the
//! statistics the layers already publish.

use crate::run::{work_delta, PassResult};
use crate::trace::Tracer;
use crate::workloads::{Chunk, Spec};
use cqac_core::mechanisms::{Cat, Mechanism};
use cqac_core::model::{QueryId, UserId};
use cqac_core::units::{Load, Money};
use cqac_dsms::cost::{auction_instance, effective_capacity, CostModel};
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::expr::Expr;
use cqac_dsms::network::CqId;
use cqac_dsms::ops::{Key, OPERATOR_KINDS};
use cqac_dsms::plan::LogicalPlan;
use cqac_dsms::streams::{news_schema, quote_schema};
use cqac_dsms::types::work::WorkSnapshot;
use cqac_dsms::types::{Column, MergeTags, Schema, Tuple, TupleBatch};
use cqac_dsms::Submission;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Per operator kind, what its live nodes have consumed, produced and
/// spent: Σ `Node::{in_count,out_count,busy}` by `Node::kind`.
#[derive(Clone, Debug, Default)]
pub struct NodeTotals {
    /// Indexed like [`OPERATOR_KINDS`]: `(rows in, rows out, busy seconds)`.
    pub by_kind: [(u64, u64, f64); 6],
}

impl NodeTotals {
    pub fn of(engine: &DsmsEngine) -> Self {
        let mut totals = Self::default();
        let network = engine.network();
        for id in network.node_ids() {
            let node = network.node(id).expect("listed node is live");
            let kind = OPERATOR_KINDS
                .iter()
                .position(|k| *k == node.kind)
                .expect("a known operator kind");
            let t = &mut totals.by_kind[kind];
            t.0 += node.in_count;
            t.1 += node.out_count;
            t.2 += node.busy.as_secs_f64();
        }
        totals
    }

    /// Adds `after − before`; the node set must not have changed between.
    pub fn add_delta(&mut self, after: &NodeTotals, before: &NodeTotals) {
        for ((t, a), b) in self
            .by_kind
            .iter_mut()
            .zip(&after.by_kind)
            .zip(&before.by_kind)
        {
            t.0 += a.0 - b.0;
            t.1 += a.1 - b.1;
            t.2 += a.2 - b.2;
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.by_kind.iter().map(|t| t.2).sum()
    }
}

/// Sums over the traced days of what each stage of the auction did.
#[derive(Default)]
pub struct StagedSums {
    pub verify_s: f64,
    pub plans_verified: u64,
    pub plans_rejected: u64,
    pub add_query_s: f64,
    pub calibrate_s: f64,
    pub calibrate_rows: u64,
    pub lower_s: f64,
    pub instance_queries: u64,
    pub instance_operators: u64,
    pub mechanism_s: f64,
    pub winners: u64,
    pub transition_s: f64,
    pub queries_reused: u64,
    pub queries_removed: u64,
}

impl StagedSums {
    pub fn stages_s(&self) -> f64 {
        self.verify_s
            + self.add_query_s
            + self.calibrate_s
            + self.lower_s
            + self.mechanism_s
            + self.transition_s
    }
}

/// The auction replayed stage by stage through the public calls
/// `DsmsCenter::run_auction` makes, in its order, on engines of its own
/// fed the identical submissions: a fresh shadow engine per day, and a
/// second live engine that only ever goes through the transitions.
pub struct StagedAuction {
    live: DsmsEngine,
    active: HashMap<String, Vec<CqId>>,
    streams: Vec<(String, Schema)>,
    shard_keys: Vec<(&'static str, usize)>,
    shards: usize,
    capacity: Load,
    day: u64,
}

impl StagedAuction {
    pub fn new(spec: &Spec, shards: usize) -> Self {
        let streams = vec![
            ("quotes".to_string(), quote_schema()),
            ("news".to_string(), news_schema()),
        ];
        let shard_keys = if spec.keyed {
            vec![("quotes", 0), ("news", 0)]
        } else {
            Vec::new()
        };
        let mut live = DsmsEngine::new().with_shards(shards);
        for (stream, column) in &shard_keys {
            live = live.with_shard_key(stream, *column);
        }
        for (name, schema) in &streams {
            live.register_stream(name.clone(), schema.clone());
        }
        Self {
            live,
            active: HashMap::new(),
            streams,
            shard_keys,
            shards,
            capacity: Load::from_units(spec.capacity),
            day: 0,
        }
    }

    /// Replays one auction; returns, per submission, whether it was
    /// admitted — which must equal what `run_auction` decides.
    pub fn replay(
        &mut self,
        submissions: &[Submission],
        calibration: &[(String, Tuple)],
        tracer: &mut Tracer,
        sums: &mut StagedSums,
    ) -> Vec<bool> {
        let start = Instant::now();
        tracer.open("auction_replay", start);
        let mut shadow = DsmsEngine::new().with_shards(self.shards);
        for (stream, column) in &self.shard_keys {
            shadow = shadow.with_shard_key(stream, *column);
        }
        for (name, schema) in &self.streams {
            shadow.register_stream(name.clone(), schema.clone());
        }

        // `run_auction` verifies and adds submission by submission; the
        // verifier reads the stream catalog alone, so verifying all first
        // builds the same shadow network and gives each stage one span.
        let (valid, t) = tracer.time("diag.verify", || {
            submissions
                .iter()
                .map(|s| !shadow.network().verify_plan(&s.plan).has_errors())
                .collect::<Vec<bool>>()
        });
        sums.verify_s += t.as_secs_f64();
        sums.plans_verified += submissions.len() as u64;
        sums.plans_rejected += valid.iter().filter(|v| !**v).count() as u64;

        let (shadow_cqs, t) = tracer.time("network.add_query", || {
            submissions
                .iter()
                .zip(&valid)
                .map(|(s, ok)| ok.then(|| shadow.add_query(s.plan.clone()).expect("verified plan")))
                .collect::<Vec<Option<CqId>>>()
        });
        sums.add_query_s += t.as_secs_f64();

        let ((), t) = tracer.time("engine.calibrate", || {
            shadow.push_batch(calibration.iter().cloned());
        });
        sums.calibrate_s += t.as_secs_f64();
        sums.calibrate_rows += calibration.len() as u64;

        let bids: Vec<(CqId, UserId, Money)> = submissions
            .iter()
            .zip(&shadow_cqs)
            .filter_map(|(s, cq)| cq.map(|cq| (cq, s.user, s.bid)))
            .collect();
        let capacity = effective_capacity(self.capacity, self.shards);
        let ((inst, _), t) = tracer.time("cost.lower", || {
            auction_instance(&shadow, &bids, capacity, &CostModel::default())
        });
        sums.lower_s += t.as_secs_f64();
        sums.instance_queries += inst.num_queries() as u64;
        sums.instance_operators += inst.num_operators() as u64;

        let (outcome, t) = tracer.time("core.mechanism", || Cat.run_seeded(&inst, self.day));
        sums.mechanism_s += t.as_secs_f64();
        sums.winners += outcome.winners.len() as u64;

        let mut position = 0;
        let admitted: Vec<bool> = shadow_cqs
            .iter()
            .map(|cq| {
                cq.is_some() && {
                    position += 1;
                    outcome.is_winner(QueryId(position - 1))
                }
            })
            .collect();

        let ((), t) = tracer.time("network.transition", || {
            self.live.begin_transition();
            let mut claimable = self.active.clone();
            let mut next_active: HashMap<String, Vec<CqId>> = HashMap::new();
            for (s, _) in submissions.iter().zip(&admitted).filter(|(_, a)| **a) {
                let signature = s.plan.signature();
                let cq = match claimable.get_mut(&signature).and_then(Vec::pop) {
                    Some(cq) => {
                        sums.queries_reused += 1;
                        cq
                    }
                    None => self.live.add_query(s.plan.clone()).expect("verified plan"),
                };
                next_active.entry(signature).or_default().push(cq);
            }
            for cq in claimable.into_values().flatten() {
                self.live.remove_query(cq);
                sums.queries_removed += 1;
            }
            self.active = next_active;
            self.live.end_transition();
        });
        sums.transition_s += t.as_secs_f64();

        self.day += 1;
        tracer.close(Instant::now());
        admitted
    }
}

/// What the stand-alone replays of the `types`, `expr` and `ops` layers
/// measured on the retained chunks.
#[derive(Default)]
pub struct Replays {
    pub from_rows_s: f64,
    pub into_rows_s: f64,
    pub dict_chunk_fraction: f64,
    pub filter_indices_s: f64,
    pub filter_work: WorkSnapshot,
    pub shard_of_s: f64,
    pub interleave_tagged_s: f64,
}

/// The distinct predicates the day's plans apply directly to a stream,
/// per stream, in a fixed order.
fn stream_predicates(submissions: &[Submission]) -> BTreeMap<String, Vec<Expr>> {
    fn visit(plan: &LogicalPlan, out: &mut BTreeMap<String, BTreeMap<String, Expr>>) {
        match plan {
            LogicalPlan::Source { .. } => {}
            LogicalPlan::Filter { input, predicate } => {
                // Only filter chains rooted at a source see the stream's
                // own schema.
                let mut root = input.as_ref();
                while let LogicalPlan::Filter { input, .. } = root {
                    root = input;
                }
                if let LogicalPlan::Source { stream } = root {
                    out.entry(stream.clone())
                        .or_default()
                        .insert(format!("{predicate:?}"), predicate.clone());
                }
                visit(input, out);
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Aggregate { input, .. } => {
                visit(input, out);
            }
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                visit(left, out);
                visit(right, out);
            }
        }
    }
    let mut found = BTreeMap::new();
    for s in submissions {
        visit(&s.plan, &mut found);
    }
    found
        .into_iter()
        .map(|(stream, predicates)| (stream, predicates.into_values().collect()))
        .collect()
}

/// Replays the data-plane layers on the retained chunks of day 0.
pub fn replay_layers(pass: &PassResult, tracer: &mut Tracer) -> Replays {
    let mut replays = Replays::default();
    let start = Instant::now();
    tracer.open("layer_replays", start);
    let schemas = [Arc::new(quote_schema()), Arc::new(news_schema())];
    let streams = |chunk: &Chunk| [chunk.quotes.clone(), chunk.news.clone()];

    // types: rows → columns (with interning) → rows.
    let mut batches: [Vec<TupleBatch>; 2] = [Vec::new(), Vec::new()];
    let mut dict_chunks = 0usize;
    for chunk in &pass.retained {
        for (s, rows) in streams(chunk).into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let (batch, t) = tracer.time("types.from_rows", || {
                TupleBatch::from_rows(schemas[s].clone(), rows)
            });
            replays.from_rows_s += t.as_secs_f64();
            if s == 0 && matches!(batch.column(0), Column::Dict { .. }) {
                dict_chunks += 1;
            }
            let copy = batch.clone();
            let (rows, t) = tracer.time("types.into_rows", || copy.into_rows());
            replays.into_rows_s += t.as_secs_f64();
            drop(rows);
            batches[s].push(batch);
        }
    }
    replays.dict_chunk_fraction = dict_chunks as f64 / pass.retained.len().max(1) as f64;

    // expr: every distinct stream-level predicate over every batch.
    let day0 = pass.day0.as_ref().expect("the pass ran day 0");
    let predicates = stream_predicates(&day0.submissions);
    for (s, name) in ["quotes", "news"].into_iter().enumerate() {
        let Some(predicates) = predicates.get(name) else {
            continue;
        };
        let ((), t) = tracer.time("expr.filter_indices", || {
            let ((), work) = work_delta(|| {
                for batch in &batches[s] {
                    for predicate in predicates {
                        std::hint::black_box(predicate.filter_indices(batch, None));
                    }
                }
            });
            replays.filter_work = crate::run::work_add(&replays.filter_work, &work);
        });
        replays.filter_indices_s += t.as_secs_f64();
    }

    // ops + types: split each quotes batch by the shard of its key, then
    // merge the parts back in sequence order.
    const SHARDS: usize = 2;
    for batch in &batches[0] {
        let (selections, t) = tracer.time("ops.shard_of", || {
            let mut selections = vec![Vec::new(); SHARDS];
            for i in 0..batch.len() {
                let key = Key::from_column(batch.column(0), i).expect("symbol is hashable");
                selections[key.shard_of(SHARDS)].push(i as u32);
            }
            selections
        });
        replays.shard_of_s += t.as_secs_f64();
        let parts: Vec<(TupleBatch, MergeTags)> = selections
            .into_iter()
            .map(|sel| (batch.take(&sel), MergeTags::Rows(sel)))
            .collect();
        let (merged, t) = tracer.time("types.interleave_tagged", || {
            TupleBatch::interleave_tagged(parts)
        });
        replays.interleave_tagged_s += t.as_secs_f64();
        assert_eq!(
            merged.map_or(0, |b| b.len()),
            batch.len(),
            "the merge returns every row"
        );
    }
    tracer.close(Instant::now());
    replays
}
