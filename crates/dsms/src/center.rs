//! The for-profit DSMS center: the business loop the paper's introduction
//! sketches — collect bids once per subscription period, run the admission
//! auction, transition the query network to the winner set, and bill.
//!
//! ```text
//!        submissions (plan + bid)          streams
//!              │                              │
//!              ▼                              ▼
//!  ┌─ auction day ───────────────┐   ┌─ serving ────────┐
//!  │ shadow-calibrate loads c_j  │   │ engine.push(...) │
//!  │ build AuctionInstance       │   │ outputs per CQ   │
//!  │ run Mechanism (CAT, …)      │   └──────────────────┘
//!  │ transition network          │
//!  │ record ledger               │
//!  └─────────────────────────────┘
//! ```
//!
//! Continuing queries — winners on consecutive days with identical plans —
//! keep their operator state across the day boundary via the engine's
//! transition phase (§II).

use crate::cost::{auction_instance, effective_capacity, CostModel};
use crate::diag::Report;
use crate::engine::{DsmsEngine, OverloadPolicy};
use crate::network::CqId;
use crate::plan::{LogicalPlan, PlanError};
use crate::types::{Schema, Tuple};
use cqac_core::mechanisms::Mechanism;
use cqac_core::model::{QueryId, UserId};
use cqac_core::units::{Load, Money};
use std::collections::HashMap;

/// A user's daily submission: her continuous query and her bid for running
/// it through the next subscription period.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The bidding user.
    pub user: UserId,
    /// The declared bid `b_i`.
    pub bid: Money,
    /// The continuous query.
    pub plan: LogicalPlan,
}

/// The center's decision for one submission.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Index into the day's submission list.
    pub submission: usize,
    /// The bidding user.
    pub user: UserId,
    /// Whether the query was admitted for the next period.
    pub admitted: bool,
    /// The payment charged (zero for rejected queries).
    pub payment: Money,
    /// The live query id, for admitted queries.
    pub cq: Option<CqId>,
    /// Static-verification diagnostics, for submissions rejected *before*
    /// the auction ran (the plan failed [`crate::diag::check_plan`]).
    /// `None` for every submission that entered the auction — losing a
    /// well-formed bid is not a verification failure.
    pub rejection: Option<Report>,
}

/// Ledger entry for one auction day.
#[derive(Clone, Debug)]
pub struct DayRecord {
    /// Day counter (starts at 0).
    pub day: u32,
    /// Mechanism used.
    pub mechanism: String,
    /// Per-submission decisions.
    pub decisions: Vec<Decision>,
    /// Total revenue of the day's auction.
    pub profit: Money,
    /// Estimated load of the admitted set.
    pub admitted_load: Load,
    /// Fraction of capacity the admitted set uses (0..=1).
    pub utilization: f64,
}

/// The DSMS cloud center (see module docs).
pub struct DsmsCenter {
    engine: DsmsEngine,
    capacity: Load,
    mechanism: Box<dyn Mechanism>,
    cost_model: CostModel,
    streams: Vec<(String, Schema)>,
    /// Live queries from the latest auction, keyed by plan signature;
    /// several identical plans map to several entries in the Vec.
    active: HashMap<String, Vec<CqId>>,
    /// Users whose queries were quarantined during the serving phase,
    /// with the quarantine report. Consumed by the **next** auction: their
    /// submissions are rejected pre-auction, then the ban is lifted.
    banned: HashMap<UserId, Report>,
    ledger: Vec<DayRecord>,
    day: u32,
}

impl std::fmt::Debug for DsmsCenter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmsCenter")
            .field("capacity", &self.capacity)
            .field("mechanism", &self.mechanism.name())
            .field("day", &self.day)
            .field("active_queries", &self.engine.network().num_queries())
            .finish()
    }
}

impl DsmsCenter {
    /// A center with the given capacity and admission mechanism.
    pub fn new(capacity: Load, mechanism: Box<dyn Mechanism>) -> Self {
        Self {
            engine: DsmsEngine::new(),
            capacity,
            mechanism,
            cost_model: CostModel::default(),
            streams: Vec::new(),
            active: HashMap::new(),
            banned: HashMap::new(),
            ledger: Vec::new(),
            day: 0,
        }
    }

    /// Overrides the cost model used for load estimation.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Overrides the ingestion batch-size cap used by both the serving
    /// engine and the per-auction shadow calibration engines.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.engine.set_max_batch_size(n);
        self
    }

    /// Enables or disables stateless-operator fusion (on by default) for
    /// both the serving engine and the per-auction shadow calibration
    /// engines — the knob next to the batch-size knob. Shadow engines must
    /// match the serving engine's shape so measured loads price the network
    /// that will actually run.
    pub fn with_fusion(mut self, enabled: bool) -> Self {
        self.engine.set_fusion(enabled);
        self
    }

    /// Sets the worker-shard count (default 1) for the serving engine and
    /// the per-auction shadow calibration engines — the knob next to the
    /// batch-size and fusion knobs. The center's `capacity` is **per
    /// core**: the auction prices the admitted set against
    /// [`effective_capacity`] (`shards × capacity`), which is honest
    /// exactly because a sharded engine's measured per-node loads aggregate
    /// every worker shard's work.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.engine.set_shards(n);
        self
    }

    /// Hash-partitions a stream on `column` for the serving engine *and*
    /// the per-auction shadow calibration engines. With a shard key set,
    /// joins keyed on it and aggregates grouping by it execute inside the
    /// worker shards (keyed stateful sharding), so their measured loads
    /// genuinely scale with the shard count the auction prices against.
    ///
    /// May be called before the stream is registered, like
    /// [`crate::engine::DsmsEngine::set_shard_key`].
    /// # Panics
    /// Panics when the stream is registered and the key is invalid (see
    /// [`crate::engine::DsmsEngine::set_shard_key`]'s error conditions).
    pub fn with_shard_key(mut self, stream: &str, column: usize) -> Self {
        self.engine
            .set_shard_key(stream, column)
            .expect("invalid shard key");
        self
    }

    /// Caps serving-phase ingestion at `rows_per_flush` buffered rows per
    /// flush (an [`OverloadPolicy`] on the serving engine). Under a flash
    /// crowd the engine sheds whole batches from the **lowest-priority**
    /// streams first, where each stream's priority is the highest bid among
    /// the admitted queries reading it — refreshed after every auction — so
    /// the paying customers' data survives. Shed volume is visible in
    /// [`crate::engine::StreamStats::rows_shed`] and
    /// [`crate::engine::DsmsEngine::overload_report`].
    #[must_use]
    pub fn with_ingress_guard(mut self, rows_per_flush: u64) -> Self {
        self.engine.set_overload_policy(Some(OverloadPolicy {
            max_rows_per_flush: rows_per_flush,
        }));
        self
    }

    /// Registers an input stream (must precede submissions that read it).
    pub fn register_stream(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        self.engine.register_stream(name.clone(), schema.clone());
        self.streams.push((name, schema));
    }

    /// The serving engine (read access — e.g. for output inspection).
    pub fn engine(&self) -> &DsmsEngine {
        &self.engine
    }

    /// The serving engine, mutably — e.g. to install a
    /// [`crate::fault::FaultPlan`] in robustness tests, or to tune the
    /// [`OverloadPolicy`] after construction.
    pub fn engine_mut(&mut self) -> &mut DsmsEngine {
        &mut self.engine
    }

    /// Billing history.
    pub fn ledger(&self) -> &[DayRecord] {
        &self.ledger
    }

    /// Runs one end-of-period auction:
    ///
    /// 1. builds a **shadow engine** with every submitted plan and replays
    ///    `calibration` through it to measure operator loads;
    /// 2. lowers the shadow network into an [`cqac_core::model::AuctionInstance`]
    ///    (operators = shared nodes, loads = measured `c_j`);
    /// 3. runs the configured mechanism;
    /// 4. transitions the live network: admitted plans are added (or kept,
    ///    preserving state, when an identical plan is already running) and
    ///    non-admitted actives are removed;
    /// 5. records payments in the ledger.
    ///
    /// A user whose query was **quarantined** during the previous serving
    /// phase (an operator panic attributed to her query — see
    /// [`crate::engine::QuarantineEvent`]) sits this auction out: her
    /// submission is rejected pre-auction with the quarantine report
    /// attached, and the ban is lifted afterwards.
    pub fn run_auction(
        &mut self,
        submissions: &[Submission],
        calibration: &[(String, Tuple)],
    ) -> Result<DayRecord, PlanError> {
        // 1. Shadow calibration.
        let mut shadow = DsmsEngine::new()
            .with_max_batch_size(self.engine.max_batch_size())
            .with_fusion(self.engine.fusion_enabled())
            .with_shards(self.engine.shards());
        // Shadow engines must run the serving engine's exact shape —
        // including which stateful operators shard — so measured loads
        // price the network that will actually serve.
        for (stream, &column) in self.engine.shard_keys() {
            shadow
                .set_shard_key(stream, column)
                .expect("serving engine's shard keys are valid");
        }
        for (name, schema) in &self.streams {
            shadow.register_stream(name.clone(), schema.clone());
        }
        // Statically verify every submission; invalid bidders are rejected
        // here, with the full diagnostic report, and never enter the
        // auction — so one malformed plan cannot sink the whole day.
        // Likewise bidders banned by a serving-phase quarantine: they are
        // rejected with the quarantine report, for this one round only.
        let banned = std::mem::take(&mut self.banned);
        let mut shadow_cqs: Vec<Option<CqId>> = Vec::with_capacity(submissions.len());
        let mut rejections: Vec<Option<Report>> = Vec::with_capacity(submissions.len());
        for s in submissions {
            if let Some(report) = banned.get(&s.user) {
                shadow_cqs.push(None);
                rejections.push(Some(report.clone()));
                continue;
            }
            let report = shadow.network().verify_plan(&s.plan);
            if report.has_errors() {
                shadow_cqs.push(None);
                rejections.push(Some(report));
            } else {
                shadow_cqs.push(Some(shadow.add_query(s.plan.clone())?));
                rejections.push(None);
            }
        }
        // `push_batch` without its owned stream names: only tuples clone.
        for (stream, tuple) in calibration {
            shadow.push(stream, tuple.clone());
        }
        shadow.run_until_quiescent();

        // 2. The auction instance, over the verified submissions only.
        // `auction_pos[idx]` is submission `idx`'s index into the bid list
        // (and hence its `QueryId` in the mechanism's outcome).
        let mut bids: Vec<(CqId, UserId, Money)> = Vec::new();
        let mut auction_pos: Vec<Option<usize>> = Vec::with_capacity(submissions.len());
        for (s, cq) in submissions.iter().zip(&shadow_cqs) {
            match cq {
                Some(cq) => {
                    auction_pos.push(Some(bids.len()));
                    bids.push((*cq, s.user, s.bid));
                }
                None => auction_pos.push(None),
            }
        }
        // The auction prices against the aggregate multi-shard capacity.
        let capacity = effective_capacity(self.capacity, self.engine.shards());
        let (inst, mapping) = auction_instance(&shadow, &bids, capacity, &self.cost_model);

        // 3. Run the mechanism, seeded by the day for reproducibility.
        let outcome = self.mechanism.run_seeded(&inst, u64::from(self.day));
        debug_assert!(outcome.validate(&inst).is_ok());

        // 4. Transition the live network.
        self.engine.begin_transition();
        // Claimable continuing queries by plan signature.
        let mut claimable: HashMap<String, Vec<CqId>> = self.active.clone();
        let mut next_active: HashMap<String, Vec<CqId>> = HashMap::new();
        let mut decisions = Vec::with_capacity(submissions.len());
        for (idx, submission) in submissions.iter().enumerate() {
            let (admitted, payment) = match auction_pos[idx] {
                Some(pos) => {
                    let auction_qid = QueryId(pos as u32);
                    debug_assert_eq!(Some(mapping[pos]), shadow_cqs[idx]);
                    (outcome.is_winner(auction_qid), outcome.payment(auction_qid))
                }
                // Rejected by static verification: never auctioned.
                None => (false, Money::ZERO),
            };
            let cq = if admitted {
                let signature = submission.plan.signature();
                let reused = claimable.get_mut(&signature).and_then(Vec::pop);
                let cq = match reused {
                    Some(cq) => cq,
                    None => self.engine.add_query(submission.plan.clone())?,
                };
                next_active.entry(signature).or_default().push(cq);
                Some(cq)
            } else {
                None
            };
            decisions.push(Decision {
                submission: idx,
                user: submission.user,
                admitted,
                payment,
                cq,
                rejection: rejections[idx].take(),
            });
        }
        // Retire every active query that was not claimed by a winner.
        for (_, leftovers) in claimable {
            for cq in leftovers {
                let removed = self.engine.remove_query(cq);
                debug_assert!(removed.is_some(), "active query {cq} is registered");
            }
        }
        self.active = next_active;
        self.engine.end_transition();
        self.refresh_stream_priorities(submissions, &decisions);

        // 5. Ledger.
        let record = DayRecord {
            day: self.day,
            mechanism: self.mechanism.name().to_string(),
            decisions,
            profit: outcome.profit(),
            admitted_load: outcome.used_capacity,
            utilization: outcome.utilization(&inst),
        };
        self.ledger.push(record.clone());
        self.day += 1;
        Ok(record)
    }

    /// Re-derives each registered stream's shedding priority from the
    /// day's admitted bids: a stream's priority is the highest bid (in
    /// micro-dollars, exact) among the admitted queries reading it, zero
    /// when nobody admitted reads it — so under overload the engine sheds
    /// the cheapest subscribers' data first.
    fn refresh_stream_priorities(&mut self, submissions: &[Submission], decisions: &[Decision]) {
        let mut best: HashMap<String, u64> = HashMap::new();
        for decision in decisions.iter().filter(|d| d.admitted) {
            let submission = &submissions[decision.submission];
            for stream in submission.plan.input_streams() {
                let entry = best.entry(stream).or_insert(0);
                *entry = (*entry).max(submission.bid.micro());
            }
        }
        for (name, _) in &self.streams {
            self.engine
                .set_stream_priority(name.clone(), best.get(name).copied().unwrap_or(0));
        }
    }

    /// Absorbs the serving engine's quarantine events into the business
    /// state: a quarantined query's bidder has her payment refunded for the
    /// current day (the center failed to serve her full period), her query
    /// is dropped from the active set, and she is excluded from the next
    /// auction round (pre-auction rejection carrying the quarantine
    /// report).
    fn absorb_quarantines(&mut self) {
        for event in self.engine.take_quarantine_events() {
            for cq in &event.queries {
                for list in self.active.values_mut() {
                    list.retain(|c| c != cq);
                }
                if let Some(day) = self.ledger.last_mut() {
                    let mut refunded = Money::ZERO;
                    for decision in day.decisions.iter_mut().filter(|d| d.cq == Some(*cq)) {
                        refunded += decision.payment;
                        decision.payment = Money::ZERO;
                        self.banned.insert(decision.user, event.report.clone());
                    }
                    day.profit = day.profit.saturating_sub(refunded);
                }
            }
        }
        self.active.retain(|_, list| !list.is_empty());
    }

    /// Feeds stream data through the live network (the serving phase) as
    /// batches. An operator panic during processing quarantines the owning
    /// queries only — the push itself never unwinds for other subscribers —
    /// and the center then refunds and bans the affected bidders (see
    /// [`DsmsCenter::run_auction`]).
    ///
    /// # Panics
    /// Panics when `stream` was never registered with
    /// [`DsmsCenter::register_stream`].
    pub fn process(&mut self, stream: &str, tuples: Vec<Tuple>) {
        self.engine.push_rows(stream, tuples);
        self.absorb_quarantines();
    }

    /// Takes a live query's accumulated outputs.
    pub fn take_outputs(&mut self, cq: CqId) -> Vec<Tuple> {
        self.engine.take_outputs(cq)
    }

    /// Total revenue across all recorded days.
    pub fn total_revenue(&self) -> Money {
        self.ledger.iter().map(|r| r.profit).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::streams::{quote_schema, StockStream};
    use crate::types::Value;
    use cqac_core::mechanisms::Cat;

    fn high_price(threshold: f64) -> LogicalPlan {
        LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(threshold))))
    }

    fn calibration_sample(n: usize) -> Vec<(String, Tuple)> {
        StockStream::new(&["IBM", "AAPL", "MSFT"], 1, 99)
            .next_batch(n)
            .into_iter()
            .map(|t| ("quotes".to_string(), t))
            .collect()
    }

    fn center(capacity: f64) -> DsmsCenter {
        let mut c = DsmsCenter::new(Load::from_units(capacity), Box::new(Cat));
        c.register_stream("quotes", quote_schema());
        c
    }

    #[test]
    fn auction_admits_within_capacity_and_bills() {
        // Plenty of capacity: everyone gets in, nobody pays (no loser).
        let mut c = center(1000.0);
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(30.0),
                plan: high_price(100.0),
            },
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(20.0),
                plan: high_price(150.0),
            },
        ];
        let record = c
            .run_auction(&submissions, &calibration_sample(500))
            .unwrap();
        assert!(record.decisions.iter().all(|d| d.admitted));
        assert_eq!(record.profit, Money::ZERO);
        assert_eq!(c.engine().network().num_queries(), 2);
    }

    #[test]
    fn scarce_capacity_rejects_and_charges() {
        // Capacity fits roughly one filter's load (rate ≈ 1 t/ms, unit cost
        // 1.0 → load ≈ 1): two disjoint-threshold queries compete.
        let mut c = center(1.2);
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(90.0),
                plan: high_price(100.0),
            },
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(10.0),
                plan: high_price(150.0),
            },
        ];
        let record = c
            .run_auction(&submissions, &calibration_sample(2000))
            .unwrap();
        let admitted: Vec<bool> = record.decisions.iter().map(|d| d.admitted).collect();
        assert_eq!(admitted, vec![true, false]);
        assert!(
            record.profit > Money::ZERO,
            "the winner pays a loser-quoted price"
        );
        assert_eq!(c.engine().network().num_queries(), 1);
    }

    #[test]
    fn continuing_queries_keep_their_cq_across_days() {
        let mut c = center(1000.0);
        let submission = Submission {
            user: UserId(0),
            bid: Money::from_dollars(30.0),
            plan: high_price(100.0),
        };
        let day0 = c
            .run_auction(std::slice::from_ref(&submission), &calibration_sample(300))
            .unwrap();
        let cq0 = day0.decisions[0].cq.unwrap();
        let day1 = c
            .run_auction(&[submission], &calibration_sample(300))
            .unwrap();
        let cq1 = day1.decisions[0].cq.unwrap();
        assert_eq!(
            cq0, cq1,
            "identical winning plan continues under the same id"
        );
    }

    #[test]
    fn losing_renewal_is_retired() {
        let mut c = center(1000.0);
        let sub = |bid: f64| Submission {
            user: UserId(0),
            bid: Money::from_dollars(bid),
            plan: high_price(100.0),
        };
        c.run_auction(&[sub(30.0)], &calibration_sample(300))
            .unwrap();
        assert_eq!(c.engine().network().num_queries(), 1);
        // Next day the user does not resubmit; the query is retired.
        let record = c.run_auction(&[], &calibration_sample(300)).unwrap();
        assert!(record.decisions.is_empty());
        assert_eq!(c.engine().network().num_queries(), 0);
    }

    #[test]
    fn serving_after_admission_produces_outputs() {
        let mut c = center(1000.0);
        let record = c
            .run_auction(
                &[Submission {
                    user: UserId(0),
                    bid: Money::from_dollars(30.0),
                    plan: high_price(50.0),
                }],
                &calibration_sample(300),
            )
            .unwrap();
        let cq = record.decisions[0].cq.unwrap();
        let mut feed = StockStream::new(&["IBM"], 1, 7);
        c.process("quotes", feed.next_batch(200));
        let outputs = c.take_outputs(cq);
        assert!(!outputs.is_empty(), "admitted query must produce results");
    }

    #[test]
    fn fusion_knob_reaches_serving_and_shadow_engines() {
        let chain = high_price(100.0)
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let submission = Submission {
            user: UserId(0),
            bid: Money::from_dollars(30.0),
            plan: chain,
        };
        for (fusion, expected_nodes) in [(true, 1usize), (false, 3)] {
            let mut c =
                DsmsCenter::new(Load::from_units(1000.0), Box::new(Cat)).with_fusion(fusion);
            c.register_stream("quotes", quote_schema());
            let record = c
                .run_auction(std::slice::from_ref(&submission), &calibration_sample(300))
                .unwrap();
            assert!(record.decisions[0].admitted);
            assert_eq!(
                c.engine().network().num_nodes(),
                expected_nodes,
                "fusion={fusion}"
            );
        }
    }

    #[test]
    fn sharded_center_auctions_against_aggregate_capacity() {
        // Per-core capacity fits one filter's load (≈1). Single-threaded
        // the second bidder is rejected; with 2 worker shards the same
        // per-core capacity prices 2× and both fit.
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(90.0),
                plan: high_price(100.0),
            },
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(10.0),
                plan: high_price(150.0),
            },
        ];
        for (shards, expected) in [(1usize, vec![true, false]), (2, vec![true, true])] {
            let mut c = DsmsCenter::new(Load::from_units(1.2), Box::new(Cat)).with_shards(shards);
            c.register_stream("quotes", quote_schema());
            let record = c
                .run_auction(&submissions, &calibration_sample(2000))
                .unwrap();
            let admitted: Vec<bool> = record.decisions.iter().map(|d| d.admitted).collect();
            assert_eq!(admitted, expected, "shards={shards}");
        }
    }

    #[test]
    fn sharded_serving_matches_single_threaded_outputs() {
        let run = |shards: usize| {
            let mut c = DsmsCenter::new(Load::from_units(1000.0), Box::new(Cat))
                .with_batch_size(32)
                .with_shards(shards);
            c.register_stream("quotes", quote_schema());
            let record = c
                .run_auction(
                    &[Submission {
                        user: UserId(0),
                        bid: Money::from_dollars(30.0),
                        plan: high_price(50.0),
                    }],
                    &calibration_sample(300),
                )
                .unwrap();
            let cq = record.decisions[0].cq.unwrap();
            let mut feed = StockStream::new(&["IBM", "AAPL"], 1, 7);
            c.process("quotes", feed.next_batch(500));
            c.take_outputs(cq)
        };
        assert_eq!(run(1), run(4), "serving outputs are shard-count invariant");
    }

    #[test]
    fn sharded_center_admits_more_keyed_stateful_bidders() {
        // Two *stateful* bidders: grouped aggregates keyed by the shard
        // key (symbol), which execute inside the shards. Per-core capacity
        // fits roughly one aggregate's load; single-threaded the weaker
        // bid loses, while 2 worker shards double the priced capacity and
        // both stateful bidders fit — the auction now admits stateful
        // load beyond one core because the engine really absorbs it.
        use crate::plan::AggFunc;
        let agg = |threshold: f64| {
            LogicalPlan::source("quotes")
                .filter(Expr::col(1).gt(Expr::lit(Value::Float(threshold))))
                .aggregate(Some(0), AggFunc::Count, 0, 100)
        };
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(90.0),
                plan: agg(10.0),
            },
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(10.0),
                plan: agg(60.0),
            },
        ];
        for (shards, expected) in [(1usize, vec![true, false]), (2, vec![true, true])] {
            let mut c = DsmsCenter::new(Load::from_units(3.5), Box::new(Cat))
                .with_shards(shards)
                .with_shard_key("quotes", 0);
            c.register_stream("quotes", quote_schema());
            let record = c
                .run_auction(&submissions, &calibration_sample(2000))
                .unwrap();
            let admitted: Vec<bool> = record.decisions.iter().map(|d| d.admitted).collect();
            assert_eq!(admitted, expected, "shards={shards}");
        }
    }

    #[test]
    fn keyed_stateful_serving_matches_single_threaded() {
        use crate::plan::AggFunc;
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))))
            .aggregate(Some(0), AggFunc::Avg, 1, 200);
        let run = |shards: usize| {
            let mut c = DsmsCenter::new(Load::from_units(1000.0), Box::new(Cat))
                .with_batch_size(32)
                .with_shards(shards)
                .with_shard_key("quotes", 0);
            c.register_stream("quotes", quote_schema());
            let record = c
                .run_auction(
                    &[Submission {
                        user: UserId(0),
                        bid: Money::from_dollars(30.0),
                        plan: plan.clone(),
                    }],
                    &calibration_sample(300),
                )
                .unwrap();
            let cq = record.decisions[0].cq.unwrap();
            let mut feed = StockStream::new(&["IBM", "AAPL", "MSFT"], 1, 7);
            c.process("quotes", feed.next_batch(800));
            c.take_outputs(cq)
        };
        let single = run(1);
        assert!(!single.is_empty());
        assert_eq!(
            single,
            run(4),
            "keyed stateful serving is shard-count invariant"
        );
    }

    #[test]
    fn invalid_bidder_rejected_pre_auction_with_diagnostics() {
        use crate::diag::Code;
        let mut c = center(1000.0);
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(30.0),
                plan: high_price(100.0),
            },
            // Float group key AND zero window: statically invalid.
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(500.0),
                plan: LogicalPlan::source("quotes").aggregate(
                    Some(1),
                    crate::plan::AggFunc::Count,
                    0,
                    0,
                ),
            },
        ];
        let record = c
            .run_auction(&submissions, &calibration_sample(300))
            .unwrap();
        // The valid bidder's day is unaffected by the invalid one.
        assert!(record.decisions[0].admitted);
        assert!(record.decisions[0].rejection.is_none());
        // The invalid bidder never entered the auction: not admitted, not
        // charged, and handed the full accumulated report.
        let rejected = &record.decisions[1];
        assert!(!rejected.admitted);
        assert_eq!(rejected.payment, Money::ZERO);
        assert_eq!(rejected.cq, None);
        let report = rejected.rejection.as_ref().expect("structured rejection");
        assert!(report.has_code(Code::UnhashableGroupKey));
        assert!(report.has_code(Code::ZeroWindow));
        assert_eq!(report.num_errors(), 2);
        assert_eq!(c.engine().network().num_queries(), 1);
    }

    #[test]
    fn revenue_accumulates_across_days() {
        let mut c = center(1.2);
        let submissions = vec![
            Submission {
                user: UserId(0),
                bid: Money::from_dollars(90.0),
                plan: high_price(100.0),
            },
            Submission {
                user: UserId(1),
                bid: Money::from_dollars(10.0),
                plan: high_price(150.0),
            },
        ];
        c.run_auction(&submissions, &calibration_sample(2000))
            .unwrap();
        c.run_auction(&submissions, &calibration_sample(2000))
            .unwrap();
        assert_eq!(c.ledger().len(), 2);
        assert!(c.total_revenue() > Money::ZERO);
        assert_eq!(
            c.total_revenue(),
            c.ledger()[0].profit + c.ledger()[1].profit
        );
    }
}
