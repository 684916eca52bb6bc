//! Robustness integration tests: panic quarantine, worker-death recovery,
//! overload shedding, and the deterministic fault-injection harness.
//!
//! The contract under test (see the crate docs' *Robustness & failure
//! semantics* section): an operator panic quarantines exactly the queries
//! owning the panicked node — every other query's outputs stay
//! **byte-identical** to a fault-free run, across shard counts; an
//! injected worker death never loses or duplicates a home walk; overload
//! shedding drops the same rows at every
//! shard count and never touches the highest-priority stream while lower
//! ones still have batches to give.
//!
//! Env axes (mirroring `property_dsms.rs`): `CQAC_SHARDS` picks the shard
//! counts, `CQAC_FAULTS` picks the injection families (`panic`, `poison`,
//! `death`, or a comma list; default all).

use cqac_core::mechanisms::Cat;
use cqac_core::model::UserId;
use cqac_core::units::{Load, Money};
use cqac_dsms::center::{DsmsCenter, Submission};
use cqac_dsms::diag::Code;
use cqac_dsms::engine::{DsmsEngine, IngestError, OverloadPolicy, INLINE_FLUSH_ROWS};
use cqac_dsms::expr::Expr;
use cqac_dsms::fault::{FaultPlan, INJECTED_PANIC_PREFIX};
use cqac_dsms::network::CqId;
use cqac_dsms::ops::OPERATOR_KINDS;
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::types::{work, DataType, Field, Schema, Tuple, Value};
use std::sync::Arc;

const SYMS: [&str; 4] = ["IBM", "AAPL", "MSFT", "ORCL"];

fn quote_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("price", DataType::Float),
    ])
}

fn news_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("relevance", DataType::Int),
    ])
}

fn quote(ts: u64, sym: usize, price_cents: u32) -> Tuple {
    Tuple::new(
        ts,
        vec![
            Value::str(SYMS[sym % SYMS.len()]),
            Value::Float(f64::from(price_cents) / 100.0),
        ],
    )
}

fn news(ts: u64, sym: usize, relevance: i64) -> Tuple {
    Tuple::new(
        ts,
        vec![Value::str(SYMS[sym % SYMS.len()]), Value::Int(relevance)],
    )
}

/// Tiny deterministic generator (the `shard_exec.rs` idiom).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mixed quotes+news feed, sorted by event time.
fn mixed_feed(rows: usize, seed: u64) -> Vec<(String, Tuple)> {
    let mut rng = Lcg(seed);
    let mut feed: Vec<(String, Tuple)> = (0..rows)
        .map(|_| {
            let ts = rng.below(400);
            let sym = rng.below(4) as usize;
            if rng.below(3) == 0 {
                ("news".to_string(), news(ts, sym, rng.below(100) as i64))
            } else {
                (
                    "quotes".to_string(),
                    quote(ts, sym, 1 + rng.below(20_000) as u32),
                )
            }
        })
        .collect();
    feed.sort_by_key(|(_, t)| t.ts);
    feed
}

/// Shard counts under test; `CQAC_SHARDS` (comma list) overrides.
fn shard_counts() -> Vec<usize> {
    match std::env::var("CQAC_SHARDS") {
        Ok(s) => {
            let counts: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect();
            assert!(!counts.is_empty(), "CQAC_SHARDS must list shard counts");
            counts
        }
        Err(_) => vec![1, 2, 4],
    }
}

/// Injection families under test; `CQAC_FAULTS` (comma list of
/// `panic`/`poison`/`death`) overrides the default of all three.
fn fault_modes() -> Vec<&'static str> {
    const ALL: [&str; 3] = ["panic", "poison", "death"];
    match std::env::var("CQAC_FAULTS") {
        Ok(s) => {
            let modes: Vec<&'static str> = ALL
                .into_iter()
                .filter(|m| s.split(',').any(|t| t.trim() == *m))
                .collect();
            assert!(
                !modes.is_empty(),
                "CQAC_FAULTS must list panic|poison|death, got '{s}'"
            );
            modes
        }
        Err(_) => ALL.to_vec(),
    }
}

/// The plan whose physical network contains (exactly one node of) the
/// targeted operator kind. `fused` assumes fusion is enabled; `filter`
/// and `project` assume it is disabled.
fn victim_plan(kind: &str) -> LogicalPlan {
    let quotes = || LogicalPlan::source("quotes");
    match kind {
        "filter" => quotes().filter(Expr::col(1).gt(Expr::lit(Value::Float(40.0)))),
        "project" => quotes().project(vec![("price".to_string(), Expr::col(1))]),
        "fused" => quotes()
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(40.0))))
            .project(vec![("price".to_string(), Expr::col(1))]),
        "join" => quotes().join(LogicalPlan::source("news"), 0, 0, 50),
        "aggregate" => quotes().aggregate(Some(0), AggFunc::Count, 0, 100),
        "union" => quotes().union(LogicalPlan::source("quotes")),
        other => panic!("no victim plan for kind '{other}'"),
    }
}

/// An innocent bystander sharing nothing with the victim — and, crucially,
/// containing no node of the victim's kind.
fn survivor_plan(kind: &str) -> LogicalPlan {
    if kind == "aggregate" {
        LogicalPlan::source("news").filter(Expr::col(1).gt(Expr::lit(Value::Int(-1))))
    } else {
        LogicalPlan::source("news").aggregate(Some(0), AggFunc::Count, 0, 100)
    }
}

struct RunOutcome {
    victim_out: Vec<Tuple>,
    survivor_out: Vec<Tuple>,
    quarantined: Vec<CqId>,
    events: Vec<cqac_dsms::engine::QuarantineEvent>,
    runtime_report: cqac_dsms::diag::Report,
    pool_spawns: u64,
    quarantines: u64,
}

/// Rows of the one flush a `run_kind*` run pushes: at least
/// [`INLINE_FLUSH_ROWS`], so at shards > 1 jobs 1.. run on pool seats,
/// concurrently with job 0 on the control thread.
const FEED_ROWS: usize = 640;
const _: () = assert!(FEED_ROWS >= INLINE_FLUSH_ROWS);

fn run_kind(kind: &str, shards: usize, fault: Option<Arc<FaultPlan>>) -> RunOutcome {
    run_kind_keyed(kind, shards, &["quotes", "news"], fault)
}

/// [`run_kind`] with only the `keyed` streams hash-partitioned on the
/// symbol; the others deal whole batches round-robin.
fn run_kind_keyed(
    kind: &str,
    shards: usize,
    keyed: &[&str],
    fault: Option<Arc<FaultPlan>>,
) -> RunOutcome {
    run_feed(kind, shards, keyed, FEED_ROWS, fault)
}

/// [`run_kind_keyed`] over a flush of `rows` rows.
fn run_feed(
    kind: &str,
    shards: usize,
    keyed: &[&str],
    rows: usize,
    fault: Option<Arc<FaultPlan>>,
) -> RunOutcome {
    work::reset();
    let mut e = DsmsEngine::new();
    e.set_fusion(kind == "fused");
    e.set_shards(shards);
    e.set_max_batch_size(16);
    for stream in keyed {
        e.set_shard_key(stream, 0).unwrap();
    }
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    let victim = e.add_query(victim_plan(kind)).unwrap();
    let survivor = e.add_query(survivor_plan(kind)).unwrap();
    e.set_fault_plan(fault);
    e.push_batch(mixed_feed(rows, 7));
    e.finish();
    let events = e.take_quarantine_events();
    let mut quarantined: Vec<CqId> = events.iter().flat_map(|ev| ev.queries.clone()).collect();
    quarantined.sort_unstable();
    quarantined.dedup();
    let snap = work::snapshot();
    RunOutcome {
        victim_out: e.take_outputs(victim),
        survivor_out: e.take_outputs(survivor),
        quarantined,
        events,
        runtime_report: e.runtime_report().clone(),
        pool_spawns: snap.pool_spawns,
        quarantines: snap.quarantines,
    }
}

/// The tentpole property: faulting each operator kind in turn, across
/// shard counts, quarantines exactly the owning query — the surviving
/// query's outputs are byte-identical to the fault-free run's and no pool
/// worker is ever replaced (kernel panics are caught per invocation, they
/// do not kill threads).
#[test]
fn each_kind_quarantines_only_its_owner() {
    if !fault_modes().contains(&"panic") {
        return;
    }
    for kind in OPERATOR_KINDS {
        for shards in shard_counts() {
            let clean = run_kind(kind, shards, None);
            assert!(
                clean.quarantined.is_empty() && clean.quarantines == 0,
                "clean run must not quarantine ({kind}, shards={shards})"
            );
            let fault = Arc::new(FaultPlan::new().panic_on(kind, 1));
            let hurt = run_kind(kind, shards, Some(fault));
            let ctx = format!("kind={kind} shards={shards}");
            assert_eq!(hurt.quarantined.len(), 1, "one owner quarantined ({ctx})");
            assert_eq!(hurt.quarantines, 1, "quarantine counted once ({ctx})");
            assert_eq!(
                hurt.survivor_out, clean.survivor_out,
                "survivor diverged ({ctx})"
            );
            assert_ne!(
                hurt.victim_out, clean.victim_out,
                "victim unaffected — fault did not land ({ctx})"
            );
            assert_eq!(
                hurt.pool_spawns, clean.pool_spawns,
                "kernel panic must not respawn workers ({ctx})"
            );
            let event = &hurt.events[0];
            assert_eq!(event.kind, kind, "panic attributed to the kind ({ctx})");
            assert!(
                event.message.starts_with(INJECTED_PANIC_PREFIX),
                "unexpected payload '{}' ({ctx})",
                event.message
            );
            assert!(event.report.has_code(Code::OperatorPanic), "{ctx}");
            assert!(event.report.has_code(Code::QuarantinedQuery), "{ctx}");
            assert!(hurt.runtime_report.has_code(Code::OperatorPanic), "{ctx}");
        }
    }
}

/// The 100-seed soak: seed-derived single-panic plans at shards=4 never
/// abort the engine; whenever the fault lands, the quarantined query gets
/// its NL06x report and the surviving query replays bit-identically.
#[test]
fn soak_100_seeds_never_aborts_and_survivors_replay() {
    if !fault_modes().contains(&"panic") {
        return;
    }
    let mut landed = 0u32;
    let mut clean_by_kind: std::collections::HashMap<&str, RunOutcome> =
        std::collections::HashMap::new();
    for seed in 0..100u64 {
        // The plan picks its own (kind, nth); build the matching pair of
        // runs for the kind it chose so fusion is configured right.
        let probe = FaultPlan::seeded(seed, 10);
        let kind = OPERATOR_KINDS
            .iter()
            .find(|k| {
                // Re-derive which kind the seed picked by checking which
                // single trigger the plan would fire for.
                let p = FaultPlan::seeded(seed, 1);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    p.before_kernel(k, &[]);
                }))
                .is_err()
            })
            .copied()
            .expect("seeded plan targets one kind");
        let clean = clean_by_kind
            .entry(kind)
            .or_insert_with(|| run_kind(kind, 4, None));
        let hurt = run_kind(kind, 4, Some(Arc::new(probe)));
        assert_eq!(
            hurt.survivor_out, clean.survivor_out,
            "seed {seed}: survivor diverged"
        );
        if hurt.quarantined.is_empty() {
            // nth exceeded the run's invocation count — a legal no-op.
            assert_eq!(hurt.victim_out, clean.victim_out, "seed {seed}");
            assert_eq!(hurt.quarantines, 0, "seed {seed}");
        } else {
            landed += 1;
            assert!(
                hurt.runtime_report.has_code(Code::OperatorPanic)
                    && hurt.runtime_report.has_code(Code::QuarantinedQuery),
                "seed {seed}: quarantine without report"
            );
        }
    }
    assert!(landed >= 40, "only {landed}/100 seeds landed a fault");
}

/// Poison rows are content-triggered, so the quarantine set and the shed
/// and quarantine work counters are identical at every shard count — the
/// invariant CI's fault axis pins.
#[test]
fn shed_and_quarantine_counters_are_shard_invariant() {
    if !fault_modes().contains(&"poison") {
        return;
    }
    let run = |shards: usize| {
        work::reset();
        let mut e = DsmsEngine::new();
        e.set_shards(shards);
        e.set_max_batch_size(16);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        e.register_stream("quotes", quote_schema());
        e.register_stream("news", news_schema());
        // The flood sheds news down to a budget past INLINE_FLUSH_ROWS, so
        // what survives still runs on the pool seats.
        e.set_overload_policy(Some(OverloadPolicy {
            max_rows_per_flush: 900,
        }));
        e.set_stream_priority("quotes", 1_000);
        e.set_stream_priority("news", 1);
        let q1 = e.add_query(victim_plan("aggregate")).unwrap();
        let q2 = e.add_query(survivor_plan("aggregate")).unwrap();
        // Poison a timestamp that many quote rows carry: the fault fires
        // at the same logical point regardless of shard count.
        let poison = mixed_feed(1_200, 7)
            .iter()
            .find(|(s, _)| s == "quotes")
            .map(|(_, t)| t.ts)
            .unwrap();
        e.set_fault_plan(Some(Arc::new(FaultPlan::new().with_poison_ts(poison))));
        e.push_batch(mixed_feed(1_200, 7));
        e.finish();
        let snap = work::snapshot();
        assert_eq!(snap.pool_wakeups > 0, shards > 1, "shards={shards}");
        let mut quarantined: Vec<CqId> = e
            .take_quarantine_events()
            .iter()
            .flat_map(|ev| ev.queries.clone())
            .collect();
        quarantined.sort_unstable();
        (
            snap.rows_shed,
            snap.quarantines,
            snap.overload_flushes,
            quarantined,
            e.take_outputs(q1),
            e.take_outputs(q2),
        )
    };
    let baseline = run(1);
    assert!(baseline.0 > 0, "the flood must shed");
    assert!(baseline.1 > 0, "the poison must quarantine");
    for shards in shard_counts() {
        assert_eq!(run(shards), baseline, "shards={shards}");
    }
}

/// An injected worker death loses nothing: the homes the dead job left
/// unclaimed run inline, every query's outputs match the fault-free run, the seat is
/// respawned (exactly one extra counted spawn), and an NL062 diagnostic
/// lands in the runtime report. No query is quarantined — a dying thread
/// is an infrastructure fault, not an operator fault.
#[test]
fn worker_death_recovers_inline_and_respawns_the_seat() {
    if !fault_modes().contains(&"death") {
        return;
    }
    let clean = run_kind("aggregate", 4, None);
    let fault = Arc::new(FaultPlan::new().with_worker_death(1, 1));
    let hurt = run_kind("aggregate", 4, Some(fault));
    assert!(hurt.quarantined.is_empty(), "death quarantined a CQ");
    assert_eq!(hurt.victim_out, clean.victim_out, "victim lost rows");
    assert_eq!(hurt.survivor_out, clean.survivor_out, "survivor lost rows");
    assert_eq!(
        hurt.pool_spawns,
        clean.pool_spawns + 1,
        "exactly one respawn"
    );
    assert!(
        hurt.runtime_report.has_code(Code::WorkerDeath),
        "missing NL062"
    );
}

/// Where a job dies decides what respawns. In a pooled flush job 0 runs
/// on the control thread, so it dies claiming no home exactly like a
/// pool seat's but spawns no thread, while job 1's kills its seat, which
/// respawns. Below [`INLINE_FLUSH_ROWS`] every job runs on the control
/// thread and no death respawns anything. Either way every query's
/// outputs match the fault-free run and NL062 is reported.
#[test]
fn deaths_replay_and_respawn_only_pool_seats() {
    if !fault_modes().contains(&"death") {
        return;
    }
    for rows in [INLINE_FLUSH_ROWS / 2, FEED_ROWS] {
        let pooled = u64::from(rows >= INLINE_FLUSH_ROWS);
        for kind in ["aggregate", "join"] {
            for shards in shard_counts().into_iter().filter(|&s| s > 1) {
                let keyed = ["quotes", "news"];
                let clean = run_feed(kind, shards, &keyed, rows, None);
                assert_eq!(
                    clean.pool_spawns,
                    shards as u64 - 1,
                    "one seat per job after the first"
                );
                for (job, respawns) in [(0, 0), (1, pooled)] {
                    let death = Arc::new(FaultPlan::new().with_worker_death(job, 1));
                    let hurt = run_feed(kind, shards, &keyed, rows, Some(death));
                    let ctx = format!("{kind} rows={rows} shards={shards} job={job}");
                    assert!(hurt.runtime_report.has_code(Code::WorkerDeath), "{ctx}");
                    assert!(hurt.quarantined.is_empty(), "{ctx}");
                    assert_eq!(hurt.victim_out, clean.victim_out, "{ctx}");
                    assert_eq!(hurt.survivor_out, clean.survivor_out, "{ctx}");
                    assert_eq!(hurt.pool_spawns, clean.pool_spawns + respawns, "{ctx}");
                }
            }
        }
    }
}

/// Keyless roots ride the same recovery machinery as keyed ones. With no
/// stream keyed, or only `quotes`, a dead worker's home — whole batches
/// and hash-partitioned shares alike — runs on another job or inline, and
/// a panic or a poison row quarantines by the faulted node's kind wherever
/// the node ran — on a whole batch, a hash-partitioned share, or on the
/// control thread.
#[test]
fn keyless_roots_recover_and_quarantine_like_keyed_ones() {
    for keyed in [&[][..], &["quotes"][..]] {
        let ctx = format!("keyed={keyed:?}");
        if fault_modes().contains(&"death") {
            for kind in ["fused", "aggregate", "join"] {
                let clean = run_kind_keyed(kind, 4, keyed, None);
                let death = Arc::new(FaultPlan::new().with_worker_death(1, 1));
                let hurt = run_kind_keyed(kind, 4, keyed, Some(death));
                assert!(hurt.quarantined.is_empty(), "{kind} {ctx}");
                assert_eq!(hurt.victim_out, clean.victim_out, "{kind} {ctx}");
                assert_eq!(hurt.survivor_out, clean.survivor_out, "{kind} {ctx}");
                assert_eq!(hurt.pool_spawns, clean.pool_spawns + 1, "{kind} {ctx}");
                assert!(hurt.runtime_report.has_code(Code::WorkerDeath), "{ctx}");
            }
        }
        for kind in OPERATOR_KINDS {
            let clean = run_kind_keyed(kind, 4, keyed, None);
            let mut faults = Vec::new();
            if fault_modes().contains(&"panic") {
                faults.push(FaultPlan::new().panic_on(kind, 1));
            }
            if fault_modes().contains(&"poison") && kind == "aggregate" {
                // Content-triggered: fires in every kernel that sees the
                // timestamp, the aggregate reading `quotes` among them.
                let feed = mixed_feed(FEED_ROWS, 7);
                let (_, row) = feed.iter().find(|(s, _)| s == "quotes").unwrap();
                faults.push(FaultPlan::new().with_poison_ts(row.ts));
            }
            for fault in faults {
                let hurt = run_kind_keyed(kind, 4, keyed, Some(Arc::new(fault)));
                assert!(!hurt.events.is_empty(), "fault did not land ({kind} {ctx})");
                assert!(
                    hurt.events.iter().any(|ev| ev.kind == kind),
                    "quarantine names the faulted kind ({kind} {ctx})"
                );
                assert_eq!(hurt.pool_spawns, clean.pool_spawns, "{kind} {ctx}");
                if hurt.events.len() == 1 {
                    assert_eq!(hurt.quarantined.len(), 1, "{kind} {ctx}");
                    assert_eq!(hurt.survivor_out, clean.survivor_out, "{kind} {ctx}");
                }
            }
        }
    }
}

/// A seat respawned after a worker death re-seeds the control thread's
/// columnar kill switch on its next job. With the switch off, every row
/// must take the row path — so `row_evals` matches the shards=1 run
/// exactly even when a shards=4 worker dies mid-flush and is replaced. A
/// respawned seat that silently reverted to the default would push its
/// share of rows through the columnar kernels and skew the counter.
#[test]
fn respawned_worker_inherits_the_columnar_switch() {
    use cqac_dsms::ops::with_columnar_kernels;
    if !fault_modes().contains(&"death") {
        return;
    }
    let death = || Some(Arc::new(FaultPlan::new().with_worker_death(1, 1)));
    let run = |shards: usize, fault: Option<Arc<FaultPlan>>| {
        with_columnar_kernels(false, || {
            let out = run_kind("fused", shards, fault);
            (out, work::snapshot().row_evals)
        })
    };
    let (clean, clean_rows) = run(1, None);
    assert!(clean_rows > 0, "columnar off must force the row path");
    let (hurt, hurt_rows) = run(4, death());
    assert!(
        hurt.runtime_report.has_code(Code::WorkerDeath),
        "death did not land"
    );
    assert_eq!(
        hurt.pool_spawns, 4,
        "job 1 ran on a pool seat, which died and was respawned"
    );
    assert_eq!(
        hurt_rows, clean_rows,
        "respawned seat must inherit the columnar kill switch"
    );
    assert_eq!(hurt.victim_out, clean.victim_out);
    assert_eq!(hurt.survivor_out, clean.survivor_out);

    // The converse: at the default setting the same faulted run counts
    // lanes and zero row evals — the re-seed forwards the live switch
    // value, it does not pin a stale 'off'.
    let on = run_kind("fused", 4, death());
    let snap = work::snapshot();
    assert!(on.runtime_report.has_code(Code::WorkerDeath));
    assert!(snap.simd_lanes > 0, "columnar kernels run the lane loops");
    assert_eq!(snap.row_evals, 0, "columnar kernels must handle every row");
    assert_eq!(
        on.victim_out, clean.victim_out,
        "the switch must not change outputs"
    );
    assert_eq!(on.survivor_out, clean.survivor_out);
}

/// Overload shedding under a flash-crowd flood: whole batches are shed
/// from the lowest-priority stream only, the same rows at every shard
/// count, and the high-priority stream's query sees every one of its rows
/// (byte-identical to an unguarded run).
#[test]
fn flash_crowd_sheds_low_priority_streams_deterministically() {
    let flood = || {
        let mut feed: Vec<(String, Tuple)> = Vec::new();
        for ts in 1..=40u64 {
            feed.push((
                "quotes".to_string(),
                quote(ts, ts as usize, 100 + ts as u32),
            ));
            // The flash crowd: 12 news rows per tick against 1 quote.
            for i in 0..12u64 {
                feed.push(("news".to_string(), news(ts, (ts + i) as usize, i as i64)));
            }
        }
        feed
    };
    let run = |shards: usize, guarded: bool| {
        work::reset();
        let mut e = DsmsEngine::new();
        e.set_shards(shards);
        e.set_max_batch_size(8);
        e.register_stream("quotes", quote_schema());
        e.register_stream("news", news_schema());
        if guarded {
            e.set_overload_policy(Some(OverloadPolicy {
                max_rows_per_flush: 120,
            }));
            e.set_stream_priority("quotes", 90_000_000);
            e.set_stream_priority("news", 10_000_000);
        }
        let hot = e
            .add_query(
                LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0)))),
            )
            .unwrap();
        let cold = e
            .add_query(
                LogicalPlan::source("news").filter(Expr::col(1).gt(Expr::lit(Value::Int(-1)))),
            )
            .unwrap();
        e.push_batch(flood());
        e.finish();
        let stats = e.stream_stats().clone();
        let snap = work::snapshot();
        (
            e.take_outputs(hot),
            e.take_outputs(cold),
            stats["quotes"].rows_shed,
            stats["news"].rows_shed,
            snap.rows_shed,
            snap.overload_flushes,
            e.overload_report().has_code(Code::OverloadShed),
        )
    };
    let unguarded = run(1, false);
    assert_eq!(unguarded.4, 0, "no policy, no shedding");
    let baseline = run(1, true);
    let (hot_out, cold_out, hot_shed, news_shed, total_shed, flushes, reported) = &baseline;
    assert_eq!(*hot_shed, 0, "the high bidder loses zero rows");
    assert!(*news_shed > 0, "the flood must shed news");
    assert_eq!(*total_shed, *news_shed);
    assert!(*flushes > 0);
    assert!(*reported, "overload_report must carry NL063");
    assert_eq!(hot_out, &unguarded.0, "hot outputs byte-identical");
    assert!(
        cold_out.len() < unguarded.1.len(),
        "shed rows must be missing from the cold query"
    );
    for shards in shard_counts() {
        assert_eq!(run(shards, true), baseline, "shards={shards}");
    }
}

// ---- center-level robustness --------------------------------------------

fn center_submissions() -> Vec<Submission> {
    vec![
        Submission {
            user: UserId(0),
            bid: Money::from_dollars(90.0),
            plan: LogicalPlan::source("quotes")
                .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0)))),
        },
        Submission {
            user: UserId(1),
            bid: Money::from_dollars(10.0),
            plan: LogicalPlan::source("quotes")
                .filter(Expr::col(1).gt(Expr::lit(Value::Float(150.0)))),
        },
    ]
}

fn center_calibration(n: usize) -> Vec<(String, Tuple)> {
    let mut rng = Lcg(99);
    (0..n)
        .map(|i| {
            (
                "quotes".to_string(),
                quote(
                    i as u64,
                    rng.below(4) as usize,
                    1 + rng.below(20_000) as u32,
                ),
            )
        })
        .collect()
}

/// A serving-phase quarantine voids the bidder's payment for the day and
/// sits her out of the next auction (rejected pre-auction, carrying the
/// quarantine report) — after which the ban lifts.
#[test]
fn center_refunds_and_bans_quarantined_bidder() {
    // Scarce capacity: user 0 wins and pays a loser-quoted price.
    let mut c = DsmsCenter::new(Load::from_units(1.2), Box::new(Cat));
    c.register_stream("quotes", quote_schema());
    let subs = center_submissions();
    let day0 = c.run_auction(&subs, &center_calibration(2000)).unwrap();
    assert!(day0.decisions[0].admitted && !day0.decisions[1].admitted);
    assert!(day0.decisions[0].payment > Money::ZERO);

    // The winner's filter panics during serving: quarantine.
    c.engine_mut()
        .set_fault_plan(Some(Arc::new(FaultPlan::new().panic_on("filter", 1))));
    c.process(
        "quotes",
        (0..50).map(|i| quote(i, i as usize, 500)).collect(),
    );
    c.engine_mut().set_fault_plan(None);

    let day0 = &c.ledger()[0];
    assert_eq!(day0.decisions[0].payment, Money::ZERO, "payment refunded");
    assert_eq!(day0.profit, Money::ZERO, "day profit voided");
    assert_eq!(c.engine().network().num_queries(), 0, "query removed");

    // Next auction: the quarantined bidder is excluded; the runner-up now
    // fits the scarce capacity.
    let day1 = c.run_auction(&subs, &center_calibration(2000)).unwrap();
    let banned = &day1.decisions[0];
    assert!(!banned.admitted);
    let report = banned
        .rejection
        .as_ref()
        .expect("quarantine report attached");
    assert!(report.has_code(Code::OperatorPanic));
    assert!(report.has_code(Code::QuarantinedQuery));
    assert!(
        day1.decisions[1].admitted,
        "capacity freed for the runner-up"
    );

    // The ban is one round only.
    let day2 = c.run_auction(&subs, &center_calibration(2000)).unwrap();
    assert!(day2.decisions[0].admitted, "ban lifted after one round");
    assert!(day2.decisions[0].rejection.is_none());
}

/// The ingress guard wired through the center: stream priorities derive
/// from the admitted bids, so under a flood the low bidder's stream sheds
/// and the high bidder's query keeps every row.
#[test]
fn center_ingress_guard_spares_the_high_bidder() {
    let mut c = DsmsCenter::new(Load::from_units(1000.0), Box::new(Cat)).with_ingress_guard(60);
    c.register_stream("quotes", quote_schema());
    c.register_stream("news", news_schema());
    let subs = vec![
        Submission {
            user: UserId(0),
            bid: Money::from_dollars(90.0),
            plan: LogicalPlan::source("quotes")
                .filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0)))),
        },
        Submission {
            user: UserId(1),
            bid: Money::from_dollars(10.0),
            plan: LogicalPlan::source("news").filter(Expr::col(1).gt(Expr::lit(Value::Int(-1)))),
        },
    ];
    let record = c.run_auction(&subs, &center_calibration(300)).unwrap();
    assert!(record.decisions.iter().all(|d| d.admitted));
    let hot = record.decisions[0].cq.unwrap();

    // One mixed flood in a single flush: both streams pending at once.
    let mut flood: Vec<(String, Tuple)> = Vec::new();
    for ts in 1..=30u64 {
        flood.push(("quotes".to_string(), quote(ts, ts as usize, 200)));
        for i in 0..6u64 {
            flood.push(("news".to_string(), news(ts, (ts + i) as usize, i as i64)));
        }
    }
    c.engine_mut().push_batch(flood.clone());

    let stats = c.engine().stream_stats();
    assert_eq!(stats["quotes"].rows_shed, 0, "high bid never shed");
    assert!(stats["news"].rows_shed > 0, "low bid shed under the flood");
    // The hot query saw all 30 of its rows.
    assert_eq!(c.take_outputs(hot).len(), 30);
}

// ---- fallible ingestion & registration ----------------------------------

#[test]
fn try_push_reports_unknown_stream_with_the_legacy_message() {
    let mut e = DsmsEngine::new();
    let err = e.try_push("nope", quote(1, 0, 100)).unwrap_err();
    assert_eq!(
        err,
        IngestError::UnknownStream {
            stream: "nope".to_string()
        }
    );
    assert_eq!(
        err.to_string(),
        "unknown stream 'nope': call register_stream before pushing"
    );
}

#[test]
fn try_push_rejects_nonconforming_rows() {
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    let bad = Tuple::new(1, vec![Value::Int(3)]);
    assert_eq!(
        e.try_push("quotes", bad.clone()).unwrap_err(),
        IngestError::NonConforming {
            stream: "quotes".to_string(),
            row: 0
        }
    );
    // try_push_batch reports the failing *pair* index.
    let err = e
        .try_push_batch(vec![
            ("quotes".to_string(), quote(1, 0, 100)),
            ("quotes".to_string(), bad),
        ])
        .unwrap_err();
    assert_eq!(
        err,
        IngestError::NonConforming {
            stream: "quotes".to_string(),
            row: 1
        }
    );
}

/// `try_push_rows` validates the whole slice before buffering anything:
/// a failed call leaves the engine exactly as it was.
#[test]
fn try_push_rows_is_atomic() {
    let build = || {
        let mut e = DsmsEngine::new();
        e.register_stream("quotes", quote_schema());
        let cq = e
            .add_query(
                LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0)))),
            )
            .unwrap();
        (e, cq)
    };
    let (mut touched, cq_t) = build();
    let err = touched
        .try_push_rows(
            "quotes",
            vec![
                quote(1, 0, 100),
                Tuple::new(2, vec![Value::Int(9)]),
                quote(3, 0, 100),
            ],
        )
        .unwrap_err();
    assert_eq!(
        err,
        IngestError::NonConforming {
            stream: "quotes".to_string(),
            row: 1
        }
    );
    let (mut pristine, cq_p) = build();
    touched.push_rows("quotes", vec![quote(5, 1, 300)]);
    pristine.push_rows("quotes", vec![quote(5, 1, 300)]);
    touched.finish();
    pristine.finish();
    assert_eq!(
        touched.take_outputs(cq_t),
        pristine.take_outputs(cq_p),
        "failed push must not leave partial rows behind"
    );
    assert_eq!(touched.stream_stats()["quotes"].count, 1);
}

#[test]
fn try_register_stream_reports_invalid_shard_keys() {
    let mut e = DsmsEngine::new();
    // Declaring a key on an unregistered stream is allowed...
    e.set_shard_key("quotes", 7).unwrap();
    // ...but registering a schema the key does not fit must fail — as an
    // Err now, not a panic.
    assert!(e.try_register_stream("quotes", quote_schema()).is_err());
}
