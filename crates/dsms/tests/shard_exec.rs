//! Stress and lifecycle tests of the shard-per-stream parallel executor:
//! a repeated-seed concurrency soak (no lost or duplicated tuples under
//! shards = 4), engine lifecycle edges that previously only ran
//! single-threaded (`remove_query` mid-stream *and mid-window with keyed
//! per-shard state*, transition held-tuple replay through the keyed plan,
//! `finish` flushing per-shard window state), the columnar kill switch
//! reaching pooled workers, and the persistent pool's reuse guarantee
//! (zero spawns after warmup — flushes wake parked workers).
//!
//! A flush below [`INLINE_FLUSH_ROWS`] runs every job on the control
//! thread, so the tests about concurrent execution flush [`POOLED_ROWS`]
//! or more rows at a time: jobs 1.. then run on pool seats, next to job 0
//! on the control thread.

use cqac_dsms::engine::{DsmsEngine, INLINE_FLUSH_ROWS};
use cqac_dsms::expr::Expr;
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::types::{work, DataType, Field, Schema, Tuple, Value};

const SYMS: [&str; 4] = ["IBM", "AAPL", "MSFT", "ORCL"];

/// Rows of a flush that reaches the pool seats.
const POOLED_ROWS: usize = 640;
const _: () = assert!(POOLED_ROWS >= INLINE_FLUSH_ROWS);

fn quote_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("price", DataType::Float),
    ])
}

fn news_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("headline", DataType::Str),
    ])
}

fn engine() -> DsmsEngine {
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    e
}

/// A tiny deterministic LCG (numerical recipes constants) so the soak is
/// reproducible without the proptest harness.
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

/// A randomized interleaved two-stream feed, sorted by event time.
fn random_feed(rng: &mut Lcg, len: usize) -> Vec<(String, Tuple)> {
    let mut feed: Vec<(String, Tuple)> = (0..len)
        .map(|_| {
            let ts = rng.below(400);
            let sym = SYMS[rng.below(4) as usize];
            if rng.below(4) == 0 {
                (
                    "news".to_string(),
                    Tuple::new(ts, vec![Value::str(sym), Value::str("h")]),
                )
            } else {
                (
                    "quotes".to_string(),
                    Tuple::new(
                        ts,
                        vec![Value::str(sym), Value::Float(rng.below(200) as f64)],
                    ),
                )
            }
        })
        .collect();
    feed.sort_by_key(|(_, t)| t.ts);
    feed
}

/// A small shared network covering every merge-relevant shape: a filter
/// prefix with two sinks, a fused chain, an aggregate behind the shared
/// filter, and a quotes⋈news join.
fn plans() -> Vec<LogicalPlan> {
    let high =
        LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
    vec![
        high.clone(),
        high.clone(),
        high.clone()
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]),
        high.clone().aggregate(Some(0), AggFunc::Count, 0, 50),
        high.join(LogicalPlan::source("news"), 0, 0, 40),
    ]
}

struct RunResult {
    outputs: Vec<Vec<Tuple>>,
    tuples_processed: u64,
    output_rows: usize,
    watermark: u64,
    pool_wakeups: u64,
}

fn run(feed: &[(String, Tuple)], shards: usize, hash_key: bool, chunk: usize) -> RunResult {
    let mut e = engine().with_max_batch_size(16).with_shards(shards);
    if hash_key {
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
    }
    let cqs: Vec<_> = plans()
        .into_iter()
        .map(|p| e.add_query(p).unwrap())
        .collect();
    work::reset();
    let mut watermark = 0;
    for slice in feed.chunks(chunk.max(1)) {
        e.push_batch(slice.iter().cloned());
        // The watermark is monotone across every partial run (inside the
        // engine, debug_asserts additionally pin that no node and no shard
        // ever runs ahead of the merged watermark).
        assert!(e.watermark() >= watermark, "watermark regressed");
        watermark = e.watermark();
    }
    e.finish();
    let output_rows = cqs.iter().map(|&cq| e.output_len(cq)).sum();
    RunResult {
        outputs: cqs.iter().map(|&cq| e.take_outputs(cq)).collect(),
        tuples_processed: e.tuples_processed(),
        output_rows,
        watermark: e.watermark(),
        pool_wakeups: work::snapshot().pool_wakeups,
    }
}

/// ≥100 randomized runs at shards = 4 against the single-threaded engine:
/// identical output sequences for every query, identical
/// `tuples_processed` (no lost or duplicated per-row work), identical
/// buffered `output_len`, identical watermarks. Debug assertions (active
/// here) additionally check watermark monotonicity and merge-tag
/// consistency inside the engine on every run. Even seeds flush small
/// slices, which run inline; odd seeds flush slices of at least
/// [`INLINE_FLUSH_ROWS`] rows, which reach the pool seats.
#[test]
fn soak_shards4_no_lost_or_duplicated_tuples() {
    for seed in 0..100u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed + 1));
        let pooled = seed % 2 == 1;
        let (len, chunk) = if pooled {
            (
                INLINE_FLUSH_ROWS + rng.below(1_200) as usize,
                INLINE_FLUSH_ROWS + rng.below(512) as usize,
            )
        } else {
            (40 + rng.below(160) as usize, 1 + rng.below(64) as usize)
        };
        let hash_key = rng.below(2) == 1;
        let feed = random_feed(&mut rng, len);

        let reference = run(&feed, 1, false, chunk);
        let sharded = run(&feed, 4, hash_key, chunk);
        assert_eq!(
            sharded.output_rows, reference.output_rows,
            "seed {seed}: buffered output rows diverged"
        );
        assert_eq!(
            sharded.tuples_processed, reference.tuples_processed,
            "seed {seed}: per-row work diverged"
        );
        assert_eq!(
            sharded.watermark, reference.watermark,
            "seed {seed}: watermark diverged"
        );
        for (q, (got, want)) in sharded.outputs.iter().zip(&reference.outputs).enumerate() {
            assert_eq!(got, want, "seed {seed}: query {q} outputs diverged");
        }
        assert_eq!(
            sharded.pool_wakeups > 0,
            pooled,
            "seed {seed}: only slices of INLINE_FLUSH_ROWS or more wake the pool"
        );
    }
}

/// `remove_query` mid-stream under sharding: the removal's automatic
/// transition must drain the shard workers, and the surviving query's
/// outputs must match a single-threaded engine doing the same dance.
#[test]
fn remove_query_mid_stream_under_sharding() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        let high =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
        let keep = e.add_query(high.clone()).unwrap();
        let victim = e
            .add_query(high.filter(Expr::col(0).eq(Expr::lit(Value::str("IBM")))))
            .unwrap();
        let mut rng = Lcg(7);
        let feed = random_feed(&mut rng, 3 * POOLED_ROWS);
        for (i, slice) in feed.chunks(POOLED_ROWS).enumerate() {
            if i == 1 {
                e.remove_query(victim);
            }
            e.push_batch(slice.iter().cloned());
        }
        e.finish();
        e.take_outputs(keep)
    };
    assert_eq!(run(1), run(4), "shared prefix must survive the removal");
}

/// Transition held-tuple replay under sharding: batches held at the
/// connection points while the network is modified must replay through
/// the shard workers in arrival order, ahead of newly arriving data.
#[test]
fn transition_held_replay_under_sharding() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        let high =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
        let cq = e.add_query(high).unwrap();
        let mut rng = Lcg(11);
        let feed = random_feed(&mut rng, 3 * POOLED_ROWS);
        let (before, rest) = feed.split_at(POOLED_ROWS);
        let (held, after) = rest.split_at(POOLED_ROWS);
        e.push_batch(before.iter().cloned());
        e.begin_transition();
        for (s, t) in held {
            e.push(s, t.clone());
        }
        let other = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(0).eq(Expr::lit(Value::str("MSFT")))),
            )
            .unwrap();
        e.remove_query(other);
        assert!(e.held_tuples() > 0, "tuples are held mid-transition");
        e.end_transition();
        e.push_batch(after.iter().cloned());
        e.finish();
        e.take_outputs(cq)
    };
    assert_eq!(run(1), run(4), "held replay must be shard-count invariant");
}

/// `finish()` under sharding: windowed state fed by every shard must
/// flush, including stacked stateful operators behind a sharded prefix.
#[test]
fn finish_flushes_all_shards() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        let cq = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))))
                    .aggregate(Some(0), AggFunc::Count, 0, 100)
                    .aggregate(None, AggFunc::Max, 2, 1000),
            )
            .unwrap();
        let mut rng = Lcg(13);
        e.push_batch(random_feed(&mut rng, POOLED_ROWS));
        e.finish();
        e.take_outputs(cq)
    };
    let reference = run(1);
    assert!(!reference.is_empty(), "the nested day result must exist");
    assert_eq!(run(1), run(4));
}

/// The columnar kill switch must reach worker shards: the switch is
/// thread-local, so the shard spawn path hands the spawning thread's
/// setting to every worker (and folds the workers' row-eval counters
/// back). Before that routing existed, sharded runs silently kept the
/// columnar kernels on.
#[test]
fn columnar_kill_switch_reaches_worker_shards() {
    let feed = {
        let mut rng = Lcg(17);
        random_feed(&mut rng, POOLED_ROWS)
    };
    let run = |columnar: bool| {
        cqac_dsms::ops::with_columnar_kernels(columnar, || {
            let mut e = engine().with_max_batch_size(8).with_shards(4);
            e.set_shard_key("quotes", 0).unwrap();
            let cq = e
                .add_query(
                    LogicalPlan::source("quotes")
                        .filter(Expr::col(1).gt(Expr::lit(Value::Float(50.0))))
                        .project(vec![("price".to_string(), Expr::col(1))]),
                )
                .unwrap();
            work::reset();
            e.push_batch(feed.iter().cloned());
            let snap = work::snapshot();
            (e.take_outputs(cq), snap)
        })
    };
    let (columnar_out, columnar_work) = run(true);
    let (row_out, row_work) = run(false);
    assert_eq!(columnar_out, row_out, "kernel mode must not change results");
    assert!(
        columnar_work.shard_batches > 0 && row_work.shard_batches > 0,
        "both runs went through the shard workers"
    );
    assert!(
        columnar_work.pool_wakeups > 0 && row_work.pool_wakeups > 0,
        "both runs handed jobs to pool seats"
    );
    assert_eq!(
        columnar_work.row_evals, 0,
        "columnar sharded runs never evaluate per row"
    );
    assert!(
        row_work.row_evals > 0,
        "with_columnar_kernels(false, …) must reach the workers"
    );
}

/// Disabled columnar kernels count identical row-eval totals at shards 1
/// and 4: worker-thread counters fold back into the control thread.
#[test]
fn worker_row_work_counters_fold_back_deterministically() {
    let feed = {
        let mut rng = Lcg(19);
        random_feed(&mut rng, POOLED_ROWS)
    };
    let evals_at = |shards: usize| {
        cqac_dsms::ops::with_columnar_kernels(false, || {
            let mut e = engine().with_max_batch_size(8).with_shards(shards);
            e.set_shard_key("quotes", 0).unwrap();
            e.add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(50.0)))),
            )
            .unwrap();
            work::reset();
            e.push_batch(feed.iter().cloned());
            work::snapshot().row_evals
        })
    };
    let single = evals_at(1);
    assert!(single > 0);
    assert_eq!(
        single,
        evals_at(4),
        "absorbed counters match single-threaded"
    );
}

/// A keyed-stateful shared network: a symbol-grouped aggregate and a
/// symbol-keyed join behind the shared high filter — with the symbol shard
/// key set, both stateful operators execute *inside* the shards.
fn keyed_stateful_plans() -> Vec<LogicalPlan> {
    let high = LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))));
    vec![
        high.clone().aggregate(Some(0), AggFunc::Count, 0, 50),
        high.join(LogicalPlan::source("news"), 0, 0, 40),
    ]
}

/// Stateful rows really run on the shard workers (merge barrier past the
/// join/aggregate), selection vectors push down into them instead of
/// densifying, and the worker pool spawns exactly once per seat — one
/// per shard after the first, whose jobs run on the control thread.
#[test]
fn keyed_stateful_rows_run_on_shards_with_pushdown() {
    let mut e = engine().with_max_batch_size(8).with_shards(4);
    e.set_shard_key("quotes", 0).unwrap();
    e.set_shard_key("news", 0).unwrap();
    let cqs: Vec<_> = keyed_stateful_plans()
        .into_iter()
        .map(|p| e.add_query(p).unwrap())
        .collect();
    let mut rng = Lcg(23);
    work::reset();
    e.push_batch(random_feed(&mut rng, POOLED_ROWS));
    let snap = work::snapshot();
    assert!(
        snap.keyed_shard_rows > 0,
        "stateful rows must run on shards: {snap:?}"
    );
    assert!(
        snap.selection_pushdown_rows > 0,
        "the filter's selection must push into the stateful ops: {snap:?}"
    );
    assert_eq!(
        snap.pool_spawns, 3,
        "one seat per shard after the first: {snap:?}"
    );
    assert_eq!(snap.pool_wakeups, 3, "one job per seat per flush: {snap:?}");
    assert_eq!(snap.batch_deep_clones, 0, "COW columns: nobody copies");
    e.finish();
    assert!(cqs.iter().map(|&cq| e.output_len(cq)).sum::<usize>() > 0);
}

/// Seat wake-ups one flush of `rows` rows costs at `shards` shards: one
/// per pool seat when the flush is pooled, none below
/// [`INLINE_FLUSH_ROWS`], where every job runs on the control thread.
fn pooled_wakeups(rows: usize, shards: u64) -> u64 {
    if rows < INLINE_FLUSH_ROWS {
        0
    } else {
        shards - 1
    }
}

/// The pool-reuse guarantee: after the warmup flush spawns one seat per
/// shard after the first, further flushes only *wake* parked seats —
/// zero new spawns.
#[test]
fn pool_reuse_zero_spawns_after_warmup() {
    let mut e = engine().with_max_batch_size(8).with_shards(4);
    e.set_shard_key("quotes", 0).unwrap();
    e.set_shard_key("news", 0).unwrap();
    for p in keyed_stateful_plans() {
        e.add_query(p).unwrap();
    }
    let mut rng = Lcg(29);
    let feed = random_feed(&mut rng, 5 * POOLED_ROWS);
    let (warmup, rest) = feed.split_at(POOLED_ROWS);
    work::reset();
    e.push_batch(warmup.iter().cloned());
    let after_warmup = work::snapshot();
    assert_eq!(after_warmup.pool_spawns, 3, "warmup spawns one per seat");
    let mut flushes = 0u64;
    for slice in rest.chunks(POOLED_ROWS) {
        e.push_batch(slice.iter().cloned());
        flushes += 1;
    }
    let snap = work::snapshot();
    assert_eq!(
        snap.pool_spawns, 3,
        "zero spawns after warmup: every flush reuses parked workers"
    );
    assert_eq!(
        snap.pool_wakeups,
        after_warmup.pool_wakeups + flushes * 3,
        "each flush wakes each seat exactly once"
    );
    // The morsel scheduler runs the same jobs wherever they run: morsels
    // were executed, every executed morsel is either popped from the
    // owner's deque or stolen from a victim's tail, and steal sweeps are
    // bounded — each of a flush's 4 jobs (warmup included) makes one grab
    // per morsel it runs plus one final sweep, and a grab misses at most
    // shards-1 victims — so morsel-driven flushes never spin on deques.
    assert!(
        snap.morsels_executed > 0,
        "sharded flushes execute as morsels: {snap:?}"
    );
    assert!(
        snap.morsels_stolen <= snap.morsels_executed,
        "steals are a subset of executed morsels: {snap:?}"
    );
    assert!(
        snap.steal_misses <= (snap.morsels_executed + (flushes + 1) * 4) * 3,
        "steal sweeps are bounded — no spinning on empty deques: {snap:?}"
    );
}

/// A zipf-flavored hot-key soak at shards = 4: ~90% of rows carry one
/// symbol, so hash partitioning floods one home shard. Work stealing must
/// rebalance execution (stolen morsels observed) while outputs stay
/// byte-identical to single-threaded.
#[test]
fn skewed_key_soak_shards4_stays_deterministic() {
    let feed = |rng: &mut Lcg, len: usize| -> Vec<(String, Tuple)> {
        let mut feed: Vec<(String, Tuple)> = (0..len)
            .map(|_| {
                // 90% hot symbol, the rest spread over the other three.
                let sym = if rng.below(10) < 9 {
                    SYMS[0]
                } else {
                    SYMS[1 + rng.below(3) as usize]
                };
                let ts = rng.below(400);
                (
                    "quotes".to_string(),
                    Tuple::new(
                        ts,
                        vec![Value::str(sym), Value::Float(rng.below(200) as f64)],
                    ),
                )
            })
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);
        feed
    };
    let run = |feed: &[(String, Tuple)], shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let cqs: Vec<_> = keyed_stateful_plans()
            .into_iter()
            .map(|p| e.add_query(p).unwrap())
            .collect();
        work::reset();
        // Small slices run inline, where job 0 steals every other job's
        // morsels; the large ones reach the pool seats, which steal from
        // each other's deques as timing allows.
        let (small, large) = feed.split_at(320);
        for slice in small.chunks(40).chain(large.chunks(POOLED_ROWS)) {
            e.push_batch(slice.iter().cloned());
        }
        let snap = work::snapshot();
        e.finish();
        let outputs: Vec<_> = cqs.into_iter().map(|cq| e.take_outputs(cq)).collect();
        (outputs, snap)
    };
    for seed in 0..8u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x5851_f42d).wrapping_add(43));
        let feed = feed(&mut rng, 320 + 2 * POOLED_ROWS);
        let (reference, _) = run(&feed, 1);
        assert!(
            reference.iter().any(|out| !out.is_empty()),
            "seed {seed}: the soak must produce output"
        );
        let (sharded, snap) = run(&feed, 4);
        assert_eq!(
            sharded, reference,
            "seed {seed}: sharding must not change outputs"
        );
        assert!(
            snap.morsels_stolen > 0,
            "seed {seed}: idle workers must steal the hot shard's backlog: {snap:?}"
        );
        assert_eq!(snap.pool_wakeups, 2 * 3, "seed {seed}: two pooled flushes");
    }
}

/// `remove_query` mid-window under keyed stateful sharding: per-shard
/// aggregate state of the removed query is discarded with its node, and
/// the surviving keyed-stateful query's windows are unaffected.
#[test]
fn remove_query_mid_window_under_keyed_sharding() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let keep = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))))
                    .aggregate(Some(0), AggFunc::Count, 0, 50),
            )
            .unwrap();
        let victim = e
            .add_query(LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Avg, 1, 70))
            .unwrap();
        let mut rng = Lcg(31);
        let feed = random_feed(&mut rng, 4 * POOLED_ROWS);
        for (i, slice) in feed.chunks(POOLED_ROWS).enumerate() {
            if i == 2 {
                // Mid-stream, with windows open on every shard.
                e.remove_query(victim);
            }
            e.push_batch(slice.iter().cloned());
        }
        e.finish();
        e.take_outputs(keep)
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    assert_eq!(run(1), run(4), "removal must not disturb surviving windows");
}

/// Transition held-tuple replay under keyed stateful sharding: batches
/// held while the network is modified replay through the keyed plan (and
/// its per-shard state) in arrival order, ahead of new data.
#[test]
fn transition_held_replay_under_keyed_sharding() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let cqs: Vec<_> = keyed_stateful_plans()
            .into_iter()
            .map(|p| e.add_query(p).unwrap())
            .collect();
        let mut rng = Lcg(37);
        let feed = random_feed(&mut rng, 3 * POOLED_ROWS);
        let (before, rest) = feed.split_at(POOLED_ROWS);
        let (held, after) = rest.split_at(POOLED_ROWS);
        e.push_batch(before.iter().cloned());
        e.begin_transition();
        for (s, t) in held {
            e.push(s, t.clone());
        }
        let other = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(0).eq(Expr::lit(Value::str("MSFT")))),
            )
            .unwrap();
        e.remove_query(other);
        assert!(e.held_tuples() > 0, "tuples are held mid-transition");
        e.end_transition();
        e.push_batch(after.iter().cloned());
        e.finish();
        cqs.into_iter()
            .map(|cq| e.take_outputs(cq))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(4), "held replay must be shard-count invariant");
}

/// `finish()` under keyed stateful sharding: per-shard window state on
/// every shard — including shards that received few rows — flushes through
/// the control thread's force-close, identically to single-threaded.
#[test]
fn finish_flushes_per_shard_window_state() {
    let run = |shards: usize| {
        let mut e = engine().with_max_batch_size(8).with_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let cq = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(10.0))))
                    .aggregate(Some(0), AggFunc::Count, 0, 1000),
            )
            .unwrap();
        let mut rng = Lcg(41);
        e.push_batch(random_feed(&mut rng, POOLED_ROWS));
        assert_eq!(e.output_len(cq), 0, "the wide window is still open");
        e.finish();
        e.take_outputs(cq)
    };
    let reference = run(1);
    assert!(!reference.is_empty(), "finish must flush open windows");
    assert_eq!(run(1), run(4));
}

fn order_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("venue", DataType::Int),
    ])
}

/// 320 order rows inside `[base, base + 40)`: forty symbols (so every
/// shard sees rows whichever column keys the stream) over three venues,
/// with venue 7 taking half the rows.
fn orders(base: u64) -> Vec<Tuple> {
    (0..320u64)
        .map(|i| {
            let venue = [7, 3, 7, 5][i as usize % 4];
            Tuple::new(
                base + i / 8,
                vec![Value::str(format!("S{}", i % 40)), Value::Int(venue)],
            )
        })
        .collect()
}

/// Serves `orders`/`fills` rows into `plan` with the streams sharded on
/// `before`, re-keys both streams to `after` in the middle of window
/// `[0, 100)` — on the live engine, state and all — serves as many rows
/// again, and closes the window.
fn rekeyed_mid_window(
    shards: usize,
    plan: &LogicalPlan,
    before: usize,
    after: usize,
) -> Vec<Tuple> {
    let mut e = DsmsEngine::new()
        .with_max_batch_size(16)
        .with_shards(shards);
    e.register_stream("orders", order_schema());
    e.register_stream("fills", order_schema());
    let cq = e.add_query(plan.clone()).unwrap();
    for (column, base) in [(before, 0), (after, 40)] {
        e.set_shard_key("orders", column).unwrap();
        e.set_shard_key("fills", column).unwrap();
        e.push_rows("orders", orders(base));
        e.push_rows("fills", orders(base + 5));
    }
    e.push_rows(
        "orders",
        vec![Tuple::new(250, vec![Value::str("S0"), Value::Int(3)])],
    );
    e.take_outputs(cq)
}

/// `set_shard_key` on a live engine re-homes partitioned state. Keyed on
/// the symbol, a venue-grouped exact aggregate is a *partial* member (a
/// venue's rows fold into per-worker partials); re-keyed onto the venue it
/// becomes a *full* member, which closes windows per partition — so each
/// group's partials have to meet in the partition its key hashes to
/// first, or the window emits once per worker that held a share. The
/// reverse move and a join whose two sides are re-keyed onto (and off) its
/// join key ride the same re-home.
#[test]
fn rekeying_a_live_stream_keeps_each_group_whole() {
    const SYMBOL: usize = 0;
    const VENUE: usize = 1;
    let by_venue = LogicalPlan::source("orders").aggregate(Some(VENUE), AggFunc::Count, 0, 100);
    let joined = LogicalPlan::source("orders").join(LogicalPlan::source("fills"), 0, 0, 10);
    for (plan, before, after) in [
        (&by_venue, SYMBOL, VENUE),
        (&by_venue, VENUE, SYMBOL),
        (&joined, VENUE, SYMBOL),
        (&joined, SYMBOL, VENUE),
    ] {
        let reference = rekeyed_mid_window(1, plan, before, after);
        assert!(!reference.is_empty());
        for shards in [2, 4] {
            assert_eq!(
                rekeyed_mid_window(shards, plan, before, after),
                reference,
                "shards {shards}, re-keyed {before} -> {after}"
            );
        }
    }
    // The scenario spelled out: venue 7 saw 320 orders in window [0, 100),
    // and says so once.
    for shards in [1, 2, 4] {
        let closed = rekeyed_mid_window(shards, &by_venue, SYMBOL, VENUE);
        let venue_7: Vec<&Tuple> = closed
            .iter()
            .filter(|t| t.values[1] == Value::Int(7))
            .collect();
        assert_eq!(
            venue_7,
            vec![&Tuple::new(
                100,
                vec![Value::Int(100), Value::Int(7), Value::Int(320)]
            )],
            "shards {shards}"
        );
    }
}

/// A three-column keyless stream for the exact-aggregate-behind-a-keyless-
/// root runs: a group key, an Int payload and a Float payload.
fn tick_rows(n: u64) -> Vec<Tuple> {
    let mut rng = Lcg(77);
    (0..n)
        .map(|i| {
            Tuple::new(
                i,
                vec![
                    Value::str(SYMS[rng.below(4) as usize]),
                    Value::Int(rng.below(1000) as i64 - 500),
                    Value::Float(rng.below(10_000) as f64 / 7.0),
                ],
            )
        })
        .collect()
}

/// No stream needs a shard key for its exact aggregates to leave the
/// control thread: behind a keyless root an ungrouped `Count` and a
/// grouped `Max` absorb as per-worker partials — byte-identical to one
/// shard, with every unit its own morsel — while a float `Avg`, whose
/// partials would round by schedule, stays behind the merge.
#[test]
fn exact_aggregates_over_a_keyless_stream_run_as_partials() {
    let ticks = || LogicalPlan::source("ticks");
    let run = |plan: &LogicalPlan, shards: usize| {
        let mut e = DsmsEngine::new()
            .with_max_batch_size(16)
            .with_shards(shards);
        e.register_stream(
            "ticks",
            Schema::new(vec![
                Field::new("sym", DataType::Str),
                Field::new("qty", DataType::Int),
                Field::new("price", DataType::Float),
            ]),
        );
        let cq = e.add_query(plan.clone()).unwrap();
        work::reset();
        // Two pooled flushes — the advance barrier with jobs on pool
        // seats — then small ones, which run every job inline.
        let ticks = tick_rows(2 * POOLED_ROWS as u64 + 200);
        let (large, small) = ticks.split_at(2 * POOLED_ROWS);
        for chunk in large.chunks(POOLED_ROWS).chain(small.chunks(50)) {
            e.push_rows("ticks", chunk.to_vec());
        }
        e.finish();
        (e.take_outputs(cq), e.tuples_processed(), work::snapshot())
    };
    let count = ticks().aggregate(None, AggFunc::Count, 0, 64);
    let max = ticks().aggregate(Some(0), AggFunc::Max, 2, 64);
    let avg = ticks().aggregate(Some(0), AggFunc::Avg, 2, 64);
    for plan in [&count, &max, &avg] {
        let (reference, ref_rows, _) = run(plan, 1);
        assert!(!reference.is_empty());
        for shards in [2, 4, 8] {
            let (got, rows, snap) = run(plan, shards);
            assert_eq!(got, reference, "shards {shards}");
            assert_eq!(rows, ref_rows, "shards {shards}");
            assert_eq!(snap.chain_morsels, 0, "shards {shards}: {snap:?}");
            assert_eq!(snap.shard_merge_rows, 0, "whole batches never interleave");
            let absorbed_in_plan = snap.keyed_shard_rows > 0;
            let as_grouped_partials = snap.grouped_partial_rows > 0;
            assert_eq!(
                (absorbed_in_plan, as_grouped_partials),
                (!std::ptr::eq(plan, &avg), std::ptr::eq(plan, &max)),
                "shards {shards}: {snap:?}"
            );
            // The two large flushes are pooled wherever the plan has
            // morsels to run.
            let wakeups = if absorbed_in_plan {
                2 * (shards - 1)
            } else {
                0
            };
            assert_eq!(snap.pool_wakeups, wakeups as u64, "shards {shards}");
        }
    }
}

/// `rows` rows of a two-stream feed in event-time order, four rows per
/// millisecond from `start` on, every fourth row a `news` row.
fn timed_feed(rng: &mut Lcg, start: u64, rows: usize) -> Vec<(String, Tuple)> {
    (0..rows as u64)
        .map(|i| {
            let ts = start + i / 4;
            let sym = Value::str(SYMS[rng.below(4) as usize]);
            if i % 4 == 3 {
                (
                    "news".to_string(),
                    Tuple::new(ts, vec![sym, Value::str("h")]),
                )
            } else {
                let price = Value::Float(rng.below(200) as f64 / 3.0);
                ("quotes".to_string(), Tuple::new(ts, vec![sym, price]))
            }
        })
        .collect()
}

/// Flushes on both sides of [`INLINE_FLUSH_ROWS`] — inline and pooled — at
/// 2 and 4 shards, for a chain plan (a join and a float `Avg`: one chain
/// morsel per home shard) and a commutative one (exact aggregates: the
/// advance-phase barrier, which an inline flush must pass with every job on
/// the control thread), with and without a mid-stream `set_shards` that
/// re-homes live state: every run's outputs, taken after every flush,
/// equal one shard's byte for byte, and only pooled flushes wake the
/// pool, once per seat.
#[test]
fn flushes_straddling_the_inline_threshold_match_one_shard() {
    let quotes = || LogicalPlan::source("quotes");
    let chain = [
        quotes().join(LogicalPlan::source("news"), 0, 0, 40),
        quotes().aggregate(Some(0), AggFunc::Avg, 1, 50),
    ];
    let commutative = [
        quotes().aggregate(Some(0), AggFunc::Count, 0, 50),
        quotes()
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))))
            .aggregate(Some(0), AggFunc::Max, 1, 70),
    ];
    let sizes = [
        INLINE_FLUSH_ROWS - 1,
        INLINE_FLUSH_ROWS,
        7,
        INLINE_FLUSH_ROWS + 50,
        100,
        2 * INLINE_FLUSH_ROWS,
    ];
    // Shard counts before and after the switch, which comes before the
    // fourth flush.
    let run = |plans: &[LogicalPlan], (before, after): (usize, usize)| {
        let mut e = engine().with_max_batch_size(64).with_shards(before);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let cqs: Vec<_> = plans
            .iter()
            .map(|p| e.add_query(p.clone()).unwrap())
            .collect();
        let mut rng = Lcg(53);
        let (mut start, mut wakeups) = (0, 0);
        let mut outputs = Vec::new();
        work::reset();
        for (k, &rows) in sizes.iter().enumerate() {
            if k == 3 {
                e.set_shards(after);
            }
            e.push_batch(timed_feed(&mut rng, start, rows));
            start += rows as u64 / 4 + 1;
            wakeups += pooled_wakeups(rows, if k < 3 { before } else { after } as u64);
            outputs.extend(cqs.iter().map(|&cq| e.take_outputs(cq)));
        }
        assert_eq!(
            work::snapshot().pool_wakeups,
            wakeups,
            "shards {before} -> {after}: only pooled flushes wake seats"
        );
        e.finish();
        outputs.extend(cqs.iter().map(|&cq| e.take_outputs(cq)));
        outputs
    };
    for plans in [&chain[..], &commutative[..]] {
        let reference = run(plans, (1, 1));
        assert!(reference.iter().filter(|out| !out.is_empty()).count() > 2 * plans.len());
        for shards in [(2, 2), (4, 4), (2, 4), (4, 2)] {
            assert_eq!(run(plans, shards), reference, "shards {shards:?}");
        }
    }
}
