//! DSMS substrate throughput: the value of shared operator processing and
//! of batched execution.
//!
//! Two sharing workloads over the same stream volume: `shared` registers 32
//! *identical* selections (one physical operator, 32 sinks), `distinct`
//! registers 32 different-threshold selections (32 physical operators).
//! The shared network processes each tuple once — the premise that makes
//! the paper's auction problem combinatorially hard is also what makes the
//! engine fast.
//!
//! The `ingest_batch_size` group sweeps the engine's batch-size knob
//! (1 vs 64 vs 1024) over the shared-network workload: batch size 1
//! degrades to per-tuple execution, so the sweep tracks the speedup the
//! batched refactor buys in the perf trajectory.
//!
//! The `operator_fusion` group sweeps the fusion knob at batch 64 over two
//! workloads: the 32-shared-filter workload deepened into chains
//! (filter→filter→project — one fused node vs three), and a 6-operator
//! deep chain where fusion's hop removal dominates (6× fewer operator
//! invocations; the shared workload is bounded below by its 32-sink
//! delivery fan-out, which fusion does not touch).
//!
//! The `shard_count` group sweeps the worker-shard knob (1 vs 2 vs 4) over
//! the 32-shared-filter workload at batch 64, asserting the deterministic
//! work counters (`tuples_processed` is shard-count invariant — parallel
//! execution partitions rows, never duplicates them); its `empty_flush`
//! and `keyed_flush_100_rows` cells time one flush per sample at shards
//! 1/2, the fixed per-flush cost of the handoff. The
//! `shard_count_keyed_stateful` group runs a symbol-keyed aggregate+join
//! workload with the merge barrier *past* the stateful operators,
//! asserting stateful rows run on the shards with selection pushdown and
//! that the persistent worker pool spawns zero threads after warmup.
//!
//! The `hot_key_skew` group drives a keyed aggregation workload with
//! zipf-skewed vs uniform key distributions (from `cqac-workload`'s
//! hot-key scenarios) at shards=4. Under skew the hash-partitioned *home*
//! placement concentrates on the hot shard while the *executing*-job rows
//! stay spread — a job that finishes its own home claims any home still
//! unclaimed (`morsels_stolen > 0`); the counters show each job tries
//! each other home once instead of spinning. A `grouped_partials` cell
//! runs an exact grouped aggregate at a shard-incompatible group key as
//! per-home hash partials, combined at every window close.
//!
//! The `fault_recovery` group prices the robustness layer: an inert
//! fault plan vs none (per-invocation injection-hook overhead), a
//! mid-run panic quarantine, and overload shedding under a flood.

use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::expr::Expr;
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::streams::{news_schema, quote_schema, NewsStream, StockStream};
use cqac_dsms::types::{DataType, Field, Schema, Tuple, Value};
use cqac_workload::{hot_key_rows, HotKeyParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SYMBOLS: [&str; 8] = ["IBM", "AAPL", "MSFT", "ORCL", "SAP", "TSM", "AMD", "NVDA"];

fn quotes(n: usize) -> Vec<(String, Tuple)> {
    StockStream::new(&SYMBOLS, 1, 42)
        .next_batch(n)
        .into_iter()
        .map(|t| ("quotes".to_string(), t))
        .collect()
}

fn engine_with(plans: impl IntoIterator<Item = LogicalPlan>) -> DsmsEngine {
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    for p in plans {
        e.add_query(p).expect("valid plan");
    }
    e
}

fn bench_batch_sizes(c: &mut Criterion) {
    let rows: Vec<Tuple> = StockStream::new(&SYMBOLS, 1, 42).next_batch(20_000);
    let mut group = c.benchmark_group("ingest_batch_size");
    group.sample_size(20);
    for cap in [1usize, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("shared_32_filters", cap),
            &cap,
            |b, &cap| {
                b.iter(|| {
                    let mut e = engine_with((0..32).map(|_| {
                        LogicalPlan::source("quotes")
                            .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
                    }));
                    e.set_max_batch_size(cap);
                    e.push_rows("quotes", rows.clone());
                    black_box((e.tuples_processed(), e.batches_processed()))
                });
            },
        );
    }
    group.finish();
}

fn bench_fusion(c: &mut Criterion) {
    let rows: Vec<Tuple> = StockStream::new(&SYMBOLS, 1, 42).next_batch(20_000);
    // The 32-shared-filter workload of `engine_sharing`, deepened into a
    // stateless chain (one fused node vs three). High-pass-rate predicates
    // keep every hop loaded: what fusion removes is the per-hop queue
    // traffic and intermediate batch materialization, so the chain's tail
    // must carry tuples for the sweep to measure it. Note the shared
    // variant is bounded below by its 32-sink delivery fan-out (untouched
    // by fusion); `deep_chain_x6` isolates the hop savings.
    let chain = || {
        LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(5.0))))
            .filter(Expr::col(2).gt(Expr::lit(Value::Int(50))))
            .project(vec![
                ("symbol".to_string(), Expr::col(0)),
                ("price".to_string(), Expr::col(1)),
            ])
    };
    let mut group = c.benchmark_group("operator_fusion");
    group.sample_size(20);
    for fused in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("shared_32_chains_batch64", fused),
            &fused,
            |b, &fused| {
                b.iter(|| {
                    let mut e = DsmsEngine::new().with_fusion(fused).with_max_batch_size(64);
                    e.register_stream("quotes", quote_schema());
                    for _ in 0..32 {
                        e.add_query(chain()).expect("valid plan");
                    }
                    e.push_rows("quotes", rows.clone());
                    black_box((e.tuples_processed(), e.batches_processed()))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("deep_chain_x6_batch64", fused),
            &fused,
            |b, &fused| {
                // One query, six stateless operators: unfused moves every
                // surviving tuple through six queue hops; fused runs the
                // whole chain in one node.
                let mut deep = LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(2.0))));
                for i in 0..4i64 {
                    deep = deep.filter(Expr::col(2).gt(Expr::lit(Value::Int(i))));
                }
                let deep = deep.project(vec![
                    ("symbol".to_string(), Expr::col(0)),
                    ("price".to_string(), Expr::col(1)),
                ]);
                b.iter(|| {
                    let mut e = DsmsEngine::new().with_fusion(fused).with_max_batch_size(64);
                    e.register_stream("quotes", quote_schema());
                    e.add_query(deep.clone()).expect("valid plan");
                    e.push_rows("quotes", rows.clone());
                    black_box((e.tuples_processed(), e.batches_processed()))
                });
            },
        );
    }
    group.finish();
}

fn bench_shards(c: &mut Criterion) {
    // The 32-shared-filter workload through the parallel executor at
    // shard counts 1/2/4. The deterministic `tuples_processed` assertion
    // proves sharding partitions rows without duplicating per-row work;
    // wall clock tracks the multi-core win on machines that have the
    // cores (single-core CI containers show flat wall clock — trust the
    // work counters there, as with the fusion group).
    let rows: Vec<Tuple> = StockStream::new(&SYMBOLS, 1, 42).next_batch(20_000);
    let mut group = c.benchmark_group("shard_count");
    group.sample_size(10);
    let mut baseline_work: Option<u64> = None;
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("shared_32_filters_batch64", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut e = DsmsEngine::new()
                        .with_max_batch_size(64)
                        .with_shards(shards);
                    e.register_stream("quotes", quote_schema());
                    for _ in 0..32 {
                        e.add_query(
                            LogicalPlan::source("quotes")
                                .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0)))),
                        )
                        .expect("valid plan");
                    }
                    e.push_rows("quotes", rows.clone());
                    let processed = e.tuples_processed();
                    match baseline_work {
                        Some(want) => {
                            assert_eq!(want, processed, "sharding must not duplicate per-row work");
                        }
                        None => baseline_work = Some(processed),
                    }
                    black_box((processed, e.batches_processed()))
                });
            },
        );
    }
    // The fixed cost of one flush through the handoff, one flush per
    // sample: an empty flush, and a 100-row keyed flush (the size of the
    // `auction-day` news flushes) into a symbol-keyed aggregate + join.
    group.sample_size(2_000);
    for shards in [1usize, 2] {
        let mut quotes_feed = StockStream::new(&SYMBOLS, 1, 42);
        let mut e = DsmsEngine::new()
            .with_shards(shards)
            .with_shard_key("quotes", 0)
            .with_shard_key("news", 0);
        e.register_stream("quotes", quote_schema());
        e.register_stream("news", news_schema());
        let high =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))));
        e.add_query(high.clone().aggregate(Some(0), AggFunc::Count, 0, 500))
            .expect("valid plan");
        e.add_query(high.join(LogicalPlan::source("news"), 0, 0, 100))
            .expect("valid plan");
        e.push_rows("quotes", quotes_feed.next_batch(1_000));
        group.bench_with_input(BenchmarkId::new("empty_flush", shards), &shards, |b, _| {
            b.iter(|| e.run_until_quiescent());
        });
        let chunks: Vec<Vec<Tuple>> = (0..=2_000).map(|_| quotes_feed.next_batch(100)).collect();
        let mut chunks = chunks.into_iter();
        group.bench_with_input(
            BenchmarkId::new("keyed_flush_100_rows", shards),
            &shards,
            |b, _| {
                b.iter(|| e.push_rows("quotes", chunks.next().expect("one chunk per sample")));
            },
        );
    }
    group.finish();

    // Keyed stateful sharding: a symbol-grouped aggregate + symbol-keyed
    // join workload where the merge barrier sits *past* the stateful
    // operators. The engine persists across iterations (fresh
    // time-advancing batches, so windows close and join state evicts) to
    // pin the two deterministic claims of the refactor: stateful rows are
    // processed on the shards (`keyed_shard_rows`, with selection
    // pushdown), and after the warmup flush the worker pool never spawns
    // again (`pool_spawns` stays flat — flushes wake parked workers).
    let mut group = c.benchmark_group("shard_count_keyed_stateful");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("agg_join_batch64", shards),
            &shards,
            |b, &shards| {
                let mut quotes_feed = StockStream::new(&SYMBOLS, 1, 42);
                let mut news_feed = NewsStream::new(&SYMBOLS, 2, 43);
                let mut e = DsmsEngine::new()
                    .with_max_batch_size(64)
                    .with_shards(shards)
                    .with_shard_key("quotes", 0)
                    .with_shard_key("news", 0);
                e.register_stream("quotes", quote_schema());
                e.register_stream("news", news_schema());
                let high = LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(20.0))));
                e.add_query(high.clone().aggregate(Some(0), AggFunc::Count, 0, 500))
                    .expect("valid plan");
                e.add_query(high.join(LogicalPlan::source("news"), 0, 0, 100))
                    .expect("valid plan");
                // Warmup flush: spawns the pool, exactly once per engine.
                cqac_dsms::types::work::reset();
                e.push_rows("quotes", quotes_feed.next_batch(64));
                let warm = cqac_dsms::types::work::snapshot();
                if shards > 1 {
                    assert_eq!(
                        warm.pool_spawns as usize,
                        shards - 1,
                        "warmup spawns the pool"
                    );
                }
                b.iter(|| {
                    e.push_rows("quotes", quotes_feed.next_batch(5_000));
                    e.push_rows("news", news_feed.next_batch(1_250));
                    black_box(e.tuples_processed())
                });
                let snap = cqac_dsms::types::work::snapshot();
                if shards > 1 {
                    assert_eq!(
                        snap.pool_spawns, warm.pool_spawns,
                        "zero worker spawns after warmup"
                    );
                    assert!(
                        snap.keyed_shard_rows > 0,
                        "stateful rows must run on the shards"
                    );
                    assert!(
                        snap.selection_pushdown_rows > 0,
                        "selection vectors push into the stateful operators"
                    );
                }
            },
        );
    }
    group.finish();
}

fn bench_hot_key_skew(c: &mut Criterion) {
    // Home claims under key skew. The stream is keyed on an integer
    // column whose distribution is either Zipf(64, 1) — the hottest key
    // draws ~21% of rows, so its home shard owns ~40% of all work — or
    // the uniform control with the same support and seed. Two queries: a
    // key-grouped Count (a keyed full member, one walk per home) and an
    // ungrouped Sum over the Int payload (a partial-aggregation member
    // combined on the control thread). The
    // engine persists across iterations with time-advancing rows so
    // windows close and the pool stays warm; counters accumulate over
    // every iteration, which smooths scheduling noise out of the balance
    // assertions.
    let event_schema = || {
        Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("value", DataType::Int),
        ])
    };
    let mut group = c.benchmark_group("hot_key_skew");
    group.sample_size(10);
    for (label, params) in [
        ("skewed", HotKeyParams::skewed(20_000)),
        ("uniform", HotKeyParams::uniform(20_000)),
    ] {
        let base = hot_key_rows(&params);
        let span = params.rows as u64;
        group.bench_function(label, |b| {
            let mut e = DsmsEngine::new()
                .with_max_batch_size(64)
                .with_shards(4)
                .with_shard_key("events", 0);
            e.register_stream("events", event_schema());
            e.add_query(LogicalPlan::source("events").aggregate(Some(0), AggFunc::Count, 0, 500))
                .expect("valid plan");
            e.add_query(LogicalPlan::source("events").aggregate(None, AggFunc::Sum, 1, 500))
                .expect("valid plan");
            let mut epoch = 0u64;
            let mut feed = |e: &mut DsmsEngine| {
                let off = epoch * span;
                epoch += 1;
                let rows = base
                    .iter()
                    .map(|r| {
                        Tuple::new(
                            r.ts + off,
                            vec![Value::Int(r.key as i64), Value::Int(r.value)],
                        )
                    })
                    .collect();
                e.push_rows("events", rows);
            };
            // Warmup flush spawns the pool; count from a clean slate.
            feed(&mut e);
            cqac_dsms::types::work::reset();
            b.iter(|| {
                feed(&mut e);
                black_box(e.tuples_processed())
            });
            let snap = cqac_dsms::types::work::snapshot();
            assert!(snap.morsels_executed > 0, "sharded flushes run as morsels");
            // Idle-free: each of a flush's 4 jobs — 3 woken seats and
            // the control thread — tries each other home once, so it
            // misses at most shards-1 claims; nobody spins on taken
            // homes.
            assert!(
                snap.steal_misses <= snap.morsels_executed * 3 + snap.pool_wakeups * 4,
                "steal misses ({}) exceed the sweep bound of {} morsels + {} wakeups",
                snap.steal_misses,
                snap.morsels_executed,
                snap.pool_wakeups
            );
            if label == "skewed" {
                assert!(
                    snap.morsels_stolen > 0,
                    "idle workers must steal the hot shard's backlog"
                );
            }
            // Home placement vs executing worker. `shard_rows` is
            // partition-time (hash of the key column): skew shows
            // here no matter what the scheduler does.
            let home = &e.stream_stats()["events"].shard_rows;
            let home_total: u64 = home.iter().sum();
            let home_max = home.iter().copied().max().unwrap_or(0);
            if label == "skewed" {
                assert!(
                    home_max * 10 > home_total * 3,
                    "zipf placement must concentrate on a hot shard \
                     (max {home_max} of {home_total})"
                );
            }
            // `shard_stats` attributes rows to the *executing* job,
            // and jobs that finish early claim the other homes, so
            // no job hoards the rows even under skew. Scheduling-dependent, so only asserted
            // when workers can actually overlap, and leniently:
            // no worker hoards >3/4 of the rows and at least two
            // workers execute.
            let parallel = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            if parallel >= 2 {
                let exec: Vec<u64> = e.shard_stats().iter().map(|s| s.rows).collect();
                let total: u64 = exec.iter().sum();
                let max = exec.iter().copied().max().unwrap_or(0);
                assert!(
                    max * 4 <= total * 3,
                    "executing rows stay near-balanced under stealing ({exec:?})"
                );
                assert!(
                    exec.iter().filter(|&&r| r > 0).count() >= 2,
                    "stealing spreads execution across workers ({exec:?})"
                );
            }
        });
    }
    // Grouped partial aggregation: an exact grouped Sum at a
    // shard-incompatible group key (the Int payload, col 1 — the shard key
    // is col 0) runs as per-home hash partials combined on the control
    // thread instead of behind the merge barrier.
    let params = HotKeyParams::skewed(20_000);
    let base = hot_key_rows(&params);
    let span = params.rows as u64;
    group.bench_function("grouped_partials", |b| {
        let mut e = DsmsEngine::new()
            .with_max_batch_size(64)
            .with_shards(4)
            .with_shard_key("events", 0);
        e.register_stream("events", event_schema());
        e.add_query(LogicalPlan::source("events").aggregate(Some(1), AggFunc::Sum, 1, 500))
            .expect("valid plan");
        let mut epoch = 0u64;
        let mut feed = |e: &mut DsmsEngine| {
            let off = epoch * span;
            epoch += 1;
            // Fold the ramp payload down to eight groups so every
            // group spans many rows, home shards, and therefore
            // partitions — each window close must combine
            // per-partition partial runs.
            let rows = base
                .iter()
                .map(|r| {
                    Tuple::new(
                        r.ts + off,
                        vec![Value::Int(r.key as i64), Value::Int(r.value % 8)],
                    )
                })
                .collect();
            e.push_rows("events", rows);
        };
        // Warmup flush spawns the pool; count from a clean slate.
        feed(&mut e);
        cqac_dsms::types::work::reset();
        b.iter(|| {
            feed(&mut e);
            black_box(e.tuples_processed())
        });
        let snap = cqac_dsms::types::work::snapshot();
        assert!(
            snap.grouped_partial_rows > 0,
            "grouped rows must accumulate in per-worker partials"
        );
        assert!(
            snap.partial_groups_combined > 0,
            "the watermark pass must combine per-group partial runs"
        );
    });
    group.finish();
}

fn bench_sharing(c: &mut Criterion) {
    let batch = quotes(5_000);
    let mut group = c.benchmark_group("engine_sharing");
    group.sample_size(20);

    group.bench_function("32_shared_filters", |b| {
        b.iter(|| {
            let mut e = engine_with((0..32).map(|_| {
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
            }));
            e.push_batch(batch.iter().cloned());
            black_box(e.tuples_processed())
        });
    });

    group.bench_function("32_distinct_filters", |b| {
        b.iter(|| {
            let mut e = engine_with((0..32).map(|i| {
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(80.0 + i as f64))))
            }));
            e.push_batch(batch.iter().cloned());
            black_box(e.tuples_processed())
        });
    });
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let batch = quotes(5_000);
    let news: Vec<(String, Tuple)> = NewsStream::new(&SYMBOLS, 2, 43)
        .next_batch(2_500)
        .into_iter()
        .map(|t| ("news".to_string(), t))
        .collect();
    let mut group = c.benchmark_group("engine_operators");
    group.sample_size(20);

    group.bench_function("filter_5k", |b| {
        b.iter(|| {
            let mut e = engine_with([LogicalPlan::source("quotes")
                .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))]);
            e.push_batch(batch.iter().cloned());
            black_box(e.tuples_processed())
        });
    });

    group.bench_function("aggregate_5k", |b| {
        b.iter(|| {
            let mut e = engine_with([LogicalPlan::source("quotes").aggregate(
                Some(0),
                AggFunc::Avg,
                1,
                100,
            )]);
            e.push_batch(batch.iter().cloned());
            black_box(e.tuples_processed())
        });
    });

    group.bench_function("join_5k_x_2k5", |b| {
        b.iter(|| {
            let mut e = engine_with([LogicalPlan::source("quotes").join(
                LogicalPlan::source("news"),
                0,
                0,
                50,
            )]);
            e.push_batch(batch.iter().cloned());
            e.push_batch(news.iter().cloned());
            black_box(e.tuples_processed())
        });
    });
    group.finish();
}

/// The robustness layer's price and recovery cost: an inert fault plan
/// (every kernel invocation pays the injection hook) vs no plan at all,
/// a mid-run quarantine (panic → attribution → query removal), and a
/// flood against the overload guardrails (deterministic shedding).
fn bench_fault_recovery(c: &mut Criterion) {
    use cqac_dsms::engine::OverloadPolicy;
    use cqac_dsms::fault::FaultPlan;
    use std::sync::Arc;

    let rows: Vec<Tuple> = StockStream::new(&SYMBOLS, 1, 42).next_batch(20_000);
    let build = || {
        let mut e = DsmsEngine::new();
        e.register_stream("quotes", quote_schema());
        for i in 0..8 {
            e.add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(60.0 + f64::from(i)))))
                    .aggregate(Some(0), AggFunc::Count, 0, 100),
            )
            .expect("valid plan");
        }
        e
    };

    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(10);

    group.bench_function("no_plan_20k", |b| {
        b.iter(|| {
            let mut e = build();
            e.push_rows("quotes", rows.clone());
            black_box(e.tuples_processed())
        });
    });

    group.bench_function("inert_plan_20k", |b| {
        b.iter(|| {
            let mut e = build();
            e.set_fault_plan(Some(Arc::new(FaultPlan::new())));
            e.push_rows("quotes", rows.clone());
            black_box(e.tuples_processed())
        });
    });

    group.bench_function("quarantine_20k", |b| {
        b.iter(|| {
            let mut e = build();
            // One victim panics mid-run; the other 7 queries keep serving.
            e.set_fault_plan(Some(Arc::new(FaultPlan::new().panic_on("aggregate", 100))));
            e.push_rows("quotes", rows.clone());
            black_box((e.tuples_processed(), e.take_quarantine_events().len()))
        });
    });

    group.bench_function("overload_shed_20k", |b| {
        b.iter(|| {
            let mut e = build();
            e.set_overload_policy(Some(OverloadPolicy {
                max_rows_per_flush: 4_096,
            }));
            e.push_rows("quotes", rows.clone());
            black_box(e.tuples_processed())
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_batch_sizes,
    bench_fusion,
    bench_shards,
    bench_hot_key_skew,
    bench_sharing,
    bench_operators,
    bench_fault_recovery
);
criterion_main!(benches);
