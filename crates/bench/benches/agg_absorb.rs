//! Per-layer micro-bench of `AggregateOp`'s absorb and window-close path —
//! the operator under the shadow calibration's largest share.
//!
//! One grouped tumbling aggregate (1 s windows over a 1 row/ms feed, 64
//! distinct keys, Zipf-free so every window holds every key) driven
//! directly through `Operator::process` — the control thread's view,
//! `partition: None` — with the watermark advanced after every batch:
//!
//! * function: `Count` (never reads the column), `Max`, float `Avg`
//!   (order-sensitive accumulation);
//! * group key: a `Dict` column (sealed — the code-grouped absorb: one state
//!   probe per batch, window and distinct key), the same strings as a plain
//!   `Str` column and an `Int` column (the per-row path);
//! * batch size 16 and 1024; dense, or through a 50 % selection vector.
//!
//! A second, **close-heavy** group runs the same feed through 64 ms windows
//! (every window holds every key once: one emitted row per absorbed row)
//! and reports the time spent inside `Operator::advance` per emitted row.
//!
//! A third, **fresh-keys** group gives every row a key of its own (an order
//! id: 100 ms windows, 1000-row batches) and reports the whole run per row
//! at 50 k and 400 k rows — equal when state is bounded by the live groups,
//! not by the groups ever seen.
//!
//! Wall clock is noisy on the build container; the deterministic gate is
//! the counters: a `Dict` key costs exactly one code read per absorbed row
//! and no absorb materializes a row.

use cqac_bench::{report_per_unit, timed};
use cqac_dsms::ops::{AggregateOp, Operator};
use cqac_dsms::plan::AggFunc;
use cqac_dsms::types::{work, DataType, Field, Schema, Tuple, TupleBatch, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 16_384;
const KEYS: usize = 64;
const WINDOW_MS: u64 = 1_000;

#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Dict,
    Str,
    Int,
}

fn input_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("account", DataType::Int),
    ]))
}

/// The feed cut into `size`-row batches: sealed (`Dict` symbols) or plain.
fn batches(size: usize, sealed: bool) -> Vec<TupleBatch> {
    feed(ROWS, KEYS, size, sealed)
}

/// `rows` rows, one per ms, over `keys` distinct keys.
fn feed(rows: usize, keys: usize, size: usize, sealed: bool) -> Vec<TupleBatch> {
    let rows: Vec<Tuple> = (0..rows)
        .map(|i| {
            let key = (i * 7) % keys;
            Tuple::new(
                i as u64,
                vec![
                    Value::str(format!("S{key:02}")),
                    Value::Float(((i * 31) % 977) as f64 / 4.0),
                    Value::Int(key as i64),
                ],
            )
        })
        .collect();
    rows.chunks(size)
        .map(|chunk| {
            let mut batch = TupleBatch::with_capacity(input_schema(), chunk.len());
            batch.extend(chunk.iter().cloned());
            if sealed {
                batch.seal();
            }
            batch
        })
        .collect()
}

fn operator(func: AggFunc, key: KeyKind, window_ms: u64) -> AggregateOp {
    let (group_by, key_type) = match key {
        KeyKind::Dict | KeyKind::Str => (0, DataType::Str),
        KeyKind::Int => (2, DataType::Int),
    };
    let (column, agg_type) = match func {
        AggFunc::Count => (0, DataType::Int),
        _ => (1, DataType::Float),
    };
    let schema = Schema::new(vec![
        Field::new("window_end", DataType::Int),
        Field::new("key", key_type),
        Field::new("agg", agg_type),
    ]);
    AggregateOp::new(
        Some(group_by),
        func,
        column,
        window_ms,
        schema,
        func == AggFunc::Count,
    )
}

/// Absorbs the whole feed, closing windows as the watermark passes them;
/// returns the emitted row count and the time spent closing.
fn run_timed(
    func: AggFunc,
    key: KeyKind,
    window_ms: u64,
    feed: &[TupleBatch],
    selected: bool,
) -> (usize, Duration) {
    let op = operator(func, key, window_ms);
    let (mut emitted, mut closing) = (0, Duration::ZERO);
    for batch in feed {
        let sel: Option<Vec<u32>> = selected.then(|| (0..batch.len() as u32).step_by(2).collect());
        op.process(None, 0, batch, sel.as_deref(), false);
        let (closed, spent) = timed(|| op.advance(None, batch.max_ts().unwrap_or(0)));
        emitted += closed.map_or(0, |(closed, _)| black_box(closed).len());
        closing += spent;
    }
    (
        emitted + op.finish().map_or(0, |closed| closed.len()),
        closing,
    )
}

fn run(func: AggFunc, key: KeyKind, feed: &[TupleBatch], selected: bool) -> usize {
    run_timed(func, key, WINDOW_MS, feed, selected).0
}

fn bench_agg_absorb(c: &mut Criterion) {
    // The deterministic gate.
    for key in [KeyKind::Dict, KeyKind::Str, KeyKind::Int] {
        let feed = batches(1_024, matches!(key, KeyKind::Dict));
        work::reset();
        let emitted = run(AggFunc::Avg, key, &feed, false);
        let snap = work::snapshot();
        assert_eq!(emitted, KEYS * ROWS.div_ceil(WINDOW_MS as usize));
        assert_eq!(snap.rows_materialized, 0, "{key:?}: absorb never gathers");
        let code_reads = if matches!(key, KeyKind::Dict) {
            ROWS
        } else {
            0
        };
        assert_eq!(
            snap.dict_code_cmps, code_reads as u64,
            "{key:?}: one code read per keyed row"
        );
    }

    let mut group = c.benchmark_group("agg_absorb");
    group.sample_size(10);
    for size in [16usize, 1_024] {
        for key in [KeyKind::Dict, KeyKind::Str, KeyKind::Int] {
            let feed = batches(size, matches!(key, KeyKind::Dict));
            for (func, name) in [
                (AggFunc::Count, "count"),
                (AggFunc::Max, "max"),
                (AggFunc::Avg, "avg"),
            ] {
                for selected in [false, true] {
                    let rows = if selected { "half" } else { "dense" };
                    group.bench_with_input(
                        BenchmarkId::new(format!("{name}_{key:?}_{rows}"), size),
                        &feed,
                        |b, feed| b.iter(|| black_box(run(func, key, feed, selected))),
                    );
                }
            }
        }
    }
    group.finish();

    println!("\n== agg_close ==");
    for size in [16usize, 1_024] {
        for key in [KeyKind::Dict, KeyKind::Str, KeyKind::Int] {
            let feed = batches(size, matches!(key, KeyKind::Dict));
            let label = format!("agg_close/avg_{key:?}/{size}");
            report_per_unit(&label, "emitted row", || {
                let (emitted, closing) = run_timed(AggFunc::Avg, key, KEYS as u64, &feed, false);
                assert_eq!(emitted, ROWS, "every window holds every key once");
                (emitted, closing)
            });
        }
    }

    println!("\n== agg_fresh_keys ==");
    for rows in [50_000usize, 400_000] {
        for key in [KeyKind::Str, KeyKind::Int] {
            let feed = feed(rows, usize::MAX, 1_000, false);
            let label = format!("agg_fresh_keys/count_{key:?}/{rows}");
            report_per_unit(&label, "row", || {
                let ((emitted, _), spent) =
                    timed(|| run_timed(AggFunc::Count, key, 100, &feed, false));
                assert_eq!(emitted, rows, "every row is a group of its own");
                (rows, spent)
            });
        }
    }
}

criterion_group!(benches, bench_agg_absorb);
criterion_main!(benches);
