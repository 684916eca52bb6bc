//! Per-layer micro-bench of `JoinOp`'s probe/insert/evict path — the
//! largest stateful entry of `burst_small_chunks`.
//!
//! One symmetric equi-join (50 ms window, 64 keys, one row every 2 ms on
//! each side, every left row with exactly one right partner — one output
//! row per two input rows, about `burst_small_chunks`' ratio) driven
//! directly through `Operator::process` — the control thread's view,
//! `partition: None` — left and right batches alternating, the watermark
//! advanced after every pair (as after a flush that carried both):
//!
//! * join key: a `Dict` column (sealed against one dictionary per side, as
//!   the engine seals a stream — key cells resolve through the
//!   per-dictionary `code → id` table), the same strings as a plain `Str`
//!   column and an `Int` column (one hash probe per row);
//! * batch size 16 and 1024; dense, or through a 50 % selection vector.
//!
//! A **fresh-keys** group gives every left row a key of its own (an order
//! id, met once by its right partner) and reports ns per input row at 50 k
//! and 400 k rows a side — equal when state is bounded by the buffered keys,
//! not by the keys ever seen.
//!
//! Wall clock is noisy on the build container; the deterministic gate is
//! the counters: the join never materializes a row and never compares
//! string bytes, and a `Dict` key costs exactly one code read per row.

use cqac_bench::{report_per_unit, timed};
use cqac_dsms::ops::{JoinOp, Operator};
use cqac_dsms::types::{work, DataType, DictInterner, Field, Schema, Tuple, TupleBatch, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 16_384;
const KEYS: usize = 64;
const WINDOW_MS: u64 = 50;

#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Dict,
    Str,
    Int,
}

fn input_schema() -> Schema {
    Schema::new(vec![
        Field::new("symbol", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("account", DataType::Int),
    ])
}

/// One side's feed cut into `size`-row batches: sealed against the side's
/// one dictionary (`Dict` symbols) or plain.
fn batches(side: usize, size: usize, sealed: bool) -> Vec<TupleBatch> {
    feed(side, ROWS, KEYS, size, sealed)
}

/// `rows` rows of one side, over `keys` distinct keys.
fn feed(side: usize, rows: usize, keys: usize, size: usize, sealed: bool) -> Vec<TupleBatch> {
    let schema = Arc::new(input_schema());
    let mut dicts: Vec<DictInterner> = (0..schema.len()).map(|_| DictInterner::default()).collect();
    let rows: Vec<Tuple> = (0..rows)
        .map(|i| {
            let key = (i * 7) % keys;
            Tuple::new(
                2 * i as u64 + side as u64,
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
            let mut batch = TupleBatch::with_capacity(schema.clone(), chunk.len());
            batch.extend(chunk.iter().cloned());
            if sealed {
                batch.seal_into(&mut dicts);
            }
            batch
        })
        .collect()
}

/// Joins the two feeds, evicting as the watermark passes; returns the
/// input and output row counts.
fn run(key: KeyKind, feeds: &[Vec<TupleBatch>; 2], selected: bool) -> (usize, usize) {
    let key_col = if matches!(key, KeyKind::Int) { 2 } else { 0 };
    let schema = input_schema().join(&input_schema());
    let op = JoinOp::new(key_col, key_col, WINDOW_MS, schema);
    let (mut rows_in, mut rows_out) = (0, 0);
    for (left, right) in feeds[0].iter().zip(&feeds[1]) {
        for (port, batch) in [(0, left), (1, right)] {
            let sel: Option<Vec<u32>> =
                selected.then(|| (0..batch.len() as u32).step_by(2).collect());
            rows_in += sel.as_ref().map_or(batch.len(), Vec::len);
            let (matches, _) = op.process(None, port, batch, sel.as_deref(), false);
            rows_out += matches.map_or(0, |m| black_box(m).len());
        }
        op.advance(None, right.max_ts().unwrap_or(0));
    }
    (rows_in, rows_out)
}

fn bench_join_probe(_c: &mut Criterion) {
    // The deterministic gate.
    for key in [KeyKind::Dict, KeyKind::Str, KeyKind::Int] {
        let sealed = matches!(key, KeyKind::Dict);
        let feeds = [batches(0, 1_024, sealed), batches(1, 1_024, sealed)];
        work::reset();
        let (rows_in, rows_out) = run(key, &feeds, false);
        let snap = work::snapshot();
        assert_eq!(rows_in, 2 * ROWS);
        assert_eq!(rows_out, ROWS, "{key:?}: each left row has one partner");
        assert_eq!(snap.rows_materialized, 0, "{key:?}: no row is built");
        assert_eq!(snap.str_cmps, 0, "{key:?}: no string bytes are compared");
        let code_reads = if sealed { rows_in } else { 0 };
        assert_eq!(
            snap.dict_code_cmps, code_reads as u64,
            "{key:?}: one code read per keyed row"
        );
    }

    println!("\n== join_probe ==");
    for size in [16usize, 1_024] {
        for key in [KeyKind::Dict, KeyKind::Str, KeyKind::Int] {
            let sealed = matches!(key, KeyKind::Dict);
            let feeds = [batches(0, size, sealed), batches(1, size, sealed)];
            for selected in [false, true] {
                let rows = if selected { "half" } else { "dense" };
                report_per_unit(
                    &format!("join_probe/{key:?}_{rows}/{size}"),
                    "input row",
                    || {
                        let ((rows_in, _), spent) = timed(|| run(key, &feeds, selected));
                        (rows_in, spent)
                    },
                );
            }
        }
    }

    println!("\n== join_fresh_keys ==");
    for rows in [50_000usize, 400_000] {
        for key in [KeyKind::Str, KeyKind::Int] {
            let feeds = [0, 1].map(|side| feed(side, rows, usize::MAX, 1_000, false));
            let label = format!("join_fresh_keys/{key:?}/{rows}");
            report_per_unit(&label, "input row", || {
                let ((rows_in, rows_out), spent) = timed(|| run(key, &feeds, false));
                assert_eq!(rows_out, rows, "each left row has one partner");
                (rows_in, spent)
            });
        }
    }
}

criterion_group!(benches, bench_join_probe);
criterion_main!(benches);
