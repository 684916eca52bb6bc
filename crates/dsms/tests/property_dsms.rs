//! Property-based tests of the stream engine against reference
//! implementations, plus the sharing- and transition-correctness
//! guarantees the paper's system model assumes (§II).

use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::expr::Expr;
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::types::{work, DataType, Field, Schema, Tuple, Value};
use proptest::prelude::*;

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

const SYMS: [&str; 3] = ["IBM", "AAPL", "MSFT"];

fn quote(ts: u64, sym_idx: usize, price_cents: u32) -> Tuple {
    Tuple::new(
        ts,
        vec![
            Value::str(SYMS[sym_idx % SYMS.len()]),
            Value::Float(f64::from(price_cents) / 100.0),
        ],
    )
}

fn news(ts: u64, sym_idx: usize, tag: u8) -> Tuple {
    Tuple::new(
        ts,
        vec![
            Value::str(SYMS[sym_idx % SYMS.len()]),
            Value::str(format!("h{tag}")),
        ],
    )
}

/// Strategy: a sorted event-time quote stream.
fn quote_stream(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..500, 0usize..3, 1u32..30_000), 1..max_len).prop_map(
        |mut raw| {
            raw.sort_by_key(|(ts, _, _)| *ts);
            raw.into_iter().map(|(ts, s, p)| quote(ts, s, p)).collect()
        },
    )
}

fn engine() -> DsmsEngine {
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter ≡ the obvious reference: tuples whose price exceeds the
    /// threshold, in order.
    #[test]
    fn filter_matches_reference(stream in quote_stream(80), threshold in 1u32..30_000) {
        let t = f64::from(threshold) / 100.0;
        let mut e = engine();
        let cq = e
            .add_query(
                LogicalPlan::source("quotes")
                    .filter(Expr::col(1).gt(Expr::lit(Value::Float(t)))),
            )
            .unwrap();
        e.push_batch(stream.iter().cloned().map(|tp| ("quotes".to_string(), tp)));
        let got = e.take_outputs(cq);
        let expected: Vec<Tuple> = stream
            .iter()
            .filter(|tp| tp.values[1].as_f64().unwrap() > t)
            .cloned()
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Windowed join ≡ nested-loop reference over (quote, news) pairs with
    /// equal symbols and |Δts| ≤ window.
    #[test]
    fn join_matches_nested_loop(
        quotes in quote_stream(40),
        raw_news in proptest::collection::vec((0u64..500, 0usize..3, 0u8..4), 1..40),
        window in 1u64..100,
    ) {
        let mut news_tuples: Vec<Tuple> =
            raw_news.into_iter().map(|(ts, s, t)| news(ts, s, t)).collect();
        news_tuples.sort_by_key(|t| t.ts);

        let mut e = engine();
        let cq = e
            .add_query(
                LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 0, 0, window),
            )
            .unwrap();
        // Interleave by timestamp, as a real feed would.
        let mut feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .chain(news_tuples.iter().cloned().map(|t| ("news".to_string(), t)))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);
        e.push_batch(feed);

        let mut got = e.take_outputs(cq);
        let mut expected = Vec::new();
        for q in &quotes {
            for n in &news_tuples {
                if q.values[0] == n.values[0] && q.ts.abs_diff(n.ts) <= window {
                    let mut vals = q.values.clone();
                    vals.extend(n.values.iter().cloned());
                    expected.push(Tuple::new(q.ts.max(n.ts), vals));
                }
            }
        }
        let key = |t: &Tuple| (t.ts, format!("{:?}", t.values));
        got.sort_by_key(key);
        expected.sort_by_key(key);
        prop_assert_eq!(got, expected);
    }

    /// Tumbling count ≡ bucket counting, after finish().
    #[test]
    fn aggregate_count_matches_reference(stream in quote_stream(80), window in 1u64..200) {
        let mut e = engine();
        let cq = e
            .add_query(LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, window))
            .unwrap();
        e.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));
        e.finish();
        let got: Vec<(u64, i64)> = e
            .take_outputs(cq)
            .into_iter()
            .map(|t| (t.ts, t.values[1].as_int().unwrap()))
            .collect();

        let mut buckets = std::collections::BTreeMap::new();
        for t in &stream {
            *buckets.entry(t.ts - t.ts % window).or_insert(0i64) += 1;
        }
        let expected: Vec<(u64, i64)> =
            buckets.into_iter().map(|(start, n)| (start + window, n)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Shared execution is observationally equivalent to isolated
    /// execution: a query's outputs don't change because someone else
    /// registered the same (or an overlapping) plan.
    #[test]
    fn sharing_is_observationally_transparent(
        stream in quote_stream(60),
        threshold in 1u32..30_000,
    ) {
        let t = f64::from(threshold) / 100.0;
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(t))));
        let agg = plan.clone().aggregate(Some(0), AggFunc::Count, 0, 50);

        // Isolated: the aggregate alone.
        let mut isolated = engine();
        let iso_cq = isolated.add_query(agg.clone()).unwrap();
        isolated.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));
        isolated.finish();

        // Shared: the same aggregate next to two copies of the base filter.
        let mut shared = engine();
        shared.add_query(plan.clone()).unwrap();
        let shared_cq = shared.add_query(agg).unwrap();
        shared.add_query(plan).unwrap();
        shared.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));
        shared.finish();

        prop_assert_eq!(isolated.take_outputs(iso_cq), shared.take_outputs(shared_cq));
    }

    /// Transition correctness (§II): holding tuples at connection points
    /// while the network is modified neither loses nor duplicates results
    /// for a continuing query.
    #[test]
    fn transition_preserves_continuing_queries(
        stream in quote_stream(60),
        cut in 0usize..60,
        threshold in 1u32..30_000,
    ) {
        let t = f64::from(threshold) / 100.0;
        let watched = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(t))));

        // Reference run: no transition at all.
        let mut reference = engine();
        let ref_cq = reference.add_query(watched.clone()).unwrap();
        reference.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));

        // Transitioned run: at `cut`, hold, add and remove an unrelated
        // query, release.
        let mut subject = engine();
        let sub_cq = subject.add_query(watched).unwrap();
        let cut = cut.min(stream.len());
        for (i, tuple) in stream.iter().enumerate() {
            if i == cut {
                subject.begin_transition();
                let other = subject
                    .add_query(
                        LogicalPlan::source("quotes")
                            .filter(Expr::col(0).eq(Expr::lit(Value::str("MSFT")))),
                    )
                    .unwrap();
                subject.remove_query(other);
                subject.end_transition();
            }
            subject.push("quotes", tuple.clone());
        }
        subject.run_until_quiescent();

        prop_assert_eq!(reference.take_outputs(ref_cq), subject.take_outputs(sub_cq));
    }

    /// Tuples held during a transition are all delivered on release, in
    /// arrival order.
    #[test]
    fn held_tuples_replay_in_order(stream in quote_stream(40)) {
        let mut e = engine();
        let cq = e.add_query(LogicalPlan::source("quotes")).unwrap();
        e.begin_transition();
        for t in &stream {
            e.push("quotes", t.clone());
        }
        prop_assert_eq!(e.held_tuples(), stream.len());
        prop_assert_eq!(e.output_len(cq), 0);
        e.end_transition();
        prop_assert_eq!(e.take_outputs(cq), stream);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sliding-window count ≡ the per-window reference: every aligned window
    /// start gets the count of tuples it covers.
    #[test]
    fn sliding_count_matches_reference(
        stream in quote_stream(60),
        window_mult in 2u64..6,
        slide in 1u64..50,
    ) {
        let window = slide * window_mult;
        let mut e = engine();
        let cq = e
            .add_query(LogicalPlan::source("quotes").sliding_aggregate(
                None,
                AggFunc::Count,
                0,
                window,
                slide,
            ))
            .unwrap();
        e.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));
        e.finish();
        let got: std::collections::BTreeMap<u64, i64> = e
            .take_outputs(cq)
            .into_iter()
            .map(|t| (t.ts, t.values[1].as_int().unwrap()))
            .collect();

        let mut expected = std::collections::BTreeMap::new();
        for t in &stream {
            let last_start = t.ts - t.ts % slide;
            let mut start = last_start;
            loop {
                *expected.entry(start + window).or_insert(0i64) += 1;
                match start.checked_sub(slide) {
                    Some(prev) if prev + window > t.ts => start = prev,
                    _ => break,
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// A tumbling window is the slide == window special case: both plan
    /// spellings produce identical outputs (and share one operator).
    #[test]
    fn tumbling_equals_sliding_with_full_slide(stream in quote_stream(60), window in 1u64..100) {
        let mut e = engine();
        let tumbling = e
            .add_query(LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, window))
            .unwrap();
        let sliding = e
            .add_query(LogicalPlan::source("quotes").sliding_aggregate(
                None,
                AggFunc::Count,
                0,
                window,
                window,
            ))
            .unwrap();
        prop_assert_eq!(e.network().num_nodes(), 1, "identical signatures must share");
        e.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t)));
        e.finish();
        prop_assert_eq!(e.take_outputs(tumbling), e.take_outputs(sliding));
    }
}

/// Number of plan shapes [`equivalence_plan`] covers.
const EQUIVALENCE_KINDS: usize = 8;

/// Builds the plan under test for the scalar-vs-batched property: `kind`
/// selects the operator shape, the remaining parameters its knobs. Every
/// operator of the engine is covered (filter, project, windowed join,
/// tumbling aggregate, sliding aggregate, union), plus stateless chains
/// that exercise the fusion pass (filter→filter→project, project→project
/// feeding an aggregate).
fn equivalence_plan(kind: usize, thresh: u32, window: u64, slide: u64) -> LogicalPlan {
    let t = f64::from(thresh) / 100.0;
    let high = LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(t))));
    match kind % EQUIVALENCE_KINDS {
        0 => high,
        1 => LogicalPlan::source("quotes").project(vec![
            ("symbol".to_string(), Expr::col(0)),
            (
                "doubled".to_string(),
                Expr::Arith(
                    cqac_dsms::expr::ArithOp::Add,
                    Box::new(Expr::col(1)),
                    Box::new(Expr::col(1)),
                ),
            ),
        ]),
        2 => high.join(LogicalPlan::source("news"), 0, 0, window),
        3 => LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Count, 0, window),
        4 => {
            let slide = slide.min(window);
            LogicalPlan::source("quotes").sliding_aggregate(None, AggFunc::Avg, 1, window, slide)
        }
        5 => LogicalPlan::source("quotes").union(high),
        6 => high
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]),
        _ => LogicalPlan::source("quotes")
            .project(vec![
                ("price".to_string(), Expr::col(1)),
                ("symbol".to_string(), Expr::col(0)),
            ])
            .project(vec![
                ("symbol".to_string(), Expr::col(1)),
                ("price".to_string(), Expr::col(0)),
            ])
            .aggregate(Some(0), AggFunc::Count, 0, window),
    }
}

/// Runs `plan` (registered twice, so sharing is exercised) over `feed`
/// delivered in `chunk`-sized `push_batch` calls on an engine capped at
/// `max_batch` rows per batch. Returns both queries' outputs after
/// `finish()`.
fn run_chunked(
    plan: &LogicalPlan,
    feed: &[(String, Tuple)],
    chunk: usize,
    max_batch: usize,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut e = engine();
    e.set_max_batch_size(max_batch);
    let q1 = e.add_query(plan.clone()).unwrap();
    let q2 = e.add_query(plan.clone()).unwrap();
    for slice in feed.chunks(chunk.max(1)) {
        e.push_batch(slice.iter().cloned());
    }
    e.finish();
    (e.take_outputs(q1), e.take_outputs(q2))
}

/// Canonicalizes outputs for cross-chunking comparison. Single-input
/// pipelines (filter, project, aggregates) guarantee *sequence* equality
/// across chunkings, so they pass through untouched. Multi-port operators
/// (join, union) receive one port straight from a stream's connection point
/// and the other from an upstream operator: how those two arrival orders
/// interleave at the node depends on where ingestion-call boundaries fall
/// (exactly as it did under per-tuple execution, where it depended on the
/// push/run interleaving), so their guarantee is *multiset* equality and we
/// compare order-canonicalized sequences.
fn canonical(kind: usize, mut outputs: Vec<Tuple>) -> Vec<Tuple> {
    if matches!(kind % EQUIVALENCE_KINDS, 2 | 5) {
        outputs.sort_by_key(|t| (t.ts, format!("{:?}", t.values)));
    }
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Scalar vs. batched equivalence** — the tentpole property of the
    /// batched execution refactor: for random plans over every operator and
    /// a random (event-time-sorted) feed, per-query outputs are identical
    /// regardless of how the input is chunked (1, 7, 64, 1024 tuples per
    /// ingestion call) and of the engine's batch-size cap (including cap 1,
    /// which degrades to per-tuple execution). See [`canonical`] for the
    /// exact order guarantee per plan shape.
    #[test]
    fn scalar_vs_batched_equivalence(
        quotes in quote_stream(60),
        raw_news in proptest::collection::vec((0u64..500, 0usize..3, 0u8..4), 1..30),
        kind in 0usize..EQUIVALENCE_KINDS,
        thresh in 1u32..30_000,
        window in 1u64..100,
        slide in 1u64..50,
    ) {
        let plan = equivalence_plan(kind, thresh, window, slide);
        let mut news_tuples: Vec<Tuple> =
            raw_news.into_iter().map(|(ts, s, t)| news(ts, s, t)).collect();
        news_tuples.sort_by_key(|t| t.ts);
        // Interleave both streams by event time, as a real feed would.
        let mut feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .chain(news_tuples.into_iter().map(|t| ("news".to_string(), t)))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);

        // Reference: strict per-tuple execution (batch cap 1, one call).
        let (ref_q1, ref_q2) = run_chunked(&plan, &feed, feed.len(), 1);
        prop_assert_eq!(&ref_q1, &ref_q2, "shared queries must agree");
        let reference = canonical(kind, ref_q1);

        for &(chunk, cap) in &[
            (1usize, 1024usize), // tuple-at-a-time ingestion, large cap
            (7, 7),
            (64, 16),            // chunk larger than the engine cap
            (1024, 1024),        // whole feed in one call
        ] {
            let (got_q1, got_q2) = run_chunked(&plan, &feed, chunk, cap);
            prop_assert_eq!(&got_q1, &got_q2, "shared queries must agree");
            prop_assert_eq!(
                &canonical(kind, got_q1), &reference,
                "chunk {} / cap {} diverged from scalar execution", chunk, cap
            );
        }

        // The lane loops against their scalar tail. A one-row batch never
        // forms a full lane — in the compare kernels or in `AggregateOp`'s
        // dense-run absorb — so cap 1 is the all-scalar run of the feed; at
        // cap 1024 the quotes arrive as one batch and every full group of
        // eight rows runs the lane loops. Float sums included, the outputs
        // must be bit-identical.
        let lane_plan = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(f64::from(thresh) / 100.0))))
            .aggregate(None, AggFunc::Sum, 1, window);
        let quotes_only: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .collect();
        let run = |cap: usize| {
            work::reset();
            let (out, _) = run_chunked(&lane_plan, &quotes_only, quotes_only.len(), cap);
            (out, work::snapshot().simd_lanes)
        };
        let (scalar, scalar_lanes) = run(1);
        let (batched, batched_lanes) = run(1024);
        prop_assert_eq!(scalar, batched, "lane loops diverged from the scalar loop");
        prop_assert_eq!(scalar_lanes, 0, "cap 1 never forms a full lane");
        prop_assert_eq!(batched_lanes > 0, quotes.len() >= 8);
    }
}

/// A random stateless chain over the quote schema, optionally topped by an
/// aggregate so the fused node also feeds stateful state. Every stage
/// preserves the `(symbol: Str, price: Float)` shape, so stages compose in
/// any order; the generator covers filter→filter (predicate conjunction),
/// project→project (leaf substitution and staged non-leaf loops), and
/// mixed filter/project chains.
fn stateless_chain_plan(stages: &[(usize, u32)], top: usize, window: u64) -> LogicalPlan {
    let mut plan = LogicalPlan::source("quotes");
    for &(kind, param) in stages {
        let t = f64::from(param % 30_000) / 100.0;
        plan = match kind % 4 {
            0 => plan.filter(Expr::col(1).gt(Expr::lit(Value::Float(t)))),
            1 => plan
                .filter(Expr::col(0).eq(Expr::lit(Value::str(SYMS[param as usize % SYMS.len()])))),
            // Non-leaf projection: stays a staged kernel inside the fused
            // node.
            2 => plan.project(vec![
                ("symbol".to_string(), Expr::col(0)),
                (
                    "price".to_string(),
                    Expr::Arith(
                        cqac_dsms::expr::ArithOp::Add,
                        Box::new(Expr::col(1)),
                        Box::new(Expr::lit(Value::Float(t))),
                    ),
                ),
            ]),
            // Leaf projection: eligible for substitution composition.
            _ => plan.project(vec![
                ("symbol".to_string(), Expr::col(0)),
                ("price".to_string(), Expr::col(1)),
            ]),
        };
    }
    match top % 3 {
        0 => plan,
        1 => plan.aggregate(Some(0), AggFunc::Count, 0, window),
        _ => plan.aggregate(None, AggFunc::Avg, 1, window),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Fused vs unfused equivalence** — the tentpole property of the
    /// fusion pass: for random stateless chains (optionally feeding an
    /// aggregate), a network instantiated with fusion on is row-for-row
    /// identical to its unfused counterpart across batch-size caps
    /// 1/7/64/1024, and all caps agree with each other. Stateless chains
    /// are single-input pipelines, so the guarantee is strict sequence
    /// equality — no canonicalization.
    #[test]
    fn fused_network_equals_unfused(
        quotes in quote_stream(60),
        stages in proptest::collection::vec((0usize..4, 0u32..30_000), 1..5),
        top in 0usize..3,
        window in 1u64..100,
    ) {
        let plan = stateless_chain_plan(&stages, top, window);
        let feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .collect();
        let mut reference: Option<Vec<Tuple>> = None;
        for &cap in &[1usize, 7, 64, 1024] {
            let mut unfused = engine();
            unfused.set_fusion(false);
            unfused.set_max_batch_size(cap);
            let u1 = unfused.add_query(plan.clone()).unwrap();
            let u2 = unfused.add_query(plan.clone()).unwrap();
            unfused.push_batch(feed.iter().cloned());
            unfused.finish();
            let unfused_out = unfused.take_outputs(u1);
            prop_assert_eq!(&unfused_out, &unfused.take_outputs(u2), "unfused sharing");

            let mut fused = engine();
            fused.set_max_batch_size(cap);
            let f1 = fused.add_query(plan.clone()).unwrap();
            let f2 = fused.add_query(plan.clone()).unwrap();
            fused.push_batch(feed.iter().cloned());
            fused.finish();
            let fused_out = fused.take_outputs(f1);
            prop_assert_eq!(&fused_out, &fused.take_outputs(f2), "fused sharing");

            prop_assert!(
                fused.network().num_nodes() <= unfused.network().num_nodes(),
                "fusion never adds nodes"
            );
            prop_assert_eq!(&fused_out, &unfused_out, "fused ≠ unfused at cap {}", cap);
            match &reference {
                Some(r) => prop_assert_eq!(&fused_out, r, "cap {} diverged", cap),
                None => reference = Some(fused_out),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Columnar vs. row-kernel equivalence** — the tentpole property of
    /// the columnar batch layout: for random plans over every operator
    /// (filter, project, join, tumbling/sliding aggregates, union, fused
    /// stateless chains), an engine running the columnar filter/project
    /// kernels produces outputs **sequence-identical** to the same engine
    /// running the per-row fallback kernels, across batch-size caps
    /// 1/7/64/1024. Both runs chunk the feed identically, so even the
    /// multi-port operators (join, union) must agree row for row — no
    /// canonicalization.
    #[test]
    fn columnar_kernels_equal_row_kernels(
        quotes in quote_stream(60),
        raw_news in proptest::collection::vec((0u64..500, 0usize..3, 0u8..4), 1..30),
        kind in 0usize..EQUIVALENCE_KINDS,
        thresh in 1u32..30_000,
        window in 1u64..100,
        slide in 1u64..50,
    ) {
        let plan = equivalence_plan(kind, thresh, window, slide);
        let mut news_tuples: Vec<Tuple> =
            raw_news.into_iter().map(|(ts, s, t)| news(ts, s, t)).collect();
        news_tuples.sort_by_key(|t| t.ts);
        let mut feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .chain(news_tuples.into_iter().map(|t| ("news".to_string(), t)))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);

        for &cap in &[1usize, 7, 64, 1024] {
            let (row_q1, row_q2) = cqac_dsms::ops::with_columnar_kernels(false, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            prop_assert_eq!(&row_q1, &row_q2, "row sharing at cap {}", cap);
            let (col_q1, col_q2) = cqac_dsms::ops::with_columnar_kernels(true, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            prop_assert_eq!(&col_q1, &col_q2, "columnar sharing at cap {}", cap);
            prop_assert_eq!(&col_q1, &row_q1, "columnar ≠ row kernels at cap {}", cap);
        }
    }

    /// Fused chains under both kernel modes: random stateless chains
    /// (optionally topped by an aggregate) run through the fusion pass and
    /// must be sequence-identical between the columnar staged kernels and
    /// the per-row staged loop, across batch caps.
    #[test]
    fn columnar_fused_chains_equal_row_fused_chains(
        quotes in quote_stream(60),
        stages in proptest::collection::vec((0usize..4, 0u32..30_000), 1..5),
        top in 0usize..3,
        window in 1u64..100,
    ) {
        let plan = stateless_chain_plan(&stages, top, window);
        let feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .collect();
        for &cap in &[1usize, 7, 64, 1024] {
            let (col, _) = cqac_dsms::ops::with_columnar_kernels(true, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            let (row, _) = cqac_dsms::ops::with_columnar_kernels(false, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            prop_assert_eq!(&col, &row, "fused columnar ≠ row at cap {}", cap);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **NaN-ordering equivalence** — mixed Int×Float compares over a feed
    /// whose float column carries NaN rows: every comparison path (the
    /// per-row interpreter and the columnar kernels — all scalar at cap 1,
    /// lane loops plus tail above it) drops NaN rows identically, across
    /// batch caps 1/7/64/1024 and shard counts. Both mixed operand orders
    /// (Int op Float, Float op Int) and all six comparison operators are
    /// covered.
    #[test]
    fn nan_rows_drop_identically_everywhere(
        raw in proptest::collection::vec((0u64..500, 0usize..3, 1u32..30_000, 0u8..5), 1..60),
        op in 0usize..6,
        flip in 0usize..2,
    ) {
        use cqac_dsms::expr::CmpOp;
        let flip = flip == 1;
        let ops = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne];
        let mut feed: Vec<Tuple> = raw
            .into_iter()
            .map(|(ts, s, p, nan)| {
                Tuple::new(
                    ts,
                    vec![
                        Value::str(SYMS[s % SYMS.len()]),
                        Value::Int(i64::from(p) - 15_000),
                        // Roughly one row in five carries NaN; the rest
                        // straddle the Int payload's range so every
                        // operator selects a nontrivial subset.
                        if nan == 0 {
                            Value::Float(f64::NAN)
                        } else {
                            Value::Float(f64::from(p) - 15_000.5)
                        },
                    ],
                )
            })
            .collect();
        feed.sort_by_key(|t| t.ts);
        // Int op Float one way, Float op Int the other: both mixed
        // operand orders widen, and both must invalidate the NaN rows.
        let (l, r) = if flip { (2, 1) } else { (1, 2) };
        let plan = LogicalPlan::source("ticks").filter(Expr::col(l).cmp(ops[op], Expr::col(r)));

        for &cap in &[1usize, 7, 64, 1024] {
            let reference = cqac_dsms::ops::with_columnar_kernels(false, || {
                run_ticks_sharded(&plan, &feed, cap, 1)
            });
            let col = cqac_dsms::ops::with_columnar_kernels(true, || {
                run_ticks_sharded(&plan, &feed, cap, 1)
            });
            prop_assert_eq!(&col, &reference, "NaN rows: columnar ≠ row at cap {}", cap);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                let got = run_ticks_sharded(&plan, &feed, cap, shards);
                prop_assert_eq!(
                    &got, &reference,
                    "NaN rows diverged at shards {} cap {}", shards, cap
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Dict-vs-Str equivalence** — string equality filters, symbol
    /// joins, and symbol group-bys over a narrow symbol universe
    /// (dictionary-encoded at ingestion: predicates compare u32 codes,
    /// keys resolve through the per-dictionary id table) and a wide universe past
    /// `DICT_MAX_CARDINALITY` (decayed back to plain `Str` columns): the
    /// columnar and row kernels agree across batch caps, and the sharded
    /// engine replays the single-threaded run across shards × partition
    /// modes with identical `tuples_processed` — the encoding is a
    /// representation choice, never an observable one.
    #[test]
    fn dict_and_plain_string_columns_are_equivalent(
        raw_quotes in proptest::collection::vec((0u64..500, 0usize..1000, 1u32..30_000), 1..60),
        raw_news in proptest::collection::vec((0u64..500, 0usize..1000, 0u8..4), 1..30),
        wide in 0usize..2,
        kind in 0usize..3,
        window in 1u64..100,
    ) {
        let wide = wide == 1;
        let universe = if wide { 300 } else { 8 };
        let sym = |i: usize| format!("s{:03}", i % universe);
        let mut feed: Vec<(String, Tuple)> = raw_quotes
            .iter()
            .map(|&(ts, s, p)| {
                (
                    "quotes".to_string(),
                    Tuple::new(
                        ts,
                        vec![Value::str(sym(s)), Value::Float(f64::from(p) / 100.0)],
                    ),
                )
            })
            .chain(raw_news.iter().map(|&(ts, s, t)| {
                (
                    "news".to_string(),
                    Tuple::new(ts, vec![Value::str(sym(s)), Value::str(format!("h{t}"))]),
                )
            }))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);
        let quotes = LogicalPlan::source("quotes");
        let plan = match kind {
            0 => quotes.filter(Expr::col(0).eq(Expr::lit(Value::str(sym(3))))),
            1 => quotes.join(LogicalPlan::source("news"), 0, 0, window),
            _ => quotes.aggregate(Some(0), AggFunc::Count, 0, window),
        };

        for &cap in &[1usize, 7, 64, 1024] {
            let (row, _) = cqac_dsms::ops::with_columnar_kernels(false, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            let (col, _) = cqac_dsms::ops::with_columnar_kernels(true, || {
                run_chunked(&plan, &feed, feed.len(), cap)
            });
            prop_assert_eq!(
                &col, &row,
                "dict/str columnar ≠ row at cap {} (wide {})", cap, wide
            );
        }
        // Shard invariance at a mid-size cap: hash partitioning hashes
        // the decoded bytes whatever the representation, so placement
        // (and therefore outputs) cannot depend on the encoding.
        let (reference, ref_work) = run_sharded(&plan, &feed, 7, 1, Partition::RoundRobin);
        for &shards in &shard_counts() {
            if shards == 1 {
                continue;
            }
            for hash_key in partition_modes() {
                let (got, work) = run_sharded(&plan, &feed, 7, shards, hash_key);
                prop_assert_eq!(
                    &got, &reference,
                    "dict/str plan kind {} diverged at shards {} (hash_key {}, wide {})",
                    kind, shards, hash_key, wide
                );
                prop_assert_eq!(work, ref_work);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// **One batch shape behind every entry point** — the same rows pushed
    /// one at a time (`push`), as pairs (`push_batch`), as a column
    /// (`push_rows`), or into a transition's held buffer are sealed where
    /// the flush takes them, so every operator sees `Column::Dict` for the
    /// symbol column whichever call ingested it: outputs are byte-identical,
    /// every node consumed and produced the same row counts, no string
    /// predicate or key ever fell back to byte compares, and the per-row
    /// code work is the same to the unit.
    #[test]
    fn ingestion_entry_points_reach_operators_in_one_shape(
        stream in quote_stream(120),
        thresh in 1u32..30_000,
        window in 1u64..100,
        cap in 1usize..40,
    ) {
        let quotes = || LogicalPlan::source("quotes");
        let is_ibm = Expr::col(0).eq(Expr::lit(Value::str("IBM")));
        let pricey = Expr::col(1).gt(Expr::lit(Value::Float(f64::from(thresh) / 100.0)));
        let plans = [
            quotes().filter(is_ibm.clone()),
            quotes().filter(pricey).aggregate(Some(0), AggFunc::Avg, 1, window),
            quotes().filter(is_ibm).sliding_aggregate(Some(0), AggFunc::Count, 0, window, window.div_ceil(3)),
        ];
        let run = |entry: usize| {
            let mut e = engine();
            e.set_max_batch_size(cap);
            let cqs: Vec<_> = plans.iter().map(|p| e.add_query(p.clone()).unwrap()).collect();
            work::reset();
            match entry {
                0 => {
                    for t in &stream {
                        e.push("quotes", t.clone());
                    }
                    e.run_until_quiescent();
                }
                1 => e.push_batch(stream.iter().cloned().map(|t| ("quotes".to_string(), t))),
                2 => e.push_rows("quotes", stream.clone()),
                _ => {
                    e.begin_transition();
                    for t in &stream {
                        e.push("quotes", t.clone());
                    }
                    prop_assert_eq!(e.held_tuples(), stream.len());
                    e.end_transition();
                }
            }
            e.finish();
            let counters = work::snapshot();
            let nodes: Vec<(u64, u64)> = e
                .network()
                .node_ids()
                .into_iter()
                .map(|id| {
                    let n = e.network().node(id).unwrap();
                    (n.in_count, n.out_count)
                })
                .collect();
            let outputs: Vec<String> =
                cqs.iter().map(|&cq| format!("{:?}", e.take_outputs(cq))).collect();
            Ok((outputs, nodes, counters.dict_code_cmps, counters.str_cmps))
        };
        let reference = run(2)?;
        prop_assert_eq!(reference.3, 0, "push_rows ran a string byte compare");
        prop_assert!(reference.2 > 0, "the dictionary paths ran");
        for entry in [0, 1, 3] {
            prop_assert_eq!(&run(entry)?, &reference, "entry point {} diverged", entry);
        }
    }
}

/// Shard counts exercised by the shard-invariance suites. `CQAC_SHARDS`
/// (a comma-separated list, e.g. `1,4`) overrides the default `1,2,4,8`
/// so CI can matrix over shard sets without recompiling.
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
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// How [`run_sharded`] deals the two streams to the shards.
#[derive(Clone, Copy, Debug)]
enum Partition {
    /// No shard keys: whole batches, round-robin.
    RoundRobin,
    /// Both streams hash-partitioned on the symbol column.
    Keyed,
    /// `quotes` hash-partitioned on the symbol, `news` keyless — both root
    /// kinds inside one plan, so hash-partitioned chain morsels and
    /// whole-batch morsels share a flush.
    Mixed,
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Partition modes exercised by the shard-invariance suites (the
/// `hash_key` argument of [`run_sharded`]): always all three.
fn partition_modes() -> [Partition; 3] {
    [Partition::RoundRobin, Partition::Keyed, Partition::Mixed]
}

/// Runs `plan` (registered twice, so sharing is exercised) over `feed` on
/// an engine with the given shard count and partition mode. Returns the
/// outputs and the machine-independent work measure.
fn run_sharded(
    plan: &LogicalPlan,
    feed: &[(String, Tuple)],
    max_batch: usize,
    shards: usize,
    hash_key: Partition,
) -> (Vec<Tuple>, u64) {
    let mut e = engine();
    e.set_max_batch_size(max_batch);
    e.set_shards(shards);
    if matches!(hash_key, Partition::Keyed | Partition::Mixed) {
        e.set_shard_key("quotes", 0).unwrap();
    }
    if matches!(hash_key, Partition::Keyed) {
        e.set_shard_key("news", 0).unwrap();
    }
    let q1 = e.add_query(plan.clone()).unwrap();
    let q2 = e.add_query(plan.clone()).unwrap();
    e.push_batch(feed.iter().cloned());
    e.finish();
    let out = e.take_outputs(q1);
    assert_eq!(out, e.take_outputs(q2), "shared queries must agree");
    (out, e.tuples_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Shard-count invariance** — the tentpole property of the
    /// shard-per-stream executor: for random plans over every operator
    /// (filter, project, join, tumbling/sliding aggregates, union, fused
    /// stateless chains), the parallel engine produces output sequences
    /// **strictly equal** to the single-threaded engine (shards = 1)
    /// across shard counts (default 1/2/4/8, see [`shard_counts`]) crossed
    /// with batch caps 1/7/64/1024, under round-robin batch distribution,
    /// hash partitioning on the symbol column, and the two mixed — and with
    /// identical `tuples_processed`, so parallelism never duplicates or
    /// loses per-row work. Both runs chunk the feed identically, so even
    /// multi-port operators (join, union) must agree row for row.
    #[test]
    fn shard_count_invariance(
        quotes in quote_stream(60),
        raw_news in proptest::collection::vec((0u64..500, 0usize..3, 0u8..4), 1..30),
        kind in 0usize..EQUIVALENCE_KINDS,
        thresh in 1u32..30_000,
        window in 1u64..100,
        slide in 1u64..50,
    ) {
        let plan = equivalence_plan(kind, thresh, window, slide);
        let mut news_tuples: Vec<Tuple> =
            raw_news.into_iter().map(|(ts, s, t)| news(ts, s, t)).collect();
        news_tuples.sort_by_key(|t| t.ts);
        let mut feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .chain(news_tuples.into_iter().map(|t| ("news".to_string(), t)))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);

        for &cap in &[1usize, 7, 64, 1024] {
            let (reference, ref_work) = run_sharded(&plan, &feed, cap, 1, Partition::RoundRobin);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                for hash_key in partition_modes() {
                    let (got, work) = run_sharded(&plan, &feed, cap, shards, hash_key);
                    prop_assert_eq!(
                        &got, &reference,
                        "shards {} (hash_key {}) diverged at cap {}", shards, hash_key, cap
                    );
                    prop_assert_eq!(
                        work, ref_work,
                        "per-row work must be shard-count invariant (shards {})", shards
                    );
                }
            }
        }
    }
}

/// Plan shapes whose stateful operators are **keyed compatibly** with the
/// symbol shard key, so under hash partitioning the merge barrier moves
/// *past* them and they execute inside the shards with per-shard state:
/// a symbol-keyed join, a symbol-grouped aggregate (tumbling and sliding),
/// a filtered post-aggregate chain, stacked keyed aggregates, a keyed join
/// feeding a keyed aggregate, and a projection that relocates the key
/// before grouping.
const KEYED_STATEFUL_KINDS: usize = 7;

fn keyed_stateful_plan(kind: usize, thresh: u32, window: u64, slide: u64) -> LogicalPlan {
    let t = f64::from(thresh) / 100.0;
    let high = LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(t))));
    match kind % KEYED_STATEFUL_KINDS {
        0 => high.join(LogicalPlan::source("news"), 0, 0, window),
        1 => high.aggregate(Some(0), AggFunc::Count, 0, window),
        2 => {
            let slide = slide.min(window);
            LogicalPlan::source("quotes").sliding_aggregate(Some(0), AggFunc::Avg, 1, window, slide)
        }
        3 => high
            .aggregate(Some(0), AggFunc::Count, 0, window)
            .filter(Expr::col(2).gt(Expr::lit(Value::Int(1)))),
        4 => LogicalPlan::source("quotes")
            .aggregate(Some(0), AggFunc::Max, 1, window)
            .aggregate(Some(1), AggFunc::Count, 0, window.max(2) * 2),
        5 => high
            .join(LogicalPlan::source("news"), 0, 0, window)
            .aggregate(Some(0), AggFunc::Count, 0, window),
        _ => LogicalPlan::source("quotes")
            .project(vec![
                ("price".to_string(), Expr::col(1)),
                ("symbol".to_string(), Expr::col(0)),
            ])
            .aggregate(Some(1), AggFunc::Count, 0, window),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Keyed stateful shard invariance** — the tentpole property of the
    /// keyed-sharding refactor: for plans whose joins and aggregates are
    /// keyed compatibly with the shard key, the merge barrier moves past
    /// the stateful operators (they run inside the shards with per-shard
    /// state and per-shard window closes), and the outputs remain
    /// **strictly sequence-equal** to the single-threaded engine across
    /// shard counts × batch caps × every partition mode, with identical
    /// `tuples_processed`.
    #[test]
    fn keyed_stateful_shard_invariance(
        quotes in quote_stream(60),
        raw_news in proptest::collection::vec((0u64..500, 0usize..3, 0u8..4), 1..30),
        kind in 0usize..KEYED_STATEFUL_KINDS,
        thresh in 1u32..30_000,
        window in 1u64..100,
        slide in 1u64..50,
    ) {
        let plan = keyed_stateful_plan(kind, thresh, window, slide);
        let mut news_tuples: Vec<Tuple> =
            raw_news.into_iter().map(|(ts, s, t)| news(ts, s, t)).collect();
        news_tuples.sort_by_key(|t| t.ts);
        let mut feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .chain(news_tuples.into_iter().map(|t| ("news".to_string(), t)))
            .collect();
        feed.sort_by_key(|(_, t)| t.ts);

        for &cap in &[1usize, 7, 64] {
            let (reference, ref_work) = run_sharded(&plan, &feed, cap, 1, Partition::RoundRobin);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                for hash_key in partition_modes() {
                    let (got, work) = run_sharded(&plan, &feed, cap, shards, hash_key);
                    prop_assert_eq!(
                        &got, &reference,
                        "keyed stateful plan kind {} diverged at shards {} \
                         (hash_key {}) cap {}",
                        kind, shards, hash_key, cap
                    );
                    prop_assert_eq!(work, ref_work);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fused stateless chains (optionally topped by an aggregate)
    /// under the sharded executor: strict sequence equality against the
    /// single-threaded run across shard counts and batch caps.
    #[test]
    fn sharded_fused_chains_match_single_threaded(
        quotes in quote_stream(60),
        stages in proptest::collection::vec((0usize..4, 0u32..30_000), 1..5),
        top in 0usize..3,
        window in 1u64..100,
    ) {
        let plan = stateless_chain_plan(&stages, top, window);
        let feed: Vec<(String, Tuple)> = quotes
            .iter()
            .cloned()
            .map(|t| ("quotes".to_string(), t))
            .collect();
        for &cap in &[1usize, 7, 64] {
            let (reference, ref_work) = run_sharded(&plan, &feed, cap, 1, Partition::RoundRobin);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                let (got, work) = run_sharded(&plan, &feed, cap, shards, Partition::Keyed);
                prop_assert_eq!(
                    &got, &reference,
                    "fused chain diverged at shards {} cap {}", shards, cap
                );
                prop_assert_eq!(work, ref_work);
            }
        }
    }
}

/// A three-column stream for the ungrouped-aggregate properties: a
/// hashable shard key, an Int payload (exact partial combines), and a
/// Float payload (exact for Count/Min/Max, inexact for Sum/Avg).
fn tick_schema() -> Schema {
    Schema::new(vec![
        Field::new("sym", DataType::Str),
        Field::new("qty", DataType::Int),
        Field::new("price", DataType::Float),
    ])
}

/// Runs an aggregate plan over the ticks stream, hash-keyed on the
/// symbol column so exact aggregates at shard-incompatible group keys
/// (including the ungrouped single group) run as partial-aggregation
/// members on the shards (inexact ones stay behind the merge barrier).
fn run_ticks_sharded(
    plan: &LogicalPlan,
    feed: &[Tuple],
    max_batch: usize,
    shards: usize,
) -> Vec<Tuple> {
    let mut e = DsmsEngine::new();
    e.register_stream("ticks", tick_schema());
    e.set_max_batch_size(max_batch);
    e.set_shards(shards);
    e.set_shard_key("ticks", 0).unwrap();
    let cq = e.add_query(plan.clone()).unwrap();
    for chunk in feed.chunks(max_batch.max(1) * 2) {
        e.push_rows("ticks", chunk.to_vec());
    }
    e.finish();
    e.take_outputs(cq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Ungrouped-aggregate partial/combine equivalence** — every
    /// aggregate kind (Count/Sum/Avg/Min/Max) over Int and Float inputs,
    /// optionally behind a filter (so selection vectors push into the
    /// aggregate). Exact combines run as sharded partial-aggregation
    /// members — per-worker partials folded in deterministic partition
    /// order on the control thread; float Sum/Avg are inexact and keep
    /// the merge barrier. Either path must be **bit-identical** to the
    /// single-threaded engine across shard counts, including windows that
    /// close empty along sparse stretches of the feed.
    #[test]
    fn ungrouped_aggregate_partials_match_single_threaded(
        raw in proptest::collection::vec((0u64..500, 0usize..3, 1u32..30_000), 1..60),
        func in 0usize..5,
        col in 1usize..3,
        window in 1u64..60,
        filtered in 0usize..2,
    ) {
        let filtered = filtered == 1;
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        let mut feed: Vec<Tuple> = raw
            .into_iter()
            .map(|(ts, s, p)| {
                Tuple::new(
                    ts,
                    vec![
                        Value::str(SYMS[s % SYMS.len()]),
                        // Signed payload: sums cross zero, min/max both move.
                        Value::Int(i64::from(p) - 15_000),
                        Value::Float(f64::from(p) / 100.0),
                    ],
                )
            })
            .collect();
        feed.sort_by_key(|t| t.ts);
        let mut plan = LogicalPlan::source("ticks");
        if filtered {
            plan = plan.filter(Expr::col(1).gt(Expr::lit(Value::Int(-5_000))));
        }
        let plan = plan.aggregate(None, funcs[func], col, window);

        for &cap in &[1usize, 7, 64] {
            let reference = run_ticks_sharded(&plan, &feed, cap, 1);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                let got = run_ticks_sharded(&plan, &feed, cap, shards);
                prop_assert_eq!(
                    &got, &reference,
                    "ungrouped {:?} over col {} diverged at shards {} cap {}",
                    funcs[func], col, shards, cap
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// **Grouped-partial/combine equivalence** — grouped aggregates whose
    /// group key (col 1) is *not* the shard key (col 0), so groups span
    /// shards: exact combines (Count/Sum/Avg/Min/Max over Int;
    /// Count/Min/Max over Float) run as grouped partial-aggregation
    /// members — per-worker hash partials folded per group in
    /// deterministic partition order on the control thread — while float
    /// Sum/Avg stay behind the merge barrier. Either path must produce a
    /// **strictly equal output sequence** to the single-threaded engine
    /// (same rows, same order, same windows closing empty along sparse
    /// stretches) across group-key cardinalities 1/8/1000 × aggregate
    /// kinds × shard counts.
    #[test]
    fn grouped_partials_match_single_threaded(
        raw in proptest::collection::vec((0u64..400, 0usize..1000, 1u32..30_000), 1..60),
        card in 0usize..3,
        func in 0usize..5,
        col in 1usize..3,
        window in 1u64..60,
    ) {
        let card = [1usize, 8, 1000][card];
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        let mut feed: Vec<Tuple> = raw
            .into_iter()
            .map(|(ts, g, p)| {
                Tuple::new(
                    ts,
                    vec![
                        // The shard key mixes independently of the group.
                        Value::str(SYMS[p as usize % SYMS.len()]),
                        // Signed group ids: FNV hashing and EmitKey
                        // ordering both see negatives.
                        Value::Int((g % card) as i64 - 3),
                        Value::Float(f64::from(p) / 100.0),
                    ],
                )
            })
            .collect();
        feed.sort_by_key(|t| t.ts);
        let plan = LogicalPlan::source("ticks").aggregate(Some(1), funcs[func], col, window);

        for &cap in &[1usize, 7, 64] {
            let reference = run_ticks_sharded(&plan, &feed, cap, 1);
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                let got = run_ticks_sharded(&plan, &feed, cap, shards);
                prop_assert_eq!(
                    &got, &reference,
                    "grouped {:?} over col {} (card {}) diverged at shards {} cap {}",
                    funcs[func], col, card, shards, cap
                );
            }
        }
    }
}

/// The sharded twin of [`int_sum_query_is_exact_past_2_pow_53`]: the same
/// mantissa-overflowing terms pushed through shards = 4, where the
/// ungrouped Sum runs as per-worker i128 partials combined on the control
/// thread — partial aggregation must not reintroduce float rounding.
#[test]
fn sharded_int_sum_partials_are_exact_past_2_pow_53() {
    let big = (1i64 << 53) + 1;
    let feed: Vec<Tuple> = (0..3)
        .map(|i| {
            Tuple::new(
                i,
                vec![
                    Value::str(SYMS[i as usize % SYMS.len()]),
                    Value::Int(big),
                    Value::Float(0.0),
                ],
            )
        })
        .collect();
    let plan = LogicalPlan::source("ticks").aggregate(None, AggFunc::Sum, 1, 100);
    let out = run_ticks_sharded(&plan, &feed, 1, 4);
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].values[1],
        Value::Int(3 * big),
        "i128 partial combine must stay exact"
    );
}

/// Integer sums must accumulate exactly: three terms of 2^53 + 1 overflow
/// the mantissa of the old `f64` accumulator (which returned 3 × 2^53).
#[test]
fn int_sum_query_is_exact_past_2_pow_53() {
    let mut e = DsmsEngine::new();
    e.register_stream("volumes", Schema::new(vec![Field::new("v", DataType::Int)]));
    let cq = e
        .add_query(LogicalPlan::source("volumes").aggregate(None, AggFunc::Sum, 0, 100))
        .unwrap();
    let big = (1i64 << 53) + 1;
    e.push_rows(
        "volumes",
        (0..3)
            .map(|i| Tuple::new(i, vec![Value::Int(big)]))
            .collect(),
    );
    e.finish();
    let out = e.take_outputs(cq);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].values[1], Value::Int(3 * big));
}

/// Float join and group keys are rejected when the plan is built — with a
/// descriptive error and no network mutation — instead of silently
/// dropping every row at runtime (`Key::from_value` returns `None` for
/// floats).
#[test]
fn float_keys_rejected_at_plan_build_not_dropped_at_runtime() {
    let mut e = engine();
    let group_err = e
        .add_query(LogicalPlan::source("quotes").aggregate(Some(1), AggFunc::Count, 0, 100))
        .unwrap_err();
    assert!(
        group_err.to_string().contains("not hashable"),
        "descriptive group-key error, got: {group_err}"
    );
    let join_err = e
        .add_query(LogicalPlan::source("quotes").join(LogicalPlan::source("quotes"), 1, 1, 10))
        .unwrap_err();
    assert!(
        join_err.to_string().contains("not hashable"),
        "descriptive join-key error, got: {join_err}"
    );
    assert_eq!(e.network().num_nodes(), 0, "rejection leaves no residue");
    assert_eq!(e.network().num_queries(), 0);
}

/// Late-arrival semantics (deterministic documentation tests): tuples that
/// arrive after the watermark passed their window are *not lost and not
/// duplicated* — the window re-opens silently and emits once at the next
/// watermark advance.
#[test]
fn late_tuple_emits_once_and_late() {
    let mut e = engine();
    let cq = e
        .add_query(LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, 50))
        .unwrap();
    // Watermark jumps to 100; the closed windows [0,50) and [50,100) are
    // empty, so nothing emits; the ts=100 tuple's window is still open.
    e.push_batch([("quotes".to_string(), quote(100, 0, 100))]);
    assert!(e.take_outputs(cq).is_empty());
    // A straggler for the long-closed window [0,50).
    e.push_batch([("quotes".to_string(), quote(10, 0, 100))]);
    assert_eq!(
        e.output_len(cq),
        0,
        "late window waits for the next advance"
    );
    // The next watermark advance flushes it exactly once.
    e.push_batch([("quotes".to_string(), quote(200, 0, 100))]);
    let flushed = e.take_outputs(cq);
    let late: Vec<_> = flushed.iter().filter(|t| t.ts == 50).collect();
    assert_eq!(late.len(), 1, "late window [0,50) emitted exactly once");
    e.finish();
    let rest = e.take_outputs(cq);
    assert!(
        rest.iter().all(|t| t.ts != 50),
        "no duplicate emission of [0,50)"
    );
}

/// A late join probe only matches partners still within the state horizon.
#[test]
fn late_join_probe_sees_surviving_state_only() {
    let mut e = engine();
    let cq = e
        .add_query(LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 0, 0, 20))
        .unwrap();
    e.push_batch([("quotes".to_string(), quote(10, 0, 100))]);
    // Watermark far ahead evicts the ts=10 quote (horizon = 200 - 20).
    e.push_batch([("quotes".to_string(), quote(200, 1, 100))]);
    // A late news tuple that would have matched ts=10 within the window.
    e.push_batch([("news".to_string(), news(15, 0, 1))]);
    assert!(
        e.take_outputs(cq).is_empty(),
        "evicted state cannot produce late matches"
    );
}

/// **The 256/257 dictionary decay boundary, mid-stream.** A stream's
/// dictionary lives as long as the stream: the batch that brings the 257th
/// distinct symbol and every later batch of the column arrive plain, while
/// everything sealed earlier — queued, held at a connection point, buffered
/// in join state, interned in window state — stays valid. Here the 257th
/// symbol arrives on the first row of a chunk, in the middle of an
/// aggregate window and of the join window, with the news side still
/// dictionary-encoded. Outputs, per-node row counts and the string byte
/// compares all equal a one-row-per-push engine's, a run whose boundary
/// chunks sat out a transition, and every shard count; the row-kernel
/// oracle (which counts no columnar compares) agrees on outputs and row
/// counts.
#[test]
fn dictionary_decay_mid_stream_is_invisible() {
    const CHUNK: usize = 16;
    // Quotes: one row per ms. Rows 0..512 cycle through 256 symbols; row
    // 512 — the first of chunk 32 — brings the 257th, and every other row
    // after it another of 44 new ones.
    let quote_symbol = |r: usize| match r {
        r if r >= 512 && r % 2 == 0 => 256 + (r / 2) % 44,
        r => r % 256,
    };
    let chunks: Vec<(Vec<Tuple>, Vec<Tuple>)> = (0..48)
        .map(|c| {
            let quotes = (c * CHUNK..(c + 1) * CHUNK)
                .map(|r| {
                    let values = vec![
                        Value::str(format!("s{:03}", quote_symbol(r))),
                        Value::Float((r * 37 % 1000) as f64 / 4.0),
                    ];
                    Tuple::new(r as u64, values)
                })
                .collect();
            let news = (0..4)
                .map(|k| {
                    let r = c * CHUNK + 4 * k;
                    let values = vec![
                        Value::str(format!("s{:03}", quote_symbol(r + 1))),
                        Value::str(format!("h{}", r % 3)),
                    ];
                    Tuple::new(r as u64 + 2, values)
                })
                .collect();
            (quotes, news)
        })
        .collect();
    let quotes = || LogicalPlan::source("quotes");
    let plans = [
        quotes().filter(Expr::col(0).eq(Expr::lit(Value::str("s003")))),
        quotes().aggregate(Some(0), AggFunc::Count, 0, 100),
        quotes().sliding_aggregate(Some(0), AggFunc::Avg, 1, 100, 50),
        quotes().join(LogicalPlan::source("news"), 0, 0, 50),
    ];
    let run = |cap: usize, shards: usize, held: bool| {
        let mut e = engine();
        e.set_max_batch_size(cap);
        e.set_shards(shards);
        e.set_shard_key("quotes", 0).unwrap();
        e.set_shard_key("news", 0).unwrap();
        let cqs: Vec<_> = plans
            .iter()
            .map(|p| e.add_query(p.clone()).unwrap())
            .collect();
        work::reset();
        for (c, (quotes, news)) in chunks.iter().enumerate() {
            // Chunks 30..34 straddle the boundary from inside a transition.
            if held && c == 30 {
                e.begin_transition();
            }
            e.push_rows("quotes", quotes.clone());
            e.push_rows("news", news.clone());
            if held && c == 33 {
                e.end_transition();
            }
        }
        e.finish();
        let counters = work::snapshot();
        let nodes: Vec<(u64, u64)> = e
            .network()
            .node_ids()
            .into_iter()
            .map(|id| {
                let n = e.network().node(id).unwrap();
                (n.in_count, n.out_count)
            })
            .collect();
        let outputs: Vec<Vec<Tuple>> = cqs.iter().map(|&cq| e.take_outputs(cq)).collect();
        // (Code compares are not chunking-invariant: min/max pruning skips
        // whole batches, and which batches it can skip depends on the cut.)
        assert!(counters.dict_code_cmps > 0, "the dictionary phase ran");
        (outputs, nodes, counters.str_cmps)
    };
    let reference = run(CHUNK, 1, false);
    assert!(reference.0.iter().all(|out| !out.is_empty()));
    // After the decay the filter compares bytes: one per quote row.
    assert_eq!(reference.2, (48 - 32) * CHUNK as u64);
    assert_eq!(run(1, 1, false), reference, "one row per push");
    assert_eq!(
        run(CHUNK, 1, true).0,
        reference.0,
        "held across the boundary"
    );
    let oracle = cqac_dsms::ops::with_columnar_kernels(false, || run(CHUNK, 1, false));
    assert_eq!((&oracle.0, &oracle.1), (&reference.0, &reference.1));
    for shards in shard_counts() {
        assert_eq!(run(CHUNK, shards, false), reference, "shards {shards}");
        assert_eq!(run(1, shards, false), reference, "shards {shards}, cap 1");
    }
}
