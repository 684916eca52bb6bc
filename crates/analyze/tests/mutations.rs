//! Plan-mutation property tests: every known corruption of a
//! generator-valid plan is rejected by the static analyzer with its
//! specific `NL0xx` code — *before* any operator is built — so the
//! release-mode `debug_assert!(false, "… escaped … validation")` sites in
//! `ops.rs` are unreachable by construction. Tests run in debug mode, so
//! a tripped `debug_assert` aborts the test: pushing traffic after each
//! rejected mutation proves the engine never reached one.

use cqac_analyze::{analyze_plan, check_shard_key, Code};
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::expr::Expr;
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::streams::{news_schema, quote_schema, NewsStream, StockStream};
use cqac_dsms::types::Value;
use proptest::prelude::*;

const SYMBOLS: [&str; 3] = ["IBM", "AAPL", "MSFT"];

fn engine() -> DsmsEngine {
    let mut e = DsmsEngine::new().with_max_batch_size(32);
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    e
}

/// Pushes deterministic traffic through the engine; in a debug build any
/// "escaped validation" `debug_assert` in `ops.rs` would abort here.
fn serve(e: &mut DsmsEngine) {
    let mut q = StockStream::new(&SYMBOLS, 1, 7);
    let mut n = NewsStream::new(&SYMBOLS, 3, 8);
    e.push_rows("quotes", q.next_batch(300));
    e.push_rows("news", n.next_batch(100));
}

/// Strategy: a structurally valid plan over the quotes stream — a filter
/// chain (schema-preserving) capped by nothing, a grouped aggregate, an
/// ungrouped aggregate, a symbol join with news, or a union.
fn valid_plan() -> impl Strategy<Value = LogicalPlan> {
    let predicate = (0usize..3, 1u32..30_000, 1i64..10_000, 0usize..3).prop_map(
        |(which, cents, volume, sym)| match which {
            0 => Expr::col(1).gt(Expr::lit(Value::Float(f64::from(cents) / 100.0))),
            1 => Expr::col(2).ge(Expr::lit(Value::Int(volume))),
            _ => Expr::col(0).eq(Expr::lit(Value::str(SYMBOLS[sym]))),
        },
    );
    let chain = proptest::collection::vec(predicate, 0..3).prop_map(|preds| {
        preds.into_iter().fold(
            LogicalPlan::source("quotes"),
            cqac_dsms::LogicalPlan::filter,
        )
    });
    (chain, 0usize..5, 1u64..5_000).prop_map(|(base, cap, window)| match cap {
        0 => base,
        1 => base.aggregate(Some(0), AggFunc::Count, 0, window),
        2 => base.aggregate(None, AggFunc::Sum, 2, window),
        3 => base.join(LogicalPlan::source("news"), 0, 0, window),
        _ => base.clone().union(base),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Agreement: on generator-valid plans the analyzer is clean, and
    /// admission accepts.
    #[test]
    fn valid_plans_verify_clean(plan in valid_plan()) {
        let mut e = engine();
        let report = analyze_plan(&plan, e.network());
        prop_assert!(report.is_clean(), "spurious diagnostics: {report}");
        prop_assert!(plan.output_schema(e.network()).is_ok());
        prop_assert!(e.add_query(plan).is_ok());
        serve(&mut e);
    }

    /// NL005 — the `ops.rs` join-side "unhashable join key escaped plan
    /// validation" site: a float join key is rejected by the analyzer and
    /// by admission, so `JoinOp::absorb_rows` never sees one.
    #[test]
    fn float_join_key_rejected_before_any_operator(base in valid_plan(), w in 1u64..1_000) {
        // Join the valid plan's *source* on the float price column.
        let plan = LogicalPlan::source("quotes").join(LogicalPlan::source("quotes"), 1, 1, w);
        let mut e = engine();
        let report = analyze_plan(&plan, e.network());
        prop_assert!(report.has_code(Code::UnhashableJoinKey), "{report}");
        prop_assert!(e.add_query(plan).is_err());
        // The network mutated nothing; valid traffic still serves.
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// NL011 — the aggregate-side "unhashable group key escaped plan
    /// validation" sites: a float group-by column never reaches
    /// `AggregateOp`.
    #[test]
    fn float_group_key_rejected_before_any_operator(base in valid_plan(), w in 1u64..1_000) {
        let plan = LogicalPlan::source("quotes").aggregate(Some(1), AggFunc::Count, 0, w);
        let mut e = engine();
        let report = analyze_plan(&plan, e.network());
        prop_assert!(report.has_code(Code::UnhashableGroupKey), "{report}");
        prop_assert!(e.add_query(plan).is_err());
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// NL014 — the `ops::shard_of_cell` "float shard key escaped
    /// validation" site: `set_shard_key` refuses the key, so a sharded
    /// run can never hash a float cell.
    #[test]
    fn float_shard_key_rejected_before_any_run(base in valid_plan(), shards in 2usize..5) {
        let mut e = engine().with_shards(shards);
        let schema = quote_schema();
        let report = check_shard_key(&schema, "quotes", 1);
        prop_assert!(report.has_code(Code::BadShardKey), "{report}");
        prop_assert!(e.set_shard_key("quotes", 1).is_err());
        prop_assert!(e.set_shard_key("quotes", 99).is_err());
        prop_assert_eq!(e.shard_key("quotes"), None);
        // A valid key in its place runs sharded without tripping anything.
        e.set_shard_key("quotes", 0).unwrap();
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// Column-out-of-range corruptions each carry their own code.
    #[test]
    fn out_of_range_columns_each_have_a_code(base in valid_plan(), w in 1u64..1_000) {
        let cases = [
            (
                LogicalPlan::source("quotes").filter(Expr::col(9).gt(Expr::lit(Value::Int(0)))),
                Code::ExprType,
            ),
            (
                LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 9, 0, w),
                Code::JoinKeyOutOfRange,
            ),
            (
                LogicalPlan::source("quotes").aggregate(Some(9), AggFunc::Count, 0, w),
                Code::GroupKeyOutOfRange,
            ),
            (
                LogicalPlan::source("quotes").aggregate(None, AggFunc::Sum, 9, w),
                Code::AggColumnOutOfRange,
            ),
        ];
        let mut e = engine();
        for (plan, code) in cases {
            let report = analyze_plan(&plan, e.network());
            prop_assert!(report.has_code(code), "expected {code}: {report}");
            prop_assert!(e.add_query(plan).is_err());
        }
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// The remaining corruption classes: union schema mismatch, zero
    /// window, slide wider than the window, non-numeric aggregation,
    /// non-boolean predicate, unknown stream.
    #[test]
    fn remaining_corruptions_each_have_a_code(base in valid_plan()) {
        let cases = [
            (
                LogicalPlan::source("quotes").union(LogicalPlan::source("news")),
                Code::UnionSchemaMismatch,
            ),
            (
                LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 0, 0, 0),
                Code::ZeroWindow,
            ),
            (
                LogicalPlan::source("quotes").sliding_aggregate(None, AggFunc::Count, 0, 10, 20),
                Code::SlideExceedsWindow,
            ),
            (
                LogicalPlan::source("quotes").aggregate(None, AggFunc::Sum, 0, 100),
                Code::AggColumnNotNumeric,
            ),
            (
                LogicalPlan::source("quotes").filter(Expr::col(2)),
                Code::PredicateNotBool,
            ),
            (LogicalPlan::source("nope"), Code::UnknownStream),
        ];
        let mut e = engine();
        for (plan, code) in cases {
            let report = analyze_plan(&plan, e.network());
            prop_assert!(report.has_code(code), "expected {code}: {report}");
            prop_assert!(e.add_query(plan).is_err());
        }
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// NL020/NL021 — a physical node marked grouped-partial whose logical
    /// plan is order-sensitive: grafting an inexact grouped aggregate's
    /// signature onto a legitimate grouped-partial member makes the
    /// logical derivation prove the combine order-sensitive, so the audit
    /// must flag the order hazard (NL021) on top of the membership
    /// divergence (NL020) — before any `debug_assert` could trip at run
    /// time.
    #[test]
    fn grouped_partial_with_order_sensitive_logic_is_flagged(base in valid_plan(), w in 1u64..1_000) {
        use cqac_dsms::network::QueryNetwork;
        use std::collections::HashMap;
        let mut n = QueryNetwork::new();
        n.register_stream("quotes", quote_schema());
        // A grouped exact Count at a shard-incompatible group key
        // (volume, col 2 — the shard key is symbol, col 0) is a
        // legitimate grouped-partial member…
        let partial_plan = LogicalPlan::source("quotes").aggregate(Some(2), AggFunc::Count, 0, w);
        n.add_query(partial_plan.clone()).unwrap();
        // …while a float Avg grouped the same way is order-sensitive and
        // must stay a merge barrier.
        let sensitive = LogicalPlan::source("quotes").aggregate(Some(2), AggFunc::Avg, 1, w);
        n.add_query(sensitive.clone()).unwrap();
        let keys: HashMap<String, usize> = [("quotes".to_string(), 0)].into();
        prop_assert!(cqac_analyze::determinism::audit(&n, &keys).is_clean());

        // Mutation: graft the order-sensitive plan's signature onto the
        // partial member's physical node.
        let partial_node = n
            .node_ids()
            .into_iter()
            .find(|&id| n.node(id).unwrap().signature == partial_plan.signature())
            .expect("the grouped Count has a physical node");
        n.node_mut(partial_node).unwrap().signature = sensitive.signature();
        let report = cqac_analyze::determinism::audit(&n, &keys);
        prop_assert!(report.has_code(Code::StatefulOrderUnsafe), "{report}");
        prop_assert!(report.has_code(Code::KeyedClassificationDivergence), "{report}");

        // The corruption lives in the standalone network; a real engine
        // still admits and serves valid plans untouched.
        let mut e = engine();
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// NL020/NL021 behind a **keyless** root — no shard key at all, so
    /// every stream deals whole batches and the plan holds stateless
    /// members and partial aggregates only. Swapping the signatures of an
    /// exact `Count` (a partial member) and a float `Avg` (an exit) makes
    /// the physical plan do both things the audit exists to catch: it
    /// *admits* an order-sensitive aggregate behind the keyless root
    /// (NL021 on top of NL020), and it *drops* from the root's plan a node
    /// the logical derivation places there (NL020).
    #[test]
    fn keyless_root_misclassifications_are_flagged(base in valid_plan(), w in 1u64..1_000) {
        use cqac_dsms::network::QueryNetwork;
        use std::collections::HashMap;
        let mut n = QueryNetwork::new();
        n.register_stream("quotes", quote_schema());
        let exact = LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Count, 0, w);
        let inexact = LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Avg, 1, w);
        n.add_query(exact.clone()).unwrap();
        n.add_query(inexact.clone()).unwrap();
        let keyless: HashMap<String, usize> = HashMap::new();
        prop_assert!(cqac_analyze::determinism::audit(&n, &keyless).is_clean());
        let physical = n.keyed_plan(&keyless);
        prop_assert_eq!(physical.nodes.len(), 1, "the Count is in, the Avg is out");
        prop_assert!(physical.nodes[0].partial);

        let node_of = |n: &QueryNetwork, plan: &LogicalPlan| {
            n.node_ids()
                .into_iter()
                .find(|&id| n.node(id).unwrap().signature == plan.signature())
                .expect("the aggregate has a physical node")
        };
        let (member, exit) = (node_of(&n, &exact), node_of(&n, &inexact));
        n.node_mut(member).unwrap().signature = inexact.signature();
        n.node_mut(exit).unwrap().signature = exact.signature();
        let report = cqac_analyze::determinism::audit(&n, &keyless);
        let flagged = |code: Code, node: u32| {
            report
                .diagnostics
                .iter()
                .any(|d| d.code == code && d.span == cqac_analyze::Span::Node(node))
        };
        prop_assert!(flagged(Code::StatefulOrderUnsafe, member.0), "admitted: {report}");
        prop_assert!(flagged(Code::KeyedClassificationDivergence, member.0), "{report}");
        prop_assert!(flagged(Code::KeyedClassificationDivergence, exit.0), "dropped: {report}");

        let mut e = engine();
        e.add_query(base).ok();
        serve(&mut e);
    }

    /// Accumulation: a plan with several independent corruptions reports
    /// them all in one pass.
    #[test]
    fn multiple_corruptions_all_reported(w in 1u64..1_000) {
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(9).gt(Expr::lit(Value::Int(0))))
            .join(LogicalPlan::source("quotes").aggregate(Some(1), AggFunc::Count, 0, w), 1, 0, 0);
        let report = analyze_plan(&plan, engine().network());
        prop_assert!(report.has_code(Code::ExprType));
        prop_assert!(report.has_code(Code::UnhashableGroupKey));
        prop_assert!(report.has_code(Code::ZeroWindow));
        prop_assert!(report.num_errors() >= 3, "{report}");
    }
}
