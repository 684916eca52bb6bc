//! Integration tests of the network-level passes: determinism audit,
//! cost-attribution conservation, and sharing lints — including the
//! corrupted-network cases each diagnostic exists for.

use cqac_analyze::{analyze_engine, conservation, determinism, scenarios, sharing, Code, Severity};
use cqac_dsms::cost::CostModel;
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::expr::Expr;
use cqac_dsms::network::{NodeId, QueryNetwork, Target};
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::streams::{news_schema, quote_schema, StockStream};
use cqac_dsms::types::Value;
use std::collections::HashMap;

fn network() -> QueryNetwork {
    let mut n = QueryNetwork::new();
    n.register_stream("quotes", quote_schema());
    n.register_stream("news", news_schema());
    n
}

fn high_price(threshold: f64) -> LogicalPlan {
    LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(threshold))))
}

#[test]
fn shipped_scenarios_verify_clean() {
    for scenario in scenarios::all() {
        let engine = scenario.build();
        let report = analyze_engine(&engine, &CostModel::default());
        assert!(
            report.is_clean(),
            "scenario {} is not clean:\n{report}",
            scenario.name
        );
    }
}

#[test]
fn determinism_audit_is_clean_across_shard_key_mixes() {
    // Keyed, keyless, and partially keyed configurations must all verify:
    // the audit's logical derivation has to agree with the physical
    // classification in every mode, not just the fully-sharded one.
    let plans = [
        high_price(10.0).join(LogicalPlan::source("news"), 0, 0, 500),
        LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Count, 0, 100),
        LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, 100),
        LogicalPlan::source("quotes").aggregate(None, AggFunc::Avg, 1, 100),
        LogicalPlan::source("quotes")
            .project(vec![
                ("price".to_string(), Expr::col(1)),
                ("symbol".to_string(), Expr::col(0)),
            ])
            .aggregate(Some(1), AggFunc::Count, 0, 100),
        high_price(5.0).union(high_price(50.0)),
    ];
    let key_mixes: [&[(&str, usize)]; 3] = [&[], &[("quotes", 0)], &[("quotes", 0), ("news", 0)]];
    for keys in key_mixes {
        let mut n = network();
        for plan in &plans {
            n.add_query(plan.clone()).unwrap();
        }
        let shard_keys: HashMap<String, usize> =
            keys.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        let report = determinism::audit(&n, &shard_keys);
        assert!(report.is_clean(), "keys {keys:?}:\n{report}");
    }
}

#[test]
fn determinism_audit_rejects_bad_shard_keys() {
    let mut n = network();
    n.add_query(high_price(10.0)).unwrap();
    let float_key: HashMap<String, usize> = [("quotes".to_string(), 1)].into();
    let report = determinism::audit(&n, &float_key);
    assert!(report.has_code(Code::BadShardKey), "{report}");
    let range_key: HashMap<String, usize> = [("quotes".to_string(), 7)].into();
    let report = determinism::audit(&n, &range_key);
    assert!(report.has_code(Code::BadShardKey), "{report}");
}

#[test]
fn interior_prefix_duplicate_is_flagged() {
    // The pinned fusion/sharing asymmetry: a chain fuses over interior
    // sub-plans without registering their signatures, so the same prefix
    // submitted *afterwards* gets its own node — duplicate work, flagged
    // as warning NL040.
    let mut n = network();
    let prefix = high_price(100.0);
    let chain = prefix
        .clone()
        .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))));
    n.add_query(chain).unwrap();
    n.add_query(prefix.clone()).unwrap();
    let report = sharing::lint(&n);
    assert!(report.has_code(Code::InteriorPrefixDuplicate), "{report}");
    assert_eq!(report.num_errors(), 0, "a sharing gap is not an error");
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Warning));

    // The sharing-compatible order — prefix first — is clean.
    let mut n = network();
    n.add_query(prefix.clone()).unwrap();
    n.add_query(prefix.filter(Expr::col(0).eq(Expr::lit(Value::str("IBM")))))
        .unwrap();
    assert!(sharing::lint(&n).is_clean());
}

#[test]
fn unreachable_sink_is_an_error() {
    let mut n = network();
    let cq = n.add_query(high_price(100.0)).unwrap();
    assert!(sharing::lint(&n).is_clean());
    // Corrupt the wiring: drop the sink edge off the top node.
    let top = n.node_ids()[0];
    n.node_mut(top)
        .unwrap()
        .downstream
        .retain(|t| *t != Target::Sink(cq));
    let report = sharing::lint(&n);
    assert!(report.has_code(Code::UnreachableSink), "{report}");
    assert!(report.has_errors());
}

#[test]
fn refcount_drift_and_imbalance_are_detected() {
    let mut n = network();
    n.add_query(high_price(100.0)).unwrap();
    n.add_query(high_price(100.0)).unwrap(); // shared node, refcount 2
    let id = n.node_ids()[0];
    let loads: HashMap<NodeId, u64> = [(id, 1_000_000u64)].into();
    assert!(conservation::check_attribution(&n, &loads).is_clean());

    // Inflate the refcount: the node claims an attributing query that
    // does not exist, so the per-node total outgrows the per-CQ sum.
    n.node_mut(id).unwrap().refcount += 1;
    let report = conservation::check_attribution(&n, &loads);
    assert!(report.has_code(Code::AttributionDrift), "{report}");
    assert!(report.has_code(Code::CostNotConserved), "{report}");
}

#[test]
fn conservation_holds_on_a_live_calibrated_engine() {
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    let shared = high_price(50.0);
    e.add_query(shared.clone()).unwrap();
    e.add_query(shared.clone()).unwrap();
    e.add_query(shared.aggregate(Some(0), AggFunc::Count, 0, 100))
        .unwrap();
    e.add_query(LogicalPlan::source("quotes")).unwrap(); // source-only
    let mut feed = StockStream::new(&["IBM", "AAPL"], 1, 11);
    e.push_rows("quotes", feed.next_batch(1_000));
    for model in [CostModel::default(), CostModel::measured()] {
        let report = conservation::check(&e, &model);
        assert!(report.is_clean(), "{report}");
    }
}

/// Dictionary encoding is a runtime representation, not a type: the
/// static verifier sees `DataType::Str` whether a string column arrives
/// as `Column::Str` or `Column::Dict`, so string-keyed plans verify and
/// run clean over a live engine whose ingestion boundary dict-encodes
/// every string column (and over feeds wide enough to decay back to
/// plain columns).
#[test]
fn dict_encoded_columns_are_invisible_to_schema_inference() {
    use cqac_dsms::types::{Column, DataType};
    use std::sync::Arc;
    let dict = Column::Dict {
        codes: vec![0, 1, 0],
        dict: Arc::new(["IBM", "AAPL"].into_iter().map(Arc::from).collect()),
    };
    assert_eq!(dict.data_type(), DataType::Str);

    let string_plans = [
        LogicalPlan::source("quotes").filter(Expr::col(0).eq(Expr::lit(Value::str("IBM")))),
        high_price(10.0).join(LogicalPlan::source("news"), 0, 0, 100),
        LogicalPlan::source("quotes").aggregate(Some(0), AggFunc::Count, 0, 100),
    ];
    let mut e = DsmsEngine::new();
    e.register_stream("quotes", quote_schema());
    e.register_stream("news", news_schema());
    for plan in &string_plans {
        e.add_query(plan.clone()).unwrap();
    }
    let mut feed = StockStream::new(&["IBM", "AAPL"], 1, 11);
    e.push_rows("quotes", feed.next_batch(1_000));
    let report = analyze_engine(&e, &CostModel::default());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dead_node_is_a_warning() {
    // `remove_query` garbage-collects, so a dead node cannot arise
    // through the public mutation API; simulate the drift by inflating a
    // refcount so GC keeps the node when its only query leaves.
    let mut n = network();
    let keep = n.add_query(high_price(100.0)).unwrap();
    let gone = n.add_query(high_price(200.0)).unwrap();
    let orphan = n
        .query(gone)
        .unwrap()
        .nodes
        .first()
        .copied()
        .expect("filter query has a node");
    n.node_mut(orphan).unwrap().refcount += 1;
    assert!(n.remove_query(gone).is_some());
    let report = sharing::lint(&n);
    assert!(report.has_code(Code::DeadNode), "{report}");
    assert_eq!(report.num_errors(), 0);
    let _ = keep;
}
