//! Integration: the DSMS center's full business loop over several
//! subscription days — shadow calibration, auction, network transition,
//! serving, and billing — across mechanisms.

use cq_admission::core::mechanisms::{Caf, Cat, Gv};
use cq_admission::core::model::UserId;
use cq_admission::core::units::{Load, Money};
use cq_admission::dsms::center::{DsmsCenter, Submission};
use cq_admission::dsms::cost::{estimate_node_loads, CostModel};
use cq_admission::dsms::engine::DsmsEngine;
use cq_admission::dsms::expr::Expr;
use cq_admission::dsms::plan::{AggFunc, LogicalPlan};
use cq_admission::dsms::streams::{news_schema, quote_schema, NewsStream, StockStream};
use cq_admission::dsms::types::{Tuple, Value};

const SYMBOLS: [&str; 4] = ["IBM", "AAPL", "MSFT", "ORCL"];

fn calibration(n: usize, seed: u64) -> Vec<(String, Tuple)> {
    let mut sample: Vec<(String, Tuple)> = StockStream::new(&SYMBOLS, 1, seed)
        .next_batch(n)
        .into_iter()
        .map(|t| ("quotes".to_string(), t))
        .collect();
    sample.extend(
        NewsStream::new(&SYMBOLS, 10, seed + 1)
            .next_batch(n / 10)
            .into_iter()
            .map(|t| ("news".to_string(), t)),
    );
    sample.sort_by_key(|(_, t)| t.ts);
    sample
}

fn high_value(threshold: f64) -> LogicalPlan {
    LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(threshold))))
}

fn submissions() -> Vec<Submission> {
    vec![
        Submission {
            user: UserId(0),
            bid: Money::from_dollars(90.0),
            plan: high_value(100.0).aggregate(Some(0), AggFunc::Avg, 1, 1_000),
        },
        Submission {
            user: UserId(1),
            bid: Money::from_dollars(70.0),
            plan: high_value(100.0),
        },
        Submission {
            user: UserId(2),
            bid: Money::from_dollars(50.0),
            plan: high_value(100.0).join(
                LogicalPlan::source("news")
                    .filter(Expr::col(1).eq(Expr::lit(Value::str("earnings")))),
                0,
                0,
                1_000,
            ),
        },
        Submission {
            user: UserId(3),
            bid: Money::from_dollars(15.0),
            plan: high_value(60.0),
        },
        Submission {
            user: UserId(4),
            bid: Money::from_dollars(5.0),
            plan: LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, 500),
        },
    ]
}

fn center_with(
    mech: Box<dyn cq_admission::core::mechanisms::Mechanism>,
    capacity: f64,
) -> DsmsCenter {
    let mut c = DsmsCenter::new(Load::from_units(capacity), mech);
    c.register_stream("quotes", quote_schema());
    c.register_stream("news", news_schema());
    c
}

#[test]
fn contended_center_selects_and_bills_consistently() {
    for (mech, name) in [
        (
            Box::new(Cat) as Box<dyn cq_admission::core::mechanisms::Mechanism>,
            "CAT",
        ),
        (Box::new(Caf), "CAF"),
        (Box::new(Gv), "GV"),
    ] {
        let mut center = center_with(mech, 4.0);
        let record = center
            .run_auction(&submissions(), &calibration(2_000, 3))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let admitted = record.decisions.iter().filter(|d| d.admitted).count();
        assert!(admitted >= 1, "{name} admitted nobody");
        assert!(admitted < submissions().len(), "{name}: no contention");
        // Billing coherence: losers pay zero, winners at most their bid.
        for d in &record.decisions {
            if d.admitted {
                assert!(d.payment <= submissions()[d.submission].bid, "{name}");
            } else {
                assert_eq!(d.payment, Money::ZERO, "{name}");
                assert!(d.cq.is_none());
            }
        }
        assert_eq!(
            record.profit,
            record.decisions.iter().map(|d| d.payment).sum::<Money>(),
        );
    }
}

#[test]
fn multi_day_continuity_and_state() {
    let mut center = center_with(Box::new(Cat), 50.0); // plenty of room
    let subs = submissions();

    let day0 = center.run_auction(&subs, &calibration(1_500, 7)).unwrap();
    assert!(day0.decisions.iter().all(|d| d.admitted));
    let cq_user0_day0 = day0.decisions[0].cq.unwrap();

    // Serve some data, then re-auction with the same plans.
    let mut quotes = StockStream::new(&SYMBOLS, 1, 11);
    center.process("quotes", quotes.next_batch(500));

    let day1 = center.run_auction(&subs, &calibration(1_500, 8)).unwrap();
    let cq_user0_day1 = day1.decisions[0].cq.unwrap();
    assert_eq!(
        cq_user0_day0, cq_user0_day1,
        "continuing winner keeps its live query id (state preserved)"
    );

    // Drop user 0's renewal: her query is retired, others continue.
    let reduced: Vec<Submission> = subs[1..].to_vec();
    let day2 = center
        .run_auction(&reduced, &calibration(1_500, 9))
        .unwrap();
    assert_eq!(day2.decisions.len(), 4);
    assert_eq!(center.engine().network().num_queries(), 4);
    assert_eq!(center.ledger().len(), 3);
}

#[test]
fn shared_network_smaller_than_sum_of_plans() {
    let mut center = center_with(Box::new(Cat), 100.0);
    center
        .run_auction(&submissions(), &calibration(1_000, 5))
        .unwrap();
    let network = center.engine().network();
    // 5 queries share the hot "high value" selection; well fewer physical
    // nodes than the sum of per-plan operator counts (1+2+3+1+1 = 8).
    assert!(network.num_nodes() < 8);
    assert!(network.max_degree_of_sharing() >= 3);
}

#[test]
fn admitted_queries_produce_results_rejected_do_not() {
    let mut center = center_with(Box::new(Cat), 4.0);
    let record = center
        .run_auction(&submissions(), &calibration(2_000, 3))
        .unwrap();
    let mut quotes = StockStream::new(&SYMBOLS, 1, 13);
    let mut news = NewsStream::new(&SYMBOLS, 10, 14);
    center.process("quotes", quotes.next_batch(3_000));
    center.process("news", news.next_batch(300));

    let mut any_output = false;
    for d in &record.decisions {
        if let Some(cq) = d.cq {
            any_output |= !center.take_outputs(cq).is_empty();
        }
    }
    assert!(
        any_output,
        "at least one admitted query must produce output"
    );
}

/// The sample's rows regrouped the way `process`/`push_rows` hands data
/// over: runs of `chunk` quotes, each followed by the news rows up to the
/// run's last event time.
fn chunked(sample: &[(String, Tuple)], chunk: usize) -> Vec<(String, Tuple)> {
    let (quotes, news): (Vec<_>, Vec<_>) = sample.iter().cloned().partition(|(s, _)| s == "quotes");
    let mut news = news.into_iter().peekable();
    let mut out = Vec::with_capacity(sample.len());
    for run in quotes.chunks(chunk) {
        out.extend(run.iter().cloned());
        let last = run.last().map_or(0, |(_, t)| t.ts);
        while let Some(row) = news.next_if(|(_, t)| t.ts <= last) {
            out.push(row);
        }
    }
    out.extend(news);
    out
}

#[test]
fn auction_is_blind_to_how_the_calibration_sample_was_grouped() {
    // Row-wise (the streams alternate, so almost every row is its own
    // batch) against `push_rows`-shaped chunks: the shadow engine seals
    // both into the same columns, the analytic loads are equal, and the
    // auction decides, bills and fills the server identically.
    let row_wise = calibration(2_000, 3);
    let chunks = chunked(&row_wise, 512);
    assert_ne!(row_wise, chunks);
    let mut records = [&row_wise, &chunks].map(|sample| {
        center_with(Box::new(Cat), 4.0)
            .run_auction(&submissions(), sample)
            .unwrap()
    });
    for record in &mut records {
        for d in &mut record.decisions {
            d.cq = None; // ids are per center
        }
    }
    let [a, b] = records;
    assert!(a.decisions.iter().any(|d| d.admitted));
    assert!(a.decisions.iter().any(|d| !d.admitted));
    assert_eq!(a.admitted_load, b.admitted_load);
    assert_eq!(a.profit, b.profit);
    for (x, y) in a.decisions.iter().zip(&b.decisions) {
        assert_eq!(
            (x.user, x.admitted, x.payment),
            (y.user, y.admitted, y.payment)
        );
    }
}

#[test]
fn shadow_loads_do_not_depend_on_the_ingestion_entry_point() {
    // The `auction_rush` shapes of the `auction-day` benchmark — filter,
    // filter∘filter, filter∘project, dictionary equality∘filter, grouped
    // Count and Max on shared filters, two `news` shapes — priced by a
    // shadow engine fed through `push_batch` and one fed through
    // `push_rows`: same analytic loads, node for node.
    let quotes = || LogicalPlan::source("quotes");
    let news = || LogicalPlan::source("news");
    let symbol_and_price = || {
        vec![
            ("symbol".to_string(), Expr::col(0)),
            ("price".to_string(), Expr::col(1)),
        ]
    };
    let relevance = |r: i64| Expr::col(2).gt(Expr::lit(Value::Int(r)));
    let mut pool = Vec::new();
    for p in 0..6u32 {
        let price = Expr::col(1).gt(Expr::lit(Value::Float(80.0 + 5.0 * f64::from(p))));
        let volume = Expr::col(2).gt(Expr::lit(Value::Int(300 + 50 * i64::from(p))));
        let symbol = Expr::col(0).eq(Expr::lit(Value::str(SYMBOLS[p as usize % 4])));
        let category = Expr::col(1).eq(Expr::lit(Value::str("earnings")));
        pool.extend([
            quotes().filter(price.clone()),
            quotes().filter(price.clone()).filter(volume.clone()),
            quotes().filter(price.clone()).project(symbol_and_price()),
            quotes().filter(symbol).filter(price.clone()),
            quotes()
                .filter(price)
                .aggregate(Some(0), AggFunc::Count, 0, 1_000),
            quotes()
                .filter(volume)
                .aggregate(Some(0), AggFunc::Max, 1, 1_000),
            news().filter(relevance(10 * i64::from(p))),
            news().filter(category).filter(relevance(i64::from(p))),
        ]);
    }
    let sample = chunked(&calibration(3_000, 21), 1_024);
    let loads = |by_rows: bool| {
        let mut shadow = DsmsEngine::new();
        shadow.register_stream("quotes", quote_schema());
        shadow.register_stream("news", news_schema());
        for plan in &pool {
            shadow.add_query(plan.clone()).unwrap();
        }
        if by_rows {
            for run in sample.chunk_by(|a, b| a.0 == b.0) {
                shadow.push_rows(&run[0].0, run.iter().map(|(_, t)| t.clone()).collect());
            }
        } else {
            shadow.push_batch(sample.iter().cloned());
        }
        estimate_node_loads(&shadow, &CostModel::default())
            .into_iter()
            .map(|l| (l.node, l.kind, l.input_rate.to_bits(), l.load))
            .collect::<Vec<_>>()
    };
    let by_batch = loads(false);
    assert!(by_batch.iter().any(|l| l.1 == "aggregate"));
    assert_eq!(by_batch, loads(true));
}
