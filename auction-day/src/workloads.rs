//! The four workloads: who bids what each day, and what the streams carry.
//!
//! Every input is a function of the seed alone. Streams come from one
//! continuous [`Feed`] per run, so event time never restarts: a replayed
//! chunk set would pile late rows into window state and the serve rate
//! would fall day over day for a reason that is the harness's, not the
//! engine's.

use cqac_core::model::UserId;
use cqac_core::units::Money;
use cqac_dsms::expr::{ArithOp, Expr};
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::streams::NEWS_CATEGORIES;
use cqac_dsms::types::{Tuple, Value};
use cqac_dsms::Submission;
use cqac_workload::{hot_key_rows, HotKeyParams, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::sync::Arc;

/// Distinct symbols on both streams (the keyed workloads' key space).
pub const SYMBOLS: u64 = 64;
/// Quotes rows per news row.
const NEWS_EVERY: u64 = 10;
/// Rows of `quotes` in the calibration sample every auction replays.
pub const CALIBRATION_ROWS: usize = 10_000;

/// A flash crowd: within every `every` chunks, chunk number `at` carries
/// `rows` rows instead of the regular size.
#[derive(Clone, Copy, Debug)]
pub struct Flash {
    pub every: usize,
    pub at: usize,
    pub rows: usize,
}

/// How the day's bidders are drawn from the plan templates.
#[derive(Clone, Copy, Debug)]
pub enum Bidding {
    /// Bidder `i` holds template `i mod templates` and resubmits it every
    /// day, so every query continues through every transition.
    Fixed,
    /// Templates are drawn Zipf(1); each day this share of bidders is
    /// replaced by new users with new draws.
    Churning(f64),
}

/// One workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// `None`: closed loop. `Some(r)`: chunks fall due on a fixed schedule
    /// of `r` regular rows per second.
    pub open_loop_rows_per_s: Option<u64>,
    /// Shards asked for; the run uses `min(shards, nproc)`.
    pub shards: usize,
    /// Hash-partition both streams on `symbol`.
    pub keyed: bool,
    pub ingress_guard: Option<u64>,
    pub bidders: usize,
    pub bidding: Bidding,
    /// Per-core capacity the auction prices against.
    pub capacity: f64,
    pub chunk_rows: usize,
    pub chunks_per_day: usize,
    pub flash: Option<Flash>,
    pub calibration_rows: usize,
    /// Days of the traced run (fixed, so its counters repeat exactly).
    pub traced_days: usize,
    /// Chunks of day 0 the reference pass replays.
    pub reference_chunks: usize,
    /// The plans bidders choose from.
    pub templates: fn() -> Vec<LogicalPlan>,
}

pub const WORKLOADS: [&str; 4] = [
    "auction_rush",
    "serve_shared_stateless",
    "serve_keyed_stateful",
    "burst_small_chunks",
];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            open_loop_rows_per_s: None,
            shards: 1,
            keyed: false,
            ingress_guard: None,
            bidders: 64,
            bidding: Bidding::Fixed,
            capacity: 1.0e6,
            chunk_rows: 1024,
            chunks_per_day: 128,
            flash: None,
            calibration_rows: CALIBRATION_ROWS,
            traced_days: 2,
            reference_chunks: 8,
            templates: stateless_templates,
        };
        Some(match name {
            "auction_rush" => Spec {
                name: "auction_rush",
                bidders: 2000,
                bidding: Bidding::Churning(0.3),
                capacity: RUSH_CAPACITY,
                chunks_per_day: 8,
                traced_days: 5,
                templates: rush_templates,
                ..base
            },
            "serve_shared_stateless" => Spec {
                name: "serve_shared_stateless",
                ..base
            },
            "serve_keyed_stateful" => Spec {
                name: "serve_keyed_stateful",
                shards: 2,
                keyed: true,
                templates: stateful_templates,
                ..base
            },
            "burst_small_chunks" => Spec {
                name: "burst_small_chunks",
                open_loop_rows_per_s: Some(80_000),
                ingress_guard: Some(2048),
                bidders: 32,
                chunk_rows: 16,
                // Two seconds of schedule per day.
                chunks_per_day: 10_000,
                flash: Some(Flash {
                    every: 2000,
                    at: 100,
                    rows: 4096,
                }),
                reference_chunks: 128,
                templates: mixed_templates,
                ..base
            },
            _ => return None,
        })
    }

    /// The ~1 % size the smoke test runs: same structure, fewer rows, days
    /// and bidders.
    pub fn quick(mut self) -> Spec {
        let bidders = (self.bidders / 10).max(32);
        // Capacity follows the bidders, so the same share is admitted.
        self.capacity *= bidders as f64 / self.bidders as f64;
        self.bidders = bidders;
        self.calibration_rows = 1024;
        self.chunks_per_day = match self.flash {
            Some(f) => f.at + 28,
            None => self.chunks_per_day.min(6),
        };
        self.traced_days = 2;
        self.reference_chunks = match self.flash {
            Some(f) => f.at + 8,
            None => 4,
        };
        self
    }

    /// Rows of `quotes` each chunk of a day carries.
    pub fn chunk_sizes(&self) -> Vec<usize> {
        (0..self.chunks_per_day)
            .map(|k| match self.flash {
                Some(f) if k % f.every == f.at => f.rows,
                _ => self.chunk_rows,
            })
            .collect()
    }
}

/// Per-core capacity at which `Cat` admits 25–40 % of `auction_rush`'s 2000
/// bidders (measured: see the README's reference numbers).
const RUSH_CAPACITY: f64 = 150.0;

fn symbol_name(k: u64) -> String {
    format!("S{k:02}")
}

fn quotes() -> LogicalPlan {
    LogicalPlan::source("quotes")
}

fn news() -> LogicalPlan {
    LogicalPlan::source("news")
}

fn price_gt(t: f64) -> Expr {
    Expr::col(1).gt(Expr::lit(Value::Float(t)))
}

fn volume_gt(v: i64) -> Expr {
    Expr::col(2).gt(Expr::lit(Value::Int(v)))
}

fn symbol_is(k: u64) -> Expr {
    Expr::col(0).eq(Expr::lit(Value::str(symbol_name(k))))
}

fn relevance_gt(r: i64) -> Expr {
    Expr::col(2).gt(Expr::lit(Value::Int(r)))
}

fn symbol_and_price() -> Vec<(String, Expr)> {
    vec![
        ("symbol".to_string(), Expr::col(0)),
        ("price".to_string(), Expr::col(1)),
    ]
}

/// 16 distinct stateless chains, every one fused into a single node:
/// numeric filters, filter∘filter, dictionary string equality ∘ project,
/// and filter ∘ arithmetic project. Pass rates run from ~5 % to ~80 %.
fn stateless_templates() -> Vec<LogicalPlan> {
    (0..16u64)
        .map(|i| {
            let step = (i / 4) as f64;
            match i % 4 {
                0 => quotes().filter(price_gt(40.0 + 40.0 * step)),
                1 => quotes()
                    .filter(price_gt(30.0 + 20.0 * step))
                    .filter(volume_gt(200 + 150 * (i / 4) as i64)),
                2 => quotes()
                    .filter(symbol_is(1 + i / 4))
                    .project(symbol_and_price()),
                _ => quotes().filter(price_gt(60.0 + 30.0 * step)).project(vec![
                    ("symbol".to_string(), Expr::col(0)),
                    (
                        "notional".to_string(),
                        Expr::Arith(ArithOp::Mul, Box::new(Expr::col(1)), Box::new(Expr::col(2))),
                    ),
                ]),
            }
        })
        .collect()
}

/// `burst_small_chunks`: half of each, alternating, so bidder `i` and
/// `i + 1` stress different operators.
fn mixed_templates() -> Vec<LogicalPlan> {
    stateless_templates()
        .into_iter()
        .zip(stateful_templates())
        .flat_map(|(a, b)| [a, b])
        .collect()
}

/// 20 distinct stateful plans over the shard key `symbol`: grouped integer
/// Sum (commutative), grouped float Avg (order-sensitive), the
/// `quotes ⋈ news` window join, ungrouped Count (a partial member) and a
/// sliding grouped Max.
fn stateful_templates() -> Vec<LogicalPlan> {
    (0..20u64)
        .map(|i| {
            let step = (i / 5) as f64;
            let price = price_gt(20.0 + 35.0 * step);
            match i % 5 {
                0 => quotes()
                    .filter(price)
                    .aggregate(Some(0), AggFunc::Sum, 2, 1000),
                1 => quotes()
                    .filter(volume_gt(100 + 200 * (i / 5) as i64))
                    .aggregate(Some(0), AggFunc::Avg, 1, 1000),
                2 => quotes().filter(price).join(
                    news().filter(relevance_gt(20 * (i / 5) as i64)),
                    0,
                    0,
                    50,
                ),
                3 => quotes()
                    .filter(price)
                    .aggregate(None, AggFunc::Count, 0, 1000),
                _ => quotes()
                    .filter(price)
                    .sliding_aggregate(Some(0), AggFunc::Max, 1, 2000, 500),
            }
        })
        .collect()
}

/// The 1200-template pool of `auction_rush`: eight shapes over `quotes` and
/// `news`, 150 parameter settings each. Aggregates sit on filters that
/// other shapes also submit, so the shared network is smaller than the sum
/// of the plans.
fn rush_templates() -> Vec<LogicalPlan> {
    (0..1200u64)
        .map(|i| {
            let p = i / 8;
            // Pass rates stay between 40 % and 70 %: were they spread over
            // 0–100 %, how much the winners emit — and with it every serve
            // metric of this workload — would swing with the seed's bids.
            let price = price_gt(80.0 + 0.25 * p as f64);
            let volume = volume_gt(300 + 2 * p as i64);
            match i % 8 {
                0 => quotes().filter(price),
                1 => quotes().filter(price).filter(volume),
                2 => quotes().filter(price).project(symbol_and_price()),
                3 => quotes().filter(symbol_is(1 + p % SYMBOLS)).filter(price),
                4 => quotes()
                    .filter(price)
                    .aggregate(Some(0), AggFunc::Count, 0, 1000),
                5 => quotes()
                    .filter(volume)
                    .aggregate(Some(0), AggFunc::Max, 1, 1000),
                6 => news().filter(relevance_gt((p % 100) as i64)),
                _ => news()
                    .filter(
                        Expr::col(1).eq(Expr::lit(Value::str(NEWS_CATEGORIES[(p % 4) as usize]))),
                    )
                    .filter(relevance_gt((p / 4) as i64)),
            }
        })
        .collect()
}

struct Bidder {
    user: u32,
    template: usize,
    bid: Money,
}

/// The bidders of a run, day after day.
pub struct Population {
    templates: Vec<LogicalPlan>,
    bidding: Bidding,
    popularity: Zipf,
    bids: Zipf,
    rng: StdRng,
    bidders: Vec<Bidder>,
    next_user: u32,
}

impl Population {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let templates = (spec.templates)();
        let mut population = Self {
            popularity: Zipf::new(templates.len() as u64, 1.0),
            // Table III: maximum bid 100, Zipf skew 0.5.
            bids: Zipf::new(100, 0.5),
            templates,
            bidding: spec.bidding,
            rng: StdRng::seed_from_u64(seed ^ 0xB1D5),
            bidders: Vec::with_capacity(spec.bidders),
            next_user: 0,
        };
        for i in 0..spec.bidders {
            let bidder = population.draw(i);
            population.bidders.push(bidder);
        }
        population
    }

    fn draw(&mut self, seat: usize) -> Bidder {
        let template = match self.bidding {
            Bidding::Fixed => seat % self.templates.len(),
            Bidding::Churning(_) => self.popularity.sample(&mut self.rng) as usize - 1,
        };
        let user = self.next_user;
        self.next_user += 1;
        Bidder {
            user,
            template,
            bid: Money::from_dollars(self.bids.sample(&mut self.rng) as f64),
        }
    }

    /// The next day's submissions. Bidders who stay resubmit the identical
    /// plan, so a winner's query continues with its state.
    pub fn next_day(&mut self, day: usize) -> Vec<Submission> {
        if let (Bidding::Churning(share), true) = (self.bidding, day > 0) {
            for seat in 0..self.bidders.len() {
                if self.rng.random_bool(share) {
                    self.bidders[seat] = self.draw(seat);
                }
            }
        }
        self.bidders
            .iter()
            .map(|b| Submission {
                user: UserId(b.user),
                bid: b.bid,
                plan: self.templates[b.template].clone(),
            })
            .collect()
    }
}

/// What one `process` round hands over: a `quotes` chunk and the `news`
/// rows whose event times fall inside it.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    pub quotes: Vec<Tuple>,
    pub news: Vec<Tuple>,
}

impl Chunk {
    pub fn rows(&self) -> usize {
        self.quotes.len() + self.news.len()
    }
}

/// The one generator behind both streams. `quotes` row `i` of the run has
/// event time `i + 1` ms; `news` has one row every ten. Symbols are
/// `cqac_workload::hot_key_rows` keys — Zipf(1) over 64, hottest ≈ 20 % —
/// mapped into the `quotes` schema, with the scenario's integer ramp as
/// `volume`.
pub struct Feed {
    rng: StdRng,
    symbols: Vec<Arc<str>>,
    categories: Vec<Arc<str>>,
    quote_ts: u64,
    news_ts: u64,
}

impl Feed {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            symbols: (1..=SYMBOLS).map(|k| Arc::from(symbol_name(k))).collect(),
            categories: NEWS_CATEGORIES.iter().map(|c| Arc::from(*c)).collect(),
            quote_ts: 0,
            news_ts: NEWS_EVERY / 2,
        }
    }

    /// Generates the chunks of one day, continuing where the last day
    /// stopped.
    pub fn day(&mut self, sizes: &[usize]) -> Vec<Chunk> {
        let total: usize = sizes.iter().sum();
        let mut keys = hot_key_rows(&HotKeyParams {
            keys: SYMBOLS,
            skew: 1.0,
            rows: total,
            seed: self.rng.next_u64(),
        })
        .into_iter();
        let symbol_draw = Zipf::new(SYMBOLS, 1.0);
        sizes
            .iter()
            .map(|&n| {
                let mut chunk = Chunk {
                    quotes: Vec::with_capacity(n),
                    news: Vec::with_capacity(n / NEWS_EVERY as usize + 1),
                };
                for key in keys.by_ref().take(n) {
                    self.quote_ts += 1;
                    chunk.quotes.push(Tuple::new(
                        self.quote_ts,
                        vec![
                            Value::Str(self.symbols[key.key as usize - 1].clone()),
                            Value::Float(self.rng.random_range(1.0..200.0)),
                            Value::Int(key.value),
                        ],
                    ));
                }
                while self.news_ts <= self.quote_ts {
                    let symbol = symbol_draw.sample(&mut self.rng) as usize - 1;
                    let category = self.rng.random_range(0..self.categories.len());
                    chunk.news.push(Tuple::new(
                        self.news_ts,
                        vec![
                            Value::Str(self.symbols[symbol].clone()),
                            Value::Str(self.categories[category].clone()),
                            Value::Int(self.rng.random_range(0i64..100)),
                        ],
                    ));
                    self.news_ts += NEWS_EVERY;
                }
                chunk
            })
            .collect()
    }
}

/// The calibration sample every auction of a run replays through its
/// shadow engine: a feed of its own (shadow engines start empty, so its
/// event time is unrelated to the live run's), in arrival order.
pub fn calibration(spec: &Spec, seed: u64) -> Vec<(String, Tuple)> {
    let chunks = spec.calibration_rows.div_ceil(1024);
    let sizes: Vec<usize> = (0..chunks)
        .map(|k| 1024.min(spec.calibration_rows - k * 1024))
        .collect();
    Feed::new(seed ^ 0xCA11_B8A7)
        .day(&sizes)
        .into_iter()
        .flat_map(|chunk| {
            let quotes = chunk.quotes.into_iter().map(|t| ("quotes".to_string(), t));
            let news = chunk.news.into_iter().map(|t| ("news".to_string(), t));
            quotes.chain(news)
        })
        .collect()
}
