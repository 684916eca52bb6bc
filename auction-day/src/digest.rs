//! Output checking: digests of what each admitted query produced and of
//! what each auction decided, a reference pass through the slowest,
//! simplest configuration, and the goldens of the default seed.

use crate::workloads::{Chunk, Spec};
use cqac_core::mechanisms::Cat;
use cqac_core::units::Load;
use cqac_dsms::center::DayRecord;
use cqac_dsms::engine::{DsmsEngine, OverloadPolicy};
use cqac_dsms::ops;
use cqac_dsms::streams::{news_schema, quote_schema};
use cqac_dsms::types::{Tuple, Value};
use cqac_dsms::{DsmsCenter, Submission};
use serde::json::Json;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Order-sensitive digest of one query's output rows: the row count and
/// an FNV over a canonical byte rendering of every tuple (event time, then
/// per value a type tag and its bytes — exact for floats, no text
/// formatting on a path that sees tens of millions of rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutputDigest {
    pub rows: u64,
    pub fnv: Fnv,
}

impl OutputDigest {
    pub fn absorb(&mut self, rows: &[Tuple]) {
        self.rows += rows.len() as u64;
        for t in rows {
            self.fnv.write_u64(t.ts);
            for v in &t.values {
                match v {
                    Value::Bool(b) => self.fnv.write(&[0, u8::from(*b)]),
                    Value::Int(i) => {
                        self.fnv.write(&[1]);
                        self.fnv.write(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        self.fnv.write(&[2]);
                        self.fnv.write_u64(f.to_bits());
                    }
                    Value::Str(s) => {
                        self.fnv.write(&[3]);
                        self.fnv.write(s.as_bytes());
                        self.fnv.write(&[0xff]);
                    }
                }
            }
        }
    }
}

/// What one day must reproduce exactly: the auction's decisions (admitted
/// set, payments in micro-dollars, profit) and every admitted query's
/// outputs, in submission order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayDigest {
    pub auction: Fnv,
    pub outputs: Fnv,
    pub output_rows: u64,
}

pub fn auction_digest(record: &DayRecord) -> Fnv {
    let mut fnv = Fnv::default();
    for d in &record.decisions {
        fnv.write_u64(d.submission as u64);
        fnv.write(&[u8::from(d.admitted)]);
        fnv.write_u64(d.payment.micro());
    }
    fnv.write_u64(record.profit.micro());
    fnv
}

/// Folds the per-query digests of a day, in submission order.
pub fn outputs_digest<'a>(
    per_query: impl Iterator<Item = (usize, &'a OutputDigest)>,
) -> (Fnv, u64) {
    let mut fnv = Fnv::default();
    let mut rows = 0;
    for (submission, digest) in per_query {
        fnv.write_u64(submission as u64);
        fnv.write_u64(digest.rows);
        fnv.write_u64(digest.fnv.0);
        rows += digest.rows;
    }
    (fnv, rows)
}

/// Day 0 as the timed pass saw it: what the reference pass recomputes and
/// what it must arrive at.
pub struct Day0 {
    pub submissions: Vec<Submission>,
    pub calibration: Vec<(String, Tuple)>,
    /// The first chunks of the serve phase.
    pub prefix: Vec<Chunk>,
    /// Admitted submissions, in submission order.
    pub admitted: Vec<usize>,
    pub auction: Fnv,
    /// Per admitted submission, its output digest after the prefix.
    pub at_prefix: Vec<OutputDigest>,
}

/// Batch cap of the reference auction. Its calibration sample enters the
/// shadow engine in one flush, which queues every batch at every
/// subscriber before any runs: at cap 1 that is rows × operators queue
/// entries, hundreds of MiB at 2000 bidders, for a result — operator input
/// counts — that no batching can change.
const REFERENCE_AUCTION_BATCH: usize = 64;

/// Recomputes day 0's auction and the first chunks of its serve phase
/// through the configuration with no optimisation left in it — one shard,
/// row-at-a-time kernels, batch cap 1 for the outputs — and compares: one
/// op for the day digest, one per admitted query. Returns the ops
/// attempted.
///
/// The auction goes through a center with fusion on, because fusing
/// changes which operators exist and so, legitimately, what the auction
/// prices; its capacity is the run's aggregate capacity. The outputs go
/// through a bare engine with fusion off: on day 0 a plan's outputs depend
/// on the plan and the input alone, so they are compared by plan
/// signature.
pub fn check_reference(spec: &Spec, shards: usize, day0: &Day0, failures: &mut Vec<String>) -> u64 {
    ops::with_columnar_kernels(false, || {
        let mut center = DsmsCenter::new(
            Load::from_units(spec.capacity * shards as f64),
            Box::new(Cat),
        )
        .with_batch_size(REFERENCE_AUCTION_BATCH);
        center.register_stream("quotes", quote_schema());
        center.register_stream("news", news_schema());
        let record = center
            .run_auction(&day0.submissions, &day0.calibration)
            .expect("reference auction");
        if auction_digest(&record) != day0.auction {
            failures.push("day 0: auction digest differs from the reference pass".to_string());
        }

        let mut engine = DsmsEngine::new()
            .with_max_batch_size(1)
            .with_fusion(false)
            .with_overload_policy(spec.ingress_guard.map(|rows| OverloadPolicy {
                max_rows_per_flush: rows,
            }));
        engine.register_stream("quotes", quote_schema());
        engine.register_stream("news", news_schema());
        let mut queries = HashMap::new();
        for &i in &day0.admitted {
            let plan = &day0.submissions[i].plan;
            queries
                .entry(plan.signature())
                .or_insert_with(|| engine.add_query(plan.clone()).expect("reference plan"));
        }
        let mut outputs: HashMap<&str, OutputDigest> = HashMap::new();
        for chunk in &day0.prefix {
            engine.push_rows("quotes", chunk.quotes.clone());
            engine.push_rows("news", chunk.news.clone());
            for (signature, cq) in &queries {
                outputs
                    .entry(signature)
                    .or_default()
                    .absorb(&engine.take_outputs(*cq));
            }
        }
        for (&submission, digest) in day0.admitted.iter().zip(&day0.at_prefix) {
            let signature = day0.submissions[submission].plan.signature();
            let reference = outputs.get(signature.as_str());
            if reference != Some(digest) {
                failures.push(format!(
                    "day 0: outputs of submission {submission} differ from the reference pass \
                     ({digest:?} vs {reference:?}) for {signature}"
                ));
            }
        }
        1 + day0.admitted.len() as u64
    })
}

/// The committed digests of the default seed's first days, per workload.
pub fn golden(workload: &str) -> Option<Vec<DayDigest>> {
    let text = match workload {
        "auction_rush" => include_str!("../golden/auction_rush.json"),
        "serve_shared_stateless" => include_str!("../golden/serve_shared_stateless.json"),
        "serve_keyed_stateful" => include_str!("../golden/serve_keyed_stateful.json"),
        "burst_small_chunks" => include_str!("../golden/burst_small_chunks.json"),
        _ => return None,
    };
    Vec::from_json(&Json::parse(text).ok()?).ok()
}
