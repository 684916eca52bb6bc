//! One pass of a workload: set-up, then day after day of
//! `run_auction` → `process` chunk by chunk → `take_outputs` for every
//! admitted query, timed from outside.

use crate::digest::{auction_digest, outputs_digest, Day0, DayDigest, OutputDigest};
use crate::layers::{NodeTotals, StagedAuction};
use crate::trace::Tracer;
use crate::workloads::{calibration, Chunk, Feed, Population, Spec};
use cqac_core::mechanisms::Cat;
use cqac_core::units::Load;
use cqac_dsms::network::CqId;
use cqac_dsms::streams::{news_schema, quote_schema};
use cqac_dsms::types::work::{self, WorkSnapshot};
use cqac_dsms::types::Tuple;
use cqac_dsms::{DsmsCenter, Submission};
use std::time::{Duration, Instant};

/// Chunks of day 0 the traced pass keeps for the layer replays.
const RETAINED_CHUNKS: usize = 64;

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many days, so every count of the pass repeats.
    Days(usize),
    /// Whole days until their measured time reaches `seconds`, and at
    /// least `min_days`.
    Seconds { seconds: f64, min_days: usize },
}

pub struct PassConfig<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub shards: usize,
    pub budget: Budget,
    /// Compare day 0 against the reference pass.
    pub check_reference: bool,
    /// Set up several times and report every sample.
    pub repeat_setup: bool,
}

pub struct DayInputs {
    pub submissions: Vec<Submission>,
    pub chunks: Vec<Chunk>,
}

/// Everything set-up builds before day 0's auction.
struct Stage {
    center: DsmsCenter,
    population: Population,
    feed: Feed,
    calibration: Vec<(String, Tuple)>,
    day0: DayInputs,
    generate: Duration,
}

/// Input generation + center construction + stream registration.
fn set_up(spec: &Spec, seed: u64, shards: usize) -> Stage {
    let start = Instant::now();
    let mut population = Population::new(spec, seed);
    let mut feed = Feed::new(seed);
    let calibration = calibration(spec, seed);
    let day0 = DayInputs {
        submissions: population.next_day(0),
        chunks: feed.day(&spec.chunk_sizes()),
    };
    let generate = start.elapsed();

    // Every engine knob stays at its default except the three a deployment
    // must choose: shard count, shard keys, ingress guard.
    let mut center =
        DsmsCenter::new(Load::from_units(spec.capacity), Box::new(Cat)).with_shards(shards);
    if spec.keyed {
        center = center.with_shard_key("quotes", 0).with_shard_key("news", 0);
    }
    if let Some(rows) = spec.ingress_guard {
        center = center.with_ingress_guard(rows);
    }
    center.register_stream("quotes", quote_schema());
    center.register_stream("news", news_schema());
    Stage {
        center,
        population,
        feed,
        calibration,
        day0,
        generate,
    }
}

#[derive(Clone, Debug, Default)]
pub struct DayStats {
    pub auction_s: f64,
    pub day_s: f64,
    pub rows_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub winners_share: f64,
}

/// What the traced pass adds: sums over its days of what each layer did.
#[derive(Default)]
pub struct LayerSums {
    pub staged: crate::layers::StagedSums,
    pub run_auction_s: f64,
    pub process_s: f64,
    pub process_ms: Vec<f64>,
    pub take_outputs_s: f64,
    pub output_rows: u64,
    pub flushes: u64,
    pub tuples_processed: u64,
    pub batches_processed: u64,
    pub nodes: NodeTotals,
    pub serve_work: WorkSnapshot,
    /// Pool spawns of serve phases after day 0's first chunk: must be 0.
    pub late_pool_spawns: u64,
    pub home_rows: Vec<u64>,
    pub worker_rows: Vec<u64>,
    pub network_nodes: u64,
    pub max_sharing_degree: u64,
    pub utilization: f64,
}

pub struct PassResult {
    pub setup_s: Vec<f64>,
    pub generate_s: f64,
    pub days: Vec<DayStats>,
    pub chunks: u64,
    pub rows_offered: u64,
    pub rows_shed: u64,
    pub generator_late_max_ms: f64,
    pub ops_attempted: u64,
    pub failures: Vec<String>,
    pub digests: Vec<DayDigest>,
    pub layers: LayerSums,
    pub retained: Vec<Chunk>,
    /// What the reference pass needs to recompute day 0; it runs after the
    /// pass, so that its memory is not the workload's `peak_rss_mb`.
    pub day0: Option<Day0>,
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Field-wise `a op b` over every work counter.
macro_rules! work_zip {
    ($a:expr, $op:tt, $b:expr) => {
        work_zip!(@fields $a, $op, $b;
            rows_materialized, row_evals, kernel_ops, batch_deep_clones, shard_batches,
            shard_merge_rows, keyed_shard_rows, selection_pushdown_rows, pool_spawns,
            pool_wakeups, morsels_executed, morsels_stolen, steal_misses, rows_shed,
            quarantines, overload_flushes, simd_lanes, dict_code_cmps, str_cmps,
            adaptive_resizes, chain_morsels, grouped_partial_rows, partial_groups_combined,
            dict_batches_pruned)
    };
    (@fields $a:expr, $op:tt, $b:expr; $($f:ident),*) => {
        WorkSnapshot { $($f: $a.$f $op $b.$f),* }
    };
}

pub fn work_sub(after: &WorkSnapshot, before: &WorkSnapshot) -> WorkSnapshot {
    work_zip!(after, -, before)
}

pub fn work_add(a: &WorkSnapshot, b: &WorkSnapshot) -> WorkSnapshot {
    work_zip!(a, +, b)
}

/// Runs `f` and returns what it added to this thread's work counters.
pub fn work_delta<R>(f: impl FnOnce() -> R) -> (R, WorkSnapshot) {
    let before = work::snapshot();
    let result = f();
    (result, work_sub(&work::snapshot(), &before))
}

/// `q`-quantile of unsorted samples (nearest rank).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The typical day: the mean of the per-day values after dropping the
/// lowest and the highest eighth. A median would be steadier against a
/// stray day, but some per-day timings are bimodal (an auction on two
/// shards runs in one of two modes, depending on where the kernel puts the
/// shadow engine's fresh workers), and the median of a bimodal sample
/// jumps from one mode to the other between runs of one commit.
pub fn typical(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 8;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Asserts event time strictly increases per stream, across chunks and
/// across days.
fn check_monotone(chunks: &[Chunk], last: &mut [u64; 2]) {
    for chunk in chunks {
        for (stream, rows) in [&chunk.quotes, &chunk.news].into_iter().enumerate() {
            for t in rows {
                assert!(
                    t.ts > last[stream],
                    "event time must strictly increase: stream {stream} saw {} after {}",
                    t.ts,
                    last[stream]
                );
                last[stream] = t.ts;
            }
        }
    }
}

/// Outputs taken but not yet digested: `(chunk, admitted slot, rows)`.
type Pending = Vec<(usize, usize, Vec<Tuple>)>;

/// Digests and drops the pending outputs, in the order they were taken.
/// The first time a chunk at or past `prefix` shows up, the digests so far
/// are the reference prefix's.
fn digest_pending(
    pending: &mut Pending,
    digests: &mut [OutputDigest],
    prefix: usize,
    at_prefix: &mut Option<Vec<OutputDigest>>,
) {
    for (chunk, slot, rows) in pending.drain(..) {
        if chunk >= prefix && at_prefix.is_none() {
            *at_prefix = Some(digests.to_vec());
        }
        digests[slot].absorb(&rows);
    }
}

pub fn run_pass(cfg: &PassConfig<'_>, tracer: &mut Tracer) -> PassResult {
    let spec = cfg.spec;

    // Set up several times and keep the last: one set-up of the smaller
    // workloads lasts milliseconds, too short to compare between commits.
    let mut setup_s = Vec::new();
    let mut stage;
    let setup_start = Instant::now();
    loop {
        let start = Instant::now();
        stage = set_up(spec, cfg.seed, cfg.shards);
        setup_s.push(seconds(start.elapsed()));
        let enough = setup_s.len() >= 5 && seconds(setup_start.elapsed()) >= 0.4;
        if enough || setup_s.len() >= 25 || !cfg.repeat_setup {
            break;
        }
    }
    let Stage {
        mut center,
        mut population,
        mut feed,
        calibration,
        day0,
        generate,
    } = stage;

    let mut result = PassResult {
        setup_s,
        generate_s: seconds(generate),
        days: Vec::new(),
        chunks: 0,
        rows_offered: 0,
        rows_shed: 0,
        generator_late_max_ms: 0.0,
        ops_attempted: 0,
        failures: Vec::new(),
        digests: Vec::new(),
        layers: LayerSums::default(),
        retained: Vec::new(),
        day0: None,
    };
    // The traced pass also replays each auction stage by stage, and keeps
    // clones of day 0's first chunks for the layer replays.
    let mut staged = tracer
        .enabled()
        .then(|| StagedAuction::new(spec, cfg.shards));
    let mut last_ts = [0u64; 2];
    let mut measured = 0.0;
    let mut next = Some(day0);
    let chunk_interval = spec
        .open_loop_rows_per_s
        .map(|rate| Duration::from_nanos(spec.chunk_rows as u64 * 1_000_000_000 / rate));
    let quarantines_at_start = work::snapshot().quarantines;

    for day in 0.. {
        match cfg.budget {
            Budget::Days(n) if day >= n => break,
            Budget::Seconds { seconds, min_days } if day >= min_days && measured >= seconds => {
                break
            }
            _ => {}
        }
        let DayInputs {
            submissions,
            chunks,
        } = next.take().unwrap_or_else(|| {
            let start = Instant::now();
            let inputs = DayInputs {
                submissions: population.next_day(day),
                chunks: feed.day(&spec.chunk_sizes()),
            };
            result.generate_s += seconds(start.elapsed());
            inputs
        });
        check_monotone(&chunks, &mut last_ts);
        let day0_inputs = (day == 0).then(|| {
            if tracer.enabled() {
                result.retained = chunks[..RETAINED_CHUNKS.min(chunks.len())].to_vec();
            }
            let prefix = if cfg.check_reference {
                spec.reference_chunks.min(chunks.len())
            } else {
                0
            };
            (submissions.clone(), chunks[..prefix].to_vec())
        });
        tracer.day = day;

        // The staged replay runs first, on engines of its own, so that it
        // sits next to the day's span and not inside it.
        let staged_admitted = staged.as_mut().map(|s| {
            s.replay(
                &submissions,
                &calibration,
                tracer,
                &mut result.layers.staged,
            )
        });

        // --- auction ---------------------------------------------------
        let day_start = Instant::now();
        tracer.open("day", day_start);
        let outcome = center.run_auction(&submissions, &calibration);
        let auction_end = Instant::now();
        tracer.leaf("center.run_auction", day_start, auction_end);
        result.ops_attempted += 1;
        let record = match outcome {
            Ok(record) => record,
            Err(e) => {
                result.failures.push(format!("day {day}: run_auction: {e}"));
                tracer.close(auction_end);
                break;
            }
        };
        let auction_s = seconds(auction_end - day_start);
        let admitted: Vec<(usize, CqId)> = record
            .decisions
            .iter()
            .filter_map(|d| d.cq.map(|cq| (d.submission, cq)))
            .collect();
        if let Some(replayed) = staged_admitted {
            let real: Vec<bool> = record.decisions.iter().map(|d| d.admitted).collect();
            result.ops_attempted += 1;
            if replayed != real {
                result.failures.push(format!(
                    "day {day}: the staged replay admitted a different set than run_auction"
                ));
            }
        }

        // --- serve -----------------------------------------------------
        let mut digests = vec![OutputDigest::default(); admitted.len()];
        let mut at_prefix = None;
        let mut pending: Pending = Vec::new();
        let mut latencies_ms = Vec::with_capacity(chunks.len());
        let mut serve = Duration::ZERO;
        let mut rows = 0u64;
        let nodes_before = NodeTotals::of(center.engine());
        let engine_before = (
            center.engine().tuples_processed(),
            center.engine().batches_processed(),
        );
        let work_before = work::snapshot();
        let mut spawns_after_first_chunk = 0;
        let serve_start = Instant::now();
        tracer.open("serve", serve_start);
        for (k, chunk) in chunks.into_iter().enumerate() {
            rows += chunk.rows() as u64;
            // Closed loop: the clock starts at hand-over. Open loop: it
            // starts when the chunk was due, so a stall charges the chunks
            // queued behind it; the driver spins to the due time and
            // submits at once when it is already late.
            let (due, start) = match chunk_interval {
                None => {
                    let now = Instant::now();
                    (now, now)
                }
                Some(interval) => {
                    let due = serve_start + interval * k as u32;
                    let mut now = Instant::now();
                    while now < due {
                        std::hint::spin_loop();
                        now = Instant::now();
                    }
                    let late = seconds(now - due) * 1e3;
                    result.generator_late_max_ms = result.generator_late_max_ms.max(late);
                    (due, now)
                }
            };
            let calls = 1 + u64::from(!chunk.news.is_empty());
            center.process("quotes", chunk.quotes);
            if !chunk.news.is_empty() {
                center.process("news", chunk.news);
            }
            let processed = Instant::now();
            result.ops_attempted += calls;
            for (slot, (_, cq)) in admitted.iter().enumerate() {
                let out = center.take_outputs(*cq);
                if !out.is_empty() {
                    pending.push((k, slot, out));
                }
            }
            let done = Instant::now();
            serve += done - start;
            latencies_ms.push(seconds(done - due) * 1e3);
            if tracer.enabled() {
                tracer.open("chunk", start);
                tracer.leaf("center.process", start, processed);
                tracer.leaf("center.take_outputs", processed, done);
                tracer.close(done);
                let layers = &mut result.layers;
                layers.process_s += seconds(processed - start);
                layers.process_ms.push(seconds(processed - start) * 1e3);
                layers.take_outputs_s += seconds(done - processed);
                layers.flushes += calls;
                if day == 0 && k == 0 {
                    spawns_after_first_chunk = work::snapshot().pool_spawns;
                }
            }
            // Digesting is the harness's work, not the system's: between
            // chunks when nobody is waiting, after the day when chunks fall
            // due on a schedule.
            if chunk_interval.is_none() {
                digest_pending(
                    &mut pending,
                    &mut digests,
                    spec.reference_chunks,
                    &mut at_prefix,
                );
            }
        }
        let serve_end = Instant::now();
        tracer.close(serve_end);
        tracer.close(serve_end);
        digest_pending(
            &mut pending,
            &mut digests,
            spec.reference_chunks,
            &mut at_prefix,
        );
        let at_prefix = at_prefix.unwrap_or_else(|| digests.clone());

        // --- the day's ledger -------------------------------------------
        let serve_work = work_sub(&work::snapshot(), &work_before);
        if tracer.enabled() {
            let layers = &mut result.layers;
            layers.run_auction_s += auction_s;
            layers.tuples_processed += center.engine().tuples_processed() - engine_before.0;
            layers.batches_processed += center.engine().batches_processed() - engine_before.1;
            layers
                .nodes
                .add_delta(&NodeTotals::of(center.engine()), &nodes_before);
            layers.serve_work = work_add(&layers.serve_work, &serve_work);
            layers.late_pool_spawns += if day == 0 {
                work::snapshot().pool_spawns - spawns_after_first_chunk
            } else {
                serve_work.pool_spawns
            };
            layers.network_nodes = center.engine().network().num_nodes() as u64;
            layers.max_sharing_degree =
                u64::from(center.engine().network().max_degree_of_sharing());
            layers.utilization = record.utilization;
        }
        let (outputs, output_rows) = outputs_digest(
            admitted
                .iter()
                .map(|(submission, _)| *submission)
                .zip(&digests),
        );
        result.layers.output_rows += output_rows;
        result.digests.push(DayDigest {
            auction: auction_digest(&record),
            outputs,
            output_rows,
        });
        let serve_s = seconds(serve);
        result.days.push(DayStats {
            auction_s,
            day_s: auction_s + serve_s,
            rows_per_s: rows as f64 / serve_s,
            latency_p50_ms: quantile(&latencies_ms, 0.5),
            latency_p99_ms: quantile(&latencies_ms, 0.99),
            winners_share: admitted.len() as f64 / submissions.len() as f64,
        });
        result.rows_offered += rows;
        result.chunks += latencies_ms.len() as u64;
        measured += auction_s + serve_s;

        if let Some((submissions, prefix)) = day0_inputs {
            result.day0 = Some(Day0 {
                submissions,
                calibration: calibration.clone(),
                prefix,
                admitted: admitted.iter().map(|(s, _)| *s).collect(),
                auction: auction_digest(&record),
                at_prefix,
            });
        }
    }

    let stats = center.engine().stream_stats();
    result.rows_shed = stats.values().map(|s| s.rows_shed).sum();
    if tracer.enabled() {
        result.layers.home_rows = stats
            .get("quotes")
            .map(|s| s.shard_rows.clone())
            .unwrap_or_default();
        result.layers.worker_rows = center
            .engine()
            .shard_stats()
            .iter()
            .map(|s| s.rows)
            .collect();
    }
    let quarantines = work::snapshot().quarantines - quarantines_at_start;
    if quarantines > 0 {
        result
            .failures
            .push(format!("{quarantines} queries were quarantined"));
    }
    result
}
