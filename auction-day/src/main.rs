//! `auction-day`: the repo's benchmark. Drives the public facade one
//! auction day at a time — `DsmsCenter::run_auction`, then
//! `DsmsCenter::process` chunk by chunk and `DsmsCenter::take_outputs` for
//! every admitted query — prints every metric by name with its unit,
//! checks the outputs, and ends with the one result line `BENCHMARK.json`
//! describes. See the README next to this package.

mod compare;
mod digest;
mod layers;
mod report;
mod run;
mod trace;
mod workloads;

use digest::{check_reference, golden, DayDigest};
use layers::replay_layers;
use report::{end_to_end, per_layer, write_ledger, Metric, Record};
use run::{median, quantile, run_pass, typical, Budget, PassConfig, PassResult};
use serde::json::Json;
use serde::Serialize;
use std::process::{Command, ExitCode};
use trace::Tracer;
use workloads::{Spec, WORKLOADS};

/// The seed the committed goldens belong to.
const DEFAULT_SEED: u64 = 2010;
/// What `BENCHMARK.json` asks the driver to pass as `--seconds`.
const RUN_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  auction-day [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
  auction-day compare A.json B.json
  auction-day describe
  auction-day write-golden
workloads: auction_rush serve_shared_stateless serve_keyed_stateful burst_small_chunks
without --workload every workload runs, untraced then traced, each in a process of its own";

#[derive(Clone, Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                Spec::named(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                opts.workload = Some(name.clone());
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("describe") => {
            print!("{}", report::describe(RUN_SECONDS));
            Ok(true)
        }
        Some("write-golden") => write_golden(),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse(&args).and_then(|opts| match opts.workload.clone() {
            Some(workload) => run_one(&workload, &opts),
            None => run_all(&opts),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("auction-day: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metric(defs: &[report::MetricDef], name: &str, value: f64) -> Metric {
    let def = defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the tables"));
    Metric {
        name: name.to_string(),
        value,
        unit: def.unit.to_string(),
        exact: def.exact,
    }
}

/// Runs one workload in this process and reports it.
fn run_one(workload: &str, opts: &Options) -> Result<bool, String> {
    let nproc = nproc();
    let mut spec = Spec::named(workload).expect("validated by parse");
    if opts.quick {
        spec = spec.quick();
    }
    let shards = spec.shards.min(nproc);
    if shards < spec.shards {
        eprintln!(
            "warning: {workload} wants {} shards but nproc is {nproc}: running with {shards}; \
             its wall-clock metrics are unresolved, its counts stand",
            spec.shards
        );
    }
    let mut record = Record {
        workload: workload.to_string(),
        seed: opts.seed,
        traced: opts.trace,
        quick: opts.quick,
        nproc,
        shards,
        rustc: env!("AUCTION_DAY_RUSTC").to_string(),
        unresolved: shards < spec.shards,
        ..Record::default()
    };
    let digests = if opts.trace {
        traced_run(&spec, opts, &mut record)?
    } else {
        untraced_run(&spec, opts, &mut record)
    };
    if opts.seed == DEFAULT_SEED && !opts.quick {
        check_golden(workload, &digests, &mut record);
    }
    record.digests = digests;
    record.ops_failed = record.failures.len() as u64;
    record.commit = commit();
    record.print();
    if let Some(path) = &opts.out {
        write_ledger(path, std::slice::from_ref(&record))?;
    }
    println!("{}", record.contract_line());
    Ok(record.correct())
}

fn absorb(record: &mut Record, pass: &mut PassResult) {
    record.ops_attempted += pass.ops_attempted;
    record.failures.append(&mut pass.failures);
}

/// Runs the reference pass over the pass's day 0 and counts its checks.
fn refer(spec: &Spec, record: &mut Record, pass: &PassResult) {
    let day0 = pass.day0.as_ref().expect("the pass ran day 0");
    record.ops_attempted += check_reference(spec, record.shards, day0, &mut record.failures);
}

fn untraced_run(spec: &Spec, opts: &Options, record: &mut Record) -> Vec<DayDigest> {
    let budget = if opts.quick {
        Budget::Days(2)
    } else {
        Budget::Seconds {
            seconds: opts.seconds,
            min_days: 3,
        }
    };
    let mut pass = run_pass(
        &PassConfig {
            spec,
            seed: opts.seed,
            shards: record.shards,
            budget,
            check_reference: true,
            repeat_setup: true,
        },
        &mut Tracer::new(false),
    );
    absorb(record, &mut pass);
    // Read before the reference pass, whose memory is not the workload's.
    let peak_rss_mb = peak_rss_mb();
    refer(spec, record, &pass);
    let days = |f: fn(&run::DayStats) -> f64| pass.days.iter().map(f).collect::<Vec<f64>>();
    record.day_samples = vec![
        ("day_s".to_string(), days(|d| d.day_s)),
        ("auction_s".to_string(), days(|d| d.auction_s)),
        ("serve_rows_per_s".to_string(), days(|d| d.rows_per_s)),
        (
            "chunk_latency_p50_ms".to_string(),
            days(|d| d.latency_p50_ms),
        ),
        (
            "chunk_latency_p99_ms".to_string(),
            days(|d| d.latency_p99_ms),
        ),
        ("setup_s".to_string(), pass.setup_s.clone()),
    ];
    record.samples = vec![
        ("days".to_string(), pass.days.len() as u64),
        ("chunks".to_string(), pass.chunks),
        ("setups".to_string(), pass.setup_s.len() as u64),
        ("rows_offered".to_string(), pass.rows_offered),
    ];
    let defs = end_to_end();
    let delivered = 1.0 - pass.rows_shed as f64 / pass.rows_offered as f64;
    record.metrics = vec![
        metric(&defs, "setup_s", median(&pass.setup_s)),
        metric(&defs, "day_s", typical(&days(|d| d.day_s))),
        metric(&defs, "auction_s", typical(&days(|d| d.auction_s))),
        metric(&defs, "serve_rows_per_s", typical(&days(|d| d.rows_per_s))),
        metric(
            &defs,
            "chunk_latency_p50_ms",
            typical(&days(|d| d.latency_p50_ms)),
        ),
        metric(
            &defs,
            "chunk_latency_p99_ms",
            typical(&days(|d| d.latency_p99_ms)),
        ),
        metric(&defs, "delivered_fraction", delivered),
        metric(&defs, "peak_rss_mb", peak_rss_mb),
    ];
    println!(
        "generator_late_max_ms {:.4} | admitted {:.1}% of bidders on the typical day",
        pass.generator_late_max_ms,
        100.0 * typical(&days(|d| d.winners_share)),
    );
    pass.digests
}

/// The traced run: a fixed number of days, three times over — tracing off
/// (the base of the overhead ratio), tracing on with the staged auction
/// replay, and, when the workload is sharded, once more on one shard as the
/// single-threaded baseline. Its counters repeat exactly for a seed.
fn traced_run(spec: &Spec, opts: &Options, record: &mut Record) -> Result<Vec<DayDigest>, String> {
    let config = |shards, traced: bool| PassConfig {
        spec,
        seed: opts.seed,
        shards,
        budget: Budget::Days(spec.traced_days),
        check_reference: traced,
        repeat_setup: false,
    };
    let mut base = run_pass(&config(record.shards, false), &mut Tracer::new(false));
    absorb(record, &mut base);
    let mut tracer = Tracer::new(true);
    let mut pass = run_pass(&config(record.shards, true), &mut tracer);
    absorb(record, &mut pass);
    refer(spec, record, &pass);
    let replays = replay_layers(&pass, &mut tracer);
    record.ops_attempted += 1;
    if base.digests != pass.digests {
        record
            .failures
            .push("the traced pass produced other digests than the untraced pass".to_string());
    }
    let rows_per_s =
        |p: &PassResult| typical(&p.days.iter().map(|d| d.rows_per_s).collect::<Vec<f64>>());
    let s1_rows_per_s = if record.shards > 1 {
        let mut single = run_pass(&config(1, false), &mut Tracer::new(false));
        absorb(record, &mut single);
        record.ops_attempted += 1;
        if single.digests != pass.digests {
            record
                .failures
                .push("one shard produced other digests than the sharded pass".to_string());
        }
        rows_per_s(&single)
    } else {
        rows_per_s(&base)
    };

    let l = &pass.layers;
    let st = &l.staged;
    let w = &l.serve_work;
    let skew = |rows: &[u64]| {
        let total: u64 = rows.iter().sum();
        if total == 0 {
            0.0
        } else {
            *rows.iter().max().expect("non-empty") as f64 * rows.len() as f64 / total as f64
        }
    };
    let day_s = |p: &PassResult| typical(&p.days.iter().map(|d| d.day_s).collect::<Vec<f64>>());
    let self_s = l.process_s - l.nodes.busy_s();
    let steals = w.morsels_stolen + w.steal_misses;
    let mut values: Vec<(String, f64)> = vec![
        ("diag.verify_s".into(), st.verify_s),
        ("diag.plans_verified".into(), st.plans_verified as f64),
        ("diag.plans_rejected".into(), st.plans_rejected as f64),
        ("network.add_query_s".into(), st.add_query_s),
        ("network.transition_s".into(), st.transition_s),
        ("network.nodes".into(), l.network_nodes as f64),
        (
            "network.max_sharing_degree".into(),
            l.max_sharing_degree as f64,
        ),
        ("network.queries_reused".into(), st.queries_reused as f64),
        ("network.queries_removed".into(), st.queries_removed as f64),
        ("engine.calibrate_s".into(), st.calibrate_s),
        ("engine.calibrate_rows".into(), st.calibrate_rows as f64),
        ("cost.lower_s".into(), st.lower_s),
        ("core.instance_queries".into(), st.instance_queries as f64),
        (
            "core.instance_operators".into(),
            st.instance_operators as f64,
        ),
        ("core.mechanism_s".into(), st.mechanism_s),
        ("core.winners".into(), st.winners as f64),
        ("core.utilization".into(), l.utilization),
        (
            "center.auction_coverage".into(),
            st.stages_s() / l.run_auction_s,
        ),
        ("center.process_s".into(), l.process_s),
        (
            "center.process_p99_ms".into(),
            quantile(&l.process_ms, 0.99),
        ),
        ("center.take_outputs_s".into(), l.take_outputs_s),
        ("center.output_rows".into(), l.output_rows as f64),
        ("engine.flushes".into(), l.flushes as f64),
        ("engine.tuples_processed".into(), l.tuples_processed as f64),
        (
            "engine.batches_processed".into(),
            l.batches_processed as f64,
        ),
        ("types.from_rows_s".into(), replays.from_rows_s),
        (
            "types.dict_chunk_fraction".into(),
            replays.dict_chunk_fraction,
        ),
        ("types.into_rows_s".into(), replays.into_rows_s),
        ("expr.filter_indices_s".into(), replays.filter_indices_s),
        (
            "expr.kernel_ops".into(),
            replays.filter_work.kernel_ops as f64,
        ),
        (
            "expr.simd_lanes".into(),
            replays.filter_work.simd_lanes as f64,
        ),
        (
            "expr.dict_code_cmps".into(),
            replays.filter_work.dict_code_cmps as f64,
        ),
        ("expr.str_cmps".into(), replays.filter_work.str_cmps as f64),
        (
            "expr.row_evals".into(),
            replays.filter_work.row_evals as f64,
        ),
        (
            "expr.dict_batches_pruned".into(),
            replays.filter_work.dict_batches_pruned as f64,
        ),
        ("engine.self_s".into(), self_s),
        (
            "engine.self_us_per_flush".into(),
            self_s * 1e6 / l.flushes as f64,
        ),
        ("engine.home_rows_skew".into(), skew(&l.home_rows)),
        ("engine.worker_rows_skew".into(), skew(&l.worker_rows)),
        ("engine.morsels_stolen".into(), w.morsels_stolen as f64),
        ("engine.steal_misses".into(), w.steal_misses as f64),
        (
            "engine.steal_hit_ratio".into(),
            if steals == 0 {
                0.0
            } else {
                w.morsels_stolen as f64 / steals as f64
            },
        ),
        ("engine.morsels_executed".into(), w.morsels_executed as f64),
        ("engine.chain_morsels".into(), w.chain_morsels as f64),
        ("engine.pool_wakeups".into(), w.pool_wakeups as f64),
        ("engine.pool_spawns".into(), w.pool_spawns as f64),
        ("engine.keyed_shard_rows".into(), w.keyed_shard_rows as f64),
        (
            "engine.selection_pushdown_rows".into(),
            w.selection_pushdown_rows as f64,
        ),
        (
            "engine.grouped_partial_rows".into(),
            w.grouped_partial_rows as f64,
        ),
        (
            "engine.partial_groups_combined".into(),
            w.partial_groups_combined as f64,
        ),
        ("engine.shard_merge_rows".into(), w.shard_merge_rows as f64),
        ("engine.adaptive_resizes".into(), w.adaptive_resizes as f64),
        (
            "types.interleave_tagged_s".into(),
            replays.interleave_tagged_s,
        ),
        ("ops.shard_of_s".into(), replays.shard_of_s),
        ("engine.s1_rows_per_s".into(), s1_rows_per_s),
        ("engine.rows_shed".into(), w.rows_shed as f64),
        (
            "engine.shed_fraction".into(),
            pass.rows_shed as f64 / pass.rows_offered as f64,
        ),
        ("engine.overload_flushes".into(), w.overload_flushes as f64),
        ("engine.quarantines".into(), w.quarantines as f64),
        (
            "engine.rows_materialized".into(),
            w.rows_materialized as f64,
        ),
        (
            "engine.batch_deep_clones".into(),
            w.batch_deep_clones as f64,
        ),
        ("workload.generate_s".into(), pass.generate_s),
        (
            "workload.generator_late_max_ms".into(),
            pass.generator_late_max_ms,
        ),
        ("trace.spans".into(), tracer.spans.len() as f64),
        ("trace.overhead_ratio".into(), day_s(&pass) / day_s(&base)),
    ];
    for (kind, (rows_in, rows_out, busy)) in
        cqac_dsms::ops::OPERATOR_KINDS.iter().zip(l.nodes.by_kind)
    {
        values.push((format!("ops.{kind}_busy_s"), busy));
        values.push((format!("ops.{kind}_rows_in"), rows_in as f64));
        values.push((format!("ops.{kind}_rows_out"), rows_out as f64));
    }
    // Report in the tables' order, and every metric of the tables.
    let defs = per_layer();
    record.metrics = defs
        .iter()
        .map(|d| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("per-layer metric '{}' was not measured", d.name));
            metric(&defs, &d.name, *value)
        })
        .collect();
    record.samples = vec![
        ("days".to_string(), pass.days.len() as u64),
        ("chunks".to_string(), pass.chunks),
        ("retained_chunks".to_string(), pass.retained.len() as u64),
    ];

    // What the workload was chosen to stress must be what it stresses.
    record.ops_attempted += 1;
    if l.late_pool_spawns > 0 {
        record.failures.push(format!(
            "the worker pool spawned {} threads during serve phases after warm-up",
            l.late_pool_spawns
        ));
    }
    if w.batch_deep_clones > 0 {
        record
            .failures
            .push(format!("{} batches were deep-cloned", w.batch_deep_clones));
    }

    let mut text = String::new();
    Json::Obj(vec![
        ("workload".to_string(), Json::Str(spec.name.to_string())),
        ("seed".to_string(), Json::U64(opts.seed)),
        ("spans".to_string(), tracer.to_json()),
    ])
    .render(&mut text);
    let path = format!("results/bench/trace_{}.json", spec.name);
    std::fs::create_dir_all("results/bench")
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("trace written to {path}");
    Ok(pass.digests)
}

/// One op per golden day the run reached.
fn check_golden(workload: &str, digests: &[DayDigest], record: &mut Record) {
    let Some(golden) = golden(workload) else {
        record.ops_attempted += 1;
        record
            .failures
            .push(format!("no readable golden for {workload}"));
        return;
    };
    for (day, (expected, got)) in golden.iter().zip(digests).enumerate() {
        record.ops_attempted += 1;
        if expected != got {
            record.failures.push(format!(
                "day {day}: digests differ from the golden ({got:?} vs {expected:?})"
            ));
        }
    }
}

/// Rewrites the goldens from a fresh run of the default seed. Only for a
/// change that alters outputs on purpose.
fn write_golden() -> Result<bool, String> {
    const GOLDEN_DAYS: usize = 3;
    for workload in WORKLOADS {
        let spec = Spec::named(workload).expect("listed workload");
        let pass = run_pass(
            &PassConfig {
                spec: &spec,
                seed: DEFAULT_SEED,
                shards: spec.shards.min(nproc()),
                budget: Budget::Days(GOLDEN_DAYS),
                check_reference: true,
                repeat_setup: false,
            },
            &mut Tracer::new(false),
        );
        let mut failures = pass.failures.clone();
        let day0 = pass.day0.as_ref().expect("the pass ran day 0");
        check_reference(&spec, spec.shards.min(nproc()), day0, &mut failures);
        if !failures.is_empty() {
            return Err(format!("{workload}: {}", failures.join("; ")));
        }
        let mut text = String::new();
        pass.digests.to_json().render(&mut text);
        let path = format!("{}/golden/{workload}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(true)
}

/// Runs every workload, untraced then traced, each in a process of its own
/// (so `peak_rss_mb` is the workload's and nothing carries over), and
/// writes one ledger.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "results/bench/ledger.json".to_string());
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let part = format!("{out}.{workload}.{trace}.part");
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload, "--trace", trace, "--out", &part])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()]);
            if opts.quick {
                command.arg("--quick");
            }
            let status = command.status().map_err(|e| format!("{workload}: {e}"))?;
            all_correct &= status.success();
            records.extend(report::read_ledger(&part)?);
            std::fs::remove_file(&part).map_err(|e| format!("{part}: {e}"))?;
        }
    }
    write_ledger(&out, &records)?;
    println!("ledger written to {out}");
    Ok(all_correct)
}
