//! `auction-day compare A.json B.json`: per workload × end-to-end metric,
//! how far B moved from A against the metric's bound; digests,
//! `delivered_fraction` and every counter of the traced runs must be equal.

use crate::report::{end_to_end, read_ledger, Better, Record};
use crate::run::quantile;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

fn value(record: &Record, name: &str) -> Option<f64> {
    record
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
}

/// First and third quartile of a metric's per-day values, when the run
/// kept at least four.
fn quartiles(record: &Record, name: &str) -> Option<(f64, f64)> {
    let (_, samples) = record.day_samples.iter().find(|(n, _)| n == name)?;
    (samples.len() >= 4).then(|| (quantile(samples, 0.25), quantile(samples, 0.75)))
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two ledger files".to_string());
    };
    let a_runs = read_ledger(a_path)?;
    let b_runs = read_ledger(b_path)?;
    let mut regressions = 0;
    let mut pairs = 0;
    println!(
        "{:<24} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%"
    );
    for a in &a_runs {
        let Some(b) = b_runs
            .iter()
            .find(|b| b.workload == a.workload && b.traced == a.traced && b.quick == a.quick)
        else {
            continue;
        };
        pairs += 1;
        if a.seed != b.seed {
            return Err(format!(
                "{}: seeds differ ({} vs {}): the runs had different inputs",
                a.workload, a.seed, b.seed
            ));
        }
        let mut row = |metric: &str, av: f64, bv: f64, worse: f64, bound: f64, v: Verdict| {
            println!(
                "{:<24} {:<28} {:>14.6} {:>14.6} {:>8.2} {:>6.1}  {}",
                a.workload,
                metric,
                av,
                bv,
                100.0 * worse,
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            regressions += usize::from(v == Verdict::Regression);
        };

        if a.digests.iter().zip(&b.digests).any(|(x, y)| x != y) {
            row(
                "digests",
                f64::NAN,
                f64::NAN,
                f64::NAN,
                0.0,
                Verdict::Regression,
            );
        }
        if a.ops_failed + b.ops_failed > 0 {
            let (af, bf) = (a.ops_failed as f64, b.ops_failed as f64);
            row("ops_failed", af, bf, f64::NAN, 0.0, Verdict::Regression);
        }

        if a.traced {
            // Counts the program makes compare two versions of one program
            // exactly; the traced run's timings are shown by the trace, not
            // judged here.
            for m in a.metrics.iter().filter(|m| m.exact) {
                let bv = value(b, &m.name).unwrap_or(f64::NAN);
                if bv.to_bits() != m.value.to_bits() {
                    row(&m.name, m.value, bv, f64::NAN, 0.0, Verdict::Regression);
                }
            }
            continue;
        }

        for def in end_to_end() {
            let (Some(av), Some(bv)) = (value(a, &def.name), value(b, &def.name)) else {
                return Err(format!("{}: metric {} is missing", a.workload, def.name));
            };
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let worse = match def.better {
                Better::Lower => (bv - av) / av,
                Better::Higher => (av - bv) / av,
            };
            let verdict = if def.exact {
                if av == bv {
                    Verdict::Ok
                } else {
                    Verdict::Regression
                }
            } else if a.unresolved || b.unresolved {
                Verdict::Unresolved
            } else {
                let (qa, qb) = (quartiles(a, &def.name), quartiles(b, &def.name));
                // The day-to-day spread of either side, as a share of its
                // median; wider than the bound, a move inside it cannot be
                // told from noise.
                let spread = [(qa, av), (qb, bv)]
                    .into_iter()
                    .filter_map(|(q, v)| q.map(|(q1, q3)| (q3 - q1) / v))
                    .fold(0.0, f64::max);
                let overlap = match (qa, qb) {
                    (Some((a1, a3)), Some((b1, b3))) => a1 <= b3 && b1 <= a3,
                    _ => false,
                };
                if worse > bound {
                    if overlap {
                        Verdict::Unresolved
                    } else {
                        Verdict::Regression
                    }
                } else if spread > bound {
                    Verdict::Unresolved
                } else {
                    Verdict::Ok
                }
            };
            row(&def.name, av, bv, worse, bound, verdict);
        }
    }
    if pairs == 0 {
        return Err("the two ledgers share no run".to_string());
    }
    println!("{pairs} runs compared, {regressions} regressions");
    Ok(regressions == 0)
}
