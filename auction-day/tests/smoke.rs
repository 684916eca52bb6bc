//! Every workload at ~1 % size through the real binary, traced and
//! untraced: every metric `BENCHMARK.json` names is present, finite and
//! carries its unit, no op fails, and the digests pass the reference check.
//!
//! `cargo test --manifest-path auction-day/Cargo.toml --offline`

use serde::json::Json;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_auction-day");

fn benchmark_json_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.field(list)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k| m.field(k).unwrap().as_str().unwrap().to_string();
            (
                text("name"),
                m.field("unit").map_or(String::new(), |_| text("unit")),
            )
        })
        .collect()
}

/// Runs the benchmark in a scratch directory and returns its exit status
/// and standard output.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let (ok, described) = bench(&["describe"]);
    assert!(ok);
    assert_eq!(
        described,
        benchmark_json_text(),
        "regenerate with `auction-day describe > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_reports_every_metric() {
    let doc = Json::parse(&benchmark_json_text()).unwrap();
    for (workload, _) in names(&doc, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = bench(&[
                "--workload",
                &workload,
                "--quick",
                "--trace",
                trace,
                "--seed",
                "7",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let line = stdout.lines().last().expect("a result line");
            let result = Json::parse(line).unwrap();
            assert_eq!(result.field("correct").unwrap(), &Json::Bool(true));
            assert_eq!(result.field("failed").unwrap().as_u64().unwrap(), 0);
            assert!(result.field("attempted").unwrap().as_u64().unwrap() >= 1);
            let Json::Obj(metrics) = result.field("metrics").unwrap() else {
                panic!("metrics is an object");
            };
            let expected = names(&doc, list);
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                expected.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                "{workload} --trace {trace}"
            );
            for ((name, value), (_, unit)) in metrics.iter().zip(&expected) {
                let v = value
                    .field("value")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|_| panic!("{workload}: {name} is not a finite number"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                assert_eq!(
                    value.field("unit").unwrap().as_str().unwrap(),
                    unit,
                    "{name}"
                );
                if list == "end_to_end" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn compare_passes_a_ledger_against_itself_and_catches_a_changed_digest() {
    let (ok, stdout) = bench(&[
        "--workload",
        "serve_shared_stateless",
        "--quick",
        "--seed",
        "7",
        "--out",
        "a.json",
    ]);
    assert!(ok, "{stdout}");
    let (ok, stdout) = bench(&["compare", "a.json", "a.json"]);
    assert!(ok, "{stdout}");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let text = std::fs::read_to_string(dir.join("a.json")).unwrap();
    let at = text.find("\"outputs\":").expect("a day digest") + "\"outputs\":".len();
    let mut changed = text.clone();
    let flipped = if &text[at..=at] == "1" { "2" } else { "1" };
    changed.replace_range(at..=at, flipped);
    std::fs::write(dir.join("b.json"), changed).unwrap();
    let (ok, stdout) = bench(&["compare", "a.json", "b.json"]);
    assert!(!ok, "a changed digest must fail the comparison:\n{stdout}");
    assert!(stdout.contains("REGRESSION"));
}
