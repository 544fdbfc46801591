//! Every workload at a tiny size, untraced: every end-to-end metric named
//! in `BENCHMARK.json` is printed with its unit, nothing fails on this
//! tree, and a tampered reference digest shows up as a failed operation.

use pdr_perfbench::check::{gallery_key, generated_key, Expected};
use pdr_perfbench::cli::{result_line, TINY_OPS};
use pdr_perfbench::designer::{generated_seed, GENERATED_ITERATIONS, ITERATIONS};
use pdr_perfbench::{run, Options, Outcome, Workload};
use serde::json::{self, Value};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
pub fn declared(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, seed: u64) -> Options {
    let mut o = Options::new(workload, seed, 0.0, false);
    o.setup_reps = 1;
    o.generated_ops = TINY_OPS;
    o
}

/// The result object parses and carries exactly the declared metrics.
fn assert_reports(outcome: &Outcome, list: &str) {
    let line = result_line(outcome);
    let parsed = json::parse(&line).expect("result line is JSON");
    let Some(Value::Object(fields)) = Some(&parsed) else {
        panic!("result line is an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = parsed.get("metrics").unwrap();
    let Value::Object(printed) = metrics else {
        panic!("metrics is an object");
    };
    let declared = declared(list);
    assert_eq!(printed.len(), declared.len(), "{line}");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_fails_nothing() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 3));
        assert_reports(&outcome, "end_to_end");
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{} {} reads {}",
                workload.name(),
                m.name,
                m.value
            );
            assert!(m.samples > 0, "{} {}", workload.name(), m.name);
        }
        assert!(outcome.check.attempted > 0);
        assert_eq!(
            outcome.check.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.check.notes
        );
        assert_eq!(outcome.failed_ratio(), 0.0);
    }
}

#[test]
fn tampered_reference_digests_are_failed_operations() {
    let first_generated = generated_key(TINY_OPS, generated_seed(3, 0), GENERATED_ITERATIONS);
    for (workload, key) in [
        (Workload::GalleryPipeline, gallery_key("paper", ITERATIONS)),
        (Workload::Generated10k, first_generated),
    ] {
        let mut options = tiny(workload, 3);
        let mut expected: Expected = options.expected.clone();
        let r = expected.0.get_mut(&key).expect("reference recorded");
        r.artifacts ^= 1;
        options.expected = expected;
        let outcome = run(&options);
        assert!(outcome.check.failed >= 1, "{key}: tampering went unnoticed");
        assert!(outcome.check.notes.iter().any(|n| n.contains(&key)));
        assert!(result_line(&outcome).starts_with("{\"correct\": false"));
    }
}
