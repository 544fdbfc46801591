//! Every workload at a tiny size, traced, with the counting allocator
//! installed as in the traced binary: every per-layer metric named in
//! `BENCHMARK.json` is printed with its unit, the staged path reproduces
//! the reference digests, and the machine-independent counters repeat
//! exactly across two runs of one seed.
//!
//! One test function runs everything in sequence: the allocation counter
//! is process-wide, so a concurrently running test would leak its
//! allocations into these spans.

use pdr_perfbench::cli::{result_line, TINY_OPS};
use pdr_perfbench::trace::CountingAlloc;
use pdr_perfbench::{run, Options, Outcome, Workload};
use serde::json::{self, Value};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Counters that depend on timing, not on the inputs.
fn timing_dependent(name: &str) -> bool {
    name.ends_with("_ms") || name.contains("_us_") || name == "server.coalesced"
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let mut o = Options::new(workload, seed, 0.0, true);
    o.setup_reps = 1;
    o.generated_ops = TINY_OPS;
    run(&o)
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counters() {
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let declared: Vec<(&str, &str)> = doc
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap();
            (field("name"), field("unit"))
        })
        .collect();
    for workload in Workload::ALL {
        let a = traced(workload, 5);
        let b = traced(workload, 5);
        for outcome in [&a, &b] {
            assert_eq!(
                outcome.check.failed,
                0,
                "{}: {:?}",
                workload.name(),
                outcome.check.notes
            );
            let names: Vec<(&str, &str)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            assert_eq!(names, declared, "{}", workload.name());
            assert!(json::parse(&result_line(outcome)).is_ok());
        }
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if !timing_dependent(&x.name) {
                assert_eq!(x.value, y.value, "{} {}", workload.name(), x.name);
            }
        }
        // The layers each workload is meant to load show up.
        let get = |name: &str| a.get(name).unwrap().value;
        assert!(get("adequation.executive_allocs") > 0.0);
        assert!(get("codegen.bitstream_bytes") > 0.0);
        assert!(get("sim.iterations") > 0.0);
        match workload {
            Workload::ServerMix => {
                assert!(get("server.executed") > 0.0);
                let hits = get("server.hit_ratio");
                assert!(hits > 0.2 && hits < 0.5, "hit ratio {hits}");
            }
            _ => {
                assert_eq!(get("server.executed"), 0.0);
                assert!(get("lint.model_states") > 0.0);
            }
        }
    }
}
