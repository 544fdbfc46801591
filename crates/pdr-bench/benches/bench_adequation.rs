//! Criterion bench behind the indexed-adequation tentpole: reference
//! (pre-index) vs indexed scheduling of the gallery flows.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: fewer repetitions, asserts exact
//!   result parity on every flow, the >= 5x speedup floor on the
//!   gallery's largest flow (`synthetic_large`), and that the hot
//!   per-probe `Characterization::duration` lookup performs zero heap
//!   allocations;
//! * `--out <path>` — persist the comparison as a
//!   `BENCH_adequation.json` artifact through the `pdr-sweep` JSON
//!   writer.

use criterion::Criterion;
use pdr_adequation::adequate;
use pdr_bench::adequation_perf::{self, LARGEST};
use pdr_bench::alloc_count::{allocations, CountingAlloc};
use pdr_bench::reference::adequate_reference;
use pdr_core::gallery;
use pdr_sweep::artifact::Artifact;
use serde::json::Value;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Assert that `Characterization::duration` allocates nothing per probe:
/// the satellite fix replaced the `format!`-keyed map with a two-level
/// map probed by borrowed `&str`s. Probes cover every (function,
/// operator) pair of the paper flow, repeated enough to catch even a
/// single stray allocation.
fn assert_duration_probes_are_allocation_free() {
    let g = gallery::by_name("paper").expect("paper flow in gallery");
    let chars = g.flow.characterization();
    let probes: Vec<(String, String)> = g
        .flow
        .algorithm()
        .ops()
        .flat_map(|(_, op)| op.kind.functions().to_vec())
        .flat_map(|f| {
            g.flow
                .architecture()
                .operators()
                .map(move |(_, opr)| (f.clone(), opr.name.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!probes.is_empty());
    // Reconfiguration probes only where a cost is defined: the error arm
    // of `reconfig_time` renders a diagnostic and is allowed to allocate.
    let reconfig_probes: Vec<&(String, String)> = probes
        .iter()
        .filter(|(f, opr)| chars.reconfig_time(f, opr).is_ok())
        .collect();
    assert!(!reconfig_probes.is_empty());

    let mut acc = 0u64;
    let before = allocations();
    for _ in 0..1_000 {
        for (f, opr) in &probes {
            if let Some(d) = chars.duration(f, opr) {
                acc = acc.wrapping_add(d.as_ps());
            }
        }
        for (f, opr) in &reconfig_probes {
            if let Ok(r) = chars.reconfig_time(f, opr) {
                acc = acc.wrapping_add(r.as_ps());
            }
        }
    }
    let delta = allocations() - before;
    black_box(acc);
    assert_eq!(
        delta,
        0,
        "duration/reconfig_time probes allocated {delta} times over \
         {} probe pairs x 1000 reps (must be allocation-free)",
        probes.len()
    );
    println!(
        "ok: {} duration probe pairs x 1000 reps, 0 heap allocations",
        probes.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    assert_duration_probes_are_allocation_free();

    let reps = if test_mode { 3 } else { 5 };
    let cmp = adequation_perf::run(reps).expect("gallery flows schedule");
    print!("{}", cmp.render());
    assert!(
        cmp.all_match(),
        "reference and indexed schedulers disagree on a gallery flow"
    );

    let largest = cmp.case(LARGEST).expect("largest gallery flow present");
    if test_mode {
        assert!(
            largest.speedup() >= 5.0,
            "indexed scheduler is only {:.2}x faster than the reference \
             path on {LARGEST} (floor: 5x)",
            largest.speedup()
        );
        println!(
            "ok: {LARGEST} indexed speedup {:.2}x (floor 5x)",
            largest.speedup()
        );
    }

    if let Some(path) = &out {
        let mut artifact = Artifact::new("adequation_perf")
            .with_field(
                "mode",
                Value::String(if test_mode { "test" } else { "full" }.into()),
            )
            .with_field("reps", Value::UInt(reps as u64));
        artifact.push_section("comparison", cmp.to_json());
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display on the largest flow: indexed vs
        // reference scheduling, the numbers behind the speedup column.
        let g = gallery::by_name(LARGEST).expect("gallery flow");
        let (algo, arch, chars) = (
            g.flow.algorithm(),
            g.flow.architecture(),
            g.flow.characterization(),
        );
        let (cons, opts) = (g.flow.constraints(), g.flow.adequation_options());
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("adequation");
        group.sample_size(10);
        group.bench_function(format!("indexed/{LARGEST}"), |b| {
            b.iter(|| black_box(adequate(algo, arch, chars, cons, opts).expect("maps")))
        });
        group.bench_function(format!("reference/{LARGEST}"), |b| {
            b.iter(|| black_box(adequate_reference(algo, arch, chars, cons, opts).expect("maps")))
        });
        group.finish();
    }
}
