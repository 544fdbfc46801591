//! Criterion bench behind the `pdr-ir` tentpole: string vs interned
//! interpretation of the gallery executives.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: fewer repetitions/iterations, asserts
//!   report parity on every flow (the gallery plus the generated 10k-op
//!   case) and the >= 2x speedup floor on the gallery's largest flow
//!   (`two_regions_xc2v4000`);
//! * `--out <path>` — persist the comparison as a `BENCH_ir_sim.json`
//!   artifact through the `pdr-sweep` JSON writer.

use criterion::{black_box, Criterion};
use pdr_bench::alloc_count::{allocations, CountingAlloc};
use pdr_bench::ir_sim;
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::gallery;
use pdr_sim::{IrSimSystem, SimSystem};
use pdr_sweep::artifact::Artifact;
use serde::json::Value;

/// The flow the speedup floor is asserted on — the gallery's largest.
const LARGEST: &str = "two_regions_xc2v4000";

/// Most heap allocations one steady-state `IrSimSystem::run` of the
/// generated 10k-op case may make. Measured: 47 at both 16 and 256
/// iterations, on a 19-stream, 31 764-instruction executive (per-run
/// tables, heap growth, and the string-keyed report).
const RUN_ALLOC_CEILING: u64 = 64;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Assert that `IrSimSystem::run` allocates O(streams + tags), not
/// O(events): on the generated 10k-op case, as `DeployedSystem::simulate`
/// runs it (one `RtrEngine` serving every region), the steady workload
/// allocates the same count at 16 and at 256 iterations, under
/// [`RUN_ALLOC_CEILING`]. Engine construction happens outside the count.
fn assert_run_allocations_are_independent_of_iterations() {
    let flow = gallery::synthetic_10k();
    let art = flow.run().expect("generated flow runs");
    let dep = DeployedSystem::new(
        flow.architecture(),
        &art,
        flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    );
    let count = |iterations: u32| {
        let mut sys = IrSimSystem::new(flow.architecture(), &art.ir_executive, &art.symbols);
        sys.attach_engine(dep.rtr_engine().expect("engine builds"));
        let cfg = ir_sim::steady_workload(iterations);
        let before = allocations();
        let report = sys.run(&cfg).expect("simulation runs");
        let n = allocations() - before;
        black_box(report);
        n
    };
    let (short, long) = (count(16), count(256));
    assert_eq!(
        short, long,
        "IrSimSystem::run allocated {short} times at 16 iterations but {long} at 256"
    );
    assert!(
        long <= RUN_ALLOC_CEILING,
        "IrSimSystem::run allocated {long} times (ceiling {RUN_ALLOC_CEILING})"
    );
    println!(
        "ok: {}: IrSimSystem::run makes {long} heap allocations at 16 and at 256 \
         iterations (ceiling {RUN_ALLOC_CEILING})",
        ir_sim::GENERATED
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    let (reps, iterations) = if test_mode { (3, 2048) } else { (5, 8192) };
    let cmp = ir_sim::run(reps, iterations).expect("gallery flows deploy");
    print!("{}", cmp.render());
    assert!(
        cmp.all_match(),
        "string and interned interpreters disagree on a gallery flow"
    );

    assert_run_allocations_are_independent_of_iterations();

    let largest = cmp.case(LARGEST).expect("largest gallery flow present");
    if test_mode {
        assert!(
            largest.speedup() >= 2.0,
            "interned interpreter is only {:.2}x faster than the string \
             interpreter on {LARGEST} (floor: 2x)",
            largest.speedup()
        );
        println!(
            "ok: {LARGEST} interned speedup {:.2}x (floor 2x)",
            largest.speedup()
        );
    }

    if let Some(path) = &out {
        let mut artifact = Artifact::new("ir_sim")
            .with_field(
                "mode",
                Value::String(if test_mode { "test" } else { "full" }.into()),
            )
            .with_field("reps", Value::UInt(reps as u64))
            .with_field("iterations", Value::UInt(u64::from(iterations)));
        artifact.push_section("comparison", cmp.to_json());
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display on the largest flow: pure interpretation
        // (no managers attached, steady workload), so the two series isolate
        // the interpreter difference the study is about.
        let g = gallery::by_name(LARGEST).expect("gallery flow");
        let art = g.flow.run().expect("flow runs");
        let arch = g.flow.architecture();
        let cfg = ir_sim::steady_workload(iterations);
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("ir_sim");
        group.sample_size(10);
        group.bench_function(format!("string/{LARGEST}"), |b| {
            b.iter(|| {
                let mut sys = SimSystem::new(arch, &art.executive);
                black_box(sys.run(&cfg).expect("simulation runs"))
            })
        });
        group.bench_function(format!("interned/{LARGEST}"), |b| {
            b.iter(|| {
                let mut sys = IrSimSystem::new(arch, &art.ir_executive, &art.symbols);
                black_box(sys.run(&cfg).expect("simulation runs"))
            })
        });
        group.finish();
    }
}
