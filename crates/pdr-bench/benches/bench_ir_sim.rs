//! Criterion bench behind the `pdr-ir` tentpole: string vs interned
//! interpretation of the gallery executives.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: fewer repetitions/iterations, asserts
//!   report parity on every flow (the gallery plus the generated 10k-op
//!   case), the >= 2x speedup floor on the gallery's largest flow
//!   (`two_regions_xc2v4000`) and the steady-state fast-forward gates
//!   (see [`assert_fast_forward`]);
//! * `--out <path>` — persist the comparison as a `BENCH_ir_sim.json`
//!   artifact through the `pdr-sweep` JSON writer.

use criterion::{black_box, Criterion};
use pdr_bench::alloc_count::{allocations, CountingAlloc};
use pdr_bench::ir_sim;
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::flow::{DesignFlow, FlowArtifacts};
use pdr_core::gallery;
use pdr_server::compute::sim_workload;
use pdr_sim::{IrSimSystem, SimConfig, SimSystem};
use pdr_sweep::artifact::Artifact;
use serde::json::Value;
use std::time::Instant;

/// The flow the speedup floor is asserted on — the gallery's largest.
const LARGEST: &str = "two_regions_xc2v4000";

/// Most heap allocations one steady-state `IrSimSystem::run` of the
/// generated 10k-op case may make. Measured: 51 at both 16 and 256
/// iterations, on a 19-stream, 31 764-instruction executive (per-run
/// tables, the fast-forward snapshot buffers, heap growth, and the
/// string-keyed report).
const RUN_ALLOC_CEILING: u64 = 64;

/// Iterations of the fast-forward gates: 32 blocks of the canonical
/// workload.
const FF_ITERATIONS: u32 = 256;

/// Fewest iterations of every 8 a `sim_workload` run must advance by
/// fast-forward rather than interpret.
const FF_PER_8_FLOOR: u32 = 5;

/// How much faster a fast-forwarded `FF_ITERATIONS`-iteration
/// `sim_workload` run of the generated case must be than the string
/// oracle interpreting every iteration.
const FF_SPEEDUP_FLOOR: f64 = 3.0;

/// Iterations of the every-iteration-switching timing run.
const SWITCHING_ITERATIONS: u32 = 32;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `IrSimSystem::run` of `cfg` on a fresh engine of `dep`: wall time in
/// nanoseconds (engine construction excluded) and the iterations it
/// fast-forwarded.
fn timed_run(
    flow: &DesignFlow,
    art: &FlowArtifacts,
    dep: &DeployedSystem,
    cfg: &SimConfig,
) -> (u64, u32) {
    let mut sys = IrSimSystem::new(flow.architecture(), &art.ir_executive, &art.symbols);
    sys.attach_engine(dep.rtr_engine().expect("engine builds"));
    let t0 = Instant::now();
    black_box(sys.run(cfg).expect("simulation runs"));
    (t0.elapsed().as_nanos() as u64, sys.fast_forwarded())
}

/// The steady-state fast-forward gates, on every dynamic gallery flow
/// and on the generated 10k-op case, all on the paper's baseline
/// runtime. The counts are machine-independent:
///
/// * `sim_workload` at [`FF_ITERATIONS`] iterations advances at least
///   [`FF_PER_8_FLOOR`] of every 8 iterations without interpreting them;
/// * switching every iteration ([`ir_sim::switching_workload`])
///   advances none.
///
/// On the generated case the fast-forwarded run must also be
/// [`FF_SPEEDUP_FLOOR`]x faster than the string oracle, which interprets
/// every iteration. Returns the rows and the timings for the artifact,
/// the every-iteration-switching time per iteration among them.
fn assert_fast_forward(reps: usize) -> Value {
    let mut flows: Vec<(String, DesignFlow)> = gallery::all()
        .into_iter()
        .filter(|g| !sim_workload(&g.flow, 1).selections.is_empty())
        .map(|g| (g.name.to_string(), g.flow))
        .collect();
    flows.push((ir_sim::GENERATED.to_string(), gallery::synthetic_10k()));
    let floor = FF_ITERATIONS / 8 * FF_PER_8_FLOOR;
    let mut rows = Vec::new();
    let mut timings = Vec::new();
    for (name, flow) in &flows {
        let art = flow.run().expect("flow runs");
        let dep = DeployedSystem::new(
            flow.architecture(),
            &art,
            flow.device().clone(),
            RuntimeOptions::paper_baseline(),
        );
        let steady = sim_workload(flow, FF_ITERATIONS);
        let (_, skipped) = timed_run(flow, &art, &dep, &steady);
        let (_, switching_skipped) = timed_run(
            flow,
            &art,
            &dep,
            &ir_sim::switching_workload(flow, FF_ITERATIONS),
        );
        assert!(
            skipped >= floor,
            "{name}: sim_workload({FF_ITERATIONS}) fast-forwarded {skipped} iterations (floor {floor})"
        );
        assert_eq!(
            switching_skipped, 0,
            "{name}: every-iteration switching fast-forwarded"
        );
        println!(
            "ok: {name}: sim_workload({FF_ITERATIONS}) fast-forwards {skipped} iterations \
             (floor {floor}); every-iteration switching fast-forwards none"
        );
        rows.push(Value::obj(vec![
            ("flow", Value::String(name.clone())),
            ("iterations", Value::UInt(u64::from(FF_ITERATIONS))),
            ("fast_forwarded", Value::UInt(u64::from(skipped))),
        ]));
        if name != ir_sim::GENERATED {
            continue;
        }
        let best = |f: &mut dyn FnMut() -> u64| (0..reps.max(1)).map(|_| f()).min().unwrap();
        let fast_ns = best(&mut || timed_run(flow, &art, &dep, &steady).0);
        let string_ns = best(&mut || {
            let mut sys = SimSystem::new(flow.architecture(), &art.executive);
            for (region, mgr) in dep.managers().expect("managers build") {
                sys.add_manager(&region, mgr);
            }
            let t0 = Instant::now();
            black_box(sys.run(&steady).expect("simulation runs"));
            t0.elapsed().as_nanos() as u64
        });
        let switching = ir_sim::switching_workload(flow, SWITCHING_ITERATIONS);
        let switching_ns = best(&mut || timed_run(flow, &art, &dep, &switching).0);
        let per_iteration = switching_ns / u64::from(SWITCHING_ITERATIONS);
        let speedup = string_ns as f64 / fast_ns as f64;
        assert!(
            speedup >= FF_SPEEDUP_FLOOR,
            "{name}: sim_workload({FF_ITERATIONS}) is only {speedup:.2}x faster than the \
             string oracle (floor {FF_SPEEDUP_FLOOR}x)"
        );
        println!(
            "ok: {name}: sim_workload({FF_ITERATIONS}) in {:.3} ms, {speedup:.2}x the string \
             oracle's {:.3} ms (floor {FF_SPEEDUP_FLOOR}x); every-iteration switching \
             {:.3} ms per iteration",
            fast_ns as f64 / 1e6,
            string_ns as f64 / 1e6,
            per_iteration as f64 / 1e6,
        );
        timings.push(("steady_ns", Value::UInt(fast_ns)));
        timings.push(("string_ns", Value::UInt(string_ns)));
        timings.push(("switching_ns_per_iteration", Value::UInt(per_iteration)));
    }
    let mut fields = vec![("rows", Value::Array(rows))];
    fields.extend(timings);
    Value::obj(fields)
}

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
    let fast_forward = assert_fast_forward(reps);

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
        artifact.push_section("fast_forward", fast_forward);
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
