//! Criterion bench behind the scale-out adequation tentpole: parallel
//! index construction plus the overhauled scheduler core, proven on the
//! generated 10k-operation flow.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: asserts parallel-vs-sequential index
//!   byte-parity and thread-count-invariant digests on every gallery and
//!   generated flow, the ≥ 3× index-build speedup floor at 4 threads and
//!   the ≥ 2× end-to-end model→adequation speedup floor on the
//!   10k-operation flow (both against the retained first-generation
//!   path), and that the warm scheduler core performs zero steady-state
//!   heap allocations. In every mode it also asserts that one
//!   `generate_executive` on that flow stays under
//!   [`EXECUTIVE_ALLOCS_PER_INSTR_CEILING`] heap allocations per
//!   generated instruction, and that one `model::check` of its
//!   executive stays under [`MODEL_CHECK_ALLOCS_CEILING`] heap
//!   allocations;
//! * `--out <path>` — persist the study as a `BENCH_scale.json` artifact
//!   through the `pdr-sweep` JSON writer.

use criterion::Criterion;
use pdr_adequation::executive::{generate_executive, Executive};
use pdr_adequation::{
    adequate, adequate_with_index, evaluate_makespan, AdequationIndex, EvalWorkspace, IndexOptions,
};
use pdr_bench::scale::{self, BUILD_SPEEDUP_FLOOR, E2E_SPEEDUP_FLOOR, FLOOR_CASE};
use pdr_core::{gallery, DesignFlow};
use pdr_lint::model::{self, ModelInput};
use pdr_lint::{rendezvous, ModelConfig};
use pdr_sweep::artifact::Artifact;
use serde::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation counter wrapping the system allocator, so the bench can
/// assert that the warm scheduler core stays allocation-free.
struct CountingAlloc;

/// Heap allocations observed since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Assert that [`evaluate_makespan`] over a warm [`EvalWorkspace`] is
/// allocation-free in steady state: one warm-up call sizes every dense
/// buffer, then repeated evaluations of the 10k-operation flow must not
/// touch the heap at all. This is what makes the core usable as the inner
/// oracle of outer search loops (annealing, design-space sweeps).
fn assert_scheduler_steady_state_is_allocation_free() {
    let flow = gallery::synthetic_10k();
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    let (cons, opts) = (flow.constraints(), flow.adequation_options());
    let index = AdequationIndex::build(algo, arch, chars).expect("index builds");
    let mut ws = EvalWorkspace::new();
    let reference = evaluate_makespan(algo, arch, cons, opts, &index, &mut ws).expect("schedules");

    let mut acc = 0u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        let makespan =
            evaluate_makespan(algo, arch, cons, opts, &index, &mut ws).expect("schedules");
        assert_eq!(makespan, reference);
        acc = acc.wrapping_add(makespan.as_ps());
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    black_box(acc);
    assert_eq!(
        delta, 0,
        "warm evaluate_makespan allocated {delta} times over 10 reps of the \
         10k-operation flow (steady state must be allocation-free)"
    );
    println!("ok: warm evaluate_makespan x10 on synthetic_10k, 0 heap allocations");
}

/// Heap allocations per generated instruction allowed in one
/// `generate_executive` on the 10k-operation flow. The names each
/// macro-instruction owns cost about two; a per-edge route search or a
/// cloned route per edge pushes the count far past the ceiling, on any
/// host.
const EXECUTIVE_ALLOCS_PER_INSTR_CEILING: f64 = 2.5;

/// Assert the executive-generation allocation ceiling on [`FLOOR_CASE`]
/// and time the generator: best of `reps`. Returns the artifact section
/// and the executive.
fn probe_executive_generation(flow: &DesignFlow, reps: usize) -> (Value, Executive) {
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    let r = adequate(
        algo,
        arch,
        chars,
        flow.constraints(),
        flow.adequation_options(),
    )
    .expect("schedules");
    let generate = || {
        generate_executive(algo, arch, chars, &r.mapping, &r.schedule).expect("executive builds")
    };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let executive = generate();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let instructions = executive.len();
    let per_instr = allocations as f64 / instructions as f64;
    assert!(
        per_instr <= EXECUTIVE_ALLOCS_PER_INSTR_CEILING,
        "generate_executive made {allocations} heap allocations for {instructions} \
         instructions on {FLOOR_CASE} ({per_instr:.2} per instruction, ceiling \
         {EXECUTIVE_ALLOCS_PER_INSTR_CEILING})"
    );

    let mut best_ns = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(generate());
        best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
    }
    println!(
        "ok: generate_executive on {FLOOR_CASE}: {instructions} instructions, \
         {allocations} heap allocations ({per_instr:.2} per instruction, ceiling \
         {EXECUTIVE_ALLOCS_PER_INSTR_CEILING}), best of {reps} {:.3} ms",
        best_ns as f64 / 1e6
    );
    let section = Value::obj(vec![
        ("flow", Value::String(FLOOR_CASE.into())),
        ("instructions", Value::UInt(instructions as u64)),
        ("allocations", Value::UInt(allocations)),
        ("allocs_per_instruction", Value::Float(per_instr)),
        (
            "allocs_per_instruction_ceiling",
            Value::Float(EXECUTIVE_ALLOCS_PER_INSTR_CEILING),
        ),
        ("best_ns", Value::UInt(best_ns)),
    ]);
    (section, executive)
}

/// Heap allocations one `model::check` of the [`FLOOR_CASE`] executive
/// may make. Its state arena, probe table and node list grow
/// geometrically and the rest is per-check setup, so the count stays
/// near a hundred whatever the state count; an allocation per visited
/// state (tens of thousands of states) fails on any host.
const MODEL_CHECK_ALLOCS_CEILING: u64 = 256;

/// Assert the model-checker allocation ceiling on the [`FLOOR_CASE`]
/// executive, and time the model checker and the rendezvous pass: best
/// of `reps` each. Returns the artifact section.
fn probe_verify(flow: &DesignFlow, executive: &Executive, reps: usize) -> Value {
    let mut table = Default::default();
    let ir = executive.lower(&mut table);
    let rv = rendezvous::check(&ir, &table);
    assert!(rv.diagnostics.is_empty(), "{:?}", rv.diagnostics);
    let input = ModelInput {
        ir: &ir,
        table: &table,
        pairs: &rv.pairs,
        constraints: Some(flow.constraints()),
    };
    let config = ModelConfig::default();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = model::check(&input, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        outcome.diagnostics.is_empty(),
        "{FLOOR_CASE} does not model-check clean: {:?}",
        outcome.diagnostics
    );
    assert!(
        allocations <= MODEL_CHECK_ALLOCS_CEILING,
        "model::check made {allocations} heap allocations on {FLOOR_CASE} \
         ({} states; ceiling {MODEL_CHECK_ALLOCS_CEILING})",
        outcome.stats.states
    );

    let best_of = |f: &dyn Fn()| {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    };
    let model_ns = best_of(&|| {
        black_box(model::check(&input, &config));
    });
    let rendezvous_ns = best_of(&|| {
        black_box(rendezvous::check(&ir, &table));
    });
    let stats = outcome.stats;
    println!(
        "ok: model::check on {FLOOR_CASE}: {} states, {} transitions, {allocations} \
         heap allocations (ceiling {MODEL_CHECK_ALLOCS_CEILING}), best of {reps} {:.3} ms; \
         rendezvous::check best of {reps} {:.3} ms",
        stats.states,
        stats.transitions,
        model_ns as f64 / 1e6,
        rendezvous_ns as f64 / 1e6
    );
    Value::obj(vec![
        ("flow", Value::String(FLOOR_CASE.into())),
        ("states", Value::UInt(stats.states)),
        ("transitions", Value::UInt(stats.transitions)),
        ("model_check_allocations", Value::UInt(allocations)),
        (
            "model_check_allocations_ceiling",
            Value::UInt(MODEL_CHECK_ALLOCS_CEILING),
        ),
        ("model_check_best_ns", Value::UInt(model_ns)),
        ("rendezvous_best_ns", Value::UInt(rendezvous_ns)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    assert_scheduler_steady_state_is_allocation_free();

    let reps = if test_mode { 3 } else { 5 };
    let floor_flow = gallery::synthetic(&gallery::SyntheticParams::sized(10_000));
    let (executive, floor_executive) = probe_executive_generation(&floor_flow, reps);
    let verify = probe_verify(&floor_flow, &floor_executive, reps);
    let threads = 4;
    let study = scale::run(reps, threads).expect("flows schedule");
    print!("{}", study.render());
    assert!(
        study.all_parity(),
        "parallel build or overhauled core diverged from the sequential \
         reference on a flow"
    );
    assert!(
        study.all_digests_invariant(),
        "index digest varies with thread count on a flow"
    );

    let floor = study.case(FLOOR_CASE).expect("floor flow present");
    if test_mode {
        assert!(
            floor.build_speedup() >= BUILD_SPEEDUP_FLOOR,
            "parallel index build is only {:.2}x faster than sequential on \
             {FLOOR_CASE} at {threads} threads (floor: {BUILD_SPEEDUP_FLOOR}x)",
            floor.build_speedup()
        );
        assert!(
            floor.e2e_speedup() >= E2E_SPEEDUP_FLOOR,
            "scale-out end-to-end path is only {:.2}x faster than the \
             first-generation path on {FLOOR_CASE} (floor: {E2E_SPEEDUP_FLOOR}x)",
            floor.e2e_speedup()
        );
        println!(
            "ok: {FLOOR_CASE} build speedup {:.2}x (floor {BUILD_SPEEDUP_FLOOR}x), \
             e2e speedup {:.2}x (floor {E2E_SPEEDUP_FLOOR}x)",
            floor.build_speedup(),
            floor.e2e_speedup()
        );
    }

    if let Some(path) = &out {
        let mut artifact = Artifact::new("scale")
            .with_field(
                "mode",
                Value::String(if test_mode { "test" } else { "full" }.into()),
            )
            .with_field("reps", Value::UInt(reps as u64))
            .with_field("threads", Value::UInt(threads as u64));
        artifact.push_section("study", study.to_json());
        artifact.push_section("executive", executive);
        artifact.push_section("verify", verify);
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display on the floor flow: sequential vs
        // parallel index builds, the numbers behind the speedup column.
        let flow = gallery::synthetic_10k();
        let (algo, arch, chars) = (
            flow.algorithm(),
            flow.architecture(),
            flow.characterization(),
        );
        let (cons, opts) = (flow.constraints(), flow.adequation_options());
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("scale");
        group.sample_size(10);
        group.bench_function("index_build/sequential", |b| {
            b.iter(|| black_box(AdequationIndex::build(algo, arch, chars).expect("builds")))
        });
        group.bench_function(format!("index_build/parallel_{threads}"), |b| {
            b.iter(|| {
                black_box(
                    AdequationIndex::build_with(algo, arch, chars, &IndexOptions { threads })
                        .expect("builds"),
                )
            })
        });
        let index = AdequationIndex::build(algo, arch, chars).expect("builds");
        group.bench_function("schedule/overhauled_core", |b| {
            b.iter(|| {
                black_box(adequate_with_index(algo, arch, chars, cons, opts, &index).expect("maps"))
            })
        });
        group.finish();
    }
}
