//! Criterion bench behind the scale-out adequation study: the interned
//! index build plus the overhauled scheduler core, proven on the
//! generated 10k-operation flow.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: asserts that the index equals the
//!   per-cell string-probe oracle's tables on every gallery and generated
//!   flow, the ≥ 3× index-build speedup floor (one thread, against that
//!   oracle) and the ≥ 2× end-to-end model→adequation speedup floor on
//!   the 10k-operation flow (against the retained first-generation path),
//!   and that the warm scheduler core performs zero steady-state heap
//!   allocations. In every mode it also asserts that one
//!   `generate_executive` on that flow stays under
//!   [`EXECUTIVE_ALLOCS_PER_INSTR_CEILING`] heap allocations per
//!   generated instruction; that the production path,
//!   `generate_executive_ir`, allocates no more than `generate_executive`
//!   plus the symbol-table seeding plus [`IR_ALLOCS_PER_STREAM`] per
//!   stream (so emitting the IR allocates nothing per instruction); and
//!   that one `model::check` of the generated 2048- and 10000-operation
//!   flows' executives stays under one ceiling for both,
//!   [`MODEL_CHECK_ALLOCS_CEILING`] heap allocations; and that one
//!   `generate_design` of it stays under [`DESIGN_ALLOCS_CEILING`]; and
//!   that one `adequate_with_index` of the generated 2048- and
//!   10000-operation flows stays under one ceiling, the same for both:
//!   [`ADEQUATE_ALLOCS_PER_RESOURCE`] per operator and medium plus
//!   [`ADEQUATE_ALLOCS_FIXED`];
//! * `--out <path>` — persist the study as a `BENCH_scale.json` artifact
//!   through the `pdr-sweep` JSON writer.

use criterion::Criterion;
use pdr_adequation::executive::{generate_executive, generate_executive_ir, Executive};
use pdr_adequation::{
    adequate, adequate_with_index, evaluate_makespan, AdequationIndex, EvalWorkspace,
};
use pdr_bench::alloc_count::{allocations, CountingAlloc};
use pdr_bench::scale::{self, BUILD_SPEEDUP_FLOOR, E2E_SPEEDUP_FLOOR, FLOOR_CASE};
use pdr_codegen::{generate_design, CostModel};
use pdr_core::{gallery, DesignFlow};
use pdr_lint::model::{self, ModelInput};
use pdr_lint::{rendezvous, ModelConfig};
use pdr_sweep::artifact::Artifact;
use serde::json::Value;
use std::hint::black_box;
use std::time::Instant;

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
    let before = allocations();
    for _ in 0..10 {
        let makespan =
            evaluate_makespan(algo, arch, cons, opts, &index, &mut ws).expect("schedules");
        assert_eq!(makespan, reference);
        acc = acc.wrapping_add(makespan.as_ps());
    }
    let delta = allocations() - before;
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

/// Heap allocations per instruction stream `generate_executive_ir` may
/// make beyond `generate_executive` and the seeding of its symbol table:
/// the lowered executive's few arrays, grown by doubling, and the
/// builder's dense ref tables. A per-instruction allocation (an interned
/// or cloned name per instruction) exceeds it by orders of magnitude.
const IR_ALLOCS_PER_STREAM: u64 = 4;

/// Best wall time of `f` over `reps` calls, in nanoseconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// Assert the executive-generation allocation ceilings on [`FLOOR_CASE`]
/// — the string generator's per instruction, the one-pass production
/// path's against it — and time both generators: best of `reps`.
/// Returns the artifact section and the executive.
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

    let before = allocations();
    let executive = generate();
    let executive_allocs = allocations() - before;
    let instructions = executive.len();
    let per_instr = executive_allocs as f64 / instructions as f64;
    assert!(
        per_instr <= EXECUTIVE_ALLOCS_PER_INSTR_CEILING,
        "generate_executive made {executive_allocs} heap allocations for {instructions} \
         instructions on {FLOOR_CASE} ({per_instr:.2} per instruction, ceiling \
         {EXECUTIVE_ALLOCS_PER_INSTR_CEILING})"
    );

    let best_ns = best_of(reps, generate);
    println!(
        "ok: generate_executive on {FLOOR_CASE}: {instructions} instructions, \
         {executive_allocs} heap allocations ({per_instr:.2} per instruction, ceiling \
         {EXECUTIVE_ALLOCS_PER_INSTR_CEILING}), best of {reps} {:.3} ms",
        best_ns as f64 / 1e6
    );

    // The production path: the same executive plus its IR and table.
    let one_pass = || {
        generate_executive_ir(algo, arch, chars, &r.mapping, &r.schedule).expect("executive builds")
    };
    let before = allocations();
    let seeded = {
        let mut table = arch.symbols().clone();
        table.absorb(algo.symbols());
        table
    };
    let seed_allocations = allocations() - before;
    drop(seeded);
    let before = allocations();
    let (_, ir, _) = one_pass();
    let one_pass_allocations = allocations() - before;
    let streams = ir.operator_count() as u64;
    let one_pass_ceiling = executive_allocs + seed_allocations + IR_ALLOCS_PER_STREAM * streams;
    assert!(
        one_pass_allocations <= one_pass_ceiling,
        "generate_executive_ir made {one_pass_allocations} heap allocations on \
         {FLOOR_CASE}: more than generate_executive ({executive_allocs}) + table seeding \
         ({seed_allocations}) + {IR_ALLOCS_PER_STREAM} per stream ({streams} streams)"
    );
    let one_pass_ns = best_of(reps, one_pass);
    println!(
        "ok: generate_executive_ir on {FLOOR_CASE}: {one_pass_allocations} heap \
         allocations (ceiling {one_pass_ceiling}: generate_executive + {seed_allocations} \
         seeding + {IR_ALLOCS_PER_STREAM} x {streams} streams), best of {reps} {:.3} ms",
        one_pass_ns as f64 / 1e6
    );
    let section = Value::obj(vec![
        ("flow", Value::String(FLOOR_CASE.into())),
        ("instructions", Value::UInt(instructions as u64)),
        ("allocations", Value::UInt(executive_allocs)),
        ("allocs_per_instruction", Value::Float(per_instr)),
        (
            "allocs_per_instruction_ceiling",
            Value::Float(EXECUTIVE_ALLOCS_PER_INSTR_CEILING),
        ),
        ("best_ns", Value::UInt(best_ns)),
        ("streams", Value::UInt(streams)),
        ("seed_allocations", Value::UInt(seed_allocations)),
        ("one_pass_allocations", Value::UInt(one_pass_allocations)),
        (
            "one_pass_allocations_ceiling",
            Value::UInt(one_pass_ceiling),
        ),
        ("one_pass_best_ns", Value::UInt(one_pass_ns)),
    ]);
    (section, executive)
}

/// Heap allocations one `model::check` of a generated flow's executive
/// may make, whatever its size. The checker walks these flows' single
/// path in place; its node list and the hand-off search's arena and
/// probe table grow geometrically and the rest is per-check setup, so
/// the count stays well under a hundred; an allocation per visited state
/// (thousands of states) fails on any host.
const MODEL_CHECK_ALLOCS_CEILING: u64 = 256;

/// Assert the model-checker allocation ceiling on the generated 2048-
/// and 10000-operation flows, checked as `DesignFlow::verify` checks
/// them, and time the model checker and the rendezvous pass on each:
/// best of `reps`. Returns the artifact section.
fn probe_verify(reps: usize) -> Value {
    let mut rows = Vec::new();
    for ops in [2048, 10_000] {
        let flow = gallery::synthetic(&gallery::SyntheticParams::sized(ops));
        let case = format!("synthetic_gen_{ops}");
        let art = flow.run().expect("generated flow runs");
        let (ir, table) = (&art.ir_executive, &art.symbols);
        let rv = rendezvous::check(ir, table);
        assert!(rv.diagnostics.is_empty(), "{:?}", rv.diagnostics);
        let input = ModelInput {
            ir,
            table,
            pairs: &rv.pairs,
            constraints: Some(flow.constraints()),
        };
        let config = ModelConfig::default();

        let before = allocations();
        let outcome = model::check(&input, &config);
        let allocations = allocations() - before;
        assert!(
            outcome.diagnostics.is_empty(),
            "{case} does not model-check clean: {:?}",
            outcome.diagnostics
        );
        let stats = outcome.stats;
        assert!(
            allocations <= MODEL_CHECK_ALLOCS_CEILING,
            "model::check made {allocations} heap allocations on {case} \
             ({} states; ceiling {MODEL_CHECK_ALLOCS_CEILING})",
            stats.states
        );

        let model_ns = best_of(reps, || model::check(&input, &config));
        let rendezvous_ns = best_of(reps, || rendezvous::check(ir, table));
        println!(
            "ok: model::check on {case}: {} states, {} transitions, {allocations} \
             heap allocations (ceiling {MODEL_CHECK_ALLOCS_CEILING}), best of {reps} {:.3} ms; \
             rendezvous::check best of {reps} {:.3} ms",
            stats.states,
            stats.transitions,
            model_ns as f64 / 1e6,
            rendezvous_ns as f64 / 1e6
        );
        rows.push(Value::obj(vec![
            ("flow", Value::String(case)),
            ("states", Value::UInt(stats.states)),
            ("transitions", Value::UInt(stats.transitions)),
            ("model_check_allocations", Value::UInt(allocations)),
            (
                "model_check_allocations_ceiling",
                Value::UInt(MODEL_CHECK_ALLOCS_CEILING),
            ),
            ("model_check_best_ns", Value::UInt(model_ns)),
            ("rendezvous_best_ns", Value::UInt(rendezvous_ns)),
        ]));
    }
    Value::Array(rows)
}

/// Heap allocations one `generate_design` of the [`FLOOR_CASE`] flow may
/// make: the count measured while the mapping was still a B-tree (351). The
/// design holds one static entity and eight dynamic modules, so the count
/// is per entity, module and floorplan table; an allocation per operation
/// (ten thousand of them) fails on any host.
const DESIGN_ALLOCS_CEILING: u64 = 351;

/// Assert the design-generation allocation ceiling on the [`FLOOR_CASE`]
/// flow and time `generate_design`: best of `reps`. Returns the artifact
/// section.
fn probe_design(flow: &DesignFlow, executive: &Executive, reps: usize) -> Value {
    let (algo, arch, chars, cons) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
        flow.constraints(),
    );
    let r = adequate(algo, arch, chars, cons, flow.adequation_options()).expect("schedules");
    // Every gallery and generated flow uses the default cost model.
    let cost = CostModel::default();
    let generate = || {
        generate_design(
            algo,
            arch,
            chars,
            cons,
            &r.mapping,
            executive,
            flow.device(),
            &cost,
        )
        .expect("design generates")
    };

    let before = allocations();
    black_box(generate());
    let allocations = allocations() - before;
    assert!(
        allocations <= DESIGN_ALLOCS_CEILING,
        "generate_design made {allocations} heap allocations on {FLOOR_CASE} \
         (ceiling {DESIGN_ALLOCS_CEILING})"
    );
    let best_ns = best_of(reps, generate);
    println!(
        "ok: generate_design on {FLOOR_CASE}: {allocations} heap allocations \
         (ceiling {DESIGN_ALLOCS_CEILING}), best of {reps} {:.3} ms",
        best_ns as f64 / 1e6
    );
    Value::obj(vec![
        ("flow", Value::String(FLOOR_CASE.into())),
        ("allocations", Value::UInt(allocations)),
        ("allocations_ceiling", Value::UInt(DESIGN_ALLOCS_CEILING)),
        ("best_ns", Value::UInt(best_ns)),
    ])
}

/// Heap allocations one `adequate_with_index` may make per operator and
/// per medium: the growth of that resource's item vector (doubling, so
/// about log2 of its item count), its validation label and its share of
/// the schedule's B-tree.
const ADEQUATE_ALLOCS_PER_RESOURCE: u64 = 16;

/// Heap allocations one `adequate_with_index` may make besides those per
/// resource: input validation, the scheduler workspace (whose dense
/// vectors become the mapping and the finish times) and the mapping
/// check's verdict table.
const ADEQUATE_ALLOCS_FIXED: u64 = 64;

/// Assert the adequation allocation ceiling on the generated 2048- and
/// 10000-operation flows. Both share one architecture, so the ceiling
/// is the same number for both; an allocation per scheduled item
/// (thousands of them) fails it on any host. Returns the artifact
/// section.
fn probe_adequation_allocations() -> Value {
    let mut ceilings = Vec::new();
    let mut rows = Vec::new();
    for ops in [2048, 10_000] {
        let flow = gallery::synthetic(&gallery::SyntheticParams::sized(ops));
        let (algo, arch, chars) = (
            flow.algorithm(),
            flow.architecture(),
            flow.characterization(),
        );
        let (cons, opts) = (flow.constraints(), flow.adequation_options());
        let index = AdequationIndex::build(algo, arch, chars).expect("index builds");
        let adequate = || adequate_with_index(algo, arch, chars, cons, opts, &index);
        black_box(adequate().expect("schedules"));
        let before = allocations();
        let result = adequate().expect("schedules");
        let allocations = allocations() - before;
        let items: usize = result
            .schedule
            .operator_items
            .values()
            .chain(result.schedule.medium_items.values())
            .map(Vec::len)
            .sum();
        let resources = (arch.operator_count() + arch.medium_count()) as u64;
        let ceiling = ADEQUATE_ALLOCS_PER_RESOURCE * resources + ADEQUATE_ALLOCS_FIXED;
        let case = format!("synthetic_gen_{ops}");
        assert!(
            allocations <= ceiling,
            "adequate_with_index made {allocations} heap allocations on {case} \
             ({items} scheduled items; ceiling {ceiling}: {ADEQUATE_ALLOCS_PER_RESOURCE} x \
             {resources} operators and media + {ADEQUATE_ALLOCS_FIXED})"
        );
        println!(
            "ok: adequate_with_index on {case}: {items} scheduled items, {allocations} heap \
             allocations (ceiling {ceiling}: {ADEQUATE_ALLOCS_PER_RESOURCE} x {resources} \
             operators and media + {ADEQUATE_ALLOCS_FIXED})"
        );
        ceilings.push(ceiling);
        rows.push(Value::obj(vec![
            ("flow", Value::String(case)),
            ("scheduled_items", Value::UInt(items as u64)),
            ("allocations", Value::UInt(allocations)),
            ("allocations_ceiling", Value::UInt(ceiling)),
        ]));
    }
    assert_eq!(
        ceilings[0], ceilings[1],
        "the adequation ceiling must not depend on the operation count"
    );
    Value::Array(rows)
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
    let verify = probe_verify(reps);
    let design = probe_design(&floor_flow, &floor_executive, reps);
    let adequation = probe_adequation_allocations();
    let study = scale::run(reps).expect("flows schedule");
    print!("{}", study.render());
    assert!(
        study.all_parity(),
        "index build or overhauled core diverged from its oracle on a flow"
    );

    let floor = study.case(FLOOR_CASE).expect("floor flow present");
    if test_mode {
        assert!(
            floor.build_speedup() >= BUILD_SPEEDUP_FLOOR,
            "index build is only {:.2}x faster than the per-cell oracle on \
             {FLOOR_CASE} (floor: {BUILD_SPEEDUP_FLOOR}x)",
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
            .with_field("reps", Value::UInt(reps as u64));
        artifact.push_section("study", study.to_json());
        artifact.push_section("executive", executive);
        artifact.push_section("verify", verify);
        artifact.push_section("design", design);
        artifact.push_section("adequation", adequation);
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display on the floor flow: the index build and
        // the overhauled scheduler core.
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
        group.bench_function("index_build", |b| {
            b.iter(|| black_box(AdequationIndex::build(algo, arch, chars).expect("builds")))
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
