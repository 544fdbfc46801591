//! Criterion bench behind the `pdr-rtr` engine tentpole: reference
//! per-region managers vs the indexed [`RtrEngine`].
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: asserts byte-identical `SimReport`s
//!   on every gallery flow under every parity option set, identical
//!   direct-replay `RequestTiming`s/`ManagerStats`, the >= 5x throughput
//!   floor over the reference replay, the >= 1M req/s absolute engine
//!   floor, that the steady-state request path performs zero heap
//!   allocations, and that building the engine of the generated 10k flow
//!   makes at least one heap allocation per module fewer than
//!   [`ENGINE_BUILD_ALLOCS_VIA_IMAGE`];
//! * `--out <path>` — persist the study as a `BENCH_rtr.json` artifact
//!   through the `pdr-sweep` JSON writer.

use criterion::{black_box, Criterion};
use pdr_bench::alloc_count::{allocations, CountingAlloc};
use pdr_bench::rtr_study;
use pdr_core::gallery::{self, SyntheticParams};
use pdr_core::{DeployedSystem, RuntimeOptions};
use pdr_sweep::artifact::{outcome_digest, Artifact};
use pdr_sweep::SweepEngine;
use serde::json::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Assert that steady-state requests allocate nothing: warm the engine
/// past its first trips around the module set (Markov table training,
/// cache population), then drive many more requests and require the
/// allocation counter to stand still.
fn assert_steady_state_requests_are_allocation_free() {
    let modules = rtr_study::replay_modules(4);
    let (mut engine, ids) = rtr_study::replay_engine(&modules, 2);
    black_box(rtr_study::drive_engine(&mut engine, &ids, 64));

    let before = allocations();
    let acc = rtr_study::drive_engine(&mut engine, &ids, 100_000);
    let delta = allocations() - before;
    black_box(acc);
    assert_eq!(
        delta, 0,
        "steady-state request path performed {delta} heap allocations \
         over 100000 requests"
    );
    println!("ok: 100000 steady-state requests, 0 heap allocations");
}

/// Heap allocations of one `DeployedSystem::rtr_engine` on the generated
/// 10k flow (seed 1) while the protocol builder validated each module's
/// stream through its encoded byte image.
const ENGINE_BUILD_ALLOCS_VIA_IMAGE: u64 = 159;

/// Assert that building the generated 10k flow's engine validates its
/// streams without copying them: at least one allocation per module
/// fewer than [`ENGINE_BUILD_ALLOCS_VIA_IMAGE`]. Returns the artifact
/// section.
fn assert_engine_build_validates_in_place() -> Value {
    let flow = gallery::synthetic(&SyntheticParams {
        seed: 1,
        ..SyntheticParams::sized(10_000)
    });
    let artifacts = flow.run().expect("generated flow compiles");
    let deployed = DeployedSystem::new(
        flow.architecture(),
        &artifacts,
        flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    );
    let modules = deployed.rtr_engine().expect("engine builds").module_count() as u64;
    let before = allocations();
    black_box(deployed.rtr_engine().expect("engine builds"));
    let allocs = allocations() - before;
    let ceiling = ENGINE_BUILD_ALLOCS_VIA_IMAGE - modules;
    assert!(
        allocs <= ceiling,
        "rtr_engine on generated 10k seed 1 made {allocs} heap allocations for \
         {modules} modules (ceiling {ceiling}: {ENGINE_BUILD_ALLOCS_VIA_IMAGE} through \
         encoded images, less one per module)"
    );
    println!(
        "ok: rtr_engine on generated 10k seed 1: {allocs} heap allocations, {modules} \
         modules (ceiling {ceiling})"
    );
    Value::obj(vec![
        ("modules", Value::UInt(modules)),
        ("allocations", Value::UInt(allocs)),
        ("allocations_ceiling", Value::UInt(ceiling)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    let (parity_iters, ref_requests, eng_requests, reps, trace_len) = if test_mode {
        (16, 384, 400_000, 2, 512)
    } else {
        (32, 2_000, 1_000_000, 3, 4_096)
    };

    let parity = rtr_study::run_parity(parity_iters).expect("gallery flows deploy");
    assert!(
        rtr_study::all_match(&parity),
        "engine and reference managers disagree on a gallery flow: {parity:?}"
    );
    println!(
        "gallery parity: {} (flow, options) cases, all identical",
        parity.len()
    );

    let tp = rtr_study::run_throughput(512, ref_requests, eng_requests, reps);
    print!("{}", tp.render());
    assert!(tp.parity_ok, "direct replay diverged from the reference");

    let sweep_engine = SweepEngine::new();
    let sweep = rtr_study::run_sweep(&sweep_engine, trace_len);
    print!(
        "{}",
        rtr_study::render_policies(&sweep.ok_values().cloned().collect::<Vec<_>>())
    );
    println!("  [sweep] rtr: {}", sweep.stats.render());
    println!(
        "  [sweep] rtr: outcome digest {:016x}",
        outcome_digest(&sweep, &rtr_study::PolicyPoint::digest_json)
    );
    assert_eq!(sweep.stats.failed(), 0, "policy sweep had failing points");

    if test_mode {
        assert!(
            tp.speedup() >= 5.0,
            "engine is only {:.2}x faster than the reference replay (floor: 5x)",
            tp.speedup()
        );
        assert!(
            tp.engine_rate() >= 1e6,
            "engine serves only {:.0} req/s (floor: 1M req/s)",
            tp.engine_rate()
        );
        println!(
            "ok: engine {:.0} req/s, {:.1}x over reference (floors: 1M req/s, 5x)",
            tp.engine_rate(),
            tp.speedup()
        );
        assert_steady_state_requests_are_allocation_free();
    }
    let engine_build = assert_engine_build_validates_in_place();

    if let Some(path) = &out {
        let mut artifact = Artifact::new("rtr")
            .with_field(
                "mode",
                Value::String(if test_mode { "test" } else { "full" }.into()),
            )
            .with_field("trace_len", Value::UInt(trace_len as u64));
        artifact.push_section(
            "parity",
            Value::Array(parity.iter().map(|c| c.to_json()).collect()),
        );
        artifact.push_section("throughput", tp.to_json());
        artifact.push_section("engine_build", engine_build);
        artifact.push_section(
            "policies",
            sweep.to_json_with(rtr_study::PolicyPoint::to_json),
        );
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display on the raw request loops.
        let modules = rtr_study::replay_modules(4);
        let names: Vec<String> = modules.iter().map(|(n, _)| n.clone()).collect();
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("rtr");
        group.sample_size(10);
        group.bench_function("reference/1k-requests", |b| {
            b.iter(|| {
                let mut mgr = rtr_study::replay_reference(&modules, 2);
                black_box(rtr_study::drive_reference(&mut mgr, &names, 1_000))
            })
        });
        group.bench_function("engine/1k-requests", |b| {
            b.iter(|| {
                let (mut engine, ids) = rtr_study::replay_engine(&modules, 2);
                black_box(rtr_study::drive_engine(&mut engine, &ids, 1_000))
            })
        });
        group.finish();
    }
}
