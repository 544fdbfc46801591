//! Fabric-generations bench over the family tables: Virtex-II
//! byte-parity plus series7-like 2D placement, end to end.
//!
//! Flags (after `--`):
//!
//! * `--test` — CI gate: recomputes every pinned Virtex-II gallery-flow
//!   artifact digest and asserts byte-parity with the pre-refactor tree,
//!   drives the `sdr_series7` flow end to end (2D placement feasibility,
//!   clean floorplan lint, deterministic simulation), and runs the
//!   generation sweep with zero failed points;
//! * `--out <path>` — persist the study as a `BENCH_fabric.json`
//!   artifact through the `pdr-sweep` JSON writer.

use criterion::{black_box, Criterion};
use pdr_bench::fabric_study;
use pdr_fabric::{Bitstream, Device, ReconfigRegion};
use pdr_sweep::artifact::{outcome_digest, Artifact};
use pdr_sweep::SweepEngine;
use serde::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    // Virtex-II byte-parity: the refactor keeps every pinned flow's
    // fabric-facing artifacts (UCF, regions, bitstream bytes, lint
    // output, SimReport) byte-identical.
    let parity = fabric_study::v2_parity();
    for row in &parity {
        println!(
            "  v2 parity {:24} {:016x} (pinned {:016x}) {}",
            row.flow,
            row.got,
            row.pinned,
            if row.ok() { "ok" } else { "DRIFTED" }
        );
    }
    assert!(
        parity.iter().all(fabric_study::ParityRow::ok),
        "a Virtex-II gallery flow drifted from its pre-refactor artifact digest"
    );
    println!("ok: {} Virtex-II flows byte-identical", parity.len());

    // Series7-like end to end: 2D placement feasibility, lint, simulate.
    let s7 = fabric_study::s7_end_to_end().expect("series7 flow runs");
    assert!(
        s7.clean(),
        "series7 flow is not clean (lint or envelope coverage): {s7:?}"
    );
    println!(
        "ok: {} on {} — {} rectangular regions, lint clean, sim digest {:016x}",
        s7.flow,
        s7.device,
        s7.regions.len(),
        s7.sim_digest
    );

    // Generation sweep across both families.
    let engine = SweepEngine::new();
    let sweep = fabric_study::run_sweep(&engine);
    let points: Vec<_> = sweep.ok_values().cloned().collect();
    print!("{}", fabric_study::render_generations(&points));
    println!("  [sweep] fabric: {}", sweep.stats.render());
    println!(
        "  [sweep] fabric: outcome digest {:016x}",
        outcome_digest(&sweep, &fabric_study::GenerationPoint::to_json)
    );
    assert_eq!(
        sweep.stats.failed(),
        0,
        "generation sweep had failing points"
    );

    if let Some(path) = &out {
        let mut artifact = Artifact::new("fabric").with_field(
            "mode",
            Value::String(if test_mode { "test" } else { "full" }.into()),
        );
        artifact.push_section(
            "v2_parity",
            Value::Array(parity.iter().map(|r| r.to_json()).collect()),
        );
        artifact.push_section("s7_flow", s7.to_json());
        artifact.push_section(
            "generations",
            sweep.to_json_with(fabric_study::GenerationPoint::to_json),
        );
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing: partial-bitstream generation on one region of
        // each family.
        let v2 = Device::xc2v2000();
        let v2_region = ReconfigRegion::new("op_dyn", 20, 4).expect("legal region");
        let s7_dev = Device::by_name("XC7A100T").expect("catalog device");
        let s7_region = ReconfigRegion::rect("r", 10, 4, 0, 50).expect("legal rect");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("fabric");
        group.bench_function("partial-bitstream/virtex-ii", |b| {
            b.iter(|| black_box(Bitstream::partial_for_region(&v2, &v2_region, 0xFAB)))
        });
        group.bench_function("partial-bitstream/series7", |b| {
            b.iter(|| black_box(Bitstream::partial_for_region(&s7_dev, &s7_region, 0xFAB)))
        });
        group.finish();
    }
}
