//! Equivalence suite for the `pdr-ir` lowering: the interned, index-based
//! executive is observationally identical to the string executive it was
//! lowered from.
//!
//! Four angles of evidence, each over every gallery flow and (where it
//! applies) over random valid graphs:
//!
//! * **render** — `IrExecutive::render` through the symbol table
//!   reproduces `Executive::render` byte for byte;
//! * **simulation** — `DeployedSystem::simulate` (the lowered executive
//!   on `IrSimSystem` with the indexed `RtrEngine`) and the string
//!   `SimSystem` over the reference managers of `DeployedSystem::managers`
//!   produce equal [`SimReport`]s (event traces, latencies, busy times,
//!   reconfiguration logs) under reconfiguration-churning workloads;
//! * **lint** — `lint` over the string executive and `lint_ir` over the
//!   carried lowered twin render byte-identical text and JSON reports,
//!   clean and mutated alike;
//! * **sweep digests** — a `pdr-sweep` study whose scenarios simulate
//!   through either path produces bit-identical schedule-independent
//!   outcome digests.

use pdr_adequation::executive::generate_executive;
use pdr_adequation::{adequate, AdequationOptions, MacroInstr};
use pdr_bench::ir_sim;
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::gallery::{self, synthetic, SyntheticParams};
use pdr_fabric::TimePs;
use pdr_graph::constraints::ConstraintsFile;
use pdr_graph::prelude::*;
use pdr_lint::{lint, lint_ir, render, IrLintInput, LintInput};
use pdr_sim::{IrSimSystem, SimConfig, SimReport, SimSystem};
use pdr_sweep::artifact::outcome_digest;
use pdr_sweep::{Scenario, SweepEngine, SweepError};
use proptest::prelude::*;
use serde::json::Value;

// ------------------------------------------------------------ rendering

#[test]
fn lowered_gallery_executives_render_byte_identically() {
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        assert_eq!(
            art.executive.render(),
            art.ir_executive.render(&art.symbols),
            "render drift on `{}`",
            g.name
        );
    }
}

// ----------------------------------------------------------- simulation

/// The string oracle and the production path on one deployed gallery
/// flow, reconfiguration churn and full trace capture on.
fn simulate_both(name: &str, iterations: u32) -> (SimReport, SimReport) {
    let g = gallery::by_name(name).expect("gallery flow exists");
    let art = g.flow.run().expect("gallery flow runs");
    let dep = DeployedSystem::new(
        g.flow.architecture(),
        &art,
        g.flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    );
    let cfg = ir_sim::workload(name, iterations).with_trace();
    (
        ir_sim::simulate_reference(g.flow.architecture(), &art, &dep, &cfg)
            .expect("string simulation runs"),
        dep.simulate(&cfg).expect("production simulation runs"),
    )
}

#[test]
fn gallery_simulations_agree_event_for_event() {
    for g in gallery::all() {
        let (a, b) = simulate_both(g.name, 32);
        assert_eq!(a, b, "simulation drift on `{}`", g.name);
        assert!(!a.trace.is_empty(), "`{}` produced no trace", g.name);
    }
}

#[test]
fn latencies_and_reconfig_logs_agree_on_the_largest_flow() {
    let (a, b) = simulate_both("two_regions_xc2v4000", 48);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.iteration_ends, b.iteration_ends);
    assert_eq!(a.reconfigs, b.reconfigs);
    assert!(
        a.reconfig_count() > 0,
        "workload must churn reconfigurations"
    );
}

// ----------------------------------------------------------------- lint

#[test]
fn lint_over_string_and_lowered_forms_is_byte_identical() {
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        let arch = g.flow.architecture();
        let chars = g.flow.characterization();
        let constraints =
            ConstraintsFile::parse(&art.constraints_text).expect("artifact constraints parse");
        let from_string = lint(
            &LintInput::new(&art.executive)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints)
                .with_floorplan(&art.design.floorplan),
        );
        let from_ir = lint_ir(
            &IrLintInput::new(&art.ir_executive, &art.symbols)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints)
                .with_floorplan(&art.design.floorplan),
        );
        assert_eq!(from_string, from_ir, "lint drift on `{}`", g.name);
        assert_eq!(render::to_text(&from_string), render::to_text(&from_ir));
        assert_eq!(
            render::to_json_string(&from_string),
            render::to_json_string(&from_ir)
        );
    }
}

#[test]
fn mutated_executives_produce_byte_identical_diagnostics() {
    // Break the paper flow three different ways; each time the string and
    // the lowered analysis must render the same findings byte for byte.
    let g = gallery::by_name("paper").expect("gallery flow exists");
    let base = g.flow.run().expect("gallery flow runs");
    type Mutation = Box<dyn Fn(&mut Vec<MacroInstr>)>;
    let mutations: Vec<Mutation> = vec![
        // Dangling rendezvous: drop the first receive.
        Box::new(|stream| {
            let idx = stream
                .iter()
                .position(|i| matches!(i, MacroInstr::Receive { .. }))
                .expect("op_dyn receives");
            stream.remove(idx);
        }),
        // Deadlock: swap the two receives.
        Box::new(|stream| {
            let recvs: Vec<usize> = stream
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, MacroInstr::Receive { .. }))
                .map(|(idx, _)| idx)
                .collect();
            stream.swap(recvs[0], recvs[1]);
        }),
        // Unconfigured compute: drop the configure.
        Box::new(|stream| {
            let idx = stream
                .iter()
                .position(|i| matches!(i, MacroInstr::Configure { .. }))
                .expect("op_dyn configures");
            stream.remove(idx);
        }),
    ];
    for (k, mutate) in mutations.iter().enumerate() {
        let mut executive = base.executive.clone();
        mutate(
            executive
                .per_operator
                .get_mut("op_dyn")
                .expect("op_dyn stream exists"),
        );
        let arch = g.flow.architecture();
        let chars = g.flow.characterization();
        let constraints =
            ConstraintsFile::parse(&base.constraints_text).expect("artifact constraints parse");
        let from_string = lint(
            &LintInput::new(&executive)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints),
        );
        let mut table = base.symbols.clone();
        let ir = executive.lower(&mut table);
        let from_ir = lint_ir(
            &IrLintInput::new(&ir, &table)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints),
        );
        assert!(
            from_string.has_errors(),
            "mutation {k} was supposed to break the flow"
        );
        assert_eq!(render::to_text(&from_string), render::to_text(&from_ir));
        assert_eq!(
            render::to_json_string(&from_string),
            render::to_json_string(&from_ir)
        );
    }
}

// -------------------------------------------------------- sweep digests

/// The digest-worthy view of a simulation outcome: everything
/// schedule-independent a sweep would persist.
fn outcome_view(r: &SimReport) -> Value {
    Value::obj(vec![
        ("makespan_ps", Value::UInt(r.makespan.as_ps())),
        ("reconfigs", Value::UInt(r.reconfig_count() as u64)),
        ("lockup_ps", Value::UInt(r.lockup_time().as_ps())),
        (
            "iteration_ends",
            Value::Array(
                r.iteration_ends
                    .iter()
                    .map(|t| Value::UInt(t.as_ps()))
                    .collect(),
            ),
        ),
    ])
}

/// One scenario per gallery flow; `use_ir` picks the production path
/// over the string oracle.
fn sweep_scenarios(use_ir: bool) -> Vec<Scenario<'static, SimReport>> {
    gallery::names()
        .into_iter()
        .enumerate()
        .map(|(seed, name)| {
            Scenario::new(format!("sim/{name}"), seed as u64, move || {
                let g = gallery::by_name(name).expect("gallery flow exists");
                let art = g.flow.run().map_err(SweepError::scenario)?;
                let dep = DeployedSystem::new(
                    g.flow.architecture(),
                    &art,
                    g.flow.device().clone(),
                    RuntimeOptions::paper_baseline(),
                );
                let cfg = ir_sim::workload(name, 24);
                let run = if use_ir {
                    dep.simulate(&cfg)
                } else {
                    ir_sim::simulate_reference(g.flow.architecture(), &art, &dep, &cfg)
                };
                run.map_err(SweepError::scenario)
            })
            .with_param("flow", name)
            .with_param("interpreter", if use_ir { "interned" } else { "string" })
        })
        .collect()
}

#[test]
fn sweep_outcome_digests_agree_across_interpreters() {
    let engine = SweepEngine::new().with_threads(2);
    let via_string = engine.run(sweep_scenarios(false));
    let via_ir = engine.run(sweep_scenarios(true));
    assert_eq!(via_string.stats.ok, gallery::names().len());
    assert_eq!(via_ir.stats.ok, gallery::names().len());
    // The `interpreter` param is part of the digest; strip it so the two
    // studies hash the same identity + the outcome under test.
    let digest = |report: &pdr_sweep::SweepReport<SimReport>| {
        let mut clone_less_param = Vec::new();
        for o in &report.outcomes {
            let mut o = o.clone();
            o.params.remove("interpreter");
            clone_less_param.push(o);
        }
        let stripped = pdr_sweep::SweepReport {
            outcomes: clone_less_param,
            stats: report.stats.clone(),
        };
        outcome_digest(&stripped, &|r: &SimReport| outcome_view(r))
    };
    assert_eq!(digest(&via_string), digest(&via_ir));
}

// ------------------------------------------------------- random graphs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executives generated from random valid layered graphs lower to an
    /// IR that renders identically and simulates identically (no
    /// managers: every `Configure` charges its worst case in both
    /// engines).
    #[test]
    fn random_graph_lowering_is_observationally_identical(
        layers in 1usize..5,
        width in 1usize..5,
        wcets in prop::collection::vec(1u64..50, 25),
        edge_mask in prop::collection::vec(any::<bool>(), 64),
        iterations in 1u32..4,
    ) {
        let arch = pdr_graph::paper::sundance_architecture();
        let mut g = AlgorithmGraph::new("ir_prop");
        let mut chars = Characterization::new();
        let src = g.add_op("src", OpKind::Source).unwrap();
        let mut prev = vec![src];
        let mut mask = edge_mask.iter().cycle();
        let mut wcet = wcets.iter().cycle();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let name = format!("n_{l}_{w}");
                let id = g.add_compute(&name).unwrap();
                let us = *wcet.next().unwrap();
                chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
                chars.set_duration(&name, "dsp", TimePs::from_us(us * 10));
                layer.push(id);
            }
            for (i, &b) in layer.iter().enumerate() {
                g.connect(prev[i % prev.len()], b, 32).unwrap();
                for &a in &prev {
                    if *mask.next().unwrap() && !g.predecessors(b).contains(&a) {
                        g.connect(a, b, 32).unwrap();
                    }
                }
            }
            prev = layer;
        }
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        for &a in &prev {
            g.connect(a, sink, 32).unwrap();
        }
        let constraints = ConstraintsFile::new();
        let r = adequate(&g, &arch, &chars, &constraints, &AdequationOptions::default()).unwrap();
        let executive =
            generate_executive(&g, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        let mut table = arch.symbols().clone();
        let ir = executive.lower(&mut table);

        prop_assert_eq!(executive.render(), ir.render(&table));

        let cfg = SimConfig::iterations(iterations).with_trace();
        let a = SimSystem::new(&arch, &executive).run(&cfg).unwrap();
        let b = IrSimSystem::new(&arch, &ir, &table).run(&cfg).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Differential check over the seeded flow generator: complete
    /// generated flows render/simulate identically through the string and
    /// interned interpreters (with selection churn on the first dynamic
    /// region forcing reconfigurations), and lint output is stable — two
    /// independent runs of the same seed produce byte-identical reports,
    /// and the string and lowered analyses agree. Failures quote the seed.
    #[test]
    fn generated_flows_simulate_and_lint_identically(
        seed in 0u64..10_000,
        layers in 1usize..4,
        width in 1usize..4,
        iterations in 2u32..5,
    ) {
        let params = SyntheticParams {
            seed,
            layers,
            width,
            cpus: 2,
            fn_pool: 6,
            ..SyntheticParams::default()
        };
        let flow = synthetic(&params);
        let art = flow.run().unwrap();
        prop_assert_eq!(
            art.executive.render(),
            art.ir_executive.render(&art.symbols),
            "render drift at seed {}", seed
        );

        // Simulation parity under reconfiguration churn on region d1.
        let dep = DeployedSystem::new(
            flow.architecture(),
            &art,
            flow.device().clone(),
            RuntimeOptions::paper_baseline(),
        );
        let churn: Vec<String> = (0..iterations)
            .map(|i| format!("pr_region0_alt{}_bitstream", i % 2))
            .collect();
        let cfg = SimConfig::iterations(iterations)
            .with_selection("d1", churn)
            .with_trace();
        let a = ir_sim::simulate_reference(flow.architecture(), &art, &dep, &cfg).unwrap();
        let b = dep.simulate(&cfg).unwrap();
        prop_assert_eq!(&a, &b, "simulation drift at seed {}", seed);

        // Lint stability: same seed twice → byte-identical clean reports,
        // string and lowered forms agreeing both times.
        let constraints = ConstraintsFile::parse(&art.constraints_text).unwrap();
        let lint_pair = |art: &pdr_core::flow::FlowArtifacts| {
            let from_string = lint(
                &LintInput::new(&art.executive)
                    .with_arch(flow.architecture())
                    .with_chars(flow.characterization())
                    .with_constraints(&constraints)
                    .with_floorplan(&art.design.floorplan),
            );
            let from_ir = lint_ir(
                &IrLintInput::new(&art.ir_executive, &art.symbols)
                    .with_arch(flow.architecture())
                    .with_chars(flow.characterization())
                    .with_constraints(&constraints)
                    .with_floorplan(&art.design.floorplan),
            );
            (render::to_text(&from_string), render::to_text(&from_ir))
        };
        let (s1, i1) = lint_pair(&art);
        prop_assert_eq!(&s1, &i1, "lint drift at seed {}", seed);
        let art2 = synthetic(&params).run().unwrap();
        let (s2, _) = lint_pair(&art2);
        prop_assert_eq!(&s1, &s2, "lint instability at seed {}", seed);
    }
}
