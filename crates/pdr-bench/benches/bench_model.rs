//! Criterion bench behind the `pdr-lint` model-checker tentpole:
//! exhaustive interleaving exploration of the gallery executives.
//!
//! Flags (after `--`):
//!
//! * `--test` — quick mode for CI: asserts every gallery flow
//!   model-checks deadlock-free in under a second with the partial-order
//!   reduction on, that the reduction shrinks the explored state space of
//!   the largest flow (`synthetic_large`, 512 instructions) by at least
//!   10x, and that a seeded reconfiguration race yields a witness that
//!   replays through the independent reference executor;
//! * `--out <path>` — persist the measurements as a `BENCH_model.json`
//!   artifact through the `pdr-sweep` JSON writer.

use criterion::{black_box, Criterion};
use pdr_adequation::executive::MacroInstr;
use pdr_bench::replay;
use pdr_core::gallery;
use pdr_core::FlowArtifacts;
use pdr_fabric::TimePs;
use pdr_lint::model::{self, ModelInput};
use pdr_lint::{rendezvous, Code, ModelConfig, RendezvousPair};
use pdr_sweep::artifact::Artifact;
use serde::json::Value;
use std::time::Instant;

/// The flow the reduction floor is asserted on — the gallery's largest.
const LARGEST: &str = "synthetic_large";

/// Per-flow wall-clock budget in `--test` mode, with POR on.
const BUDGET_MS: u128 = 1_000;

/// Reduction-factor floor on `LARGEST`: states without POR over states
/// with POR.
const REDUCTION_FLOOR: f64 = 10.0;

struct Measured {
    name: String,
    outcome: model::ModelOutcome,
    millis: f64,
}

fn pairs_of(art: &FlowArtifacts) -> Vec<RendezvousPair> {
    let rv = rendezvous::check(&art.ir_executive, &art.symbols);
    assert!(
        rv.diagnostics.is_empty(),
        "gallery flow has rendezvous defects: {:?}",
        rv.diagnostics
    );
    rv.pairs
}

fn check_flow(art: &FlowArtifacts, pairs: &[RendezvousPair], config: &ModelConfig) -> Measured {
    let input = ModelInput {
        ir: &art.ir_executive,
        table: &art.symbols,
        pairs,
        constraints: None,
    };
    let start = Instant::now();
    let outcome = model::check(&input, config);
    Measured {
        name: String::new(),
        outcome,
        millis: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Seed the paper flow with a reconfiguration race (a configure of
/// `mod_qam16` appended to the dsp stream) and check its witness replays.
fn witness_replay_parity() -> Value {
    let g = gallery::by_name("paper").expect("gallery flow");
    let mut art = g.flow.run().expect("flow runs");
    art.executive
        .per_operator
        .get_mut("dsp")
        .expect("dsp stream")
        .push(MacroInstr::Configure {
            module: "mod_qam16".to_string(),
            worst_case: TimePs::from_ms(10),
        });
    art.ir_executive = art.executive.lower(&mut art.symbols);
    let pairs = pairs_of(&art);
    let outcome = model::check(
        &ModelInput {
            ir: &art.ir_executive,
            table: &art.symbols,
            pairs: &pairs,
            constraints: Some(g.flow.constraints()),
        },
        &ModelConfig::default(),
    );
    let witnesses: Vec<&model::Witness> = outcome
        .witnesses
        .iter()
        .filter(|w| w.code == Code::ReconfigRace)
        .collect();
    assert!(!witnesses.is_empty(), "seeded race was not found");
    for w in &witnesses {
        replay::replay_witness(
            &art.ir_executive,
            &art.symbols,
            &pairs,
            Some(g.flow.constraints()),
            w,
        )
        .expect("race witness replays");
    }
    Value::obj(vec![
        ("seeded", Value::String("PDR013".into())),
        ("witnesses", Value::UInt(witnesses.len() as u64)),
        ("replayed", Value::Bool(true)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    // Exhaustively model-check every gallery flow with the reduction on.
    let mut measured = Vec::new();
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        let pairs = pairs_of(&art);
        let mut m = check_flow(&art, &pairs, &ModelConfig::default());
        m.name = g.name.to_string();
        let per_sec = m.outcome.stats.states as f64 / (m.millis / 1e3).max(1e-9);
        println!(
            "{:24} {:>8} states {:>10} transitions {:>9.2} ms {:>12.0} states/s",
            m.name, m.outcome.stats.states, m.outcome.stats.transitions, m.millis, per_sec
        );
        let deadlocked = m
            .outcome
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Deadlock);
        assert!(!deadlocked, "gallery flow `{}` deadlocks", m.name);
        assert!(
            !m.outcome.stats.truncated,
            "gallery flow `{}` truncated",
            m.name
        );
        if test_mode {
            assert!(
                (m.millis as u128) < BUDGET_MS,
                "flow `{}` took {:.1} ms (budget {BUDGET_MS} ms)",
                m.name,
                m.millis
            );
        }
        measured.push(m);
    }

    // Reduction factor on the largest flow: POR off vs on.
    let g = gallery::by_name(LARGEST).expect("largest gallery flow");
    let art = g.flow.run().expect("flow runs");
    let pairs = pairs_of(&art);
    let with_por = check_flow(&art, &pairs, &ModelConfig::default());
    let without = check_flow(&art, &pairs, &ModelConfig::default().without_por());
    let reduction =
        without.outcome.stats.states as f64 / with_por.outcome.stats.states.max(1) as f64;
    let unreduced_per_sec = without.outcome.stats.states as f64 / (without.millis / 1e3).max(1e-9);
    println!(
        "{LARGEST}: {} states with POR, {} without ({reduction:.1}x reduction); \
         unreduced exploration {:.1} ms, {unreduced_per_sec:.0} states/s",
        with_por.outcome.stats.states, without.outcome.stats.states, without.millis
    );
    assert!(
        reduction >= REDUCTION_FLOOR,
        "partial-order reduction is only {reduction:.1}x on {LARGEST} \
         (floor: {REDUCTION_FLOOR}x)"
    );

    let parity = witness_replay_parity();
    println!("witness replay parity: ok");
    if test_mode {
        println!("ok: gallery clean < {BUDGET_MS} ms/flow, POR {reduction:.1}x on {LARGEST}");
    }

    if let Some(path) = &out {
        let mut artifact = Artifact::new("model").with_field(
            "mode",
            Value::String(if test_mode { "test" } else { "full" }.into()),
        );
        let flows: Vec<Value> = measured
            .iter()
            .map(|m| {
                let per_sec = m.outcome.stats.states as f64 / (m.millis / 1e3).max(1e-9);
                Value::obj(vec![
                    ("flow", Value::String(m.name.clone())),
                    ("states", Value::UInt(m.outcome.stats.states)),
                    ("transitions", Value::UInt(m.outcome.stats.transitions)),
                    ("millis", Value::Float(m.millis)),
                    ("states_per_sec", Value::Float(per_sec)),
                    (
                        "diagnostics",
                        Value::UInt(m.outcome.diagnostics.len() as u64),
                    ),
                ])
            })
            .collect();
        artifact.push_section("flows", Value::Array(flows));
        artifact.push_section(
            "por",
            Value::obj(vec![
                ("flow", Value::String(LARGEST.into())),
                (
                    "states_with_por",
                    Value::UInt(with_por.outcome.stats.states),
                ),
                (
                    "states_without_por",
                    Value::UInt(without.outcome.stats.states),
                ),
                ("reduction", Value::Float(reduction)),
                ("floor", Value::Float(REDUCTION_FLOOR)),
                ("millis_without_por", Value::Float(without.millis)),
                (
                    "states_per_sec_without_por",
                    Value::Float(unreduced_per_sec),
                ),
            ]),
        );
        artifact.push_section("witness_replay", parity);
        artifact.write(path).expect("artifact written");
        println!("wrote {path}");
    }

    if !test_mode {
        // Criterion timing display: the exhaustive exploration of the
        // largest flow, reduction on.
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("model");
        group.sample_size(20);
        group.bench_function(format!("check/{LARGEST}"), |b| {
            b.iter(|| {
                black_box(model::check(
                    &ModelInput {
                        ir: &art.ir_executive,
                        table: &art.symbols,
                        pairs: &pairs,
                        constraints: None,
                    },
                    &ModelConfig::default(),
                ))
            })
        });
        group.finish();
    }
}
