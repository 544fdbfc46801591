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
//! * **lint** — `lint` over the string executive lowered through a fresh
//!   `SymbolTable` and over the artifacts' carried lowered twin and
//!   symbols render byte-identical text and JSON reports, clean and
//!   mutated alike: diagnostics do not depend on symbol numbering;
//! * **sweep digests** — a `pdr-sweep` study whose scenarios simulate
//!   through either path produces bit-identical schedule-independent
//!   outcome digests.

use pdr_adequation::executive::{generate_executive, generate_executive_ir};
use pdr_adequation::{adequate, AdequationOptions, AdequationResult, ItemKind, MacroInstr};
use pdr_bench::ir_sim;
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::flow::{DesignFlow, FlowArtifacts};
use pdr_core::gallery::{self, synthetic, SyntheticParams};
use pdr_core::FlowError;
use pdr_fabric::TimePs;
use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion};
use pdr_graph::constraints::ConstraintsFile;
use pdr_graph::prelude::*;
use pdr_graph::LoadPolicy;
use pdr_ir::SymbolTable;
use pdr_lint::{lint, render, LintInput};
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, EvictionSpec, MemoryModel, PrefetchSpec,
    ProtocolBuilder, RegionSpec, RtrEngine, RtrEngineBuilder,
};
use pdr_server::compute::sim_workload;
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

// -------------------------------------------------- one-pass generation

/// `generate_executive_ir` against the chain it replaced: the string
/// executive from `generate_executive`, then the table seeded as the
/// flow seeds it (architecture, then `absorb` of the algorithm) and
/// `Executive::lower` through it. All three outputs compare with `==`;
/// returns the table.
fn assert_one_pass_equals_lowering(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    r: &AdequationResult,
    what: &str,
) -> SymbolTable {
    let (executive, ir, symbols) =
        generate_executive_ir(algo, arch, chars, &r.mapping, &r.schedule)
            .unwrap_or_else(|e| panic!("`{what}`: {e}"));
    let oracle = generate_executive(algo, arch, chars, &r.mapping, &r.schedule).unwrap();
    let mut table = arch.symbols().clone();
    table.absorb(algo.symbols());
    let lowered = oracle.lower(&mut table);
    assert!(executive == oracle, "string executive drift on `{what}`");
    assert!(ir == lowered, "IR drift on `{what}`");
    assert!(symbols == table, "symbol table drift on `{what}`");
    symbols
}

/// Every gallery flow and the generated 512 → 10k sweep: the one-pass
/// generator equals generate + seed + lower, and `DesignFlow::run`
/// carries exactly those artifacts.
#[test]
fn one_pass_generation_equals_lowering_on_gallery_and_sweep_flows() {
    for (name, flow) in pdr_bench::scale::flows() {
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
        .unwrap_or_else(|e| panic!("`{name}`: {e}"));
        assert_one_pass_equals_lowering(algo, arch, chars, &r, &name);
        if !name.starts_with("synthetic_gen") {
            let art = flow.run().expect("gallery flow runs");
            let mut table = arch.symbols().clone();
            table.absorb(algo.symbols());
            assert!(
                art.ir_executive == art.executive.lower(&mut table),
                "{name}"
            );
            assert!(art.symbols == table, "{name}");
        }
    }
}

/// A scheduled function no operation declares (a hand-edited schedule)
/// is interned by name where lowering interns it, so the table still
/// equals the lowering chain's.
#[test]
fn undeclared_scheduled_functions_intern_like_lowering() {
    let g = gallery::by_name("paper").expect("paper flow");
    let (algo, arch, chars) = (
        g.flow.algorithm(),
        g.flow.architecture(),
        g.flow.characterization(),
    );
    let mut r = adequate(
        algo,
        arch,
        chars,
        g.flow.constraints(),
        g.flow.adequation_options(),
    )
    .unwrap();
    let mut renamed = 0;
    for items in r.schedule.operator_items.values_mut() {
        for item in items {
            if let ItemKind::Compute { function, .. } = &mut item.kind {
                if renamed % 2 == 0 {
                    *function = format!("{function}_v{renamed}").into();
                }
                renamed += 1;
            }
        }
    }
    assert!(renamed > 2);
    // Keep the reconfiguration times resolvable for renamed modules.
    let mut chars = chars.clone();
    chars.set_reconfig_default("op_dyn", TimePs::from_us(1));
    let symbols =
        assert_one_pass_equals_lowering(algo, arch, &chars, &r, "paper (renamed functions)");
    let mut seed = arch.symbols().clone();
    seed.absorb(algo.symbols());
    assert!(
        symbols.len() > seed.len(),
        "renamed functions were not interned"
    );
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

// ------------------------------------------- steady-state fast-forward

/// `IrSimSystem::run` on `cfg`, where fast-forward may apply, and on `cfg`
/// with trace capture, which always interprets every iteration (its trace
/// cleared before comparing). Reports compare with `==`, errors by text.
/// Returns the outcome and how many iterations the fast run skipped.
fn fast_and_full(
    arch: &ArchGraph,
    ir: &pdr_ir::IrExecutive,
    table: &SymbolTable,
    engine: Option<&RtrEngine>,
    cfg: &SimConfig,
    what: &str,
) -> (Result<SimReport, String>, u32) {
    let run = |cfg: &SimConfig| {
        let mut sys = IrSimSystem::new(arch, ir, table);
        if let Some(e) = engine {
            sys.attach_engine(e.clone());
        }
        let out = sys.run(cfg).map_err(|e| e.to_string());
        (out, sys.fast_forwarded())
    };
    let (fast, skipped) = run(cfg);
    let (full, full_skipped) = run(&cfg.clone().with_trace());
    assert_eq!(full_skipped, 0, "`{what}`: a traced run fast-forwarded");
    let full = full.map(|mut r| {
        r.trace.clear();
        r
    });
    assert_eq!(
        fast, full,
        "`{what}`: fast-forward drifted from the full path"
    );
    (fast, skipped)
}

/// The string `SimSystem` oracle over the reference managers of `dep`,
/// its error as text.
fn string_oracle(
    flow: &DesignFlow,
    art: &FlowArtifacts,
    dep: &DeployedSystem,
    cfg: &SimConfig,
) -> Result<SimReport, String> {
    ir_sim::simulate_reference(flow.architecture(), art, dep, cfg).map_err(|e| match e {
        FlowError::Sim(e) => e.to_string(),
        e => panic!("oracle setup failed: {e}"),
    })
}

/// The parity triple on a deployed flow: [`fast_and_full`] over the
/// deployment's engine, and the string oracle over its reference
/// managers. Returns the outcome and the iterations the fast run skipped.
fn deployed_parity(
    flow: &DesignFlow,
    art: &FlowArtifacts,
    cfg: &SimConfig,
    what: &str,
) -> (Result<SimReport, String>, u32) {
    let arch = flow.architecture();
    let dep = DeployedSystem::new(
        arch,
        art,
        flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    );
    let engine = dep.rtr_engine().expect("engine builds");
    let (fast, skipped) = fast_and_full(
        arch,
        &art.ir_executive,
        &art.symbols,
        Some(&engine),
        cfg,
        what,
    );
    let oracle = string_oracle(flow, art, &dep, cfg);
    assert_eq!(fast, oracle, "`{what}`: drift from the string oracle");
    (fast, skipped)
}

#[test]
fn fast_forward_matches_full_and_string_runs_on_every_gallery_flow() {
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        for iterations in [1, 2, 7, 8, 9, 16, 64, 88] {
            let cfg = sim_workload(&g.flow, iterations);
            let what = format!("{} @ {iterations}", g.name);
            let (outcome, _) = deployed_parity(&g.flow, &art, &cfg, &what);
            assert!(outcome.is_ok(), "`{what}`: {outcome:?}");
        }
    }
}

#[test]
fn fast_forward_matches_full_and_string_runs_on_generated_flows() {
    for ops in [512, 2048] {
        for seed in 1..=3 {
            let flow = synthetic(&SyntheticParams {
                seed,
                ..SyntheticParams::sized(ops)
            });
            let art = flow.run().expect("generated flow runs");
            let cfg = sim_workload(&flow, 24);
            let what = format!("generated {ops} seed {seed}");
            let (outcome, skipped) = deployed_parity(&flow, &art, &cfg, &what);
            assert!(outcome.is_ok(), "`{what}`: {outcome:?}");
            assert!(skipped > 0, "`{what}`: the steady workload never skipped");
        }
    }
}

/// An engine over `art`'s regions and generated bitstreams, as
/// `DeployedSystem::rtr_engine` builds it, but with any eviction policy
/// (Belady included, which a deployment cannot select).
fn engine_with(
    flow: &DesignFlow,
    art: &FlowArtifacts,
    cache_modules: usize,
    prefetch: &PrefetchSpec,
    eviction: impl Fn(&str) -> EvictionSpec,
) -> RtrEngine {
    let fp = &art.design.floorplan;
    let constraints = ConstraintsFile::parse(&art.constraints_text).unwrap();
    let runtime = RuntimeOptions::paper_baseline();
    let mut builder = RtrEngineBuilder::new(flow.device().clone(), runtime.port, runtime.memory);
    let regions: Vec<String> = fp
        .floorplan
        .regions()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    for region in &regions {
        let modules: Vec<(&String, &Bitstream)> = fp
            .region_of
            .iter()
            .filter(|(_, r)| *r == region)
            .map(|(m, _)| (m, fp.bitstream_of(m).unwrap()))
            .collect();
        let bytes = modules.iter().map(|(_, bs)| bs.len_bytes()).max().unwrap();
        let mut spec = RegionSpec::new(region, cache_modules * bytes)
            .prefetch(prefetch.clone())
            .eviction(eviction(region));
        for (m, bs) in modules {
            spec = spec.module(m, bs.clone());
        }
        builder = builder.region(spec);
    }
    for m in constraints.modules() {
        for other in &m.exclusive_with {
            builder = builder.exclude(&m.module, other);
        }
    }
    let mut engine = builder.build().unwrap();
    for region in &regions {
        let rid = engine.region_index(region).unwrap();
        for mc in constraints.modules_in_region(region) {
            if mc.load == LoadPolicy::AtStart {
                let mid = engine.module_index(&mc.module).unwrap();
                engine.preload(rid, mid).unwrap();
            }
        }
    }
    engine
}

/// A per-iteration selection from `(block length, first module?)`
/// blocks, repeated to fill `iterations`; `every` switches every
/// iteration instead and `flip_last` changes the last one.
fn selection_pattern(
    modules: [&str; 2],
    blocks: &[(u32, bool)],
    every: bool,
    flip_last: bool,
    iterations: u32,
) -> Vec<String> {
    let mut picks: Vec<bool> = if every {
        (0..iterations).map(|i| i % 2 == 0).collect()
    } else {
        blocks
            .iter()
            .cycle()
            .flat_map(|&(len, first)| std::iter::repeat_n(first, len as usize))
            .take(iterations as usize)
            .collect()
    };
    if flip_last {
        if let Some(last) = picks.last_mut() {
            *last = !*last;
        }
    }
    picks
        .into_iter()
        .map(|first| modules[usize::from(!first)].to_string())
        .collect()
}

thread_local! {
    /// The two-region gallery flow and its artifacts, compiled once per
    /// test thread.
    static TWO_REGIONS: (DesignFlow, FlowArtifacts) = {
        let flow = gallery::by_name("two_regions").expect("gallery flow").flow;
        let art = flow.run().expect("gallery flow runs");
        (flow, art)
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random selection patterns — random block lengths, switching every
    /// iteration, a change at the last iteration — under every eviction
    /// policy and the baseline, schedule-driven and Markov prefetchers:
    /// the fast run equals the full path, and under LRU (the policy the
    /// reference managers model) the string oracle too.
    #[test]
    fn fast_forward_is_exact_under_every_runtime_policy(
        d1 in prop::collection::vec((1u32..12, any::<bool>()), 1..6),
        d2 in prop::collection::vec((1u32..12, any::<bool>()), 1..6),
        every in any::<bool>(),
        flip_last in any::<bool>(),
        iterations in 1u32..48,
        eviction in 0u8..3,
        prefetch in 0u8..3,
    ) {
        TWO_REGIONS.with(|(flow, art)| {
            let sel1 = selection_pattern(["fir_narrow", "fir_wide"], &d1, every, flip_last, iterations);
            let sel2 = selection_pattern(["dec_viterbi", "dec_turbo"], &d2, false, false, iterations);
            let mut loads = sel1.clone();
            loads.dedup();
            let (options, prefetch_spec) = match prefetch {
                0 => (RuntimeOptions::paper_baseline(), PrefetchSpec::None),
                1 => (RuntimeOptions::paper_prefetch(loads.clone()), PrefetchSpec::Schedule(loads)),
                _ => (
                    RuntimeOptions { prefetch: PrefetchSpec::Markov, ..RuntimeOptions::paper_baseline() },
                    PrefetchSpec::Markov,
                ),
            };
            let trace_of = |region: &str| if region == "d1" { sel1.clone() } else { sel2.clone() };
            let engine = engine_with(flow, art, options.cache_modules, &prefetch_spec, |region| {
                match eviction {
                    0 => EvictionSpec::Lru,
                    1 => EvictionSpec::Lfu,
                    _ => EvictionSpec::Belady(trace_of(region)),
                }
            });
            let cfg = SimConfig::iterations(iterations)
                .with_selection("d1", sel1.clone())
                .with_selection("d2", sel2.clone());
            let what = format!("eviction {eviction}, prefetch {prefetch}, {iterations} iterations");
            let (fast, _) = fast_and_full(
                flow.architecture(),
                &art.ir_executive,
                &art.symbols,
                Some(&engine),
                &cfg,
                &what,
            );
            if eviction == 0 {
                let dep = DeployedSystem::new(flow.architecture(), art, flow.device().clone(), options);
                prop_assert_eq!(fast, string_oracle(flow, art, &dep, &cfg), "{}", what);
            }
            Ok(())
        })?;
    }

    /// The hostile executives of the tie suite, run long enough to reach
    /// steady state: fast, full and string runs agree, reports and errors
    /// alike.
    #[test]
    fn hostile_executives_fast_forward_exactly(
        streams in 2usize..6,
        steps in prop::collection::vec((0u8..8, 0u8..8, 0u8..32, 0u8..32), 1..24),
        tag_span in 1u8..33,
        sparse in any::<bool>(),
        ghost in 0u8..4,
        unit_ns in 0u64..3,
        iterations in 1u32..40,
    ) {
        let arch = hostile_architecture();
        let unit = TimePs::from_ns(10 * unit_ns);
        let exec = hostile_executive(streams, &steps, tag_span, sparse, ghost == 0, unit);
        let mut table = arch.symbols().clone();
        let ir = exec.lower(&mut table);
        let cfg = SimConfig::iterations(iterations);
        let (fast, _) = fast_and_full(&arch, &ir, &table, None, &cfg, "hostile");
        let oracle = SimSystem::new(&arch, &exec).run(&cfg).map_err(|e| e.to_string());
        prop_assert_eq!(fast, oracle);
    }
}

/// Three processors sharing a bus: `a` and `c` each compute (`unit`,
/// `2 × unit`) and send to `op_dyn` on the same tag; `op_dyn` configures
/// its module and receives twice. Rendezvous match on tag and iteration
/// only, so while `op_dyn` answers promptly `a` waits alone, but when a
/// reconfiguration delays it both senders wait and `c` overwrites `a`.
struct Contended {
    arch: ArchGraph,
    exec: pdr_adequation::Executive,
    table: SymbolTable,
    ir: pdr_ir::IrExecutive,
}

fn contended(unit: TimePs) -> Contended {
    let mut arch = ArchGraph::new("contended");
    let ops: Vec<_> = ["a", "c", "op_dyn"]
        .iter()
        .map(|n| arch.add_operator(*n, OperatorKind::Processor).unwrap())
        .collect();
    let bus = arch
        .add_medium("bus", MediumKind::Bus, 64_000_000, TimePs::from_ns(5))
        .unwrap();
    for &op in &ops {
        arch.link(op, bus).unwrap();
    }
    let send = |duration: TimePs| {
        vec![
            MacroInstr::Compute {
                op: "work".into(),
                function: "k".into(),
                duration,
            },
            MacroInstr::Send {
                to: "op_dyn".into(),
                medium: "bus".into(),
                bits: 64,
                tag: 1,
            },
        ]
    };
    let recv = |from: &str| MacroInstr::Receive {
        from: from.into(),
        medium: "bus".into(),
        bits: 64,
        tag: 1,
    };
    let mut exec = pdr_adequation::Executive::default();
    exec.per_operator.insert("a".into(), send(unit));
    exec.per_operator.insert("c".into(), send(unit * 2));
    exec.per_operator.insert(
        "op_dyn".into(),
        vec![
            MacroInstr::Configure {
                module: "mod_qpsk".into(),
                worst_case: TimePs::from_ms(4),
            },
            recv("a"),
            recv("c"),
        ],
    );
    let mut table = arch.symbols().clone();
    let ir = exec.lower(&mut table);
    Contended {
        arch,
        exec,
        table,
        ir,
    }
}

/// The paper's two-module `op_dyn` region, `mod_qpsk` preloaded: the
/// indexed engine and the reference manager over the same plumbing.
fn op_dyn_runtime() -> (RtrEngine, ConfigurationManager) {
    let d = Device::xc2v2000();
    let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let qpsk = Bitstream::partial_for_region(&d, &region, 1);
    let qam16 = Bitstream::partial_for_region(&d, &region, 2);
    let bytes = qpsk.len_bytes();
    let mut engine = RtrEngineBuilder::new(
        d.clone(),
        PortProfile::icap_virtex2(),
        MemoryModel::paper_flash(),
    )
    .region(
        RegionSpec::new("op_dyn", bytes)
            .module("mod_qpsk", qpsk.clone())
            .module("mod_qam16", qam16.clone()),
    )
    .build()
    .unwrap();
    let qpsk_id = engine.module_index("mod_qpsk").unwrap();
    engine.preload(0, qpsk_id).unwrap();
    let mut store = BitstreamStore::new();
    store.insert("mod_qpsk", qpsk);
    store.insert("mod_qam16", qam16);
    let mut manager = ConfigurationManager::new(
        ProtocolBuilder::new(d, PortProfile::icap_virtex2()),
        store,
        BitstreamCache::sized_for(1, bytes),
        MemoryModel::paper_flash(),
        "op_dyn",
    );
    manager.preload("mod_qpsk").unwrap();
    (engine, manager)
}

/// [`contended`] under `selection`, three ways. Returns the outcome and
/// the iterations the fast run skipped.
fn contended_parity(unit: TimePs, selection: Vec<String>) -> (Result<SimReport, String>, u32) {
    let c = contended(unit);
    let (engine, manager) = op_dyn_runtime();
    let cfg = SimConfig::iterations(selection.len() as u32).with_selection("op_dyn", selection);
    let (fast, skipped) = fast_and_full(&c.arch, &c.ir, &c.table, Some(&engine), &cfg, "contended");
    let mut oracle = SimSystem::new(&c.arch, &c.exec);
    oracle.add_manager("op_dyn", manager);
    assert_eq!(fast, oracle.run(&cfg).map_err(|e| e.to_string()));
    (fast, skipped)
}

fn modules(spec: &[(&str, usize)]) -> Vec<String> {
    spec.iter()
        .flat_map(|&(m, n)| std::iter::repeat_n(m.to_string(), n))
        .collect()
}

/// A transfer still on the bus when the last stream finishes an
/// iteration: `p1 → p2` (100 µs on `bus`) starts before `p0` ends its
/// iteration, and `p0` opens the next one with a short `bus` transfer to
/// `p3` that must wait for it. A skip must move the bus's free time with
/// the clock.
#[test]
fn a_medium_busy_across_a_boundary_stays_busy_after_a_skip() {
    let arch = hostile_architecture();
    let transfer = |from: &str, to: &str, medium: &str, bits: u64, tag: u32| {
        (
            MacroInstr::Send {
                to: to.into(),
                medium: medium.into(),
                bits,
                tag,
            },
            MacroInstr::Receive {
                from: from.into(),
                medium: medium.into(),
                bits,
                tag,
            },
        )
    };
    let compute = |us: u64| MacroInstr::Compute {
        op: "work".into(),
        function: "k".into(),
        duration: TimePs::from_us(us),
    };
    let (to_p3, p3_in) = transfer("p0", "p3", "bus", 64, 3);
    let (to_p1, p1_in) = transfer("p0", "p1", "link", 64, 1);
    let (to_p2, p2_in) = transfer("p1", "p2", "bus", 6400, 2);
    let mut exec = pdr_adequation::Executive::default();
    for (stream, program) in [
        ("p0", vec![to_p3, compute(10), to_p1, compute(50)]),
        ("p1", vec![to_p2, p1_in]),
        ("p2", vec![p2_in]),
        ("p3", vec![p3_in]),
    ] {
        exec.per_operator.insert(stream.into(), program);
    }
    let mut table = arch.symbols().clone();
    let ir = exec.lower(&mut table);
    let cfg = SimConfig::iterations(32);
    let (fast, skipped) = fast_and_full(&arch, &ir, &table, None, &cfg, "busy bus");
    let oracle = SimSystem::new(&arch, &exec)
        .run(&cfg)
        .map_err(|e| e.to_string());
    assert_eq!(fast, oracle);
    assert!(fast.is_ok());
    assert!(skipped > 0, "the run never reached a steady state");
}

/// A Belady region counts resident hits against its trace cursor. With
/// three modules and room for two, a stale cursor evicts the module the
/// trace needs next (after `a c b`, the next `a` must evict `c`, never
/// used again, not `b`): replaying those hits as statistics only would
/// drift. The engine snapshot includes the cursor, so such a run never
/// matches a boundary and stays on the full path, while the same
/// selection under LRU fast-forwards.
#[test]
fn a_moving_belady_cursor_keeps_runs_on_the_full_path() {
    let mut arch = ArchGraph::new("belady");
    arch.add_operator("op_dyn", OperatorKind::Processor)
        .unwrap();
    let mut exec = pdr_adequation::Executive::default();
    exec.per_operator.insert(
        "op_dyn".into(),
        vec![
            MacroInstr::Configure {
                module: "mod_a".into(),
                worst_case: TimePs::from_ms(4),
            },
            MacroInstr::Compute {
                op: "work".into(),
                function: "k".into(),
                duration: TimePs::from_us(1),
            },
        ],
    );
    let mut table = arch.symbols().clone();
    let ir = exec.lower(&mut table);
    let selection = modules(&[
        ("mod_a", 8),
        ("mod_c", 8),
        ("mod_b", 8),
        ("mod_a", 8),
        ("mod_b", 8),
    ]);
    let cfg = SimConfig::iterations(40).with_selection("op_dyn", selection.clone());
    let d = Device::xc2v2000();
    let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let engine = |eviction: EvictionSpec| {
        let streams: Vec<Bitstream> = (1..=3)
            .map(|seed| Bitstream::partial_for_region(&d, &region, seed))
            .collect();
        let mut spec = RegionSpec::new("op_dyn", 2 * streams[0].len_bytes()).eviction(eviction);
        for (name, bs) in ["mod_a", "mod_b", "mod_c"].into_iter().zip(streams) {
            spec = spec.module(name, bs);
        }
        let mut e = RtrEngineBuilder::new(
            d.clone(),
            PortProfile::icap_virtex2(),
            MemoryModel::paper_flash(),
        )
        .region(spec)
        .build()
        .unwrap();
        let a = e.module_index("mod_a").unwrap();
        e.preload(0, a).unwrap();
        e
    };
    let (belady, belady_skipped) = fast_and_full(
        &arch,
        &ir,
        &table,
        Some(&engine(EvictionSpec::Belady(selection))),
        &cfg,
        "belady",
    );
    let (lru, lru_skipped) = fast_and_full(
        &arch,
        &ir,
        &table,
        Some(&engine(EvictionSpec::Lru)),
        &cfg,
        "lru",
    );
    assert!(belady.is_ok() && lru.is_ok());
    assert_eq!(belady_skipped, 0);
    assert!(lru_skipped > 0);
}

#[test]
fn a_bad_module_after_a_skip_fails_as_on_the_full_path() {
    let (outcome, skipped) = contended_parity(
        TimePs::from_ns(10),
        modules(&[("mod_qpsk", 12), ("mod_ghost", 1), ("mod_qpsk", 11)]),
    );
    let err = outcome.unwrap_err();
    assert!(err.contains("mod_ghost"), "{err}");
    assert!(skipped > 0, "no skip before the bad selection");
}

#[test]
fn a_deadlock_after_a_skip_reports_as_on_the_full_path() {
    let (outcome, skipped) = contended_parity(
        TimePs::from_ns(10),
        modules(&[("mod_qpsk", 8), ("mod_qam16", 8)]),
    );
    let err = outcome.unwrap_err();
    assert!(err.contains("deadlock"), "{err}");
    assert!(err.contains("iter 8"), "{err}");
    assert!(skipped > 0, "no skip before the deadlock");
}

#[test]
fn a_time_overflow_a_skip_would_cross_is_reported_exactly() {
    // Each period lasts about `2 × unit`: the 64-iteration run passes
    // `u64::MAX` ps near iteration 32, well inside the span one skip
    // from the second boundary would cover.
    let (outcome, skipped) =
        contended_parity(TimePs::from_ps(u64::MAX / 64), modules(&[("mod_qpsk", 64)]));
    let err = outcome.unwrap_err();
    assert!(err.contains("overflow"), "{err}");
    assert!(skipped > 0, "no skip before the overflow");
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
        let mut fresh = SymbolTable::new();
        let ir = art.executive.lower(&mut fresh);
        let from_string = lint(
            &LintInput::new(&ir, &fresh)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints)
                .with_floorplan(&art.design.floorplan),
        );
        let from_carried = lint(
            &LintInput::new(&art.ir_executive, &art.symbols)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints)
                .with_floorplan(&art.design.floorplan),
        );
        assert_eq!(from_string, from_carried, "lint drift on `{}`", g.name);
        assert_eq!(
            render::to_text(&from_string),
            render::to_text(&from_carried)
        );
        assert_eq!(
            render::to_json_string(&from_string),
            render::to_json_string(&from_carried)
        );
    }
}

#[test]
fn mutated_executives_produce_byte_identical_diagnostics() {
    // Break the paper flow three different ways; each time the executive
    // lowered through a fresh symbol table and through the artifacts'
    // carried one must render the same findings byte for byte.
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
        let mut fresh = SymbolTable::new();
        let fresh_ir = executive.lower(&mut fresh);
        let from_string = lint(
            &LintInput::new(&fresh_ir, &fresh)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints),
        );
        let mut table = base.symbols.clone();
        let ir = executive.lower(&mut table);
        let from_carried = lint(
            &LintInput::new(&ir, &table)
                .with_arch(arch)
                .with_chars(chars)
                .with_constraints(&constraints),
        );
        assert!(
            from_string.has_errors(),
            "mutation {k} was supposed to break the flow"
        );
        assert_eq!(
            render::to_text(&from_string),
            render::to_text(&from_carried)
        );
        assert_eq!(
            render::to_json_string(&from_string),
            render::to_json_string(&from_carried)
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

// ------------------------------------------- ties and duplicate tags

/// A small hand-built executive decoded from proptest steps, for the
/// cases generated flows never produce. Each step `(a, b, tag, kind)` is:
///
/// * `kind` 0–19: a transfer from stream `a` to another stream `b` with
///   tag `tag % tag_span` — spread over the whole `u32` range when
///   `sparse` is set — so a small span repeats tags across transfers (and
///   every iteration reuses them all); the medium is one of two
///   identical media (equal transfer times, so arrivals tie) or, for
///   `kind` 19 with `ghost` set, a medium the architecture does not have;
/// * `kind` 20–25: a compute of `unit` on stream `a` (all computes last
///   the same, zero included);
/// * `kind` 26–30: a manager-less `Configure` charged `unit`;
/// * `kind` 31: half a transfer — a send or a receive nobody matches.
///
/// Transfers are appended to both streams in step order, so distinct
/// tags alone would never deadlock; repeated tags cross-match, overwrite
/// waiting parties and leave some blocked.
fn hostile_executive(
    streams: usize,
    steps: &[(u8, u8, u8, u8)],
    tag_span: u8,
    sparse: bool,
    ghost: bool,
    unit: TimePs,
) -> pdr_adequation::Executive {
    let name = |s: usize| format!("p{s}");
    let mut programs: Vec<Vec<MacroInstr>> = vec![Vec::new(); streams];
    for &(a, b, tag, kind) in steps {
        let src = usize::from(a) % streams;
        let dst = (src + 1 + usize::from(b) % (streams - 1)) % streams;
        let tag = u32::from(tag % tag_span) * if sparse { 0x0400_0001 } else { 1 };
        let medium = match kind {
            0..=9 => "bus",
            19 if ghost => "ghost",
            _ => "link",
        };
        let send = MacroInstr::Send {
            to: name(dst),
            medium: medium.into(),
            bits: 64,
            tag,
        };
        let recv = MacroInstr::Receive {
            from: name(src),
            medium: medium.into(),
            bits: 64,
            tag,
        };
        match kind {
            0..=19 => {
                programs[src].push(send);
                programs[dst].push(recv);
            }
            20..=25 => {
                let op = format!("op{}", programs[src].len());
                programs[src].push(MacroInstr::Compute {
                    op,
                    function: "k".into(),
                    duration: unit,
                });
            }
            26..=30 => programs[src].push(MacroInstr::Configure {
                module: "mod".into(),
                worst_case: unit,
            }),
            _ if b % 2 == 0 => programs[src].push(send),
            _ => programs[dst].push(recv),
        }
    }
    let mut exec = pdr_adequation::Executive::default();
    for (s, program) in programs.into_iter().enumerate() {
        exec.per_operator.insert(name(s), program);
    }
    exec
}

/// The architecture [`hostile_executive`] runs on: five processors and
/// two media with identical characteristics.
fn hostile_architecture() -> ArchGraph {
    let mut arch = ArchGraph::new("ties");
    let ops: Vec<_> = (0..5)
        .map(|s| {
            arch.add_operator(format!("p{s}"), OperatorKind::Processor)
                .unwrap()
        })
        .collect();
    for medium in ["bus", "link"] {
        let m = arch
            .add_medium(medium, MediumKind::Bus, 64_000_000, TimePs::from_ns(5))
            .unwrap();
        for &op in &ops {
            arch.link(op, m).unwrap();
        }
    }
    arch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The interned interpreter against the string oracle where their
    /// bookkeeping differs most: massive `(time, seq)` ties, tags shared
    /// across streams and iterations (overwritten and overflowing waiting
    /// parties) — dense or spread over the `u32` range — and transfers
    /// over a medium the architecture lacks.
    /// Successful runs compare whole traced reports; failed runs compare
    /// error text.
    #[test]
    fn tied_and_duplicate_tag_executives_simulate_alike(
        streams in 2usize..6,
        steps in prop::collection::vec((0u8..8, 0u8..8, 0u8..32, 0u8..32), 1..32),
        tag_span in 1u8..33,
        sparse in any::<bool>(),
        ghost in 0u8..4,
        unit_ns in 0u64..3,
        iterations in 1u32..7,
    ) {
        let arch = hostile_architecture();
        let unit = TimePs::from_ns(10 * unit_ns);
        let exec = hostile_executive(streams, &steps, tag_span, sparse, ghost == 0, unit);
        let mut table = arch.symbols().clone();
        let ir = exec.lower(&mut table);
        let cfg = SimConfig::iterations(iterations).with_trace();
        let oracle = SimSystem::new(&arch, &exec).run(&cfg);
        let interned = IrSimSystem::new(&arch, &ir, &table).run(&cfg);
        match (oracle, interned) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "outcomes differ: {:?} vs {:?}", a, b),
        }
    }
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
        // fresh and carried symbol tables agreeing both times.
        let constraints = ConstraintsFile::parse(&art.constraints_text).unwrap();
        let lint_pair = |art: &pdr_core::flow::FlowArtifacts| {
            let mut fresh = SymbolTable::new();
            let ir = art.executive.lower(&mut fresh);
            let from_string = lint(
                &LintInput::new(&ir, &fresh)
                    .with_arch(flow.architecture())
                    .with_chars(flow.characterization())
                    .with_constraints(&constraints)
                    .with_floorplan(&art.design.floorplan),
            );
            let from_carried = lint(
                &LintInput::new(&art.ir_executive, &art.symbols)
                    .with_arch(flow.architecture())
                    .with_chars(flow.characterization())
                    .with_constraints(&constraints)
                    .with_floorplan(&art.design.floorplan),
            );
            (render::to_text(&from_string), render::to_text(&from_carried))
        };
        let (s1, i1) = lint_pair(&art);
        prop_assert_eq!(&s1, &i1, "lint drift at seed {}", seed);
        let art2 = synthetic(&params).run().unwrap();
        let (s2, _) = lint_pair(&art2);
        prop_assert_eq!(&s1, &s2, "lint instability at seed {}", seed);
    }
}
