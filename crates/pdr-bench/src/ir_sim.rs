//! String vs interned interpretation: the `pdr-ir` speedup study.
//!
//! Every gallery flow is deployed twice and its synchronized executive is
//! interpreted by both engines — `pdr-sim`'s original string
//! [`SimSystem`] walking `BTreeMap<String, Vec<MacroInstr>>`, and the
//! [`IrSimSystem`] walking the lowered, index-based `pdr-ir`
//! `IrExecutive` with zero per-event allocation. `benches/bench_ir_sim.rs` wraps the study for the command
//! line and persists a `BENCH_ir_sim.json` artifact through the
//! `pdr-sweep` writer.
//!
//! Two workloads per flow, on purpose:
//!
//! * **parity** — per-iteration module selections switching every 8
//!   iterations with full trace capture: the demanding workload
//!   (reconfiguration churn, manager interplay) under which the two
//!   reports must be identical;
//! * **timing** — steady state (no selection overrides, so every
//!   `Configure` hits the manager's already-loaded fast path). Switching
//!   workloads spend their wall time inside the *shared*
//!   `ConfigurationManager` model — bitstream fetch and port-protocol
//!   planning — which both engines call identically; steady state is what
//!   actually exercises the interpreters the study compares.
//!
//! Timing covers `run()` only: deployment plumbing (bitstream stores,
//! caches, constraint parsing) is rebuilt per repetition *outside* the
//! timed region via [`DeployedSystem::managers`], so the numbers compare
//! interpreters, not setup code.

use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::flow::FlowArtifacts;
use pdr_core::{gallery, FlowError};
use pdr_graph::ArchGraph;
use pdr_sim::{IrSimSystem, SimConfig, SimReport, SimSystem};
use serde::json::Value;
use std::time::Instant;

/// Iterations for the parity (switching) run on each flow.
const PARITY_ITERS: u32 = 32;

/// One gallery flow, compared.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Gallery flow name.
    pub name: String,
    /// Iterations the executive was repeated for in the timed runs.
    pub iterations: u32,
    /// Instructions in the lowered executive (per iteration).
    pub instructions: usize,
    /// Best-of-reps wall time of the string interpreter, nanoseconds.
    pub string_ns: u64,
    /// Best-of-reps wall time of the interned interpreter, nanoseconds.
    pub ir_ns: u64,
    /// Did both interpreters produce identical reports on the parity
    /// workload (selection switching, trace capture)?
    pub reports_match: bool,
}

impl CaseResult {
    /// String time over interned time (> 1 means the IR engine wins).
    pub fn speedup(&self) -> f64 {
        if self.ir_ns == 0 {
            return f64::INFINITY;
        }
        self.string_ns as f64 / self.ir_ns as f64
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.name.clone())),
            ("iterations", Value::UInt(u64::from(self.iterations))),
            ("instructions", Value::UInt(self.instructions as u64)),
            ("string_ns", Value::UInt(self.string_ns)),
            ("ir_ns", Value::UInt(self.ir_ns)),
            ("speedup", Value::Float(self.speedup())),
            ("reports_match", Value::Bool(self.reports_match)),
        ])
    }
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct IrSimComparison {
    /// One entry per gallery flow, in gallery order.
    pub cases: Vec<CaseResult>,
}

impl IrSimComparison {
    /// Did every flow produce identical reports on both engines?
    pub fn all_match(&self) -> bool {
        self.cases.iter().all(|c| c.reports_match)
    }

    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// JSON form for the artifact (schedule-independent apart from the
    /// two timing fields per case).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![(
            "cases",
            Value::Array(self.cases.iter().map(CaseResult::to_json).collect()),
        )])
    }

    /// Text table, one line per flow.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "flow                     iters  instrs   string_ms      ir_ms  speedup  match\n",
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{:<24} {:>5} {:>7} {:>11.3} {:>10.3} {:>7.2}x {:>6}\n",
                c.name,
                c.iterations,
                c.instructions,
                c.string_ns as f64 / 1e6,
                c.ir_ns as f64 / 1e6,
                c.speedup(),
                if c.reports_match { "yes" } else { "NO" },
            ));
        }
        out
    }
}

/// The per-flow parity workload: `iterations` iterations plus the module
/// selections driving each dynamic region (alternating in blocks of 8,
/// like the paper's DSP writing the `Select` register).
pub fn workload(flow_name: &str, iterations: u32) -> SimConfig {
    let block = |i: u32, a: &str, b: &str| {
        if (i / 8).is_multiple_of(2) {
            a.to_string()
        } else {
            b.to_string()
        }
    };
    let seq = |a: &str, b: &str| (0..iterations).map(|i| block(i, a, b)).collect::<Vec<_>>();
    match flow_name {
        "paper" => {
            SimConfig::iterations(iterations).with_selection("op_dyn", seq("mod_qpsk", "mod_qam16"))
        }
        "two_regions" | "two_regions_xc2v4000" | "sdr_series7" => SimConfig::iterations(iterations)
            .with_selection("d1", seq("fir_narrow", "fir_wide"))
            .with_selection("d2", seq("dec_viterbi", "dec_turbo")),
        "synthetic_large" => SimConfig::iterations(iterations)
            .with_selection("d1", seq("eq_short", "eq_long"))
            .with_selection("d2", seq("pc_fast", "pc_dense")),
        _ => SimConfig::iterations(iterations),
    }
}

/// The timing workload: steady state, interpretation-dominated (see the
/// module docs for why selection switching would measure the manager
/// model instead).
pub fn steady_workload(iterations: u32) -> SimConfig {
    SimConfig::iterations(iterations)
}

/// The differential oracle for [`DeployedSystem::simulate`]: the string
/// [`SimSystem`] interpreting `art.executive` over the deployment's
/// reference managers ([`DeployedSystem::managers`]). The two are written
/// independently — interpreter and runtime manager both — and must
/// produce identical reports.
pub fn simulate_reference(
    arch: &ArchGraph,
    art: &FlowArtifacts,
    dep: &DeployedSystem,
    config: &SimConfig,
) -> Result<SimReport, FlowError> {
    let mut sys = SimSystem::new(arch, &art.executive);
    for (region, mgr) in dep.managers()? {
        sys.add_manager(&region, mgr);
    }
    sys.run(config).map_err(FlowError::Sim)
}

/// Run the comparison over every gallery flow: `reps` timed repetitions
/// per engine (best time kept) of `iterations` steady-state executive
/// repetitions, plus one parity run per engine on the switching workload.
pub fn run(reps: usize, iterations: u32) -> Result<IrSimComparison, FlowError> {
    let reps = reps.max(1);
    let mut cases = Vec::new();
    for g in gallery::all() {
        let art = g.flow.run()?;
        let arch = g.flow.architecture();
        let device = g.flow.device().clone();
        let dep = DeployedSystem::new(arch, &art, device, RuntimeOptions::paper_baseline());

        // Parity: the demanding workload, full trace, reports compared.
        let parity_cfg = workload(g.name, PARITY_ITERS).with_trace();
        let string_report = simulate_reference(arch, &art, &dep, &parity_cfg)?;
        let mut sys = IrSimSystem::new(arch, &art.ir_executive, &art.symbols);
        for (region, mgr) in dep.managers()? {
            sys.add_manager(&region, mgr);
        }
        let ir_report = sys.run(&parity_cfg).map_err(FlowError::Sim)?;
        let reports_match = string_report == ir_report;

        // Timing: steady state, managers rebuilt per rep outside the
        // timed region.
        let cfg = steady_workload(iterations);
        let mut string_ns = u64::MAX;
        let mut ir_ns = u64::MAX;
        for _ in 0..reps {
            let mut sys = SimSystem::new(arch, &art.executive);
            for (region, mgr) in dep.managers()? {
                sys.add_manager(&region, mgr);
            }
            let t0 = Instant::now();
            sys.run(&cfg).map_err(FlowError::Sim)?;
            string_ns = string_ns.min(t0.elapsed().as_nanos() as u64);

            let mut sys = IrSimSystem::new(arch, &art.ir_executive, &art.symbols);
            for (region, mgr) in dep.managers()? {
                sys.add_manager(&region, mgr);
            }
            let t0 = Instant::now();
            sys.run(&cfg).map_err(FlowError::Sim)?;
            ir_ns = ir_ns.min(t0.elapsed().as_nanos() as u64);
        }

        cases.push(CaseResult {
            name: g.name.to_string(),
            iterations,
            instructions: art.ir_executive.len(),
            string_ns,
            ir_ns,
            reports_match,
        });
    }
    Ok(IrSimComparison { cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_the_gallery_and_reports_agree() {
        let cmp = run(1, 16).expect("gallery flows deploy");
        assert_eq!(cmp.cases.len(), gallery::names().len());
        assert!(cmp.all_match(), "{}", cmp.render());
        assert!(cmp.case("two_regions_xc2v4000").is_some());
        for c in &cmp.cases {
            assert!(c.instructions > 0, "{} lowered empty", c.name);
        }
    }

    #[test]
    fn workload_selections_match_iteration_count() {
        let cfg = workload("two_regions", 24);
        assert_eq!(cfg.iterations, 24);
        for sel in cfg.selections.values() {
            assert_eq!(sel.len(), 24);
        }
        assert!(workload("paper_fixed_qpsk", 8).selections.is_empty());
        assert!(steady_workload(8).selections.is_empty());
    }
}
