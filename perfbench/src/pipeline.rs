//! One design through the flow: construct → compile → verify → deploy →
//! simulate.
//!
//! [`session`] is what the untraced workloads time: it calls the public
//! entry points a designer calls (`DesignFlow::run`, `DesignFlow::verify`,
//! `DeployedSystem::simulate`). [`staged`] is what the traced run times:
//! the same work split into the stages `DesignFlow::run` and
//! `DeployedSystem::simulate` perform, each called through its crate's
//! public function inside its own span. Its results are checked against
//! the same reference digests, so the breakdown cannot drift from the
//! program it explains.

use crate::check::{guarded, sim_digest, Checker, Reference};
use crate::trace::Tracer;
use pdr_adequation::executive::generate_executive;
use pdr_adequation::{adequate_with_index, AdequationIndex, ItemKind};
use pdr_codegen::{generate_design, ucf, vhdl, CostModel};
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::flow::{DesignFlow, FlowArtifacts};
use pdr_lint::model::{self, ModelConfig, ModelInput};
use pdr_lint::Severity;
use pdr_server::compute::sim_workload;
use pdr_sim::{SimReport, SimSystem};
use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Instant;

/// Wall time of each step of one untraced session, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct SessionTimes {
    /// `DesignFlow::run`.
    pub compile_ms: f64,
    /// `DesignFlow::verify`.
    pub verify_ms: f64,
    /// `DeployedSystem::new` + `DeployedSystem::simulate`.
    pub simulate_ms: f64,
    /// Construction through simulation.
    pub session_ms: f64,
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Deploy `artifacts` on the paper's baseline runtime (ICAP from flash,
/// no prefetch) — the deployment every workload simulates.
fn deployment<'a>(flow: &'a DesignFlow, artifacts: &'a FlowArtifacts) -> DeployedSystem<'a> {
    DeployedSystem::new(
        flow.architecture(),
        artifacts,
        flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    )
}

/// Check a session's outputs against its reference: one verdict each for
/// the compile, verify and simulate operations.
fn check_outputs(
    chk: &mut Checker,
    key: &str,
    reference: Option<Reference>,
    artifacts: u64,
    lint_errors: usize,
    sim: &SimReport,
    iterations: u32,
) {
    chk.expect(reference.map(|r| r.artifacts) == Some(artifacts), || {
        format!("{key}: artifact digest {artifacts:016x}, reference {reference:x?}")
    });
    chk.expect(lint_errors == 0, || {
        format!("{key}: {lint_errors} error-level lint diagnostics")
    });
    let digest = sim_digest(sim);
    let sim_ok = sim.iterations == iterations && reference.map(|r| r.sim) == Some(digest);
    chk.expect(sim_ok, || {
        format!(
            "{key}: simulated {} of {iterations} iterations, digest {digest:016x}, reference {reference:x?}",
            sim.iterations
        )
    });
}

/// One untraced designer session. Counts three operations (compile,
/// verify, simulate) on `chk`; returns the step times when every step ran.
pub fn session(
    construct: impl FnOnce() -> DesignFlow,
    key: &str,
    iterations: u32,
    reference: Option<Reference>,
    chk: &mut Checker,
) -> Option<SessionTimes> {
    for _ in 0..3 {
        chk.attempt();
    }
    let mut completed = 0u64;
    let result = guarded(|| {
        let t0 = Instant::now();
        let flow = construct();
        let t1 = Instant::now();
        let art = flow.run().map_err(|e| format!("compile: {e}"))?;
        let compile_ms = ms_since(t1);
        completed += 1;
        let t2 = Instant::now();
        let lint = flow.verify(&art);
        let verify_ms = ms_since(t2);
        completed += 1;
        let t3 = Instant::now();
        let sim = deployment(&flow, &art)
            .simulate(&sim_workload(&flow, iterations))
            .map_err(|e| format!("simulate: {e}"))?;
        let simulate_ms = ms_since(t3);
        let session_ms = ms_since(t0);
        completed += 1;
        let times = SessionTimes {
            compile_ms,
            verify_ms,
            simulate_ms,
            session_ms,
        };
        Ok((times, art.digest(), lint.count(Severity::Error), sim))
    });
    match result {
        Ok((times, digest, errors, sim)) => {
            check_outputs(chk, key, reference, digest, errors, &sim, iterations);
            Some(times)
        }
        Err(e) => {
            for _ in completed..3 {
                chk.fail(format!("{key}: {e}"));
            }
            None
        }
    }
}

/// Reference digests of one design through the unstaged entry points
/// (what `perfbench --bless` records).
pub fn reference_of(flow: &DesignFlow, iterations: u32) -> Result<Reference, String> {
    let art = flow.run().map_err(|e| e.to_string())?;
    let sim = deployment(flow, &art)
        .simulate(&sim_workload(flow, iterations))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        artifacts: art.digest(),
        sim: sim_digest(&sim),
    })
}

/// What a staged run continues with after compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Run `DesignFlow::verify` (and the model checker for its counters).
    pub verify: bool,
    /// Deploy and simulate this many iterations of the canonical workload.
    pub simulate: Option<u32>,
}

/// The results of one staged run.
pub struct Staged {
    /// The constructed flow.
    pub flow: DesignFlow,
    /// The assembled artifacts.
    pub artifacts: FlowArtifacts,
    /// Error-level lint diagnostics (0 when verify was skipped).
    pub lint_errors: usize,
    /// The simulation report, when simulated.
    pub sim: Option<SimReport>,
}

/// Scheduler index source for [`staged`].
pub enum IndexSource<'a> {
    /// Build a fresh index, as `DesignFlow::run` does.
    Build,
    /// Share indexes by `index_digest`, as the server's pool does; only a
    /// missing index is built (and timed).
    Pool(&'a mut BTreeMap<u64, AdequationIndex>),
}

/// One staged run under spans: construct, then every stage of
/// `DesignFlow::run_with_index` through its crate's public function,
/// then the requested tail. The digests a server pays for
/// (`model_digest`, `index_digest`) are timed after the `core.session`
/// span closes, so the session span covers exactly the untraced
/// session's work.
pub fn staged(
    tr: &mut Tracer,
    construct: impl FnOnce() -> Result<DesignFlow, String>,
    index: IndexSource<'_>,
    tail: Tail,
) -> Result<Staged, String> {
    let out = guarded(|| staged_inner(tr, construct, index, tail));
    tr.unwind();
    out
}

fn staged_inner(
    tr: &mut Tracer,
    construct: impl FnOnce() -> Result<DesignFlow, String>,
    index: IndexSource<'_>,
    tail: Tail,
) -> Result<Staged, String> {
    tr.begin("core.session");
    let flow = tr.span("core.resolve", construct)?;
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    let constraints = flow.constraints();
    tr.begin("core.compile");
    let built;
    let index = match index {
        IndexSource::Build => {
            built = tr
                .span("adequation.index", || flow.build_index())
                .map_err(|e| e.to_string())?;
            &built
        }
        IndexSource::Pool(pool) => {
            let digest = flow.index_digest();
            if let Entry::Vacant(slot) = pool.entry(digest) {
                let fresh = tr
                    .span("adequation.index", || flow.build_index())
                    .map_err(|e| e.to_string())?;
                slot.insert(fresh);
            }
            &pool[&digest]
        }
    };
    let adequation = tr
        .span("adequation.schedule", || {
            adequate_with_index(
                algo,
                arch,
                chars,
                constraints,
                flow.adequation_options(),
                index,
            )
        })
        .map_err(|e| e.to_string())?;
    let ops = adequation
        .schedule
        .operator_items
        .values()
        .flatten()
        .filter(|i| matches!(i.kind, ItemKind::Compute { .. }))
        .count();
    tr.count("adequation.ops_scheduled", ops as f64);
    let executive = tr
        .span("adequation.executive", || {
            generate_executive(algo, arch, chars, &adequation.mapping, &adequation.schedule)
        })
        .map_err(|e| e.to_string())?;
    tr.count("adequation.instructions", executive.len() as f64);
    // Every gallery and generated flow uses the default cost model; the
    // digest check catches any flow that does not.
    let design = tr
        .span("codegen.design", || {
            generate_design(
                algo,
                arch,
                chars,
                constraints,
                &adequation.mapping,
                &executive,
                flow.device(),
                &CostModel::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    let bitstream_bytes: usize = design
        .floorplan
        .bitstreams
        .values()
        .map(|b| b.len_bytes())
        .sum();
    tr.count("codegen.bitstream_bytes", bitstream_bytes as f64);
    let (vhdl_out, ucf_text) = tr.span("codegen.emit", || {
        let mut out = BTreeMap::new();
        for (name, entity) in &design.entities {
            out.insert(format!("{name}.vhd"), vhdl::emit_entity(entity));
        }
        for module in &design.modules {
            out.insert(
                format!("dyn_{}.vhd", module.module),
                vhdl::emit_module(module),
            );
        }
        (out, ucf::emit_ucf(&design.floorplan))
    });
    let (symbols, ir_executive) = tr.span("ir.lower", || {
        let mut symbols = arch.symbols().clone();
        symbols.absorb(algo.symbols());
        let ir = executive.lower(&mut symbols);
        (symbols, ir)
    });
    let artifacts = tr.span("core.assemble", || FlowArtifacts {
        adequation,
        executive,
        ir_executive,
        symbols,
        constraints_text: constraints.to_string(),
        design,
        vhdl: vhdl_out,
        ucf: ucf_text,
    });
    tr.count("codegen.vhdl_bytes", artifacts.vhdl_bytes() as f64);
    tr.end(); // core.compile

    let mut lint_errors = 0;
    if tail.verify {
        let report = tr.span("lint.verify", || flow.verify(&artifacts));
        lint_errors = report.count(Severity::Error);
    }
    let mut sim = None;
    if let Some(iterations) = tail.simulate {
        let config = sim_workload(&flow, iterations);
        let managers = tr
            .span("rtr.deploy", || deployment(&flow, &artifacts).managers())
            .map_err(|e| e.to_string())?;
        let report = tr
            .span("sim.run", || {
                let mut sys = SimSystem::new(arch, &artifacts.executive);
                for (region, mgr) in managers {
                    sys.add_manager(&region, mgr);
                }
                sys.run(&config)
            })
            .map_err(|e| e.to_string())?;
        sim = Some(report);
    }
    tr.end(); // core.session

    if let Some(report) = &sim {
        let fetches: u64 = report.manager_stats.values().map(|s| s.fetches).sum();
        tr.count("rtr.reconfigs", report.reconfig_count() as f64);
        tr.count("rtr.fetches", fetches as f64);
        tr.count("rtr.hidden_fetches", report.hidden_fetches() as f64);
        for r in &report.reconfigs {
            tr.count("rtr.ms_per_reconfig", r.latency().as_millis_f64());
        }
        tr.count("sim.iterations", report.iterations as f64);
    }
    tr.span("core.model_digest", || flow.model_digest());
    tr.span("core.index_digest", || flow.index_digest());
    if tail.verify {
        // The model checker's exploration counters, from the same input
        // `DesignFlow::verify` hands it.
        let stats = tr.span("lint.model_check", || {
            let rv = pdr_lint::rendezvous::check(&artifacts.ir_executive, &artifacts.symbols);
            let input = ModelInput {
                ir: &artifacts.ir_executive,
                table: &artifacts.symbols,
                pairs: &rv.pairs,
                constraints: Some(flow.constraints()),
            };
            model::check(&input, &ModelConfig::default()).stats
        });
        tr.count("lint.model_states", stats.states as f64);
        tr.count("lint.model_transitions", stats.transitions as f64);
    }
    Ok(Staged {
        flow,
        artifacts,
        lint_errors,
        sim,
    })
}

/// Count and check one staged designer session (compile, verify and
/// simulate operations) against its reference digests. With `direct`,
/// also compare the staged artifacts and report with a fresh
/// `DesignFlow::run` and `DeployedSystem::simulate`.
pub fn check_staged(
    chk: &mut Checker,
    key: &str,
    iterations: u32,
    reference: Option<Reference>,
    staged: Result<Staged, String>,
    direct: bool,
) {
    for _ in 0..3 {
        chk.attempt();
    }
    let s = match staged {
        Ok(s) => s,
        Err(e) => {
            for _ in 0..3 {
                chk.fail(format!("{key}: staged: {e}"));
            }
            return;
        }
    };
    let Some(sim) = &s.sim else {
        chk.fail(format!("{key}: staged session did not simulate"));
        return;
    };
    check_outputs(
        chk,
        key,
        reference,
        s.artifacts.digest(),
        s.lint_errors,
        sim,
        iterations,
    );
    if direct {
        chk.attempt();
        let same = guarded(|| {
            let art = s.flow.run().map_err(|e| e.to_string())?;
            let report = deployment(&s.flow, &art)
                .simulate(&sim_workload(&s.flow, iterations))
                .map_err(|e| e.to_string())?;
            Ok(art == s.artifacts && &report == sim)
        });
        chk.expect(same == Ok(true), || {
            format!("{key}: staged path differs from DesignFlow::run + simulate: {same:?}")
        });
    }
}
