//! Request execution: gallery flow resolution and the per-kind result
//! payloads.
//!
//! [`execute`] is a pure function of `(kind, flow models, iterations)` —
//! no clocks, no randomness, no worker identity — which is what makes the
//! whole serving layer cacheable and the determinism tests meaningful.
//! The cache-correctness proptest calls it directly to compare cached
//! responses against fresh compiles.

use crate::protocol::RequestKind;
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::flow::DesignFlow;
use pdr_core::gallery;
use pdr_fabric::digest::to_hex;
use pdr_graph::ConstraintsFile;
use pdr_lint::Severity;
use pdr_sim::SimConfig;
use serde::json::Value;
use std::collections::BTreeSet;

/// Resolve a request's flow: gallery lookup plus the optional
/// constraints-text override. The override round-trips through
/// [`ConstraintsFile::parse`], so malformed text is rejected here with
/// the parser's message instead of deep inside the pipeline.
pub fn resolve_flow(name: &str, constraints: Option<&str>) -> Result<DesignFlow, String> {
    let entry = gallery::by_name(name).ok_or_else(|| {
        format!(
            "unknown flow `{name}` (gallery: {})",
            gallery::names().join(", ")
        )
    })?;
    let flow = entry.flow;
    match constraints {
        None => Ok(flow),
        Some(text) => {
            let parsed = ConstraintsFile::parse(text)
                .map_err(|e| format!("bad constraints override: {e}"))?;
            Ok(flow.with_constraints(parsed))
        }
    }
}

/// The canonical simulation workload for a flow: for every dynamic region
/// named in the constraints file, alternate between the region's first two
/// modules (sorted by name) in blocks of 8 iterations — the same shape as
/// the `bench_ir_sim` workload, but derived from the constraints so it
/// follows constraint overrides instead of hard-coding gallery names.
/// Regions with a single module select it throughout; flows without
/// constraints simulate with no selections (fully static).
pub fn sim_workload(flow: &DesignFlow, iterations: u32) -> SimConfig {
    let mut config = SimConfig::iterations(iterations);
    let regions: BTreeSet<&str> = flow
        .constraints()
        .modules()
        .iter()
        .map(|m| m.region.as_str())
        .collect();
    for region in regions {
        let mut modules: Vec<&str> = flow
            .constraints()
            .modules_in_region(region)
            .iter()
            .map(|m| m.module.as_str())
            .collect();
        modules.sort_unstable();
        let (a, b) = (modules[0], *modules.last().unwrap_or(&modules[0]));
        let seq = (0..iterations)
            .map(|i| {
                if (i / 8) % 2 == 0 {
                    a.to_string()
                } else {
                    b.to_string()
                }
            })
            .collect();
        config = config.with_selection(region, seq);
    }
    config
}

/// Execute one request against a (typically shared) adequation index.
/// Returns the artifact digest plus the deterministic response payload.
pub fn execute(
    kind: RequestKind,
    flow: &DesignFlow,
    flow_name: &str,
    iterations: u32,
    index: &pdr_adequation::AdequationIndex,
) -> Result<(u64, Value), String> {
    let artifacts = flow.run_with_index(index).map_err(|e| e.to_string())?;
    let digest = artifacts.digest();
    let mut payload = Value::obj(vec![
        ("flow", Value::String(flow_name.to_string())),
        ("digest", Value::String(to_hex(digest))),
    ]);
    match kind {
        RequestKind::Compile => {
            payload.push_field(
                "makespan_ps",
                Value::UInt(artifacts.adequation.makespan.as_ps()),
            );
            payload.push_field(
                "operations",
                Value::UInt(flow.algorithm().ops().count() as u64),
            );
            payload.push_field(
                "instructions",
                Value::UInt(artifacts.ir_executive.len() as u64),
            );
            payload.push_field(
                "modules",
                Value::UInt(artifacts.design.modules.len() as u64),
            );
            payload.push_field(
                "regions",
                Value::UInt(artifacts.design.floorplan.floorplan.regions().len() as u64),
            );
            payload.push_field("vhdl_bytes", Value::UInt(artifacts.vhdl_bytes() as u64));
        }
        RequestKind::Verify => {
            let report = flow.verify(&artifacts);
            let codes: BTreeSet<&str> =
                report.diagnostics.iter().map(|d| d.code.as_str()).collect();
            payload.push_field("clean", Value::Bool(report.is_clean()));
            payload.push_field("errors", Value::UInt(report.count(Severity::Error) as u64));
            payload.push_field(
                "warnings",
                Value::UInt(report.count(Severity::Warning) as u64),
            );
            payload.push_field(
                "codes",
                Value::Array(
                    codes
                        .into_iter()
                        .map(|c| Value::String(c.to_string()))
                        .collect(),
                ),
            );
            // Full structured diagnostics (code, severity, message,
            // location, witness-trace notes), in the deterministic
            // sorted order — clients diff these across submissions.
            payload.push_field(
                "diagnostics",
                Value::Array(
                    report
                        .sorted()
                        .diagnostics
                        .iter()
                        .map(|d| d.to_json())
                        .collect(),
                ),
            );
        }
        RequestKind::Simulate => {
            let config = sim_workload(flow, iterations);
            let deployed = DeployedSystem::new(
                flow.architecture(),
                &artifacts,
                flow.device().clone(),
                RuntimeOptions::paper_baseline(),
            );
            let report = deployed.simulate(&config).map_err(|e| e.to_string())?;
            let fetches: u64 = report.manager_stats.values().map(|s| s.fetches).sum();
            payload.push_field("iterations", Value::UInt(report.iterations as u64));
            payload.push_field("makespan_ps", Value::UInt(report.makespan.as_ps()));
            payload.push_field("reconfigs", Value::UInt(report.reconfig_count() as u64));
            payload.push_field("fetches", Value::UInt(fetches));
            payload.push_field("lockup_ps", Value::UInt(report.lockup_time().as_ps()));
        }
    }
    Ok((digest, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    #[test]
    fn resolve_rejects_unknown_flows_and_bad_overrides() {
        assert!(resolve_flow("paper", None).is_ok());
        let err = resolve_flow("nope", None).unwrap_err();
        assert!(err.contains("unknown flow"), "{err}");
        assert!(err.contains("paper"), "lists the gallery: {err}");
        let err = resolve_flow("paper", Some("[module")).unwrap_err();
        assert!(err.contains("bad constraints override"), "{err}");
    }

    #[test]
    fn constraint_override_replaces_the_file_but_shares_the_index() {
        let base = resolve_flow("paper", None).unwrap();
        let text = base.constraints().to_string();
        let same = resolve_flow("paper", Some(&text)).unwrap();
        assert_eq!(same.constraints().to_string(), text);
        let stripped = resolve_flow("paper", Some("")).unwrap();
        assert!(stripped.constraints().modules().is_empty());
        // The index doesn't see constraints, so it stays shared.
        assert_eq!(base.index_digest(), stripped.index_digest());
    }

    #[test]
    fn workload_follows_the_constraints_file() {
        let paper = resolve_flow("paper", None).unwrap();
        let cfg = sim_workload(&paper, 24);
        assert_eq!(cfg.iterations, 24);
        let sel = &cfg.selections["op_dyn"];
        assert_eq!(sel.len(), 24);
        assert_eq!(sel[0], "mod_qam16"); // first sorted module
        assert_eq!(sel[8], "mod_qpsk"); // block switch
                                        // Static flow: no selections at all.
        let fixed = resolve_flow("paper_fixed_qpsk", None).unwrap();
        assert!(sim_workload(&fixed, 8).selections.is_empty());
        // Two regions: one selection stream per region.
        let sdr = resolve_flow("two_regions", None).unwrap();
        assert_eq!(sim_workload(&sdr, 8).selections.len(), 2);
    }

    #[test]
    fn execute_produces_deterministic_payloads_per_kind() {
        let flow = resolve_flow("paper", None).unwrap();
        let index = flow.build_index().unwrap();
        for kind in [
            RequestKind::Compile,
            RequestKind::Verify,
            RequestKind::Simulate,
        ] {
            let (d1, p1) = execute(kind, &flow, "paper", 16, &index).unwrap();
            let (d2, p2) = execute(kind, &flow, "paper", 16, &index).unwrap();
            assert_eq!(d1, d2);
            assert_eq!(json::to_string(&p1), json::to_string(&p2));
            assert_eq!(p1.get("flow").and_then(Value::as_str), Some("paper"));
            assert_eq!(
                p1.get("digest").and_then(Value::as_str),
                Some(to_hex(d1).as_str())
            );
        }
        let (_, compile) = execute(RequestKind::Compile, &flow, "paper", 16, &index).unwrap();
        assert_eq!(compile.get("regions").and_then(Value::as_u64), Some(1));
        assert!(compile.get("vhdl_bytes").and_then(Value::as_u64).unwrap() > 1000);
        let (_, verify) = execute(RequestKind::Verify, &flow, "paper", 16, &index).unwrap();
        assert_eq!(verify.get("clean").and_then(Value::as_bool), Some(true));
        // Structured diagnostics ride along (empty on a clean flow).
        let diags = verify.get("diagnostics").and_then(Value::as_array).unwrap();
        assert!(diags.is_empty());
        let (_, sim) = execute(RequestKind::Simulate, &flow, "paper", 16, &index).unwrap();
        assert_eq!(sim.get("iterations").and_then(Value::as_u64), Some(16));
        assert!(sim.get("reconfigs").and_then(Value::as_u64).unwrap() > 0);
    }
}
