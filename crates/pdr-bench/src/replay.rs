//! Witness validation: replay model-checker counterexamples.
//!
//! A schedule witness from [`pdr_lint::model`] is only as trustworthy as the
//! transition semantics that produced it, so this module validates each
//! one twice, against *independent* implementations:
//!
//! 1. [`replay_witness`] — a from-scratch reference executor over the raw
//!    [`IrExecutive`] instructions (no shared code with the explorer's
//!    dense action tables). It steps the schedule, checking every step is
//!    enabled, and then checks the claimed defect actually holds at the
//!    end of the schedule.
//! 2. [`confirm_in_sim`] — the timed discrete-event simulator
//!    ([`pdr_sim::IrSimSystem`]). A deadlock witness must make the
//!    simulator report [`pdr_sim::SimError::Deadlock`] over the same
//!    blocked operators; a race or stale-hand-off witness must show up in
//!    the simulator's event trace as the corresponding overlap or
//!    compute→reconfigure→transfer ordering.
//!
//! Both return `Err` with a human-readable explanation on any mismatch —
//! the mutation suite treats that as an analyzer bug, which is the point:
//! the analyzer and the simulator differentially test each other.

use pdr_graph::{ArchGraph, ConstraintsFile};
use pdr_ir::{IrExecutive, IrInstr, SymbolTable};
use pdr_lint::model::{Step, Witness, WitnessDetail};
use pdr_lint::rendezvous::RendezvousPair;
use pdr_sim::{IrSimSystem, SimConfig, SimError, TraceKind};
use std::collections::BTreeMap;

/// The reference executor's state, in resolved-string space.
struct RefState<'a> {
    pcs: Vec<usize>,
    /// region name -> resident module name
    resident: BTreeMap<&'a str, String>,
    /// stream -> module name whose datum is in flight
    produced: BTreeMap<usize, String>,
}

/// Replay `witness` through an independent reference executor and verify
/// the claimed defect at the end of the schedule.
pub fn replay_witness(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    constraints: Option<&ConstraintsFile>,
    witness: &Witness,
) -> Result<(), String> {
    let streams = ir.operator_count();
    let mut st = RefState {
        pcs: vec![0; streams],
        resident: BTreeMap::new(),
        produced: BTreeMap::new(),
    };
    let region_of = |module: &str| -> Option<&str> {
        constraints
            .and_then(|c| c.module(module))
            .map(|mc| mc.region.as_str())
    };
    // Stale hand-offs observed while stepping, as (stream, index, module).
    let mut stale_events: Vec<(usize, usize, String)> = Vec::new();

    for (k, step) in witness.schedule.iter().enumerate() {
        match *step {
            Step::Local { stream, index } => {
                if stream >= streams || st.pcs[stream] != index {
                    return Err(format!(
                        "step {k}: local step at stream {stream}[{index}] but pc is {:?}",
                        st.pcs.get(stream)
                    ));
                }
                match ir.program(stream).get(index) {
                    Some(IrInstr::Compute { function, .. }) => {
                        let name = function.resolve(table);
                        if region_of(name).is_some() {
                            st.produced.insert(stream, name.to_string());
                        }
                    }
                    Some(IrInstr::Configure { module, .. }) => {
                        let name = module.resolve(table);
                        if let Some(region) = region_of(name) {
                            st.resident.insert(region, name.to_string());
                        }
                    }
                    other => {
                        return Err(format!(
                            "step {k}: local step on a non-local instruction {other:?}"
                        ));
                    }
                }
                st.pcs[stream] += 1;
            }
            Step::Rendezvous { pair } => {
                if !pairs.contains(&pair) {
                    return Err(format!("step {k}: pair tag {} not in analysis", pair.tag));
                }
                if st.pcs[pair.send_stream] != pair.send_idx
                    || st.pcs[pair.recv_stream] != pair.recv_idx
                {
                    return Err(format!(
                        "step {k}: rendezvous tag {} fired with peers not co-positioned",
                        pair.tag
                    ));
                }
                let send_ok = matches!(
                    ir.program(pair.send_stream).get(pair.send_idx),
                    Some(IrInstr::Send { tag, .. }) if *tag == pair.tag
                );
                let recv_ok = matches!(
                    ir.program(pair.recv_stream).get(pair.recv_idx),
                    Some(IrInstr::Receive { tag, .. }) if *tag == pair.tag
                );
                if !send_ok || !recv_ok {
                    return Err(format!(
                        "step {k}: rendezvous tag {} endpoints are not a Send/Receive pair",
                        pair.tag
                    ));
                }
                if let Some(module) = st.produced.remove(&pair.send_stream) {
                    let fresh = region_of(&module)
                        .map(|r| st.resident.get(r).map(String::as_str) == Some(module.as_str()))
                        .unwrap_or(true);
                    if !fresh {
                        stale_events.push((pair.send_stream, pair.send_idx, module));
                    }
                }
                st.pcs[pair.send_stream] += 1;
                st.pcs[pair.recv_stream] += 1;
            }
        }
    }

    // Enabledness of stream `i` at the final state, for the deadlock and
    // race checks.
    let enabled_local = |i: usize| -> bool {
        matches!(
            ir.program(i).get(st.pcs[i]),
            Some(IrInstr::Compute { .. }) | Some(IrInstr::Configure { .. })
        )
    };
    let enabled_comm = |i: usize| -> bool {
        pairs.iter().any(|p| {
            p.send_stream == i
                && st.pcs[p.send_stream] == p.send_idx
                && st.pcs[p.recv_stream] == p.recv_idx
        })
    };

    match &witness.detail {
        WitnessDetail::Deadlock { stuck } => {
            for &(stream, pc) in stuck {
                if st.pcs.get(stream) != Some(&pc) {
                    return Err(format!(
                        "deadlock claims stream {stream} stuck at {pc}, replay pc is {:?}",
                        st.pcs.get(stream)
                    ));
                }
            }
            for i in 0..streams {
                if enabled_local(i) || enabled_comm(i) {
                    return Err(format!(
                        "deadlock claimed but stream {i} still has an enabled transition"
                    ));
                }
            }
            if !stuck.iter().any(|&(s, pc)| pc < ir.program(s).len()) {
                return Err("deadlock claimed with no unfinished stream".into());
            }
            Ok(())
        }
        WitnessDetail::Race {
            configure,
            compute,
            module,
            region,
        } => {
            let module = module.resolve(table);
            if st.pcs[configure.0] != configure.1 || st.pcs[compute.0] != compute.1 {
                return Err("race endpoints are not at their claimed pcs".into());
            }
            if !enabled_local(configure.0) || !enabled_local(compute.0) {
                return Err("race endpoints are not both enabled".into());
            }
            let cfg_region = match ir.program(configure.0).get(configure.1) {
                Some(IrInstr::Configure { module, .. }) => region_of(module.resolve(table)),
                _ => return Err("race configure endpoint is not a Configure".into()),
            };
            let computes_module = matches!(
                ir.program(compute.0).get(compute.1),
                Some(IrInstr::Compute { function, .. }) if function.resolve(table) == module
            );
            if !computes_module {
                return Err(format!("race compute endpoint does not compute `{module}`"));
            }
            if cfg_region != Some(region.as_str()) {
                return Err(format!(
                    "race configure does not target region `{region}` (got {cfg_region:?})"
                ));
            }
            if st.resident.get(region.as_str()).map(String::as_str) != Some(module) {
                return Err(format!(
                    "region `{region}` does not hold `{module}` at the race"
                ));
            }
            Ok(())
        }
        WitnessDetail::StaleData { send, producer, .. } => {
            let producer = producer.resolve(table);
            if stale_events
                .iter()
                .any(|(s, i, m)| (*s, *i) == *send && m == producer)
            {
                Ok(())
            } else {
                Err(format!(
                    "replay saw no stale hand-off of `{producer}` at stream {}[{}] \
                     (observed: {stale_events:?})",
                    send.0, send.1
                ))
            }
        }
    }
}

/// Corroborate a witness against the timed simulator.
///
/// The simulator executes one *timed* interleaving, so this checks the
/// defect's simulator-visible footprint: a deadlock must deadlock the
/// simulator over the same operators; a reconfiguration race must show a
/// `Reconfigure` window overlapping the raced module's `Compute` on
/// another site; a stale hand-off must show compute → reconfigure →
/// transfer in program order on the sending site.
pub fn confirm_in_sim(
    arch: &ArchGraph,
    ir: &IrExecutive,
    table: &SymbolTable,
    witness: &Witness,
) -> Result<(), String> {
    let op_name = |stream: usize| ir.operator_sym(stream).resolve(table);
    match &witness.detail {
        WitnessDetail::Deadlock { stuck } => {
            let mut sys = IrSimSystem::new(arch, ir, table);
            match sys.run(&SimConfig::iterations(1)) {
                Err(SimError::Deadlock { blocked, .. }) => {
                    for &(stream, _) in stuck {
                        let name = op_name(stream);
                        if !blocked.iter().any(|(op, _)| op == name) {
                            return Err(format!(
                                "simulator deadlocked but `{name}` is not in its blocked set \
                                 {blocked:?}"
                            ));
                        }
                    }
                    Ok(())
                }
                Err(other) => Err(format!("simulator failed differently: {other}")),
                Ok(_) => Err("simulator completed despite the deadlock witness".into()),
            }
        }
        WitnessDetail::Race {
            configure, module, ..
        } => {
            let module = module.resolve(table);
            let cfg_site = op_name(configure.0);
            let trace = run_trace(arch, ir, table)?;
            let overlap = trace.iter().any(|r| {
                r.site == cfg_site
                    && matches!(&r.kind, TraceKind::Reconfigure { .. })
                    && trace.iter().any(|c| {
                        c.site != cfg_site
                            && matches!(&c.kind, TraceKind::Compute { function, .. }
                                if function == module)
                            && c.start < r.end
                            && r.start < c.end
                    })
            });
            if overlap {
                Ok(())
            } else {
                Err(format!(
                    "no simulated reconfiguration on `{cfg_site}` overlaps a compute of \
                     `{module}` elsewhere"
                ))
            }
        }
        WitnessDetail::StaleData { send, producer, .. } => {
            let producer = producer.resolve(table);
            let site = op_name(send.0);
            let trace = run_trace(arch, ir, table)?;
            let compute_end = trace
                .iter()
                .filter(|e| {
                    e.site == site
                        && matches!(&e.kind, TraceKind::Compute { function, .. }
                            if function == producer)
                })
                .map(|e| e.end)
                .min();
            let Some(compute_end) = compute_end else {
                return Err(format!("simulator never computed `{producer}` on `{site}`"));
            };
            let reconf_end = trace
                .iter()
                .filter(|e| {
                    e.site == site
                        && e.start >= compute_end
                        && matches!(&e.kind, TraceKind::Reconfigure { module, .. }
                            if module != producer)
                })
                .map(|e| e.end)
                .min();
            let Some(reconf_end) = reconf_end else {
                return Err(format!(
                    "simulator never reconfigured `{site}` away from `{producer}` after its \
                     compute"
                ));
            };
            let transferred_after = trace.iter().any(|e| {
                e.start >= reconf_end
                    && matches!(&e.kind, TraceKind::Transfer { from, .. } if from == site)
            });
            if transferred_after {
                Ok(())
            } else {
                Err(format!(
                    "simulator shows no transfer from `{site}` after the reconfiguration that \
                     evicted `{producer}`"
                ))
            }
        }
    }
}

fn run_trace(
    arch: &ArchGraph,
    ir: &IrExecutive,
    table: &SymbolTable,
) -> Result<Vec<pdr_sim::TraceEvent>, String> {
    let mut sys = IrSimSystem::new(arch, ir, table);
    sys.run(&SimConfig::iterations(1).with_trace())
        .map(|r| r.trace)
        .map_err(|e| format!("simulator failed to run the defective executive: {e}"))
}
