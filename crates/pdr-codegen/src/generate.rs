//! Macro-code → structural design translation.
//!
//! [`generate_design`] is the §5 "automatic design generation" step: it
//! turns the synchronized executive into one [`EntityDesign`] per FPGA
//! operator's static logic and one [`DynamicModuleDesign`] per
//! reconfigurable module, then runs the [`Floorplanner`] (Modular Design
//! analog) to obtain the floorplan and bitstreams, and prices everything
//! with the [`CostModel`].
//!
//! The translation rules mirror the paper's process list:
//!
//! * one *communication sequencer* per medium an operator touches, with one
//!   state per Send/Receive it performs there;
//! * one *computation sequencer* with one state per Compute/Configure;
//! * one *operator behaviour* instance per distinct function the operator
//!   hosts statically (bare footprint from the characterization);
//! * one *buffer* (with read/write phase control) per data edge whose
//!   producer or consumer lives on the operator;
//! * on static parts hosting a dynamic region: the *configuration manager*
//!   and *protocol builder* blocks;
//! * per conditioned alternative on a dynamic operator: a
//!   [`DynamicModuleDesign`] wrapping the function in the generic shell
//!   with `In_Reconf` and bus macros.

use crate::design::{
    BufferSpec, DynamicModuleDesign, EntityDesign, FunctionInstance, ProcessKind, ProcessSpec,
};
use crate::error::CodegenError;
use crate::estimate::CostModel;
use crate::floorplan::{FloorplanResult, Floorplanner};
use pdr_adequation::{Executive, MacroInstr, Mapping};
use pdr_fabric::{Device, Resources};
use pdr_graph::{AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, OperatorKind};
use serde::Serialize;
use std::collections::BTreeMap;

/// Everything the design-generation stage produces.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeneratedDesign {
    /// Static entity per FPGA operator (keyed by operator name). Processor
    /// operators get C code in the real flow; here they carry no entity.
    pub entities: BTreeMap<String, EntityDesign>,
    /// The reconfigurable modules.
    pub modules: Vec<DynamicModuleDesign>,
    /// Floorplan + bitstreams (Modular Design analog output).
    pub floorplan: FloorplanResult,
    /// Estimated resources per entity.
    pub entity_resources: BTreeMap<String, Resources>,
    /// Estimated resources per dynamic module (shell included).
    pub module_resources: BTreeMap<String, Resources>,
    /// Combined static-side resources (all static entities).
    pub static_resources: Resources,
}

/// Generate the full design for the FPGA operators of `arch`.
#[allow(clippy::too_many_arguments)]
pub fn generate_design(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    mapping: &Mapping,
    executive: &Executive,
    device: &Device,
    cost: &CostModel,
) -> Result<GeneratedDesign, CodegenError> {
    // A design generated from a partial mapping would silently drop
    // operations; reject it up front.
    for (id, op) in algo.ops() {
        if mapping.operator_of(id).is_none() {
            return Err(CodegenError::Adequation(
                pdr_adequation::AdequationError::Unmappable {
                    operation: op.name.clone(),
                    reason: "not assigned in the mapping handed to design generation".into(),
                },
            ));
        }
    }

    let mut entities: BTreeMap<String, EntityDesign> = BTreeMap::new();
    let mut modules: Vec<DynamicModuleDesign> = Vec::new();

    // Static parts hosting a dynamic region that actually hosts mapped
    // operations need the manager/builder blocks; an unused region costs
    // nothing in the static design.
    let hosts_with_dynamic: Vec<String> = arch
        .operators()
        .filter_map(|(id, o)| match &o.kind {
            OperatorKind::FpgaDynamic { host }
                if algo
                    .ops()
                    .any(|(op_id, _)| mapping.operator_of(op_id) == Some(id)) =>
            {
                Some(host.clone())
            }
            _ => None,
        })
        .collect();

    for (opr_id, opr) in arch.operators() {
        match &opr.kind {
            OperatorKind::Processor => {} // C code in the real flow
            OperatorKind::FpgaStatic => {
                let mut e = EntityDesign::new(&opr.name);
                let instrs = executive.of(&opr.name);
                // Communication sequencers: one per medium used.
                let mut per_medium: BTreeMap<String, u32> = BTreeMap::new();
                for i in instrs {
                    match i {
                        MacroInstr::Send { medium, .. } | MacroInstr::Receive { medium, .. } => {
                            *per_medium.entry(medium.clone()).or_insert(0) += 1;
                        }
                        _ => {}
                    }
                }
                for (medium, states) in per_medium {
                    e.processes.push(ProcessSpec {
                        name: format!("comm_seq_{medium}"),
                        kind: ProcessKind::CommunicationSequencer,
                        states,
                    });
                }
                // Computation sequencer.
                let comp_states = instrs
                    .iter()
                    .filter(|i| {
                        matches!(i, MacroInstr::Compute { .. } | MacroInstr::Configure { .. })
                    })
                    .count() as u32;
                if comp_states > 0 {
                    e.processes.push(ProcessSpec {
                        name: "comp_seq".into(),
                        kind: ProcessKind::ComputationSequencer,
                        states: comp_states,
                    });
                }
                // Operator behaviour instances: distinct functions hosted.
                for (op_id, op) in algo.ops() {
                    if mapping.operator_of(op_id) == Some(opr_id) {
                        for f in op.kind.functions() {
                            if !e.functions.iter().any(|fi| fi.function == *f) {
                                e.functions.push(FunctionInstance {
                                    function: f.clone(),
                                    operation: op.name.clone(),
                                });
                            }
                        }
                    }
                }
                // Buffers: one per incident data edge, with phase control.
                for edge in algo.edges() {
                    let touches = mapping.operator_of(edge.from) == Some(opr_id)
                        || mapping.operator_of(edge.to) == Some(opr_id);
                    if touches {
                        let name = format!(
                            "buf_{}_to_{}",
                            algo.op(edge.from).name,
                            algo.op(edge.to).name
                        );
                        e.buffers.push(BufferSpec {
                            name: name.clone(),
                            bits: edge.bits,
                        });
                        e.processes.push(ProcessSpec {
                            name: format!("{name}_ctl"),
                            kind: ProcessKind::BufferControl,
                            states: 4, // idle / write / full / read
                        });
                    }
                }
                // Manager + builder when this static part hosts a region.
                if hosts_with_dynamic.iter().any(|h| h == &opr.name) {
                    e.processes.push(ProcessSpec {
                        name: "config_manager".into(),
                        kind: ProcessKind::ConfigurationManager,
                        states: 0,
                    });
                    e.processes.push(ProcessSpec {
                        name: "protocol_builder".into(),
                        kind: ProcessKind::ProtocolBuilder,
                        states: 0,
                    });
                }
                entities.insert(opr.name.clone(), e);
            }
            OperatorKind::FpgaDynamic { .. } => {
                // One module per function the region hosts.
                let shell_states = executive
                    .of(&opr.name)
                    .iter()
                    .filter(|i| !i.is_comm())
                    .count()
                    .max(2) as u32;
                for (op_id, op) in algo.ops() {
                    if mapping.operator_of(op_id) != Some(opr_id) {
                        continue;
                    }
                    let in_bits: u64 = algo.in_edges(op_id).map(|e| e.bits).sum();
                    let out_bits: u64 = algo.out_edges(op_id).map(|e| e.bits).sum();
                    for f in op.kind.functions() {
                        modules.push(DynamicModuleDesign {
                            module: f.clone(),
                            operation: op.name.clone(),
                            region: opr.name.clone(),
                            in_bits,
                            out_bits,
                            bus_macros_in: cost.bus_macros_per_direction(),
                            bus_macros_out: cost.bus_macros_per_direction(),
                            shell: ProcessSpec {
                                name: format!("shell_{f}"),
                                kind: ProcessKind::OperatorBehaviour,
                                states: shell_states,
                            },
                            has_in_reconf: true,
                        });
                    }
                }
            }
        }
    }

    // Price everything.
    let mut entity_resources = BTreeMap::new();
    let mut static_resources = Resources::ZERO;
    for (name, e) in &entities {
        // Manager/builder already added as explicit processes above.
        let r = cost.entity_cost(e, chars, false);
        entity_resources.insert(name.clone(), r);
        static_resources += r;
    }
    let mut priced_modules = Vec::with_capacity(modules.len());
    let mut module_resources = BTreeMap::new();
    for m in &modules {
        let bare = chars.resources(&m.module);
        let r = cost.module_cost(m, bare);
        module_resources.insert(m.module.clone(), r);
        priced_modules.push((m.clone(), r));
    }

    // Floorplan + bitstreams.
    let planner = Floorplanner::new(device.clone());
    let floorplan = planner.place(&priced_modules, static_resources, constraints)?;

    Ok(GeneratedDesign {
        entities,
        modules,
        floorplan,
        entity_resources,
        module_resources,
        static_resources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::executive::generate_executive;
    use pdr_adequation::{adequate, AdequationOptions};
    use pdr_graph::paper;

    fn paper_design() -> (GeneratedDesign, Characterization) {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        let exec = generate_executive(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        let d = generate_design(
            &algo,
            &arch,
            &chars,
            &cons,
            &r.mapping,
            &exec,
            &Device::xc2v2000(),
            &CostModel::default(),
        )
        .unwrap();
        (d, chars)
    }

    #[test]
    fn generates_static_entity_with_all_process_kinds() {
        let (d, _) = paper_design();
        let e = &d.entities["fpga_static"];
        assert!(e.process_count(ProcessKind::CommunicationSequencer) >= 2); // shb + lio
        assert_eq!(e.process_count(ProcessKind::ComputationSequencer), 1);
        assert!(e.process_count(ProcessKind::BufferControl) >= 6);
        assert_eq!(e.process_count(ProcessKind::ConfigurationManager), 1);
        assert_eq!(e.process_count(ProcessKind::ProtocolBuilder), 1);
        assert!(e.functions.iter().any(|f| f.function == "ifft64"));
    }

    #[test]
    fn generates_one_module_per_alternative() {
        let (d, _) = paper_design();
        let names: Vec<&str> = d.modules.iter().map(|m| m.module.as_str()).collect();
        assert!(names.contains(&"mod_qpsk"));
        assert!(names.contains(&"mod_qam16"));
        for m in &d.modules {
            assert!(m.has_in_reconf);
            assert_eq!(m.region, "op_dyn");
            assert!(m.in_bits > 0 && m.out_bits > 0);
        }
    }

    #[test]
    fn dynamic_modules_cost_more_than_bare_functions() {
        // The Table 1 shape: shell overhead makes each dynamic module more
        // expensive than its fixed (bare) implementation.
        let (d, chars) = paper_design();
        for m in ["mod_qpsk", "mod_qam16"] {
            let bare = chars.resources(m);
            let shelled = d.module_resources[m];
            assert!(
                shelled.slices > bare.slices,
                "{m}: {} !> {}",
                shelled.slices,
                bare.slices
            );
            assert!(shelled.tbufs > 0);
        }
    }

    #[test]
    fn floorplan_matches_paper_pin_and_area() {
        let (d, _) = paper_design();
        let region = d.floorplan.floorplan.region("op_dyn").unwrap();
        assert_eq!(region.clb_col_start, 20);
        assert_eq!(region.clb_col_width, 4);
        assert_eq!(d.floorplan.bitstreams.len(), 3); // 2 modules + static
    }

    #[test]
    fn static_design_fits_device() {
        let (d, _) = paper_design();
        assert!(d.static_resources.slices < Device::xc2v2000().slices());
        assert!(
            d.static_resources.slices > 500,
            "static side is substantial"
        );
    }

    #[test]
    fn deterministic_generation() {
        let (a, _) = paper_design();
        let (b, _) = paper_design();
        assert_eq!(a, b);
    }
}
