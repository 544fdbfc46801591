//! Placement-constraints (UCF-style) emission.
//!
//! §5: *"All these constraints are fixed in a constraints file, used
//! during the placement and routing."* The Modular Design flow consumes a
//! UCF with one `AREA_GROUP` per reconfigurable module (full-height column
//! RANGE) and one `LOC` per bus-macro instance straddling the boundary.
//! [`emit_ucf`] regenerates that artifact from a [`FloorplanResult`], so
//! the reproduction ships the same file a designer would hand to the
//! vendor tools.

use crate::floorplan::FloorplanResult;
use pdr_fabric::BusMacroDirection;
use std::fmt::Write as _;

/// Emit the UCF-style placement constraints of a floorplanned design.
pub fn emit_ucf(result: &FloorplanResult) -> String {
    let device = &result.floorplan.device;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# generated by pdr-codegen for {} ({} x {} CLBs)",
        device.name, device.clb_rows, device.clb_cols
    );
    let _ = writeln!(s, "# modular-design area groups (full device height)");
    for region in result.floorplan.regions() {
        // Slice coordinates: X = 2 slices per CLB column, Y = 2 per CLB
        // row; a full-height region spans Y0..top, a rectangular one spans
        // its clock-region row window.
        let (row_start, row_count) = region.rows_on(device);
        let x0 = region.clb_col_start * 2;
        let x1 = region.clb_col_end() * 2 - 1;
        let y0 = row_start * 2;
        let y1 = (row_start + row_count) * 2 - 1;
        let _ = writeln!(
            s,
            "INST \"rm_{}\" AREA_GROUP = \"AG_{}\";",
            region.name, region.name
        );
        let _ = writeln!(
            s,
            "AREA_GROUP \"AG_{}\" RANGE = SLICE_X{}Y{}:SLICE_X{}Y{};",
            region.name, x0, y0, x1, y1
        );
        let _ = writeln!(s, "AREA_GROUP \"AG_{}\" MODE = RECONFIG;", region.name);
    }
    let _ = writeln!(
        s,
        "# bus macros (eight 3-state buffers each, straddling the boundary)"
    );
    for (i, bm) in result.floorplan.bus_macros().iter().enumerate() {
        let dir = match bm.direction {
            BusMacroDirection::IntoRegion => "in",
            BusMacroDirection::OutOfRegion => "out",
        };
        // Anchored on the slice just left of the dividing line.
        let x = bm.boundary_clb_col * 2 - 1;
        let y = bm.clb_row * 2;
        let _ = writeln!(
            s,
            "INST \"bm_{dir}_{i}\" LOC = \"SLICE_X{x}Y{y}\"; # boundary col {}, row {}",
            bm.boundary_clb_col, bm.clb_row
        );
    }
    // Module-to-group bindings.
    let _ = writeln!(s, "# reconfigurable module bindings");
    for (module, region) in &result.region_of {
        let _ = writeln!(s, "INST \"dyn_{module}\" AREA_GROUP = \"AG_{region}\";");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DynamicModuleDesign, ProcessKind, ProcessSpec};
    use crate::estimate::CostModel;
    use crate::floorplan::Floorplanner;
    use pdr_fabric::{Device, Resources};
    use pdr_graph::constraints::ModuleConstraints;
    use pdr_graph::ConstraintsFile;

    fn paper_result() -> FloorplanResult {
        let cost = CostModel::default();
        let module = |name: &str| {
            (
                DynamicModuleDesign {
                    module: name.into(),
                    operation: "modulation".into(),
                    region: "op_dyn".into(),
                    in_bits: 258,
                    out_bits: 2048,
                    bus_macros_in: cost.bus_macros_per_direction(),
                    bus_macros_out: cost.bus_macros_per_direction(),
                    shell: ProcessSpec {
                        name: format!("shell_{name}"),
                        kind: ProcessKind::OperatorBehaviour,
                        states: 4,
                    },
                    has_in_reconf: true,
                },
                Resources::logic(200, 350, 300),
            )
        };
        let mut cons = ConstraintsFile::new();
        let mut mc = ModuleConstraints::new("mod_qpsk", "op_dyn");
        mc.pin = Some((20, 4));
        cons.add(mc).unwrap();
        let modules = [module("mod_qpsk"), module("mod_qam16")];
        Floorplanner::new(Device::xc2v2000())
            .place(&modules, Resources::logic(2_000, 3_500, 2_400), &cons)
            .unwrap()
    }

    #[test]
    fn ucf_contains_area_group_with_full_height_range() {
        let ucf = emit_ucf(&paper_result());
        assert!(ucf.contains("AREA_GROUP \"AG_op_dyn\""));
        // Columns [20, 24) -> slices X40..X47; 56 rows -> Y0..Y111.
        assert!(ucf.contains("RANGE = SLICE_X40Y0:SLICE_X47Y111"), "{ucf}");
        assert!(ucf.contains("MODE = RECONFIG"));
    }

    #[test]
    fn ucf_locates_every_bus_macro() {
        let r = paper_result();
        let ucf = emit_ucf(&r);
        let locs = ucf.matches("LOC = \"SLICE_").count();
        assert_eq!(locs, r.floorplan.bus_macros().len());
        assert!(ucf.contains("bm_in_0"));
        assert!(ucf.contains("bm_out_"));
    }

    #[test]
    fn ucf_binds_modules_to_their_group() {
        let ucf = emit_ucf(&paper_result());
        assert!(ucf.contains("INST \"dyn_mod_qpsk\" AREA_GROUP = \"AG_op_dyn\";"));
        assert!(ucf.contains("INST \"dyn_mod_qam16\" AREA_GROUP = \"AG_op_dyn\";"));
    }

    #[test]
    fn ucf_names_the_device() {
        let ucf = emit_ucf(&paper_result());
        assert!(ucf.contains("XC2V2000"));
    }

    #[test]
    fn ucf_rect_range_covers_only_the_region_rows() {
        let cost = CostModel::default();
        let module = (
            DynamicModuleDesign {
                module: "m".into(),
                operation: "modulation".into(),
                region: "r".into(),
                in_bits: 258,
                out_bits: 2048,
                bus_macros_in: cost.bus_macros_per_direction(),
                bus_macros_out: cost.bus_macros_per_direction(),
                shell: ProcessSpec {
                    name: "shell_m".into(),
                    kind: ProcessKind::OperatorBehaviour,
                    states: 4,
                },
                has_in_reconf: true,
            },
            Resources::logic(200, 350, 300),
        );
        let result = Floorplanner::new(Device::by_name("XC7A100T").unwrap())
            .place(&[module], Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let ucf = emit_ucf(&result);
        let region = result.floorplan.region("r").unwrap();
        let (row_start, row_count) = region.rows_on(&result.floorplan.device);
        let y0 = row_start * 2;
        let y1 = (row_start + row_count) * 2 - 1;
        assert!(
            ucf.contains(&format!("Y{y0}:SLICE_X")) && ucf.contains(&format!("Y{y1};")),
            "{ucf}"
        );
        // A one-clock-region rectangle never claims the full device height.
        assert!(y1 < result.floorplan.device.clb_rows * 2 - 1);
    }
}
