//! Floorplan and bitstream lints (PDR008–PDR011).
//!
//! The back-end rules the paper's §5 flow relies on are re-checked here
//! on the *artifact* rather than trusted from the constructors, and they
//! are family-parameterized through the device's
//! [`FamilyTable`](pdr_fabric::FamilyTable): on Virtex-II
//! regions are full-height column windows at least two CLB columns (four
//! slices) wide; on 2D families they are clock-region-aligned rectangles.
//! In both generations regions sit inside the device and pairwise
//! disjoint; bus macros straddle a region boundary on an interior
//! dividing line (within the region's row span on a rectangle); and every
//! dynamic module's partial bitstream is sized for exactly the frames of
//! the region it reconfigures (the static stream for the whole device).
//! Constructors in `pdr-fabric` enforce most of this on the way in, but
//! artifacts can also be assembled by hand, patched, or produced by a
//! future back-end — the lint is the independent witness.

use crate::diag::{Code, Diagnostic, Location, Severity};
use pdr_codegen::floorplan::FloorplanResult;
use pdr_fabric::{BitstreamKind, MIN_REGION_CLB_COLS};

/// Lint a placed design: floorplan geometry, bus macros, bitstreams.
pub fn check(result: &FloorplanResult) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let fp = &result.floorplan;
    let device = &fp.device;
    let table = device.table();

    // PDR008: per-region geometry.
    for r in fp.regions() {
        let min_cols = MIN_REGION_CLB_COLS;
        if r.clb_col_width < min_cols {
            let message = if table.regions_2d {
                format!(
                    "region `{}` is {} CLB column{} wide; the {} \
                     partial-reconfiguration minimum is {min_cols}",
                    r.name,
                    r.clb_col_width,
                    if r.clb_col_width == 1 { "" } else { "s" },
                    table.name,
                )
            } else {
                format!(
                    "region `{}` is {} CLB column{} wide; the Modular \
                     Design minimum is {min_cols} (four slices)",
                    r.name,
                    r.clb_col_width,
                    if r.clb_col_width == 1 { "" } else { "s" },
                )
            };
            diagnostics.push(
                Diagnostic::new(Code::RegionGeometry, message).at(Location::Region(r.name.clone())),
            );
        }
        // Row-span shape rules: device row bounds plus the family's shape
        // constraint (full height on Virtex-II, clock-region alignment on
        // 2D families). Both are vacuous for a full-height region.
        if let Some(span) = r.rows {
            if span.end() > device.clb_rows {
                diagnostics.push(
                    Diagnostic::new(
                        Code::RegionGeometry,
                        format!(
                            "region `{}` spans rows [{}, {}) but device \
                             `{}` has only {} CLB rows",
                            r.name,
                            span.clb_row_start,
                            span.end(),
                            device.name,
                            device.clb_rows
                        ),
                    )
                    .at(Location::Region(r.name.clone())),
                );
            }
        }
        if let Err(e) = table.check_region_shape(device, r) {
            diagnostics.push(
                Diagnostic::new(Code::RegionGeometry, format!("region `{}`: {e}", r.name))
                    .at(Location::Region(r.name.clone())),
            );
        }
        if r.clb_col_end() > device.clb_cols {
            diagnostics.push(
                Diagnostic::new(
                    Code::RegionGeometry,
                    format!(
                        "region `{}` spans columns [{}, {}) but device `{}` \
                         has only {} CLB columns",
                        r.name,
                        r.clb_col_start,
                        r.clb_col_end(),
                        device.name,
                        device.clb_cols
                    ),
                )
                .at(Location::Region(r.name.clone())),
            );
        } else if r.clb_col_start == 0 || r.clb_col_end() == device.clb_cols {
            diagnostics.push(
                Diagnostic::new(
                    Code::RegionGeometry,
                    format!(
                        "region `{}` touches a device edge; bus macros cannot \
                         straddle its outer boundary",
                        r.name
                    ),
                )
                .with_severity(Severity::Warning)
                .at(Location::Region(r.name.clone())),
            );
        }
    }

    // PDR009: pairwise overlap (columns × rows; the row interval is the
    // whole device for a full-height region).
    for (i, a) in fp.regions().iter().enumerate() {
        for b in fp.regions().iter().skip(i + 1) {
            if a.overlaps(b) {
                let message = if a.rows.is_some() || b.rows.is_some() {
                    let (ar0, arn) = a.rows_on(device);
                    let (br0, brn) = b.rows_on(device);
                    format!(
                        "regions `{}` cols [{}, {}) rows [{}, {}) and `{}` \
                         cols [{}, {}) rows [{}, {}) overlap",
                        a.name,
                        a.clb_col_start,
                        a.clb_col_end(),
                        ar0,
                        ar0 + arn,
                        b.name,
                        b.clb_col_start,
                        b.clb_col_end(),
                        br0,
                        br0 + brn
                    )
                } else {
                    format!(
                        "regions `{}` [{}, {}) and `{}` [{}, {}) overlap",
                        a.name,
                        a.clb_col_start,
                        a.clb_col_end(),
                        b.name,
                        b.clb_col_start,
                        b.clb_col_end()
                    )
                };
                diagnostics.push(
                    Diagnostic::new(Code::RegionOverlap, message)
                        .at(Location::Region(a.name.clone())),
                );
            }
        }
    }

    // PDR010: bus macro placement and collisions.
    for (i, bm) in fp.bus_macros().iter().enumerate() {
        if let Err(e) = bm.validate(device, fp.regions()) {
            diagnostics.push(Diagnostic::new(
                Code::BusMacroPlacement,
                format!(
                    "bus macro at row {} boundary column {}: {e}",
                    bm.clb_row, bm.boundary_clb_col
                ),
            ));
        }
        for other in fp.bus_macros().iter().skip(i + 1) {
            if bm.collides_with(other) {
                diagnostics.push(Diagnostic::new(
                    Code::BusMacroPlacement,
                    format!(
                        "two bus macros collide at row {} boundary column {}",
                        bm.clb_row, bm.boundary_clb_col
                    ),
                ));
            }
        }
    }

    // PDR011: bitstream consistency with the floorplan.
    for (module, region_name) in &result.region_of {
        let Some(bs) = result.bitstream_of(module) else {
            diagnostics.push(
                Diagnostic::new(
                    Code::BitstreamSize,
                    format!(
                        "module `{module}` is placed in region `{region_name}` \
                         but has no partial bitstream"
                    ),
                )
                .at(Location::Module(module.clone())),
            );
            continue;
        };
        if bs.device != device.name {
            diagnostics.push(
                Diagnostic::new(
                    Code::BitstreamSize,
                    format!(
                        "bitstream of `{module}` targets device `{}` but the \
                         floorplan is on `{}`",
                        bs.device, device.name
                    ),
                )
                .at(Location::Module(module.clone())),
            );
        }
        match &bs.kind {
            BitstreamKind::Full => diagnostics.push(
                Diagnostic::new(
                    Code::BitstreamSize,
                    format!(
                        "module `{module}` carries a full-device stream; a \
                         dynamic module needs a partial stream for \
                         `{region_name}`"
                    ),
                )
                .at(Location::Module(module.clone())),
            ),
            BitstreamKind::Partial { region } => {
                if region != region_name {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::BitstreamSize,
                            format!(
                                "bitstream of `{module}` reconfigures region \
                                 `{region}` but the module is placed in \
                                 `{region_name}`"
                            ),
                        )
                        .at(Location::Module(module.clone())),
                    );
                } else if let Some(r) = fp.region(region_name) {
                    let expected = r.frames(device);
                    if bs.frames() != expected {
                        diagnostics.push(
                            Diagnostic::new(
                                Code::BitstreamSize,
                                format!(
                                    "bitstream of `{module}` carries {} frames \
                                     but region `{region_name}` covers {expected}",
                                    bs.frames()
                                ),
                            )
                            .at(Location::Module(module.clone())),
                        );
                    }
                } else {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::BitstreamSize,
                            format!(
                                "module `{module}` is placed in region \
                                 `{region_name}` which the floorplan does not \
                                 contain"
                            ),
                        )
                        .at(Location::Module(module.clone())),
                    );
                }
            }
        }
    }
    match result.bitstream_of(FloorplanResult::STATIC_KEY) {
        None => diagnostics.push(Diagnostic::new(
            Code::BitstreamSize,
            "the design has no full static bitstream",
        )),
        Some(bs) => {
            if bs.is_partial() {
                diagnostics.push(Diagnostic::new(
                    Code::BitstreamSize,
                    "the static bitstream is partial; power-on configuration \
                     needs a full-device stream",
                ));
            } else if bs.frames() != device.total_frames() {
                diagnostics.push(Diagnostic::new(
                    Code::BitstreamSize,
                    format!(
                        "static bitstream carries {} frames but device `{}` \
                         has {}",
                        bs.frames(),
                        device.name,
                        device.total_frames()
                    ),
                ));
            }
        }
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::{Bitstream, BusMacro, BusMacroDirection, Device, Floorplan, ReconfigRegion};
    use std::collections::BTreeMap;

    fn result_with(fp: Floorplan) -> FloorplanResult {
        FloorplanResult {
            floorplan: fp,
            bitstreams: BTreeMap::new(),
            region_of: BTreeMap::new(),
            region_envelopes: BTreeMap::new(),
        }
    }

    fn legal() -> FloorplanResult {
        let device = Device::xc2v2000();
        let mut fp = Floorplan::new(device.clone());
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        fp.add_region(region.clone()).unwrap();
        fp.add_bus_macro(BusMacro::new(0, 20, BusMacroDirection::IntoRegion))
            .unwrap();
        fp.add_bus_macro(BusMacro::new(0, 24, BusMacroDirection::OutOfRegion))
            .unwrap();
        let mut r = result_with(fp);
        r.region_of.insert("mod_qpsk".into(), "op_dyn".into());
        r.bitstreams.insert(
            "mod_qpsk".into(),
            Bitstream::partial_for_region(&device, &region, 1),
        );
        r.bitstreams.insert(
            FloorplanResult::STATIC_KEY.into(),
            Bitstream::full_for_device(&device, 2),
        );
        r
    }

    #[test]
    fn legal_plan_is_clean() {
        assert!(check(&legal()).is_empty());
    }

    #[test]
    fn narrow_region_is_pdr008() {
        let device = Device::xc2v2000();
        let fp = Floorplan::from_parts(
            device,
            vec![ReconfigRegion {
                name: "thin".into(),
                clb_col_start: 10,
                clb_col_width: 1,
                rows: None,
            }],
            vec![],
        );
        let ds = check(&result_with(fp));
        assert!(ds
            .iter()
            .any(|d| d.code == Code::RegionGeometry && d.severity == Severity::Error));
    }

    #[test]
    fn edge_touching_region_is_a_pdr008_warning() {
        let device = Device::xc2v2000();
        let mut fp = Floorplan::new(device);
        fp.add_region(ReconfigRegion::new("edge", 0, 2).unwrap())
            .unwrap();
        let ds = check(&result_with(fp));
        assert!(ds
            .iter()
            .any(|d| d.code == Code::RegionGeometry && d.severity == Severity::Warning));
    }

    #[test]
    fn overlap_is_pdr009() {
        let device = Device::xc2v2000();
        let fp = Floorplan::from_parts(
            device,
            vec![
                ReconfigRegion::new("a", 10, 4).unwrap(),
                ReconfigRegion::new("b", 12, 4).unwrap(),
            ],
            vec![],
        );
        let ds = check(&result_with(fp));
        assert!(ds.iter().any(|d| d.code == Code::RegionOverlap));
    }

    #[test]
    fn stray_bus_macro_is_pdr010() {
        let device = Device::xc2v2000();
        let fp = Floorplan::from_parts(
            device,
            vec![ReconfigRegion::new("r", 20, 4).unwrap()],
            vec![BusMacro::new(0, 30, BusMacroDirection::IntoRegion)],
        );
        let ds = check(&result_with(fp));
        assert!(ds.iter().any(|d| d.code == Code::BusMacroPlacement));
    }

    #[test]
    fn colliding_bus_macros_are_pdr010() {
        let device = Device::xc2v2000();
        let fp = Floorplan::from_parts(
            device,
            vec![ReconfigRegion::new("r", 20, 4).unwrap()],
            vec![
                BusMacro::new(3, 20, BusMacroDirection::IntoRegion),
                BusMacro::new(3, 20, BusMacroDirection::OutOfRegion),
            ],
        );
        let ds = check(&result_with(fp));
        assert!(ds.iter().any(|d| d.code == Code::BusMacroPlacement));
    }

    #[test]
    fn wrong_region_bitstream_is_pdr011() {
        let mut r = legal();
        let device = Device::xc2v2000();
        let other = ReconfigRegion::new("elsewhere", 30, 2).unwrap();
        r.bitstreams.insert(
            "mod_qpsk".into(),
            Bitstream::partial_for_region(&device, &other, 1),
        );
        let ds = check(&r);
        assert!(ds.iter().any(|d| d.code == Code::BitstreamSize));
    }

    #[test]
    fn missing_streams_are_pdr011() {
        let mut r = legal();
        r.bitstreams.clear();
        let ds = check(&r);
        // One for the module, one for the static stream.
        assert_eq!(
            ds.iter().filter(|d| d.code == Code::BitstreamSize).count(),
            2
        );
    }

    #[test]
    fn s7_stacked_regions_are_not_an_overlap() {
        // Same columns, different clock-region bands: disjoint on a 2D
        // family (a full-height model would flag these).
        let device = Device::by_name("XC7A100T").unwrap();
        let fp = Floorplan::from_parts(
            device,
            vec![
                ReconfigRegion::rect("a", 10, 4, 0, 50).unwrap(),
                ReconfigRegion::rect("b", 10, 4, 50, 50).unwrap(),
            ],
            vec![],
        );
        let ds = check(&result_with(fp));
        assert!(ds.iter().all(|d| d.code != Code::RegionOverlap), "{ds:?}");
        assert!(ds.iter().all(|d| d.code != Code::RegionGeometry), "{ds:?}");
    }

    #[test]
    fn s7_misaligned_rect_is_pdr008() {
        let device = Device::by_name("XC7A100T").unwrap();
        let fp = Floorplan::from_parts(
            device,
            vec![ReconfigRegion {
                name: "skew".into(),
                clb_col_start: 10,
                clb_col_width: 4,
                rows: Some(pdr_fabric::RowSpan {
                    clb_row_start: 25,
                    clb_row_count: 50,
                }),
            }],
            vec![],
        );
        let ds = check(&result_with(fp));
        assert!(ds
            .iter()
            .any(|d| d.code == Code::RegionGeometry && d.severity == Severity::Error));
    }

    #[test]
    fn s7_overlap_message_reports_rows() {
        let device = Device::by_name("XC7A100T").unwrap();
        let fp = Floorplan::from_parts(
            device,
            vec![
                ReconfigRegion::rect("a", 10, 4, 0, 100).unwrap(),
                ReconfigRegion::rect("b", 12, 4, 50, 50).unwrap(),
            ],
            vec![],
        );
        let ds = check(&result_with(fp));
        let overlap = ds
            .iter()
            .find(|d| d.code == Code::RegionOverlap)
            .expect("rects sharing a band and columns must overlap");
        assert!(overlap.message.contains("rows [50, 100)"), "{overlap:?}");
    }
}
