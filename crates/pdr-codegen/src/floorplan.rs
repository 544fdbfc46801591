//! The Modular Design analog: floorplanning and bitstream generation.
//!
//! §5: *"The Xilinx Modular back-end flow is used to place and route each
//! module and to generate the associated bitstream, resulting in a typical
//! floorplan. Concerning the place and route constraints, reconfigurable
//! modules have the following properties: the height of the module is
//! always the full height of the device and its width ranges a minimal of
//! four slices."*
//!
//! [`Floorplanner::place`] reproduces that flow over the `pdr-fabric`
//! device model: per region it sizes a window from the *envelope* of the
//! modules sharing the region (they are resident one at a time), honors
//! constraints-file pins, allocates bus macros on the region boundary,
//! verifies the static side still fits, and emits one partial bitstream
//! per module plus the static full bitstream. One loop serves every
//! family; only the window choice differs. A Virtex-II device is one
//! configuration row tall, so its window is the paper's full-height
//! column window; a family with 2D regions packs clock-region rectangles.

use crate::design::DynamicModuleDesign;
use crate::error::CodegenError;
use pdr_fabric::{
    Bitstream, BusMacro, BusMacroDirection, Device, Floorplan, ReconfigRegion, Resources,
    MIN_REGION_CLB_COLS,
};
use pdr_graph::ConstraintsFile;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Result of placing a generated design on a device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FloorplanResult {
    /// The legal floorplan (regions + bus macros).
    pub floorplan: Floorplan,
    /// Partial bitstream per module, plus the full static stream under
    /// [`FloorplanResult::STATIC_KEY`].
    pub bitstreams: BTreeMap<String, Bitstream>,
    /// Region each module was placed in.
    pub region_of: BTreeMap<String, String>,
    /// Estimated per-region envelope resources.
    pub region_envelopes: BTreeMap<String, Resources>,
}

impl FloorplanResult {
    /// Key of the static full bitstream in [`FloorplanResult::bitstreams`].
    pub const STATIC_KEY: &'static str = "__static__";

    /// The partial bitstream of `module`.
    pub fn bitstream_of(&self, module: &str) -> Option<&Bitstream> {
        self.bitstreams.get(module)
    }
}

/// The placement engine.
#[derive(Debug, Clone)]
pub struct Floorplanner {
    device: Device,
}

impl Floorplanner {
    /// Floorplanner for `device`.
    pub fn new(device: Device) -> Self {
        Floorplanner { device }
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Place the dynamic modules (with their estimated costs) and check the
    /// static side fits the remaining fabric.
    ///
    /// `modules` carries each module's design and estimated resources;
    /// `static_resources` is the static entity total.
    ///
    /// One loop serves both families: per region it takes the envelope of
    /// the modules sharing it, checks a constraints-file pin, picks a
    /// window, adds the region and its bus macros, and advances one column
    /// cursor per configuration-row band. Only the window choice is per
    /// family. Virtex-II has one band, the full device height, and
    /// `column_window` sizes the paper's column window from the slice
    /// envelope. Families with 2D regions shelf-pack clock-region
    /// rectangles sized from the full resource vector (slices, LUTs, FFs,
    /// BRAMs, multipliers) in `shelf_window`.
    pub fn place(
        &self,
        modules: &[(DynamicModuleDesign, Resources)],
        static_resources: Resources,
        constraints: &ConstraintsFile,
    ) -> Result<FloorplanResult, CodegenError> {
        let device = &self.device;
        let mut floorplan = Floorplan::new(device.clone());
        let mut by_region: BTreeMap<String, Vec<&(DynamicModuleDesign, Resources)>> =
            BTreeMap::new();
        for entry in modules {
            by_region
                .entry(entry.0.region.clone())
                .or_default()
                .push(entry);
        }

        let mut region_envelopes = BTreeMap::new();
        let mut region_of = BTreeMap::new();
        // Regions fill each band left to right from column 1, one static
        // column apart: neither boundary touches a device edge or another
        // region's, so bus macros can straddle both.
        let mut shelf = vec![1u32; device.clock_regions() as usize];
        for (region_name, entries) in &by_region {
            let first = entries.first().ok_or_else(|| {
                CodegenError::Internal(format!("region `{region_name}` grouped with no modules"))
            })?;
            let module = &first.0.module;
            let envelope = entries
                .iter()
                .fold(Resources::ZERO, |acc, (_, r)| acc.envelope(r));
            let pin = entries
                .iter()
                .find_map(|(m, _)| constraints.module(&m.module).and_then(|c| c.pin));
            if let Some((start, width)) = pin {
                let end = start.checked_add(width.max(MIN_REGION_CLB_COLS));
                if start == 0 || end.is_none_or(|end| end >= device.clb_cols) {
                    return Err(CodegenError::PinConflict(format!(
                        "region `{region_name}` is pinned to {width} columns from column \
                         {start}, outside the interior of device `{}` ({} CLB columns)",
                        device.name, device.clb_cols
                    )));
                }
            }
            let (region, band, bands) = if device.table().regions_2d {
                self.shelf_window(region_name, module, &envelope, pin, &shelf)?
            } else {
                self.column_window(region_name, module, &envelope, pin, shelf[0])?
            };
            let (start, end) = (region.clb_col_start, region.clb_col_end());
            let (row_start, row_count) = region.rows_on(device);
            floorplan.add_region(region).map_err(|e| match e {
                pdr_fabric::FabricError::RegionOverlap { a, b } => {
                    CodegenError::PinConflict(format!("regions `{a}` and `{b}` overlap"))
                }
                other => CodegenError::Fabric(other),
            })?;
            for cursor in &mut shelf[band as usize..(band + bands) as usize] {
                *cursor = (*cursor).max(end + 1);
            }

            // Bus macros sit in the region's rows from its top: inputs on
            // the left boundary, outputs on the right.
            let macros_in = entries
                .iter()
                .map(|(m, _)| m.bus_macros_in)
                .max()
                .unwrap_or(0);
            let macros_out = entries
                .iter()
                .map(|(m, _)| m.bus_macros_out)
                .max()
                .unwrap_or(0);
            if macros_in + macros_out > row_count {
                return Err(CodegenError::PinConflict(format!(
                    "region `{region_name}` needs {} bus-macro rows, its window has {row_count}",
                    macros_in + macros_out
                )));
            }
            let boundaries = [
                (macros_in, start, BusMacroDirection::IntoRegion),
                (macros_out, end, BusMacroDirection::OutOfRegion),
            ];
            for (count, col, direction) in boundaries {
                for i in 0..count {
                    floorplan
                        .add_bus_macro(BusMacro::new(row_start + i, col, direction))
                        .map_err(CodegenError::Fabric)?;
                }
            }
            region_envelopes.insert(region_name.clone(), envelope);
            for (m, _) in entries {
                region_of.insert(m.module.clone(), region_name.clone());
            }
        }

        // Static side must fit the remaining slices.
        if static_resources.slices > floorplan.static_slices() {
            return Err(CodegenError::DeviceFull {
                needed_slices: static_resources.slices,
                capacity: floorplan.static_slices(),
            });
        }

        // Bitstreams: per-module partials + the static full stream.
        let mut bitstreams = BTreeMap::new();
        for (m, _) in modules {
            let region = floorplan.region(&m.region).ok_or_else(|| {
                CodegenError::Internal(format!(
                    "module `{}` targets region `{}` which was never placed",
                    m.module, m.region
                ))
            })?;
            let fp = fingerprint(&m.module, &m.region);
            bitstreams.insert(
                m.module.clone(),
                Bitstream::partial_for_region(device, region, fp),
            );
        }
        bitstreams.insert(
            FloorplanResult::STATIC_KEY.to_string(),
            Bitstream::full_for_device(device, fingerprint("__static__", "")),
        );

        Ok(FloorplanResult {
            floorplan,
            bitstreams,
            region_of,
            region_envelopes,
        })
    }

    /// The Virtex-II window: full height, at the pin or else at the column
    /// cursor (a pin may sit left of it), as wide as the envelope's slices
    /// need and at least the pinned width.
    fn column_window(
        &self,
        name: &str,
        module: &str,
        envelope: &Resources,
        pin: Option<(u32, u32)>,
        cursor: u32,
    ) -> Result<Window, CodegenError> {
        // A full column holds rows × slices-per-CLB slices.
        let slices_per_col = self.device.clb_rows * self.device.table().slices_per_clb;
        let sized = envelope
            .slices
            .div_ceil(slices_per_col)
            .max(MIN_REGION_CLB_COLS);
        let (start, width) = pin.map_or((cursor, sized), |(s, w)| (s, sized.max(w)));
        if start
            .checked_add(width)
            .is_none_or(|end| end >= self.device.clb_cols)
        {
            return Err(CodegenError::DoesNotFit {
                module: module.to_string(),
                needed_slices: envelope.slices,
                available_slices: self.device.clb_cols.saturating_sub(start.saturating_add(1))
                    * slices_per_col,
            });
        }
        let region = ReconfigRegion::new(name, start, width).map_err(CodegenError::Fabric)?;
        Ok((region, 0, 1))
    }

    /// The 2D window: for heights of 1..n clock-region bands and each band
    /// position in turn, a rectangle at the pin or else at the cursor of
    /// the bands it spans, grown from the pinned (or minimum) width until
    /// its resource vector covers the envelope. The first that fits wins.
    fn shelf_window(
        &self,
        name: &str,
        module: &str,
        envelope: &Resources,
        pin: Option<(u32, u32)>,
        shelf: &[u32],
    ) -> Result<Window, CodegenError> {
        let cr_rows = self.device.table().row_height(&self.device);
        let bands = shelf.len() as u32;
        for height in 1..=bands {
            for band in 0..=(bands - height) {
                let cursor = shelf[band as usize..(band + height) as usize]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(1);
                let start = pin.map_or(cursor, |(s, _)| s);
                if start < cursor {
                    continue;
                }
                let mut width =
                    pin.map_or(MIN_REGION_CLB_COLS, |(_, w)| w.max(MIN_REGION_CLB_COLS));
                while start
                    .checked_add(width)
                    .is_some_and(|end| end < self.device.clb_cols)
                {
                    let candidate =
                        ReconfigRegion::rect(name, start, width, band * cr_rows, height * cr_rows)
                            .map_err(CodegenError::Fabric)?;
                    if candidate.resources(&self.device).covers(envelope) {
                        return Ok((candidate, band, height));
                    }
                    width += 1;
                }
            }
        }
        Err(CodegenError::DoesNotFit {
            module: module.to_string(),
            needed_slices: envelope.slices,
            available_slices: self.device.slices(),
        })
    }
}

/// A chosen window: the region, its first clock-region band and the
/// number of bands it spans.
type Window = (ReconfigRegion, u32, u32);

/// Deterministic module fingerprint (stands in for synthesis output).
fn fingerprint(module: &str, region: &str) -> u64 {
    let mut h = DefaultHasher::new();
    module.hash(&mut h);
    region.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{ProcessKind, ProcessSpec};
    use crate::estimate::CostModel;
    use pdr_graph::{constraints::ModuleConstraints, ConstraintsFile};

    fn module(name: &str, region: &str, slices: u32) -> (DynamicModuleDesign, Resources) {
        let cost = CostModel::default();
        (
            DynamicModuleDesign {
                module: name.into(),
                operation: "modulation".into(),
                region: region.into(),
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
            Resources::logic(slices, slices * 2, slices * 2),
        )
    }

    fn planner() -> Floorplanner {
        Floorplanner::new(Device::xc2v2000())
    }

    fn paper_pin() -> ConstraintsFile {
        let mut f = ConstraintsFile::new();
        let mut mc = ModuleConstraints::new("mod_qpsk", "op_dyn");
        mc.pin = Some((20, 4));
        f.add(mc).unwrap();
        f
    }

    #[test]
    fn paper_region_placed_at_pin() {
        let modules = [
            module("mod_qpsk", "op_dyn", 200),
            module("mod_qam16", "op_dyn", 320),
        ];
        let r = planner()
            .place(
                &modules,
                Resources::logic(3_000, 5_000, 4_500),
                &paper_pin(),
            )
            .unwrap();
        let region = r.floorplan.region("op_dyn").unwrap();
        assert_eq!(region.clb_col_start, 20);
        assert_eq!(region.clb_col_width, 4);
        // ~8 % of the device, the §6 number.
        let frac = r.floorplan.dynamic_fraction();
        assert!((frac - 4.0 / 48.0).abs() < 1e-9, "{frac}");
        assert_eq!(r.region_of["mod_qpsk"], "op_dyn");
        assert_eq!(r.region_of["mod_qam16"], "op_dyn");
    }

    #[test]
    fn pins_whose_window_leaves_the_device_conflict() {
        // A pinned window must start past column 0 and end before the last
        // CLB column; `start + width` past `u32::MAX` once wrapped to a
        // window inside the device. Both families name the pinned columns.
        let modules = [module("mod_qpsk", "op_dyn", 200)];
        for device in [Device::xc2v2000(), Device::by_name("XC7A100T").unwrap()] {
            let cols = device.clb_cols;
            let pins = [
                (20, u32::MAX - 3),
                (u32::MAX, 4),
                (u32::MAX, u32::MAX),
                (0, 4),
                (cols - 4, 4),
                (cols - 2, 0),
            ];
            for (start, width) in pins {
                let mut f = ConstraintsFile::new();
                let mut mc = ModuleConstraints::new("mod_qpsk", "op_dyn");
                mc.pin = Some((start, width));
                f.add(mc).unwrap();
                let err = Floorplanner::new(device.clone())
                    .place(&modules, Resources::ZERO, &f)
                    .unwrap_err();
                let text = err.to_string();
                assert!(
                    matches!(err, CodegenError::PinConflict(_))
                        && text.contains(&format!("{width} columns from column {start}"))
                        && text.contains(&format!("({cols} CLB columns)")),
                    "{} pin {start} {width}: {text}",
                    device.name
                );
            }
            // The widest window a pin may give ends one column short.
            let mut f = ConstraintsFile::new();
            let mut mc = ModuleConstraints::new("mod_qpsk", "op_dyn");
            mc.pin = Some((cols - 5, 4));
            f.add(mc).unwrap();
            let r = Floorplanner::new(device.clone())
                .place(&modules, Resources::ZERO, &f)
                .unwrap();
            assert_eq!(
                r.floorplan.region("op_dyn").unwrap().clb_col_end(),
                cols - 1
            );
        }
    }

    #[test]
    fn too_many_bus_macro_rows_is_one_conflict_on_both_families() {
        let mut m = module("m", "r", 200);
        m.0.bus_macros_in = 60;
        for (device, rows) in [
            (Device::xc2v2000(), 56),
            (Device::by_name("XC7A100T").unwrap(), 50),
        ] {
            let err = Floorplanner::new(device)
                .place(&[m.clone()], Resources::ZERO, &ConstraintsFile::new())
                .unwrap_err();
            let expected = format!(
                "pin conflict: region `r` needs {} bus-macro rows, its window has {rows}",
                60 + m.0.bus_macros_out
            );
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn envelope_sizes_the_shared_region() {
        // Two modules share one region: the window holds the larger one.
        let modules = [module("small", "r", 100), module("large", "r", 2_000)];
        let r = planner()
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let region = r.floorplan.region("r").unwrap();
        // 2000 slices / (56 rows * 4) = 8.9 -> 9 columns.
        assert_eq!(region.clb_col_width, 9);
        assert_eq!(r.region_envelopes["r"].slices, 2_000);
    }

    #[test]
    fn minimum_width_is_two_columns() {
        let modules = [module("tiny", "r", 1)];
        let r = planner()
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        assert_eq!(r.floorplan.region("r").unwrap().clb_col_width, 2);
    }

    #[test]
    fn two_regions_do_not_overlap() {
        let modules = [module("a", "r1", 500), module("b", "r2", 500)];
        let r = planner()
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let r1 = r.floorplan.region("r1").unwrap();
        let r2 = r.floorplan.region("r2").unwrap();
        assert!(!r1.overlaps(r2));
    }

    #[test]
    fn oversized_module_rejected() {
        // 48 columns * 56 rows * 4 = 10752 slices total; ask for more.
        let modules = [module("huge", "r", 11_000)];
        let err = planner()
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap_err();
        assert!(matches!(err, CodegenError::DoesNotFit { .. }));
    }

    #[test]
    fn static_overflow_rejected() {
        let modules = [module("m", "r", 100)];
        let err = planner()
            .place(
                &modules,
                Resources::logic(11_000, 0, 0),
                &ConstraintsFile::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CodegenError::DeviceFull { .. }));
    }

    #[test]
    fn bitstreams_cover_all_modules_plus_static() {
        let modules = [
            module("mod_qpsk", "op_dyn", 200),
            module("mod_qam16", "op_dyn", 320),
        ];
        let r = planner()
            .place(&modules, Resources::logic(1_000, 0, 0), &paper_pin())
            .unwrap();
        assert_eq!(r.bitstreams.len(), 3);
        let qpsk = r.bitstream_of("mod_qpsk").unwrap();
        let qam = r.bitstream_of("mod_qam16").unwrap();
        let stat = r.bitstream_of(FloorplanResult::STATIC_KEY).unwrap();
        // Same region → same size; different fingerprints → different bits.
        assert_eq!(qpsk.len_bytes(), qam.len_bytes());
        assert_ne!(qpsk.encode(), qam.encode());
        assert!(stat.len_bytes() > 10 * qpsk.len_bytes());
        assert!(qpsk.is_partial());
        assert!(!stat.is_partial());
    }

    #[test]
    fn bus_macros_straddle_both_boundaries() {
        let modules = [module("m", "r", 200)];
        let r = planner()
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let bms = r.floorplan.bus_macros_of("r");
        let per_dir = CostModel::default().bus_macros_per_direction() as usize;
        assert_eq!(bms.len(), per_dir * 2);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint("a", "r"), fingerprint("a", "r"));
        assert_ne!(fingerprint("a", "r"), fingerprint("b", "r"));
    }

    #[test]
    fn s7_place_uses_clock_region_rectangles() {
        let device = Device::by_name("XC7A100T").unwrap();
        let planner = Floorplanner::new(device.clone());
        let modules = [module("a", "r1", 500), module("b", "r2", 500)];
        let r = planner
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let r1 = r.floorplan.region("r1").unwrap();
        let r2 = r.floorplan.region("r2").unwrap();
        // 2D placement: both rectangles are clock-region aligned, disjoint,
        // and each covers its module envelope.
        for region in [r1, r2] {
            let span = region.rows.expect("rect region has a row span");
            assert_eq!(span.clb_row_start % 50, 0);
            assert_eq!(span.clb_row_count % 50, 0);
            assert!(region
                .resources(&device)
                .covers(&r.region_envelopes[&region.name]));
        }
        assert!(!r1.overlaps(r2));
        // Bus macros sit inside their region's row span.
        for region in [r1, r2] {
            let (row0, rows) = region.rows_on(&device);
            for bm in r.floorplan.bus_macros_of(&region.name) {
                assert!(bm.clb_row >= row0 && bm.clb_row < row0 + rows);
            }
        }
        // Partial streams exist and are family-shaped (one FAR per
        // clock-region row of the rectangle).
        assert!(r.bitstream_of("a").unwrap().is_partial());
    }

    #[test]
    fn s7_bram_demand_widens_the_rectangle() {
        let device = Device::by_name("XC7A100T").unwrap();
        let planner = Floorplanner::new(device.clone());
        let light = [module("l", "r", 100)];
        let narrow = planner
            .place(&light, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let mut heavy = module("m", "r", 100);
        heavy.1.brams = 25;
        let wide = planner
            .place(&[heavy], Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let narrow_r = narrow.floorplan.region("r").unwrap();
        let wide_r = wide.floorplan.region("r").unwrap();
        assert!(
            wide_r.clb_col_width > narrow_r.clb_col_width,
            "BRAM demand must widen the window: {} vs {}",
            wide_r.clb_col_width,
            narrow_r.clb_col_width
        );
        assert!(wide_r.resources(&device).brams >= 25);
    }

    #[test]
    fn s7_regions_stack_into_shelves() {
        // Many small regions wrap onto the next clock-region band once a
        // shelf runs out of columns.
        let device = Device::by_name("XC7A50T").unwrap();
        let planner = Floorplanner::new(device.clone());
        let modules: Vec<_> = (0..4)
            .map(|i| module(&format!("m{i}"), &format!("r{i}"), 800))
            .collect();
        let r = planner
            .place(&modules, Resources::ZERO, &ConstraintsFile::new())
            .unwrap();
        let bands: std::collections::BTreeSet<u32> = r
            .floorplan
            .regions()
            .iter()
            .map(|reg| reg.rows.unwrap().clb_row_start)
            .collect();
        assert!(
            bands.len() > 1,
            "expected wrap onto a second band: {bands:?}"
        );
        for (a, b) in [("r0", "r1"), ("r0", "r2"), ("r1", "r3")] {
            let ra = r.floorplan.region(a).unwrap();
            let rb = r.floorplan.region(b).unwrap();
            assert!(!ra.overlaps(rb), "{a} overlaps {b}");
        }
    }
}
