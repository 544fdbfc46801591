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
//! device model: per region it sizes a full-height column window from the
//! *envelope* of the modules sharing the region (they are resident one at a
//! time), honors constraints-file pins, allocates bus macros on the region
//! boundary, verifies the static side still fits, and emits one partial
//! bitstream per module plus the static full bitstream.

use crate::design::DynamicModuleDesign;
use crate::error::CodegenError;
use pdr_fabric::{
    Bitstream, BusMacro, BusMacroDirection, Device, Floorplan, ReconfigRegion, Resources,
};
use pdr_graph::ConstraintsFile;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Result of placing a generated design on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// On Virtex-II this is the paper's Modular Design flow: full-height
    /// column windows sized from the slice envelope. On families that
    /// support 2D regions it switches to [`Floorplanner::place`]'s
    /// rectangular path: clock-region-aligned rectangles sized from the
    /// full resource vector (slices, LUTs, FFs, BRAMs, multipliers) and
    /// shelf-packed across clock-region bands.
    pub fn place(
        &self,
        modules: &[(DynamicModuleDesign, Resources)],
        static_resources: Resources,
        constraints: &ConstraintsFile,
    ) -> Result<FloorplanResult, CodegenError> {
        if self.device.capabilities().supports_2d_regions() {
            return self.place_rect(modules, static_resources, constraints);
        }
        let mut floorplan = Floorplan::new(self.device.clone());
        let rows = self.device.clb_rows;

        // Group modules by region; the region window must hold the
        // *envelope* of its modules (resident one at a time).
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
        // Regions never touch the device edges: both boundaries must be
        // interior dividing lines so bus macros can straddle them.
        let mut next_free_col = 1u32;
        for (region_name, entries) in &by_region {
            let first = entries.first().ok_or_else(|| {
                CodegenError::Internal(format!("region `{region_name}` grouped with no modules"))
            })?;
            let envelope = entries
                .iter()
                .fold(Resources::ZERO, |acc, (_, r)| acc.envelope(r));
            // Width: slices → full-height CLB columns (4 slices per CLB,
            // full column = rows × 4 slices), minimum 2 columns.
            let slices_per_col = rows * pdr_fabric::device::SLICES_PER_CLB;
            let mut width = envelope.slices.div_ceil(slices_per_col).max(2);
            // Honor pins: position and at least the pinned width.
            let pin = entries
                .iter()
                .find_map(|(m, _)| constraints.module(&m.module).and_then(|c| c.pin));
            let start = match pin {
                Some((s, w)) => {
                    width = width.max(w);
                    s
                }
                None => next_free_col,
            };
            let end = start.checked_add(width);
            if start == 0 || end.is_none_or(|end| end >= self.device.clb_cols) {
                return Err(CodegenError::DoesNotFit {
                    module: first.0.module.clone(),
                    needed_slices: envelope.slices,
                    available_slices: (self
                        .device
                        .clb_cols
                        .saturating_sub(start.saturating_add(1)))
                        * slices_per_col,
                });
            }
            let region = ReconfigRegion::new(region_name.clone(), start, width)
                .map_err(CodegenError::Fabric)?;
            floorplan.add_region(region).map_err(|e| match e {
                pdr_fabric::FabricError::RegionOverlap { a, b } => {
                    CodegenError::PinConflict(format!("regions `{a}` and `{b}` overlap"))
                }
                other => CodegenError::Fabric(other),
            })?;
            // Leave one static column between auto-placed regions so their
            // bus macros never contend for the same boundary.
            next_free_col = next_free_col.max(start + width + 1);

            // Bus macros: spread over rows from the top, inputs on the left
            // boundary, outputs on the right.
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
            if macros_in + macros_out > rows {
                return Err(CodegenError::PinConflict(format!(
                    "region `{region_name}` needs {} bus-macro rows, device has {rows}",
                    macros_in + macros_out
                )));
            }
            for i in 0..macros_in {
                floorplan
                    .add_bus_macro(BusMacro::new(i, start, BusMacroDirection::IntoRegion))
                    .map_err(CodegenError::Fabric)?;
            }
            for i in 0..macros_out {
                floorplan
                    .add_bus_macro(BusMacro::new(
                        i,
                        start + width,
                        BusMacroDirection::OutOfRegion,
                    ))
                    .map_err(CodegenError::Fabric)?;
            }
            region_envelopes.insert(region_name.clone(), envelope);
            for (m, _) in entries {
                region_of.insert(m.module.clone(), region_name.clone());
            }
        }

        self.finalize(
            floorplan,
            modules,
            static_resources,
            region_of,
            region_envelopes,
        )
    }

    /// 2D placement for families with clock-region-aligned rectangular
    /// regions (series7-like): per region, search heights of 1..n clock
    /// regions and grow the width until the rectangle's resource vector
    /// covers the module envelope, shelf-packing rectangles left to right
    /// across clock-region bands.
    fn place_rect(
        &self,
        modules: &[(DynamicModuleDesign, Resources)],
        static_resources: Resources,
        constraints: &ConstraintsFile,
    ) -> Result<FloorplanResult, CodegenError> {
        let caps = self.device.capabilities();
        let cr_rows = caps.clock_region_rows(&self.device);
        let bands = self.device.clock_regions();
        let mut floorplan = Floorplan::new(self.device.clone());

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
        // Shelf packing: one cursor per clock-region band, regions fill
        // left to right; both column boundaries stay interior so bus
        // macros can straddle them.
        let mut shelf_col = vec![1u32; bands as usize];
        for (region_name, entries) in &by_region {
            let first = entries.first().ok_or_else(|| {
                CodegenError::Internal(format!("region `{region_name}` grouped with no modules"))
            })?;
            let envelope = entries
                .iter()
                .fold(Resources::ZERO, |acc, (_, r)| acc.envelope(r));
            let pin = entries
                .iter()
                .find_map(|(m, _)| constraints.module(&m.module).and_then(|c| c.pin));
            let mut placed = None;
            'search: for height in 1..=bands {
                for band in 0..=(bands - height) {
                    let start = match pin {
                        Some((s, _)) => s,
                        None => (band..band + height)
                            .map(|b| shelf_col[b as usize])
                            .max()
                            .unwrap_or(1),
                    };
                    if start == 0 || (band..band + height).any(|b| shelf_col[b as usize] > start) {
                        continue;
                    }
                    let mut width = pin.map_or(2, |(_, w)| w.max(2));
                    while start
                        .checked_add(width)
                        .is_some_and(|end| end < self.device.clb_cols)
                    {
                        let candidate = ReconfigRegion::rect(
                            region_name.clone(),
                            start,
                            width,
                            band * cr_rows,
                            height * cr_rows,
                        )
                        .map_err(CodegenError::Fabric)?;
                        if candidate.resources(&self.device).covers(&envelope) {
                            placed = Some((candidate, band, height));
                            break 'search;
                        }
                        width += 1;
                    }
                }
            }
            let Some((region, band, height)) = placed else {
                return Err(CodegenError::DoesNotFit {
                    module: first.0.module.clone(),
                    needed_slices: envelope.slices,
                    available_slices: self.device.slices(),
                });
            };
            let start = region.clb_col_start;
            let width = region.clb_col_width;
            let (row_start, row_count) = region.rows_on(&self.device);
            floorplan.add_region(region).map_err(|e| match e {
                pdr_fabric::FabricError::RegionOverlap { a, b } => {
                    CodegenError::PinConflict(format!("regions `{a}` and `{b}` overlap"))
                }
                other => CodegenError::Fabric(other),
            })?;
            for b in band..band + height {
                shelf_col[b as usize] = start + width + 1;
            }

            // Bus macros must sit inside the rectangle's row span: inputs
            // on the left boundary, outputs on the right, from the top of
            // the region downward.
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
                    "region `{region_name}` needs {} bus-macro rows, its rectangle has {row_count}",
                    macros_in + macros_out
                )));
            }
            for i in 0..macros_in {
                floorplan
                    .add_bus_macro(BusMacro::new(
                        row_start + i,
                        start,
                        BusMacroDirection::IntoRegion,
                    ))
                    .map_err(CodegenError::Fabric)?;
            }
            for i in 0..macros_out {
                floorplan
                    .add_bus_macro(BusMacro::new(
                        row_start + i,
                        start + width,
                        BusMacroDirection::OutOfRegion,
                    ))
                    .map_err(CodegenError::Fabric)?;
            }
            region_envelopes.insert(region_name.clone(), envelope);
            for (m, _) in entries {
                region_of.insert(m.module.clone(), region_name.clone());
            }
        }

        self.finalize(
            floorplan,
            modules,
            static_resources,
            region_of,
            region_envelopes,
        )
    }

    /// Shared tail of both placement paths: static-side fit check and
    /// bitstream generation.
    fn finalize(
        &self,
        floorplan: Floorplan,
        modules: &[(DynamicModuleDesign, Resources)],
        static_resources: Resources,
        region_of: BTreeMap<String, String>,
        region_envelopes: BTreeMap<String, Resources>,
    ) -> Result<FloorplanResult, CodegenError> {
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
            let region = floorplan
                .region(&m.region)
                .ok_or_else(|| {
                    CodegenError::Internal(format!(
                        "module `{}` targets region `{}` which was never placed",
                        m.module, m.region
                    ))
                })?
                .clone();
            let fp = fingerprint(&m.module, &m.region);
            bitstreams.insert(
                m.module.clone(),
                Bitstream::partial_for_region(&self.device, &region, fp),
            );
        }
        bitstreams.insert(
            FloorplanResult::STATIC_KEY.to_string(),
            Bitstream::full_for_device(&self.device, fingerprint("__static__", "")),
        );

        Ok(FloorplanResult {
            floorplan,
            bitstreams,
            region_of,
            region_envelopes,
        })
    }
}

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
    fn pins_whose_window_wraps_do_not_fit() {
        // `start + width` past `u32::MAX` once wrapped to a window inside
        // the device; on both placement paths it must fail typed.
        let modules = [module("mod_qpsk", "op_dyn", 200)];
        for device in [Device::xc2v2000(), Device::by_name("XC7A100T").unwrap()] {
            for pin in [(20, u32::MAX - 3), (u32::MAX, 4), (u32::MAX, u32::MAX)] {
                let mut f = ConstraintsFile::new();
                let mut mc = ModuleConstraints::new("mod_qpsk", "op_dyn");
                mc.pin = Some(pin);
                f.add(mc).unwrap();
                let err = Floorplanner::new(device.clone())
                    .place(&modules, Resources::ZERO, &f)
                    .unwrap_err();
                assert!(
                    matches!(err, CodegenError::DoesNotFit { .. }),
                    "{} {pin:?}: {err}",
                    device.name
                );
            }
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
