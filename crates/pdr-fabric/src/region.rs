//! Reconfigurable regions and device floorplans.
//!
//! §5 of the paper fixes the placement rules of the Xilinx Modular Design
//! flow on Virtex-II: a reconfigurable module always spans the *full height*
//! of the device, and its width is a minimum of *four slices* (two CLB
//! columns, since a CLB is two slices wide). Communication with the static
//! part crosses the boundary exclusively through pre-routed bus macros.
//!
//! [`ReconfigRegion`] is a window of CLB columns as many configuration rows
//! tall as it spans: on Virtex-II, whose one row is the whole device, that
//! is such a full-height column window. [`Floorplan`] assembles
//! non-overlapping regions plus their bus macros on a device and is what
//! the `pdr-codegen` modular back-end produces.

use crate::busmacro::BusMacro;
use crate::device::Device;
use crate::error::FabricError;
use crate::resources::Resources;
use serde::{json, Serialize};
use std::collections::BTreeMap;

/// Minimum region width in CLB columns (four slices).
pub const MIN_REGION_CLB_COLS: u32 = 2;

/// The row extent of a 2D reconfigurable region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RowSpan {
    /// First CLB row of the rectangle.
    pub clb_row_start: u32,
    /// Height in CLB rows.
    pub clb_row_count: u32,
}

impl RowSpan {
    /// One-past-the-last CLB row; saturates at `u32::MAX`, past every
    /// device, so a span that would wrap never validates.
    pub fn end(&self) -> u32 {
        self.clb_row_start.saturating_add(self.clb_row_count)
    }
}

/// A reconfigurable region: a window of consecutive CLB columns, spanning
/// either the full device height (`rows == None`, the Virtex-II Modular
/// Design shape) or an explicit [`RowSpan`] rectangle (series7-like 2D
/// pblocks, aligned to clock-region rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReconfigRegion {
    /// Region (dynamic operator) name, e.g. `"op_dyn"`.
    pub name: String,
    /// First CLB column of the window.
    pub clb_col_start: u32,
    /// Width in CLB columns (≥ [`MIN_REGION_CLB_COLS`]).
    pub clb_col_width: u32,
    /// Row extent; `None` means the full device height.
    pub rows: Option<RowSpan>,
}

impl ReconfigRegion {
    /// Create a full-height region, enforcing the minimum-width rule and a
    /// column window whose end fits a `u32`. Device-bounds checking happens
    /// when the region is added to a [`Floorplan`] (or via
    /// [`ReconfigRegion::validate_on`]).
    pub fn new(
        name: impl Into<String>,
        clb_col_start: u32,
        clb_col_width: u32,
    ) -> Result<Self, FabricError> {
        let name = name.into();
        if clb_col_width < MIN_REGION_CLB_COLS {
            return Err(FabricError::InvalidRegion {
                name,
                reason: format!(
                    "width {clb_col_width} CLB columns < minimum {MIN_REGION_CLB_COLS} \
                     (four slices, per the Modular Design rules)"
                ),
            });
        }
        if clb_col_start.checked_add(clb_col_width).is_none() {
            return Err(FabricError::InvalidRegion {
                name,
                reason: format!("columns {clb_col_start} + {clb_col_width} overflow"),
            });
        }
        Ok(ReconfigRegion {
            name,
            clb_col_start,
            clb_col_width,
            rows: None,
        })
    }

    /// Create a 2D rectangular region. Family shape rules (clock-region
    /// alignment on series7-like; full height on Virtex-II) are enforced by
    /// [`ReconfigRegion::validate_on`].
    pub fn rect(
        name: impl Into<String>,
        clb_col_start: u32,
        clb_col_width: u32,
        clb_row_start: u32,
        clb_row_count: u32,
    ) -> Result<Self, FabricError> {
        let mut region = ReconfigRegion::new(name, clb_col_start, clb_col_width)?;
        if clb_row_count == 0 {
            return Err(FabricError::InvalidRegion {
                name: region.name,
                reason: "region row span is empty".into(),
            });
        }
        if clb_row_start.checked_add(clb_row_count).is_none() {
            return Err(FabricError::InvalidRegion {
                name: region.name,
                reason: format!("rows {clb_row_start} + {clb_row_count} overflow"),
            });
        }
        region.rows = Some(RowSpan {
            clb_row_start,
            clb_row_count,
        });
        Ok(region)
    }

    /// One-past-the-last CLB column of the window; saturates at
    /// `u32::MAX`, past every device, so a window that would wrap never
    /// validates.
    pub fn clb_col_end(&self) -> u32 {
        self.clb_col_start.saturating_add(self.clb_col_width)
    }

    /// The CLB-row interval of the region; full-height regions span
    /// `[0, u32::MAX)` so they conflict with every row.
    fn row_interval(&self) -> (u32, u32) {
        match &self.rows {
            Some(span) => (span.clb_row_start, span.end()),
            None => (0, u32::MAX),
        }
    }

    /// The row extent resolved against a device: full-height regions span
    /// `[0, clb_rows)`.
    pub fn rows_on(&self, device: &Device) -> (u32, u32) {
        match &self.rows {
            Some(span) => (span.clb_row_start, span.clb_row_count),
            None => (0, device.clb_rows),
        }
    }

    /// Does this region overlap another (column- and row-wise)?
    pub fn overlaps(&self, other: &ReconfigRegion) -> bool {
        let cols =
            self.clb_col_start < other.clb_col_end() && other.clb_col_start < self.clb_col_end();
        let (a0, a1) = self.row_interval();
        let (b0, b1) = other.row_interval();
        cols && a0 < b1 && b0 < a1
    }

    /// Check that the region fits the device and obeys its family's shape
    /// rules.
    pub fn validate_on(&self, device: &Device) -> Result<(), FabricError> {
        if self.clb_col_end() > device.clb_cols {
            return Err(FabricError::InvalidRegion {
                name: self.name.clone(),
                reason: format!(
                    "columns [{}, {}) exceed device `{}` ({} CLB columns)",
                    self.clb_col_start,
                    self.clb_col_end(),
                    device.name,
                    device.clb_cols
                ),
            });
        }
        if let Some(span) = &self.rows {
            if span.end() > device.clb_rows {
                return Err(FabricError::InvalidRegion {
                    name: self.name.clone(),
                    reason: format!(
                        "rows [{}, {}) exceed device `{}` ({} CLB rows)",
                        span.clb_row_start,
                        span.end(),
                        device.name,
                        device.clb_rows
                    ),
                });
            }
        }
        device.table().check_region_shape(device, self)
    }

    /// Slices contained in the region.
    pub fn slices(&self, device: &Device) -> u32 {
        let (_, row_count) = self.rows_on(device);
        row_count * self.clb_col_width * device.table().slices_per_clb
    }

    /// The full resource capacity of the region window — slices/LUTs/FFs
    /// plus the BRAMs and multipliers/DSPs of embedded columns inside it.
    /// This is the feasibility vector 2D placement packs against.
    pub fn resources(&self, device: &Device) -> Resources {
        let (_, row_count) = self.rows_on(device);
        device
            .table()
            .window_resources(device, self.clb_col_start, self.clb_col_width, row_count)
    }

    /// Fraction of the device's slices covered by the region. The paper's
    /// dynamic module occupies "8 % of the FPGA" — 4 of the XC2V2000's 48
    /// CLB columns.
    pub fn area_fraction(&self, device: &Device) -> f64 {
        self.slices(device) as f64 / device.slices() as f64
    }

    /// Configuration frames covered by the region, including embedded BRAM /
    /// DSP / GCLK columns falling inside the window.
    pub fn frames(&self, device: &Device) -> u32 {
        let (_, row_count) = self.rows_on(device);
        device
            .table()
            .window_frames(device, self.clb_col_start, self.clb_col_width, row_count)
    }

    /// Frame-payload bits of a partial bitstream for this region.
    pub fn config_bits(&self, device: &Device) -> u64 {
        self.frames(device) as u64 * device.bits_per_frame()
    }
}

/// A device floorplan: the static part plus validated, non-overlapping
/// reconfigurable regions and their bus macros.
///
/// Region and bus-macro lookups go through name→index / column→index maps
/// maintained at insertion time, so [`Floorplan::region`] and
/// [`Floorplan::bus_macros_of`] are map lookups instead of O(n) scans.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Target device.
    pub device: Device,
    /// Reconfigurable regions, in insertion order.
    regions: Vec<ReconfigRegion>,
    /// Bus macros bridging static ↔ dynamic boundaries.
    bus_macros: Vec<BusMacro>,
    /// Region name → index into `regions` (first occurrence wins, matching
    /// the linear-scan semantics under duplicate names from `from_parts`).
    region_index: BTreeMap<String, usize>,
    /// Boundary CLB column → indices into `bus_macros` at that boundary.
    macros_by_col: BTreeMap<u32, Vec<usize>>,
}

impl Floorplan {
    /// An empty floorplan (everything static) on the given device.
    pub fn new(device: Device) -> Self {
        Floorplan {
            device,
            regions: Vec::new(),
            bus_macros: Vec::new(),
            region_index: BTreeMap::new(),
            macros_by_col: BTreeMap::new(),
        }
    }

    /// Assemble a floorplan from raw parts *without* validation. The
    /// checked path is [`Floorplan::new`] + [`Floorplan::add_region`] /
    /// [`Floorplan::add_bus_macro`]; this constructor exists so that
    /// verification tooling (`pdr-lint` and its mutation tests) can
    /// represent illegal floorplans — e.g. overlapping regions or stray
    /// bus macros — and prove they are diagnosed.
    pub fn from_parts(
        device: Device,
        regions: Vec<ReconfigRegion>,
        bus_macros: Vec<BusMacro>,
    ) -> Self {
        let mut fp = Floorplan {
            device,
            regions,
            bus_macros,
            region_index: BTreeMap::new(),
            macros_by_col: BTreeMap::new(),
        };
        for (i, r) in fp.regions.iter().enumerate() {
            fp.region_index.entry(r.name.clone()).or_insert(i);
        }
        for (i, bm) in fp.bus_macros.iter().enumerate() {
            fp.macros_by_col
                .entry(bm.boundary_clb_col)
                .or_default()
                .push(i);
        }
        fp
    }

    /// Add a reconfigurable region, enforcing bounds and non-overlap.
    pub fn add_region(&mut self, region: ReconfigRegion) -> Result<(), FabricError> {
        region.validate_on(&self.device)?;
        if let Some(conflict) = self.regions.iter().find(|r| r.overlaps(&region)) {
            return Err(FabricError::RegionOverlap {
                a: conflict.name.clone(),
                b: region.name,
            });
        }
        self.region_index
            .entry(region.name.clone())
            .or_insert(self.regions.len());
        self.regions.push(region);
        Ok(())
    }

    /// Add a bus macro, validating it against the region set: it must
    /// straddle the boundary of exactly one region and sit within the device
    /// height.
    pub fn add_bus_macro(&mut self, bm: BusMacro) -> Result<(), FabricError> {
        bm.validate(&self.device, &self.regions)?;
        let colliding = self
            .macros_by_col
            .get(&bm.boundary_clb_col)
            .is_some_and(|ids| ids.iter().any(|&i| self.bus_macros[i].collides_with(&bm)));
        if colliding {
            return Err(FabricError::InvalidBusMacro {
                reason: format!(
                    "bus macro at row {} col {} collides with an existing macro",
                    bm.clb_row, bm.boundary_clb_col
                ),
            });
        }
        self.macros_by_col
            .entry(bm.boundary_clb_col)
            .or_default()
            .push(self.bus_macros.len());
        self.bus_macros.push(bm);
        Ok(())
    }

    /// The regions of the floorplan.
    pub fn regions(&self) -> &[ReconfigRegion] {
        &self.regions
    }

    /// Region lookup by name (indexed; O(log n)).
    pub fn region(&self, name: &str) -> Option<&ReconfigRegion> {
        self.region_index.get(name).map(|&i| &self.regions[i])
    }

    /// The bus macros of the floorplan.
    pub fn bus_macros(&self) -> &[BusMacro] {
        &self.bus_macros
    }

    /// Bus macros attached to the named region's boundaries (indexed;
    /// returned in insertion order, as the historical linear scan did).
    pub fn bus_macros_of(&self, region_name: &str) -> Vec<&BusMacro> {
        let Some(region) = self.region(region_name) else {
            return Vec::new();
        };
        let mut ids: Vec<usize> = [region.clb_col_start, region.clb_col_end()]
            .iter()
            .flat_map(|col| self.macros_by_col.get(col).into_iter().flatten())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|i| &self.bus_macros[i]).collect()
    }

    /// Slices remaining for the static part.
    pub fn static_slices(&self) -> u32 {
        let dynamic: u32 = self.regions.iter().map(|r| r.slices(&self.device)).sum();
        self.device.slices() - dynamic
    }

    /// Fraction of the device that is dynamically reconfigurable.
    pub fn dynamic_fraction(&self) -> f64 {
        self.regions
            .iter()
            .map(|r| r.area_fraction(&self.device))
            .sum()
    }
}

// Manual impls: the lookup indices are derived state rebuilt by
// `from_parts`, so only device/regions/bus_macros are serialized — the
// same field set (and JSON bytes) the pre-index derive produced.
impl Serialize for Floorplan {
    fn to_json(&self) -> json::Value {
        json::Value::Object(vec![
            ("device".to_string(), self.device.to_json()),
            ("regions".to_string(), self.regions.to_json()),
            ("bus_macros".to_string(), self.bus_macros.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busmacro::BusMacroDirection;

    fn dev() -> Device {
        Device::xc2v2000()
    }

    #[test]
    fn paper_region_is_about_8_percent() {
        // 4 of 48 CLB columns = 8.33 %.
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let f = r.area_fraction(&dev());
        assert!((f - 4.0 / 48.0).abs() < 1e-12);
        assert!((f - 0.08).abs() < 0.01, "paper says ~8 %, got {f}");
    }

    #[test]
    fn min_width_enforced() {
        let e = ReconfigRegion::new("too_thin", 0, 1).unwrap_err();
        assert!(matches!(e, FabricError::InvalidRegion { .. }));
        assert!(e.to_string().contains("four slices"));
        assert!(ReconfigRegion::new("ok", 0, 2).is_ok());
    }

    #[test]
    fn windows_that_wrap_are_rejected() {
        let e = ReconfigRegion::new("wrap", 20, u32::MAX - 3).unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
        let e = ReconfigRegion::rect("wrap", 1, 2, u32::MAX, 1).unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
        // A literal that skips the constructor saturates instead of
        // wrapping back inside the device.
        let r = ReconfigRegion {
            name: "wrap".into(),
            clb_col_start: 20,
            clb_col_width: u32::MAX - 3,
            rows: Some(RowSpan {
                clb_row_start: 8,
                clb_row_count: u32::MAX,
            }),
        };
        assert_eq!(r.clb_col_end(), u32::MAX);
        assert_eq!(r.rows.unwrap().end(), u32::MAX);
        assert!(matches!(
            r.validate_on(&dev()),
            Err(FabricError::InvalidRegion { .. })
        ));
    }

    #[test]
    fn bounds_enforced_on_floorplan() {
        let mut fp = Floorplan::new(dev());
        let r = ReconfigRegion::new("off_edge", 47, 2).unwrap();
        assert!(matches!(
            fp.add_region(r),
            Err(FabricError::InvalidRegion { .. })
        ));
    }

    #[test]
    fn overlap_rejected() {
        let mut fp = Floorplan::new(dev());
        fp.add_region(ReconfigRegion::new("a", 10, 4).unwrap())
            .unwrap();
        let err = fp
            .add_region(ReconfigRegion::new("b", 12, 4).unwrap())
            .unwrap_err();
        assert!(matches!(err, FabricError::RegionOverlap { .. }));
        // Adjacent (touching) regions are fine.
        fp.add_region(ReconfigRegion::new("c", 14, 2).unwrap())
            .unwrap();
        assert_eq!(fp.regions().len(), 2);
    }

    #[test]
    fn region_frames_and_bits() {
        let d = dev();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let frames = r.frames(&d);
        // At least the 4 CLB columns' worth.
        assert!(frames >= 4 * 22);
        assert_eq!(r.config_bits(&d), frames as u64 * d.bits_per_frame());
    }

    #[test]
    fn static_slices_account_for_regions() {
        let d = dev();
        let mut fp = Floorplan::new(d.clone());
        fp.add_region(ReconfigRegion::new("a", 0, 4).unwrap())
            .unwrap();
        assert_eq!(fp.static_slices(), d.slices() - 56 * 4 * 4);
        assert!((fp.dynamic_fraction() - 4.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn bus_macros_of_matches_boundary() {
        let mut fp = Floorplan::new(dev());
        fp.add_region(ReconfigRegion::new("op_dyn", 20, 4).unwrap())
            .unwrap();
        let bm_in = BusMacro::new(5, 20, BusMacroDirection::IntoRegion);
        let bm_out = BusMacro::new(7, 24, BusMacroDirection::OutOfRegion);
        fp.add_bus_macro(bm_in).unwrap();
        fp.add_bus_macro(bm_out).unwrap();
        assert_eq!(fp.bus_macros_of("op_dyn").len(), 2);
        assert!(fp.bus_macros_of("nonexistent").is_empty());
    }

    #[test]
    fn region_lookup() {
        let mut fp = Floorplan::new(dev());
        fp.add_region(ReconfigRegion::new("x", 2, 2).unwrap())
            .unwrap();
        assert!(fp.region("x").is_some());
        assert!(fp.region("y").is_none());
    }

    #[test]
    fn lookup_indices_match_linear_scan_under_duplicates() {
        // from_parts may carry duplicate names (illegal plans for lint);
        // the index must preserve first-occurrence-wins.
        let d = dev();
        let regions = vec![
            ReconfigRegion::new("dup", 2, 2).unwrap(),
            ReconfigRegion::new("dup", 10, 4).unwrap(),
        ];
        let fp = Floorplan::from_parts(d, regions, Vec::new());
        assert_eq!(fp.region("dup").unwrap().clb_col_start, 2);
    }

    fn s7() -> Device {
        Device::by_name("XC7A100T").unwrap()
    }

    #[test]
    fn rect_regions_stack_vertically_on_s7() {
        // Two rectangles in the same columns but different clock regions
        // coexist — impossible on Virtex-II.
        let mut fp = Floorplan::new(s7());
        fp.add_region(ReconfigRegion::rect("top", 10, 6, 0, 50).unwrap())
            .unwrap();
        fp.add_region(ReconfigRegion::rect("bottom", 10, 6, 50, 50).unwrap())
            .unwrap();
        assert_eq!(fp.regions().len(), 2);
        // Same columns AND same rows overlaps.
        let err = fp
            .add_region(ReconfigRegion::rect("clash", 12, 4, 50, 50).unwrap())
            .unwrap_err();
        assert!(matches!(err, FabricError::RegionOverlap { .. }));
    }

    #[test]
    fn rect_region_geometry_on_s7() {
        let d = s7();
        let r = ReconfigRegion::rect("r", 10, 6, 50, 50).unwrap();
        r.validate_on(&d).unwrap();
        assert_eq!(r.slices(&d), 50 * 6 * 2);
        let res = r.resources(&d);
        assert_eq!(res.slices, r.slices(&d));
        assert_eq!(res.luts, res.slices * 4);
        assert_eq!(res.ffs, res.slices * 8);
        // One clock region tall → frames are a third of the full-height
        // region over the same columns.
        let full = ReconfigRegion::new("full", 10, 6).unwrap();
        assert_eq!(full.frames(&d), 3 * r.frames(&d));
        assert_eq!(r.config_bits(&d), r.frames(&d) as u64 * d.bits_per_frame());
    }

    #[test]
    fn rect_rejected_on_v2_unless_full_height() {
        let d = dev();
        let partial = ReconfigRegion::rect("p", 10, 4, 0, 28).unwrap();
        assert!(partial.validate_on(&d).is_err());
        let full = ReconfigRegion::rect("f", 10, 4, 0, 56).unwrap();
        assert!(full.validate_on(&d).is_ok());
    }

    #[test]
    fn rect_row_bounds_checked() {
        let d = s7();
        let off = ReconfigRegion::rect("off", 10, 4, 100, 100).unwrap();
        let err = off.validate_on(&d).unwrap_err();
        assert!(err.to_string().contains("CLB rows"));
        let misaligned = ReconfigRegion::rect("skew", 10, 4, 25, 50).unwrap();
        assert!(misaligned.validate_on(&d).is_err());
    }

    #[test]
    fn full_height_overlap_semantics_unchanged() {
        // A rect and a column region in the same columns overlap; disjoint
        // columns never do regardless of rows.
        let col = ReconfigRegion::new("col", 10, 4).unwrap();
        let rect = ReconfigRegion::rect("rect", 12, 4, 50, 50).unwrap();
        assert!(col.overlaps(&rect));
        assert!(rect.overlaps(&col));
        let far = ReconfigRegion::rect("far", 30, 4, 50, 50).unwrap();
        assert!(!col.overlaps(&far));
    }
}
