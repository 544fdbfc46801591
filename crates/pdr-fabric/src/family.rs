//! Fabric capabilities: the per-family geometry/DRC contract.
//!
//! Everything the stack above `pdr-fabric` needs to know about a device
//! generation — how regions may be shaped, how frames are addressed and
//! counted, what resources a tile window holds — is expressed through
//! [`FabricCapabilities`]. Two families implement it:
//!
//! * [`VirtexIiFabric`] — the paper's Xilinx Virtex-II Modular Design
//!   rules: one full-height configuration row, full-height column regions,
//!   homogeneous CLB fabric with embedded BRAM/multiplier column pairs,
//!   per-column frames whose length scales with device height. Every
//!   method of this impl reproduces the pre-trait arithmetic verbatim, so
//!   the Virtex-II flow stays byte-identical (gated by `bench_fabric`).
//! * [`Series7Fabric`] — a series7-like generation in the Vivado-DFX
//!   style: the die is split into clock regions 50 CLB rows tall, frames
//!   are fixed-length (101 words) and addressed per clock-region row, the
//!   fabric mixes CLB / BRAM / DSP columns, and reconfigurable regions are
//!   2D rectangles aligned to clock-region boundaries.
//!
//! Dispatch is by [`DeviceFamily::capabilities`], which returns a
//! `&'static dyn FabricCapabilities` for zero-cost, allocation-free use
//! from `Device`/`ReconfigRegion` methods.

use crate::device::{
    ColumnKind, Device, DeviceFamily, FFS_PER_SLICE, LUTS_PER_SLICE, SLICES_PER_CLB,
};
use crate::error::FabricError;
use crate::frame::{frame_words, FrameCounts};
use crate::region::{ReconfigRegion, MIN_REGION_CLB_COLS};
use crate::resources::Resources;
use std::fmt;

/// CLB rows per clock region in the series7-like family.
pub const S7_CLOCK_REGION_ROWS: u32 = 50;
/// Fixed words per configuration frame in the series7-like family.
pub const S7_WORDS_PER_FRAME: u32 = 101;
/// Slices per CLB in the series7-like family (SLICEL/SLICEM pair).
pub const S7_SLICES_PER_CLB: u32 = 2;
/// 6-input LUTs per slice in the series7-like family.
pub const S7_LUTS_PER_SLICE: u32 = 4;
/// Flip-flops per slice in the series7-like family.
pub const S7_FFS_PER_SLICE: u32 = 8;
/// BRAM36 blocks per BRAM column per clock region.
pub const S7_BRAMS_PER_COL_PER_REGION: u32 = 10;
/// DSP48 slices per DSP column per clock region.
pub const S7_DSPS_PER_COL_PER_REGION: u32 = 20;

/// What a device family can do: region granularity, frame addressing,
/// per-tile resources, and geometry/DRC rules. Implemented once per
/// generation; obtained via [`DeviceFamily::capabilities`].
pub trait FabricCapabilities: fmt::Debug + Sync {
    /// The family this capability set describes.
    fn family(&self) -> DeviceFamily;

    /// Human-readable family name for diagnostics and reports.
    fn family_name(&self) -> &'static str;

    /// Whether regions may be 2D rectangles (`true`) or must span the full
    /// device height (`false`).
    fn supports_2d_regions(&self) -> bool;

    /// Minimum region width in CLB columns.
    fn min_region_clb_cols(&self) -> u32 {
        MIN_REGION_CLB_COLS
    }

    /// Height of one configuration row in CLB rows: the whole device on
    /// Virtex-II, one clock region on the series7-like family. Region row
    /// spans must align to multiples of this.
    fn clock_region_rows(&self, device: &Device) -> u32;

    /// Slices per CLB.
    fn slices_per_clb(&self) -> u32;

    /// LUTs per slice.
    fn luts_per_slice(&self) -> u32;

    /// Flip-flops per slice.
    fn ffs_per_slice(&self) -> u32;

    /// Total block RAMs of the device.
    fn device_brams(&self, device: &Device) -> u32;

    /// Total multipliers (Virtex-II MULT18×18) / DSP slices (series7-like)
    /// of the device.
    fn device_mults(&self, device: &Device) -> u32;

    /// Words (32-bit) per configuration frame.
    fn words_per_frame(&self, device: &Device) -> u32;

    /// Configuration frames of one column of the given kind, per
    /// configuration row (Virtex-II has a single full-height row).
    fn column_frames(&self, kind: ColumnKind) -> u32;

    /// The ordered column plan of the device, left to right.
    fn column_plan(&self, device: &Device) -> Vec<ColumnKind>;

    /// Frame counts per column kind for the whole device.
    fn device_frame_counts(&self, device: &Device) -> FrameCounts {
        let mut counts = FrameCounts::default();
        let rows = device.clb_rows / self.clock_region_rows(device);
        for kind in self.column_plan(device) {
            counts.add(kind, self.column_frames(kind) * rows);
        }
        counts
    }

    /// Configuration frames covered by a region window of `col_width` CLB
    /// columns starting at `col_start`, spanning `row_count` CLB rows from
    /// `row_start`. Includes embedded (BRAM/DSP/GCLK) columns inside the
    /// window.
    fn window_frames(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        row_start: u32,
        row_count: u32,
    ) -> u32;

    /// Resource capacity of a region window — the feasibility vector the
    /// 2D floorplanner packs against.
    fn window_resources(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        row_start: u32,
        row_count: u32,
    ) -> Resources;

    /// Family-specific region shape rules, checked after the common
    /// column/row bounds checks of `ReconfigRegion::validate_on`.
    fn validate_region_shape(
        &self,
        device: &Device,
        region: &ReconfigRegion,
    ) -> Result<(), FabricError>;
}

impl DeviceFamily {
    /// The capability set of this family (zero-sized statics; no
    /// allocation).
    pub fn capabilities(self) -> &'static dyn FabricCapabilities {
        match self {
            DeviceFamily::VirtexII => &VirtexIiFabric,
            DeviceFamily::Series7 => &Series7Fabric,
        }
    }
}

/// The column kinds (CLB plus embedded BRAM/DSP/GCLK columns) that fall
/// inside a window of `col_width` CLB columns starting at `col_start`.
///
/// Embedded columns belong to the window when it is "open" at their
/// position: the previous CLB column was inside and another inside column
/// follows — the same accounting `Device::frames_in_clb_window` has always
/// used on Virtex-II.
fn window_columns(plan: &[ColumnKind], col_start: u32, col_width: u32) -> Vec<ColumnKind> {
    let mut clb_index = 0u32;
    let mut inside_prev = false;
    let mut cols = Vec::new();
    for &kind in plan {
        match kind {
            ColumnKind::Clb => {
                let inside = clb_index >= col_start && clb_index < col_start + col_width;
                if inside {
                    cols.push(kind);
                }
                inside_prev = inside;
                clb_index += 1;
            }
            ColumnKind::Bram
            | ColumnKind::BramInterconnect
            | ColumnKind::Gclk
            | ColumnKind::Dsp => {
                if inside_prev && clb_index < col_start + col_width {
                    cols.push(kind);
                }
            }
            ColumnKind::Iob | ColumnKind::Ioi => {}
        }
    }
    cols
}

/// Xilinx Virtex-II Modular Design fabric (the paper's generation).
#[derive(Debug)]
pub struct VirtexIiFabric;

impl FabricCapabilities for VirtexIiFabric {
    fn family(&self) -> DeviceFamily {
        DeviceFamily::VirtexII
    }

    fn family_name(&self) -> &'static str {
        "Virtex-II"
    }

    fn supports_2d_regions(&self) -> bool {
        false
    }

    fn clock_region_rows(&self, device: &Device) -> u32 {
        device.clb_rows
    }

    fn slices_per_clb(&self) -> u32 {
        SLICES_PER_CLB
    }

    fn luts_per_slice(&self) -> u32 {
        LUTS_PER_SLICE
    }

    fn ffs_per_slice(&self) -> u32 {
        FFS_PER_SLICE
    }

    fn device_brams(&self, device: &Device) -> u32 {
        device.bram_cols * (device.clb_rows / crate::device::CLB_ROWS_PER_BRAM)
    }

    fn device_mults(&self, device: &Device) -> u32 {
        self.device_brams(device)
    }

    fn words_per_frame(&self, device: &Device) -> u32 {
        frame_words(device.clb_rows)
    }

    fn column_frames(&self, kind: ColumnKind) -> u32 {
        kind.frames()
    }

    fn column_plan(&self, device: &Device) -> Vec<ColumnKind> {
        let mut plan = Vec::with_capacity((device.clb_cols + 2 * device.bram_cols + 5) as usize);
        plan.push(ColumnKind::Iob);
        plan.push(ColumnKind::Ioi);
        // Distribute BRAM column pairs between CLB columns.
        let stride = if device.bram_cols > 0 {
            (device.clb_cols / (device.bram_cols + 1)).max(1)
        } else {
            u32::MAX
        };
        let mid = device.clb_cols / 2;
        let mut brams_placed = 0;
        for i in 0..device.clb_cols {
            if i == mid {
                plan.push(ColumnKind::Gclk);
            }
            if device.bram_cols > 0 && i > 0 && i % stride == 0 && brams_placed < device.bram_cols {
                plan.push(ColumnKind::BramInterconnect);
                plan.push(ColumnKind::Bram);
                brams_placed += 1;
            }
            plan.push(ColumnKind::Clb);
        }
        // Any BRAM columns that did not fit in the stride pattern go at the end.
        for _ in brams_placed..device.bram_cols {
            plan.push(ColumnKind::BramInterconnect);
            plan.push(ColumnKind::Bram);
        }
        plan.push(ColumnKind::Ioi);
        plan.push(ColumnKind::Iob);
        plan
    }

    fn window_frames(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        _row_start: u32,
        _row_count: u32,
    ) -> u32 {
        // Walk the column plan and count frames of columns whose CLB index
        // falls inside [col_start, col_start+col_width) — regions span the
        // full height, so the row span is immaterial.
        let mut clb_index = 0u32;
        let mut frames = 0u32;
        let mut inside_prev = false;
        for kind in self.column_plan(device) {
            match kind {
                ColumnKind::Clb => {
                    let inside = clb_index >= col_start && clb_index < col_start + col_width;
                    if inside {
                        frames += kind.frames();
                    }
                    inside_prev = inside;
                    clb_index += 1;
                }
                ColumnKind::Bram
                | ColumnKind::BramInterconnect
                | ColumnKind::Gclk
                | ColumnKind::Dsp => {
                    // Embedded columns belong to the window if the window is
                    // "open" at this point (previous CLB column was inside and
                    // the next one will be too, approximated by inside_prev
                    // and clb_index < col_start+col_width).
                    if inside_prev && clb_index < col_start + col_width {
                        frames += kind.frames();
                    }
                }
                ColumnKind::Iob | ColumnKind::Ioi => {}
            }
        }
        frames
    }

    fn window_resources(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        _row_start: u32,
        row_count: u32,
    ) -> Resources {
        let slices = row_count * col_width * SLICES_PER_CLB;
        let plan = self.column_plan(device);
        let bram_cols = window_columns(&plan, col_start, col_width)
            .iter()
            .filter(|k| **k == ColumnKind::Bram)
            .count() as u32;
        let brams = bram_cols * (row_count / crate::device::CLB_ROWS_PER_BRAM);
        Resources {
            slices,
            luts: slices * LUTS_PER_SLICE,
            ffs: slices * FFS_PER_SLICE,
            brams,
            mults: brams,
            tbufs: 0,
        }
    }

    fn validate_region_shape(
        &self,
        device: &Device,
        region: &ReconfigRegion,
    ) -> Result<(), FabricError> {
        if let Some(span) = &region.rows {
            if span.clb_row_start != 0 || span.clb_row_count != device.clb_rows {
                return Err(FabricError::InvalidRegion {
                    name: region.name.clone(),
                    reason: format!(
                        "family `{}` supports only full-height column regions, \
                         got rows [{}, {})",
                        self.family_name(),
                        span.clb_row_start,
                        span.end()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Series7-like 2D heterogeneous fabric (Vivado-DFX-style pblocks).
#[derive(Debug)]
pub struct Series7Fabric;

impl FabricCapabilities for Series7Fabric {
    fn family(&self) -> DeviceFamily {
        DeviceFamily::Series7
    }

    fn family_name(&self) -> &'static str {
        "series7-like"
    }

    fn supports_2d_regions(&self) -> bool {
        true
    }

    fn clock_region_rows(&self, _device: &Device) -> u32 {
        S7_CLOCK_REGION_ROWS
    }

    fn slices_per_clb(&self) -> u32 {
        S7_SLICES_PER_CLB
    }

    fn luts_per_slice(&self) -> u32 {
        S7_LUTS_PER_SLICE
    }

    fn ffs_per_slice(&self) -> u32 {
        S7_FFS_PER_SLICE
    }

    fn device_brams(&self, device: &Device) -> u32 {
        device.bram_cols * (device.clb_rows / S7_CLOCK_REGION_ROWS) * S7_BRAMS_PER_COL_PER_REGION
    }

    fn device_mults(&self, device: &Device) -> u32 {
        device.dsp_cols * (device.clb_rows / S7_CLOCK_REGION_ROWS) * S7_DSPS_PER_COL_PER_REGION
    }

    fn words_per_frame(&self, _device: &Device) -> u32 {
        S7_WORDS_PER_FRAME
    }

    fn column_frames(&self, kind: ColumnKind) -> u32 {
        match kind {
            ColumnKind::Gclk => 30,
            ColumnKind::Iob => 42,
            ColumnKind::Ioi => 30,
            ColumnKind::Clb => 36,
            // Series-7 style BRAM columns carry content + interconnect in a
            // single column; a separate interconnect column never appears in
            // this family's plans.
            ColumnKind::Bram => 128,
            ColumnKind::BramInterconnect => 0,
            ColumnKind::Dsp => 28,
        }
    }

    fn column_plan(&self, device: &Device) -> Vec<ColumnKind> {
        let mut plan =
            Vec::with_capacity((device.clb_cols + device.bram_cols + device.dsp_cols + 5) as usize);
        plan.push(ColumnKind::Iob);
        plan.push(ColumnKind::Ioi);
        let bram_stride = if device.bram_cols > 0 {
            (device.clb_cols / (device.bram_cols + 1)).max(1)
        } else {
            u32::MAX
        };
        let dsp_stride = if device.dsp_cols > 0 {
            (device.clb_cols / (device.dsp_cols + 1)).max(1)
        } else {
            u32::MAX
        };
        let mid = device.clb_cols / 2;
        let mut brams_placed = 0;
        let mut dsps_placed = 0;
        for i in 0..device.clb_cols {
            if i == mid {
                plan.push(ColumnKind::Gclk);
            }
            if device.bram_cols > 0
                && i > 0
                && i % bram_stride == 0
                && brams_placed < device.bram_cols
            {
                plan.push(ColumnKind::Bram);
                brams_placed += 1;
            }
            // Offset DSP columns by half a stride so they interleave with
            // the BRAM columns instead of stacking at the same cut.
            if device.dsp_cols > 0
                && i > dsp_stride / 2
                && (i - dsp_stride / 2) % dsp_stride == 0
                && dsps_placed < device.dsp_cols
            {
                plan.push(ColumnKind::Dsp);
                dsps_placed += 1;
            }
            plan.push(ColumnKind::Clb);
        }
        for _ in brams_placed..device.bram_cols {
            plan.push(ColumnKind::Bram);
        }
        for _ in dsps_placed..device.dsp_cols {
            plan.push(ColumnKind::Dsp);
        }
        plan.push(ColumnKind::Ioi);
        plan.push(ColumnKind::Iob);
        plan
    }

    fn window_frames(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        _row_start: u32,
        row_count: u32,
    ) -> u32 {
        let regions_spanned = row_count.div_ceil(S7_CLOCK_REGION_ROWS);
        let plan = self.column_plan(device);
        let per_row: u32 = window_columns(&plan, col_start, col_width)
            .iter()
            .map(|k| self.column_frames(*k))
            .sum();
        per_row * regions_spanned
    }

    fn window_resources(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        _row_start: u32,
        row_count: u32,
    ) -> Resources {
        let slices = row_count * col_width * S7_SLICES_PER_CLB;
        let regions_spanned = row_count / S7_CLOCK_REGION_ROWS;
        let plan = self.column_plan(device);
        let cols = window_columns(&plan, col_start, col_width);
        let bram_cols = cols.iter().filter(|k| **k == ColumnKind::Bram).count() as u32;
        let dsp_cols = cols.iter().filter(|k| **k == ColumnKind::Dsp).count() as u32;
        Resources {
            slices,
            luts: slices * S7_LUTS_PER_SLICE,
            ffs: slices * S7_FFS_PER_SLICE,
            brams: bram_cols * regions_spanned * S7_BRAMS_PER_COL_PER_REGION,
            mults: dsp_cols * regions_spanned * S7_DSPS_PER_COL_PER_REGION,
            tbufs: 0,
        }
    }

    fn validate_region_shape(
        &self,
        device: &Device,
        region: &ReconfigRegion,
    ) -> Result<(), FabricError> {
        // A row-less region spans the full height, which is aligned by
        // construction (device heights are whole clock regions).
        let (start, count) = region.rows_on(device);
        if !start.is_multiple_of(S7_CLOCK_REGION_ROWS)
            || !count.is_multiple_of(S7_CLOCK_REGION_ROWS)
            || count == 0
        {
            return Err(FabricError::InvalidRegion {
                name: region.name.clone(),
                reason: format!(
                    "rows [{}, {}) are not aligned to the {}-row clock regions \
                     of family `{}`",
                    start,
                    start + count,
                    S7_CLOCK_REGION_ROWS,
                    self.family_name()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_family_consistent() {
        for family in [DeviceFamily::VirtexII, DeviceFamily::Series7] {
            assert_eq!(family.capabilities().family(), family);
        }
        assert!(!DeviceFamily::VirtexII.capabilities().supports_2d_regions());
        assert!(DeviceFamily::Series7.capabilities().supports_2d_regions());
    }

    #[test]
    fn v2_capabilities_match_legacy_constants() {
        let caps = DeviceFamily::VirtexII.capabilities();
        let d = Device::xc2v2000();
        assert_eq!(caps.slices_per_clb(), 4);
        assert_eq!(caps.luts_per_slice(), 2);
        assert_eq!(caps.ffs_per_slice(), 2);
        assert_eq!(caps.clock_region_rows(&d), d.clb_rows);
        assert_eq!(caps.words_per_frame(&d), frame_words(56));
        assert_eq!(caps.device_brams(&d), 56);
        assert_eq!(caps.device_mults(&d), 56);
    }

    #[test]
    fn s7_plan_places_all_heterogeneous_columns() {
        let caps = DeviceFamily::Series7.capabilities();
        let d = Device::by_name("XC7A100T").unwrap();
        let plan = caps.column_plan(&d);
        let count = |kind| plan.iter().filter(|k| **k == kind).count() as u32;
        assert_eq!(count(ColumnKind::Clb), d.clb_cols);
        assert_eq!(count(ColumnKind::Bram), d.bram_cols);
        assert_eq!(count(ColumnKind::Dsp), d.dsp_cols);
        assert_eq!(count(ColumnKind::Gclk), 1);
        assert_eq!(count(ColumnKind::BramInterconnect), 0);
    }

    #[test]
    fn s7_window_resources_scale_with_clock_regions() {
        let caps = DeviceFamily::Series7.capabilities();
        let d = Device::by_name("XC7A100T").unwrap();
        let one = caps.window_resources(&d, 0, d.clb_cols, 0, 50);
        let all = caps.window_resources(&d, 0, d.clb_cols, 0, d.clb_rows);
        assert_eq!(all.slices, 3 * one.slices);
        assert_eq!(all.brams, 3 * one.brams);
        assert_eq!(all.mults, 3 * one.mults);
        // Full-device window accounts every BRAM/DSP on the part.
        assert_eq!(all.brams, d.brams());
        assert_eq!(all.mults, d.multipliers());
    }

    #[test]
    fn s7_shape_rules_enforce_clock_region_alignment() {
        let caps = DeviceFamily::Series7.capabilities();
        let d = Device::by_name("XC7A100T").unwrap();
        let aligned = ReconfigRegion::rect("r", 4, 6, 50, 50).unwrap();
        assert!(caps.validate_region_shape(&d, &aligned).is_ok());
        let skewed = ReconfigRegion::rect("r", 4, 6, 25, 50).unwrap();
        assert!(caps.validate_region_shape(&d, &skewed).is_err());
        let short = ReconfigRegion::rect("r", 4, 6, 0, 30).unwrap();
        assert!(caps.validate_region_shape(&d, &short).is_err());
    }

    #[test]
    fn v2_shape_rules_reject_partial_height() {
        let caps = DeviceFamily::VirtexII.capabilities();
        let d = Device::xc2v2000();
        let partial = ReconfigRegion::rect("r", 4, 4, 0, 28).unwrap();
        assert!(caps.validate_region_shape(&d, &partial).is_err());
        let full = ReconfigRegion::rect("r", 4, 4, 0, 56).unwrap();
        assert!(caps.validate_region_shape(&d, &full).is_ok());
        let columnar = ReconfigRegion::new("r", 4, 4).unwrap();
        assert!(caps.validate_region_shape(&d, &columnar).is_ok());
    }
}
