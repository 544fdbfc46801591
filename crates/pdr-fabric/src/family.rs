//! Device families as rows of data.
//!
//! Everything the stack above `pdr-fabric` needs to know about a device
//! generation — how regions may be shaped, how frames are addressed and
//! counted, what resources a tile window holds — is one [`FamilyTable`]
//! row. One column plan, one window walk and one region-shape rule read
//! it for every family:
//!
//! * [`VIRTEX_II`] — the paper's Xilinx Virtex-II Modular Design rules:
//!   one configuration row the height of the device, full-height column
//!   regions, homogeneous CLB fabric with embedded BRAM/multiplier column
//!   pairs, per-column frames whose length scales with device height. It
//!   is the one-row case of every rule below, so the Virtex-II flow stays
//!   byte-identical (gated by `bench_fabric`).
//! * [`SERIES7`] — a series7-like generation in the Vivado-DFX style: the
//!   die is split into clock regions 50 CLB rows tall, frames are
//!   fixed-length (101 words) and addressed per clock-region row, the
//!   fabric mixes CLB / BRAM / DSP columns, and reconfigurable regions are
//!   2D rectangles aligned to clock-region boundaries.

use crate::device::{ColumnKind, Device, DeviceFamily};
use crate::error::FabricError;
use crate::region::ReconfigRegion;
use crate::resources::Resources;

/// CLB rows per clock region in the series7-like family.
pub const S7_CLOCK_REGION_ROWS: u32 = 50;

/// How many hard blocks (BRAMs, multipliers or DSP slices) a column of
/// `kind` holds: `count` per `rows` CLB rows.
#[derive(Debug, Clone, Copy)]
pub struct Density {
    /// The column kind holding the blocks.
    pub kind: ColumnKind,
    /// CLB rows per group of blocks.
    pub rows: u32,
    /// Blocks per group.
    pub count: u32,
}

/// The facts of one device family.
#[derive(Debug)]
pub struct FamilyTable {
    /// Family name in diagnostics and reports.
    pub name: &'static str,
    /// Whether regions may be 2D rectangles (`true`) or must span the full
    /// device height (`false`).
    pub regions_2d: bool,
    /// Height of one configuration row in CLB rows; `None` is one row the
    /// height of the device. Region row spans align to it.
    pub config_row_rows: Option<u32>,
    /// Fixed words (32-bit) per frame; `None` scales with the device
    /// height (80 bits per CLB row plus a pad word,
    /// [`frame_words`](crate::frame::frame_words)).
    pub words_per_frame: Option<u32>,
    /// Frames of one column per configuration row, indexed by
    /// `ColumnKind as usize`.
    pub frames_per_column: [u32; 7],
    /// Slices per CLB.
    pub slices_per_clb: u32,
    /// LUTs per slice.
    pub luts_per_slice: u32,
    /// Flip-flops per slice.
    pub ffs_per_slice: u32,
    /// The columns one BRAM column of the device places, left to right.
    pub bram_group: &'static [ColumnKind],
    /// Block RAMs.
    pub brams: Density,
    /// Multipliers (Virtex-II MULT18×18, beside the BRAMs) or DSP slices.
    pub mults: Density,
}

/// Xilinx Virtex-II Modular Design fabric (the paper's generation).
pub const VIRTEX_II: FamilyTable = FamilyTable {
    name: "Virtex-II",
    regions_2d: false,
    config_row_rows: None,
    words_per_frame: None,
    // Gclk, Iob, Ioi, Clb, BramInterconnect, Bram, Dsp (UG002 values;
    // Virtex-II has no DSP columns).
    frames_per_column: [4, 4, 22, 22, 22, 64, 0],
    slices_per_clb: 4,
    luts_per_slice: 2,
    ffs_per_slice: 2,
    bram_group: &[ColumnKind::BramInterconnect, ColumnKind::Bram],
    brams: Density {
        kind: ColumnKind::Bram,
        rows: 4,
        count: 1,
    },
    mults: Density {
        kind: ColumnKind::Bram,
        rows: 4,
        count: 1,
    },
};

/// Series7-like 2D heterogeneous fabric (Vivado-DFX-style pblocks).
pub const SERIES7: FamilyTable = FamilyTable {
    name: "series7-like",
    regions_2d: true,
    config_row_rows: Some(S7_CLOCK_REGION_ROWS),
    words_per_frame: Some(101),
    // Gclk, Iob, Ioi, Clb, BramInterconnect, Bram, Dsp. A BRAM column
    // carries content and interconnect in one, so no separate
    // interconnect column appears in this family's plans.
    frames_per_column: [30, 42, 30, 36, 0, 128, 28],
    slices_per_clb: 2,
    luts_per_slice: 4,
    ffs_per_slice: 8,
    bram_group: &[ColumnKind::Bram],
    brams: Density {
        kind: ColumnKind::Bram,
        rows: S7_CLOCK_REGION_ROWS,
        count: 10,
    },
    mults: Density {
        kind: ColumnKind::Dsp,
        rows: S7_CLOCK_REGION_ROWS,
        count: 20,
    },
};

impl DeviceFamily {
    /// The facts of this family.
    pub fn table(self) -> &'static FamilyTable {
        match self {
            DeviceFamily::VirtexII => &VIRTEX_II,
            DeviceFamily::Series7 => &SERIES7,
        }
    }
}

impl FamilyTable {
    /// Configuration frames of one column of `kind`, per configuration row.
    pub fn column_frames(&self, kind: ColumnKind) -> u32 {
        self.frames_per_column[kind as usize]
    }

    /// Height of one configuration row of `device` in CLB rows: the whole
    /// device on Virtex-II, one clock region on the series7-like family.
    pub fn row_height(&self, device: &Device) -> u32 {
        self.config_row_rows.unwrap_or(device.clb_rows)
    }

    /// The column plan of `device` (see `Device::column_plan`): DSP
    /// columns sit half a stride after the BRAM cuts, and groups that do
    /// not fit the stride go at the end.
    pub(crate) fn column_plan(&self, device: &Device) -> Vec<ColumnKind> {
        let (clb_cols, bram_cols, dsp_cols) = (device.clb_cols, device.bram_cols, device.dsp_cols);
        let group = self.bram_group;
        let mut plan =
            Vec::with_capacity((clb_cols + group.len() as u32 * bram_cols + dsp_cols + 5) as usize);
        plan.extend([ColumnKind::Iob, ColumnKind::Ioi]);
        let stride = |cols: u32| (clb_cols / (cols + 1)).max(1);
        let (bram_stride, dsp_stride) = (stride(bram_cols), stride(dsp_cols));
        let mid = clb_cols / 2;
        let (mut brams_placed, mut dsps_placed) = (0, 0);
        for i in 0..clb_cols {
            if i == mid {
                plan.push(ColumnKind::Gclk);
            }
            if i > 0 && i % bram_stride == 0 && brams_placed < bram_cols {
                plan.extend_from_slice(group);
                brams_placed += 1;
            }
            if i > dsp_stride / 2
                && (i - dsp_stride / 2) % dsp_stride == 0
                && dsps_placed < dsp_cols
            {
                plan.push(ColumnKind::Dsp);
                dsps_placed += 1;
            }
            plan.push(ColumnKind::Clb);
        }
        for _ in brams_placed..bram_cols {
            plan.extend_from_slice(group);
        }
        for _ in dsps_placed..dsp_cols {
            plan.push(ColumnKind::Dsp);
        }
        plan.extend([ColumnKind::Ioi, ColumnKind::Iob]);
        plan
    }

    /// The columns of `device` inside a window of `col_width` CLB columns
    /// from `col_start`: its CLB columns, and each embedded (BRAM/DSP/GCLK)
    /// column while the window is open — the previous CLB column was
    /// inside and another inside column follows. One plan allocation.
    fn window_columns(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
    ) -> impl Iterator<Item = ColumnKind> {
        let end = col_start.saturating_add(col_width);
        let mut clb_index = 0u32;
        let mut inside_prev = false;
        self.column_plan(device)
            .into_iter()
            .filter(move |&kind| match kind {
                ColumnKind::Clb => {
                    inside_prev = clb_index >= col_start && clb_index < end;
                    clb_index += 1;
                    inside_prev
                }
                ColumnKind::Iob | ColumnKind::Ioi => false,
                _ => inside_prev && clb_index < end,
            })
    }

    /// Configuration frames of a window of `col_width` CLB columns from
    /// `col_start`, `row_count` CLB rows tall: the frames of its columns
    /// in one configuration row, times the configuration rows it spans.
    pub(crate) fn window_frames(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        row_count: u32,
    ) -> u32 {
        let per_row: u32 = self
            .window_columns(device, col_start, col_width)
            .map(|kind| self.column_frames(kind))
            .sum();
        per_row * row_count.div_ceil(self.row_height(device))
    }

    /// Resource capacity of a window of `col_width` CLB columns from
    /// `col_start`, `row_count` CLB rows tall — the feasibility vector the
    /// 2D floorplanner packs against.
    pub(crate) fn window_resources(
        &self,
        device: &Device,
        col_start: u32,
        col_width: u32,
        row_count: u32,
    ) -> Resources {
        let (mut bram_cols, mut mult_cols) = (0, 0);
        for kind in self.window_columns(device, col_start, col_width) {
            bram_cols += u32::from(kind == self.brams.kind);
            mult_cols += u32::from(kind == self.mults.kind);
        }
        let blocks = |d: Density, cols: u32| cols * (row_count / d.rows) * d.count;
        let slices = row_count * col_width * self.slices_per_clb;
        Resources {
            slices,
            luts: slices * self.luts_per_slice,
            ffs: slices * self.ffs_per_slice,
            brams: blocks(self.brams, bram_cols),
            mults: blocks(self.mults, mult_cols),
            tbufs: 0,
        }
    }

    /// The family's region shape rule, checked after the column and row
    /// bounds of `ReconfigRegion::validate_on`: whole configuration rows
    /// on a 2D family, the full device height otherwise.
    pub fn check_region_shape(
        &self,
        device: &Device,
        region: &ReconfigRegion,
    ) -> Result<(), FabricError> {
        let (start, count) = region.rows_on(device);
        let end = start.saturating_add(count);
        let reason = if self.regions_2d {
            let height = self.row_height(device);
            if start.is_multiple_of(height) && count.is_multiple_of(height) && count > 0 {
                return Ok(());
            }
            format!(
                "rows [{start}, {end}) are not aligned to the {height}-row clock regions \
                 of family `{}`",
                self.name
            )
        } else {
            if (start, count) == (0, device.clb_rows) {
                return Ok(());
            }
            format!(
                "family `{}` supports only full-height column regions, got rows [{start}, {end})",
                self.name
            )
        };
        Err(FabricError::InvalidRegion {
            name: region.name.clone(),
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_table_matches_the_datasheet() {
        let d = Device::xc2v2000();
        let t = d.table();
        assert!(!t.regions_2d);
        assert_eq!(
            (t.slices_per_clb, t.luts_per_slice, t.ffs_per_slice),
            (4, 2, 2)
        );
        assert_eq!(t.row_height(&d), d.clb_rows);
        assert_eq!(d.words_per_frame(), crate::frame::frame_words(56));
        assert_eq!(t.column_frames(ColumnKind::Clb), 22);
        assert_eq!(t.column_frames(ColumnKind::Bram), 64);
        assert_eq!(d.brams(), 56);
        assert_eq!(d.multipliers(), 56);
    }

    #[test]
    fn s7_plan_places_all_heterogeneous_columns() {
        let d = Device::by_name("XC7A100T").unwrap();
        assert!(d.table().regions_2d);
        let plan = d.column_plan();
        let count = |kind| plan.iter().filter(|k| **k == kind).count() as u32;
        assert_eq!(count(ColumnKind::Clb), d.clb_cols);
        assert_eq!(count(ColumnKind::Bram), d.bram_cols);
        assert_eq!(count(ColumnKind::Dsp), d.dsp_cols);
        assert_eq!(count(ColumnKind::Gclk), 1);
        assert_eq!(count(ColumnKind::BramInterconnect), 0);
    }

    #[test]
    fn s7_window_resources_scale_with_clock_regions() {
        let d = Device::by_name("XC7A100T").unwrap();
        let one = SERIES7.window_resources(&d, 0, d.clb_cols, 50);
        let all = SERIES7.window_resources(&d, 0, d.clb_cols, d.clb_rows);
        assert_eq!(all.slices, 3 * one.slices);
        assert_eq!(all.brams, 3 * one.brams);
        assert_eq!(all.mults, 3 * one.mults);
        // Full-device window accounts every BRAM/DSP on the part.
        assert_eq!(all.brams, d.brams());
        assert_eq!(all.mults, d.multipliers());
    }

    #[test]
    fn s7_shape_rules_enforce_clock_region_alignment() {
        let d = Device::by_name("XC7A100T").unwrap();
        let aligned = ReconfigRegion::rect("r", 4, 6, 50, 50).unwrap();
        assert!(SERIES7.check_region_shape(&d, &aligned).is_ok());
        let skewed = ReconfigRegion::rect("r", 4, 6, 25, 50).unwrap();
        assert!(SERIES7.check_region_shape(&d, &skewed).is_err());
        let short = ReconfigRegion::rect("r", 4, 6, 0, 30).unwrap();
        assert!(SERIES7.check_region_shape(&d, &short).is_err());
    }

    #[test]
    fn v2_shape_rules_reject_partial_height() {
        let d = Device::xc2v2000();
        let partial = ReconfigRegion::rect("r", 4, 4, 0, 28).unwrap();
        assert!(VIRTEX_II.check_region_shape(&d, &partial).is_err());
        let full = ReconfigRegion::rect("r", 4, 4, 0, 56).unwrap();
        assert!(VIRTEX_II.check_region_shape(&d, &full).is_ok());
        let columnar = ReconfigRegion::new("r", 4, 4).unwrap();
        assert!(VIRTEX_II.check_region_shape(&d, &columnar).is_ok());
    }
}
