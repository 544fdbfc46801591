//! Device geometry: the catalog of both families and what a device's
//! family table makes of its dimensions.
//!
//! A device is an array of `clb_rows × clb_cols` CLBs with embedded
//! block-RAM (and, on the series7-like family, DSP) columns. Everything
//! that differs between families — slices per CLB, frames per column,
//! frame length, configuration-row height, block densities — is a field
//! of the family's [`FamilyTable`]. The Virtex-II row follows UG002: four
//! slices (2 × 2) per CLB, each with two 4-input LUTs and two flip-flops,
//! frames spanning the full device height (CLB column: 22 frames, BRAM
//! content: 64, BRAM interconnect: 22, IOB: 4, IOI: 22, global clock: 4).
//!
//! Absolute bitstream sizes produced by this model are within ~25 % of the
//! vendor numbers — close enough that every latency/area *ratio* the paper
//! reports is preserved (see `EXPERIMENTS.md` for the calibration note).

use crate::family::{Density, FamilyTable};
use crate::frame::frame_words;
use serde::Serialize;

/// The kind of a configuration column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ColumnKind {
    /// Global-clock spine column.
    Gclk,
    /// I/O block column (left or right edge).
    Iob,
    /// I/O interconnect column.
    Ioi,
    /// Logic (CLB) column.
    Clb,
    /// Block-RAM interconnect column.
    BramInterconnect,
    /// Block-RAM content column.
    Bram,
    /// DSP-slice column (series7-like family only; Virtex-II multipliers
    /// share the BRAM columns).
    Dsp,
}

/// Device family marker; [`DeviceFamily::table`] holds its facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceFamily {
    /// Xilinx Virtex-II (XC2Vxxxx): full-height column regions.
    VirtexII,
    /// Series7-like 2D fabric (XC7xxxx): clock-region rows, rectangular
    /// regions, heterogeneous CLB/BRAM/DSP columns.
    Series7,
}

/// A concrete FPGA device: geometry plus derived configuration layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Device {
    /// Part name, e.g. `"XC2V2000"`.
    pub name: String,
    /// Family.
    pub family: DeviceFamily,
    /// CLB rows.
    pub clb_rows: u32,
    /// CLB columns.
    pub clb_cols: u32,
    /// Number of BRAM columns.
    pub bram_cols: u32,
    /// Number of DSP columns (always 0 on Virtex-II, whose multipliers
    /// share the BRAM columns).
    pub dsp_cols: u32,
}

impl Device {
    /// Construct a custom device of `family`.
    ///
    /// # Panics
    /// Panics if a CLB dimension is zero, the height is not a whole number
    /// of the family's configuration rows, or the family has no DSP
    /// columns and `dsp_cols` is not zero.
    pub fn custom(
        name: impl Into<String>,
        family: DeviceFamily,
        clb_rows: u32,
        clb_cols: u32,
        bram_cols: u32,
        dsp_cols: u32,
    ) -> Self {
        assert!(clb_rows > 0 && clb_cols > 0, "device must be non-empty");
        let table = family.table();
        if let Some(height) = table.config_row_rows {
            assert!(
                clb_rows.is_multiple_of(height),
                "{} device height must be a whole number of {height}-row clock regions",
                table.name
            );
        }
        assert!(
            dsp_cols == 0 || table.column_frames(ColumnKind::Dsp) > 0,
            "family `{}` has no DSP columns",
            table.name
        );
        Device {
            name: name.into(),
            family,
            clb_rows,
            clb_cols,
            bram_cols,
            dsp_cols,
        }
    }

    /// The facts of this device's family.
    pub fn table(&self) -> &'static FamilyTable {
        self.family.table()
    }

    /// Look up a catalog device by (case-insensitive) part name.
    pub fn by_name(name: &str) -> Result<Device, crate::FabricError> {
        let upper = name.to_ascii_uppercase();
        CATALOG
            .iter()
            .find(|(n, ..)| *n == upper)
            .map(|&(n, family, r, c, b, d)| Device::custom(n, family, r, c, b, d))
            .ok_or_else(|| crate::FabricError::UnknownDevice(name.to_string()))
    }

    /// Catalog part names of one family, smallest to largest.
    pub fn catalog_names_in(family: DeviceFamily) -> Vec<&'static str> {
        CATALOG
            .iter()
            .filter(|(_, f, ..)| *f == family)
            .map(|(n, ..)| *n)
            .collect()
    }

    /// The device of the paper's Sundance prototyping board.
    pub fn xc2v2000() -> Device {
        Device::by_name("XC2V2000").expect("XC2V2000 is in the catalog")
    }

    /// Total CLBs.
    pub fn clbs(&self) -> u32 {
        self.clb_rows * self.clb_cols
    }

    /// Total slices (4 per CLB on Virtex-II, 2 on series7-like).
    pub fn slices(&self) -> u32 {
        self.clbs() * self.table().slices_per_clb
    }

    /// Total LUTs.
    pub fn luts(&self) -> u32 {
        self.slices() * self.table().luts_per_slice
    }

    /// Total slice flip-flops.
    pub fn ffs(&self) -> u32 {
        self.slices() * self.table().ffs_per_slice
    }

    /// Blocks of one density over the whole device: every column of its
    /// kind, all rows.
    fn blocks(&self, density: Density) -> u32 {
        let cols = self
            .column_plan()
            .iter()
            .filter(|&&k| k == density.kind)
            .count() as u32;
        cols * (self.clb_rows / density.rows) * density.count
    }

    /// Total block RAMs.
    pub fn brams(&self) -> u32 {
        self.blocks(self.table().brams)
    }

    /// Total multipliers (Virtex-II MULT18×18) / DSP slices (series7-like).
    pub fn multipliers(&self) -> u32 {
        self.blocks(self.table().mults)
    }

    /// Configuration rows of the device: 1 on Virtex-II (a single
    /// full-height row), `clb_rows / 50` clock regions on series7-like.
    pub fn clock_regions(&self) -> u32 {
        self.clb_rows / self.table().row_height(self)
    }

    /// The ordered column plan of the device, left to right: IOB, IOI, the
    /// CLB columns with the family's BRAM groups and DSP columns spread
    /// evenly between them and a GCLK spine in the middle, then IOI, IOB.
    pub fn column_plan(&self) -> Vec<ColumnKind> {
        self.table().column_plan(self)
    }

    /// Total configuration frames in the device: one row's column frames
    /// times its configuration rows.
    pub fn total_frames(&self) -> u32 {
        let table = self.table();
        let per_row: u32 = self
            .column_plan()
            .into_iter()
            .map(|kind| table.column_frames(kind))
            .sum();
        per_row * self.clock_regions()
    }

    /// Words (32-bit) per configuration frame: height-scaled on Virtex-II,
    /// fixed (101) on series7-like.
    pub fn words_per_frame(&self) -> u32 {
        self.table()
            .words_per_frame
            .unwrap_or_else(|| frame_words(self.clb_rows))
    }

    /// Bits per configuration frame.
    pub fn bits_per_frame(&self) -> u64 {
        self.words_per_frame() as u64 * 32
    }

    /// Total configuration bits of a full-device bitstream (frame payload
    /// only; packet overhead is accounted by [`crate::Bitstream`]).
    pub fn config_bits(&self) -> u64 {
        self.total_frames() as u64 * self.bits_per_frame()
    }
}

/// Device catalog: (name, family, clb_rows, clb_cols, bram_cols,
/// dsp_cols), each family smallest to largest. Virtex-II geometry per the
/// data sheet (DS031); the series7-like parts are whole 50-row clock
/// regions tall and roughly track the Artix/Kintex/Virtex-7 progression in
/// logic and hard-block capacity.
const CATALOG: &[(&str, DeviceFamily, u32, u32, u32, u32)] = &[
    ("XC2V40", DeviceFamily::VirtexII, 8, 8, 2, 0),
    ("XC2V80", DeviceFamily::VirtexII, 16, 8, 2, 0),
    ("XC2V250", DeviceFamily::VirtexII, 24, 16, 4, 0),
    ("XC2V500", DeviceFamily::VirtexII, 32, 24, 4, 0),
    ("XC2V1000", DeviceFamily::VirtexII, 40, 32, 4, 0),
    ("XC2V1500", DeviceFamily::VirtexII, 48, 40, 4, 0),
    ("XC2V2000", DeviceFamily::VirtexII, 56, 48, 4, 0),
    ("XC2V3000", DeviceFamily::VirtexII, 64, 56, 6, 0),
    ("XC2V4000", DeviceFamily::VirtexII, 80, 72, 6, 0),
    ("XC2V6000", DeviceFamily::VirtexII, 96, 88, 6, 0),
    ("XC2V8000", DeviceFamily::VirtexII, 112, 104, 6, 0),
    ("XC7A15T", DeviceFamily::Series7, 50, 20, 2, 1),
    ("XC7A50T", DeviceFamily::Series7, 100, 30, 3, 2),
    ("XC7A100T", DeviceFamily::Series7, 150, 40, 4, 3),
    ("XC7K160T", DeviceFamily::Series7, 200, 50, 6, 5),
    ("XC7V585T", DeviceFamily::Series7, 250, 80, 10, 8),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReconfigRegion;

    #[test]
    fn xc2v2000_geometry_matches_datasheet() {
        let d = Device::xc2v2000();
        assert_eq!(d.clb_rows, 56);
        assert_eq!(d.clb_cols, 48);
        assert_eq!(d.slices(), 10_752);
        assert_eq!(d.luts(), 21_504);
        assert_eq!(d.ffs(), 21_504);
        assert_eq!(d.brams(), 56);
        assert_eq!(d.multipliers(), 56);
    }

    #[test]
    fn catalog_is_ordered_and_resolvable() {
        let names = Device::catalog_names_in(DeviceFamily::VirtexII);
        assert_eq!(names.first(), Some(&"XC2V40"));
        assert_eq!(names.last(), Some(&"XC2V8000"));
        let mut prev_slices = 0;
        for n in names {
            let d = Device::by_name(n).unwrap();
            assert!(d.slices() > prev_slices, "catalog not monotone at {n}");
            prev_slices = d.slices();
        }
    }

    #[test]
    fn by_name_is_case_insensitive_and_errors_on_unknown() {
        assert!(Device::by_name("xc2v1000").is_ok());
        assert!(matches!(
            Device::by_name("XC9999"),
            Err(crate::FabricError::UnknownDevice(_))
        ));
    }

    #[test]
    fn column_plan_accounts_all_columns() {
        let d = Device::xc2v2000();
        let plan = d.column_plan();
        let clbs = plan.iter().filter(|k| **k == ColumnKind::Clb).count() as u32;
        let brams = plan.iter().filter(|k| **k == ColumnKind::Bram).count() as u32;
        let gclk = plan.iter().filter(|k| **k == ColumnKind::Gclk).count();
        let iob = plan.iter().filter(|k| **k == ColumnKind::Iob).count();
        assert_eq!(clbs, 48);
        assert_eq!(brams, 4);
        assert_eq!(gclk, 1);
        assert_eq!(iob, 2);
    }

    #[test]
    fn frame_counts_total_is_plausible() {
        let d = Device::xc2v2000();
        // 48 CLB * 22 + 4 * (64 + 22) + 4 (gclk) + 2*4 (iob) + 2*22 (ioi)
        assert_eq!(d.total_frames(), 48 * 22 + 4 * (64 + 22) + 4 + 8 + 44);
    }

    #[test]
    fn config_bits_grow_with_device_size() {
        let small = Device::by_name("XC2V250").unwrap();
        let big = Device::xc2v2000();
        assert!(big.config_bits() > 4 * small.config_bits());
        // Sanity: XC2V2000 model total ~6-9 Mbit (vendor: ~8.4 Mbit).
        let mbit = big.config_bits() as f64 / 1e6;
        assert!((5.0..10.0).contains(&mbit), "got {mbit} Mbit");
    }

    #[test]
    fn clb_window_frames_scale_with_width() {
        let d = Device::xc2v2000();
        let frames = |width| ReconfigRegion::new("w", 0, width).unwrap().frames(&d);
        let (w2, w4) = (frames(2), frames(4));
        assert!(w4 >= 2 * w2 - 64); // may differ by embedded BRAM columns
        assert!(w4 > w2);
        // Full width covers at least all CLB frames.
        assert!(frames(d.clb_cols) >= d.clb_cols * 22);
    }

    #[test]
    fn s7_geometry_and_catalog() {
        let d = Device::by_name("xc7a100t").unwrap();
        assert_eq!(d.family, DeviceFamily::Series7);
        assert_eq!(d.clock_regions(), 3);
        assert_eq!(d.slices(), 150 * 40 * 2);
        assert_eq!(d.luts(), d.slices() * 4);
        assert_eq!(d.ffs(), d.slices() * 8);
        assert_eq!(d.brams(), 4 * 3 * 10);
        assert_eq!(d.multipliers(), 3 * 3 * 20);
        assert_eq!(d.words_per_frame(), 101);
        // Catalog is slice-monotone.
        let mut prev = 0;
        for n in Device::catalog_names_in(DeviceFamily::Series7) {
            let d = Device::by_name(n).unwrap();
            assert!(d.slices() > prev, "S7 catalog not monotone at {n}");
            prev = d.slices();
        }
    }

    #[test]
    fn s7_frame_counts_scale_with_clock_regions() {
        let small = Device::by_name("XC7A15T").unwrap();
        // One clock region: 20 CLB × 36 + 2 BRAM × 128 + 1 DSP × 28 +
        // GCLK 30 + 2 × IOB 42 + 2 × IOI 30.
        assert_eq!(
            small.total_frames(),
            20 * 36 + 2 * 128 + 28 + 30 + 2 * 42 + 2 * 30
        );
        let d = Device::by_name("XC7A100T").unwrap();
        let per_region: u32 = d
            .column_plan()
            .iter()
            .map(|k| d.table().column_frames(*k))
            .sum();
        assert_eq!(d.total_frames(), 3 * per_region);
    }

    #[test]
    #[should_panic(expected = "clock regions")]
    fn s7_unaligned_height_rejected() {
        let _ = Device::custom("BAD7", DeviceFamily::Series7, 75, 20, 2, 1);
    }

    #[test]
    #[should_panic(expected = "no DSP columns")]
    fn v2_dsp_columns_rejected() {
        let _ = Device::custom("BAD", DeviceFamily::VirtexII, 8, 8, 2, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_device_rejected() {
        let _ = Device::custom("BAD", DeviceFamily::VirtexII, 0, 4, 0, 0);
    }
}
