//! Virtex-II-class device geometry.
//!
//! The model follows the column-oriented organization of Xilinx Virtex-II
//! (UG002): the device is an array of `clb_rows × clb_cols` CLBs, each CLB
//! containing four slices (2 × 2), each slice two 4-input LUTs and two
//! flip-flops. Block RAM and 18×18 multipliers live in dedicated columns.
//! Configuration memory is organized in vertical *frames* spanning the full
//! device height; the per-column frame counts below are the documented
//! Virtex-II values (CLB column: 22 frames, BRAM content: 64, BRAM
//! interconnect: 22, IOB: 4, IOI: 22, global clock: 4).
//!
//! Absolute bitstream sizes produced by this model are within ~25 % of the
//! vendor numbers — close enough that every latency/area *ratio* the paper
//! reports is preserved (see `EXPERIMENTS.md` for the calibration note).

use crate::family::FabricCapabilities;
use crate::frame::FrameCounts;
use serde::Serialize;

/// Slices per CLB in Virtex-II.
pub const SLICES_PER_CLB: u32 = 4;
/// 4-input LUTs per slice.
pub const LUTS_PER_SLICE: u32 = 2;
/// Flip-flops per slice.
pub const FFS_PER_SLICE: u32 = 2;
/// BRAM blocks per BRAM column is `clb_rows / 4` in Virtex-II.
pub const CLB_ROWS_PER_BRAM: u32 = 4;

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

impl ColumnKind {
    /// Configuration frames occupied by one column of this kind
    /// (Virtex-II documented values; the series7-like counts live in
    /// [`crate::family::Series7Fabric`]).
    pub const fn frames(self) -> u32 {
        match self {
            ColumnKind::Gclk => 4,
            ColumnKind::Iob => 4,
            ColumnKind::Ioi => 22,
            ColumnKind::Clb => 22,
            ColumnKind::BramInterconnect => 22,
            ColumnKind::Bram => 64,
            // Virtex-II has no standalone DSP columns.
            ColumnKind::Dsp => 0,
        }
    }
}

/// Device family marker. Geometry and DRC rules are dispatched through
/// [`DeviceFamily::capabilities`].
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
    /// Construct a custom Virtex-II-class device.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn custom(name: impl Into<String>, clb_rows: u32, clb_cols: u32, bram_cols: u32) -> Self {
        assert!(clb_rows > 0 && clb_cols > 0, "device must be non-empty");
        Device {
            name: name.into(),
            family: DeviceFamily::VirtexII,
            clb_rows,
            clb_cols,
            bram_cols,
            dsp_cols: 0,
        }
    }

    /// Construct a custom series7-like device.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the height is not a whole number
    /// of clock regions.
    pub fn custom_s7(
        name: impl Into<String>,
        clb_rows: u32,
        clb_cols: u32,
        bram_cols: u32,
        dsp_cols: u32,
    ) -> Self {
        assert!(clb_rows > 0 && clb_cols > 0, "device must be non-empty");
        assert!(
            clb_rows.is_multiple_of(crate::family::S7_CLOCK_REGION_ROWS),
            "series7-like device height must be a whole number of {}-row clock regions",
            crate::family::S7_CLOCK_REGION_ROWS
        );
        Device {
            name: name.into(),
            family: DeviceFamily::Series7,
            clb_rows,
            clb_cols,
            bram_cols,
            dsp_cols,
        }
    }

    /// The capability set of this device's family.
    pub fn capabilities(&self) -> &'static dyn FabricCapabilities {
        self.family.capabilities()
    }

    /// Look up a catalog device by (case-insensitive) part name, across
    /// both family catalogs.
    pub fn by_name(name: &str) -> Result<Device, crate::FabricError> {
        let upper = name.to_ascii_uppercase();
        if let Some(&(n, r, c, b)) = CATALOG.iter().find(|(n, ..)| *n == upper) {
            return Ok(Device::custom(n, r, c, b));
        }
        S7_CATALOG
            .iter()
            .find(|(n, ..)| *n == upper)
            .map(|&(n, r, c, b, d)| Device::custom_s7(n, r, c, b, d))
            .ok_or_else(|| crate::FabricError::UnknownDevice(name.to_string()))
    }

    /// All Virtex-II catalog part names, smallest to largest.
    pub fn catalog_names() -> Vec<&'static str> {
        CATALOG.iter().map(|(n, ..)| *n).collect()
    }

    /// Catalog part names of one family, smallest to largest.
    pub fn catalog_names_in(family: DeviceFamily) -> Vec<&'static str> {
        match family {
            DeviceFamily::VirtexII => CATALOG.iter().map(|(n, ..)| *n).collect(),
            DeviceFamily::Series7 => S7_CATALOG.iter().map(|(n, ..)| *n).collect(),
        }
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
        self.clbs() * self.capabilities().slices_per_clb()
    }

    /// Total LUTs.
    pub fn luts(&self) -> u32 {
        self.slices() * self.capabilities().luts_per_slice()
    }

    /// Total slice flip-flops.
    pub fn ffs(&self) -> u32 {
        self.slices() * self.capabilities().ffs_per_slice()
    }

    /// Total block RAMs.
    pub fn brams(&self) -> u32 {
        self.capabilities().device_brams(self)
    }

    /// Total multipliers (Virtex-II MULT18×18) / DSP slices (series7-like).
    pub fn multipliers(&self) -> u32 {
        self.capabilities().device_mults(self)
    }

    /// Clock-region rows of the device: 1 on Virtex-II (a single
    /// full-height configuration row), `clb_rows / 50` on series7-like.
    pub fn clock_regions(&self) -> u32 {
        self.clb_rows / self.capabilities().clock_region_rows(self)
    }

    /// The ordered column plan of the device, left to right: IOB, IOI,
    /// then CLB columns with the family's embedded BRAM (and, on
    /// series7-like, DSP) columns distributed evenly and a GCLK spine in
    /// the middle, IOI, IOB.
    pub fn column_plan(&self) -> Vec<ColumnKind> {
        self.capabilities().column_plan(self)
    }

    /// Frame counts per column kind for the whole device.
    pub fn frame_counts(&self) -> FrameCounts {
        self.capabilities().device_frame_counts(self)
    }

    /// Total configuration frames in the device.
    pub fn total_frames(&self) -> u32 {
        self.frame_counts().total()
    }

    /// Words (32-bit) per configuration frame: height-scaled on Virtex-II,
    /// fixed (101) on series7-like.
    pub fn words_per_frame(&self) -> u32 {
        self.capabilities().words_per_frame(self)
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

    /// Frames occupied by a full-height window of `width` CLB columns
    /// starting at CLB column `start` — the frame cost of a reconfigurable
    /// region. Includes any BRAM (and series7-like DSP) columns falling
    /// inside the window.
    pub fn frames_in_clb_window(&self, start: u32, width: u32) -> u32 {
        assert!(
            start
                .checked_add(width)
                .is_some_and(|end| end <= self.clb_cols),
            "window {start} + {width} exceeds {} CLB columns",
            self.clb_cols
        );
        self.capabilities()
            .window_frames(self, start, width, 0, self.clb_rows)
    }
}

/// Virtex-II catalog: (name, clb_rows, clb_cols, bram_cols).
/// Geometry per the Virtex-II data sheet (DS031).
const CATALOG: &[(&str, u32, u32, u32)] = &[
    ("XC2V40", 8, 8, 2),
    ("XC2V80", 16, 8, 2),
    ("XC2V250", 24, 16, 4),
    ("XC2V500", 32, 24, 4),
    ("XC2V1000", 40, 32, 4),
    ("XC2V1500", 48, 40, 4),
    ("XC2V2000", 56, 48, 4),
    ("XC2V3000", 64, 56, 6),
    ("XC2V4000", 80, 72, 6),
    ("XC2V6000", 96, 88, 6),
    ("XC2V8000", 112, 104, 6),
];

/// Series7-like catalog: (name, clb_rows, clb_cols, bram_cols, dsp_cols).
/// Heights are whole 50-row clock regions; the parts roughly track the
/// Artix/Kintex/Virtex-7 progression in logic and hard-block capacity.
const S7_CATALOG: &[(&str, u32, u32, u32, u32)] = &[
    ("XC7A15T", 50, 20, 2, 1),
    ("XC7A50T", 100, 30, 3, 2),
    ("XC7A100T", 150, 40, 4, 3),
    ("XC7K160T", 200, 50, 6, 5),
    ("XC7V585T", 250, 80, 10, 8),
];

#[cfg(test)]
mod tests {
    use super::*;

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
        let names = Device::catalog_names();
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
        let w2 = d.frames_in_clb_window(0, 2);
        let w4 = d.frames_in_clb_window(0, 4);
        assert!(w4 >= 2 * w2 - 64); // may differ by embedded BRAM columns
        assert!(w4 > w2);
        // Full width covers at least all CLB frames.
        let all = d.frames_in_clb_window(0, d.clb_cols);
        assert!(all >= d.clb_cols * 22);
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
            .map(|k| d.capabilities().column_frames(*k))
            .sum();
        assert_eq!(d.total_frames(), 3 * per_region);
    }

    #[test]
    #[should_panic(expected = "clock regions")]
    fn s7_unaligned_height_rejected() {
        let _ = Device::custom_s7("BAD7", 75, 20, 2, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn clb_window_out_of_bounds_panics() {
        let d = Device::xc2v2000();
        let _ = d.frames_in_clb_window(47, 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_device_rejected() {
        let _ = Device::custom("BAD", 0, 4, 0);
    }
}
