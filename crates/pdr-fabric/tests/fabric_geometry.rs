//! Region geometry across both fabric generations, where each family is
//! one `FamilyTable` row and a `ReconfigRegion` carries an optional row
//! span.
//!
//! * `catalog_geometry_is_pinned` digests everything the table produces
//!   on every catalog device: column plans, frame and block totals, and
//!   the frames, resources and shape verdict of every column window, full
//!   height and over a fixed set of row spans.
//! * `overlaps` is symmetric, reflexive, and agrees with plain interval
//!   arithmetic on the resolved column × row windows;
//! * `frames` is monotone under window containment (a region nested in
//!   another never needs more configuration frames), and on the
//!   series7-like family it is linear in the number of clock-region rows.

use pdr_fabric::digest::{to_hex, Fnv64};
use pdr_fabric::{Device, DeviceFamily, ReconfigRegion, S7_CLOCK_REGION_ROWS};
use proptest::prelude::*;

/// Feed one region's frames, resources and `validate_on` verdict (error
/// text included) into `h`.
fn eat_region(h: &mut Fnv64, device: &Device, region: &ReconfigRegion) {
    let r = region.resources(device);
    h.eat_u64(u64::from(region.frames(device)));
    for v in [r.slices, r.luts, r.ffs, r.brams, r.mults, r.tbufs] {
        h.eat_u64(u64::from(v));
    }
    match region.validate_on(device) {
        Ok(()) => h.eat_str("ok"),
        Err(e) => h.eat_str(&e.to_string()),
    };
}

/// Every catalog device of both families: its column plan, frame and
/// block totals, and the frames, resources and verdict of every in-bounds
/// column window, full height and over a fixed set of row spans (aligned,
/// unaligned and single-row). The digest was taken before the family
/// geometry became one table, and pins every figure the table produces.
#[test]
fn catalog_geometry_is_pinned() {
    let mut h = Fnv64::new();
    for family in [DeviceFamily::VirtexII, DeviceFamily::Series7] {
        for name in Device::catalog_names_in(family) {
            let d = Device::by_name(name).expect("catalog device");
            h.eat_str(name);
            for kind in d.column_plan() {
                h.eat_str(&format!("{kind:?}"));
            }
            for v in [
                d.total_frames(),
                d.words_per_frame(),
                d.brams(),
                d.multipliers(),
            ] {
                h.eat_u64(u64::from(v));
            }
            let rows = d.clb_rows;
            let spans = [
                (0, S7_CLOCK_REGION_ROWS.min(rows)),
                (
                    rows - S7_CLOCK_REGION_ROWS.min(rows),
                    S7_CLOCK_REGION_ROWS.min(rows),
                ),
                (rows / 2, rows - rows / 2),
                (1, rows - 1),
                (0, 1),
            ];
            for start in 0..d.clb_cols {
                for width in 2..=d.clb_cols - start {
                    eat_region(&mut h, &d, &ReconfigRegion::new("w", start, width).unwrap());
                    for (row_start, row_count) in spans {
                        let rect = ReconfigRegion::rect("w", start, width, row_start, row_count);
                        eat_region(&mut h, &d, &rect.unwrap());
                    }
                }
            }
        }
    }
    assert_eq!(to_hex(h.finish()), "f16f0802de9bae40");
}

const V2_DEVICES: [&str; 3] = ["XC2V1000", "XC2V2000", "XC2V6000"];
const S7_DEVICES: [&str; 4] = ["XC7A15T", "XC7A50T", "XC7A100T", "XC7K160T"];

/// A catalog device of the requested generation.
fn device(series7: bool, pick: u32) -> Device {
    let name = if series7 {
        S7_DEVICES[pick as usize % S7_DEVICES.len()]
    } else {
        V2_DEVICES[pick as usize % V2_DEVICES.len()]
    };
    Device::by_name(name).expect("catalog device")
}

/// An in-bounds region on `device` from raw seeds: the column window and
/// (when `full` is false) the row span are folded into the device's
/// dimensions, so every generated region passes the bounds half of
/// `validate_on` regardless of family.
fn region_on(
    device: &Device,
    name: &str,
    ((col, width), (row, height), full): ((u32, u32), (u32, u32), bool),
) -> ReconfigRegion {
    let width = 2 + width % 7;
    let start = col % (device.clb_cols - width);
    if full {
        ReconfigRegion::new(name, start, width).expect("width >= 2")
    } else {
        let row_start = row % device.clb_rows;
        let row_count = 1 + height % (device.clb_rows - row_start);
        ReconfigRegion::rect(name, start, width, row_start, row_count).expect("non-empty rect")
    }
}

/// Seed strategy for [`region_on`] (nested pairs: column window, row
/// window, full-height flag).
#[allow(clippy::type_complexity)]
fn region_seed() -> (
    (std::ops::Range<u32>, std::ops::Range<u32>),
    (std::ops::Range<u32>, std::ops::Range<u32>),
    proptest::Any<bool>,
) {
    (
        (0u32..1024, 0u32..1024),
        (0u32..1024, 0u32..1024),
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn overlap_is_symmetric_and_matches_interval_math(
        (series7, pick) in (any::<bool>(), 0u32..64),
        a in region_seed(),
        b in region_seed(),
    ) {
        let device = device(series7, pick);
        let ra = region_on(&device, "a", a);
        let rb = region_on(&device, "b", b);

        prop_assert!(ra.overlaps(&ra), "a region overlaps itself");
        prop_assert_eq!(ra.overlaps(&rb), rb.overlaps(&ra), "overlap is symmetric");

        // Plain interval arithmetic on the windows resolved against the
        // device: both spans are in bounds by construction, so resolving
        // full-height to [0, clb_rows) is faithful.
        let cols = ra.clb_col_start < rb.clb_col_end() && rb.clb_col_start < ra.clb_col_end();
        let (a0, an) = ra.rows_on(&device);
        let (b0, bn) = rb.rows_on(&device);
        let rows = a0 < b0 + bn && b0 < a0 + an;
        prop_assert_eq!(ra.overlaps(&rb), cols && rows);
    }

    #[test]
    fn frames_are_monotone_under_window_containment(
        (series7, pick) in (any::<bool>(), 0u32..64),
        (outer_col, outer_width) in (0u32..1024, 0u32..1024),
        (outer_band, outer_bands) in (0u32..1024, 0u32..1024),
        (dcol, dwidth, dband, dbands) in (0u32..1024, 0u32..1024, 0u32..1024, 0u32..1024),
    ) {
        let device = device(series7, pick);

        // Outer window: columns anywhere in bounds; rows are whole
        // clock-region bands on series7 (the only legal rectangles there)
        // and the full height on Virtex-II.
        let outer_width = 2 + outer_width % 7;
        let outer_col = outer_col % (device.clb_cols - outer_width);
        let bands = device.clb_rows / S7_CLOCK_REGION_ROWS;
        let (outer, inner) = if series7 {
            let outer_bands = 1 + outer_bands % bands;
            let outer_band = outer_band % (bands - outer_bands + 1);
            // Inner window nested inside the outer one.
            let inner_width = 2 + dwidth % (outer_width - 1);
            let inner_col = outer_col + dcol % (outer_width - inner_width + 1);
            let inner_bands = 1 + dbands % outer_bands;
            let inner_band = outer_band + dband % (outer_bands - inner_bands + 1);
            (
                ReconfigRegion::rect(
                    "outer",
                    outer_col,
                    outer_width,
                    outer_band * S7_CLOCK_REGION_ROWS,
                    outer_bands * S7_CLOCK_REGION_ROWS,
                )
                .expect("aligned rect"),
                ReconfigRegion::rect(
                    "inner",
                    inner_col,
                    inner_width,
                    inner_band * S7_CLOCK_REGION_ROWS,
                    inner_bands * S7_CLOCK_REGION_ROWS,
                )
                .expect("aligned rect"),
            )
        } else {
            let inner_width = 2 + dwidth % (outer_width - 1);
            let inner_col = outer_col + dcol % (outer_width - inner_width + 1);
            (
                ReconfigRegion::new("outer", outer_col, outer_width).expect("width >= 2"),
                ReconfigRegion::new("inner", inner_col, inner_width).expect("width >= 2"),
            )
        };

        prop_assert!(outer.validate_on(&device).is_ok(), "outer region is legal");
        prop_assert!(inner.validate_on(&device).is_ok(), "inner region is legal");
        prop_assert!(inner.frames(&device) > 0, "a region always costs frames");
        prop_assert!(
            inner.frames(&device) <= outer.frames(&device),
            "nested window needs no more frames: inner {} > outer {}",
            inner.frames(&device),
            outer.frames(&device)
        );

        // Per-clock-region-row frame addressing makes the series7 frame
        // count linear in the number of bands a rectangle spans.
        if series7 {
            let (row_start, row_count) = outer.rows_on(&device);
            let one_band = ReconfigRegion::rect(
                "band",
                outer.clb_col_start,
                outer.clb_col_width,
                row_start,
                S7_CLOCK_REGION_ROWS,
            )
            .expect("aligned rect");
            prop_assert_eq!(
                outer.frames(&device),
                (row_count / S7_CLOCK_REGION_ROWS) * one_band.frames(&device),
                "frames are linear in clock-region rows"
            );
        }
    }
}
