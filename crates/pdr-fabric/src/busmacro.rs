//! Bus macros: fixed routing bridges between static and dynamic parts.
//!
//! Per §5 of the paper: *"The communications between static and dynamic parts
//! use a special bus macro. This bus is a fixed routing bridge between two
//! sides and is pre-routed. The current implementation of the bus macro uses
//! eight 3-state buffers, their position exactly straddles the dividing line
//! between designs."*
//!
//! A [`BusMacro`] therefore carries eight bits, occupies one CLB row, and is
//! anchored on a region boundary column so that half of its buffers land in
//! the static part and half in the dynamic part. Signal direction is fixed at
//! floorplan time.

use crate::device::Device;
use crate::error::FabricError;
use crate::region::ReconfigRegion;
use serde::{Deserialize, Serialize};

/// Direction of the fixed bridge, relative to the dynamic region it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusMacroDirection {
    /// Static part drives, dynamic module receives.
    IntoRegion,
    /// Dynamic module drives, static part receives.
    OutOfRegion,
}

/// A pre-routed eight-bit bridge straddling a static/dynamic boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BusMacro {
    /// CLB row the macro occupies.
    pub clb_row: u32,
    /// The boundary it straddles, expressed as the CLB column index of the
    /// dividing line (i.e. a region's `clb_col_start` or `clb_col_end()`).
    pub boundary_clb_col: u32,
    /// Fixed signal direction.
    pub direction: BusMacroDirection,
}

impl BusMacro {
    /// Construct a bus macro. Validation against a device and region set
    /// happens in [`BusMacro::validate`] (invoked by
    /// [`crate::Floorplan::add_bus_macro`]).
    pub const fn new(clb_row: u32, boundary_clb_col: u32, direction: BusMacroDirection) -> Self {
        BusMacro {
            clb_row,
            boundary_clb_col,
            direction,
        }
    }

    /// Check the macro sits inside the device and exactly straddles the
    /// boundary of at least one region.
    pub fn validate(&self, device: &Device, regions: &[ReconfigRegion]) -> Result<(), FabricError> {
        if self.clb_row >= device.clb_rows {
            return Err(FabricError::InvalidBusMacro {
                reason: format!(
                    "row {} outside device `{}` ({} CLB rows)",
                    self.clb_row, device.name, device.clb_rows
                ),
            });
        }
        // The dividing line must be an interior column edge: a bus macro on
        // the device's outer edge would have nothing on one side.
        if self.boundary_clb_col == 0 || self.boundary_clb_col >= device.clb_cols {
            return Err(FabricError::InvalidBusMacro {
                reason: format!(
                    "boundary column {} is not an interior dividing line of `{}`",
                    self.boundary_clb_col, device.name
                ),
            });
        }
        // The macro must sit on a region's vertical boundary AND within
        // that region's row span (full-height regions span every row, so
        // the row condition is vacuous on Virtex-II plans).
        let straddles = regions.iter().any(|r| {
            let on_boundary = self.boundary_clb_col == r.clb_col_start
                || self.boundary_clb_col == r.clb_col_end();
            let (row0, row1) = r.rows.map_or((0, u32::MAX), |s| (s.clb_row_start, s.end()));
            on_boundary && self.clb_row >= row0 && self.clb_row < row1
        });
        if !straddles {
            return Err(FabricError::InvalidBusMacro {
                reason: format!(
                    "boundary column {} does not straddle any reconfigurable region boundary",
                    self.boundary_clb_col
                ),
            });
        }
        Ok(())
    }

    /// Two macros collide if they occupy the same row on the same boundary
    /// (the eight buffers of each need the row's tristate lines).
    pub fn collides_with(&self, other: &BusMacro) -> bool {
        self.clb_row == other.clb_row && self.boundary_clb_col == other.boundary_clb_col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Device, Vec<ReconfigRegion>) {
        let device = Device::xc2v2000();
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        (device, vec![region])
    }

    #[test]
    fn valid_on_left_and_right_boundaries() {
        let (d, rs) = setup();
        assert!(BusMacro::new(0, 20, BusMacroDirection::IntoRegion)
            .validate(&d, &rs)
            .is_ok());
        assert!(BusMacro::new(55, 24, BusMacroDirection::OutOfRegion)
            .validate(&d, &rs)
            .is_ok());
    }

    #[test]
    fn rejects_non_boundary_columns() {
        let (d, rs) = setup();
        let e = BusMacro::new(0, 22, BusMacroDirection::IntoRegion)
            .validate(&d, &rs)
            .unwrap_err();
        assert!(e.to_string().contains("does not straddle"));
    }

    #[test]
    fn rejects_out_of_device() {
        let (d, rs) = setup();
        assert!(BusMacro::new(56, 20, BusMacroDirection::IntoRegion)
            .validate(&d, &rs)
            .is_err());
        assert!(BusMacro::new(0, 0, BusMacroDirection::IntoRegion)
            .validate(&d, &rs)
            .is_err());
        assert!(BusMacro::new(0, 48, BusMacroDirection::IntoRegion)
            .validate(&d, &rs)
            .is_err());
    }

    #[test]
    fn collision_is_row_and_boundary() {
        let a = BusMacro::new(3, 20, BusMacroDirection::IntoRegion);
        let b = BusMacro::new(3, 20, BusMacroDirection::OutOfRegion);
        let c = BusMacro::new(4, 20, BusMacroDirection::IntoRegion);
        let d = BusMacro::new(3, 24, BusMacroDirection::IntoRegion);
        assert!(a.collides_with(&b));
        assert!(!a.collides_with(&c));
        assert!(!a.collides_with(&d));
    }

    #[test]
    fn rect_region_rows_bound_the_straddle() {
        // On a 2D region the macro must sit inside the region's row span,
        // not merely on its column boundary.
        let device = Device::by_name("XC7A100T").unwrap();
        let regions = vec![ReconfigRegion::rect("r", 10, 6, 50, 50).unwrap()];
        assert!(BusMacro::new(60, 10, BusMacroDirection::IntoRegion)
            .validate(&device, &regions)
            .is_ok());
        let e = BusMacro::new(10, 10, BusMacroDirection::IntoRegion)
            .validate(&device, &regions)
            .unwrap_err();
        assert!(e.to_string().contains("does not straddle"));
    }
}
