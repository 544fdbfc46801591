//! FPGA resource-utilization vectors.
//!
//! Table 1 of the paper compares implementations by slice / LUT / flip-flop /
//! BRAM counts. [`Resources`] is that vector, with arithmetic, capacity
//! checks against devices and regions, and percentage reporting — exactly
//! what the `pdr-codegen` estimator produces and the Table 1 harness prints.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A resource-utilization vector (Virtex-II resource classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct Resources {
    /// Occupied slices.
    pub slices: u32,
    /// 4-input LUTs.
    pub luts: u32,
    /// Slice flip-flops.
    pub ffs: u32,
    /// 18-Kbit block RAMs.
    pub brams: u32,
    /// 18×18 multipliers.
    pub mults: u32,
    /// 3-state buffers (consumed by bus macros).
    pub tbufs: u32,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        slices: 0,
        luts: 0,
        ffs: 0,
        brams: 0,
        mults: 0,
        tbufs: 0,
    };

    /// Logic-only constructor (the common case for estimator rules).
    pub const fn logic(slices: u32, luts: u32, ffs: u32) -> Resources {
        Resources {
            slices,
            luts,
            ffs,
            brams: 0,
            mults: 0,
            tbufs: 0,
        }
    }

    /// Slices inferred from LUT/FF pressure: a Virtex-II slice offers 2 LUTs
    /// and 2 FFs, and packing is imperfect; `packing` ∈ (0, 1] is the
    /// achieved fill factor.
    pub fn from_lut_ff(luts: u32, ffs: u32, packing: f64) -> Resources {
        assert!(packing > 0.0 && packing <= 1.0, "packing must be in (0,1]");
        let ideal = luts.max(ffs).div_ceil(2);
        let slices =
            ((ideal as f64 / packing).ceil() as u32).max(if luts + ffs > 0 { 1 } else { 0 });
        Resources {
            slices,
            luts,
            ffs,
            brams: 0,
            mults: 0,
            tbufs: 0,
        }
    }

    /// Component-wise: does this supply cover `demand`? Used by 2D
    /// placement to test a candidate rectangle's resource vector against a
    /// region envelope (tbufs are routing, not a windowed resource, and are
    /// not compared).
    pub fn covers(&self, demand: &Resources) -> bool {
        self.slices >= demand.slices
            && self.luts >= demand.luts
            && self.ffs >= demand.ffs
            && self.brams >= demand.brams
            && self.mults >= demand.mults
    }

    /// Is every field zero?
    pub fn is_zero(&self) -> bool {
        *self == Resources::ZERO
    }

    /// Component-wise max (envelope of alternatives sharing one region).
    pub fn envelope(&self, other: &Resources) -> Resources {
        Resources {
            slices: self.slices.max(other.slices),
            luts: self.luts.max(other.luts),
            ffs: self.ffs.max(other.ffs),
            brams: self.brams.max(other.brams),
            mults: self.mults.max(other.mults),
            tbufs: self.tbufs.max(other.tbufs),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, o: Resources) -> Resources {
        Resources {
            slices: self.slices + o.slices,
            luts: self.luts + o.luts,
            ffs: self.ffs + o.ffs,
            brams: self.brams + o.brams,
            mults: self.mults + o.mults,
            tbufs: self.tbufs + o.tbufs,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, o: Resources) {
        *self = *self + o;
    }
}

impl Mul<u32> for Resources {
    type Output = Resources;
    fn mul(self, k: u32) -> Resources {
        Resources {
            slices: self.slices * k,
            luts: self.luts * k,
            ffs: self.ffs * k,
            brams: self.brams * k,
            mults: self.mults * k,
            tbufs: self.tbufs * k,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} slices, {} LUTs, {} FFs, {} BRAMs, {} mults, {} tbufs",
            self.slices, self.luts, self.ffs, self.brams, self.mults, self.tbufs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resources::logic(10, 20, 15);
        let b = Resources::logic(5, 8, 8);
        let s = a + b;
        assert_eq!(s.slices, 15);
        assert_eq!(s.luts, 28);
        assert_eq!(s.ffs, 23);
        assert_eq!((a * 3).slices, 30);
        let total: Resources = [a, b, b].into_iter().sum();
        assert_eq!(total.slices, 20);
    }

    #[test]
    fn from_lut_ff_packs_two_per_slice() {
        let r = Resources::from_lut_ff(100, 60, 1.0);
        assert_eq!(r.slices, 50);
        // Imperfect packing inflates slices.
        let loose = Resources::from_lut_ff(100, 60, 0.5);
        assert_eq!(loose.slices, 100);
        // FF-dominated.
        let ffd = Resources::from_lut_ff(10, 90, 1.0);
        assert_eq!(ffd.slices, 45);
        // Nonzero logic always needs at least one slice.
        assert_eq!(Resources::from_lut_ff(1, 0, 1.0).slices, 1);
        assert_eq!(Resources::from_lut_ff(0, 0, 1.0).slices, 0);
    }

    #[test]
    #[should_panic(expected = "packing")]
    fn bad_packing_panics() {
        let _ = Resources::from_lut_ff(1, 1, 0.0);
    }

    #[test]
    fn envelope_is_componentwise_max() {
        let a = Resources::logic(10, 40, 5);
        let b = Resources::logic(20, 10, 8);
        let e = a.envelope(&b);
        assert_eq!(e.slices, 20);
        assert_eq!(e.luts, 40);
        assert_eq!(e.ffs, 8);
    }

    #[test]
    fn display_lists_all_fields() {
        let s = Resources::logic(1, 2, 3).to_string();
        assert!(s.contains("1 slices") && s.contains("2 LUTs") && s.contains("3 FFs"));
    }
}
