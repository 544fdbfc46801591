//! Minimal complex arithmetic (all the baseband needs).

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Cplx {
    /// Real (in-phase) part.
    pub re: f64,
    /// Imaginary (quadrature) part.
    pub im: f64,
}

impl Cplx {
    /// Zero.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };

    /// Construct from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Cplx::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Cplx::new(self.re * k, self.im * k)
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, o: Cplx) -> Cplx {
        Cplx::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Cplx {
    #[inline]
    fn add_assign(&mut self, o: Cplx) {
        *self = *self + o;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, o: Cplx) -> Cplx {
        Cplx::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, o: Cplx) -> Cplx {
        Cplx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, k: f64) -> Cplx {
        Cplx::new(self.re / k, self.im / k)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(Cplx::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        assert_eq!(a + b, Cplx::new(4.0, 1.0));
        assert_eq!(a - b, Cplx::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(a * b, Cplx::new(5.0, 5.0));
        assert_eq!(-a, Cplx::new(-1.0, -2.0));
        assert_eq!(a / 2.0, Cplx::new(0.5, 1.0));
        assert_eq!(a.scale(3.0), Cplx::new(3.0, 6.0));
    }

    #[test]
    fn norm() {
        let a = Cplx::new(3.0, 4.0);
        assert!((a.norm_sq() - 25.0).abs() < EPS);
        assert!((a.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn from_angle_is_unit() {
        for k in 0..8 {
            let z = Cplx::from_angle(k as f64 * std::f64::consts::FRAC_PI_4);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
        let z = Cplx::from_angle(std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < EPS && (z.im - 1.0).abs() < EPS);
    }

    #[test]
    fn sum_over_iter() {
        let s: Cplx = (0..4).map(|i| Cplx::new(i as f64, 1.0)).sum();
        assert_eq!(s, Cplx::new(6.0, 4.0));
    }
}
