//! Minimal complex-number arithmetic used throughout the simulator.
//!
//! We implement our own [`C64`] instead of pulling in an external crate so the
//! whole workspace builds from the offline dependency set. Only the operations
//! the simulator needs are provided.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use oscar_qsim::complex::C64;
///
/// let i = C64::I;
/// assert_eq!(i * i, C64::new(-1.0, 0.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };
    /// Negative imaginary unit, `0 - 1i`.
    pub const NEG_I: C64 = C64 { re: 0.0, im: -1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates `e^{i theta}` (a unit-modulus phase).
    ///
    /// ```
    /// use oscar_qsim::complex::C64;
    /// let z = C64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        C64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn add_sub_roundtrip() {
        let a = C64::new(1.5, -2.5);
        let b = C64::new(-0.25, 4.0);
        let c = a + b - b;
        assert!((c.re - a.re).abs() < EPS && (c.im - a.im).abs() < EPS);
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -4.0);
        let c = a * b;
        assert_eq!(c, C64::new(11.0, 2.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, C64::new(-1.0, 0.0));
    }

    #[test]
    fn conj_negates_imaginary() {
        let z = C64::new(2.0, 3.0);
        assert_eq!(z.conj(), C64::new(2.0, -3.0));
    }

    #[test]
    fn norm_sqr_is_z_times_conj() {
        let z = C64::new(-1.25, 0.5);
        let via_mul = (z * z.conj()).re;
        assert!((z.norm_sqr() - via_mul).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!((C64::cis(theta).norm() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn cis_adds_angles() {
        let a = 0.31;
        let b = 1.17;
        let lhs = C64::cis(a) * C64::cis(b);
        let rhs = C64::cis(a + b);
        assert!((lhs - rhs).norm() < EPS);
    }

    #[test]
    fn sum_accumulates() {
        let zs = [C64::new(1.0, 1.0), C64::new(2.0, -3.0), C64::new(-0.5, 0.5)];
        let s: C64 = zs.iter().copied().sum();
        assert_eq!(s, C64::new(2.5, -1.5));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
    }

    #[test]
    fn scale_and_div() {
        let z = C64::new(2.0, -4.0);
        assert_eq!(z * 0.5, C64::new(1.0, -2.0));
        assert_eq!(z / 2.0, C64::new(1.0, -2.0));
    }
}
