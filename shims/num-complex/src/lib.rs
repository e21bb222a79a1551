//! Offline stand-in for the `num-complex` crate.
//!
//! This workspace builds in environments with no access to crates.io; the
//! `Complex<f64>` subset actually used (construction, conjugation, norms,
//! polar form and the ring operators in every value/reference combination)
//! is reimplemented here behind the same paths. Deleting this path
//! dependency and restoring the real `num-complex` is a drop-in swap.
//!
//! ```
//! use num_complex::Complex;
//!
//! let a = Complex::new(3.0, 4.0);
//! assert_eq!(a.norm(), 5.0);
//! assert_eq!((a * a.conj()).re, 25.0);
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im`.
///
/// `#[repr(C)]` as in the real crate: memory-layout compatible with
/// `[T; 2]`, which the vector-width amplitude kernels rely on to load and
/// store runs of amplitudes as runs of `f64`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T> Complex<T> {
    /// Build from rectangular parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }
}

impl Complex<f64> {
    /// Build from polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `√(re² + im²)`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument `atan2(im, re)`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Whether both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex<f64> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

macro_rules! forward_ref_binop {
    ($imp:ident, $method:ident) => {
        impl<'a> $imp<Complex<f64>> for &'a Complex<f64> {
            type Output = Complex<f64>;
            #[inline]
            fn $method(self, rhs: Complex<f64>) -> Complex<f64> {
                (*self).$method(rhs)
            }
        }
        impl<'a> $imp<&'a Complex<f64>> for Complex<f64> {
            type Output = Complex<f64>;
            #[inline]
            fn $method(self, rhs: &'a Complex<f64>) -> Complex<f64> {
                self.$method(*rhs)
            }
        }
        impl<'a, 'b> $imp<&'b Complex<f64>> for &'a Complex<f64> {
            type Output = Complex<f64>;
            #[inline]
            fn $method(self, rhs: &'b Complex<f64>) -> Complex<f64> {
                (*self).$method(*rhs)
            }
        }
    };
}

impl Add for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}
forward_ref_binop!(Add, add);

impl Sub for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}
forward_ref_binop!(Sub, sub);

impl Mul for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}
forward_ref_binop!(Mul, mul);

impl Neg for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn neg(self) -> Self {
        Complex::new(-self.re, -self.im)
    }
}

impl Neg for &Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn neg(self) -> Complex<f64> {
        -*self
    }
}

impl AddAssign for Complex<f64> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl AddAssign<&Complex<f64>> for Complex<f64> {
    #[inline]
    fn add_assign(&mut self, rhs: &Self) {
        *self = *self + *rhs;
    }
}

impl SubAssign for Complex<f64> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex<f64> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex<f64>> for f64 {
    type Output = Complex<f64>;
    #[inline]
    fn mul(self, rhs: Complex<f64>) -> Complex<f64> {
        rhs * self
    }
}

impl MulAssign<f64> for Complex<f64> {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Div<f64> for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Div for Complex<f64> {
    type Output = Complex<f64>;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Sum for Complex<f64> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Complex::new(0.0, 0.0), |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex<f64>> for Complex<f64> {
    fn sum<I: Iterator<Item = &'a Complex<f64>>>(iter: I) -> Self {
        iter.fold(Complex::new(0.0, 0.0), |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::Complex;

    #[test]
    fn field_axioms_spot_check() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, Complex::new(0.5, 5.0));
        assert_eq!(
            a * b,
            Complex::new(1.0 * -0.5 - 2.0 * 3.0, 1.0 * 3.0 + 2.0 * -0.5)
        );
        let q = (a / b) * b;
        assert!((q - a).norm() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.norm() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        // Exercise the by-reference operator impls explicitly.
        #[allow(clippy::op_ref)]
        let double = &z + &z;
        assert_eq!(double.re, 6.0);
        assert_eq!((-&z).im, 4.0);
    }

    #[test]
    fn exp_of_imaginary_is_on_unit_circle() {
        let z = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!((z.re + 1.0).abs() < 1e-12);
        assert!(z.im.abs() < 1e-12);
    }
}
