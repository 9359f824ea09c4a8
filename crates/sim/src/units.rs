//! Unit-of-measure newtypes for cost-model quantities.
//!
//! A cycle count and a byte count are both `u64`, so nothing stops a model
//! from adding one to the other. [`Cycles`] and [`Bytes`] make that a type
//! error: each supports same-unit `+`, `+=`, `-`, `sum()`, and ordering, and
//! nothing that mixes units. Crossing into another unit (a bandwidth
//! division, a latency in ms, an energy term) goes through [`Cycles::get`] /
//! [`Bytes::get`] at the boundary, where the conversion is spelled out.
//!
//! Both are `#[repr(transparent)]` over `u64`: zero-cost in a release build.
//!
//! Mixing units does not compile:
//!
//! ```compile_fail
//! use spade_sim::units::{Bytes, Cycles};
//! let _ = Cycles::new(1) + Bytes::new(1);
//! ```
//!
//! Neither does adding a bare number, which would carry no unit:
//!
//! ```compile_fail
//! use spade_sim::units::Cycles;
//! let _ = Cycles::new(1) + 5u64;
//! ```
//!
//! Same-unit arithmetic is plain:
//!
//! ```
//! use spade_sim::units::Cycles;
//! let total: Cycles = [Cycles::new(3), Cycles::new(4)].into_iter().sum();
//! assert_eq!((total - Cycles::new(2)).get(), 5);
//! ```

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize,
        )]
        #[repr(transparent)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw count.
            #[must_use]
            pub const fn new(count: u64) -> Self {
                Self(count)
            }

            /// The raw count, for conversions into another unit.
            #[must_use]
            pub const fn get(self) -> u64 {
                self.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), Add::add)
            }
        }
    };
}

unit!(
    /// A duration in accelerator clock cycles.
    Cycles
);
unit!(
    /// A data size in bytes.
    Bytes
);
