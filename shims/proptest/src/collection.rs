//! Collection strategies: `collection::vec(element, size)`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Anything usable as the size argument of [`vec()`]: a fixed length or a
/// range of lengths.
pub trait SizeRange {
    /// Draw a concrete length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.next_below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.start() + rng.next_below((self.end() - self.start() + 1) as u64) as usize
    }
}

/// Strategy for `Vec<T>` with element strategy `element` and `size` drawn
/// from a [`SizeRange`].
pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S, Z> {
    element: S,
    size: Z,
}

impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
