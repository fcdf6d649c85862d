//! A totally ordered `f64` wrapper for priority queues.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` with a total order (`f64::total_cmp`), so distances can be used
/// as keys in `BinaryHeap` and `sort` without `partial_cmp().unwrap()`
/// scattered through the search code.
///
/// NaN sorts above `+∞` under `total_cmp`; search code never produces NaN
/// (all inputs are validated as finite), so the heap ordering is the usual
/// numeric one in practice. Equality is `total_cmp`'s too, so `a == b`
/// exactly when `a.cmp(&b)` is `Equal`: a NaN equals itself, and `-0.0`
/// differs from `0.0`.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    /// Extracts the wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrderedF64 {
    /// `total_cmp` is `Equal` exactly on equal bits.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrderedF64 {
    #[inline]
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_numerically() {
        let mut v = vec![
            OrderedF64(3.0),
            OrderedF64(-1.0),
            OrderedF64(0.0),
            OrderedF64(2.5),
        ];
        v.sort();
        let raw: Vec<f64> = v.into_iter().map(OrderedF64::get).collect();
        assert_eq!(raw, vec![-1.0, 0.0, 2.5, 3.0]);
    }

    #[test]
    fn zero_signs_are_distinguished_consistently() {
        // total_cmp puts -0.0 before +0.0, and `==` agrees with it.
        assert!(OrderedF64(-0.0) < OrderedF64(0.0));
        assert_ne!(OrderedF64(-0.0), OrderedF64(0.0));
        assert_eq!(OrderedF64(0.0), OrderedF64(0.0));
        assert_eq!(OrderedF64(-0.0), OrderedF64(-0.0));
    }

    #[test]
    fn equality_is_the_order_s_equality() {
        let nan = OrderedF64(f64::NAN);
        let values = [
            nan,
            OrderedF64(-f64::NAN),
            OrderedF64(f64::NEG_INFINITY),
            OrderedF64(-0.0),
            OrderedF64(0.0),
            OrderedF64(1.5),
            OrderedF64(f64::INFINITY),
        ];
        // Reflexive, NaN included.
        assert_eq!(nan, nan);
        for a in values {
            for b in values {
                assert_eq!(a == b, a.cmp(&b) == Ordering::Equal, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn works_as_min_heap_key() {
        let mut heap = BinaryHeap::new();
        for d in [5.0, 1.0, 3.0] {
            heap.push(Reverse(OrderedF64(d)));
        }
        assert_eq!(heap.pop().unwrap().0.get(), 1.0);
        assert_eq!(heap.pop().unwrap().0.get(), 3.0);
        assert_eq!(heap.pop().unwrap().0.get(), 5.0);
    }

    #[test]
    fn infinity_sorts_last() {
        let mut v = [OrderedF64(f64::INFINITY), OrderedF64(1.0)];
        v.sort();
        assert_eq!(v[0].get(), 1.0);
    }
}
