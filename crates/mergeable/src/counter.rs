//! [`MCounter`] — a mergeable signed counter. Increments commute, so no
//! concurrent update is ever lost: merging `k` children that each added 1
//! always yields `+k`.

use sm_ot::counter::CounterOp;

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable `i64` counter.
#[derive(Debug, Clone)]
pub struct MCounter {
    inner: Versioned<CounterOp>,
}

impl MCounter {
    /// A counter starting at `initial`.
    pub fn new(initial: i64) -> Self {
        MCounter {
            inner: Versioned::new(initial),
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        *self.inner.state()
    }

    /// Add a signed delta.
    pub fn add(&mut self, delta: i64) {
        self.inner.record_validated(CounterOp::add(delta));
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&mut self) {
        self.add(-1);
    }
}

impl Default for MCounter {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PartialEq for MCounter {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl Leaf for MCounter {
    type Op = CounterOp;

    fn versioned(&self) -> &Versioned<CounterOp> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<CounterOp> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<CounterOp>) -> Self {
        MCounter { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basics() {
        let mut c = MCounter::new(10);
        c.add(5);
        c.dec();
        c.inc();
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn no_increment_lost_across_many_children() {
        let mut c = MCounter::new(0);
        let mut children: Vec<MCounter> = (0..20).map(|_| c.fork()).collect();
        for (i, ch) in children.iter_mut().enumerate() {
            for _ in 0..=i {
                ch.inc();
            }
        }
        c.add(100);
        for ch in &children {
            c.merge(ch).unwrap();
        }
        // 100 + 1 + 2 + ... + 20
        assert_eq!(c.get(), 100 + 210);
    }

    #[test]
    fn merge_order_is_irrelevant_for_counters() {
        let build = || {
            let c = MCounter::new(0);
            let mut a = c.fork();
            let mut b = c.fork();
            a.add(3);
            b.add(4);
            (c, a, b)
        };
        let (mut c1, a1, b1) = build();
        c1.merge(&a1).unwrap();
        c1.merge(&b1).unwrap();
        let (mut c2, a2, b2) = build();
        c2.merge(&b2).unwrap();
        c2.merge(&a2).unwrap();
        assert_eq!(c1.get(), c2.get());
        assert_eq!(c1.get(), 7);
    }
}
