//! [`MRegister`] — a mergeable single-value cell with last-merged-wins
//! semantics. Useful for flags and configuration values a parent wants to
//! broadcast to children through `Sync` (e.g. the netsim's shutdown flag).

use sm_ot::register::{RegisterOp, Value};

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable register holding one `T`.
#[derive(Debug, Clone)]
pub struct MRegister<T: Value> {
    inner: Versioned<RegisterOp<T>>,
}

impl<T: Value> MRegister<T> {
    /// A register holding `initial`.
    pub fn new(initial: T) -> Self {
        MRegister {
            inner: Versioned::new(initial),
        }
    }

    /// Borrow the current value.
    pub fn get(&self) -> &T {
        self.inner.state()
    }

    /// Overwrite the value. Writing a value equal to the current one still
    /// records an operation (the write *intention* is preserved — it should
    /// win over a concurrent differing write according to merge order).
    pub fn set(&mut self, value: T) {
        self.inner.record_validated(RegisterOp::set(value));
    }
}

impl<T: Value + Default> Default for MRegister<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Value> PartialEq for MRegister<T> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl<T: Value> Leaf for MRegister<T> {
    type Op = RegisterOp<T>;

    fn versioned(&self) -> &Versioned<RegisterOp<T>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<RegisterOp<T>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<RegisterOp<T>>) -> Self {
        MRegister { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basics() {
        let mut r = MRegister::new(1);
        assert_eq!(*r.get(), 1);
        r.set(2);
        assert_eq!(*r.get(), 2);
        assert_eq!(r.pending_ops(), 1);
    }

    #[test]
    fn last_merged_write_wins() {
        let mut r = MRegister::new(0);
        let mut a = r.fork();
        let mut b = r.fork();
        a.set(1);
        b.set(2);
        r.merge(&a).unwrap();
        r.merge(&b).unwrap();
        assert_eq!(*r.get(), 2);
    }

    #[test]
    fn child_write_beats_parent_write() {
        let mut r = MRegister::new(0);
        let mut child = r.fork();
        child.set(7);
        r.set(3);
        r.merge(&child).unwrap();
        assert_eq!(*r.get(), 7, "the merged child serializes after the parent");
    }

    #[test]
    fn unmodified_child_leaves_parent_value() {
        let mut r = MRegister::new(5);
        let child = r.fork();
        r.set(6);
        r.merge(&child).unwrap();
        assert_eq!(*r.get(), 6);
    }
}
