//! Offline shim for the `parking_lot` crate (see `crates/shims/README.md`).
//!
//! `Mutex` with an infallible `lock()` (std poisoning is swallowed, which
//! matches parking_lot's non-poisoning contract) and a `Condvar` whose
//! `wait` takes `&mut MutexGuard`. The guard wraps the std guard in an
//! `Option` so `Condvar::wait` can move it through std's by-value wait
//! without unsafe code; the `Option` is only ever `None` inside that call.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock with parking_lot's API: `lock()` returns the
/// guard directly and never observes poisoning.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only transiently inside `Condvar::wait*`.
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// A condition variable usable with this module's [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Whether a timed wait returned because the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and sleep until notified;
    /// the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present before wait");
        guard.guard = Some(
            self.inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// [`wait`](Self::wait) with an upper bound on the sleep.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard present before wait");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_handoff() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    }
}
