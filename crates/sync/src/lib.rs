#![warn(missing_docs)]

//! # dlhub-sync
//!
//! The one concurrency seam. Every lock, condvar, atomic, thread and
//! clock read in the workspace's non-test code comes from here, so a
//! schedule explorer or a virtual clock has one module to replace. The
//! workspace's one blocking queue, `dlhub_queue::shard::ShardedRing`,
//! is built on these primitives rather than kept here.
//!
//! - [`Mutex`], [`RwLock`], [`Condvar`] and their guards, on top of
//!   `std::sync` and without lock poisoning (a poisoned std lock is
//!   transparently recovered);
//! - [`Slot`]: a fill-once cell threads wait on for its value, the
//!   one implementation of every one-shot wait (a request's reply, a
//!   blocking executor caller, a transfer, a batched item, a model
//!   built on first deploy);
//! - [`atomic`]: std's atomics;
//! - [`thread`]: spawning, scoped threads, sleeping and yielding;
//! - [`time`]: [`time::Instant`] and [`time::now_ns`], the process
//!   clock every span and control pass stamps with.
//!
//! In this build the crate is std wrappers and re-exports; `Arc` and
//! `Duration` stay std, since neither is a point where a thread waits
//! or is scheduled.

mod slot;
pub mod time;

pub use slot::{Slot, SlotError};

/// Atomics: std's, re-exported.
pub mod atomic {
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Threads: std's, re-exported.
pub mod thread {
    pub use std::thread::{
        available_parallelism, current, scope, sleep, spawn, yield_now, Builder, JoinHandle,
    };
}

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::{Duration, Instant};

/// A mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner);
        MutexGuard { inner: Some(guard) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take the std guard.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A condition variable pairing with [`Mutex`].
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.inner = Some(std_guard);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        let (std_guard, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Block until notified or the absolute `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        let timeout = deadline.saturating_duration_since(now);
        if timeout.is_zero() {
            return WaitTimeoutResult { timed_out: true };
        }
        self.wait_for(guard, timeout)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Did the wait time out (as opposed to being notified)?
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A reader-writer lock (no poisoning).
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new RwLock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Try to acquire a read guard without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Try to acquire a write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

/// RAII shared read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_and_condvar_round_trip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }
}
