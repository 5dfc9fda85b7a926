//! [`Slot`]: a fill-once cell that threads wait on for its value.
//!
//! Every one-shot wait in the workspace is this type: a request's
//! reply, a blocking executor caller's outcome, a transfer's final
//! record, a batched item's output and a model built on first deploy.

use crate::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::time::Instant;

/// Where a [`Slot`] is. One-way, except that a [`Slot::get_or_fill`]
/// build that panics puts `Filling` back to `Empty`.
#[derive(Debug)]
enum State<T> {
    Empty,
    /// A [`Slot::get_or_fill`] caller is building the value.
    Filling,
    Full(T),
    /// Taken or closed: nothing lands any more.
    Closed,
}

impl<T> State<T> {
    fn pending(&self) -> bool {
        matches!(self, State::Empty | State::Filling)
    }
}

/// Why a wait on a [`Slot`] returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// The deadline passed first; the slot is still fillable.
    TimedOut,
    /// The slot was closed, or its value already taken.
    Closed,
}

/// A cell that is filled at most once and that threads wait on: one
/// lock over `Empty | Filling | Full | Closed` and one condition
/// variable. The first [`Slot::fill`] wins; a [`Slot::take`] empties
/// it for good, and a [`Slot::close`] turns every later fill away and
/// wakes every waiter.
pub struct Slot<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    /// An empty slot.
    pub const fn new() -> Self {
        Slot {
            state: Mutex::new(State::Empty),
            ready: Condvar::new(),
        }
    }

    /// Store `value` and wake the waiters. Only a fill of an empty slot
    /// lands; returns whether this one did.
    pub fn fill(&self, value: T) -> bool {
        let mut state = self.state.lock();
        if !matches!(*state, State::Empty) {
            return false;
        }
        *state = State::Full(value);
        drop(state);
        self.ready.notify_all();
        true
    }

    /// Wait for the value and take it, closing the slot; without a
    /// deadline, wait as long as it takes. A value that lands as the
    /// deadline passes is still taken.
    pub fn take(&self, deadline: Option<Instant>) -> Result<T, SlotError> {
        let mut state = self.settled(deadline)?;
        match std::mem::replace(&mut *state, State::Closed) {
            State::Full(value) => Ok(value),
            _ => Err(SlotError::Closed),
        }
    }

    /// Take the value if it is there; `Ok(None)` while the slot is
    /// still fillable.
    pub fn try_take(&self) -> Result<Option<T>, SlotError> {
        match self.take(Some(Instant::now())) {
            Ok(value) => Ok(Some(value)),
            Err(SlotError::TimedOut) => Ok(None),
            Err(SlotError::Closed) => Err(SlotError::Closed),
        }
    }

    /// Close the slot and wake every waiter: later fills are turned
    /// away. Returns the value, if one landed ahead of the close.
    pub fn close(&self) -> Option<T> {
        let was = std::mem::replace(&mut *self.state.lock(), State::Closed);
        self.ready.notify_all();
        match was {
            State::Full(value) => Some(value),
            _ => None,
        }
    }

    /// Wait for the value and return a copy, leaving it in the slot.
    pub fn read(&self, deadline: Option<Instant>) -> Result<T, SlotError>
    where
        T: Clone,
    {
        match &*self.settled(deadline)? {
            State::Full(value) => Ok(value.clone()),
            _ => Err(SlotError::Closed),
        }
    }

    /// The value, built by `build` if the slot is empty. One caller
    /// builds, outside the lock, while the others wait for it. A build
    /// that panics leaves the slot empty, so the next caller builds. A
    /// closed slot keeps nothing: the build's value is returned, not
    /// stored.
    pub fn get_or_fill(&self, build: impl FnOnce() -> T) -> T
    where
        T: Clone,
    {
        let mut state = self.state.lock();
        loop {
            match &*state {
                State::Full(value) => return value.clone(),
                State::Filling => self.ready.wait(&mut state),
                State::Empty => break,
                State::Closed => {
                    drop(state);
                    return build();
                }
            }
        }
        *state = State::Filling;
        drop(state);
        let unwinding = Unfilled(self);
        let value = build();
        std::mem::forget(unwinding);
        let mut state = self.state.lock();
        if matches!(*state, State::Filling) {
            *state = State::Full(value.clone());
        }
        drop(state);
        self.ready.notify_all();
        value
    }

    /// Lock the slot once it is full or closed, waiting until then or
    /// until `deadline`.
    fn settled(&self, deadline: Option<Instant>) -> Result<MutexGuard<'_, State<T>>, SlotError> {
        let mut state = self.state.lock();
        while state.pending() {
            let timed_out = match deadline {
                Some(deadline) => self.ready.wait_until(&mut state, deadline).timed_out(),
                None => {
                    self.ready.wait(&mut state);
                    false
                }
            };
            if timed_out && state.pending() {
                return Err(SlotError::TimedOut);
            }
        }
        Ok(state)
    }
}

/// Puts a slot whose build is unwinding back to `Empty` and wakes its
/// waiters, so one of them builds instead.
struct Unfilled<'a, T>(&'a Slot<T>);

impl<T> Drop for Unfilled<'_, T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        if matches!(*state, State::Filling) {
            *state = State::Empty;
        }
        drop(state);
        self.0.ready.notify_all();
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Slot").field(&self.state).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_millis(10))
    }

    #[test]
    fn the_first_fill_wins_and_later_fills_are_turned_away() {
        let slot = Slot::new();
        assert!(slot.fill("first"));
        assert!(!slot.fill("second"));
        assert_eq!(slot.read(None), Ok("first"));
        assert_eq!(slot.take(None), Ok("first"));
        // Taken: the slot is spent.
        assert!(!slot.fill("third"));
        assert_eq!(slot.try_take(), Err(SlotError::Closed));
        assert_eq!(slot.take(None), Err(SlotError::Closed));
    }

    #[test]
    fn a_timed_out_take_leaves_the_slot_fillable() {
        let slot = Slot::new();
        assert_eq!(slot.take(soon()), Err(SlotError::TimedOut));
        assert_eq!(slot.read(soon()), Err(SlotError::TimedOut));
        assert_eq!(slot.try_take(), Ok(None));
        assert!(slot.fill(7));
        assert_eq!(slot.take(soon()), Ok(7));
    }

    #[test]
    fn a_waiter_is_woken_by_the_fill() {
        let slot = Arc::new(Slot::new());
        let waiter = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.take(None))
        };
        thread::sleep(Duration::from_millis(10));
        assert!(slot.fill(3));
        assert_eq!(waiter.join().unwrap(), Ok(3));
    }

    #[test]
    fn close_returns_a_value_that_landed_ahead_of_it() {
        let slot = Slot::new();
        assert!(slot.fill(5));
        assert_eq!(slot.close(), Some(5));
        assert!(!slot.fill(6), "a closed slot takes no fill");
        assert_eq!(slot.close(), None);
        let empty = Slot::<u8>::new();
        assert_eq!(empty.close(), None);
        assert_eq!(empty.try_take(), Err(SlotError::Closed));
    }

    #[test]
    fn close_wakes_every_waiter_with_closed() {
        let slot = Arc::new(Slot::<u32>::new());
        let waiters: Vec<_> = (0..4)
            .map(|i| {
                let slot = Arc::clone(&slot);
                thread::spawn(move || match i % 2 {
                    0 => slot.take(None),
                    _ => slot.read(None),
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        assert_eq!(slot.close(), None);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(SlotError::Closed));
        }
    }

    #[test]
    fn sixteen_concurrent_get_or_fill_callers_build_once() {
        let slot = Slot::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(16);
        thread::scope(|scope| {
            let callers: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        slot.get_or_fill(|| {
                            builds.fetch_add(1, Ordering::SeqCst);
                            thread::sleep(Duration::from_millis(5));
                            Arc::new(42)
                        })
                    })
                })
                .collect();
            for caller in callers {
                assert_eq!(*caller.join().unwrap(), 42);
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_build_leaves_the_slot_empty_for_the_next_caller() {
        let slot = Slot::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            slot.get_or_fill(|| -> u32 { panic!("build failed") })
        }));
        assert!(failed.is_err());
        assert_eq!(slot.try_take(), Ok(None), "the slot is empty again");
        assert_eq!(slot.get_or_fill(|| 9), 9);
        assert_eq!(slot.get_or_fill(|| 10), 9, "built once");
    }

    #[test]
    fn a_waiter_on_a_panicking_build_builds_instead() {
        let slot = Slot::new();
        let building = Barrier::new(2);
        thread::scope(|scope| {
            let first = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    slot.get_or_fill(|| -> u32 {
                        building.wait();
                        thread::sleep(Duration::from_millis(20));
                        panic!("build failed")
                    })
                }))
            });
            building.wait();
            // The first build is under way: this caller waits on it,
            // then builds once it has failed.
            assert_eq!(slot.get_or_fill(|| 2), 2);
            assert!(first.join().unwrap().is_err());
        });
        assert_eq!(slot.read(None), Ok(2));
    }

    #[test]
    fn a_closed_slot_builds_without_keeping() {
        let slot = Slot::new();
        slot.close();
        assert_eq!(slot.get_or_fill(|| 1), 1);
        assert_eq!(slot.get_or_fill(|| 2), 2);
    }
}
