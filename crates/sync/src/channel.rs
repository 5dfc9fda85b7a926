//! Multi-producer, multi-consumer FIFO channels, bounded and
//! unbounded, with disconnect-on-last-drop semantics: the API subset of
//! `crossbeam::channel` the workspace uses, built on `std::sync`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    // Signalled when a message arrives or all senders disconnect.
    ready: Condvar,
    // Signalled when space frees up or all receivers disconnect.
    space: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    capacity: Option<usize>,
}

impl<T> Shared<T> {
    fn new(capacity: Option<usize>) -> Arc<Self> {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            capacity,
        })
    }
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(None);
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Create a bounded channel with capacity `cap`.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(Some(cap.max(1)));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Error returned by [`Sender::send`] when all receivers are gone;
/// carries the unsent message.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error returned by [`Sender::send_timeout`]; carries the unsent
/// message.
pub enum SendTimeoutError<T> {
    /// The channel stayed full until the timeout.
    Timeout(T),
    /// All receivers are gone.
    Disconnected(T),
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
            SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty
/// and all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message before the timeout.
    Timeout,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Send a message, blocking while a bounded channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match self.send_deadline(value, None) {
            Ok(()) => Ok(()),
            Err(SendTimeoutError::Timeout(v) | SendTimeoutError::Disconnected(v)) => {
                Err(SendError(v))
            }
        }
    }

    /// Send a message, blocking at most `timeout` while a bounded
    /// channel is full.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_deadline(value, Some(Instant::now() + timeout))
    }

    /// Send a message without waiting for room: a bounded channel
    /// may hold more than its capacity. Not in the real crate; for
    /// a sender that must never block on the receivers it feeds
    /// (senders blocked on a full channel stay blocked until it is
    /// below capacity again).
    pub fn send_past_bound(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(SendError(value));
        }
        queue.push_back(value);
        drop(queue);
        shared.ready.notify_one();
        Ok(())
    }

    fn send_deadline(
        &self,
        value: T,
        deadline: Option<Instant>,
    ) -> Result<(), SendTimeoutError<T>> {
        let shared = &self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendTimeoutError::Disconnected(value));
            }
            match shared.capacity {
                Some(cap) if queue.len() >= cap => match deadline {
                    None => {
                        queue = shared
                            .space
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(SendTimeoutError::Timeout(value));
                        }
                        let (q, _) = shared
                            .space
                            .wait_timeout(queue, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        queue = q;
                    }
                },
                _ => break,
            }
        }
        queue.push_back(value);
        drop(queue);
        shared.ready.notify_one();
        Ok(())
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender: wake every parked receiver so they can
            // observe the disconnect. Taking the queue lock first
            // orders the wake-up after any receiver that has read
            // `senders` but not parked yet; without it that
            // receiver misses the notify and sleeps forever.
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.ready.notify_all();
        }
    }
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Receive a message, blocking until one is available or all
    /// senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = queue.pop_front() {
                drop(queue);
                shared.space.notify_one();
                return Ok(value);
            }
            if shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            queue = shared
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = queue.pop_front() {
            drop(queue);
            shared.space.notify_one();
            return Ok(value);
        }
        if shared.senders.load(Ordering::SeqCst) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let shared = &self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = queue.pop_front() {
                drop(queue);
                shared.space.notify_one();
                return Ok(value);
            }
            if shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (q, _) = shared
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queue = q;
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator over received messages; ends when all
    /// senders disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last receiver: wake blocked senders so they can
            // observe the disconnect (under the queue lock, for
            // the same reason as `Sender::drop`).
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.space.notify_all();
        }
    }
}

/// Borrowing blocking iterator.
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Owning blocking iterator.
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mpmc_round_trip() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
    }

    #[test]
    fn a_receiver_about_to_park_still_sees_the_last_sender_drop() {
        // The race needs the drop to land between the receiver's
        // `senders` check and its park, so sweep the delay between
        // spawning the receiver and dropping the sender.
        for i in 0..20_000u32 {
            let (tx, rx) = bounded::<u32>(1);
            let parked = thread::spawn(move || rx.recv());
            for _ in 0..(i % 400) * 50 {
                std::hint::spin_loop();
            }
            drop(tx);
            assert!(parked.join().unwrap().is_err());
        }
    }

    #[test]
    fn iteration_ends_when_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn bounded_blocks_until_space() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2).unwrap());
        thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn send_timeout_hands_the_message_back_when_full() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send_timeout(1, Duration::from_millis(5)).unwrap();
        match tx.send_timeout(2, Duration::from_millis(5)) {
            Err(SendTimeoutError::Timeout(2)) => {}
            other => panic!("expected the message back, got {other:?}"),
        }
        assert_eq!(rx.recv().unwrap(), 1);
        tx.send_timeout(2, Duration::from_millis(5)).unwrap();
        drop(rx);
        assert!(matches!(
            tx.send_timeout(3, Duration::from_millis(5)),
            Err(SendTimeoutError::Disconnected(3))
        ));
    }

    #[test]
    fn send_past_bound_queues_beyond_capacity_and_blocks_no_one() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        tx.send_past_bound(2).unwrap();
        tx.send_past_bound(3).unwrap();
        assert_eq!(rx.len(), 3);
        // A blocking sender waits until the channel is below its
        // capacity again, not merely until one slot frees.
        let blocked = thread::spawn(move || tx.send_timeout(4, Duration::from_millis(20)));
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(matches!(
            blocked.join().unwrap(),
            Err(SendTimeoutError::Timeout(4))
        ));
        assert_eq!((rx.recv().unwrap(), rx.recv().unwrap()), (2, 3));
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send_past_bound(1).is_err());
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
