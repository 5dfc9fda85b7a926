//! Message envelope types shared by the broker and the RPC layer.

use bytes::Bytes;
use dlhub_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dlhub_sync::time::Instant;
use dlhub_sync::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;

/// Globally unique (per-process) message identifier.
///
/// ZeroMQ frames carry routing identities; we use a monotonically
/// increasing 64-bit counter which is cheaper and sufficient for an
/// in-process broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Allocate the next process-wide message id.
    pub fn next() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        MessageId(COUNTER.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg-{}", self.0)
    }
}

/// State of a [`ReplySlot`]. One-way: `Waiting` → `Ready` → `Closed`,
/// or `Waiting` → `Closed` when the caller gives up first.
#[derive(Debug, Default)]
pub(crate) enum SlotState {
    #[default]
    Waiting,
    Ready(Bytes),
    /// The reply was taken, or the caller timed out: later replies
    /// (a late first execution, the second execution of a redelivered
    /// request) are dropped.
    Closed,
}

/// The one-shot slot a request's reply is delivered into.
///
/// The caller and every delivery of the request share it, so whichever
/// thread finishes the work hands the reply straight to the blocked
/// caller — replies never travel through a topic. A socket transport
/// would have its reader thread fill the same slots.
#[derive(Default)]
pub(crate) struct ReplySlot {
    pub(crate) state: Mutex<SlotState>,
    pub(crate) ready: Condvar,
    /// Live [`crate::Responder`]s of this request. While one exists a
    /// server still owns the request, so the broker renews its lease
    /// instead of redelivering work that is in progress.
    pub(crate) responders: AtomicUsize,
}

impl fmt::Debug for ReplySlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ReplySlot").field(&self.state).finish()
    }
}

impl ReplySlot {
    /// Deliver the reply and wake the caller. Only the first reply to
    /// a still-waiting caller lands; returns whether this one did.
    pub(crate) fn fill(&self, payload: Bytes) -> bool {
        let mut state = self.state.lock();
        if !matches!(*state, SlotState::Waiting) {
            return false;
        }
        *state = SlotState::Ready(payload);
        drop(state);
        self.ready.notify_one();
        true
    }
}

/// A message queued on a topic.
#[derive(Debug, Clone)]
pub struct Message {
    /// Unique id, assigned at enqueue time.
    pub id: MessageId,
    /// Opaque payload. The serving layer serializes task requests into
    /// this field; the broker never inspects it.
    pub payload: Bytes,
    /// Where the reply goes, for request/reply flows. Refcounted so
    /// cloning a message (lease tracking, redelivery) shares the slot.
    pub(crate) reply: Option<Arc<ReplySlot>>,
    /// How many times this message has been handed to a consumer.
    pub attempts: u32,
    /// Wall-clock enqueue instant, used for queue-latency stats.
    pub enqueued_at: Instant,
}

impl Message {
    /// Create a fresh message carrying `payload`.
    pub fn new(payload: Bytes) -> Self {
        Message {
            id: MessageId::next(),
            payload,
            reply: None,
            attempts: 0,
            enqueued_at: Instant::now(),
        }
    }

    /// Whether a live responder is working on this request.
    pub(crate) fn attended(&self) -> bool {
        self.reply
            .as_ref()
            .is_some_and(|slot| slot.responders.load(Ordering::SeqCst) > 0)
    }

    /// Create a request message whose reply is delivered into `reply`.
    pub(crate) fn request(payload: Bytes, reply: Arc<ReplySlot>) -> Self {
        let mut m = Message::new(payload);
        m.reply = Some(reply);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_ids_are_unique_and_increasing() {
        let a = MessageId::next();
        let b = MessageId::next();
        assert!(b > a);
        assert_ne!(a, b);
    }

    #[test]
    fn only_the_first_reply_lands_in_a_slot() {
        let slot = Arc::new(ReplySlot::default());
        let m = Message::request(Bytes::from_static(b"x"), Arc::clone(&slot));
        // A redelivered copy shares the slot.
        let copy = m.clone();
        assert!(m.reply.unwrap().fill(Bytes::from_static(b"first")));
        assert!(!copy.reply.unwrap().fill(Bytes::from_static(b"second")));
        assert!(matches!(&*slot.state.lock(), SlotState::Ready(b) if &b[..] == b"first"));
    }

    #[test]
    fn display_is_stable() {
        let m = MessageId(42);
        assert_eq!(m.to_string(), "msg-42");
    }
}
