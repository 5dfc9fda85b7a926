//! Lock-free single-producer / single-consumer span ring.
//!
//! Each worker thread owns one `SpanRing` per tracer and is its only
//! producer; the collector (which serialises drains behind the
//! tracer's ring-registry lock) is the only concurrent consumer. When
//! the ring is full the producer drops the span and bumps a counter
//! instead of blocking — tracing must never stall the request path.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::trace::RawSpan;

/// Slots per ring. Power of two so masking replaces modulo.
pub(crate) const RING_CAPACITY: usize = 256;

struct Slot(UnsafeCell<MaybeUninit<RawSpan>>);

/// Fixed-capacity SPSC ring buffer of finished spans.
///
/// `head` counts writes and `tail` counts reads; both grow
/// monotonically (wrapping) and are masked into the slot array, so
/// `head - tail` is the live length. The producer writes a slot and
/// then publishes it with a `Release` store of `head`; the consumer
/// `Acquire`-loads `head` before reading, and publishes freed slots
/// with a `Release` store of `tail` which the producer `Acquire`-loads
/// before reusing them.
pub(crate) struct SpanRing {
    slots: Box<[Slot]>,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// Safety: slot accesses are coordinated through `head`/`tail`. The
// producer only writes slots in `[head, tail + capacity)` and the
// consumer only reads slots in `[tail, head)`; the Release/Acquire
// pairs on the indices order the slot data accesses between the two
// threads, and the external contract (one owning producer thread, one
// consumer at a time under the collector lock) rules out same-role
// races.
unsafe impl Send for SpanRing {}
unsafe impl Sync for SpanRing {}

impl SpanRing {
    pub(crate) fn new() -> Self {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanRing {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: push a finished span, dropping it (and counting
    /// the drop) when the ring is full. Must only be called from the
    /// thread that owns this ring.
    pub(crate) fn push(&self, record: RawSpan) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[head & (self.slots.len() - 1)];
        // Safety: `[tail, head)` is owned by the consumer, so a
        // not-full ring guarantees this slot is dead storage that only
        // the producer may touch.
        unsafe { (*slot.0.get()).write(record) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side: hand every published span to `each`, oldest
    /// first. Callers must serialise drains (the tracer holds its
    /// ring-registry lock across this call).
    pub(crate) fn drain(&self, mut each: impl FnMut(RawSpan)) {
        let mut tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        while tail != head {
            let slot = &self.slots[tail & (self.slots.len() - 1)];
            // Safety: the Acquire load of `head` ordered this read
            // after the producer's write, and the slot is read exactly
            // once before `tail` passes it.
            each(unsafe { (*slot.0.get()).assume_init_read() });
            tail = tail.wrapping_add(1);
            self.tail.store(tail, Ordering::Release);
        }
    }

    /// Spans discarded because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for SpanRing {
    fn drop(&mut self) {
        // Release any spans still in flight so their shared and owned
        // attributes are freed.
        self.drain(drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Attrs;
    use std::sync::Arc;

    fn rec(span: u64) -> RawSpan {
        let mut attrs = Attrs::default();
        attrs.push("k", format!("v{span}").into());
        RawSpan {
            trace: 1,
            span,
            parent: 0,
            name: "test",
            start_ns: span,
            end_ns: span + 1,
            attrs,
        }
    }

    #[test]
    fn push_then_drain_roundtrips_in_order() {
        let ring = SpanRing::new();
        for i in 0..10 {
            ring.push(rec(i));
        }
        let mut out = Vec::new();
        ring.drain(|span| out.push(span));
        assert_eq!(out.len(), 10);
        assert!(out.iter().enumerate().all(|(i, r)| r.span == i as u64));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = SpanRing::new();
        for i in 0..(RING_CAPACITY as u64 + 7) {
            ring.push(rec(i));
        }
        assert_eq!(ring.dropped(), 7);
        let mut out = Vec::new();
        ring.drain(|span| out.push(span));
        assert_eq!(out.len(), RING_CAPACITY);
        // The oldest records survive; the overflow was discarded.
        assert_eq!(out[0].span, 0);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing_when_not_full() {
        let ring = Arc::new(SpanRing::new());
        let total = 20_000u64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0;
                let mut i = 0;
                while sent < total {
                    // Retry on full: this test wants lossless delivery,
                    // so treat a dropped push as backpressure.
                    let before = ring.dropped();
                    ring.push(rec(i));
                    if ring.dropped() == before {
                        sent += 1;
                        i += 1;
                    } else {
                        std::thread::yield_now();
                        i = sent; // resend the dropped record
                    }
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < total as usize {
            ring.drain(|span| seen.push(span));
        }
        producer.join().unwrap();
        assert_eq!(seen.len(), total as usize);
        assert!(seen.iter().enumerate().all(|(i, r)| r.span == i as u64));
        assert!(seen
            .into_iter()
            .enumerate()
            .all(|(i, r)| r.format().attrs == [("k", format!("v{i}"))]));
    }
}
