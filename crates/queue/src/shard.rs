//! Hash-sharded MPMC ring segments with a ticket/condvar blocking
//! layer — the storage engine behind every broker topic.
//!
//! A [`ShardedRing`] splits one logical FIFO across `N` independently
//! locked segments. Producers take a round-robin *enqueue ticket* and
//! append to `ticket % N`; consumers take a *claim token* from a
//! lock-free semaphore and scan from their own round-robin ticket, so
//! under concurrency producers and consumers rarely collide on the same
//! segment lock. Used sequentially the tickets advance in lock-step and
//! the ring degrades to an exact FIFO, which is what the broker's
//! ordering tests rely on.
//!
//! The blocking protocol is intentionally small:
//!
//! * `ready` is a claim semaphore: one token per queued item, posted
//!   *after* the item is visible in its segment. Claiming a token
//!   (atomic decrement) therefore guarantees an item exists somewhere;
//!   the claimant scans segments until it finds one.
//! * Parked consumers register in `waiters` before re-checking the
//!   semaphore under the park mutex; posters increment `ready` first
//!   and only take the mutex when `waiters > 0`. Sequential
//!   consistency on both sides makes a missed wake-up impossible, and
//!   the uncontended fast path never touches the mutex.
//!
//! Hot counters ride in [`CachePadded`] slots so producer tickets,
//! consumer tickets and the semaphore do not false-share a cache line.

use dlhub_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use dlhub_sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// Pads (and aligns) a value to a 64-byte cache line so hot atomics
/// updated by different cores do not false-share.
#[repr(align(64))]
#[derive(Default)]
pub struct CachePadded<T>(pub T);

/// Number of segments per ring. Power of two so shard selection is a
/// mask. Eight segments keep the memory footprint of idle topics small
/// (reply topics are per-client) while letting that many producers and
/// consumers proceed without colliding.
pub const RING_SHARDS: usize = 8;

/// A sharded, blocking, multi-producer multi-consumer queue.
///
/// Capacity accounting is cooperative: bounded callers reserve a slot
/// with [`ShardedRing::reserve`] before pushing, unbounded callers use
/// [`ShardedRing::force_reserve`]. [`ShardedRing::len`] reports the
/// reserved-slot count and is exact whenever the ring is quiescent.
pub struct ShardedRing<T> {
    shards: Box<[CachePadded<Mutex<VecDeque<T>>>]>,
    mask: usize,
    /// Round-robin producer ticket.
    enq: CachePadded<AtomicU64>,
    /// Round-robin consumer scan-start ticket.
    deq: CachePadded<AtomicU64>,
    /// Claim semaphore: tokens for items visible in some segment.
    ready: CachePadded<AtomicU64>,
    /// Reserved slots (queued items plus reservations mid-push).
    len: CachePadded<AtomicUsize>,
    /// Consumers currently parked (or about to park) on `park_cv`.
    waiters: CachePadded<AtomicUsize>,
    park: Mutex<()>,
    park_cv: Condvar,
}

impl<T> ShardedRing<T> {
    /// A ring with [`RING_SHARDS`] segments.
    pub fn new() -> Self {
        let shards = (0..RING_SHARDS)
            .map(|_| CachePadded(Mutex::new(VecDeque::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedRing {
            shards,
            mask: RING_SHARDS - 1,
            enq: CachePadded(AtomicU64::new(0)),
            deq: CachePadded(AtomicU64::new(0)),
            ready: CachePadded(AtomicU64::new(0)),
            len: CachePadded(AtomicUsize::new(0)),
            waiters: CachePadded(AtomicUsize::new(0)),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
        }
    }

    /// Number of segments (shards).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Reserved-slot count: queued items plus in-progress pushes.
    /// Exact at quiescence; at most transiently high under concurrency
    /// (a reservation is counted before its item becomes claimable),
    /// never above a bounded caller's capacity.
    pub fn len(&self) -> usize {
        self.len.0.load(Ordering::SeqCst)
    }

    /// Whether the ring holds no reserved slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve a slot against `cap`. Returns `false` when full.
    pub fn reserve(&self, cap: usize) -> bool {
        self.len
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |l| {
                if l >= cap {
                    None
                } else {
                    Some(l + 1)
                }
            })
            .is_ok()
    }

    /// Reserve a slot unconditionally (unbounded push, redelivery).
    pub fn force_reserve(&self) {
        self.len.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Release a reserved slot without pushing (e.g. an injected drop
    /// discarding the message after reservation).
    pub fn release(&self) {
        self.len.0.fetch_sub(1, Ordering::SeqCst);
    }

    /// Append `item` to the next round-robin segment. The caller must
    /// have reserved a slot. Posts one claim token and wakes a parked
    /// consumer if any.
    pub fn push_back(&self, item: T) {
        let shard = (self.enq.0.fetch_add(1, Ordering::Relaxed) as usize) & self.mask;
        self.shards[shard].0.lock().push_back(item);
        self.post(1);
    }

    /// Re-queue `item` at the *front* of a specific segment — the
    /// redelivery path, which targets the segment the item was claimed
    /// from so per-segment order is preserved. Reserves its own slot.
    pub fn push_front(&self, shard: usize, item: T) {
        self.force_reserve();
        self.shards[shard & self.mask].0.lock().push_front(item);
        self.post(1);
    }

    /// Claim one item if any is queued. Returns the segment index it
    /// was taken from (redelivery affinity) alongside the item.
    pub fn try_claim(&self) -> Option<(usize, T)> {
        // Take a token; without one there is nothing to claim.
        self.ready
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
            .ok()?;
        // A token guarantees an item is visible in some segment (items
        // are inserted before their token is posted), but a concurrent
        // claimant may race us to any given segment — rescan until the
        // pigeonhole resolves. In practice the first pass hits.
        loop {
            let start = self.deq.0.fetch_add(1, Ordering::Relaxed) as usize;
            for i in 0..self.shards.len() {
                let idx = (start + i) & self.mask;
                if let Some(item) = self.shards[idx].0.lock().pop_front() {
                    self.len.0.fetch_sub(1, Ordering::SeqCst);
                    return Some((idx, item));
                }
            }
            thread::yield_now();
        }
    }

    /// Post `n` claim tokens and wake parked consumers. Called after
    /// the corresponding items are visible in their segments.
    fn post(&self, n: u64) {
        self.ready.0.fetch_add(n, Ordering::SeqCst);
        if self.waiters.0.load(Ordering::SeqCst) > 0 {
            // Lock-then-notify: any consumer between its semaphore
            // re-check and its wait holds the park mutex, so it either
            // saw our token or is already parked when we notify.
            drop(self.park.lock());
            if n == 1 {
                self.park_cv.notify_one();
            } else {
                self.park_cv.notify_all();
            }
        }
    }

    /// Park the calling consumer until a token is posted, `cancel`
    /// turns true, or `until` passes. Returns `true` if the wait timed
    /// out. Spurious returns are fine — callers loop.
    pub fn park(&self, until: Option<Instant>, cancel: impl Fn() -> bool) -> bool {
        let mut guard = self.park.lock();
        self.waiters.0.fetch_add(1, Ordering::SeqCst);
        // Re-check under the mutex: a token posted or a close flipped
        // after our caller's last look must not strand us.
        if self.ready.0.load(Ordering::SeqCst) > 0 || cancel() {
            self.waiters.0.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let timed_out = match until {
            Some(u) => self.park_cv.wait_until(&mut guard, u).timed_out(),
            None => {
                self.park_cv.wait(&mut guard);
                false
            }
        };
        self.waiters.0.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// Wake every parked consumer (close/delete paths).
    pub fn wake_all(&self) {
        drop(self.park.lock());
        self.park_cv.notify_all();
    }
}

impl<T> Default for ShardedRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn sequential_use_is_exact_fifo() {
        let ring = ShardedRing::new();
        for i in 0..100u32 {
            ring.force_reserve();
            ring.push_back(i);
        }
        // More items than shards: claims must walk segments in ticket
        // order, not per-segment order.
        for i in 0..100u32 {
            let (_, got) = ring.try_claim().expect("item queued");
            assert_eq!(got, i);
        }
        assert!(ring.try_claim().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn push_front_claims_before_older_segment_peers() {
        let ring = ShardedRing::new();
        ring.force_reserve();
        ring.push_back(1u32);
        let (shard, one) = ring.try_claim().unwrap();
        assert_eq!(one, 1);
        // Redelivery lands at the front of its original segment.
        ring.push_front(shard, 1u32);
        assert_eq!(ring.try_claim().unwrap().1, 1);
    }

    #[test]
    fn reserve_respects_capacity() {
        let ring = ShardedRing::<u8>::new();
        assert!(ring.reserve(2));
        assert!(ring.reserve(2));
        assert!(!ring.reserve(2));
        ring.release();
        assert!(ring.reserve(2));
    }

    #[test]
    fn park_wakes_on_post() {
        let ring = Arc::new(ShardedRing::new());
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || loop {
            if let Some((_, v)) = r2.try_claim() {
                return v;
            }
            r2.park(None, || false);
        });
        std::thread::sleep(Duration::from_millis(20));
        ring.force_reserve();
        ring.push_back(7u32);
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn park_times_out() {
        let ring = ShardedRing::<u8>::new();
        let start = Instant::now();
        let timed_out = ring.park(Some(Instant::now() + Duration::from_millis(20)), || false);
        assert!(timed_out);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn park_respects_cancel() {
        let ring = ShardedRing::<u8>::new();
        // Cancel observed under the park mutex: no wait happens.
        assert!(!ring.park(None, || true));
    }

    /// Loom-style hand-off check: force the racy interleaving where a
    /// consumer decides to park at the same instant a producer posts.
    /// A barrier aligns the two sides at the critical edge on every
    /// iteration; the token protocol must never strand the consumer.
    #[test]
    fn aligned_handoff_never_misses_a_wakeup() {
        for round in 0..200 {
            let ring = Arc::new(ShardedRing::new());
            let gate = Arc::new(Barrier::new(2));
            let done = Arc::new(AtomicBool::new(false));

            let consumer = {
                let ring = Arc::clone(&ring);
                let gate = Arc::clone(&gate);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    gate.wait(); // align with the producer's push
                    loop {
                        if let Some((_, v)) = ring.try_claim() {
                            done.store(true, Ordering::SeqCst);
                            return v;
                        }
                        // Bounded park so a protocol bug fails the
                        // round instead of hanging the suite.
                        ring.park(Some(Instant::now() + Duration::from_millis(200)), || false);
                    }
                })
            };

            gate.wait();
            // Vary the producer's arrival around the consumer's
            // check-then-park window across rounds.
            if round % 3 == 1 {
                std::thread::yield_now();
            }
            ring.force_reserve();
            ring.push_back(round);
            assert_eq!(consumer.join().unwrap(), round);
            assert!(done.load(Ordering::SeqCst));
            assert!(ring.is_empty());
        }
    }

    /// Seeded multi-producer multi-consumer schedules: conservation
    /// across segment boundaries under contention. The seed drives each
    /// thread's yield pattern so different interleavings are explored
    /// run-to-run while any failure is reproducible from its seed.
    #[test]
    fn seeded_schedules_conserve_items_across_shards() {
        for seed in [7u64, 1848, 3141] {
            let ring = Arc::new(ShardedRing::new());
            let produced = 4 * 250usize;
            let claimed = Arc::new(AtomicUsize::new(0));
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let ring = Arc::clone(&ring);
                    std::thread::spawn(move || {
                        let mut state = seed ^ (p + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..250u64 {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            if state % 5 == 0 {
                                std::thread::yield_now();
                            }
                            ring.force_reserve();
                            ring.push_back(p * 250 + i);
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4u64)
                .map(|c| {
                    let ring = Arc::clone(&ring);
                    let claimed = Arc::clone(&claimed);
                    std::thread::spawn(move || {
                        let mut state = seed ^ (c + 101).wrapping_mul(0xA076_1D64_78BD_642F);
                        let mut got = Vec::new();
                        let deadline = Instant::now() + Duration::from_secs(20);
                        while claimed.load(Ordering::SeqCst) < produced && Instant::now() < deadline
                        {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            if state % 7 == 0 {
                                std::thread::yield_now();
                            }
                            match ring.try_claim() {
                                Some((_, v)) => {
                                    got.push(v);
                                    claimed.fetch_add(1, Ordering::SeqCst);
                                }
                                None => {
                                    ring.park(
                                        Some(Instant::now() + Duration::from_millis(100)),
                                        || false,
                                    );
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all.len(), produced, "seed {seed}: items lost or duplicated");
            assert_eq!(all, (0..produced as u64).collect::<Vec<_>>(), "seed {seed}");
            assert!(ring.is_empty(), "seed {seed}: slots leaked");
        }
    }
}
