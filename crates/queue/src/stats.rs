//! Per-topic delivery statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters and queue-wait accounting for a topic.
///
/// `mean_wait` is the average time messages spent in the ready queue
/// before being leased — the broker component of DLHub's "request time"
/// measurement point (§V-A).
///
/// This is a point-in-time *snapshot*: the broker maintains the live
/// counters as relaxed atomics ([`AtomicTopicStats`]) so
/// `Broker::stats` never takes a topic lock, and materializes one of
/// these on demand.
#[derive(Debug, Clone, Default)]
pub struct TopicStats {
    /// Messages accepted by `send`/`try_send`.
    pub enqueued: u64,
    /// Lease grants (includes redeliveries).
    pub delivered: u64,
    /// Successful acknowledgements.
    pub acked: u64,
    /// Requeues due to nack or lease expiry.
    pub redelivered: u64,
    /// Messages moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// Sends discarded by fault injection: the sender saw success but
    /// the message never reached the ready queue (or, for a reply to
    /// one of this topic's requests, the caller).
    pub dropped: u64,
    total_wait_nanos: u128,
    wait_samples: u64,
}

impl TopicStats {
    /// Record one ready-queue wait sample.
    #[cfg(test)]
    pub(crate) fn record_wait(&mut self, wait: Duration) {
        self.total_wait_nanos += wait.as_nanos();
        self.wait_samples += 1;
    }

    /// Mean time spent in the ready queue before lease.
    pub fn mean_wait(&self) -> Duration {
        if self.wait_samples == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.total_wait_nanos / self.wait_samples as u128) as u64)
    }

    /// Messages currently unaccounted for (enqueued but neither acked
    /// nor dead-lettered). Useful as a liveness check in tests.
    /// Injection-dropped messages never entered the queue, so they are
    /// not outstanding.
    pub fn outstanding(&self) -> u64 {
        self.enqueued
            .saturating_sub(self.acked + self.dead_lettered)
    }
}

/// Live topic counters, updated with relaxed atomics on the broker's
/// hot paths and read lock-free by `Broker::stats`.
///
/// Relaxed ordering is sufficient: each counter is independently
/// monotonic, and every reader that asserts exact totals first
/// quiesces the topic (joins its producers/consumers or polls
/// [`TopicStats::outstanding`] to zero), which synchronizes the loads.
#[derive(Debug, Default)]
pub(crate) struct AtomicTopicStats {
    pub enqueued: AtomicU64,
    pub delivered: AtomicU64,
    pub acked: AtomicU64,
    pub redelivered: AtomicU64,
    pub dead_lettered: AtomicU64,
    pub dropped: AtomicU64,
    total_wait_nanos: AtomicU64,
    wait_samples: AtomicU64,
}

impl AtomicTopicStats {
    /// Record one ready-queue wait sample.
    pub fn record_wait(&self, wait: Duration) {
        self.total_wait_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        self.wait_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Materialize a [`TopicStats`] snapshot without locking.
    pub fn snapshot(&self) -> TopicStats {
        TopicStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            acked: self.acked.load(Ordering::Relaxed),
            redelivered: self.redelivered.load(Ordering::Relaxed),
            dead_lettered: self.dead_lettered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            total_wait_nanos: self.total_wait_nanos.load(Ordering::Relaxed) as u128,
            wait_samples: self.wait_samples.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_wait_of_empty_stats_is_zero() {
        assert_eq!(TopicStats::default().mean_wait(), Duration::ZERO);
    }

    #[test]
    fn mean_wait_averages_samples() {
        let mut s = TopicStats::default();
        s.record_wait(Duration::from_millis(10));
        s.record_wait(Duration::from_millis(30));
        assert_eq!(s.mean_wait(), Duration::from_millis(20));
    }

    #[test]
    fn outstanding_accounts_for_acks_and_dead_letters() {
        let s = TopicStats {
            enqueued: 10,
            acked: 6,
            dead_lettered: 1,
            ..TopicStats::default()
        };
        assert_eq!(s.outstanding(), 3);
    }

    #[test]
    fn atomic_stats_snapshot_round_trips() {
        let live = AtomicTopicStats::default();
        live.enqueued.fetch_add(4, Ordering::Relaxed);
        live.delivered.fetch_add(3, Ordering::Relaxed);
        live.acked.fetch_add(2, Ordering::Relaxed);
        live.record_wait(Duration::from_millis(6));
        live.record_wait(Duration::from_millis(10));
        let snap = live.snapshot();
        assert_eq!(snap.enqueued, 4);
        assert_eq!(snap.delivered, 3);
        assert_eq!(snap.acked, 2);
        assert_eq!(snap.outstanding(), 2);
        assert_eq!(snap.mean_wait(), Duration::from_millis(8));
    }
}
