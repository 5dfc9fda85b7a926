//! The broker: named topics with leased, at-least-once delivery.
//!
//! Semantics mirror what DLHub needs from ZeroMQ (§IV-A): the
//! Management Service posts tasks, Task Managers pull them, and a task
//! that is pulled but never acknowledged (a crashed Task Manager) is
//! redelivered to another consumer.
//!
//! Topic storage is a [`ShardedRing`]: producers and consumers hit
//! independently locked ring segments instead of serializing on one
//! `Mutex<TopicState>`, lease tracking lives in a hash-sharded
//! in-flight map keyed by message id, and all statistics are relaxed
//! atomics so `Broker::stats` never takes a lock. The earliest lease
//! expiry is cached in a single atomic so the receive hot path pays one
//! load — not an in-flight scan — to decide whether reaping is due.

use crate::message::{Message, MessageId};
use crate::shard::{CachePadded, Refused, ShardedRing};
use crate::stats::{AtomicTopicStats, TopicStats};
use bytes::Bytes;
use dlhub_fault::{site, FaultHandle, FaultKind};
use dlhub_obs::{Counter, Histogram, Obs};
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::time::Instant;
use dlhub_sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The named topic does not exist.
    NoSuchTopic(String),
    /// A topic with this name already exists.
    TopicExists(String),
    /// The topic is bounded and full (try_send only).
    Full(String),
    /// The topic was drained and closed; no more messages will arrive.
    Closed(String),
    /// recv_timeout elapsed with no message available.
    Timeout,
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::NoSuchTopic(t) => write!(f, "no such topic: {t}"),
            QueueError::TopicExists(t) => write!(f, "topic already exists: {t}"),
            QueueError::Full(t) => write!(f, "topic full: {t}"),
            QueueError::Closed(t) => write!(f, "topic closed: {t}"),
            QueueError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Per-topic configuration.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Maximum queued (ready) messages; `None` = unbounded.
    pub capacity: Option<usize>,
    /// Lease duration after which an unacked delivery is requeued.
    pub lease: Duration,
    /// Delivery attempts before a message moves to the dead-letter
    /// queue. 0 is treated as 1.
    pub max_attempts: u32,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            capacity: None,
            lease: Duration::from_secs(30),
            max_attempts: 5,
        }
    }
}

/// Broker-wide configuration: the default [`TopicConfig`] applied by
/// [`Broker::create_topic`].
#[derive(Debug, Clone, Default)]
pub struct BrokerConfig {
    /// Defaults applied to topics created without an explicit config.
    pub topic_defaults: TopicConfig,
}

/// Number of in-flight map shards per topic. Power of two; message ids
/// are a process-wide counter so `id & mask` spreads leases uniformly.
const FLIGHT_SHARDS: usize = 8;

/// `next_expiry` sentinel: no lease outstanding.
const NO_EXPIRY: u64 = u64::MAX;

struct InFlight {
    /// Shares the delivered message's refcounted payload and reply
    /// slot — retaining a lease never copies bytes.
    message: Message,
    lease_expires: Instant,
    /// Times this lease was renewed for a live responder.
    renewals: u32,
    /// Ring segment the message was claimed from; redelivery returns
    /// it to the front of the same segment.
    ring_shard: usize,
}

type FlightMap = Mutex<HashMap<MessageId, InFlight>>;

struct Topic {
    config: TopicConfig,
    /// Ready messages, sharded across independently locked segments;
    /// closing the topic closes the ring.
    ring: ShardedRing<Message>,
    /// Leased-but-unsettled messages, sharded by message id.
    in_flight: Box<[CachePadded<FlightMap>]>,
    dead: Mutex<Vec<Message>>,
    /// Earliest outstanding lease expiry, as nanoseconds since `epoch`
    /// ([`NO_EXPIRY`] when none). Leasing `fetch_min`s its expiry in;
    /// the receive paths compare one load against "now" to decide
    /// whether any reaping is due, instead of scanning in-flight maps.
    next_expiry: AtomicU64,
    epoch: Instant,
    stats: AtomicTopicStats,
}

impl Topic {
    fn new(config: TopicConfig) -> Self {
        let in_flight = (0..FLIGHT_SHARDS)
            .map(|_| CachePadded(Mutex::new(HashMap::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Topic {
            config,
            ring: ShardedRing::new(),
            in_flight,
            dead: Mutex::new(Vec::new()),
            next_expiry: AtomicU64::new(NO_EXPIRY),
            epoch: Instant::now(),
            stats: AtomicTopicStats::default(),
        }
    }

    fn flight_shard(&self, id: MessageId) -> &FlightMap {
        &self.in_flight[(id.0 as usize) & (FLIGHT_SHARDS - 1)].0
    }

    /// Register a lease expiry so receive paths know when reaping is
    /// next due.
    fn note_expiry(&self, at: Instant) {
        let nanos = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.next_expiry
            .fetch_min(nanos.min(NO_EXPIRY - 1), Ordering::SeqCst);
    }

    fn next_expiry_instant(&self) -> Option<Instant> {
        let nanos = self.next_expiry.load(Ordering::SeqCst);
        (nanos != NO_EXPIRY).then(|| self.epoch + Duration::from_nanos(nanos))
    }
}

/// A leased message. Call [`Delivery::ack`] on success or
/// [`Delivery::nack`] to trigger immediate redelivery. Dropping a
/// `Delivery` without acking leaves the lease to expire naturally,
/// modelling a crashed consumer.
pub struct Delivery {
    /// The leased message.
    pub message: Message,
    /// How long the message sat in the ready queue before this lease
    /// (per delivery: a redelivery reports its own wait).
    pub queue_wait: Duration,
    /// When this delivery was claimed: the consumer's one clock read
    /// for it, which its queue wait and lease are timed from.
    pub received: Instant,
    topic: Arc<Topic>,
    settled: bool,
}

impl Delivery {
    /// Acknowledge successful processing; the message is removed.
    pub fn ack(mut self) {
        let removed = self
            .topic
            .flight_shard(self.message.id)
            .lock()
            .remove(&self.message.id)
            .is_some();
        if removed {
            self.topic.stats.acked.fetch_add(1, Ordering::Relaxed);
        }
        self.settled = true;
    }

    /// Negatively acknowledge: requeue now (or dead-letter if the
    /// attempt budget is exhausted).
    pub fn nack(mut self) {
        let max_attempts = self.topic.config.max_attempts.max(1);
        let flight = self
            .topic
            .flight_shard(self.message.id)
            .lock()
            .remove(&self.message.id);
        if let Some(mut f) = flight {
            if f.message.attempts >= max_attempts {
                self.topic
                    .stats
                    .dead_lettered
                    .fetch_add(1, Ordering::Relaxed);
                self.topic.dead.lock().push(f.message);
            } else {
                self.topic.stats.redelivered.fetch_add(1, Ordering::Relaxed);
                // Re-stamp for the new queue residency: the next
                // lease's queue_wait measures this wait, not the
                // message's whole lifetime, so stage sums stay an
                // exact partition of request time.
                f.message.enqueued_at = Instant::now();
                // The in-flight record already shares the payload —
                // requeueing moves the handle, no bytes are copied.
                self.topic.ring.push_front(f.ring_shard, f.message);
            }
        }
        self.settled = true;
    }
}

impl fmt::Debug for Delivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Delivery")
            .field("message", &self.message.id)
            .field("settled", &self.settled)
            .finish()
    }
}

/// The message broker. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

struct BrokerInner {
    config: BrokerConfig,
    // Read-mostly: every send/recv resolves a topic name, while
    // topics are created and deleted rarely. A shared lock keeps the
    // per-request lookup contention-free.
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    /// Consulted at [`site::BROKER_SEND`] and [`site::BROKER_RECV`];
    /// one branch per operation while disabled.
    faults: FaultHandle,
    // Instruments, resolved once in `wired`: plain atomics on the
    // send/recv paths thereafter.
    send: Arc<Counter>,
    recv: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    dropped: Arc<Counter>,
    redelivered: Arc<Counter>,
}

impl Broker {
    /// A broker on its own: [`Broker::wired`] recording into an
    /// [`Obs`] nobody else reads, with fault injection disabled.
    pub fn new(config: BrokerConfig) -> Self {
        Broker::wired(config, &Obs::new(), FaultHandle::default())
    }

    /// Create a broker with the given defaults inside a deployment:
    /// its traffic lands in `obs`'s registry — `broker_send_total` /
    /// `broker_recv_total` counters plus a `broker_queue_wait_ns`
    /// histogram of how long messages sat in the queue before being
    /// leased; `broker_dropped_total` counts sends discarded by fault
    /// injection and `broker_redelivered_total` counts lease-expiry
    /// requeues observed by the receive paths (nack requeues land only
    /// in [`TopicStats::redelivered`]) — and `faults` is consulted on
    /// every send and receive.
    pub fn wired(config: BrokerConfig, obs: &Obs, faults: FaultHandle) -> Self {
        let metrics = &obs.metrics;
        Broker {
            inner: Arc::new(BrokerInner {
                config,
                topics: RwLock::new(HashMap::new()),
                faults,
                send: metrics
                    .counter_with_help("broker_send_total", "Messages published across all topics"),
                recv: metrics
                    .counter_with_help("broker_recv_total", "Messages delivered to consumers"),
                queue_wait: metrics.histogram_with_help(
                    "broker_queue_wait_ns",
                    "Time messages spent queued before delivery",
                ),
                dropped: metrics.counter_with_help(
                    "broker_dropped_total",
                    "Sends and replies discarded by fault injection",
                ),
                redelivered: metrics.counter_with_help(
                    "broker_redelivered_total",
                    "Messages requeued after a lease expired unacknowledged",
                ),
            }),
        }
    }

    /// Create a topic with the broker's default topic configuration.
    pub fn create_topic(&self, name: &str) -> Result<(), QueueError> {
        self.create_topic_with(name, self.inner.config.topic_defaults.clone())
    }

    /// Create a topic with an explicit configuration.
    pub fn create_topic_with(&self, name: &str, config: TopicConfig) -> Result<(), QueueError> {
        let mut topics = self.inner.topics.write();
        if topics.contains_key(name) {
            return Err(QueueError::TopicExists(name.to_string()));
        }
        topics.insert(name.to_string(), Arc::new(Topic::new(config)));
        Ok(())
    }

    /// Create the topic if it does not exist yet; never fails.
    pub fn ensure_topic(&self, name: &str) {
        if self.inner.topics.read().contains_key(name) {
            return;
        }
        self.inner
            .topics
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Topic::new(self.inner.config.topic_defaults.clone())));
    }

    /// List existing topic names (unordered).
    pub fn topics(&self) -> Vec<String> {
        self.inner.topics.read().keys().cloned().collect()
    }

    /// Delete a topic, dropping all queued and in-flight messages.
    pub fn delete_topic(&self, name: &str) -> Result<(), QueueError> {
        let topic = {
            let mut topics = self.inner.topics.write();
            topics
                .remove(name)
                .ok_or_else(|| QueueError::NoSuchTopic(name.to_string()))?
        };
        topic.ring.close();
        Ok(())
    }

    /// Close a topic: queued messages may still be drained, but new
    /// sends fail and receivers see [`QueueError::Closed`] once empty.
    pub fn close_topic(&self, name: &str) -> Result<(), QueueError> {
        self.topic(name)?.ring.close();
        Ok(())
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>, QueueError> {
        self.inner
            .topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| QueueError::NoSuchTopic(name.to_string()))
    }

    /// Enqueue `payload` as a fresh message. Blocks while a bounded
    /// topic is full.
    pub fn send(&self, topic: &str, payload: Bytes) -> Result<MessageId, QueueError> {
        self.send_message(topic, Message::new(payload))
    }

    /// Enqueue a pre-built message (used by the RPC layer to attach
    /// the reply slot). Blocks while full.
    pub fn send_message(&self, name: &str, message: Message) -> Result<MessageId, QueueError> {
        let topic = self.topic(name)?;
        Self::acquire_slot(&topic, name, None)?;
        self.enqueue(&topic, message)
    }

    /// Non-blocking send; fails with [`QueueError::Full`] when bounded
    /// capacity is exhausted.
    pub fn try_send(&self, name: &str, payload: Bytes) -> Result<MessageId, QueueError> {
        let topic = self.topic(name)?;
        Self::acquire_slot(&topic, name, Some(Instant::now()))?;
        self.enqueue(&topic, Message::new(payload))
    }

    /// Reserve a ready-queue slot, waiting for room on a full bounded
    /// topic until `until` (`None`: as long as it takes). On `Ok` the
    /// caller owns one slot.
    fn acquire_slot(topic: &Topic, name: &str, until: Option<Instant>) -> Result<(), QueueError> {
        topic
            .ring
            .reserve_within(topic.config.capacity, until)
            .map_err(|refused| match refused {
                Refused::Full => QueueError::Full(name.to_string()),
                Refused::Closed => QueueError::Closed(name.to_string()),
            })
    }

    /// Publish into an already-reserved slot, honouring the send fault
    /// site.
    fn enqueue(&self, topic: &Topic, message: Message) -> Result<MessageId, QueueError> {
        let id = message.id;
        if self.drop_send_injected(topic) {
            topic.ring.release();
            return Ok(id);
        }
        topic.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        topic.ring.push_back(message);
        self.inner.send.inc();
        Ok(id)
    }

    /// Consult the send fault site; on a `Drop` fault the message is
    /// discarded after the caller saw a successful send — exactly the
    /// lost-publish failure mode of a flaky transport.
    fn drop_send_injected(&self, topic: &Topic) -> bool {
        if let Some(fault) = self.inner.faults.decide(site::BROKER_SEND) {
            if fault.kind == FaultKind::Drop {
                topic.stats.dropped.fetch_add(1, Ordering::Relaxed);
                self.inner.dropped.inc();
                return true;
            }
        }
        false
    }

    /// Answer a leased request: hand `payload` to the caller blocked on
    /// the message's reply slot, then acknowledge the delivery. Replies
    /// skip the topics but not the send fault site — a `Drop` fault
    /// loses the reply after the server saw success (counted in the
    /// service topic's `dropped`), and the caller times out.
    pub(crate) fn reply(&self, delivery: Delivery, payload: Bytes) {
        if let Some(slot) = &delivery.message.reply {
            if !self.drop_send_injected(&delivery.topic) {
                slot.reply.fill(payload);
            }
        }
        delivery.ack();
    }

    /// Blocking receive: waits until a message is available, leases it
    /// and returns the [`Delivery`].
    pub fn recv(&self, name: &str) -> Result<Delivery, QueueError> {
        self.recv_within(name, None)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, name: &str, timeout: Duration) -> Result<Delivery, QueueError> {
        self.recv_within(name, Some(timeout))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, name: &str) -> Result<Option<Delivery>, QueueError> {
        let topic = self.topic(name)?;
        let now = Instant::now();
        self.reap_if_due(&topic, now);
        match topic.ring.try_claim() {
            Some((ring_shard, message)) => {
                let d = self.lease(&topic, ring_shard, message, now);
                if self.abandon_recv_injected() {
                    // The lease stands but the consumer "crashed":
                    // redelivery waits for the lease to expire.
                    drop(d);
                    return Ok(None);
                }
                Ok(Some(d))
            }
            None if topic.ring.is_closed() => Err(QueueError::Closed(name.to_string())),
            None => Ok(None),
        }
    }

    /// Consult the recv fault site; a `Drop` fault abandons the lease
    /// just granted, modelling a consumer that died with the message in
    /// hand — the broker's lease expiry is what recovers it.
    fn abandon_recv_injected(&self) -> bool {
        matches!(
            self.inner.faults.decide(site::BROKER_RECV),
            Some(fault) if fault.kind == FaultKind::Drop
        )
    }

    /// Claim and lease the next message, waiting up to `timeout`
    /// (`None`: as long as it takes). A delivery reads the clock once:
    /// its receive stamp, which times its queue wait and its lease and
    /// tells whether any reaping is due. A wait reads it once more, when
    /// it is about to park; the deadline is fixed at the first park.
    fn recv_within(&self, name: &str, timeout: Option<Duration>) -> Result<Delivery, QueueError> {
        let topic = self.topic(name)?;
        let mut deadline = None;
        loop {
            if let Some((ring_shard, message)) = topic.ring.try_claim() {
                let received = Instant::now();
                self.reap_if_due(&topic, received);
                let d = self.lease(&topic, ring_shard, message, received);
                if self.abandon_recv_injected() {
                    // Abandon the lease and keep waiting: the message comes
                    // back through the reaper once the lease runs out.
                    drop(d);
                    continue;
                }
                return Ok(d);
            }
            if topic.ring.is_closed() {
                return Err(QueueError::Closed(name.to_string()));
            }
            let now = Instant::now();
            // What the reaper requeues is claimed on the next turn: its
            // tokens keep the park below from waiting.
            self.reap_if_due(&topic, now);
            let deadline = timeout.map(|timeout| *deadline.get_or_insert(now + timeout));
            if deadline.is_some_and(|d| now >= d) {
                return Err(QueueError::Timeout);
            }
            // Wake up early enough to reap the next lease expiry even
            // if no new message arrives.
            let until = match (deadline, topic.next_expiry_instant()) {
                (Some(d), Some(e)) => Some(d.min(e)),
                (Some(d), None) => Some(d),
                (None, e) => e,
            };
            topic
                .ring
                .park_for(until.map(|until| until.saturating_duration_since(now)));
        }
    }

    /// Requeue in-flight messages whose lease has expired, if the
    /// cached earliest expiry says any could have. One atomic load on
    /// the common (nothing due) path.
    fn reap_if_due(&self, topic: &Topic, now: Instant) {
        let due = topic.next_expiry.load(Ordering::SeqCst);
        if due == NO_EXPIRY {
            return;
        }
        if (now.saturating_duration_since(topic.epoch).as_nanos() as u64) < due {
            return;
        }
        // Claim this reap: exactly one caller per observed expiry value
        // proceeds. A failed exchange means a concurrent reaper took it
        // (or a sooner expiry just landed, which re-triggers us).
        if topic
            .next_expiry
            .compare_exchange(due, NO_EXPIRY, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let max_attempts = topic.config.max_attempts.max(1);
        let mut requeued = 0u64;
        for shard in topic.in_flight.iter() {
            let mut map = shard.0.lock();
            // The lease detects a server that went away. One that still
            // holds the request's `Responder` has not: renew, so work
            // in progress (a replica pool running the task long after
            // the consumer moved on) is not redelivered on top of
            // itself. A wedged holder looks the same, so a delivery is
            // renewed `max_attempts` times at most; then it expires
            // like any other and ends up redelivered or dead-lettered.
            for f in map.values_mut() {
                if f.lease_expires <= now && f.renewals < max_attempts && f.message.attended() {
                    f.lease_expires = now + topic.config.lease;
                    f.renewals += 1;
                }
            }
            let expired: Vec<MessageId> = map
                .iter()
                .filter(|(_, f)| f.lease_expires <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in expired {
                let Some(mut f) = map.remove(&id) else {
                    continue;
                };
                if f.message.attempts >= max_attempts {
                    topic.stats.dead_lettered.fetch_add(1, Ordering::Relaxed);
                    topic.dead.lock().push(f.message);
                } else {
                    topic.stats.redelivered.fetch_add(1, Ordering::Relaxed);
                    // Same re-stamp as nack: queue_wait measures this
                    // residency, not time spent leased to the crashed
                    // consumer.
                    f.message.enqueued_at = now;
                    topic.ring.push_front(f.ring_shard, f.message);
                    requeued += 1;
                }
            }
            // Re-register the survivors so the next expiry stays
            // visible. Leases inserted concurrently either appeared in
            // this scan or `fetch_min` their expiry in after our reset.
            if let Some(min) = map.values().map(|f| f.lease_expires).min() {
                topic.note_expiry(min);
            }
        }
        self.inner.redelivered.add(requeued);
    }

    /// Lease `message`, received at `received`.
    fn lease(
        &self,
        topic: &Arc<Topic>,
        ring_shard: usize,
        mut message: Message,
        received: Instant,
    ) -> Delivery {
        message.attempts += 1;
        let queue_wait = received.saturating_duration_since(message.enqueued_at);
        topic.stats.delivered.fetch_add(1, Ordering::Relaxed);
        topic.stats.record_wait(queue_wait);
        self.inner.recv.inc();
        self.inner.queue_wait.record_duration(queue_wait);
        let lease_expires = received + topic.config.lease;
        // Shallow clone: the in-flight record shares the delivered
        // message's refcounted payload and reply slot.
        topic.flight_shard(message.id).lock().insert(
            message.id,
            InFlight {
                message: message.clone(),
                lease_expires,
                renewals: 0,
                ring_shard,
            },
        );
        topic.note_expiry(lease_expires);
        Delivery {
            message,
            queue_wait,
            received,
            topic: Arc::clone(topic),
            settled: false,
        }
    }

    /// Number of ready (not in-flight) messages on a topic.
    pub fn depth(&self, name: &str) -> Result<usize, QueueError> {
        Ok(self.topic(name)?.ring.len())
    }

    /// Number of leased-but-unsettled messages.
    pub fn in_flight(&self, name: &str) -> Result<usize, QueueError> {
        let topic = self.topic(name)?;
        Ok(topic.in_flight.iter().map(|s| s.0.lock().len()).sum())
    }

    /// Drain the dead-letter queue for a topic.
    pub fn take_dead_letters(&self, name: &str) -> Result<Vec<Message>, QueueError> {
        Ok(std::mem::take(&mut self.topic(name)?.dead.lock()))
    }

    /// Snapshot the delivery statistics of a topic. Lock-free: the
    /// counters are relaxed atomics maintained on the hot paths.
    pub fn stats(&self, name: &str) -> Result<TopicStats, QueueError> {
        Ok(self.topic(name)?.stats.snapshot())
    }
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn b() -> Broker {
        let b = Broker::new(BrokerConfig::default());
        b.create_topic("t").unwrap();
        b
    }

    #[test]
    fn fifo_order_preserved() {
        let broker = b();
        for i in 0..10u8 {
            broker.send("t", Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..10u8 {
            let d = broker.recv("t").unwrap();
            assert_eq!(d.message.payload[0], i);
            d.ack();
        }
    }

    #[test]
    fn send_to_missing_topic_fails() {
        let broker = Broker::new(BrokerConfig::default());
        assert!(matches!(
            broker.send("nope", Bytes::new()),
            Err(QueueError::NoSuchTopic(_))
        ));
    }

    #[test]
    fn duplicate_topic_rejected() {
        let broker = b();
        assert!(matches!(
            broker.create_topic("t"),
            Err(QueueError::TopicExists(_))
        ));
    }

    #[test]
    fn ensure_topic_is_idempotent() {
        let broker = b();
        broker.ensure_topic("t");
        broker.ensure_topic("u");
        let mut topics = broker.topics();
        topics.sort();
        assert_eq!(topics, vec!["t".to_string(), "u".to_string()]);
    }

    #[test]
    fn nack_redelivers_immediately() {
        let broker = b();
        broker.send("t", Bytes::from_static(b"x")).unwrap();
        let d = broker.recv("t").unwrap();
        assert_eq!(d.message.attempts, 1);
        d.nack();
        let d2 = broker.recv("t").unwrap();
        assert_eq!(d2.message.attempts, 2);
        d2.ack();
        assert_eq!(broker.depth("t").unwrap(), 0);
        assert_eq!(broker.in_flight("t").unwrap(), 0);
    }

    #[test]
    fn lease_expiry_requeues() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    lease: Duration::from_millis(10),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.send("t", Bytes::from_static(b"x")).unwrap();
        let d = broker.recv("t").unwrap();
        // Simulate a crashed consumer: forget the delivery.
        std::mem::forget(d);
        // Second recv should block until the lease expires, then get
        // the redelivered message.
        let d2 = broker.recv_timeout("t", Duration::from_secs(2)).unwrap();
        assert_eq!(d2.message.attempts, 2);
        d2.ack();
        assert_eq!(broker.stats("t").unwrap().redelivered, 1);
    }

    #[test]
    fn dead_letter_after_max_attempts() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    max_attempts: 2,
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.send("t", Bytes::from_static(b"poison")).unwrap();
        broker.recv("t").unwrap().nack(); // attempt 1
        broker.recv("t").unwrap().nack(); // attempt 2 -> dead letter
        assert!(broker.try_recv("t").unwrap().is_none());
        let dead = broker.take_dead_letters("t").unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(&dead[0].payload[..], b"poison");
        assert_eq!(broker.stats("t").unwrap().dead_lettered, 1);
    }

    #[test]
    fn try_send_respects_capacity() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    capacity: Some(2),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.try_send("t", Bytes::new()).unwrap();
        broker.try_send("t", Bytes::new()).unwrap();
        assert!(matches!(
            broker.try_send("t", Bytes::new()),
            Err(QueueError::Full(_))
        ));
        // Draining frees space again.
        broker.recv("t").unwrap().ack();
        broker.try_send("t", Bytes::new()).unwrap();
    }

    #[test]
    fn blocking_send_unblocks_on_recv() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    capacity: Some(1),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.send("t", Bytes::from_static(b"a")).unwrap();
        let b2 = broker.clone();
        let h = thread::spawn(move || b2.send("t", Bytes::from_static(b"b")).unwrap());
        thread::sleep(Duration::from_millis(20));
        broker.recv("t").unwrap().ack();
        h.join().unwrap();
        let d = broker.recv("t").unwrap();
        assert_eq!(&d.message.payload[..], b"b");
        d.ack();
    }

    #[test]
    fn try_recv_frees_space_for_blocked_sender() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    capacity: Some(1),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.send("t", Bytes::from_static(b"a")).unwrap();
        let b2 = broker.clone();
        let h = thread::spawn(move || b2.send("t", Bytes::from_static(b"b")).unwrap());
        thread::sleep(Duration::from_millis(20));
        // A non-blocking consumer must also wake the blocked sender.
        let d = broker.try_recv("t").unwrap().expect("message ready");
        d.ack();
        h.join().unwrap();
        let d = broker.recv("t").unwrap();
        assert_eq!(&d.message.payload[..], b"b");
        d.ack();
    }

    #[test]
    fn recv_timeout_times_out() {
        let broker = b();
        let err = broker
            .recv_timeout("t", Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, QueueError::Timeout);
    }

    #[test]
    fn close_topic_drains_then_errors() {
        let broker = b();
        broker.send("t", Bytes::from_static(b"x")).unwrap();
        broker.close_topic("t").unwrap();
        // Existing message can still be drained.
        let d = broker.recv("t").unwrap();
        d.ack();
        assert!(matches!(broker.recv("t"), Err(QueueError::Closed(_))));
        assert!(matches!(
            broker.send("t", Bytes::new()),
            Err(QueueError::Closed(_))
        ));
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything_once() {
        // Unbounded, then bounded far below the traffic so the four
        // blocking senders park on a full topic and every claim has a
        // sender to wake.
        for capacity in [None, Some(8)] {
            deliver_everything_once(capacity);
        }
    }

    fn deliver_everything_once(capacity: Option<usize>) {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    capacity,
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        let n_producers = 4;
        let per_producer = 250;
        let total = n_producers * per_producer;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let br = broker.clone();
            handles.push(thread::spawn(move || {
                for i in 0..per_producer {
                    let v = (p * per_producer + i) as u32;
                    br.send("t", Bytes::copy_from_slice(&v.to_le_bytes()))
                        .unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let br = broker.clone();
            consumers.push(thread::spawn(move || {
                let mut seen = Vec::new();
                while let Ok(d) = br.recv_timeout("t", Duration::from_millis(300)) {
                    let mut buf = [0u8; 4];
                    buf.copy_from_slice(&d.message.payload[..4]);
                    seen.push(u32::from_le_bytes(buf));
                    d.ack();
                }
                seen
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), total);
        assert_eq!(all, (0..total as u32).collect::<Vec<_>>());
        let stats = broker.stats("t").unwrap();
        assert_eq!(stats.enqueued, total as u64);
        assert_eq!(stats.acked, total as u64);
    }

    #[test]
    fn attached_registry_mirrors_topic_stats() {
        let obs = Obs::new();
        let broker = Broker::wired(BrokerConfig::default(), &obs, FaultHandle::default());
        broker.create_topic("t").unwrap();
        for i in 0..5u8 {
            broker.send("t", Bytes::copy_from_slice(&[i])).unwrap();
        }
        for _ in 0..3 {
            broker.recv("t").unwrap().ack();
        }
        let stats = broker.stats("t").unwrap();
        let metrics = &obs.metrics;
        assert_eq!(metrics.counter("broker_send_total").get(), stats.enqueued);
        assert_eq!(metrics.counter("broker_recv_total").get(), stats.delivered);
        assert_eq!(metrics.histogram("broker_queue_wait_ns").count(), 3);
    }

    #[test]
    fn redelivery_restamps_the_enqueue_instant() {
        let broker = b();
        broker.send("t", Bytes::from_static(b"x")).unwrap();
        // Hold the delivery long enough that a stale stamp would show.
        let d = broker.recv("t").unwrap();
        thread::sleep(Duration::from_millis(50));
        d.nack();
        let d2 = broker.recv("t").unwrap();
        // The redelivered wait covers only the new residency, not the
        // 50ms the first consumer sat on the message.
        assert!(
            d2.queue_wait < Duration::from_millis(40),
            "stale enqueue stamp inflated queue_wait: {:?}",
            d2.queue_wait
        );
        d2.ack();
    }

    #[test]
    fn lease_expiry_redelivery_restamps_too() {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    lease: Duration::from_millis(10),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        broker.send("t", Bytes::from_static(b"x")).unwrap();
        std::mem::forget(broker.recv("t").unwrap());
        // Wait well past the lease so the stale stamp would dominate.
        thread::sleep(Duration::from_millis(60));
        let d2 = broker.recv_timeout("t", Duration::from_secs(2)).unwrap();
        assert_eq!(d2.message.attempts, 2);
        assert!(
            d2.queue_wait < Duration::from_millis(50),
            "reaped redelivery kept its original stamp: {:?}",
            d2.queue_wait
        );
        d2.ack();
    }

    #[test]
    fn stats_track_queue_wait() {
        let broker = b();
        broker.send("t", Bytes::new()).unwrap();
        thread::sleep(Duration::from_millis(5));
        broker.recv("t").unwrap().ack();
        let stats = broker.stats("t").unwrap();
        assert!(stats.mean_wait() >= Duration::from_millis(4));
    }

    #[test]
    fn redelivery_shares_the_payload_allocation() {
        let broker = b();
        broker
            .send("t", Bytes::copy_from_slice(b"zero-copy"))
            .unwrap();
        let d = broker.recv("t").unwrap();
        let before = d.message.payload.as_ptr();
        d.nack();
        let d2 = broker.recv("t").unwrap();
        // Redelivery hands back the same refcounted buffer.
        assert_eq!(d2.message.payload.as_ptr(), before);
        d2.ack();
    }

    #[test]
    fn closed_topic_wakes_parked_receiver() {
        let broker = b();
        let b2 = broker.clone();
        let h = thread::spawn(move || b2.recv("t"));
        thread::sleep(Duration::from_millis(20));
        broker.close_topic("t").unwrap();
        assert!(matches!(h.join().unwrap(), Err(QueueError::Closed(_))));
    }
}
