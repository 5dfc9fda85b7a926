//! Property-based tests of the broker's delivery invariants.

use bytes::Bytes;
use dlhub_obs::Obs;
use dlhub_queue::fault::{site, FaultKind, FaultPlan, FaultSpec};
use dlhub_queue::{Broker, BrokerConfig, TopicConfig};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Operations the fuzzer interleaves.
#[derive(Debug, Clone)]
enum Op {
    Send(u8),
    RecvAck,
    RecvNack,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Send),
        Just(Op::RecvAck),
        Just(Op::RecvNack),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every message is exactly one of
    /// {ready, in-flight, acked, dead-lettered} — no message is ever
    /// lost or duplicated across any interleaving of operations.
    #[test]
    fn messages_are_conserved(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    max_attempts: 3,
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        let mut sent = 0u64;
        let mut acked = 0u64;
        for op in &ops {
            match op {
                Op::Send(b) => {
                    broker.send("t", Bytes::copy_from_slice(&[*b])).unwrap();
                    sent += 1;
                }
                Op::RecvAck => {
                    if let Ok(Some(d)) = broker.try_recv("t") {
                        d.ack();
                        acked += 1;
                    }
                }
                Op::RecvNack => {
                    if let Ok(Some(d)) = broker.try_recv("t") {
                        d.nack();
                    }
                }
            }
        }
        let ready = broker.depth("t").unwrap() as u64;
        let in_flight = broker.in_flight("t").unwrap() as u64;
        let dead = broker.take_dead_letters("t").unwrap().len() as u64;
        prop_assert_eq!(sent, acked + ready + in_flight + dead);
        let stats = broker.stats("t").unwrap();
        prop_assert_eq!(stats.enqueued, sent);
        prop_assert_eq!(stats.acked, acked);
    }

    /// Single-consumer FIFO: acked payloads come out in send order
    /// when nothing is nacked.
    #[test]
    fn fifo_order_with_single_consumer(payloads in proptest::collection::vec(any::<u8>(), 1..40)) {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t").unwrap();
        for p in &payloads {
            broker.send("t", Bytes::copy_from_slice(&[*p])).unwrap();
        }
        let mut received = Vec::new();
        while let Ok(Some(d)) = broker.try_recv("t") {
            received.push(d.message.payload[0]);
            d.ack();
        }
        prop_assert_eq!(received, payloads);
    }

    /// Bounded topics never exceed their capacity.
    #[test]
    fn capacity_is_never_exceeded(
        cap in 1usize..8,
        sends in 1usize..30,
    ) {
        let broker = Broker::new(BrokerConfig::default());
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    capacity: Some(cap),
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        let mut accepted = 0;
        for _ in 0..sends {
            if broker.try_send("t", Bytes::new()).is_ok() {
                accepted += 1;
            }
            prop_assert!(broker.depth("t").unwrap() <= cap);
        }
        prop_assert_eq!(accepted.min(cap), broker.depth("t").unwrap());
    }

    /// Fault injection never breaks delivery accounting: under seeded
    /// send-drops and recv-abandons, every published message is either
    /// delivered exactly once or reported dropped in the topic stats —
    /// never duplicated, never silently lost.
    #[test]
    fn injected_drops_are_exactly_once_or_reported(
        seed in any::<u64>(),
        count in 1usize..40,
        drop_p in 0.0f64..=1.0,
    ) {
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::BROKER_SEND,
                FaultSpec::new(FaultKind::Drop).probability(drop_p),
            )
            .inject(
                site::BROKER_RECV,
                FaultSpec::new(FaultKind::Drop).probability(0.2).max(10),
            )
            .build();
        let broker = Broker::wired(BrokerConfig::default(), &Obs::new(), faults);
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    // Short lease so abandoned receives redeliver
                    // inside the test; high max_attempts so abandons
                    // never dead-letter.
                    lease: Duration::from_millis(10),
                    max_attempts: 1000,
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        for i in 0..count {
            // A dropped send still returns Ok: the loss must be
            // visible in the stats, not the API.
            broker
                .send("t", Bytes::copy_from_slice(&(i as u16).to_le_bytes()))
                .unwrap();
        }
        let accepted = broker.stats("t").unwrap().enqueued;
        prop_assert_eq!(
            accepted + broker.stats("t").unwrap().dropped,
            count as u64,
            "every send is accounted enqueued-or-dropped"
        );
        // Drain: abandoned receives only delay delivery past one lease,
        // so everything accepted must surface within the watchdog.
        let mut received = Vec::new();
        let watchdog = Instant::now() + Duration::from_secs(5);
        while (received.len() as u64) < accepted {
            prop_assert!(Instant::now() < watchdog, "accepted messages never drained");
            if let Ok(d) = broker.recv_timeout("t", Duration::from_millis(50)) {
                let mut buf = [0u8; 2];
                buf.copy_from_slice(&d.message.payload[..2]);
                received.push(u16::from_le_bytes(buf));
                d.ack();
            }
        }
        let mut unique = received.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), received.len(), "a message was duplicated");
        let stats = broker.stats("t").unwrap();
        prop_assert_eq!(stats.acked, accepted);
        prop_assert_eq!(stats.outstanding(), 0);
    }
}

/// Deterministic per-seed schedules over the sharded rings: the same
/// seed must produce a byte-identical event trace (message payloads in
/// delivery order) on every run, and every schedule must conserve the
/// ledger — sends are enqueued-or-dropped, drains ack everything
/// accepted, nothing crosses a shard boundary into oblivion.
#[test]
fn seeded_schedules_are_byte_identical_and_conserve() {
    fn run(seed: u64) -> Vec<u8> {
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::BROKER_SEND,
                FaultSpec::new(FaultKind::Drop).probability(0.1).max(20),
            )
            .build();
        let broker = Broker::wired(BrokerConfig::default(), &Obs::new(), faults);
        broker
            .create_topic_with(
                "t",
                TopicConfig {
                    max_attempts: 64,
                    ..TopicConfig::default()
                },
            )
            .unwrap();
        // xorshift op schedule: fully determined by the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut trace = Vec::new();
        for _ in 0..300 {
            match next() % 4 {
                0 | 1 => {
                    broker
                        .send("t", Bytes::copy_from_slice(&[next() as u8]))
                        .unwrap();
                }
                2 => {
                    if let Ok(Some(d)) = broker.try_recv("t") {
                        trace.push(d.message.payload[0]);
                        d.ack();
                    }
                }
                _ => {
                    if let Ok(Some(d)) = broker.try_recv("t") {
                        d.nack();
                    }
                }
            }
        }
        // Drain the remainder; at-least-once with generous attempts
        // means everything accepted must surface.
        while let Ok(Some(d)) = broker.try_recv("t") {
            trace.push(d.message.payload[0]);
            d.ack();
        }
        let stats = broker.stats("t").unwrap();
        assert_eq!(
            stats.acked,
            trace.len() as u64,
            "seed {seed}: acks vs trace"
        );
        assert_eq!(stats.enqueued, stats.acked, "seed {seed}: ledger conserved");
        assert_eq!(stats.outstanding(), 0, "seed {seed}: nothing stranded");
        trace
    }
    for seed in [7u64, 1848, 3141] {
        assert_eq!(
            run(seed),
            run(seed),
            "seed {seed}: schedule not byte-identical"
        );
    }
}

/// A bounded topic narrower than the shard count forces every producer
/// through the reserved-slot space protocol while consumers drain from
/// all shards: no message may be lost or double-counted across the
/// shard boundaries.
#[test]
fn bounded_cross_shard_handoff_loses_nothing() {
    let broker = Broker::new(BrokerConfig::default());
    broker
        .create_topic_with(
            "t",
            TopicConfig {
                capacity: Some(4),
                ..TopicConfig::default()
            },
        )
        .unwrap();
    const PRODUCERS: u32 = 4;
    const PER_PRODUCER: u32 = 100;
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let b = broker.clone();
        producers.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                let tag = p * PER_PRODUCER + i;
                // Blocking send: parks on the space condvar whenever
                // the 4-slot topic is full.
                b.send("t", Bytes::copy_from_slice(&tag.to_le_bytes()))
                    .unwrap();
            }
        }));
    }
    let mut consumers = Vec::new();
    for _ in 0..4 {
        let b = broker.clone();
        consumers.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(d) = b.recv_timeout("t", Duration::from_millis(300)) {
                let mut buf = [0u8; 4];
                buf.copy_from_slice(&d.message.payload[..4]);
                got.push(u32::from_le_bytes(buf));
                d.ack();
            }
            got
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    let mut all: Vec<u32> = consumers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    let stats = broker.stats("t").unwrap();
    assert_eq!(stats.enqueued, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.acked, stats.enqueued);
    assert_eq!(stats.outstanding(), 0);
}

#[test]
fn contended_broker_under_lease_churn_loses_nothing() {
    // Stress: tiny leases force redeliveries while consumers race.
    let broker = Broker::new(BrokerConfig::default());
    broker
        .create_topic_with(
            "t",
            TopicConfig {
                lease: Duration::from_millis(5),
                max_attempts: 100,
                ..TopicConfig::default()
            },
        )
        .unwrap();
    let total = 200u32;
    for i in 0..total {
        broker
            .send("t", Bytes::copy_from_slice(&i.to_le_bytes()))
            .unwrap();
    }
    let mut handles = Vec::new();
    for _ in 0..4 {
        let b = broker.clone();
        handles.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(d) = b.recv_timeout("t", Duration::from_millis(200)) {
                // Occasionally stall past the lease to force
                // redelivery to a peer.
                if d.message.payload[0] % 13 == 0 && d.message.attempts == 1 {
                    std::thread::sleep(Duration::from_millis(8));
                }
                let mut buf = [0u8; 4];
                buf.copy_from_slice(&d.message.payload[..4]);
                got.push(u32::from_le_bytes(buf));
                d.ack();
            }
            got
        }));
    }
    let mut all: Vec<u32> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    all.dedup(); // at-least-once: duplicates are legal, loss is not
    assert_eq!(all, (0..total).collect::<Vec<_>>());
}
