//! Direct replies: the reply slot travels with the request, so what
//! used to be reply-topic bookkeeping (late replies, duplicate
//! executions of a redelivered request) is now a property of the slot.

use bytes::Bytes;
use dlhub_queue::{Broker, BrokerConfig, RpcClient, RpcError, RpcServer, TopicConfig};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(2);

/// A broker whose `svc` topic has the given lease and attempt budget.
fn broker_with(lease: Duration, max_attempts: u32) -> Broker {
    let broker = Broker::new(BrokerConfig::default());
    broker
        .create_topic_with(
            "svc",
            TopicConfig {
                lease,
                max_attempts,
                ..TopicConfig::default()
            },
        )
        .unwrap();
    broker
}

#[test]
fn a_reply_after_the_caller_timed_out_is_dropped_and_still_settles() {
    let broker = broker_with(Duration::from_secs(30), 5);
    let client = RpcClient::connect(&broker, "svc");
    let server = RpcServer::bind(&broker, "svc");
    let handle = client.call(Bytes::from_static(b"slow")).unwrap();
    let responder = server.accept(WAIT).unwrap().expect("request queued");
    assert_eq!(
        handle.wait_timeout(Duration::from_millis(20)),
        Err(RpcError::Timeout)
    );
    // The server finishes anyway: nobody sees the reply, the delivery
    // is acknowledged.
    responder.reply(Bytes::from_static(b"too late"));
    assert_eq!(broker.in_flight("svc").unwrap(), 0);
    let stats = broker.stats("svc").unwrap();
    assert_eq!((stats.enqueued, stats.acked, stats.redelivered), (1, 1, 0));
    // The next call is not confused by the stale reply.
    let handle = client.call(Bytes::from_static(b"next")).unwrap();
    let responder = server.accept(WAIT).unwrap().expect("request queued");
    assert_eq!(&responder.payload()[..], b"next");
    responder.reply(Bytes::from_static(b"on time"));
    assert_eq!(&handle.wait_timeout(WAIT).unwrap()[..], b"on time");
}

#[test]
fn the_second_execution_of_a_redelivered_request_is_dropped() {
    let broker = broker_with(Duration::from_millis(30), 2);
    let client = RpcClient::connect(&broker, "svc");
    let server = RpcServer::bind(&broker, "svc");
    let handle = client.call(Bytes::from_static(b"x")).unwrap();
    // The first server takes the request and sits on it past every
    // renewal of its lease; the broker hands the same request (same
    // slot) to the next one.
    let first = server.accept(WAIT).unwrap().expect("first delivery");
    let second = server.accept(WAIT).unwrap().expect("redelivery");
    assert_eq!(first.info().attempts, 1);
    assert_eq!(second.info().attempts, 2);
    assert_eq!(handle.try_take(), Ok(None));
    second.reply(Bytes::from_static(b"second"));
    // The silent one was only slow, and answers too.
    first.reply(Bytes::from_static(b"first"));
    // Exactly one caller-visible reply: the one that landed first.
    assert_eq!(handle.try_take(), Ok(Some(Bytes::from_static(b"second"))));
    assert_eq!(handle.try_take(), Err(RpcError::Canceled));
    // Both deliveries settled, one message acknowledged once.
    assert_eq!(broker.in_flight("svc").unwrap(), 0);
    assert_eq!(broker.depth("svc").unwrap(), 0);
    let stats = broker.stats("svc").unwrap();
    assert_eq!((stats.enqueued, stats.acked, stats.redelivered), (1, 1, 1));
    assert_eq!(stats.outstanding(), 0);
}

#[test]
fn wedged_responders_lose_the_request_to_the_dead_letter_queue() {
    let broker = broker_with(Duration::from_millis(20), 2);
    let client = RpcClient::connect(&broker, "svc");
    let server = RpcServer::bind(&broker, "svc");
    let handle = client.call(Bytes::from_static(b"x")).unwrap();
    // Every server that takes the request hangs with its responder
    // alive — an inline handler that never returns. Renewal is bounded,
    // so the request is redelivered, then dead-lettered: never held in
    // flight forever.
    let first = server.accept(WAIT).unwrap().expect("first delivery");
    let second = server.accept(WAIT).unwrap().expect("redelivery");
    let deadline = std::time::Instant::now() + WAIT;
    while broker.stats("svc").unwrap().dead_lettered == 0 {
        assert!(std::time::Instant::now() < deadline, "never dead-lettered");
        assert!(server.accept(Duration::from_millis(20)).unwrap().is_none());
    }
    assert_eq!(broker.in_flight("svc").unwrap(), 0);
    assert_eq!(broker.depth("svc").unwrap(), 0);
    assert_eq!(broker.take_dead_letters("svc").unwrap().len(), 1);
    // A caller still waiting gets the first answer that comes after
    // all, and only that one.
    assert_eq!(handle.try_take(), Ok(None));
    second.reply(Bytes::from_static(b"second"));
    first.reply(Bytes::from_static(b"first"));
    assert_eq!(&handle.wait_timeout(WAIT).unwrap()[..], b"second");
    let stats = broker.stats("svc").unwrap();
    assert_eq!(
        (stats.acked, stats.redelivered, stats.dead_lettered),
        (0, 1, 1)
    );
}

#[test]
fn a_live_responder_keeps_its_lease_and_a_dropped_one_gives_it_up() {
    let broker = broker_with(Duration::from_millis(40), 5);
    let client = RpcClient::connect(&broker, "svc");
    let server = RpcServer::bind(&broker, "svc");
    let handle = client.call(Bytes::from_static(b"x")).unwrap();
    // Work in progress is not redelivered on top of itself, however
    // many lease periods it takes…
    let working = server.accept(WAIT).unwrap().expect("first delivery");
    assert!(server.accept(Duration::from_millis(150)).unwrap().is_none());
    assert_eq!(broker.stats("svc").unwrap().redelivered, 0);
    // …but a server that goes away without answering loses the request
    // to the next one.
    drop(working);
    let survivor = server.accept(WAIT).unwrap().expect("redelivery");
    assert_eq!(survivor.info().attempts, 2);
    survivor.reply(Bytes::from_static(b"recovered"));
    assert_eq!(&handle.wait().unwrap()[..], b"recovered");
    assert_eq!(broker.in_flight("svc").unwrap(), 0);
    assert_eq!(broker.topics(), vec!["svc".to_string()]);
}
