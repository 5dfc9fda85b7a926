//! Request/reply on top of the broker, mirroring ZeroMQ REQ/REP.
//!
//! The Management Service "packages up the request and posts it to a
//! ZeroMQ queue … and [results are] returned via the same queue"
//! (§IV-A). [`RpcClient`] posts requests to a service topic, each
//! carrying a one-shot reply slot; [`RpcServer`] is the consumer
//! side used by Task Managers, handing out a [`Responder`] per request
//! that fills the slot from whichever thread finishes the work.

use crate::broker::{Broker, Delivery, QueueError};
use crate::message::{Message, MessageId, ReplySlot, SlotState};
use bytes::Bytes;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RPC-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Underlying queue failure.
    Queue(QueueError),
    /// The reply did not arrive before the deadline.
    Timeout,
    /// The reply was already taken, or the wait already timed out.
    Canceled,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Queue(e) => write!(f, "queue error: {e}"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::Canceled => write!(f, "rpc canceled"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<QueueError> for RpcError {
    fn from(e: QueueError) -> Self {
        RpcError::Queue(e)
    }
}

/// Client side of the request/reply pattern.
///
/// Every call owns a reply slot that travels inside the request, so
/// many requests can be outstanding at once and the server's reply
/// wakes the caller directly — no reply topic, no pump thread.
pub struct RpcClient {
    broker: Broker,
    service_topic: String,
}

impl RpcClient {
    /// Connect a client to `service_topic`, creating the topic if
    /// needed.
    pub fn connect(broker: &Broker, service_topic: &str) -> Self {
        broker.ensure_topic(service_topic);
        RpcClient {
            broker: broker.clone(),
            service_topic: service_topic.to_string(),
        }
    }

    /// Fire a request and return a handle to await the reply.
    pub fn call(&self, payload: Bytes) -> Result<ReplyHandle, RpcError> {
        let slot = Arc::new(ReplySlot::default());
        let msg = Message::request(payload, Arc::clone(&slot));
        let id = msg.id;
        self.broker.send_message(&self.service_topic, msg)?;
        Ok(ReplyHandle { id, slot })
    }

    /// Convenience: request and block for the reply.
    pub fn call_wait(&self, payload: Bytes, timeout: Duration) -> Result<Bytes, RpcError> {
        self.call(payload)?.wait_timeout(timeout)
    }
}

/// Block on a reply slot until it is filled or `deadline` passes.
fn wait(slot: &ReplySlot, deadline: Option<Instant>) -> Result<Bytes, RpcError> {
    let mut state = slot.state.lock();
    loop {
        if let Some(reply) = take(&mut state).transpose() {
            return reply;
        }
        match deadline {
            Some(d) => {
                if slot.ready.wait_until(&mut state, d).timed_out()
                    && matches!(*state, SlotState::Waiting)
                {
                    // Closed: the reply, should it still come, is
                    // dropped by `ReplySlot::fill`.
                    *state = SlotState::Closed;
                    return Err(RpcError::Timeout);
                }
            }
            None => slot.ready.wait(&mut state),
        }
    }
}

/// Take an arrived reply out of a slot, closing it; `Ok(None)` while
/// the reply is pending.
fn take(state: &mut SlotState) -> Result<Option<Bytes>, RpcError> {
    match std::mem::replace(state, SlotState::Closed) {
        SlotState::Waiting => {
            *state = SlotState::Waiting;
            Ok(None)
        }
        SlotState::Ready(payload) => Ok(Some(payload)),
        SlotState::Closed => Err(RpcError::Canceled),
    }
}

impl fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcClient")
            .field("service_topic", &self.service_topic)
            .finish()
    }
}

/// An outstanding request; await the reply with [`ReplyHandle::wait`]
/// or [`ReplyHandle::wait_timeout`].
#[must_use = "a reply handle does nothing unless waited on"]
pub struct ReplyHandle {
    id: MessageId,
    slot: Arc<ReplySlot>,
}

impl ReplyHandle {
    /// The request's message id (DLHub's async task UUID analogue).
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// Block until the reply arrives.
    pub fn wait(self) -> Result<Bytes, RpcError> {
        wait(&self.slot, None)
    }

    /// Block until the reply arrives or `timeout` elapses. After a
    /// timeout the reply, should it still come, is dropped.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Bytes, RpcError> {
        wait(&self.slot, Some(Instant::now() + timeout))
    }

    /// Poll without blocking; `None` while the reply is pending.
    pub fn try_take(&self) -> Result<Option<Bytes>, RpcError> {
        take(&mut self.slot.state.lock())
    }
}

/// Broker-side metadata of one delivery; see [`Responder::info`].
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo {
    /// Time the message sat in the ready queue before this delivery.
    pub queue_wait: Duration,
    /// Delivery attempt number (1 for first delivery).
    pub attempts: u32,
}

/// One leased request and the means to answer it. Owned, so the reply
/// can come from another thread than the one that pulled the request.
/// While it lives the broker renews the lease, `max_attempts` times
/// per delivery, so work in progress is not redelivered on top of
/// itself but a wedged holder still loses the request. Dropped without
/// [`Responder::reply`] it is the crashed-consumer failure mode: no
/// reply, no ack, the lease expires, the request is redelivered to
/// another server.
#[must_use = "dropping a responder abandons the request to lease expiry"]
pub struct Responder {
    delivery: Delivery,
    broker: Broker,
    _attending: Option<Attending>,
}

/// Counts one live responder on the request's reply slot.
struct Attending(Arc<ReplySlot>);

impl Drop for Attending {
    fn drop(&mut self) {
        self.0.responders.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Responder {
    /// The request payload.
    pub fn payload(&self) -> &Bytes {
        &self.delivery.message.payload
    }

    /// Queue wait and attempt count of this delivery, so servers can
    /// attribute latency to the queue hop instead of re-measuring it.
    pub fn info(&self) -> RequestInfo {
        RequestInfo {
            queue_wait: self.delivery.queue_wait,
            attempts: self.delivery.message.attempts,
        }
    }

    /// Hand the reply to the waiting caller and acknowledge the
    /// delivery. A caller that already timed out, or already got its
    /// answer from another delivery of this request, never sees it.
    pub fn reply(self, payload: Bytes) {
        self.broker.reply(self.delivery, payload);
    }
}

/// Server side of the request/reply pattern.
pub struct RpcServer {
    broker: Broker,
    service_topic: String,
}

impl RpcServer {
    /// Bind a server to `service_topic`, creating the topic if needed.
    pub fn bind(broker: &Broker, service_topic: &str) -> Self {
        broker.ensure_topic(service_topic);
        RpcServer {
            broker: broker.clone(),
            service_topic: service_topic.to_string(),
        }
    }

    /// Pull one request; blocks until one arrives (`Ok(Some)`) or
    /// `timeout` elapses (`Ok(None)`).
    pub fn accept(&self, timeout: Duration) -> Result<Option<Responder>, RpcError> {
        match self.broker.recv_timeout(&self.service_topic, timeout) {
            Ok(delivery) => Ok(Some(Responder {
                _attending: delivery.message.reply.as_ref().map(|slot| {
                    slot.responders.fetch_add(1, Ordering::SeqCst);
                    Attending(Arc::clone(slot))
                }),
                delivery,
                broker: self.broker.clone(),
            })),
            Err(QueueError::Timeout) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Serve exactly one request with `handler` on this thread; blocks
    /// until one arrives or `timeout` elapses. Returns `Ok(true)` if a
    /// request was served.
    pub fn serve_one<F>(&self, timeout: Duration, handler: F) -> Result<bool, RpcError>
    where
        F: FnOnce(&Bytes) -> Bytes,
    {
        let Some(responder) = self.accept(timeout)? else {
            return Ok(false);
        };
        let reply = handler(responder.payload());
        responder.reply(reply);
        Ok(true)
    }

    /// Serve requests in a loop until the service topic closes.
    pub fn serve_forever<F>(&self, mut handler: F)
    where
        F: FnMut(&Bytes) -> Bytes,
    {
        while self
            .serve_one(Duration::from_millis(100), &mut handler)
            .is_ok()
        {}
    }
}

impl fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcServer")
            .field("service_topic", &self.service_topic)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use std::thread;

    fn echo_server(broker: &Broker, topic: &str) -> thread::JoinHandle<()> {
        let server = RpcServer::bind(broker, topic);
        thread::spawn(move || {
            server.serve_forever(|req| {
                let mut out = b"echo:".to_vec();
                out.extend_from_slice(req);
                Bytes::from(out)
            });
        })
    }

    #[test]
    fn responder_reports_queue_wait_and_attempts() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc-meta");
        let server = RpcServer::bind(&broker, "svc-meta");
        let _pending = client.call(Bytes::from_static(b"x")).unwrap();
        thread::sleep(Duration::from_millis(5));
        let responder = server
            .accept(Duration::from_secs(1))
            .unwrap()
            .expect("a request is queued");
        let info = responder.info();
        assert_eq!(info.attempts, 1);
        assert!(info.queue_wait >= Duration::from_millis(5), "{info:?}");
    }

    #[test]
    fn round_trip() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc");
        let _server = echo_server(&broker, "svc");
        let reply = client
            .call_wait(Bytes::from_static(b"hi"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(&reply[..], b"echo:hi");
        broker.close_topic("svc").unwrap();
    }

    #[test]
    fn many_outstanding_requests_route_correctly() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc");
        let _server = echo_server(&broker, "svc");
        let handles: Vec<_> = (0..50u32)
            .map(|i| {
                (
                    i,
                    client
                        .call(Bytes::from(i.to_string().into_bytes()))
                        .unwrap(),
                )
            })
            .collect();
        for (i, h) in handles {
            let reply = h.wait_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply, Bytes::from(format!("echo:{i}")));
        }
        broker.close_topic("svc").unwrap();
    }

    #[test]
    fn timeout_when_no_server() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc");
        let err = client
            .call_wait(Bytes::from_static(b"x"), Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc");
        let handle = client.call(Bytes::from_static(b"x")).unwrap();
        assert_eq!(handle.try_take().unwrap(), None);
        let _server = echo_server(&broker, "svc");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(reply) = handle.try_take().unwrap() {
                assert_eq!(&reply[..], b"echo:x");
                break;
            }
            assert!(Instant::now() < deadline, "reply never arrived");
            thread::sleep(Duration::from_millis(1));
        }
        broker.close_topic("svc").unwrap();
    }

    #[test]
    fn serve_one_returns_false_on_idle() {
        let broker = Broker::new(BrokerConfig::default());
        let server = RpcServer::bind(&broker, "svc");
        let served = server
            .serve_one(Duration::from_millis(20), |_| Bytes::new())
            .unwrap();
        assert!(!served);
    }

    #[test]
    fn multiple_servers_share_the_topic() {
        let broker = Broker::new(BrokerConfig::default());
        let client = RpcClient::connect(&broker, "svc");
        let _s1 = echo_server(&broker, "svc");
        let _s2 = echo_server(&broker, "svc");
        for i in 0..20u32 {
            let reply = client
                .call_wait(
                    Bytes::from(i.to_string().into_bytes()),
                    Duration::from_secs(2),
                )
                .unwrap();
            assert_eq!(reply, Bytes::from(format!("echo:{i}")));
        }
        broker.close_topic("svc").unwrap();
    }
}
