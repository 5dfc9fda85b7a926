#![warn(missing_docs)]

//! # dlhub-queue
//!
//! A ZeroMQ-like, in-process reliable message broker.
//!
//! The DLHub paper (§IV-A) dispatches serving tasks from the Management
//! Service to registered Task Managers over a ZeroMQ queue that
//! "provides a reliable messaging model that ensures tasks are received
//! and executed". This crate rebuilds that substrate natively:
//!
//! * **Topics** — named FIFO queues, many producers / many consumers.
//! * **At-least-once delivery** — a consumer *leases* a message; the
//!   message is redelivered if the lease expires or the consumer
//!   negatively acknowledges it, and dropped to a dead-letter queue
//!   after a configurable number of attempts.
//! * **Request/reply** — the RPC pattern the Management Service uses:
//!   a request is posted to a topic carrying a one-shot reply slot,
//!   and whichever thread finishes the work fills the slot and wakes
//!   the requester — a ZeroMQ `REQ`/`REP` pair, without a reply topic.
//! * **Backpressure** — topics may be bounded; `send` blocks (or fails,
//!   with `try_send`) when a topic is full.
//!
//! Everything is thread-safe; topic storage is a hash-sharded MPMC
//! ring ([`shard::ShardedRing`]) so producers and consumers hit
//! independent segment locks, with condvar parking only on the idle
//! paths. There is no global registry, a [`Broker`] is an ordinary
//! value shared via `Arc`.
//!
//! ```
//! use dlhub_queue::{Broker, BrokerConfig};
//! use bytes::Bytes;
//!
//! let broker = Broker::new(BrokerConfig::default());
//! broker.create_topic("tasks").unwrap();
//! broker.send("tasks", Bytes::from_static(b"hello")).unwrap();
//! let delivery = broker.recv("tasks").unwrap();
//! assert_eq!(&delivery.message.payload[..], b"hello");
//! delivery.ack();
//! ```

pub mod broker;
pub mod message;
pub mod rpc;
pub mod shard;
pub mod stats;

pub use broker::{Broker, BrokerConfig, Delivery, QueueError, TopicConfig};
pub use message::{Message, MessageId};
pub use rpc::{ReplyHandle, RequestInfo, Responder, RpcClient, RpcError, RpcServer};
pub use stats::TopicStats;

// Re-export the fault-injection vocabulary so consumers build the
// schedule [`Broker::wired`] takes without a separate dependency.
pub use dlhub_fault as fault;
