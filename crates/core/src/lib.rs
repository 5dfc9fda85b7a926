#![warn(missing_docs)]

//! # dlhub-core
//!
//! The DLHub system: a multi-tenant model **repository** and **serving**
//! platform for science, after Chard et al., *DLHub: Model and Data
//! Serving for Science* (IPDPS 2019).
//!
//! The architecture follows §IV of the paper:
//!
//! * [`serving::ManagementService`] — the user-facing service: model
//!   publication (with automatic servable/container builds), search,
//!   task intake, sync/async execution, **memoization**, **batching**
//!   and multi-servable **pipelines**.
//! * [`task_manager::TaskManager`] — deployed near compute; pulls tasks
//!   from the [`dlhub_queue`] broker, routes them to executors, and
//!   reports the paper's nested timings back to the Management Service.
//! * [`executor`] — the flexible executor model: a general-purpose
//!   Parsl-like engine with per-servable replica pools, plus
//!   TensorFlow-Serving-style and SageMaker-style adapters.
//! * [`servable`] — the common execution interface every published
//!   model is converted into, with the paper's six evaluation servables
//!   built in (noop, Inception, CIFAR-10 and the three matminer
//!   stages).
//!
//! ```
//! use dlhub_core::hub::TestHub;
//! use dlhub_core::value::Value;
//!
//! // A fully wired single-process deployment for tests and examples.
//! let hub = TestHub::builder().build();
//! let out = hub
//!     .service
//!     .run(&hub.token, "dlhub/noop", Value::Null)
//!     .unwrap();
//! assert_eq!(out.value, Value::Str("hello world".into()));
//! ```

pub mod admission;
pub mod autoscale;
pub mod batch;
pub mod error;
pub mod executor;
pub mod hub;
pub mod memo;
pub mod metrics;
pub mod pipeline;
pub mod repository;
pub mod servable;
pub mod serving;
pub mod task;
pub mod task_manager;
pub mod value;

pub use error::DlhubError;
pub use servable::{Servable, ServableMetadata};
pub use value::Value;

// Re-export the compute substrates so downstream users (examples,
// benches) reach the model builders without extra dependencies.
pub use dlhub_matsci as matsci;
pub use dlhub_tensor as tensor;

// Re-export the observability layer: every handle the serving stack
// exposes (`ManagementService::obs`, trace exports, metric snapshots)
// is typed in terms of this crate.
pub use dlhub_obs as obs;

// Re-exported so integration and chaos tests configure fault plans
// without a separate dependency on the fault crate.
pub use dlhub_fault as fault;
