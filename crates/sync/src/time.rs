//! The process clock.

use std::sync::OnceLock;

pub use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide epoch (the first call to this
/// function). Every span timestamp and control-pass stamp shares this
/// clock, so readings taken on different threads are directly
/// comparable.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}
