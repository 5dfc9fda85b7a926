//! The process clock.

use std::sync::OnceLock;
use std::time::Duration;

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

/// The [`now_ns`] reading of `at`: one clock read taken as an
/// [`Instant`] times a deadline and stamps a span alike.
pub fn ns_at(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// The [`Instant`] of a [`now_ns`] reading: one clock read taken as
/// nanoseconds times a deadline alike.
pub fn instant_at(ns: u64) -> Instant {
    epoch() + Duration::from_nanos(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_converts_both_ways() {
        let ns = now_ns();
        assert_eq!(ns_at(instant_at(ns)), ns);
        let at = Instant::now();
        let there = instant_at(ns_at(at));
        assert!(there <= at && at - there < Duration::from_nanos(1));
    }
}
