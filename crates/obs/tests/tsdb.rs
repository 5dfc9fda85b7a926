//! Property and integration tests for the time-series layer: the
//! merged-histogram percentile against an exact-sort oracle, ring
//! wraparound under long runs, and collector end-to-end sampling.

use std::time::Duration;

use dlhub_obs::{bucket_bound, bucket_index, Histogram, Obs, SeriesStore, Telemetry, TierSpec};
use proptest::prelude::*;

const S: u64 = 1_000_000_000;

/// Exact-sort oracle: the value at the exact rank the windowed
/// quantile targets.
fn oracle_quantile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let target = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
    Some(values[target])
}

proptest! {
    /// Feed random latency batches through cumulative ring slots, then
    /// query the window that starts after any sampled step `split`.
    /// Window merge and snapshot delta are the same function, so the
    /// merged window must equal the live histogram's snapshot `since`
    /// its snapshot at the split, field for field; and because the
    /// buckets are merged exactly (bucket-wise subtraction, no
    /// re-aggregation), the rank-interpolated windowed p50/p90/p99 must
    /// land inside the same log2 bucket as the exact rank-order value,
    /// never above the bucket's bound.
    #[test]
    fn merged_histogram_percentiles_match_exact_sort_oracle(
        batches in proptest::collection::vec(
            proptest::collection::vec(1u64..=1_000_000_000, 0..40),
            2..20,
        ),
        split in 0usize..20,
        q_idx in 0usize..3,
    ) {
        let q = [0.5f64, 0.9, 0.99][q_idx];
        let store = SeriesStore::with_tiers(vec![TierSpec {
            step: Duration::from_secs(1),
            // Never wraps within the run, so every batch stays visible.
            capacity: 64,
        }]);
        let live = Histogram::new();
        // Batches 0..=split fall outside the window.
        let split = split % (batches.len() - 1);
        let mut at_split = live.snapshot();
        let mut window_values: Vec<u64> = Vec::new();
        for (step, batch) in batches.iter().enumerate() {
            batch.iter().for_each(|&v| live.record(v));
            if step > split {
                window_values.extend(batch);
            }
            store.record_histogram("lat", step as u64 * S, &live.snapshot());
            store.note_pass(step as u64 * S);
            if step == split {
                at_split = live.snapshot();
            }
        }
        // Window spanning steps split+1..=last (inclusive boundaries),
        // leaving step `split` as the cumulative baseline.
        let window = Duration::from_secs((batches.len() - split) as u64 - 2);
        let merged = store.histogram_window("lat", window).unwrap();
        prop_assert_eq!(&merged, &live.snapshot().since(&at_split));
        prop_assert_eq!(merged.count as usize, window_values.len());
        let got = merged.quantile(q);
        let exact = oracle_quantile(&mut window_values, q);
        prop_assert_eq!(got.is_some(), exact.is_some());
        if let (Some(got), Some(exact)) = (got, exact) {
            prop_assert_eq!(
                bucket_index(got),
                bucket_index(exact),
                "q={} got={} exact={}", q, got, exact
            );
            prop_assert!(got <= bucket_bound(bucket_index(exact)));
        }
    }

    /// rate() over any window never goes negative and reset-corrected
    /// totals never exceed the raw cumulative maximum plus resets.
    #[test]
    fn rate_is_never_negative(
        values in proptest::collection::vec(0u64..=10_000, 2..50),
        window_s in 1u64..100,
    ) {
        let store = SeriesStore::with_tiers(vec![TierSpec {
            step: Duration::from_secs(1),
            capacity: 64,
        }]);
        for (step, &v) in values.iter().enumerate() {
            store.record_counter("c", step as u64 * S, v);
            store.note_pass(step as u64 * S);
        }
        if let Some(rate) = store.rate("c", Duration::from_secs(window_s)) {
            prop_assert!(rate >= 0.0, "{rate}");
        }
    }
}

#[test]
fn long_run_wraparound_preserves_recent_rates() {
    let store = SeriesStore::with_tiers(vec![
        TierSpec {
            step: Duration::from_secs(1),
            capacity: 8,
        },
        TierSpec {
            step: Duration::from_secs(10),
            capacity: 8,
        },
    ]);
    // 500 steps at 3/s: both tiers wrap many times over.
    for step in 0..500u64 {
        store.record_counter("reqs", step * S, step * 3);
        store.note_pass(step * S);
    }
    let fine = store.rate("reqs", Duration::from_secs(5)).unwrap();
    assert!((fine - 3.0).abs() < 1e-9, "{fine}");
    let coarse = store.rate("reqs", Duration::from_secs(60)).unwrap();
    // Coarse endpoints quantize to 10 s slots; rate stays within 10 %.
    assert!((coarse - 3.0).abs() < 0.3, "{coarse}");
    // Every surviving fine point is within the last 8 steps.
    let pts = store.points("reqs", Duration::from_secs(8));
    assert!(!pts.is_empty());
    assert!(pts.iter().all(|(t, _)| *t >= (500 - 8) * S), "{pts:?}");
}

#[test]
fn obs_handle_collects_end_to_end() {
    assert!(Obs::new().telemetry.store().is_none());
    let obs = Obs::with_telemetry(Telemetry::Stepped(Duration::from_secs(1)));
    obs.metrics.counter("broker_send_total").add(10);
    obs.metrics.gauge("async_queue_depth").set(4);
    obs.metrics.series("dlhub/echo").requests.add(2);
    obs.metrics
        .series("dlhub/echo")
        .request_latency
        .record(2_000_000);
    obs.telemetry.sample_now(S).unwrap();
    obs.metrics.counter("broker_send_total").add(10);
    obs.metrics.series("dlhub/echo").requests.add(6);
    obs.telemetry.sample_now(2 * S).unwrap();

    let signals = obs.telemetry.signals().unwrap();
    let w = Duration::from_secs(2);
    let arrival = signals.arrival_rate("dlhub/echo", w).unwrap();
    assert!((arrival - 6.0).abs() < 1e-9, "{arrival}");
    let depth = signals.queue_depth(w).unwrap();
    assert_eq!(depth.last, 4.0);
    let store = obs.telemetry.store().unwrap();
    let rate = store.rate("broker_send_total", w).unwrap();
    assert!((rate - 10.0).abs() < 1e-9, "{rate}");
    let lat = signals.request_latency("dlhub/echo", w).unwrap();
    assert_eq!(lat.count, 1);
    assert!(lat.quantile(0.5).unwrap() >= 2_000_000);
}
