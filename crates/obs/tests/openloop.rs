//! Property tests for the open-loop recorder: the corrected
//! (intended-start) latency dominates the raw service latency for
//! every request, individually and at every quantile, and the report's
//! quantiles are the exact sorted ranks of the raw samples.

use dlhub_obs::{OpenLoopRecorder, OpenLoopSample};
use proptest::prelude::*;

proptest! {
    /// For any schedule (intended <= started <= completed), the
    /// corrected latency is >= the raw service latency per request,
    /// and therefore at every recorded quantile too.
    #[test]
    fn corrected_latency_dominates_raw_service_latency(
        requests in proptest::collection::vec(
            // (intended, backlog wait, service time) — all ns offsets.
            (0u64..10_000_000_000, 0u64..500_000_000, 1u64..200_000_000),
            1..200,
        )
    ) {
        let rec = OpenLoopRecorder::new();
        for (i, &(intended, backlog, service)) in requests.iter().enumerate() {
            let sample = OpenLoopSample {
                intended_ns: intended,
                started_ns: intended + backlog,
                completed_ns: intended + backlog + service,
                trace: i as u64 + 1,
            };
            // Per-request domination.
            prop_assert!(sample.corrected_ns() >= sample.uncorrected_ns());
            prop_assert_eq!(sample.uncorrected_ns(), service);
            prop_assert_eq!(sample.corrected_ns(), backlog + service);
            rec.record(sample);
        }
        // Distribution-level domination at every reported quantile.
        let report = rec.report().unwrap();
        prop_assert!(report.corrected.p50 >= report.uncorrected.p50);
        prop_assert!(report.corrected.p99 >= report.uncorrected.p99);
        prop_assert!(report.corrected.p999 >= report.uncorrected.p999);
        prop_assert!(report.corrected.max >= report.uncorrected.max);
        prop_assert_eq!(report.corrected.count, requests.len() as u64);
    }

    /// The recorder keeps the raw samples, so for any sample set the
    /// report's quantiles are the `ceil(q·n)`-th sorted values exactly.
    #[test]
    fn report_quantiles_are_exact_ranks(
        mut values in proptest::collection::vec(1u64..100_000_000_000, 1..400),
    ) {
        let rec = OpenLoopRecorder::new();
        for &v in &values {
            rec.record(OpenLoopSample { intended_ns: 0, started_ns: 0, completed_ns: v, trace: 0 });
        }
        let got = rec.report().unwrap().corrected;
        values.sort_unstable();
        let rank = |q: f64| values[((q * values.len() as f64).ceil() as usize).max(1) - 1];
        prop_assert_eq!(
            (got.p50, got.p90, got.p99, got.p999, got.p9999),
            (rank(0.5), rank(0.9), rank(0.99), rank(0.999), rank(0.9999))
        );
        prop_assert_eq!((got.min, got.max), (values[0], *values.last().unwrap()));
    }
}
