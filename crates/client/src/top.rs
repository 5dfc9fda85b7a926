//! `dlhub top`: a live terminal dashboard over the telemetry
//! time-series store — req/s, latency percentiles, queue depth, memo
//! hit ratio and firing SLOs, each with a sparkline of recent history.
//!
//! Rendering is plain ANSI: every frame is a full string and the
//! follow loop repaints by emitting cursor-home + clear-to-end, so it
//! works in any terminal and diff-cleanly in tests.

use dlhub_core::obs::{MetricsSnapshot, SeriesStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Bar glyphs from empty to full eighth-blocks.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Width of every sparkline in the dashboard.
const SPARK_WIDTH: usize = 24;

/// Render `values` as a fixed-width sparkline, scaling to the series
/// max; an empty or all-zero series renders all-baseline bars.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return SPARKS[0].to_string().repeat(width);
    }
    // Tail-fit: the newest `width` values, padded left when short.
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    let mut out = String::with_capacity(width * 3);
    for _ in 0..width.saturating_sub(tail.len()) {
        out.push(SPARKS[0]);
    }
    for v in &tail {
        let idx = if max > 0.0 {
            (((v / max) * 7.0).round() as usize).min(7)
        } else {
            0
        };
        out.push(SPARKS[idx]);
    }
    out
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(v) if v >= 100.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.1}"),
        None => "-".into(),
    }
}

fn fmt_ns(ns: Option<u64>) -> String {
    match ns {
        None => "-".into(),
        Some(ns) if ns >= 1_000_000_000 => format!("{:.2}s", ns as f64 / 1e9),
        Some(ns) if ns >= 1_000_000 => format!("{:.1}ms", ns as f64 / 1e6),
        Some(ns) if ns >= 1_000 => format!("{:.1}us", ns as f64 / 1e3),
        Some(ns) => format!("{ns}ns"),
    }
}

fn values(points: &[(u64, f64)]) -> Vec<f64> {
    points.iter().map(|&(_, v)| v).collect()
}

/// Servable ids present in the store (from `servable.<id>.<field>`
/// series names; ids may themselves contain dots, so split from the
/// last separator).
fn servables_in(store: &SeriesStore) -> Vec<String> {
    let mut out = BTreeSet::new();
    for name in store.series_names() {
        if let Some(rest) = name.strip_prefix("servable.") {
            if let Some(idx) = rest.rfind('.') {
                out.insert(rest[..idx].to_string());
            }
        }
    }
    out.into_iter().collect()
}

/// Render one dashboard frame over the trailing `window`.
pub fn render_frame(
    store: &Arc<SeriesStore>,
    snapshot: &MetricsSnapshot,
    window: Duration,
) -> String {
    let mut out = String::new();
    let covered = store.base_step().as_secs_f64() * store.samples_taken() as f64;
    out.push_str(&format!(
        "dlhub top — window {}s · step {:?} · {} passes ({:.0}s covered)\n",
        window.as_secs(),
        store.base_step(),
        store.samples_taken(),
        covered,
    ));

    // Servable table: req/s, latency percentiles, errors, history.
    let servables = servables_in(store);
    if servables.is_empty() {
        out.push_str("\n  (no servable traffic sampled yet)\n");
    } else {
        out.push_str(&format!(
            "\n  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
            "SERVABLE", "REQ/S", "P50", "P99", "ERR/S", "HISTORY"
        ));
        for servable in &servables {
            let req = format!("servable.{servable}.requests");
            let lat = format!("servable.{servable}.request_latency_ns");
            let err = format!("servable.{servable}.errors");
            let hist = store.histogram_window(&lat, window);
            out.push_str(&format!(
                "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
                servable,
                fmt_rate(store.rate(&req, window)),
                fmt_ns(hist.as_ref().and_then(|h| h.quantile(0.5))),
                fmt_ns(hist.as_ref().and_then(|h| h.quantile(0.99))),
                fmt_rate(store.rate(&err, window)),
                sparkline(&values(&store.points(&req, window)), SPARK_WIDTH),
            ));
        }
    }

    // Queue / pool pressure.
    out.push_str("\n  QUEUES\n");
    let depth = store.gauge_window("async_queue_depth", window);
    let active = store.gauge_window("async_pool_active", window);
    let wait = store.histogram_window("broker_queue_wait_ns", window);
    out.push_str(&format!(
        "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
        "async queue depth",
        depth
            .map(|d| format!("{:.0}", d.last))
            .unwrap_or("-".into()),
        depth
            .map(|d| format!("avg {:.1}", d.avg))
            .unwrap_or("-".into()),
        depth
            .map(|d| format!("max {:.0}", d.max))
            .unwrap_or("-".into()),
        "",
        sparkline(
            &values(&store.points("async_queue_depth", window)),
            SPARK_WIDTH
        ),
    ));
    out.push_str(&format!(
        "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
        "pool active",
        active
            .map(|d| format!("{:.0}", d.last))
            .unwrap_or("-".into()),
        active
            .map(|d| format!("avg {:.1}", d.avg))
            .unwrap_or("-".into()),
        active
            .map(|d| format!("max {:.0}", d.max))
            .unwrap_or("-".into()),
        "",
        sparkline(
            &values(&store.points("async_pool_active", window)),
            SPARK_WIDTH
        ),
    ));
    out.push_str(&format!(
        "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
        "broker queue wait",
        wait.as_ref()
            .map(|w| format!("{}", w.count))
            .unwrap_or("-".into()),
        fmt_ns(wait.as_ref().and_then(|w| w.quantile(0.5))),
        fmt_ns(wait.as_ref().and_then(|w| w.quantile(0.99))),
        "",
        sparkline(
            &values(&store.points("broker_queue_wait_ns", window)),
            SPARK_WIDTH
        ),
    ));

    // Memo hit ratio over the window (rate-based, not lifetime).
    let hits = store.rate("memo_hits_total", window);
    let misses = store.rate("memo_misses_total", window);
    let ratio = match (hits, misses) {
        (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
        _ => None,
    };
    out.push_str(&format!(
        "\n  MEMO  hit ratio {}  hits/s {}  rejected/s {}  {}\n",
        ratio
            .map(|r| format!("{:.0}%", r * 100.0))
            .unwrap_or("-".into()),
        fmt_rate(hits),
        fmt_rate(store.rate("memo_rejected_total", window)),
        sparkline(
            &values(&store.points("memo_hits_total", window)),
            SPARK_WIDTH
        ),
    ));

    // Admission: admit/shed rates so overload (and who is being
    // turned away) is visible live, with the shed history sparkline.
    let admits = store.rate("requests_admitted_total", window);
    let sheds = store.rate("requests_shed_total", window);
    if admits.is_some() || sheds.is_some() {
        out.push_str(&format!(
            "\n  ADMISSION  admit/s {}  shed/s {}  {}\n",
            fmt_rate(admits),
            fmt_rate(sheds),
            sparkline(
                &values(&store.points("requests_shed_total", window)),
                SPARK_WIDTH
            ),
        ));
    } else {
        out.push_str("\n  ADMISSION  (admission control disabled)\n");
    }

    // SLOs: live alert state plus sampled burn-rate history.
    if snapshot.slos.is_empty() {
        out.push_str("\n  SLO   (none registered)\n");
    } else {
        out.push_str("\n  SLO\n");
        for slo in &snapshot.slos {
            let burn = format!("slo.{}.burn_fast", slo.servable);
            let state = if slo.firing { "FIRING" } else { "ok" };
            let fast = slo.latency_burn_fast.max(slo.availability_burn_fast);
            out.push_str(&format!(
                "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
                slo.servable,
                state,
                format!("burn {fast:.2}"),
                format!("fired {}", slo.alerts_fired),
                "",
                sparkline(&values(&store.points(&burn, window)), SPARK_WIDTH),
            ));
        }
    }
    out
}

/// ANSI prefix that repaints in place: cursor home + clear to end.
pub const REFRESH_PREFIX: &str = "\x1b[H\x1b[2J";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max_and_pads_short_series() {
        let s = sparkline(&[0.0, 5.0, 10.0], 6);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 6);
        assert_eq!(chars[0], SPARKS[0], "left padding");
        assert_eq!(chars[5], SPARKS[7], "max scales to full block");
        assert_eq!(chars[4], SPARKS[4], "half scales to middle");
        // All-zero and empty series stay at the baseline glyph.
        assert!(sparkline(&[], 4).chars().all(|c| c == SPARKS[0]));
        assert!(sparkline(&[0.0, 0.0], 4).chars().all(|c| c == SPARKS[0]));
    }

    #[test]
    fn admission_row_shows_admit_and_shed_rates() {
        use std::time::Duration;
        const S: u64 = 1_000_000_000;
        let store = Arc::new(SeriesStore::new(Duration::from_secs(1)));
        for step in 0..10u64 {
            store.record_counter("requests_admitted_total", step * S, step * 50);
            store.record_counter("requests_shed_total", step * S, step * 5);
            store.note_pass(step * S);
        }
        let frame = render_frame(&store, &MetricsSnapshot::default(), Duration::from_secs(8));
        assert!(frame.contains("ADMISSION"), "{frame}");
        assert!(frame.contains("admit/s 50.0"), "{frame}");
        assert!(frame.contains("shed/s 5.0"), "{frame}");

        // Hubs without admission control degrade gracefully.
        let empty = Arc::new(SeriesStore::new(Duration::from_secs(1)));
        let frame = render_frame(&empty, &MetricsSnapshot::default(), Duration::from_secs(8));
        assert!(frame.contains("admission control disabled"), "{frame}");
    }

    #[test]
    fn sparkline_keeps_only_the_newest_width_values() {
        let many: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = sparkline(&many, 8);
        assert_eq!(s.chars().count(), 8);
        // Newest values dominate: the last glyph is the max.
        assert_eq!(s.chars().last().unwrap(), SPARKS[7]);
    }
}
