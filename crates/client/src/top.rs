//! `dlhub top`: a live terminal dashboard over two registry snapshots
//! — req/s, latency percentiles, queue wait, memo hit ratio, admission
//! and firing SLOs. Each frame is the delta between this frame's
//! `Obs::snapshot()` and the previous one
//! ([`MetricsSnapshot::delta_since`]) over the measured time between
//! them; the follow loop keeps each row's sparkline history itself, at
//! most `SPARK_WIDTH` frames.
//!
//! Rendering is plain ANSI: every frame is a full string and the
//! follow loop repaints by emitting cursor-home + clear-to-end, so it
//! works in any terminal and diff-cleanly in tests.

use dlhub_core::obs::{HistogramSnapshot, MetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Bar glyphs from empty to full eighth-blocks.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Width of every sparkline in the dashboard, and the frames of
/// history each one keeps.
const SPARK_WIDTH: usize = 24;

/// Time between the two snapshots a frame compares, unless
/// `--interval-ms` says otherwise.
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

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

fn find<'a, T>(pairs: &'a [(String, T)], name: &str) -> Option<&'a T> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// Each row's newest `SPARK_WIDTH` frame values, oldest first: the
/// sparkline history the follow loop carries from frame to frame.
#[derive(Debug, Default)]
pub struct History {
    rows: BTreeMap<String, VecDeque<f64>>,
}

impl History {
    /// Append this frame's `value` to `row` and render its sparkline.
    fn spark(&mut self, row: &str, value: f64) -> String {
        let values = self.rows.entry(row.to_string()).or_default();
        if values.len() == SPARK_WIDTH {
            values.pop_front();
        }
        values.push_back(value);
        sparkline(values.make_contiguous(), SPARK_WIDTH)
    }
}

/// Render one dashboard frame: the activity between `previous` and
/// `current`, taken `elapsed` apart, with each row's value appended to
/// `history`.
pub fn render_frame(
    previous: &MetricsSnapshot,
    current: &MetricsSnapshot,
    elapsed: Duration,
    history: &mut History,
) -> String {
    let delta = current.delta_since(previous);
    let secs = elapsed.as_secs_f64();
    let per_s = |n: u64| (secs > 0.0).then(|| n as f64 / secs);
    let counter_rate = |name: &str| find(&delta.counters, name).and_then(|&n| per_s(n));
    let mut out = format!("dlhub top — {secs:.2}s between snapshots\n");

    // Servable table: req/s, latency percentiles, errors, history.
    if delta.servables.is_empty() {
        out.push_str("\n  (no servable traffic yet)\n");
    } else {
        out.push_str(&format!(
            "\n  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
            "SERVABLE", "REQ/S", "P50", "P99", "ERR/S", "HISTORY"
        ));
        for (servable, s) in &delta.servables {
            let rate = per_s(s.requests);
            out.push_str(&format!(
                "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
                servable,
                fmt_rate(rate),
                fmt_ns(s.request_latency.quantile(0.5)),
                fmt_ns(s.request_latency.quantile(0.99)),
                fmt_rate(per_s(s.errors)),
                history.spark(&format!("servable {servable}"), rate.unwrap_or(0.0)),
            ));
        }
    }

    // Queue / pool pressure: gauges are levels, so they read the
    // current snapshot; waits are the interval's.
    out.push_str("\n  QUEUES\n");
    for (label, gauge) in [
        ("async queue depth", "async_queue_depth"),
        ("pool active", "async_pool_active"),
    ] {
        let level = find(&current.gauges, gauge).copied();
        out.push_str(&format!(
            "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
            label,
            level.map_or("-".into(), |v| v.to_string()),
            "",
            "",
            "",
            history.spark(label, level.unwrap_or(0) as f64),
        ));
    }
    let no_waits = HistogramSnapshot::default();
    for (label, histogram) in [
        ("broker queue wait", "broker_queue_wait_ns"),
        ("replica queue wait", "replica_queue_wait_ns"),
    ] {
        let wait = find(&delta.histograms, histogram).unwrap_or(&no_waits);
        out.push_str(&format!(
            "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
            label,
            wait.count,
            fmt_ns(wait.quantile(0.5)),
            fmt_ns(wait.quantile(0.99)),
            "",
            history.spark(label, wait.count as f64),
        ));
    }

    // Memo hit ratio over the interval, not the lifetime.
    let hits = counter_rate("memo_hits_total");
    let misses = counter_rate("memo_misses_total");
    let ratio = match (hits, misses) {
        (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
        _ => None,
    };
    out.push_str(&format!(
        "\n  MEMO  hit ratio {}  hits/s {}  rejected/s {}  {}\n",
        ratio.map_or("-".into(), |r| format!("{:.0}%", r * 100.0)),
        fmt_rate(hits),
        fmt_rate(counter_rate("memo_rejected_total")),
        history.spark("memo hits", hits.unwrap_or(0.0)),
    ));

    // Admission: admit/shed rates so overload (and who is being
    // turned away) is visible live, with the shed history sparkline.
    let admits = counter_rate("requests_admitted_total");
    let sheds = counter_rate("requests_shed_total");
    if admits.is_some() || sheds.is_some() {
        out.push_str(&format!(
            "\n  ADMISSION  admit/s {}  shed/s {}  {}\n",
            fmt_rate(admits),
            fmt_rate(sheds),
            history.spark("sheds", sheds.unwrap_or(0.0)),
        ));
    } else {
        out.push_str("\n  ADMISSION  (admission control disabled)\n");
    }

    // SLOs: live alert state plus the burn rate frame by frame.
    if current.slos.is_empty() {
        out.push_str("\n  SLO   (none registered)\n");
    } else {
        out.push_str("\n  SLO\n");
        for slo in &current.slos {
            let burn = slo.burn_fast();
            out.push_str(&format!(
                "  {:<24} {:>8} {:>9} {:>9} {:>8}  {}\n",
                slo.servable,
                if slo.firing { "FIRING" } else { "ok" },
                format!("burn {burn:.2}"),
                format!("fired {}", slo.alerts_fired),
                "",
                history.spark(&format!("slo {}", slo.servable), burn),
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
        use dlhub_core::obs::Registry;
        let registry = Registry::new();
        let before = registry.snapshot();
        registry.counter("requests_admitted_total").add(400);
        registry.counter("requests_shed_total").add(40);
        let frame = render_frame(
            &before,
            &registry.snapshot(),
            Duration::from_secs(8),
            &mut History::default(),
        );
        assert!(frame.contains("ADMISSION"), "{frame}");
        assert!(frame.contains("admit/s 50.0"), "{frame}");
        assert!(frame.contains("shed/s 5.0"), "{frame}");

        // Hubs without admission control degrade gracefully.
        let empty = MetricsSnapshot::default();
        let frame = render_frame(
            &empty,
            &empty,
            Duration::from_secs(8),
            &mut History::default(),
        );
        assert!(frame.contains("admission control disabled"), "{frame}");
    }

    #[test]
    fn follow_history_keeps_the_newest_spark_width_frames() {
        let mut history = History::default();
        let mut line = String::new();
        for frame in 0..3 * SPARK_WIDTH {
            line = history.spark("row", frame as f64);
        }
        assert_eq!(history.rows["row"].len(), SPARK_WIDTH);
        assert_eq!(history.rows["row"][0], (2 * SPARK_WIDTH) as f64);
        // Rising values: the newest frame is the full block.
        assert_eq!(line.chars().last(), Some(SPARKS[7]));
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
