//! Named contention sites: who waits, where, and for how long.
//!
//! Every park/wait point in the stack — broker ring condvar parks,
//! token-semaphore claims, reserve-space waits, the RPC pending-reply
//! table, memo shard locks, read-mostly registry locks — registers a
//! named [`ContentionSite`] and reports each *actual* wait into it:
//! one [`Histogram`] of wait nanoseconds, whose count and sum are the
//! site's wait counter and total wait time.
//!
//! # Cost discipline
//!
//! Sites are only touched on the slow path: an uncontended lock or a
//! non-empty queue never records anything (callers use `try_lock` /
//! fast-path checks and only time the wait once they are actually
//! about to block). Instruments are resolved once at attach time, so
//! the wait path touches plain atomics, never the registry map.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde_json::{json, Value};

use crate::metrics::{Histogram, HistogramSnapshot};

/// One named wait point. Recording a wait is [`Histogram::record`]:
/// three relaxed `fetch_add`s.
pub struct ContentionSite {
    name: String,
    wait: Histogram,
}

impl ContentionSite {
    fn new(name: &str) -> Self {
        ContentionSite {
            name: name.to_string(),
            wait: Histogram::new(),
        }
    }

    /// The site's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one wait of `waited`.
    pub fn record(&self, waited: Duration) {
        self.wait.record_duration(waited);
    }

    /// Record one wait of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.wait.record(ns);
    }

    /// Waits recorded so far.
    pub fn waits(&self) -> u64 {
        self.wait.count()
    }

    /// Point-in-time copy of the site's wait distribution.
    pub fn snapshot(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            name: self.name.clone(),
            wait: self.wait.snapshot(),
        }
    }
}

/// Point-in-time wait distribution for one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionSnapshot {
    /// Site name (`broker.ring.park:dlhub-tasks`, `memo.shard_lock`, …).
    pub name: String,
    /// Wait times in nanoseconds: `count` waits totalling `sum` ns.
    pub wait: HistogramSnapshot,
}

impl ContentionSnapshot {
    /// Mean wait in microseconds (0 when nothing waited).
    pub fn mean_us(&self) -> f64 {
        if self.wait.count == 0 {
            0.0
        } else {
            self.wait.sum as f64 / self.wait.count as f64 / 1_000.0
        }
    }

    /// JSON object for bundles and bench artifacts.
    pub fn to_json(&self) -> Value {
        json!({
            "site": self.name,
            "waits": self.wait.count,
            "wait_ns": self.wait.sum,
            "mean_us": self.mean_us(),
            "p99_ns": self.wait.quantile(0.99),
        })
    }
}

/// Registry of named contention sites for one deployment. Cheap to
/// clone; clones share state.
#[derive(Clone, Default)]
pub struct ContentionRegistry {
    sites: Arc<RwLock<BTreeMap<String, Arc<ContentionSite>>>>,
}

impl ContentionRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        ContentionRegistry::default()
    }

    /// Find or create the site named `name`. Callers resolve once at
    /// attach time and keep the `Arc`.
    pub fn site(&self, name: &str) -> Arc<ContentionSite> {
        if let Some(site) = self.sites.read().get(name) {
            return Arc::clone(site);
        }
        let mut sites = self.sites.write();
        Arc::clone(
            sites
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ContentionSite::new(name))),
        )
    }

    /// Snapshot every site, ranked by total wait time (descending).
    pub fn snapshot(&self) -> Vec<ContentionSnapshot> {
        let mut out: Vec<ContentionSnapshot> =
            self.sites.read().values().map(|s| s.snapshot()).collect();
        out.sort_by(|a, b| b.wait.sum.cmp(&a.wait.sum).then(a.name.cmp(&b.name)));
        out
    }
}

/// Render a ranked text table of contention sites for the CLI.
pub fn render_contention(sites: &[ContentionSnapshot]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>12} {:>12}\n",
        "site", "waits", "total ms", "mean us", "p99 us"
    ));
    let mut any = false;
    for site in sites {
        if site.wait.count == 0 {
            continue;
        }
        any = true;
        let p99_us = site
            .wait
            .quantile(0.99)
            .map(|ns| format!("{:.1}", ns as f64 / 1_000.0))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<44} {:>10} {:>12.3} {:>12.1} {:>12}\n",
            site.name,
            site.wait.count,
            site.wait.sum as f64 / 1_000_000.0,
            site.mean_us(),
            p99_us,
        ));
    }
    if !any {
        out.push_str("(no waits recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bucket_index;

    #[test]
    fn record_accumulates_and_buckets() {
        let reg = ContentionRegistry::new();
        let site = reg.site("broker.ring.park:t");
        site.record(Duration::from_micros(10)); // 10_000 ns -> bucket 14
        site.record(Duration::from_micros(10));
        site.record(Duration::from_millis(2)); // 2_000_000 ns -> bucket 21
        let snap = site.snapshot();
        assert_eq!(snap.wait.count, 3);
        assert_eq!(snap.wait.sum, 2_020_000);
        assert_eq!(snap.wait.buckets[bucket_index(10_000)], 2);
        assert_eq!(snap.wait.buckets[bucket_index(2_000_000)], 1);
        // Quantiles are interpolated inside the recorded sample's own
        // bucket, not pushed to the next power of two.
        let quantile_bucket = |q| bucket_index(snap.wait.quantile(q).unwrap());
        assert_eq!(quantile_bucket(0.5), bucket_index(10_000));
        assert_eq!(quantile_bucket(0.99), bucket_index(2_000_000));
        assert!(snap.mean_us() > 600.0 && snap.mean_us() < 700.0);
    }

    #[test]
    fn same_name_resolves_to_one_site_across_clones() {
        let reg = ContentionRegistry::new();
        let clone = reg.clone();
        reg.site("x").record_ns(5);
        clone.site("x").record_ns(7);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].wait.count, 2);
        assert_eq!(snap[0].wait.sum, 12);
    }

    #[test]
    fn snapshot_ranks_by_total_wait() {
        let reg = ContentionRegistry::new();
        reg.site("cheap").record_ns(10);
        reg.site("expensive").record_ns(10_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap[0].name, "expensive");
        assert_eq!(snap[1].name, "cheap");
        let table = render_contention(&snap);
        let expensive_at = table.find("expensive").unwrap();
        let cheap_at = table.find("cheap").unwrap();
        assert!(expensive_at < cheap_at, "{table}");
    }

    #[test]
    fn zero_wait_sites_are_elided_from_the_table() {
        let reg = ContentionRegistry::new();
        reg.site("registered-but-quiet");
        let table = render_contention(&reg.snapshot());
        assert!(!table.contains("registered-but-quiet"), "{table}");
        assert!(table.contains("(no waits recorded)"), "{table}");
    }
}
