//! Memoization cache (§V-B2).
//!
//! "DLHub's Parsl executor implements memoization, caching the inputs
//! and outputs for each request and returning the recorded output for
//! a new request if its inputs are in the cache." The cache is keyed
//! by `(servable id, canonical input hash)` and lives at the Task
//! Manager — which is why, unlike Clipper's cluster-side cache, a
//! DLHub hit costs ~1 ms (§V-B5).
//!
//! # Concurrency
//!
//! The cache is sharded: the key's content hash selects one of
//! [`SHARD_COUNT`] independently locked shards, so concurrent requests
//! for different keys almost never contend on a lock. Within a shard,
//! recency is an intrusive doubly-linked list threaded through a slab
//! of entries, giving O(1) touch-on-hit and O(1) eviction (no
//! full-table scans). The byte budget is global: a put that pushes the
//! cache over budget evicts the globally oldest shard head until the
//! budget holds again — an O(shards) operation, independent of entry
//! count. Hit/miss/eviction counters and the byte/entry gauges are
//! relaxed atomics, so [`MemoCache::stats`], [`MemoCache::len`] and
//! [`MemoCache::bytes`] never take a lock and never stall the hot
//! path.
//!
//! ```
//! use dlhub_core::memo::{MemoCache, MemoKey};
//! use dlhub_core::value::Value;
//!
//! let cache = MemoCache::new(1024 * 1024);
//! let key = MemoKey::new("dlhub/cifar10", &Value::Str("input".into()));
//! assert_eq!(cache.get(&key), None);
//! cache.put(key.clone(), Value::Str("cat".into()));
//! assert_eq!(cache.get(&key), Some(Value::Str("cat".into())));
//! assert_eq!(cache.stats().hits, 1);
//! ```

use crate::value::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Observability instruments, resolved once at attach time so the hot
/// path touches plain atomics — never the registry maps.
struct ObsHooks {
    hits: Arc<dlhub_obs::Counter>,
    misses: Arc<dlhub_obs::Counter>,
    evictions: Arc<dlhub_obs::Counter>,
    tracer: dlhub_obs::Tracer,
}

/// Number of independently locked shards (power of two).
const SHARD_COUNT: usize = 16;

/// Sentinel index for the intrusive recency list.
const NIL: usize = usize::MAX;

/// Cache key: servable id plus the input's 128-bit content hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    servable: String,
    input_hash: (u64, u64),
}

impl MemoKey {
    /// Build the key for `servable` applied to `input`.
    pub fn new(servable: &str, input: &Value) -> Self {
        MemoKey {
            servable: servable.to_string(),
            input_hash: input.content_hash(),
        }
    }

    /// Which shard this key lives in: the low bits of the content
    /// hash, into which its last step folds the high half.
    fn shard(&self) -> usize {
        (self.input_hash.0 as usize) & (SHARD_COUNT - 1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted under memory pressure.
    pub evictions: u64,
}

/// One cached entry, doubly linked into its shard's recency list
/// (`prev` toward LRU, `next` toward MRU).
struct Slot {
    key: MemoKey,
    output: Value,
    size: usize,
    last_used: u64,
    prev: usize,
    next: usize,
}

/// One lock's worth of the cache: an index map plus a slab of slots
/// threaded by an intrusive LRU list. All operations are O(1).
struct Shard {
    index: HashMap<MemoKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Least recently used slot (eviction candidate).
    head: usize,
    /// Most recently used slot.
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_mru(&mut self, idx: usize) {
        self.slots[idx].prev = self.tail;
        self.slots[idx].next = NIL;
        match self.tail {
            NIL => self.head = idx,
            t => self.slots[t].next = idx,
        }
        self.tail = idx;
    }

    /// Move an existing slot to the MRU end.
    fn touch(&mut self, idx: usize, now: u64) {
        self.unlink(idx);
        self.push_mru(idx);
        self.slots[idx].last_used = now;
    }

    fn insert(&mut self, key: MemoKey, output: Value, size: usize, now: u64) {
        let slot = Slot {
            key: key.clone(),
            output,
            size,
            last_used: now,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, idx);
        self.push_mru(idx);
    }

    /// Remove a slot by index, returning its byte size.
    fn remove(&mut self, idx: usize) -> usize {
        self.unlink(idx);
        let key = self.slots[idx].key.clone();
        self.index.remove(&key);
        let size = self.slots[idx].size;
        // Drop the payload eagerly; the slot is recycled.
        self.slots[idx].output = Value::Null;
        self.slots[idx].size = 0;
        self.free.push(idx);
        size
    }
}

/// A sharded, LRU-evicting memo cache with a global byte budget.
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    capacity_bytes: usize,
    bytes: AtomicUsize,
    entries: AtomicUsize,
    /// Logical clock ordering recency across shards.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    obs: Option<ObsHooks>,
    faults: dlhub_fault::FaultHandle,
}

impl MemoCache {
    /// Create a cache bounded to `capacity_bytes` of stored outputs.
    pub fn new(capacity_bytes: usize) -> Self {
        MemoCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_bytes,
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs: None,
            faults: dlhub_fault::FaultHandle::default(),
        }
    }

    /// Attach a fault-injection schedule. `Slow`/`Hang` faults at
    /// [`dlhub_fault::site::MEMO_GET`] delay the lookup, any other kind
    /// forces a miss; any fault at [`dlhub_fault::site::MEMO_PUT`]
    /// silently skips the insert. The cache degrades — it never fails a
    /// request.
    pub fn attach_faults(mut self, faults: dlhub_fault::FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Mirror this cache's counters into an observability handle:
    /// hits/misses/evictions are incremented in the registry
    /// (`memo_hits_total`, `memo_misses_total`, `memo_evictions_total`)
    /// at the same sites as the local [`MemoStats`] counters — the two
    /// always agree — and every eviction is recorded as a tracer event
    /// carrying the evicted servable.
    pub fn attach_obs(mut self, obs: &dlhub_obs::Obs) -> Self {
        self.obs = Some(ObsHooks {
            hits: obs
                .metrics
                .counter_with_help("memo_hits_total", "Memo-cache lookups answered from cache"),
            misses: obs
                .metrics
                .counter_with_help("memo_misses_total", "Memo-cache lookups that fell through"),
            evictions: obs.metrics.counter_with_help(
                "memo_evictions_total",
                "Memo-cache entries evicted to stay within the byte budget",
            ),
            tracer: obs.tracer.clone(),
        });
        self
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up a cached output.
    pub fn get(&self, key: &MemoKey) -> Option<Value> {
        if let Some(fault) = self.faults.decide(dlhub_fault::site::MEMO_GET) {
            match fault.kind {
                dlhub_fault::FaultKind::Slow | dlhub_fault::FaultKind::Hang => {
                    // A stalled lookup: the caller blocks here while
                    // eviction and other lookups race on.
                    std::thread::sleep(fault.delay);
                }
                _ => {
                    // A failed lookup degrades to a miss.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if let Some(hooks) = &self.obs {
                        hooks.misses.inc();
                    }
                    return None;
                }
            }
        }
        let now = self.tick();
        let mut shard = self.shards[key.shard()].lock();
        match shard.index.get(key).copied() {
            Some(idx) => {
                shard.touch(idx, now);
                let out = shard.slots[idx].output.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(hooks) = &self.obs {
                    hooks.hits.inc();
                }
                Some(out)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(hooks) = &self.obs {
                    hooks.misses.inc();
                }
                None
            }
        }
    }

    /// Insert an output, evicting least-recently-used entries if the
    /// byte budget would be exceeded. Outputs larger than the whole
    /// budget are not cached.
    pub fn put(&self, key: MemoKey, output: Value) {
        if self.faults.decide(dlhub_fault::site::MEMO_PUT).is_some() {
            // A lost insert: the next identical request misses.
            return;
        }
        let size = output.approx_size();
        if size > self.capacity_bytes {
            return;
        }
        let now = self.tick();
        {
            let mut shard = self.shards[key.shard()].lock();
            if let Some(idx) = shard.index.get(&key).copied() {
                let old = shard.remove(idx);
                self.bytes.fetch_sub(old, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
            shard.insert(key, output, size, now);
            self.bytes.fetch_add(size, Ordering::Relaxed);
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.trim();
    }

    /// Evict globally-oldest entries until the byte budget holds.
    /// Each round peeks one slot per shard (O(shards), independent of
    /// entry count) and pops the stalest head. Locks are taken one
    /// shard at a time, never nested.
    fn trim(&self) {
        while self.bytes.load(Ordering::Relaxed) > self.capacity_bytes {
            let mut victim: Option<(usize, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock();
                if shard.head != NIL {
                    let ts = shard.slots[shard.head].last_used;
                    if victim.is_none_or(|(_, best)| ts < best) {
                        victim = Some((i, ts));
                    }
                }
            }
            match victim {
                Some((i, _)) => {
                    let mut shard = self.shards[i].lock();
                    // The head may have moved since the peek; evicting
                    // whatever is oldest in this shard now keeps the
                    // policy approximately LRU without re-scanning.
                    if shard.head == NIL {
                        continue;
                    }
                    let idx = shard.head;
                    let servable = self
                        .obs
                        .as_ref()
                        .map(|_| shard.slots[idx].key.servable.clone());
                    let size = shard.remove(idx);
                    drop(shard);
                    self.bytes.fetch_sub(size, Ordering::Relaxed);
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if let (Some(hooks), Some(servable)) = (&self.obs, servable) {
                        hooks.evictions.inc();
                        hooks
                            .tracer
                            .event(None, "memo_evict", vec![("servable", servable)]);
                    }
                }
                None => break,
            }
        }
    }

    /// Current counters. Lock-free: reads three relaxed atomics.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Entries currently cached. Lock-free.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently stored. Lock-free.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Drop all entries for one servable (used when a servable is
    /// republished: stale outputs must not survive a version bump).
    /// Walks shards one at a time — readers of other shards are never
    /// blocked, and there is no moment the whole cache is frozen.
    pub fn invalidate_servable(&self, servable: &str) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let victims: Vec<usize> = shard
                .index
                .iter()
                .filter(|(k, _)| k.servable == servable)
                .map(|(_, idx)| *idx)
                .collect();
            for idx in victims {
                let size = shard.remove(idx);
                self.bytes.fetch_sub(size, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cache() -> MemoCache {
        MemoCache::new(10_000)
    }

    #[test]
    fn hit_after_put() {
        let c = cache();
        let key = MemoKey::new("m", &Value::Int(1));
        assert_eq!(c.get(&key), None);
        c.put(key.clone(), Value::Str("out".into()));
        assert_eq!(c.get(&key), Some(Value::Str("out".into())));
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn different_servables_do_not_collide() {
        let c = cache();
        let input = Value::Int(1);
        c.put(MemoKey::new("a", &input), Value::Str("from-a".into()));
        assert_eq!(c.get(&MemoKey::new("b", &input)), None);
    }

    #[test]
    fn equal_inputs_hit_regardless_of_identity() {
        let c = cache();
        let k1 = MemoKey::new(
            "m",
            &Value::List(vec![Value::Int(1), Value::Str("x".into())]),
        );
        let k2 = MemoKey::new(
            "m",
            &Value::List(vec![Value::Int(1), Value::Str("x".into())]),
        );
        c.put(k1, Value::Bool(true));
        assert_eq!(c.get(&k2), Some(Value::Bool(true)));
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let c = MemoCache::new(100);
        // ~40-byte entries: only 2 fit.
        let val = |i: i64| Value::Bytes(vec![i as u8; 40]);
        let k = |i: i64| MemoKey::new("m", &Value::Int(i));
        c.put(k(1), val(1));
        c.put(k(2), val(2));
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(&k(1)).is_some());
        c.put(k(3), val(3));
        assert!(c.get(&k(1)).is_some());
        assert_eq!(c.get(&k(2)), None, "LRU entry must be evicted");
        assert!(c.get(&k(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn eviction_order_is_global_across_shards() {
        // Keys land in different shards; eviction must still pick the
        // globally least-recently-used entry, not a per-shard victim.
        let entry = |i: i64| {
            (
                MemoKey::new("m", &Value::Int(i)),
                Value::Bytes(vec![0; 100]),
            )
        };
        let (k0, v0) = entry(0);
        let probe = v0.approx_size();
        // Budget for exactly 8 entries.
        let c = MemoCache::new(8 * probe);
        c.put(k0, v0);
        for i in 1..8 {
            let (k, v) = entry(i);
            c.put(k, v);
        }
        assert_eq!(c.len(), 8);
        // Refresh everything except entry 3: it becomes global LRU.
        for i in 0..8 {
            if i != 3 {
                assert!(c.get(&MemoKey::new("m", &Value::Int(i))).is_some());
            }
        }
        let (k8, v8) = entry(8);
        c.put(k8, v8);
        assert_eq!(c.get(&MemoKey::new("m", &Value::Int(3))), None);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn registry_counters_agree_with_memo_stats() {
        let obs = dlhub_obs::Obs::new();
        let c = MemoCache::new(100).attach_obs(&obs);
        let k = |i: i64| MemoKey::new("m", &Value::Int(i));
        let val = || Value::Bytes(vec![0; 40]);
        // Two entries fit; the third put must evict.
        c.put(k(1), val());
        c.put(k(2), val());
        c.put(k(3), val());
        assert!(c.get(&k(3)).is_some());
        assert!(c.get(&k(999)).is_none());
        let stats = c.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.hits, obs.metrics.counter("memo_hits_total").get());
        assert_eq!(stats.misses, obs.metrics.counter("memo_misses_total").get());
        assert_eq!(
            stats.evictions,
            obs.metrics.counter("memo_evictions_total").get()
        );
        // Each eviction was also recorded as a tracer event naming the
        // evicted servable.
        let events = obs.tracer.export(None);
        let evicts = events.named("memo_evict");
        assert_eq!(evicts.len(), stats.evictions as usize);
        assert!(evicts.iter().all(|e| e.attr("servable") == Some("m")));
    }

    #[test]
    fn oversized_outputs_are_not_cached() {
        let c = MemoCache::new(10);
        let key = MemoKey::new("m", &Value::Int(1));
        c.put(key.clone(), Value::Bytes(vec![0; 100]));
        assert_eq!(c.get(&key), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn put_same_key_replaces() {
        let c = cache();
        let key = MemoKey::new("m", &Value::Int(1));
        c.put(key.clone(), Value::Int(1));
        c.put(key.clone(), Value::Int(2));
        assert_eq!(c.get(&key), Some(Value::Int(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_servable_clears_only_its_entries() {
        let c = cache();
        c.put(MemoKey::new("a", &Value::Int(1)), Value::Int(10));
        c.put(MemoKey::new("a", &Value::Int(2)), Value::Int(20));
        c.put(MemoKey::new("b", &Value::Int(1)), Value::Int(30));
        c.invalidate_servable("a");
        assert_eq!(c.get(&MemoKey::new("a", &Value::Int(1))), None);
        assert_eq!(
            c.get(&MemoKey::new("b", &Value::Int(1))),
            Some(Value::Int(30))
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn slots_are_recycled_after_eviction() {
        let c = MemoCache::new(200);
        let k = |i: i64| MemoKey::new("m", &Value::Int(i));
        for i in 0..100 {
            c.put(k(i), Value::Bytes(vec![0; 40]));
        }
        // Only a handful fit at a time; the slabs must not have grown
        // one slot per put.
        let total_slots: usize = c.shards.iter().map(|s| s.lock().slots.len()).sum();
        assert!(total_slots <= 32, "slab leaked slots: {total_slots}");
        assert!(c.bytes() <= 200);
    }

    #[test]
    fn concurrent_get_put_invalidate_is_consistent() {
        let c = Arc::new(MemoCache::new(64 * 1024));
        let threads = 8;
        let ops = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut local_gets = 0u64;
                    for i in 0..ops {
                        let servable = format!("s{}", (t + i) % 3);
                        let key = MemoKey::new(&servable, &Value::Int((i % 97) as i64));
                        match i % 5 {
                            0 | 1 => {
                                c.put(key, Value::Bytes(vec![t as u8; 64 + i % 32]));
                            }
                            2 | 3 => {
                                let _ = c.get(&key);
                                local_gets += 1;
                            }
                            _ => c.invalidate_servable(&servable),
                        }
                    }
                    local_gets
                })
            })
            .collect();
        let total_gets: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let stats = c.stats();
        assert_eq!(
            stats.hits + stats.misses,
            total_gets,
            "every get counted once"
        );
        assert!(
            c.bytes() <= 64 * 1024,
            "byte budget violated: {}",
            c.bytes()
        );
        // The lock-free gauges must agree with the ground truth held
        // under the shard locks once the storm has quiesced.
        let (real_entries, real_bytes) = c.shards.iter().fold((0, 0), |(n, b), s| {
            let s = s.lock();
            (
                n + s.index.len(),
                b + s.index.values().map(|&i| s.slots[i].size).sum::<usize>(),
            )
        });
        assert_eq!(c.len(), real_entries);
        assert_eq!(c.bytes(), real_bytes);
    }

    #[test]
    fn eviction_races_slow_lookups_without_corruption() {
        // Injected Slow faults stall readers inside `get` (before the
        // shard lock) while writers drive an eviction storm and
        // invalidations underneath them. A stalled lookup may miss, but
        // any hit it returns must be the exact value stored for its
        // key, and the cache bookkeeping must survive the race.
        let faults = dlhub_fault::FaultPlan::seeded(42)
            .inject(
                dlhub_fault::site::MEMO_GET,
                dlhub_fault::FaultSpec::new(dlhub_fault::FaultKind::Slow)
                    .probability(0.3)
                    .delay(std::time::Duration::from_millis(1)),
            )
            .build();
        // Tiny byte budget: nearly every put evicts something.
        let c = Arc::new(MemoCache::new(4 * 1024).attach_faults(faults.clone()));
        let keyspace = 64i64;
        let value_for = |i: i64| Value::Bytes(vec![(i % 251) as u8; 96]);
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1_500i64 {
                        let k = (i * 7 + t * 3) % keyspace;
                        c.put(MemoKey::new("race", &Value::Int(k)), value_for(k));
                        if i % 97 == 0 {
                            c.invalidate_servable("race");
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..1_500i64 {
                        let k = (i * 5 + t) % keyspace;
                        if let Some(out) = c.get(&MemoKey::new("race", &Value::Int(k))) {
                            assert_eq!(out, value_for(k), "hit returned a foreign value");
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(
            faults.injected(dlhub_fault::site::MEMO_GET) > 0,
            "no slow lookup was ever injected"
        );
        assert_eq!(c.stats().hits, hits, "hit accounting diverged");
        assert!(c.stats().evictions > 0, "budget never forced an eviction");
        assert!(c.bytes() <= 4 * 1024, "byte budget violated: {}", c.bytes());
        // Gauges agree with the ground truth under the shard locks.
        let (real_entries, real_bytes) = c.shards.iter().fold((0, 0), |(n, b), s| {
            let s = s.lock();
            (
                n + s.index.len(),
                b + s.index.values().map(|&i| s.slots[i].size).sum::<usize>(),
            )
        });
        assert_eq!(c.len(), real_entries);
        assert_eq!(c.bytes(), real_bytes);
    }

    #[test]
    fn stats_never_block_during_a_put_storm() {
        let c = Arc::new(MemoCache::new(32 * 1024));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = MemoKey::new("storm", &Value::Int(i * 4 + t));
                        c.put(key, Value::Bytes(vec![0; 128]));
                        i += 1;
                    }
                })
            })
            .collect();
        // The reader must sail through a large number of metric reads
        // while the writers hold shard locks; counters only grow.
        let mut last = 0u64;
        for _ in 0..50_000 {
            let s = c.stats();
            let total = s.hits + s.misses + s.evictions;
            assert!(total >= last, "counters went backwards");
            last = total;
            let _ = c.len();
            let _ = c.bytes();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(c.bytes() <= 32 * 1024);
    }
}
