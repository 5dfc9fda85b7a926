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
//! count. The hit/miss/eviction/rejection counters (registry
//! instruments, resolved once at construction) and the byte/entry
//! gauges are relaxed atomics, so [`MemoCache::stats`],
//! [`MemoCache::len`] and [`MemoCache::bytes`] never take a lock and
//! never stall the hot path.
//!
//! # What is worth keeping
//!
//! Eviction is LRU, behind frequency admission (TinyLFU's rule,
//! arXiv 1512.00727). Every [`MemoCache::get`] records its key in one
//! count-min sketch, aged by halving. A [`MemoCache::put`] of a
//! non-resident key into a full cache compares the key's estimate with
//! the global LRU victim's and is refused ([`MemoStats::rejected`])
//! when it is *lower*: an input seen once does not push out one that
//! keeps coming back. Ties admit, so a cache that has answered no
//! lookups — every estimate zero — is exactly an LRU. The sketch is
//! advisory: it decides which keys are resident, never what a hit
//! returns, so its counters are read and written with plain relaxed
//! loads and stores and a lost increment under a race costs nothing
//! but a slightly lower estimate.
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
use dlhub_fault::FaultHandle;
use dlhub_obs::{Counter, Obs, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independently locked shards (power of two).
const SHARD_COUNT: usize = 16;

/// Sentinel index for the intrusive recency list.
const NIL: usize = usize::MAX;

/// Counters per sketch row (power of two).
const SKETCH_WIDTH: usize = 4096;

/// Sketch rows; a key's estimate is the least of its one counter in
/// each. Each row takes its own 32 bits of the 128-bit content hash.
const SKETCH_DEPTH: usize = 4;

/// Where a sketch counter saturates.
const SKETCH_CAP: u8 = 15;

/// The sketch halves every `SKETCH_PERIOD_FACTOR × entries` records,
/// so how long a burst is remembered scales with how many keys the
/// cache holds (TinyLFU's sample size), and never more often than
/// every `SKETCH_WIDTH`: a halving then costs a record no more than
/// its own `SKETCH_DEPTH` stores.
const SKETCH_PERIOD_FACTOR: usize = 32;

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
    /// Puts refused admission: the cache was full and the key had been
    /// looked up less often than the entry it would have evicted.
    pub rejected: u64,
}

/// Approximate lookup frequency per key: a count-min sketch of
/// saturating one-byte counters (`SKETCH_DEPTH × SKETCH_WIDTH` = 16 KB
/// whatever the cache holds), aged by halving. Keyed by the input hash
/// alone, so one input sent to two servables shares its counters.
/// Advisory (see the module doc): a counter is a relaxed load and a
/// relaxed store, never a read-modify-write, so a racing increment or
/// halving may be lost.
struct Sketch {
    counters: Box<[AtomicU8]>,
    /// Records since the last halving.
    records: AtomicUsize,
}

impl Sketch {
    fn new() -> Self {
        Sketch {
            counters: (0..SKETCH_DEPTH * SKETCH_WIDTH)
                .map(|_| AtomicU8::new(0))
                .collect(),
            records: AtomicUsize::new(0),
        }
    }

    /// The key's counter in each row.
    fn cells(&self, hash: (u64, u64)) -> impl Iterator<Item = &AtomicU8> {
        [hash.0, hash.0 >> 32, hash.1, hash.1 >> 32]
            .into_iter()
            .enumerate()
            .map(|(row, word)| {
                &self.counters[row * SKETCH_WIDTH + (word as usize & (SKETCH_WIDTH - 1))]
            })
    }

    /// Count one lookup of `hash`; `entries` sets the halving period.
    fn record(&self, hash: (u64, u64), entries: usize) {
        for cell in self.cells(hash) {
            let count = cell.load(Ordering::Relaxed);
            if count < SKETCH_CAP {
                cell.store(count + 1, Ordering::Relaxed);
            }
        }
        let period = (SKETCH_PERIOD_FACTOR * entries).max(SKETCH_WIDTH);
        if self.records.fetch_add(1, Ordering::Relaxed) + 1 >= period
            && self.records.swap(0, Ordering::Relaxed) >= period
        {
            for cell in self.counters.iter() {
                cell.store(cell.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
            }
        }
    }

    fn estimate(&self, hash: (u64, u64)) -> u8 {
        self.cells(hash)
            .map(|cell| cell.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }
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
        let slot = &mut self.slots[idx];
        self.index.remove(&slot.key);
        // Drop the payload eagerly; the slot is recycled.
        slot.output = Value::Null;
        self.free.push(idx);
        std::mem::take(&mut slot.size)
    }
}

/// A sharded memo cache with a global byte budget: LRU eviction behind
/// frequency admission.
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    capacity_bytes: usize,
    bytes: AtomicUsize,
    entries: AtomicUsize,
    /// Logical clock ordering recency across shards.
    clock: AtomicU64,
    // What [`MemoStats`] reports: the registry's own counters, each
    // event counted once.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    rejected: Arc<Counter>,
    /// Every eviction is recorded as a `memo_evict` event carrying the
    /// evicted servable.
    tracer: Tracer,
    sketch: Sketch,
    /// Invalidations so far; see [`Self::generation`].
    generation: AtomicU64,
    faults: FaultHandle,
}

impl MemoCache {
    /// A cache on its own, bounded to `capacity_bytes` of stored
    /// outputs: [`MemoCache::wired`] counting into an [`Obs`] nobody
    /// else reads, with fault injection disabled.
    pub fn new(capacity_bytes: usize) -> Self {
        MemoCache::wired(capacity_bytes, &Obs::new(), FaultHandle::default())
    }

    /// Create a cache bounded to `capacity_bytes` inside a deployment.
    /// Hits, misses, evictions and refused puts are counted in `obs`'s
    /// registry (`memo_hits_total`, `memo_misses_total`,
    /// `memo_evictions_total`, `memo_rejected_total`) and nowhere else.
    /// `faults` is consulted on every lookup and insert: `Slow`/`Hang`
    /// at [`dlhub_fault::site::MEMO_GET`] delay the lookup, any other
    /// kind forces a miss; any fault at [`dlhub_fault::site::MEMO_PUT`]
    /// silently skips the insert. The cache degrades — it never fails a
    /// request.
    pub fn wired(capacity_bytes: usize, obs: &Obs, faults: FaultHandle) -> Self {
        let metrics = &obs.metrics;
        MemoCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_bytes,
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: metrics
                .counter_with_help("memo_hits_total", "Memo-cache lookups answered from cache"),
            misses: metrics
                .counter_with_help("memo_misses_total", "Memo-cache lookups that fell through"),
            evictions: metrics.counter_with_help(
                "memo_evictions_total",
                "Memo-cache entries evicted to stay within the byte budget",
            ),
            rejected: metrics.counter_with_help(
                "memo_rejected_total",
                "Memo-cache puts refused: looked up less often than the entry they would evict",
            ),
            tracer: obs.tracer.clone(),
            sketch: Sketch::new(),
            generation: AtomicU64::new(0),
            faults,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up a cached output.
    pub fn get(&self, key: &MemoKey) -> Option<Value> {
        self.sketch
            .record(key.input_hash, self.entries.load(Ordering::Relaxed));
        if let Some(fault) = self.faults.decide(dlhub_fault::site::MEMO_GET) {
            match fault.kind {
                dlhub_fault::FaultKind::Slow | dlhub_fault::FaultKind::Hang => {
                    // A stalled lookup: the caller blocks here while
                    // eviction and other lookups race on.
                    std::thread::sleep(fault.delay);
                }
                _ => {
                    // A failed lookup degrades to a miss.
                    self.misses.inc();
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
                self.hits.inc();
                Some(out)
            }
            None => {
                drop(shard);
                self.misses.inc();
                None
            }
        }
    }

    /// Insert an output, evicting least-recently-used entries if the
    /// byte budget would be exceeded. Outputs larger than the whole
    /// budget are not cached, and a new key that would evict an entry
    /// looked up more often than itself is refused (module doc).
    pub fn put(&self, key: MemoKey, output: Value) {
        self.put_since(self.generation(), key, output)
    }

    /// How many invalidations this cache has seen. A caller that
    /// computes an output outside the cache reads this *before* its
    /// [`Self::get`] and hands it to [`Self::put_since`], so an output
    /// computed across an [`Self::invalidate_servable`] is not
    /// re-inserted behind it.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// [`Self::put`], dropped if anything was invalidated since the
    /// caller read `generation`: the output may predate a republish.
    pub(crate) fn put_since(&self, generation: u64, key: MemoKey, output: Value) {
        if self.faults.decide(dlhub_fault::site::MEMO_PUT).is_some() {
            // A lost insert: the next identical request misses.
            return;
        }
        let size = output.approx_size();
        if size > self.capacity_bytes {
            return;
        }
        // Admission, decided only when a new key would force an
        // eviction. The victim peeked here is the one `trim` evicts.
        let mut victim = None;
        if self.bytes.load(Ordering::Relaxed) + size > self.capacity_bytes
            && !self.shards[key.shard()].lock().index.contains_key(&key)
        {
            victim = self.victim();
            if victim.is_some_and(|(_, resident)| {
                self.sketch.estimate(key.input_hash) < self.sketch.estimate(resident)
            }) {
                self.rejected.inc();
                return;
            }
        }
        let now = self.tick();
        {
            let mut shard = self.shards[key.shard()].lock();
            // `invalidate_servable` bumps the generation before it
            // takes any shard lock: seen unmoved under this lock, its
            // walk of this shard is still to come and will remove what
            // is inserted here.
            if self.generation.load(Ordering::SeqCst) != generation {
                return;
            }
            if let Some(idx) = shard.index.get(&key).copied() {
                let old = shard.remove(idx);
                self.bytes.fetch_sub(old, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
            shard.insert(key, output, size, now);
            self.bytes.fetch_add(size, Ordering::Relaxed);
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.trim(victim.map(|(shard, _)| shard));
    }

    /// The globally least recently used entry — the next eviction — as
    /// its shard and input hash. Peeks one slot per shard (O(shards),
    /// independent of entry count), one lock at a time, never nested.
    fn victim(&self) -> Option<(usize, (u64, u64))> {
        let mut oldest: Option<(u64, usize, (u64, u64))> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            if shard.head != NIL {
                let head = &shard.slots[shard.head];
                if oldest.is_none_or(|(ts, ..)| head.last_used < ts) {
                    oldest = Some((head.last_used, i, head.key.input_hash));
                }
            }
        }
        oldest.map(|(_, i, hash)| (i, hash))
    }

    /// Evict globally-oldest entries until the byte budget holds,
    /// starting in shard `first` if the caller has already peeked.
    fn trim(&self, mut first: Option<usize>) {
        while self.bytes.load(Ordering::Relaxed) > self.capacity_bytes {
            let Some(i) = first.take().or_else(|| self.victim().map(|(i, _)| i)) else {
                break;
            };
            let mut shard = self.shards[i].lock();
            // The head may have moved since the peek; evicting
            // whatever is oldest in this shard now keeps the
            // policy approximately LRU without re-scanning.
            if shard.head == NIL {
                continue;
            }
            let idx = shard.head;
            let size = shard.remove(idx);
            // The freed slot's key is dead until `insert` overwrites it.
            let servable = std::mem::take(&mut shard.slots[idx].key.servable);
            drop(shard);
            self.bytes.fetch_sub(size, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.evictions.inc();
            self.tracer
                .event(None, "memo_evict", vec![("servable", servable)]);
        }
    }

    /// Current counters. Lock-free: reads four relaxed atomics.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            rejected: self.rejected.get(),
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
        self.generation.fetch_add(1, Ordering::SeqCst);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        let obs = Obs::new();
        let c = MemoCache::wired(100, &obs, FaultHandle::default());
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
        // The eviction is also a tracer event naming the servable.
        let events = obs.tracer.export(None);
        let evicts = events.named("memo_evict");
        assert_eq!(evicts.len(), 1);
        assert_eq!(evicts[0].attr("servable"), Some("m"));
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
    fn admission_keeps_the_popular_head_of_a_zipf_stream() {
        // The shape of the repo benchmark's `cifar-memo-zipf`: seeded
        // Zipf(1.1) draws over 1,024 inputs, put on miss, room for an
        // eighth of them. Plain LRU reads 0.707 and ~286 evictions per
        // 1,000 lookups here — every miss evicts, and inputs seen once
        // push out the ones that keep coming back. The best static
        // resident set hits 0.79.
        let (keys, resident, lookups) = (1024, 128, 20_000u64);
        let mut cdf: Vec<f64> = (1..=keys)
            .scan(0.0, |sum, rank| {
                *sum += (rank as f64).powf(-1.1);
                Some(*sum)
            })
            .collect();
        let total = cdf[keys - 1];
        cdf.iter_mut().for_each(|c| *c /= total);
        let mut rng = StdRng::seed_from_u64(7);
        let output = Value::Bytes(vec![0; 40]);
        let c = MemoCache::new(resident * output.approx_size());
        for _ in 0..lookups {
            let u: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c <= u);
            let key = MemoKey::new("m", &Value::Int(rank as i64));
            if c.get(&key).is_none() {
                c.put(key, output.clone());
            }
        }
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        let hit_ratio = stats.hits as f64 / lookups as f64;
        let evictions_per_kop = stats.evictions as f64 * 1e3 / lookups as f64;
        assert!(hit_ratio >= 0.74, "hit ratio {hit_ratio:.3}");
        assert!(
            evictions_per_kop < 100.0,
            "{evictions_per_kop:.0} evictions per 1,000 lookups"
        );
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
        // Roomy: nothing is ever evicted. Tight: two or three entries
        // fit (the invalidations keep the cache nearly empty), so the
        // storm also runs through admission and eviction.
        for budget in [64 * 1024, 256] {
            let c = Arc::new(MemoCache::new(budget));
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
            assert_eq!(
                stats.rejected > 0,
                budget < 64 * 1024,
                "admission refuses only when the budget is tight: {stats:?}"
            );
            assert!(c.bytes() <= budget, "byte budget violated: {}", c.bytes());
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
        let c = Arc::new(MemoCache::wired(4 * 1024, &Obs::new(), faults.clone()));
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
