//! Property tests for the memo cache's contract, whatever its
//! admission and eviction policy decide.
//!
//! For any single-threaded sequence of `get` / `put` /
//! `invalidate_servable`:
//!
//! * a hit returns the last value put for that key since its
//!   servable's last invalidation — the policy chooses which keys are
//!   resident, never what a resident key answers;
//! * `bytes() ≤ capacity`, and `len()` / `bytes()` equal what probing
//!   every key under the shard locks finds;
//! * `hits + misses` counts every `get`;
//! * every `put` is accounted for: oversized, rejected, or resident
//!   right after (fresh or replacing), having evicted what it had to.
//!
//! And for any sequence of `put`s alone — no lookup ever recorded, so
//! every frequency estimate ties — residency equals a reference LRU's,
//! entry for entry.

use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::value::Value;
use proptest::prelude::*;
use std::collections::HashMap;

const SERVABLES: [&str; 2] = ["a", "b"];
const INPUTS: i64 = 12;
/// Room for four of the middling outputs below.
const CAPACITY: usize = 160;
/// Output sizes; the last is larger than the whole budget.
const SIZES: [usize; 5] = [8, 24, 40, 72, 200];

#[derive(Debug, Clone)]
enum Op {
    Get(usize, i64),
    Put(usize, i64, usize),
    Invalidate(usize),
}

fn key(servable: usize, input: i64) -> MemoKey {
    MemoKey::new(SERVABLES[servable], &Value::Int(input))
}

/// The `n`th put's output: `size` bytes no other put in a case shares.
fn output(n: usize, size: usize) -> Value {
    Value::Bytes(vec![n as u8; size])
}

fn op() -> impl Strategy<Value = Op> {
    let get = || (0..SERVABLES.len(), 0..INPUTS).prop_map(|(s, i)| Op::Get(s, i));
    let put =
        || (0..SERVABLES.len(), 0..INPUTS, 0..SIZES.len()).prop_map(|(s, i, z)| Op::Put(s, i, z));
    // Lookups and inserts in equal measure, an invalidation now and
    // then.
    prop_oneof![
        get(),
        get(),
        get(),
        put(),
        put(),
        put(),
        (0..SERVABLES.len()).prop_map(Op::Invalidate),
    ]
}

/// Every key of the universe that is resident, with its output.
fn residents(cache: &MemoCache) -> HashMap<(usize, i64), Value> {
    let mut found = HashMap::new();
    for servable in 0..SERVABLES.len() {
        for input in 0..INPUTS {
            if let Some(out) = cache.get(&key(servable, input)) {
                found.insert((servable, input), out);
            }
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_sequence_keeps_the_cache_contract(ops in proptest::collection::vec(op(), 1..200)) {
        let cache = MemoCache::new(CAPACITY);
        // Last value put per key since its servable's last invalidation.
        let mut latest: HashMap<(usize, i64), Value> = HashMap::new();
        let mut gets = 0u64;
        for (n, op) in ops.iter().enumerate() {
            match *op {
                Op::Get(s, i) => {
                    gets += 1;
                    if let Some(hit) = cache.get(&key(s, i)) {
                        prop_assert_eq!(Some(&hit), latest.get(&(s, i)), "op {}: stale or foreign hit", n);
                    }
                }
                Op::Put(s, i, z) => {
                    let value = output(n, SIZES[z]);
                    let (before, len) = (cache.stats(), cache.len());
                    cache.put(key(s, i), value.clone());
                    let after = cache.stats();
                    let evicted = after.evictions - before.evictions;
                    if SIZES[z] > CAPACITY {
                        // Oversized: nothing moves, the old entry stays.
                        prop_assert_eq!((after, cache.len()), (before, len));
                    } else if after.rejected > before.rejected {
                        // Rejected: only ever a non-resident key, so no
                        // older value of it is left to go stale.
                        prop_assert_eq!(after.rejected, before.rejected + 1);
                        prop_assert_eq!((evicted, cache.len()), (0, len));
                        latest.remove(&(s, i));
                    } else {
                        // Resident now; one entry more (fresh) or the
                        // same (replaced), less what it evicted.
                        let grew = cache.len() as u64 + evicted - len as u64;
                        prop_assert!(grew <= 1, "op {}: {} entries from one put", n, grew);
                        latest.insert((s, i), value.clone());
                        gets += 1;
                        prop_assert_eq!(cache.get(&key(s, i)), Some(value), "op {}: admitted put not resident", n);
                    }
                }
                Op::Invalidate(s) => {
                    cache.invalidate_servable(SERVABLES[s]);
                    latest.retain(|(servable, _), _| *servable != s);
                }
            }
            prop_assert!(cache.bytes() <= CAPACITY, "op {}: {} bytes", n, cache.bytes());
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, gets);
        }
        let (len, bytes) = (cache.len(), cache.bytes());
        let found = residents(&cache);
        prop_assert_eq!(len, found.len());
        prop_assert_eq!(bytes, found.values().map(Value::approx_size).sum::<usize>());
        for (k, out) in &found {
            prop_assert_eq!(Some(out), latest.get(k));
        }
    }

    #[test]
    fn with_no_lookups_recorded_residency_is_a_reference_lrus(
        puts in proptest::collection::vec((0..SERVABLES.len(), 0..INPUTS, 0..SIZES.len()), 1..200),
    ) {
        let cache = MemoCache::new(CAPACITY);
        // The reference: least recently put first.
        let mut lru: Vec<((usize, i64), Value)> = Vec::new();
        for (n, &(s, i, z)) in puts.iter().enumerate() {
            let value = output(n, SIZES[z]);
            cache.put(key(s, i), value.clone());
            if SIZES[z] > CAPACITY {
                continue;
            }
            lru.retain(|(k, _)| *k != (s, i));
            lru.push(((s, i), value));
            while lru.iter().map(|(_, v)| v.approx_size()).sum::<usize>() > CAPACITY {
                lru.remove(0);
            }
        }
        prop_assert_eq!(cache.stats().rejected, 0);
        prop_assert_eq!(residents(&cache), lru.into_iter().collect::<HashMap<_, _>>());
    }
}
