//! Typed payloads exchanged with servables.
//!
//! DLHub supports "structured [inputs and] files" (Table II) across
//! very different model types; [`Value`] is the common currency: it
//! serializes to JSON for the wire (the broker between Management
//! Service and Task Managers) and hashes canonically for memoization.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A self-describing value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absence of input/output.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Text (e.g. a composition string for `matminer util`).
    Str(String),
    /// Raw bytes (e.g. an image file).
    Bytes(Vec<u8>),
    /// A dense tensor: shape plus row-major data (image inputs,
    /// feature vectors, class probabilities).
    Tensor {
        /// Dimensions.
        shape: Vec<usize>,
        /// Row-major elements.
        data: Vec<f32>,
    },
    /// Ordered list of values (e.g. a batch, or top-5 categories).
    List(Vec<Value>),
    /// Free-form JSON (metadata-style payloads).
    Json(serde_json::Value),
}

impl Value {
    /// Wrap a [`dlhub_tensor::Tensor`].
    pub fn from_tensor(t: &dlhub_tensor::Tensor) -> Self {
        Value::Tensor {
            shape: t.shape().to_vec(),
            data: t.data().to_vec(),
        }
    }

    /// View as a [`dlhub_tensor::Tensor`], if this is a tensor value.
    pub fn to_tensor(&self) -> Option<dlhub_tensor::Tensor> {
        match self {
            Value::Tensor { shape, data } => {
                dlhub_tensor::Tensor::new(shape.clone(), data.clone()).ok()
            }
            _ => None,
        }
    }

    /// Borrow as a string, if text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a float, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow as a list, if a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (drives transfer-cost
    /// accounting and cache budgets).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 2,
            Value::Bytes(b) => b.len(),
            Value::Tensor { shape, data } => shape.len() * 8 + data.len() * 4,
            Value::List(items) => 2 + items.iter().map(Value::approx_size).sum::<usize>(),
            Value::Json(j) => j.to_string().len(),
        }
    }

    /// Append this value to `out` in the compact binary wire format
    /// (tag byte, then little-endian fixed-width scalars and
    /// length-prefixed variable data). Used by the task wire codec so
    /// tensors and byte blobs cross the broker without the base64 and
    /// digit-formatting cost of JSON.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                encode_len(out, s.len());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(5);
                encode_len(out, b.len());
                out.extend_from_slice(b);
            }
            Value::Tensor { shape, data } => {
                out.push(6);
                encode_len(out, shape.len());
                for d in shape {
                    out.extend_from_slice(&(*d as u64).to_le_bytes());
                }
                encode_len(out, data.len());
                // One sized write: a push per element does not vectorize.
                let at = out.len();
                out.resize(at + 4 * data.len(), 0);
                let (chunks, _) = out[at..].as_chunks_mut::<4>();
                for (chunk, v) in chunks.iter_mut().zip(data) {
                    *chunk = v.to_bits().to_le_bytes();
                }
            }
            Value::List(items) => {
                out.push(7);
                encode_len(out, items.len());
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Json(j) => {
                out.push(8);
                encode_formatted(out, format_args!("{j}"));
            }
        }
    }

    /// Decode one value from the front of `cur`, advancing it past the
    /// consumed bytes. Inverse of [`Value::encode_into`]. `depth` is how
    /// many more levels of `List` may open (the decoder recurses once
    /// per level).
    pub(crate) fn decode_from(cur: &mut &[u8], depth: usize) -> Result<Value, String> {
        let tag = take(cur, 1)?[0];
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Bool(take(cur, 1)?[0] != 0),
            2 => Value::Int(i64::from_le_bytes(take_array(cur)?)),
            3 => Value::Float(f64::from_bits(u64::from_le_bytes(take_array(cur)?))),
            4 => {
                let len = decode_len(cur)?;
                let bytes = take(cur, len)?;
                Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|e| format!("invalid utf-8 in string value: {e}"))?
                        .to_string(),
                )
            }
            5 => {
                let len = decode_len(cur)?;
                Value::Bytes(take(cur, len)?.to_vec())
            }
            6 => {
                let dims = decode_len(cur)?;
                let mut shape = Vec::with_capacity(dims.min(64));
                for _ in 0..dims {
                    shape.push(u64::from_le_bytes(take_array(cur)?) as usize);
                }
                let count = decode_len(cur)?;
                let raw = take(cur, count.checked_mul(4).ok_or("tensor length overflow")?)?;
                let data = raw
                    .chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
                Value::Tensor { shape, data }
            }
            7 => {
                let depth = depth
                    .checked_sub(1)
                    .ok_or("lists nested deeper than the wire format allows")?;
                let count = decode_len(cur)?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(Value::decode_from(cur, depth)?);
                }
                Value::List(items)
            }
            8 => {
                let len = decode_len(cur)?;
                let bytes = take(cur, len)?;
                let j = serde_json::from_slice(bytes)
                    .map_err(|e| format!("invalid embedded json value: {e}"))?;
                Value::Json(j)
            }
            other => return Err(format!("unknown value tag {other}")),
        })
    }

    /// Canonical 128-bit content hash, used as the memoization key
    /// (§V-B2: "caching the inputs and outputs for each request").
    pub fn content_hash(&self) -> (u64, u64) {
        let mut h = Hasher::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Every field goes in as whole words: a tag, then the payload.
    /// Each variable-length field carries its length first, so no two
    /// values share a word stream (`["a", "b\u{4}"]` and `["a\u{4}b",
    /// ""]` did when only tags separated fields).
    fn hash_into(&self, h: &mut impl WordSink) {
        match self {
            Value::Null => h.word(0),
            Value::Bool(b) => {
                h.word(1);
                h.word(*b as u64);
            }
            Value::Int(i) => {
                h.word(2);
                h.word(*i as u64);
            }
            Value::Float(f) => {
                h.word(3);
                h.word(f.to_bits());
            }
            Value::Str(s) => {
                h.word(4);
                h.bytes(s.as_bytes());
            }
            Value::Bytes(b) => {
                h.word(5);
                h.bytes(b);
            }
            Value::Tensor { shape, data } => {
                h.word(6);
                h.word(shape.len() as u64);
                for d in shape {
                    h.word(*d as u64);
                }
                h.word(data.len() as u64);
                h.floats(data);
            }
            Value::List(items) => {
                h.word(7);
                h.word(items.len() as u64);
                for item in items {
                    item.hash_into(h);
                }
            }
            Value::Json(j) => {
                h.word(8);
                h.bytes(canonical_json(j).as_bytes());
            }
        }
    }
}

/// Length prefix: u32 little-endian, which bounds any single field at
/// 4 GiB — far beyond DLHub payloads.
pub(crate) fn encode_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Write `text` length-prefixed, as [`encode_len`] and its bytes would,
/// formatting it straight into `out`: no intermediate `String`.
pub(crate) fn encode_formatted(out: &mut Vec<u8>, text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let at = out.len();
    encode_len(out, 0);
    // Writing into a `Vec` cannot fail.
    let _ = out.write_fmt(text);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Read a u32 length prefix.
pub(crate) fn decode_len(cur: &mut &[u8]) -> Result<usize, String> {
    Ok(u32::from_le_bytes(take_array(cur)?) as usize)
}

/// Split `n` bytes off the front of the cursor.
pub(crate) fn take<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if cur.len() < n {
        return Err(format!(
            "truncated payload: needed {n} bytes, had {}",
            cur.len()
        ));
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

/// Split a fixed-size array off the front of the cursor.
pub(crate) fn take_array<const N: usize>(cur: &mut &[u8]) -> Result<[u8; N], String> {
    let mut buf = [0u8; N];
    buf.copy_from_slice(take(cur, N)?);
    Ok(buf)
}

/// Render JSON with sorted object keys so semantically equal documents
/// hash identically regardless of construction order.
fn canonical_json(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Object(map) => {
            let mut keys: Vec<&String> = map.keys().collect();
            keys.sort();
            let inner: Vec<String> = keys
                .into_iter()
                .map(|k| {
                    format!(
                        "{}:{}",
                        serde_json::Value::from(k.clone()),
                        canonical_json(&map[k])
                    )
                })
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        serde_json::Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(canonical_json).collect();
            format!("[{}]", inner.join(","))
        }
        leaf => leaf.to_string(),
    }
}

/// Hash lanes a block of the word stream is spread across: 64 words,
/// eight 512-bit vectors.
const LANES: usize = 64;

/// The odd multiplier of every lane and of the chain's `a`.
const MUL_A: u64 = 0x9E37_79B9_7F4A_7C15;

/// The odd multiplier of the chain's `b`.
const MUL_B: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Where the two-lane `(a, b)` chain of [`Hasher::finish`] starts once
/// a block has gone into the lanes.
const CHAIN_START: (u64, u64) = (0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15);

/// One seed per lane: the first 64 SplitMix64 outputs from state 0.
const LANE_SEEDS: [u64; LANES] = {
    let mut seeds = [0; LANES];
    let mut state = 0u64;
    let mut i = 0;
    while i < LANES {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        seeds[i] = z ^ (z >> 31);
        i += 1;
    }
    seeds
};

/// Where the chain of a stream that fills no block starts:
/// [`CHAIN_START`] with the first eight seeds folded in. An eight-lane
/// hash folded exactly those eight untouched seeds for a stream of
/// fewer than eight words, so such a stream (an `Int`, a short `Str`)
/// keeps the bits, and the memo shard, it had there.
const SHORT_START: (u64, u64) = fold(CHAIN_START, LANE_SEEDS.split_at(8).0);

/// One word into one lane: xor, an odd multiply, then the high half
/// folded down. For a fixed word it is a bijection of the lane, and
/// for a fixed lane a bijection of the word. The xor-shift matters: a
/// multiply only carries a difference upward, so without it a flip of
/// bit 63 stays a lone bit 63 in the lane, and the same flip in the
/// lane's next word cancels it.
const fn step(lane: u64, word: u64, odd_multiplier: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(odd_multiplier);
    x ^ (x >> 32)
}

/// Two lanes into one: `step` with the left lane first multiplied by
/// [`MUL_B`]. A bijection of each lane while the other is fixed. The
/// multiply makes the node tell a difference on its left from the same
/// difference on its right: a flip of bit 63 in a lane's last word
/// leaves the lane off by exactly `0x8000_0000_8000_0000` whatever it
/// held, and with `step(left, right)` alone two such flips in the two
/// lanes of one node would meet as the same `left ^ right`.
const fn node(left: u64, right: u64) -> u64 {
    step(left.wrapping_mul(MUL_B), right, MUL_A)
}

/// The 64 lanes as a tree of [`node`]s, to eight: lane `i` is paired
/// with lane `i + 32`, then `i + 16`, then `i + 8`. Each level's nodes
/// are independent, so the 56 of them cost three nodes of latency where
/// a chain through all 64 lanes waits on every lane in turn. Run by the
/// widest build, as the lanes are absorbed: the baseline build
/// vectorizes the first level with an emulated 64-bit multiply.
#[inline(always)]
fn tree(lanes: &[u64; LANES]) -> [u64; 8] {
    let mut level = [0; LANES / 2];
    for (i, node_of) in level.iter_mut().enumerate() {
        *node_of = node(lanes[i], lanes[i + LANES / 2]);
    }
    for width in [LANES / 4, LANES / 8] {
        let (left, right) = level.split_at_mut(width);
        for (l, r) in left.iter_mut().zip(&*right) {
            *l = node(*l, *r);
        }
    }
    let mut out = [0; 8];
    out.copy_from_slice(&level[..8]);
    out
}

/// `words` in order through the two-lane chain.
const fn fold(mut chain: (u64, u64), words: &[u64]) -> (u64, u64) {
    let mut i = 0;
    while i < words.len() {
        chain = (
            step(chain.0, words[i], MUL_A),
            step(chain.1, words[i], MUL_B),
        );
        i += 1;
    }
    chain
}

/// The builds of the lane work, narrowest first. A [`Hasher`] uses the
/// widest the CPU reports, up to the one it is capped at.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Build {
    /// Baseline x86-64 (SSE2), or whatever the target is.
    #[cfg_attr(not(test), expect(dead_code, reason = "only tests cap a hasher to it"))]
    Portable,
    /// AVX2: four lanes a vector, the 64-bit multiply emulated.
    Avx2,
    /// AVX-512F and DQ: eight lanes a vector, one `vpmullq` each.
    Avx512,
}

/// Work on the lanes that [`on_widest`] compiles once per build: its
/// `run` is inlined into each build's copy.
trait LaneWork {
    type Out;
    fn run(self) -> Self::Out;
}

/// Whole blocks into the lanes, word `i` of each into lane `i`.
struct Absorb<'a, T, F> {
    lanes: &'a mut [u64; LANES],
    blocks: &'a [[T; LANES]],
    word: F,
}

impl<T: Copy, F: Fn(T) -> u64> LaneWork for Absorb<'_, T, F> {
    type Out = ();

    /// The 64 lanes are independent chains, so a build keeps as many in
    /// a vector register as it holds.
    #[inline(always)]
    fn run(self) {
        let mut acc = *self.lanes;
        for block in self.blocks {
            for (lane, w) in acc.iter_mut().zip(block) {
                *lane = step(*lane, (self.word)(*w), MUL_A);
            }
        }
        *self.lanes = acc;
    }
}

/// The lanes folded to eight by the [`tree`].
struct Tree<'a>(&'a [u64; LANES]);

impl LaneWork for Tree<'_> {
    type Out = [u64; 8];

    #[inline(always)]
    fn run(self) -> [u64; 8] {
        tree(self.0)
    }
}

/// Run `work` by the widest build the CPU reports, up to `cap`, checked
/// per call. Every build compiles the one `run`, so every build gives
/// the same bits.
fn on_widest<W: LaneWork>(cap: Build, work: W) -> W::Out {
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= Build::Avx512
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: the CPU reported avx512f and avx512dq on the lines
            // above, the only requirements of `on_avx512`.
            return unsafe { on_avx512(work) };
        }
        if cap >= Build::Avx2 && is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reported avx2 on the line above, the only
            // requirement of `on_avx2`.
            return unsafe { on_avx2(work) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cap;
    work.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2<W: LaneWork>(work: W) -> W::Out {
    work.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn on_avx512<W: LaneWork>(work: W) -> W::Out {
    work.run()
}

/// The 128-bit content hash of a word stream, computed in 64
/// independent lanes so a 12 KB image is not one chain of 1,536
/// dependent multiplies, and so a vector unit takes eight lanes a
/// multiply.
///
/// Word `i` of each block of 64 goes into lane `i`. `finish` folds the
/// 64 lanes to eight by a [`tree`] of nodes, then folds those eight,
/// the words of the partial block and their count, in order, through
/// two chained lanes `(a, b)`: the 128 bits. A stream that fills no
/// block skips the lanes: its chain starts from [`SHORT_START`]. Two
/// streams of one length that differ in one word never collide: they
/// fill the same number of blocks, the lane (or partial word) that took
/// the difference differs to the end, since every later lane step and
/// tree node is a bijection of it, and each fold step is a bijection of
/// `a` and of `b` for a fixed word and of the word for a fixed `a` or
/// `b`.
///
/// The fields stay in this order: with `buffered` after `block`, the
/// one `memset` that zeroes both made each read of `buffered` wait on a
/// wide store it could not forward from, and a two-word key took twice
/// as long.
#[repr(C)]
struct Hasher {
    buffered: usize,
    /// The widest build the lanes may be absorbed by.
    cap: Build,
    /// The lanes, once a block has gone in.
    lanes: Option<[u64; LANES]>,
    /// The partial block: its first `buffered` words.
    block: [u64; LANES],
}

impl Hasher {
    fn new() -> Self {
        Hasher::capped(Build::Avx512)
    }

    fn capped(cap: Build) -> Self {
        Hasher {
            lanes: None,
            block: [0; LANES],
            buffered: 0,
            cap,
        }
    }

    /// Pairs into the partial block, absorbing it if they fill it: at
    /// most as many as it has room for.
    fn buffer(&mut self, pairs: &[[f32; 2]]) {
        for (slot, pair) in self.block[self.buffered..].iter_mut().zip(pairs) {
            *slot = pair_word(*pair);
        }
        self.buffered += pairs.len();
        if self.buffered == LANES {
            self.absorb_block();
        }
    }

    /// The partial block, now full, into the lanes.
    fn absorb_block(&mut self) {
        let lanes = self.lanes.get_or_insert(LANE_SEEDS);
        let blocks = std::slice::from_ref(&self.block);
        let word = std::convert::identity;
        on_widest(
            self.cap,
            Absorb {
                lanes,
                blocks,
                word,
            },
        );
        self.buffered = 0;
    }

    fn finish(&self) -> (u64, u64) {
        let start = match &self.lanes {
            Some(lanes) => fold(CHAIN_START, &on_widest(self.cap, Tree(lanes))),
            None => SHORT_START,
        };
        let count = self.buffered as u64;
        fold(fold(start, &self.block[..self.buffered]), &[count])
    }
}

/// Where [`Value::hash_into`] sends a value's canonical word stream:
/// the hash lanes, or a test's recorder that keeps the words.
trait WordSink {
    fn word(&mut self, word: u64);

    /// A variable-length field: its length, its bytes eight at a time
    /// (little-endian), then the tail zero-padded to a word. The length
    /// tells a padded tail from real zero bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.word(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// Tensor elements, two to a word (see [`pair_word`]); an odd one
    /// out takes a word of its own.
    fn floats(&mut self, floats: &[f32]) {
        let (pairs, last) = floats.as_chunks::<2>();
        for pair in pairs {
            self.word(pair_word(*pair));
        }
        if let [last] = last {
            self.word(last.to_bits() as u64);
        }
    }
}

/// Two floats as one word, the first in the low half.
fn pair_word([low, high]: [f32; 2]) -> u64 {
    low.to_bits() as u64 | (high.to_bits() as u64) << 32
}

impl WordSink for Hasher {
    fn word(&mut self, word: u64) {
        self.block[self.buffered] = word;
        self.buffered += 1;
        if self.buffered == LANES {
            self.absorb_block();
        }
    }

    /// The same words as the default, straight from the slice: the
    /// pairs that complete a started block are written into it in one
    /// loop, whole blocks after it go into the lanes, and the rest
    /// starts the next partial block.
    fn floats(&mut self, floats: &[f32]) {
        let (pairs, last) = floats.as_chunks::<2>();
        let lead = ((LANES - self.buffered) % LANES).min(pairs.len());
        let (lead, pairs) = pairs.split_at(lead);
        let (blocks, tail) = pairs.as_chunks::<LANES>();
        self.buffer(lead);
        // Only a whole block starts the lanes (see `SHORT_START`).
        if !blocks.is_empty() {
            let lanes = self.lanes.get_or_insert(LANE_SEEDS);
            let word = pair_word;
            on_widest(
                self.cap,
                Absorb {
                    lanes,
                    blocks,
                    word,
                },
            );
        }
        self.buffer(tail);
        if let [last] = last {
            self.word(last.to_bits() as u64);
        }
    }
}

/// The recording sink: the word stream itself.
#[cfg(test)]
impl WordSink for Vec<u64> {
    fn word(&mut self, word: u64) {
        self.push(word);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Tensor { shape, .. } => write!(f, "<tensor {shape:?}>"),
            Value::List(items) => write!(f, "<list of {}>", items.len()),
            Value::Json(j) => write!(f, "{j}"),
        }
    }
}

/// The repo benchmark's input shape: 1024 images of 3x32x32 uniform
/// [0, 1) floats (SplitMix64 from seed 7, as `benchmark/src/inputs.rs`).
#[cfg(test)]
pub(crate) fn benchmark_images() -> Vec<Value> {
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..1024)
        .map(|_| Value::Tensor {
            shape: vec![3, 32, 32],
            data: (0..3 * 32 * 32).map(|_| next() as f32).collect(),
        })
        .collect()
}

/// The wire bytes of `levels` one-element lists around a `Null`.
#[cfg(test)]
pub(crate) fn nested_lists(levels: usize) -> Vec<u8> {
    let mut frame = [7, 1, 0, 0, 0].repeat(levels);
    frame.push(0);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::MAX_DEPTH;
    use proptest::prelude::*;
    use serde_json::json;

    #[test]
    fn tensor_round_trip() {
        let t = dlhub_tensor::Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let v = Value::from_tensor(&t);
        assert_eq!(v.to_tensor().unwrap(), t);
        assert!(Value::Null.to_tensor().is_none());
    }

    #[test]
    fn json_wire_round_trip() {
        let v = Value::List(vec![
            Value::Str("a".into()),
            Value::Int(3),
            Value::Tensor {
                shape: vec![2],
                data: vec![0.5, -0.5],
            },
        ]);
        let encoded = serde_json::to_string(&v).unwrap();
        let decoded: Value = serde_json::from_str(&encoded).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn content_hash_distinguishes_types() {
        // Same bit patterns, different types, must not collide.
        assert_ne!(
            Value::Str("1".into()).content_hash(),
            Value::Int(1).content_hash()
        );
        assert_ne!(
            Value::Null.content_hash(),
            Value::Bool(false).content_hash()
        );
        assert_ne!(
            Value::Bytes(vec![65]).content_hash(),
            Value::Str("A".into()).content_hash()
        );
    }

    #[test]
    fn content_hash_sensitive_to_tensor_shape() {
        let a = Value::Tensor {
            shape: vec![2, 3],
            data: vec![0.0; 6],
        };
        let b = Value::Tensor {
            shape: vec![3, 2],
            data: vec![0.0; 6],
        };
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_separates_fields_by_length() {
        // Tag-separated, these pairs were one byte stream: 4 is the
        // `Str` tag and 5 the `Bytes` tag.
        let strs = |a: &str, b: &str| Value::List(vec![Value::Str(a.into()), Value::Str(b.into())]);
        assert_ne!(
            strs("a", "b\u{4}").content_hash(),
            strs("a\u{4}b", "").content_hash()
        );
        let blobs = |a: &[u8], b: &[u8]| {
            Value::List(vec![Value::Bytes(a.to_vec()), Value::Bytes(b.to_vec())])
        };
        assert_ne!(
            blobs(b"a", b"b\x05").content_hash(),
            blobs(b"a\x05b", b"").content_hash()
        );
    }

    #[test]
    fn content_hash_tells_byte_lengths_apart() {
        // Around the 8-byte word and its zero-padded tail.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for (fill, lengths) in [(0u8, 0..=17), (0xFF, 1..=17)] {
            for len in lengths {
                assert!(
                    seen.insert(Value::Bytes(vec![fill; len]).content_hash()),
                    "{len} bytes of {fill:#x} collide with an earlier blob"
                );
            }
        }
    }

    #[test]
    fn content_hash_distinguishes_images_and_single_bit_flips() {
        use std::collections::HashSet;
        let images = benchmark_images();
        let mut seen: HashSet<(u64, u64)> = images.iter().map(Value::content_hash).collect();
        assert_eq!(seen.len(), images.len(), "two pool images share a hash");

        let mut probe = images[0].clone();
        let set = |probe: &mut Value, i: usize, v: f32| match probe {
            Value::Tensor { data, .. } => std::mem::replace(&mut data[i], v),
            _ => unreachable!(),
        };
        for i in 0..3 * 32 * 32 {
            let original = set(&mut probe, i, 0.0);
            for bit in 0..32 {
                set(
                    &mut probe,
                    i,
                    f32::from_bits(original.to_bits() ^ (1 << bit)),
                );
                assert!(
                    seen.insert(probe.content_hash()),
                    "flipping bit {bit} of element {i} collides"
                );
            }
            set(&mut probe, i, original);
        }
    }

    #[test]
    fn json_hash_is_key_order_independent() {
        let a = Value::Json(json!({"x": 1, "y": [1, 2]}));
        let b = Value::Json(json!({"y": [1, 2], "x": 1}));
        assert_eq!(a.content_hash(), b.content_hash());
        let c = Value::Json(json!({"x": 2, "y": [1, 2]}));
        assert_ne!(a.content_hash(), c.content_hash());
    }

    /// The hash of `value`'s recorded word stream, fed one word at a
    /// time: what `content_hash` must give however the words arrive.
    fn word_by_word(value: &Value) -> (u64, u64) {
        let mut words = Vec::new();
        value.hash_into(&mut words);
        let mut h = Hasher::new();
        for word in words {
            h.word(word);
        }
        h.finish()
    }

    #[test]
    fn content_hash_depends_only_on_the_word_stream() {
        // Tensors of up to 20 words, alone and after a string whose
        // length puts the lanes' buffer at each offset of a block when
        // the floats arrive.
        for len in 0..=40 {
            let tensor = Value::Tensor {
                shape: vec![len],
                data: (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
            };
            assert_eq!(tensor.content_hash(), word_by_word(&tensor), "{len} floats");
            for text in 0..LANES {
                let list = Value::List(vec![Value::Str("x".repeat(8 * text)), tensor.clone()]);
                assert_eq!(
                    list.content_hash(),
                    word_by_word(&list),
                    "{len} floats after {text} words of text"
                );
            }
        }
    }

    /// `value`'s hash with the lanes absorbed by `build` at widest.
    fn hash_on(build: Build, value: &Value) -> (u64, u64) {
        let mut h = Hasher::capped(build);
        value.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn every_build_gives_the_baseline_bits() {
        // Up to 150 words of floats: at least two full blocks wherever
        // the run starts, and after a string of each length it starts
        // at each offset of a block.
        for len in 0..=300 {
            let tensor = Value::Tensor {
                shape: vec![len],
                data: (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
            };
            let lists = (0..LANES)
                .map(|text| Value::List(vec![Value::Str("x".repeat(8 * text)), tensor.clone()]));
            for value in std::iter::once(tensor.clone()).chain(lists) {
                let baseline = hash_on(Build::Portable, &value);
                assert_eq!(word_by_word(&value), baseline, "{value:?}");
                for build in [Build::Avx2, Build::Avx512] {
                    assert_eq!(hash_on(build, &value), baseline, "{value:?}");
                }
            }
        }
    }

    #[test]
    fn streams_that_fill_no_block_keep_their_eight_lane_hash() {
        // Recorded from the eight-lane hash. Every value here is under
        // eight words: `Str` of 40 bytes is tag, length and five words.
        let text = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        let strs: [(u64, u64); 41] = [
            (0xb58a_5782_a667_7d73, 0x0e8b_ac03_4052_1ec9),
            (0x5234_e68d_e115_1134, 0x5cdf_b726_2aa4_dcac),
            (0x536c_dd47_564c_d2d3, 0xc614_219d_260f_b21a),
            (0x412e_f9b0_316a_80cf, 0xadac_1ce8_2821_ebcf),
            (0xd6fd_777c_5ddb_d0d0, 0x5cb9_167f_e81d_b42f),
            (0x1b66_4903_a908_9052, 0x7e9d_eacd_f057_23b6),
            (0x19cb_b9ab_4828_91ee, 0xafda_0209_a833_c3fd),
            (0xa202_aa34_585e_6dd2, 0xd3ea_37bd_8cb9_bfe6),
            (0xbceb_f580_4ba7_3508, 0x6d35_a78c_94e3_523f),
            (0x95ff_a63b_e779_b48d, 0xbc05_6749_a274_e084),
            (0xfdd9_9b6f_f089_589e, 0xce68_11eb_e490_2b57),
            (0x3451_60d8_e86c_ca38, 0x9853_94a5_1027_647b),
            (0xe261_bc4f_886a_d57f, 0x03cd_572d_17cf_871b),
            (0x880d_d0ee_1a8e_cce1, 0xabe0_7f9c_2e8f_9ec8),
            (0x58cd_5d21_9635_d2c3, 0x3866_ae79_f75f_a9ba),
            (0x2c23_74de_ad76_a3b0, 0x0f3b_572a_0772_c1a6),
            (0x0715_f94d_5c11_b68c, 0x61df_f599_4a8f_0d89),
            (0x05d5_54b5_19a7_c467, 0x72b7_b4fb_0364_9981),
            (0xbf28_30bf_a8b7_c2ad, 0xb1c4_5d54_076e_d0a6),
            (0xccde_dec5_bc8f_0597, 0xaef1_8990_2ff8_7102),
            (0xa24d_9f81_c783_fc2f, 0xcef8_a34e_e4c6_0e77),
            (0xdf17_a8e4_b127_6e5d, 0xfeee_ecad_4b12_eee8),
            (0xdc88_54d8_0d0d_2434, 0x39cf_e754_046e_ad40),
            (0x9593_57cc_154d_ad0c, 0x81cf_0d13_518b_64a3),
            (0xff79_ce15_e61e_763d, 0x70d5_4019_1527_7d49),
            (0x26e5_66fa_da3f_4903, 0x0a08_9567_d72a_03b4),
            (0xdec3_5956_8f63_3e6a, 0x844f_7c44_7ec5_bde8),
            (0x5a80_b379_48c5_4a0e, 0x8cb8_c22b_8794_ca1f),
            (0xa735_f77e_7799_1619, 0x8c2e_87f0_5601_6bfe),
            (0x291e_f11a_e5a8_2512, 0x0934_741c_3863_bd74),
            (0x1258_b0f8_4b8b_fc24, 0x42de_6c37_8363_658d),
            (0x8f78_5ed6_38e6_aa14, 0x23dd_35e3_f287_c60c),
            (0x7233_cd12_3847_e768, 0x88a9_5dba_4599_f900),
            (0x4d74_5315_d1e9_ec74, 0x909d_6922_7ac2_7e34),
            (0x5920_48bf_0f43_b342, 0xf8ca_66ea_53b9_9f6c),
            (0x5506_d7c3_477a_2412, 0x1875_6a22_7f60_3ec7),
            (0xd00e_afc5_301c_0e03, 0xf0bb_d7c0_16c7_2af6),
            (0xbcee_7fec_5fde_3099, 0xd089_50c4_6596_9cde),
            (0x5a78_c8ce_cc41_02ad, 0xf519_e132_8c78_0e38),
            (0x3fd4_a5ad_9de6_e6b4, 0x67d8_3707_ae11_2ea5),
            (0x5cad_6047_6e0d_38c2, 0x7e57_9c1e_a301_fe0a),
        ];
        let pinned = [
            (Value::Null, (0x63a2_764a_a705_5607, 0xcb1e_5c0f_542c_eb01)),
            (
                Value::Bool(false),
                (0xa8b2_1b66_e6a0_47d7, 0xe7bd_7ae5_590d_2a33),
            ),
            (
                Value::Bool(true),
                (0xb347_b09f_f358_fb69, 0xc260_f552_742a_e956),
            ),
            (
                Value::Int(0),
                (0xe28f_9f82_add3_769a, 0x0b20_3e9e_6cc0_2ffe),
            ),
            (
                Value::Int(1),
                (0xdc96_0ac2_141d_ce7e, 0x244c_3071_0e86_53a3),
            ),
            (
                Value::Int(-1),
                (0xf7c9_29f6_59a0_2558, 0x570d_a242_828a_3079),
            ),
            (
                Value::Int(i64::MAX),
                (0x376e_6801_1907_64af, 0x6af8_17ea_3f7f_85d1),
            ),
            (
                Value::Float(1.5),
                (0x195d_cbc5_314c_7d01, 0x143f_75b7_fefb_76f4),
            ),
        ]
        .into_iter()
        .chain((0..=40).map(|n| (Value::Str(text[..n].into()), strs[n])));
        for (value, hash) in pinned {
            assert_eq!(value.content_hash(), hash, "{value:?}");
        }
    }

    #[test]
    fn one_word_flips_through_the_tree_never_collide() {
        // 1, 2 and 3 full blocks, then 0–63 words of a partial block.
        // Flipping any one word, in any lane or in the partial block,
        // by any of four masks gives a hash that neither the stream nor
        // any other flip of it gives. Bit 63 is the flip whose lane
        // difference no lane state changes (see `node`): with a
        // symmetric node, two such flips in the lanes of one node
        // collide.
        use std::collections::HashSet;
        let hash = |words: &[u64]| {
            let mut h = Hasher::new();
            for &word in words {
                h.word(word);
            }
            h.finish()
        };
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        for blocks in 1..=3 {
            for partial in 0..LANES {
                let words: Vec<u64> = (0..blocks * LANES + partial).map(|_| next()).collect();
                let mut seen = HashSet::from([hash(&words)]);
                let mut probe = words.clone();
                for i in 0..words.len() {
                    for mask in [1, 1 << 31, 1 << 63, u64::MAX] {
                        probe[i] ^= mask;
                        assert!(
                            seen.insert(hash(&probe)),
                            "{blocks} blocks and {partial} words: word {i} ^ {mask:#x} collides"
                        );
                        probe[i] = words[i];
                    }
                }
            }
        }
    }

    #[test]
    fn content_hash_changes_when_floats_or_blocks_swap() {
        let image = benchmark_images().swap_remove(0);
        let original = image.content_hash();
        let swapped = |swap: &dyn Fn(&mut [f32])| {
            let mut probe = image.clone();
            if let Value::Tensor { data, .. } = &mut probe {
                swap(data);
            }
            probe.content_hash()
        };
        for i in 0..3 * 32 * 32 - 1 {
            assert_ne!(
                swapped(&|d| d.swap(i, i + 1)),
                original,
                "floats {i} and {}",
                i + 1
            );
        }
        // A run of 16 floats is eight words: swapped whole, the same
        // words reach the lanes in another order.
        let block_swap = |j: usize, k: usize| {
            swapped(&|d| {
                let (head, tail) = d.split_at_mut(16 * k);
                head[16 * j..16 * j + 16].swap_with_slice(&mut tail[..16]);
            })
        };
        let blocks = 3 * 32 * 32 / 16;
        for k in 1..blocks {
            assert_ne!(block_swap(0, k), original, "blocks 0 and {k}");
            assert_ne!(block_swap(k - 1, k), original, "blocks {} and {k}", k - 1);
        }
    }

    /// The tensor encoding as it was: one push per float.
    fn encode_per_float(value: &Value) -> Vec<u8> {
        let Value::Tensor { shape, data } = value else {
            unreachable!()
        };
        let mut out = vec![6];
        encode_len(&mut out, shape.len());
        for d in shape {
            out.extend_from_slice(&(*d as u64).to_le_bytes());
        }
        encode_len(&mut out, data.len());
        for v in data {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    #[test]
    fn tensors_encode_the_bytes_the_per_float_loop_did() {
        let odd = [
            -0.0,
            f32::from_bits(0x7FC0_0001), // quiet NaN with a payload
            f32::from_bits(0xFF80_0003), // signalling NaN, sign set
            f32::from_bits(1),           // least subnormal
            -f32::from_bits(0x007F_FFFF),
            f32::INFINITY,
            1.5,
        ];
        for len in [0, 1, 2, 3, 17, 3072] {
            let value = Value::Tensor {
                shape: vec![len],
                data: (0..len).map(|i| odd[i % odd.len()]).collect(),
            };
            // After a prefix, so the sized write starts off a word.
            let mut out = vec![0xAB];
            value.encode_into(&mut out);
            assert_eq!(out[0], 0xAB);
            assert_eq!(out[1..], encode_per_float(&value), "{len} floats");
        }
    }

    #[test]
    fn approx_size_tracks_payload() {
        let small = Value::Str("hi".into());
        let big = Value::Tensor {
            shape: vec![100],
            data: vec![0.0; 100],
        };
        assert!(big.approx_size() > small.approx_size());
        assert_eq!(big.approx_size(), 8 + 400);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(
            Value::List(vec![Value::Null]).as_list().map(|l| l.len()),
            Some(1)
        );
        assert_eq!(Value::Null.as_str(), None);
    }

    #[test]
    fn binary_codec_round_trips_every_variant() {
        let v = Value::List(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(0.1 + 0.2), // not representable in short decimal
            Value::Str("composition: Fe2O3".into()),
            Value::Bytes(vec![0, 255, 128]),
            Value::Tensor {
                shape: vec![2, 2],
                data: vec![1.5, -2.5, 0.0, f32::MIN_POSITIVE],
            },
            Value::List(vec![Value::Int(1), Value::Str("nested".into())]),
            Value::Json(json!({"k": [1, 2], "s": "v"})),
        ]);
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        let mut cur = &buf[..];
        let back = Value::decode_from(&mut cur, MAX_DEPTH).unwrap();
        assert_eq!(back, v);
        assert!(
            cur.is_empty(),
            "decoder must consume exactly what was encoded"
        );
    }

    #[test]
    fn binary_codec_rejects_garbage() {
        let mut cur: &[u8] = &[250, 1, 2];
        assert!(Value::decode_from(&mut cur, MAX_DEPTH).is_err());
        let mut truncated: &[u8] = &[4, 10, 0, 0, 0, b'a'];
        assert!(Value::decode_from(&mut truncated, MAX_DEPTH).is_err());
    }

    #[test]
    fn binary_codec_bounds_list_nesting() {
        // Written as bytes: a `Value` this deep cannot be built, encoded
        // or dropped without the recursion the bound is there to stop.
        let decode = |levels: usize| {
            let frame = nested_lists(levels);
            Value::decode_from(&mut &frame[..], MAX_DEPTH)
        };
        let mut deepest = &decode(MAX_DEPTH).unwrap();
        let mut levels = 0;
        while let Value::List(items) = deepest {
            deepest = &items[0];
            levels += 1;
        }
        assert_eq!((levels, deepest), (MAX_DEPTH, &Value::Null));
        for levels in [MAX_DEPTH + 1, 100_000] {
            let err = decode(levels).unwrap_err();
            assert!(err.contains("nested deeper"), "{levels} levels: {err}");
        }
    }

    /// Values built to confuse a word stream: scalars that read as the
    /// stream's own tags (0–8) and small lengths, strings and blobs of
    /// tag-valued bytes around the 8-byte word, odd and even tensors,
    /// lists and JSON nested `depth` deep.
    fn confusable(depth: u32) -> BoxedStrategy<Value> {
        let text = || {
            proptest::collection::vec(0..5usize, 0..4).prop_map(|picks| {
                picks
                    .into_iter()
                    .map(|p| ['a', 'b', '\0', '\u{4}', '\u{5}'][p])
                    .collect::<String>()
            })
        };
        let leaves = vec![
            Just(Value::Null).boxed(),
            any::<bool>().prop_map(Value::Bool).boxed(),
            (0i64..10).prop_map(Value::Int).boxed(),
            (0i64..10)
                .prop_map(|i| Value::Float(i as f64 / 2.0))
                .boxed(),
            text().prop_map(Value::Str).boxed(),
            proptest::collection::vec(0u8..8, 0..18)
                .prop_map(Value::Bytes)
                .boxed(),
            (
                proptest::collection::vec(0usize..4, 0..3),
                proptest::collection::vec(0u8..3, 0..5),
            )
                .prop_map(|(shape, data)| Value::Tensor {
                    shape,
                    data: data.into_iter().map(f32::from).collect(),
                })
                .boxed(),
            (text(), 0i64..3)
                .prop_map(|(k, v)| Value::Json(json!({ k: v })))
                .boxed(),
            (text(), text())
                .prop_map(|(a, b)| Value::Json(json!([a, b])))
                .boxed(),
        ];
        if depth == 0 {
            return proptest::Union::new(leaves).boxed();
        }
        let mut options = leaves;
        for _ in 0..3 {
            options.push(
                proptest::collection::vec(confusable(depth - 1), 0..4)
                    .prop_map(Value::List)
                    .boxed(),
            );
        }
        proptest::Union::new(options).boxed()
    }

    /// Parse one value off the front of a recorded word stream.
    fn read_back(words: &mut dyn Iterator<Item = u64>) -> Option<Value> {
        fn field(words: &mut dyn Iterator<Item = u64>) -> Option<Vec<u8>> {
            let len = words.next()? as usize;
            let mut bytes = Vec::new();
            for _ in 0..len.div_ceil(8) {
                bytes.extend(words.next()?.to_le_bytes());
            }
            bytes.truncate(len);
            Some(bytes)
        }
        Some(match words.next()? {
            0 => Value::Null,
            1 => Value::Bool(words.next()? != 0),
            2 => Value::Int(words.next()? as i64),
            3 => Value::Float(f64::from_bits(words.next()?)),
            4 => Value::Str(String::from_utf8(field(words)?).ok()?),
            5 => Value::Bytes(field(words)?),
            6 => {
                let rank = words.next()?;
                let shape = (0..rank)
                    .map(|_| words.next().map(|d| d as usize))
                    .collect::<Option<_>>()?;
                let len = words.next()? as usize;
                let mut data = Vec::new();
                for _ in 0..len.div_ceil(2) {
                    let pair = words.next()?;
                    data.push(f32::from_bits(pair as u32));
                    data.push(f32::from_bits((pair >> 32) as u32));
                }
                data.truncate(len);
                Value::Tensor { shape, data }
            }
            7 => {
                let len = words.next()?;
                Value::List((0..len).map(|_| read_back(words)).collect::<Option<_>>()?)
            }
            8 => Value::Json(serde_json::from_slice(&field(words)?).ok()?),
            _ => return None,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn distinct_values_give_distinct_word_streams(value in confusable(3)) {
            // The memo key is a hash of this stream: two values that
            // share one are answered with each other's output whatever
            // the hash lanes do (PR 15: `["a", "b\u{4}"]` and
            // `["a\u{4}b", ""]`). A stream that reads back as the
            // value it came from, with nothing left over, is shared
            // with no other value.
            let mut words = Vec::new();
            value.hash_into(&mut words);
            let mut words = words.into_iter();
            prop_assert_eq!(read_back(&mut words), Some(value));
            prop_assert_eq!(words.next(), None);
        }
    }

    /// The compact JSON printer as it was before it wrote unescaped runs
    /// whole and floats without a `String` each: one `write!` per
    /// character. The printer must still match it byte for byte.
    fn reference_print(v: &serde_json::Value, out: &mut String) {
        use serde_json::{Number, Value as J};
        use std::fmt::Write;
        fn escape(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => write!(out, "{c}").unwrap(),
                }
            }
            out.push('"');
        }
        match v {
            J::Null => out.push_str("null"),
            J::Bool(b) => write!(out, "{b}").unwrap(),
            J::Number(Number::PosInt(n)) => write!(out, "{n}").unwrap(),
            J::Number(Number::NegInt(n)) => write!(out, "{n}").unwrap(),
            J::Number(Number::Float(f)) if !f.is_finite() => out.push_str("null"),
            J::Number(Number::Float(f)) => {
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains('.') {
                    out.push_str(".0");
                }
            }
            J::String(s) => escape(s, out),
            J::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_print(item, out);
                }
                out.push(']');
            }
            J::Object(map) => {
                out.push('{');
                for (i, (k, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    reference_print(item, out);
                }
                out.push('}');
            }
        }
    }

    /// JSON trees whose strings mix every escape, control characters
    /// and multi-byte text, and whose numbers include integral,
    /// huge, tiny, signed-zero and non-finite floats.
    fn json_tree(depth: u32) -> BoxedStrategy<serde_json::Value> {
        use serde_json::{Number, Value as J};
        const CHARS: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\0', '\u{1f}', '\u{7f}',
            'é', '€', '𝄞',
        ];
        let text = || {
            proptest::collection::vec(0..CHARS.len(), 0..12)
                .prop_map(|picks| picks.into_iter().map(|p| CHARS[p]).collect::<String>())
        };
        let leaves = vec![
            Just(J::Null).boxed(),
            any::<bool>().prop_map(J::Bool).boxed(),
            any::<u64>()
                .prop_map(|n| J::Number(Number::PosInt(n)))
                .boxed(),
            any::<i64>()
                .prop_map(|n| J::Number(Number::NegInt(n.min(-1))))
                .boxed(),
            any::<f64>()
                .prop_map(|f| J::Number(Number::Float(f)))
                .boxed(),
            (-4096i64..4096)
                .prop_map(|i| J::Number(Number::Float(i as f64 / 8.0)))
                .boxed(),
            text().prop_map(J::String).boxed(),
        ];
        if depth == 0 {
            return proptest::Union::new(leaves).boxed();
        }
        let mut options = leaves;
        options.push(
            proptest::collection::vec(json_tree(depth - 1), 0..4)
                .prop_map(J::Array)
                .boxed(),
        );
        options.push(
            proptest::collection::vec((text(), json_tree(depth - 1)), 0..4)
                .prop_map(|entries| J::Object(entries.into_iter().collect()))
                .boxed(),
        );
        proptest::Union::new(options).boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn json_prints_the_bytes_the_reference_printer_did(tree in json_tree(3)) {
            let mut want = String::new();
            reference_print(&tree, &mut want);
            prop_assert_eq!(serde_json::to_string(&tree).unwrap(), want.clone());
            // And what is printed parses back, moved out of the parse.
            let back: serde_json::Value = serde_json::from_slice(want.as_bytes()).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), want);
        }
    }

    proptest! {
        #[test]
        fn binary_codec_round_trips_floats_exactly(f in any::<f64>()) {
            // Bit-exact including NaN payloads and infinities — the
            // binary format carries raw f64 bits, unlike JSON.
            let mut buf = Vec::new();
            Value::Float(f).encode_into(&mut buf);
            let mut cur = &buf[..];
            match Value::decode_from(&mut cur, MAX_DEPTH).unwrap() {
                Value::Float(back) => prop_assert_eq!(back.to_bits(), f.to_bits()),
                other => prop_assert!(false, "wrong variant: {other}"),
            }
        }

        #[test]
        fn equal_values_hash_equal(s in "\\PC{0,32}", i in any::<i64>()) {
            let v1 = Value::List(vec![Value::Str(s.clone()), Value::Int(i)]);
            let v2 = Value::List(vec![Value::Str(s), Value::Int(i)]);
            prop_assert_eq!(v1.content_hash(), v2.content_hash());
        }

        #[test]
        fn distinct_ints_rarely_collide(a in any::<i64>(), b in any::<i64>()) {
            prop_assume!(a != b);
            prop_assert_ne!(Value::Int(a).content_hash(), Value::Int(b).content_hash());
        }

        #[test]
        fn serde_round_trip_any_scalar(f in any::<f64>().prop_filter("finite", |v| v.is_finite())) {
            // Exact f64 round-tripping relies on serde_json's
            // `float_roundtrip` feature (enabled in the workspace).
            let v = Value::Float(f);
            let s = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&s).unwrap();
            prop_assert_eq!(back, v);
        }
    }
}
