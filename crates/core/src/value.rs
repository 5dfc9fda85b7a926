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
                for v in data {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
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
                let mut pairs = data.chunks_exact(2);
                for pair in &mut pairs {
                    h.word(pair[0].to_bits() as u64 | (pair[1].to_bits() as u64) << 32);
                }
                if let [last] = pairs.remainder() {
                    h.word(last.to_bits() as u64);
                }
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

/// Two independent 64-bit lanes fed a `u64` at a time, so hashing a
/// 12 KB image costs one dependent multiply per eight bytes, not per
/// byte.
///
/// A lane step is a bijection of the lane for a given word, so inputs
/// that differ in one word never collide. The xor-shift after the
/// multiply matters: a multiply only carries a difference upward, so
/// without it a flip of bit 63 stays a lone bit 63 in the lane, and the
/// same flip 64 words later leaves the same lanes.
struct Hasher {
    a: u64,
    b: u64,
}

impl Hasher {
    fn new() -> Self {
        Hasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn finish(&self) -> (u64, u64) {
        (self.a, self.b)
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
}

impl WordSink for Hasher {
    fn word(&mut self, word: u64) {
        let step = |lane: u64, odd_multiplier: u64| {
            let x = (lane ^ word).wrapping_mul(odd_multiplier);
            x ^ (x >> 32)
        };
        self.a = step(self.a, 0x9E37_79B9_7F4A_7C15);
        self.b = step(self.b, 0xC2B2_AE3D_27D4_EB4F);
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
        // The repo benchmark's input shape: 1024 images of 3x32x32
        // uniform [0, 1) floats (SplitMix64, as benchmark/src/inputs.rs).
        use std::collections::HashSet;
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let image = |data: Vec<f32>| Value::Tensor {
            shape: vec![3, 32, 32],
            data,
        };
        let images: Vec<Value> = (0..1024)
            .map(|_| image((0..3 * 32 * 32).map(|_| next() as f32).collect()))
            .collect();
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
