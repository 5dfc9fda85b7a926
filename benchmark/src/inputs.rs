//! Seeded inputs: image and formula pools, the Zipf sampler and the
//! per-client op streams. `--seed` fixes all of them; the program under
//! test only ever sees the generated values.

use dlhub_core::matsci::elements::ELEMENTS;
use dlhub_core::tensor::models::CIFAR10_INPUT;
use dlhub_core::value::Value;

/// The three workloads. BENCHMARK.json and README.md say why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NoopDispatch,
    CifarMemoZipf,
    MatminerMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NoopDispatch,
        Workload::CifarMemoZipf,
        Workload::MatminerMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NoopDispatch => "noop-dispatch",
            Workload::CifarMemoZipf => "cifar-memo-zipf",
            Workload::MatminerMixed => "matminer-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input pool size (images or formulas); `quick` shrinks it for
    /// smoke runs.
    pub fn pool_size(self, quick: bool) -> usize {
        let full = match self {
            Workload::NoopDispatch => 0,
            Workload::MatminerMixed => 256,
            Workload::CifarMemoZipf => 1024,
        };
        if quick {
            full.min(64)
        } else {
            full
        }
    }
}

/// Zipf exponent of `cifar-memo-zipf`.
pub const ZIPF_S: f64 = 1.1;
/// Inputs per `run_batch` op of `matminer-mixed`.
pub const BATCH_ITEMS: usize = 32;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, for the input fingerprint printed with every run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One client operation. Indices point into the workload's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `run("dlhub/noop", Int(n))`.
    Noop(i64),
    /// `run("dlhub/cifar10", images[i])`.
    Cifar(usize),
    /// `run("dlhub/matminer-util", formulas[i])`.
    Util(usize),
    /// `run_pipeline(util → featurize → model, formulas[i])`.
    Pipeline(usize),
    /// `run_batch("dlhub/matminer-model", 32 feature tensors from i)`.
    Batch(usize),
    /// `run_async("dlhub/matminer-util", formulas[i])` + `wait`.
    Async(usize),
}

impl Op {
    fn hash_into(self, fnv: &mut Fnv) {
        let (tag, payload) = match self {
            Op::Noop(n) => (0u8, n as u64),
            Op::Cifar(i) => (1, i as u64),
            Op::Util(i) => (2, i as u64),
            Op::Pipeline(i) => (3, i as u64),
            Op::Batch(i) => (4, i as u64),
            Op::Async(i) => (5, i as u64),
        };
        fnv.write(&[tag]);
        fnv.write(&payload.to_le_bytes());
    }
}

/// The seeded pools of one workload.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// `Value::Tensor` 3×32×32 images (`cifar-memo-zipf`).
    pub images: Vec<Value>,
    /// `Value::Str` formulas (`matminer-mixed`).
    pub formulas: Vec<Value>,
    zipf: Option<Zipf>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
        let pool = workload.pool_size(quick);
        let mut rng = Rng::new(seed ^ 0x706f_6f6c);
        let mut images = Vec::new();
        let mut formulas = Vec::new();
        match workload {
            Workload::NoopDispatch => {}
            Workload::CifarMemoZipf => {
                let len: usize = CIFAR10_INPUT.iter().product();
                images = (0..pool)
                    .map(|_| Value::Tensor {
                        shape: CIFAR10_INPUT.to_vec(),
                        data: (0..len).map(|_| rng.next_f64() as f32).collect(),
                    })
                    .collect();
            }
            Workload::MatminerMixed => {
                formulas = (0..pool).map(|_| Value::Str(formula(&mut rng))).collect();
            }
        }
        let zipf = (workload == Workload::CifarMemoZipf).then(|| Zipf::new(pool, ZIPF_S));
        Inputs {
            workload,
            seed,
            images,
            formulas,
            zipf,
        }
    }

    /// The op stream of one client. Client ids 0 and 1 are the timed
    /// clients; [`WARMUP_CLIENT`] and the next are the set-up warm-up,
    /// [`FIXED_WORK_CLIENT`] and the next the fixed-work phase.
    pub fn stream(&self, client: u64) -> OpStream<'_> {
        let mut rng = Rng::new(self.seed ^ (client + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        OpStream {
            inputs: self,
            // A seeded starting point, so even the noop integers differ
            // between seeds.
            issued: rng.next_u64() >> 32,
            rng,
            client,
        }
    }

    /// FNV-1a over the pools and the first 4096 ops of every stream:
    /// same seed ⇒ same fingerprint, another seed ⇒ another.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::new();
        for image in &self.images {
            if let Value::Tensor { data, .. } = image {
                for v in data {
                    fnv.write(&v.to_bits().to_le_bytes());
                }
            }
        }
        for formula in &self.formulas {
            if let Value::Str(s) = formula {
                fnv.write(s.as_bytes());
                fnv.write(&[0]);
            }
        }
        for client in [
            0,
            1,
            WARMUP_CLIENT,
            WARMUP_CLIENT + 1,
            FIXED_WORK_CLIENT,
            FIXED_WORK_CLIENT + 1,
        ] {
            let mut stream = self.stream(client);
            for _ in 0..4096 {
                stream.next_op().hash_into(&mut fnv);
            }
        }
        fnv.finish()
    }
}

/// First stream id of the set-up warm-up clients (restarted for every
/// set-up, so every set-up does the same work).
pub const WARMUP_CLIENT: u64 = 254;
/// First stream id of the fixed-work phase that `peak_rss_mb` is read
/// after.
pub const FIXED_WORK_CLIENT: u64 = 252;

/// A random binary or ternary formula over H..Bi, e.g. `Fe2O3`.
fn formula(rng: &mut Rng) -> String {
    let arity = 2 + rng.below(2);
    let mut symbols: Vec<&str> = Vec::with_capacity(arity);
    while symbols.len() < arity {
        let symbol = ELEMENTS[rng.below(83)].symbol;
        if !symbols.contains(&symbol) {
            symbols.push(symbol);
        }
    }
    symbols
        .iter()
        .map(|s| format!("{s}{}", 1 + rng.below(4)))
        .collect()
}

/// Deterministic, endless sequence of ops for one client.
pub struct OpStream<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    client: u64,
    issued: u64,
}

impl OpStream<'_> {
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let inputs = self.inputs;
        match inputs.workload {
            // Unique per client and per op, so nothing could ever be
            // served from a cache.
            Workload::NoopDispatch => Op::Noop(((self.client << 40) | self.issued) as i64),
            Workload::CifarMemoZipf => {
                let zipf = inputs.zipf.as_ref().expect("zipf built with the pool");
                Op::Cifar(zipf.sample(&mut self.rng))
            }
            Workload::MatminerMixed => {
                let kind = self.rng.next_f64();
                let index = self.rng.below(inputs.formulas.len());
                if kind < 0.60 {
                    Op::Util(index)
                } else if kind < 0.85 {
                    Op::Pipeline(index)
                } else if kind < 0.95 {
                    Op::Batch(index)
                } else {
                    Op::Async(index)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_fingerprint() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, true).fingerprint();
            let b = Inputs::generate(workload, 7, true).fingerprint();
            let c = Inputs::generate(workload, 1848, true).fingerprint();
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1024, ZIPF_S);
        let mut rng = Rng::new(3);
        let mut counts = vec![0u32; 1024];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        // Rank 1 carries 1/H(1024, 1.1) ≈ 0.19 of the mass.
        assert!((17_000..21_000).contains(&counts[0]), "{}", counts[0]);
    }

    #[test]
    fn mixed_stream_follows_the_declared_shares() {
        let inputs = Inputs::generate(Workload::MatminerMixed, 7, false);
        let mut stream = inputs.stream(0);
        let mut counts = [0u32; 4];
        for _ in 0..20_000 {
            match stream.next_op() {
                Op::Util(_) => counts[0] += 1,
                Op::Pipeline(_) => counts[1] += 1,
                Op::Batch(_) => counts[2] += 1,
                Op::Async(_) => counts[3] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        for (count, share) in counts.iter().zip([0.60, 0.25, 0.10, 0.05]) {
            let got = *count as f64 / 20_000.0;
            assert!((got - share).abs() < 0.015, "{got} vs {share}");
        }
    }

    #[test]
    fn every_generated_formula_parses() {
        let inputs = Inputs::generate(Workload::MatminerMixed, 1848, false);
        for formula in &inputs.formulas {
            let text = formula.as_str().unwrap();
            assert!(dlhub_core::matsci::parse_formula(text).is_ok(), "{text}");
        }
    }
}
