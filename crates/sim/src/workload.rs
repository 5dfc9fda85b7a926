//! Seeded synthetic workloads on the virtual clock.
//!
//! Every generator here is a pure function of a seed: replaying the
//! same seed hands the harness byte-identical inputs, tick for tick.
//! The family covers the traffic shapes a serving system actually
//! meets, not just the memoryless baseline:
//!
//! * [`PoissonArrivals`] — the baseline open-loop process; exponential
//!   inter-arrival gaps, rate changeable mid-run.
//! * [`MmppArrivals`] — a two-state Markov-modulated Poisson process
//!   (calm/burst) whose exponential state sojourns produce the
//!   overdispersed, self-similar-looking bursts real request logs
//!   show (index of dispersion ≫ 1, where Poisson pins it at 1).
//! * [`DiurnalArrivals`] — an inhomogeneous Poisson process whose
//!   rate follows a sinusoidal daily cycle, sampled exactly by
//!   thinning against the peak rate.
//! * [`ZipfPopularity`] — rank-frequency popularity over a catalog of
//!   registered servables (a few hot models, a long cold tail).
//! * [`LognormalSizes`] / [`ParetoSizes`] — heavy-tailed payload
//!   sizes (most requests small, a fat tail of huge ones).
//! * [`TenantMix`] — weighted multi-tenant attribution, the substrate
//!   for hostile-tenant overload scenarios.
//!
//! [`build_schedule`] composes any arrival process with popularity,
//! tenancy and size samplers into a [`WorkloadSchedule`] — the full
//! materialized request list a bench replays open-loop, with a
//! fingerprint that makes "same seed, same schedule" checkable across
//! processes.

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NS_PER_SEC: f64 = 1e9;

/// Exponential draw with rate `rate_per_sec`, in virtual nanoseconds.
fn exp_gap(rng: &mut StdRng, rate_per_sec: f64) -> SimTime {
    let u: f64 = rng.gen_range(0.0..1.0);
    let secs = -(1.0 - u).ln() / rate_per_sec;
    SimTime((secs * NS_PER_SEC) as u64)
}

/// An open-loop arrival process on the virtual clock: a monotone
/// stream of arrival instants, fully determined by the seed it was
/// built from.
pub trait ArrivalProcess {
    /// Consume and return the next arrival, `None` when the process
    /// is (currently) silent.
    fn next_arrival(&mut self) -> Option<SimTime>;
}

/// A seeded Poisson arrival process on virtual time.
pub struct PoissonArrivals {
    rng: StdRng,
    rate_per_sec: f64,
    /// Virtual time consumed so far; arrivals before this are spent.
    cursor: SimTime,
    /// First arrival at or after `cursor`, if already drawn.
    next: Option<SimTime>,
}

impl PoissonArrivals {
    /// A process emitting `rate_per_sec` arrivals per virtual second
    /// on average, fully determined by `seed`.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_per_sec,
            cursor: SimTime::ZERO,
            next: None,
        }
    }

    /// Change the intensity from the current cursor onward. The
    /// pending arrival (drawn at the old rate) is discarded: a Poisson
    /// process is memoryless, so resampling from the cursor is
    /// indistinguishable from conditioning on "no arrival yet".
    pub fn set_rate(&mut self, rate_per_sec: f64) {
        self.rate_per_sec = rate_per_sec;
        self.next = None;
    }

    /// Current intensity in arrivals per virtual second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Exponential gap to the next arrival, `None` while the rate is
    /// zero (the process is silent until the rate changes).
    fn sample_gap(&mut self) -> Option<SimTime> {
        if self.rate_per_sec <= 0.0 {
            return None;
        }
        Some(exp_gap(&mut self.rng, self.rate_per_sec))
    }

    /// Next arrival time at or after the cursor, without consuming it.
    pub fn peek(&mut self) -> Option<SimTime> {
        if self.next.is_none() {
            let gap = self.sample_gap()?;
            self.next = Some(self.cursor + gap);
        }
        self.next
    }

    /// Consume and return the next arrival time.
    pub fn pop(&mut self) -> Option<SimTime> {
        let at = self.peek()?;
        self.cursor = at;
        self.next = None;
        Some(at)
    }

    /// Count (and consume) every arrival strictly before `until`,
    /// advancing the cursor to `until`. This is the tick-grid view the
    /// control-loop tests feed into a requests counter.
    pub fn count_until(&mut self, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.peek() {
            if at >= until {
                break;
            }
            self.pop();
            n += 1;
        }
        if self.cursor < until {
            self.cursor = until;
        }
        n
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self) -> Option<SimTime> {
        self.pop()
    }
}

/// A two-state Markov-modulated Poisson process: the process spends
/// exponentially-distributed sojourns in a *calm* state and a *burst*
/// state, emitting Poisson arrivals at that state's rate. State
/// switches exploit memorylessness exactly like
/// [`PoissonArrivals::set_rate`]: a pending gap that crosses the
/// switch instant is discarded and resampled at the new rate, which
/// is distributionally exact and keeps the whole stream a pure
/// function of the seed.
pub struct MmppArrivals {
    rng: StdRng,
    /// Arrival rate per state, arrivals per virtual second.
    rates: [f64; 2],
    /// Mean sojourn per state, virtual seconds.
    sojourn_secs: [f64; 2],
    state: usize,
    state_until: SimTime,
    cursor: SimTime,
}

impl MmppArrivals {
    /// A process alternating between `calm_rate` and `burst_rate`
    /// arrivals/s with exponential sojourns of the given means,
    /// starting calm at time zero.
    pub fn new(
        calm_rate: f64,
        burst_rate: f64,
        calm_secs: f64,
        burst_secs: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = exp_gap(&mut rng, 1.0 / calm_secs.max(f64::MIN_POSITIVE));
        MmppArrivals {
            rng,
            rates: [calm_rate, burst_rate],
            sojourn_secs: [calm_secs, burst_secs],
            state: 0,
            state_until: first,
            cursor: SimTime::ZERO,
        }
    }

    /// The state the process is in at its cursor (0 calm, 1 burst).
    pub fn state(&self) -> usize {
        self.state
    }

    fn switch_state(&mut self) {
        self.cursor = self.state_until;
        self.state = 1 - self.state;
        let mean = self.sojourn_secs[self.state].max(f64::MIN_POSITIVE);
        self.state_until = self.cursor + exp_gap(&mut self.rng, 1.0 / mean);
    }
}

impl ArrivalProcess for MmppArrivals {
    fn next_arrival(&mut self) -> Option<SimTime> {
        if self.rates[0] <= 0.0 && self.rates[1] <= 0.0 {
            return None;
        }
        loop {
            let rate = self.rates[self.state];
            if rate <= 0.0 {
                // Silent state: nothing can arrive before the switch.
                self.switch_state();
                continue;
            }
            let candidate = self.cursor + exp_gap(&mut self.rng, rate);
            if candidate < self.state_until {
                self.cursor = candidate;
                return Some(candidate);
            }
            // The gap crossed the state boundary: discard and resample
            // in the next state (memorylessness makes this exact).
            self.switch_state();
        }
    }
}

/// An inhomogeneous Poisson process whose rate follows a sinusoidal
/// daily cycle: `rate(t) = base · (1 + amplitude · sin(2πt/period))`.
/// Sampling is exact via thinning: candidates are drawn at the peak
/// rate and accepted with probability `rate(t)/peak`, so no rate
/// discretisation grid is involved.
pub struct DiurnalArrivals {
    rng: StdRng,
    base_rate: f64,
    amplitude: f64,
    period_ns: u64,
    cursor: SimTime,
}

impl DiurnalArrivals {
    /// A cycle with mean `base_rate` arrivals/s swinging by
    /// `amplitude` (clamped to `0.0..=1.0`; 1.0 means the trough is
    /// silent) over `period_secs` virtual seconds.
    pub fn new(base_rate: f64, amplitude: f64, period_secs: f64, seed: u64) -> Self {
        DiurnalArrivals {
            rng: StdRng::seed_from_u64(seed),
            base_rate,
            amplitude: amplitude.clamp(0.0, 1.0),
            period_ns: (period_secs * NS_PER_SEC) as u64,
            cursor: SimTime::ZERO,
        }
    }

    /// The instantaneous rate at virtual time `at`, arrivals/s.
    pub fn rate_at(&self, at: SimTime) -> f64 {
        let phase = (at.0 % self.period_ns) as f64 / self.period_ns as f64;
        self.base_rate * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * phase).sin())
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn next_arrival(&mut self) -> Option<SimTime> {
        if self.base_rate <= 0.0 {
            return None;
        }
        let peak = self.base_rate * (1.0 + self.amplitude);
        loop {
            let candidate = self.cursor + exp_gap(&mut self.rng, peak);
            self.cursor = candidate;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept < self.rate_at(candidate) / peak {
                return Some(candidate);
            }
        }
    }
}

/// Zipf rank-frequency popularity over a catalog of `n` items: rank
/// `r` (0-based) is drawn with probability proportional to
/// `1/(r+1)^exponent`. Sampling is a binary search over the
/// precomputed CDF, so catalogs of thousands of servables cost
/// `O(log n)` per draw.
pub struct ZipfPopularity {
    rng: StdRng,
    cdf: Vec<f64>,
}

impl ZipfPopularity {
    /// Popularity over `n` ranks with the given exponent (1.0 is the
    /// classic web-trace value; larger skews harder).
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n > 0, "a popularity law needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfPopularity {
            rng: StdRng::seed_from_u64(seed),
            cdf,
        }
    }

    /// Number of ranks in the catalog.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `0..ranks()`.
    pub fn sample(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Heavy-tailed payload sizes from a lognormal: most requests are
/// near the median, the tail stretches over decades. Draws use the
/// Box-Muller transform over the seeded generator, so the stream is
/// deterministic.
pub struct LognormalSizes {
    rng: StdRng,
    mu: f64,
    sigma: f64,
    max_bytes: u64,
}

impl LognormalSizes {
    /// Sizes with the given median and log-space spread `sigma`,
    /// capped at `max_bytes` (the tail is unbounded otherwise).
    pub fn new(median_bytes: f64, sigma: f64, max_bytes: u64, seed: u64) -> Self {
        LognormalSizes {
            rng: StdRng::seed_from_u64(seed),
            mu: median_bytes.max(1.0).ln(),
            sigma,
            max_bytes: max_bytes.max(1),
        }
    }

    /// Draw one payload size in bytes.
    pub fn sample(&mut self) -> u64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (self.mu + self.sigma * z).exp();
        (v as u64).clamp(1, self.max_bytes)
    }
}

/// Heavy-tailed payload sizes from a Pareto law: inverse-CDF draws
/// `scale / u^(1/alpha)`, capped at `max_bytes`. Alphas near 1 give
/// the "elephant flows" regime where a handful of requests carry most
/// of the bytes.
pub struct ParetoSizes {
    rng: StdRng,
    scale: f64,
    inv_alpha: f64,
    max_bytes: u64,
}

impl ParetoSizes {
    /// Sizes at least `scale_bytes`, tail exponent `alpha`, capped at
    /// `max_bytes`.
    pub fn new(scale_bytes: f64, alpha: f64, max_bytes: u64, seed: u64) -> Self {
        ParetoSizes {
            rng: StdRng::seed_from_u64(seed),
            scale: scale_bytes.max(1.0),
            inv_alpha: 1.0 / alpha.max(f64::MIN_POSITIVE),
            max_bytes: max_bytes.max(1),
        }
    }

    /// Draw one payload size in bytes.
    pub fn sample(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let v = self.scale / u.powf(self.inv_alpha);
        (v as u64).clamp(1, self.max_bytes)
    }
}

/// Weighted multi-tenant attribution: each draw picks a tenant index
/// with probability proportional to its weight. A hostile tenant is
/// modelled upstream by giving it a dominant weight (or its own
/// arrival process) and letting admission control defend the rest.
pub struct TenantMix {
    rng: StdRng,
    cumulative: Vec<u64>,
    total: u64,
}

impl TenantMix {
    /// A mix over `weights.len()` tenants; zero-weight tenants are
    /// never drawn.
    pub fn new(weights: &[u32], seed: u64) -> Self {
        assert!(!weights.is_empty(), "a tenant mix needs tenants");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0u64;
        for &w in weights {
            acc += w as u64;
            cumulative.push(acc);
        }
        assert!(acc > 0, "a tenant mix needs positive total weight");
        TenantMix {
            rng: StdRng::seed_from_u64(seed),
            cumulative,
            total: acc,
        }
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> usize {
        self.cumulative.len()
    }

    /// Draw one tenant index in `0..tenants()`.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.gen_range(0..self.total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// One scheduled request: when it must start (open-loop — the harness
/// sends at this instant no matter how the previous requests fared),
/// which servable rank it targets, which tenant it bills to, and how
/// many payload bytes it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Intended start on the virtual schedule clock.
    pub at: SimTime,
    /// Servable rank (index into the scenario's catalog).
    pub servable: usize,
    /// Tenant index (index into the scenario's tenant list).
    pub tenant: usize,
    /// Payload size in bytes.
    pub payload_bytes: u64,
}

/// A fully materialized open-loop request schedule: the pure-function
/// output of seed + scenario parameters that a bench replays against
/// the real stack.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadSchedule {
    /// Requests in non-decreasing `at` order.
    pub requests: Vec<RequestSpec>,
}

impl WorkloadSchedule {
    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// FNV-1a fingerprint over every field of every request, in
    /// order. Two runs with the same seed must produce the same
    /// fingerprint — the bench harness and CI's seed matrix assert
    /// exactly this, making "byte-identical schedule" checkable
    /// without shipping the schedule itself.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.requests {
            mix(r.at.0);
            mix(r.servable as u64);
            mix(r.tenant as u64);
            mix(r.payload_bytes);
        }
        hash
    }
}

/// Materialize a schedule: arrivals from `arrivals` up to (excluding)
/// `horizon`, each annotated by the servable, tenant and payload
/// samplers. With seeded inputs the output is a pure function of the
/// seeds.
pub fn build_schedule(
    arrivals: &mut dyn ArrivalProcess,
    horizon: SimTime,
    mut servable_of: impl FnMut() -> usize,
    mut tenant_of: impl FnMut() -> usize,
    mut payload_of: impl FnMut() -> u64,
) -> WorkloadSchedule {
    let mut requests = Vec::new();
    while let Some(at) = arrivals.next_arrival() {
        if at >= horizon {
            break;
        }
        requests.push(RequestSpec {
            at,
            servable: servable_of(),
            tenant: tenant_of(),
            payload_bytes: payload_of(),
        });
    }
    WorkloadSchedule { requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(seed: u64, rate: f64, secs: u64) -> Vec<u64> {
        let mut w = PoissonArrivals::new(rate, seed);
        (0..secs)
            .map(|s| w.count_until(SimTime((s + 1) * 1_000_000_000)))
            .collect()
    }

    #[test]
    fn same_seed_replays_identical_arrivals() {
        assert_eq!(counts(7, 20.0, 60), counts(7, 20.0, 60));
        assert_ne!(counts(7, 20.0, 60), counts(8, 20.0, 60));
    }

    #[test]
    fn mean_rate_converges_to_lambda() {
        let total: u64 = counts(1848, 50.0, 200).iter().sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 50.0).abs() < 2.5, "mean {mean}");
    }

    #[test]
    fn zero_rate_is_silent_until_changed() {
        let mut w = PoissonArrivals::new(0.0, 3);
        assert_eq!(w.count_until(SimTime(10_000_000_000)), 0);
        assert_eq!(w.peek(), None);
        w.set_rate(100.0);
        let burst = w.count_until(SimTime(20_000_000_000));
        assert!(burst > 500, "burst {burst}");
    }

    #[test]
    fn arrival_times_are_monotone() {
        let mut w = PoissonArrivals::new(30.0, 11);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            let at = w.pop().unwrap();
            assert!(at >= last);
            last = at;
        }
    }

    /// Per-second arrival counts over `secs` virtual seconds.
    fn binned(arrivals: &mut dyn ArrivalProcess, secs: u64) -> Vec<u64> {
        let mut bins = vec![0u64; secs as usize];
        while let Some(at) = arrivals.next_arrival() {
            let s = (at.0 / 1_000_000_000) as usize;
            if s >= bins.len() {
                break;
            }
            bins[s] += 1;
        }
        bins
    }

    /// Index of dispersion (variance over mean) of the bin counts —
    /// 1 for Poisson, ≫ 1 for bursty processes.
    fn dispersion(bins: &[u64]) -> f64 {
        let n = bins.len() as f64;
        let mean = bins.iter().sum::<u64>() as f64 / n;
        let var = bins
            .iter()
            .map(|&b| (b as f64 - mean) * (b as f64 - mean))
            .sum::<f64>()
            / n;
        var / mean.max(f64::MIN_POSITIVE)
    }

    #[test]
    fn mmpp_is_overdispersed_against_a_poisson_baseline() {
        // MMPP spends ~25 s calm at 5/s, ~5 s bursting at 200/s; a
        // Poisson process at the same long-run mean must show an index
        // of dispersion near 1 while the MMPP's is an order of
        // magnitude larger.
        let mut mmpp = MmppArrivals::new(5.0, 200.0, 25.0, 5.0, 1848);
        let mmpp_bins = binned(&mut mmpp, 600);
        let mean_rate = mmpp_bins.iter().sum::<u64>() as f64 / 600.0;
        let mut poisson = PoissonArrivals::new(mean_rate, 1848);
        let poisson_bins = binned(&mut poisson, 600);
        let mmpp_d = dispersion(&mmpp_bins);
        let poisson_d = dispersion(&poisson_bins);
        assert!(poisson_d < 2.0, "poisson dispersion {poisson_d}");
        assert!(
            mmpp_d > 10.0 * poisson_d,
            "mmpp {mmpp_d} vs poisson {poisson_d}"
        );
        // Determinism: the same seed replays the same bursts.
        let mut again = MmppArrivals::new(5.0, 200.0, 25.0, 5.0, 1848);
        assert_eq!(binned(&mut again, 600), mmpp_bins);
    }

    #[test]
    fn diurnal_rate_swings_between_peak_and_trough() {
        // One 200 s period with amplitude 0.8: the quarter around the
        // sine peak must see several times the arrivals of the
        // quarter around the trough.
        let mut d = DiurnalArrivals::new(50.0, 0.8, 200.0, 7);
        let bins = binned(&mut d, 200);
        let peak: u64 = bins[25..75].iter().sum();
        let trough: u64 = bins[125..175].iter().sum();
        assert!(
            peak as f64 > 3.0 * trough as f64,
            "peak {peak} trough {trough}"
        );
        // The analytic rate agrees with where the mass landed.
        let d2 = DiurnalArrivals::new(50.0, 0.8, 200.0, 7);
        assert!(d2.rate_at(SimTime(50 * 1_000_000_000)) > d2.rate_at(SimTime(150 * 1_000_000_000)));
    }

    #[test]
    fn zipf_rank_frequency_follows_the_power_law() {
        let mut z = ZipfPopularity::new(1000, 1.0, 3141);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[z.sample()] += 1;
        }
        // Rank 0 over rank 9 approximates 10 under exponent 1.0.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!((6.0..16.0).contains(&ratio), "rank0/rank9 {ratio}");
        // The head dominates: top 10 ranks out of 1000 carry over a
        // third of the traffic.
        let head: u64 = counts[..10].iter().sum();
        assert!(head > 200_000 / 3, "head {head}");
        // Long tail is still reachable.
        assert!(counts[500..].iter().sum::<u64>() > 0);
    }

    #[test]
    fn payload_sizes_are_heavy_tailed_and_deterministic() {
        let draw = |mut s: LognormalSizes| (0..20_000).map(|_| s.sample()).collect::<Vec<_>>();
        let a = draw(LognormalSizes::new(4096.0, 1.5, 1 << 24, 7));
        let b = draw(LognormalSizes::new(4096.0, 1.5, 1 << 24, 7));
        assert_eq!(a, b, "same seed, same sizes");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let p50 = sorted[sorted.len() / 2];
        let p99 = sorted[sorted.len() * 99 / 100];
        assert!((2048..8192).contains(&p50), "lognormal median {p50}");
        assert!(p99 as f64 > 5.0 * p50 as f64, "p99 {p99} p50 {p50}");

        let mut pareto = ParetoSizes::new(512.0, 1.2, 1 << 24, 7);
        let mut sizes: Vec<u64> = (0..20_000).map(|_| pareto.sample()).collect();
        sizes.sort_unstable();
        let p50 = sizes[sizes.len() / 2];
        let p99 = sizes[sizes.len() * 99 / 100];
        assert!(p50 >= 512, "pareto floor {p50}");
        assert!(p99 as f64 > 5.0 * p50 as f64, "p99 {p99} p50 {p50}");
    }

    #[test]
    fn tenant_mix_respects_weights() {
        let mut mix = TenantMix::new(&[6, 3, 1], 7);
        let mut counts = [0u64; 3];
        for _ in 0..60_000 {
            counts[mix.sample()] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        let share0 = counts[0] as f64 / 60_000.0;
        assert!((share0 - 0.6).abs() < 0.02, "share0 {share0}");
    }

    #[test]
    fn schedules_are_byte_identical_per_seed() {
        let make = |seed: u64| {
            let mut arrivals = MmppArrivals::new(20.0, 300.0, 10.0, 2.0, seed);
            let mut zipf = ZipfPopularity::new(500, 1.1, seed ^ 1);
            let mut tenants = TenantMix::new(&[4, 2, 1], seed ^ 2);
            let mut sizes = LognormalSizes::new(2048.0, 1.2, 1 << 20, seed ^ 3);
            build_schedule(
                &mut arrivals,
                SimTime(30 * 1_000_000_000),
                || zipf.sample(),
                || tenants.sample(),
                || sizes.sample(),
            )
        };
        let a = make(7);
        let b = make(7);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same schedule, byte for byte");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = make(8);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seeds must matter");
        // Arrival order is non-decreasing — the open-loop driver
        // replays the schedule front to back.
        assert!(a.requests.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
