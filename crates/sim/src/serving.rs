//! The serving-pipeline timing model.
//!
//! Reproduces the paper's three measurement points for a configurable
//! serving system. A [`ServingProfile`] captures *where time goes* in
//! each system — protocol overheads, queue dispatch cost, cache
//! placement — and [`ServableModel`] carries the calibrated compute
//! cost and payload sizes of one servable. The bench harness measures
//! real Rust kernels once per process and feeds the result in here, so
//! simulated latencies inherit genuine compute ratios while network
//! constants come from the testbed description (§V-A).

use crate::engine::Sim;
use crate::queueing::FifoServer;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Where a system keeps its memoization cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLocation {
    /// DLHub/Parsl: at the Task Manager — a cache hit never crosses to
    /// the cluster (§V-B5: "Parsl maintains a cache at the Task
    /// Manager, greatly reducing serving latency").
    TaskManager,
    /// Clipper: at the query frontend, deployed *as a pod on the
    /// cluster* — a hit still pays the TM↔cluster hop ("cached
    /// responses still require the request to be transmitted to the
    /// query frontend").
    ClusterFrontend,
}

/// Batching policy: maximum items coalesced into one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Upper bound on items per dispatched batch.
    pub max_batch: usize,
}

/// A servable's calibrated cost model.
#[derive(Debug, Clone)]
pub struct ServableModel {
    /// Name, e.g. `inception`.
    pub name: String,
    /// Single-inference service time (calibrated from real kernels).
    pub service_time: SimTime,
    /// Input payload in KiB (drives serialization/transfer cost).
    pub input_kb: f64,
    /// Output payload in KiB.
    pub output_kb: f64,
}

impl ServableModel {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        service_time: SimTime,
        input_kb: f64,
        output_kb: f64,
    ) -> Self {
        ServableModel {
            name: name.into(),
            service_time,
            input_kb,
            output_kb,
        }
    }
}

/// Timing profile of one serving system.
#[derive(Debug, Clone)]
pub struct ServingProfile {
    /// System name, e.g. `DLHub`, `TFServing-gRPC`.
    pub name: String,
    /// Management-Service processing per request (intake, routing,
    /// task table, result handling).
    pub ms_overhead: SimTime,
    /// MS ↔ Task Manager round trip (20.7 ms on the paper testbed).
    pub ms_tm_rtt: SimTime,
    /// Task-Manager processing per request.
    pub tm_overhead: SimTime,
    /// TM ↔ cluster round trip (0.17 ms on the paper testbed).
    pub tm_cluster_rtt: SimTime,
    /// Executor dispatch cost per task (serialized at the TM): IPP
    /// dispatch for Parsl, HTTP framing for Flask, gRPC framing for
    /// TF Serving.
    pub dispatch_overhead: SimTime,
    /// Serialization + transfer cost per KiB of payload.
    pub per_kb: SimTime,
    /// Cache placement; `None` = no memoization support.
    pub cache: Option<CacheLocation>,
    /// Cache lookup cost on a hit.
    pub cache_lookup: SimTime,
    /// Relative jitter (sigma of the multiplicative noise applied to
    /// overhead components; the paper's error bars are 5th/95th
    /// percentiles).
    pub jitter: f64,
}

/// The three timings the paper reports per request (§V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// Time inside the servable.
    pub inference: SimTime,
    /// TM-to-result time (includes dispatch, transfer, inference).
    pub invocation: SimTime,
    /// MS-to-result time (includes MS overhead, WAN RTT, invocation).
    pub request: SimTime,
    /// Whether the memo cache answered this request.
    pub cache_hit: bool,
}

impl ServingProfile {
    fn jittered(&self, base: SimTime, rng: &mut StdRng) -> SimTime {
        if self.jitter == 0.0 {
            return base;
        }
        // Latency noise is one-sided in practice (GC pauses, queueing):
        // scale by 1 + |N(0, jitter)| approximated from uniforms.
        let u: f64 = rng.gen_range(0.0..1.0);
        let v: f64 = rng.gen_range(0.0..1.0);
        let n = (-2.0 * u.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        let factor = 1.0 + self.jitter * n.abs();
        SimTime((base.0 as f64 * factor) as u64)
    }

    fn transfer(&self, kb: f64) -> SimTime {
        SimTime((self.per_kb.0 as f64 * kb) as u64)
    }

    /// Simulate `n` sequential requests (the next is issued only after
    /// the previous response arrives, §V-B). `repeat_input` mirrors
    /// the paper's fixed-input methodology: with memoization enabled
    /// only the first request misses.
    pub fn run_sequential(
        &self,
        servable: &ServableModel,
        n: usize,
        memoize: bool,
        repeat_input: bool,
        seed: u64,
    ) -> Vec<RequestSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut cache_warm = false;
        for _ in 0..n {
            let hit = memoize && self.cache.is_some() && cache_warm && repeat_input;
            samples.push(self.one_request(servable, hit, &mut rng));
            if memoize && repeat_input {
                cache_warm = true;
            }
        }
        samples
    }

    fn one_request(
        &self,
        servable: &ServableModel,
        cache_hit: bool,
        rng: &mut StdRng,
    ) -> RequestSample {
        let ms = self.jittered(self.ms_overhead, rng);
        let wan = self.jittered(self.ms_tm_rtt, rng);
        let tm = self.jittered(self.tm_overhead, rng);
        match (cache_hit, self.cache) {
            (true, Some(CacheLocation::TaskManager)) => {
                // Hit at the TM: no cluster hop, no dispatch, no
                // inference. Invocation collapses to the lookup.
                let lookup = self.jittered(self.cache_lookup, rng);
                let invocation = lookup;
                let request = ms + wan + tm + invocation;
                RequestSample {
                    inference: SimTime::ZERO,
                    invocation,
                    request,
                    cache_hit: true,
                }
            }
            (true, Some(CacheLocation::ClusterFrontend)) => {
                // Hit at the cluster frontend: the request still
                // crosses TM -> cluster and back.
                let lan = self.jittered(self.tm_cluster_rtt, rng);
                let frontend = self.jittered(self.dispatch_overhead, rng);
                let transfer = self.transfer(servable.input_kb) + self.transfer(servable.output_kb);
                let lookup = self.jittered(self.cache_lookup, rng);
                let invocation = lan + frontend + transfer + lookup;
                let request = ms + wan + tm + invocation;
                RequestSample {
                    inference: SimTime::ZERO,
                    invocation,
                    request,
                    cache_hit: true,
                }
            }
            _ => {
                let lan = self.jittered(self.tm_cluster_rtt, rng);
                let dispatch = self.jittered(self.dispatch_overhead, rng);
                let transfer = self.transfer(servable.input_kb) + self.transfer(servable.output_kb);
                let inference = self.jittered(servable.service_time, rng);
                let invocation = lan + dispatch + transfer + inference;
                let request = ms + wan + tm + invocation;
                RequestSample {
                    inference,
                    invocation,
                    request,
                    cache_hit: false,
                }
            }
        }
    }

    /// [`Self::run_sequential`], additionally recording every sample
    /// into a metrics registry under the same per-servable schema the
    /// live Management Service uses (`requests`, `cache_hits` and the
    /// three latency histograms of §V-A). A simulated system's
    /// exported snapshot is then directly comparable to a real run's.
    pub fn run_sequential_observed(
        &self,
        servable: &ServableModel,
        n: usize,
        memoize: bool,
        repeat_input: bool,
        seed: u64,
        metrics: &dlhub_obs::Registry,
    ) -> Vec<RequestSample> {
        let samples = self.run_sequential(servable, n, memoize, repeat_input, seed);
        record_samples(
            metrics,
            &format!("{}/{}", self.name, servable.name),
            &samples,
        );
        samples
    }

    /// Total *invocation* time to process `n` requests with or without
    /// batching (Figs 5 and 6). Without batching, each item pays the
    /// full dispatch path sequentially. With batching, all `n` inputs
    /// coalesce into ceil(n / max_batch) dispatches whose payloads
    /// scale with the batch size and whose inferences run
    /// back-to-back on one replica.
    pub fn run_batch(
        &self,
        servable: &ServableModel,
        n: usize,
        batching: Option<BatchPolicy>,
        seed: u64,
    ) -> SimTime {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = SimTime::ZERO;
        match batching {
            None => {
                for _ in 0..n {
                    let s = self.one_request(servable, false, &mut rng);
                    total += s.invocation;
                }
            }
            Some(policy) => {
                let mut remaining = n;
                while remaining > 0 {
                    let batch = remaining.min(policy.max_batch.max(1));
                    remaining -= batch;
                    let lan = self.jittered(self.tm_cluster_rtt, &mut rng);
                    let dispatch = self.jittered(self.dispatch_overhead, &mut rng);
                    let transfer = self.transfer(servable.input_kb * batch as f64)
                        + self.transfer(servable.output_kb * batch as f64);
                    let mut inference = SimTime::ZERO;
                    for _ in 0..batch {
                        inference += self.jittered(servable.service_time, &mut rng);
                    }
                    total += lan + dispatch + transfer + inference;
                }
            }
        }
        total
    }

    /// Makespan for `n` requests served by `replicas` parallel pods
    /// (Fig 7). Dispatch is serialized at the Task Manager — the
    /// mechanism behind the paper's observed saturation: adding
    /// replicas stops helping once `dispatch_overhead` dominates
    /// `service_time / replicas`.
    pub fn run_throughput(
        &self,
        servable: &ServableModel,
        n: usize,
        replicas: usize,
        seed: u64,
    ) -> SimTime {
        self.run_throughput_multi_tm(servable, n, replicas, 1, seed)
    }

    /// Makespan with `task_managers` Task Managers sharing the queue
    /// ("one or more Task Managers", §IV): requests split round-robin
    /// across the TMs, each of which serializes its own dispatch, all
    /// feeding the same replica pool. Lifts the dispatch ceiling from
    /// `1/d` to `k/d`.
    pub fn run_throughput_multi_tm(
        &self,
        servable: &ServableModel,
        n: usize,
        replicas: usize,
        task_managers: usize,
        seed: u64,
    ) -> SimTime {
        let task_managers = task_managers.max(1);
        let mut sim = Sim::new();
        let pool = FifoServer::new(replicas);
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
        let mut dispatch_clocks = vec![SimTime::ZERO; task_managers];
        for id in 0..n as u64 {
            // Round-robin queue pop; dispatch serialized per TM.
            let tm = (id as usize) % task_managers;
            let d = self.jittered(self.dispatch_overhead, &mut rng.borrow_mut());
            dispatch_clocks[tm] += d;
            let arrive = dispatch_clocks[tm]
                + SimTime((self.tm_cluster_rtt.0 as f64 / 2.0) as u64)
                + self.transfer(servable.input_kb);
            let service = self.jittered(servable.service_time, &mut rng.borrow_mut());
            let pool2 = pool.clone();
            sim.schedule_at(arrive, move |sim| pool2.submit(sim, id, service));
        }
        sim.run();
        pool.makespan()
    }
}

/// Record a simulated timing series into a metrics registry under one
/// servable name. `SimTime` is nanoseconds, matching the live
/// histograms' units; a cache hit skips the inference histogram just
/// like the real request path does.
pub fn record_samples(metrics: &dlhub_obs::Registry, servable: &str, samples: &[RequestSample]) {
    let series = metrics.series(servable);
    for sample in samples {
        series.requests.inc();
        series.request_latency.record(sample.request.0);
        series.invocation_latency.record(sample.invocation.0);
        if sample.cache_hit {
            series.cache_hits.inc();
        } else {
            series.inference_latency.record(sample.inference.0);
        }
    }
}

/// Replay a simulated timing series through an [`dlhub_obs::Obs`]
/// handle's metric registry *and* its telemetry collector, on the
/// closed-loop virtual clock (the next request is issued when the
/// previous response lands, §V-B): after each sample the virtual time
/// advances by that request's latency, and whenever it crosses a
/// base-step boundary of the collector the store takes one sampling
/// pass at exactly that boundary. Because every timestamp comes from
/// `SimTime` — never the wall clock — two replays of the same seeded
/// sample series export bit-identical series. Requires a handle built
/// with [`dlhub_obs::Telemetry::Stepped`]; returns the number of
/// sampling passes taken.
pub fn replay_telemetry(obs: &dlhub_obs::Obs, servable: &str, samples: &[RequestSample]) -> u64 {
    let step = obs
        .telemetry
        .base_step()
        .expect("replay needs an Obs built with Telemetry::Stepped")
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    let series = obs.metrics.series(servable);
    let mut now = 0u64;
    let mut next_pass = step;
    let mut passes = 0u64;
    for sample in samples {
        now += sample.request.0;
        while next_pass <= now {
            obs.telemetry.sample_now(next_pass);
            next_pass += step;
            passes += 1;
        }
        series.requests.inc();
        series.request_latency.record(sample.request.0);
        series.invocation_latency.record(sample.invocation.0);
        if sample.cache_hit {
            series.cache_hits.inc();
        } else {
            series.inference_latency.record(sample.inference.0);
        }
    }
    // One closing pass so the final partial step is captured.
    obs.telemetry.sample_now(next_pass);
    passes + 1
}

/// Fraction of samples whose request latency meets `threshold` — the
/// virtual-time counterpart of the serving stack's SLO burn tracking
/// (which runs on wall-clock windows and so can't be driven by the
/// simulator). 1.0 for an empty sample set: no traffic burns no budget.
pub fn slo_attainment(samples: &[RequestSample], threshold: SimTime) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let good = samples.iter().filter(|s| s.request <= threshold).count();
    good as f64 / samples.len() as f64
}

/// Median, 5th and 95th percentile of a timing series, in the order
/// `(p5, median, p95)`.
pub fn percentiles(values: &[SimTime]) -> (SimTime, SimTime, SimTime) {
    assert!(!values.is_empty());
    let mut sorted: Vec<SimTime> = values.to_vec();
    sorted.sort();
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (at(0.05), at(0.5), at(0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(cache: Option<CacheLocation>) -> ServingProfile {
        ServingProfile {
            name: "test".into(),
            ms_overhead: SimTime::from_millis(5.0),
            ms_tm_rtt: SimTime::from_millis(20.7),
            tm_overhead: SimTime::from_millis(2.0),
            tm_cluster_rtt: SimTime::from_micros(170.0),
            dispatch_overhead: SimTime::from_millis(3.0),
            per_kb: SimTime::from_micros(20.0),
            cache,
            cache_lookup: SimTime::from_millis(0.5),
            jitter: 0.0,
        }
    }

    fn servable() -> ServableModel {
        ServableModel::new("m", SimTime::from_millis(40.0), 100.0, 1.0)
    }

    #[test]
    fn slo_attainment_counts_good_requests() {
        let mk = |ms: f64| RequestSample {
            inference: SimTime::from_millis(1.0),
            invocation: SimTime::from_millis(2.0),
            request: SimTime::from_millis(ms),
            cache_hit: false,
        };
        let samples = vec![mk(10.0), mk(20.0), mk(30.0), mk(40.0)];
        assert_eq!(slo_attainment(&samples, SimTime::from_millis(25.0)), 0.5);
        assert_eq!(slo_attainment(&samples, SimTime::from_millis(40.0)), 1.0);
        assert_eq!(slo_attainment(&[], SimTime::from_millis(1.0)), 1.0);
        // Warm memoized repeat traffic attains a threshold that cold
        // traffic misses on every request but the cache warmup.
        let p = profile(Some(CacheLocation::TaskManager));
        let cold = p.run_sequential(&servable(), 5, false, true, 0);
        let warm = p.run_sequential(&servable(), 5, true, true, 0);
        let tight = SimTime::from_millis(30.0);
        assert!(slo_attainment(&warm, tight) > slo_attainment(&cold, tight));
    }

    #[test]
    fn request_decomposes_into_nested_timings() {
        let p = profile(None);
        let s = &p.run_sequential(&servable(), 1, false, true, 0)[0];
        assert_eq!(s.inference, SimTime::from_millis(40.0));
        // invocation = lan 0.17 + dispatch 3 + transfer 101*0.02 + 40
        let expected_invocation = SimTime::from_micros(170.0)
            + SimTime::from_millis(3.0)
            + SimTime::from_micros(20.0 * 101.0)
            + SimTime::from_millis(40.0);
        assert_eq!(s.invocation, expected_invocation);
        // request = ms 5 + wan 20.7 + tm 2 + invocation
        let expected_request = SimTime::from_millis(5.0)
            + SimTime::from_millis(20.7)
            + SimTime::from_millis(2.0)
            + expected_invocation;
        assert_eq!(s.request, expected_request);
        assert!(s.invocation < s.request);
        assert!(s.inference < s.invocation);
    }

    #[test]
    fn tm_cache_hit_collapses_invocation() {
        let p = profile(Some(CacheLocation::TaskManager));
        let samples = p.run_sequential(&servable(), 3, true, true, 0);
        assert!(!samples[0].cache_hit);
        assert!(samples[1].cache_hit && samples[2].cache_hit);
        // ~1ms invocation on hits (paper: "extremely low invocation
        // times (1ms)").
        assert_eq!(samples[1].invocation, SimTime::from_millis(0.5));
        assert!(samples[1].request < samples[0].request);
        assert_eq!(samples[1].inference, SimTime::ZERO);
    }

    #[test]
    fn frontend_cache_hit_still_pays_cluster_hop() {
        let tm = profile(Some(CacheLocation::TaskManager));
        let fe = profile(Some(CacheLocation::ClusterFrontend));
        let tm_hit = tm.run_sequential(&servable(), 2, true, true, 0)[1];
        let fe_hit = fe.run_sequential(&servable(), 2, true, true, 0)[1];
        assert!(fe_hit.invocation > tm_hit.invocation);
        // But both beat the miss path.
        let miss = tm.run_sequential(&servable(), 1, false, true, 0)[0];
        assert!(fe_hit.invocation < miss.invocation);
    }

    #[test]
    fn no_memo_when_inputs_differ() {
        let p = profile(Some(CacheLocation::TaskManager));
        let samples = p.run_sequential(&servable(), 3, true, false, 0);
        assert!(samples.iter().all(|s| !s.cache_hit));
    }

    #[test]
    fn batching_amortizes_overheads() {
        let p = profile(None);
        let m = servable();
        let unbatched = p.run_batch(&m, 50, None, 0);
        let batched = p.run_batch(&m, 50, Some(BatchPolicy { max_batch: 50 }), 0);
        assert!(batched < unbatched);
        // Savings equal 49 dispatch+RTT rounds.
        let saved = unbatched - batched;
        assert!(saved > SimTime::from_millis(49.0 * 3.0));
    }

    #[test]
    fn batched_time_is_roughly_linear_in_n() {
        let p = profile(None);
        let m = servable();
        let t1k = p.run_batch(&m, 1000, Some(BatchPolicy { max_batch: 10_000 }), 0);
        let t2k = p.run_batch(&m, 2000, Some(BatchPolicy { max_batch: 10_000 }), 0);
        let ratio = t2k.as_millis() / t1k.as_millis();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn throughput_saturates_with_replicas() {
        let p = profile(None);
        let m = servable(); // 40ms service, 3ms dispatch -> knee ~13
        let t1 = p.run_throughput(&m, 500, 1, 0);
        let t4 = p.run_throughput(&m, 500, 4, 0);
        let t13 = p.run_throughput(&m, 500, 13, 0);
        let t26 = p.run_throughput(&m, 500, 26, 0);
        assert!(t4 < t1);
        assert!(t13 < t4);
        // Beyond the knee, improvement nearly vanishes.
        let gain_beyond_knee = t13.as_millis() / t26.as_millis();
        assert!(gain_beyond_knee < 1.1, "gain {gain_beyond_knee}");
        // Below the knee, scaling is near-linear.
        let early_gain = t1.as_millis() / t4.as_millis();
        assert!(early_gain > 3.0, "early gain {early_gain}");
    }

    #[test]
    fn extra_task_managers_lift_the_dispatch_ceiling() {
        let p = profile(None);
        let m = servable(); // 40ms service, 3ms dispatch
                            // Past the single-TM knee, more replicas are wasted…
        let one_tm = p.run_throughput_multi_tm(&m, 600, 40, 1, 0);
        // …until a second TM doubles the dispatch rate.
        let two_tm = p.run_throughput_multi_tm(&m, 600, 40, 2, 0);
        let gain = one_tm.as_millis() / two_tm.as_millis();
        assert!(gain > 1.7, "gain {gain}");
        // With few replicas the pool is the bottleneck and extra TMs
        // barely matter.
        let one_tm_small = p.run_throughput_multi_tm(&m, 600, 2, 1, 0);
        let two_tm_small = p.run_throughput_multi_tm(&m, 600, 2, 2, 0);
        let small_gain = one_tm_small.as_millis() / two_tm_small.as_millis();
        assert!(small_gain < 1.1, "small gain {small_gain}");
    }

    #[test]
    fn short_tasks_saturate_earlier() {
        let p = profile(None);
        let long = servable(); // 40ms
        let short = ServableModel::new("s", SimTime::from_millis(5.0), 1.0, 1.0);
        // Gain from 2 -> 8 replicas.
        let gain = |m: &ServableModel| {
            p.run_throughput(m, 500, 2, 0).as_millis() / p.run_throughput(m, 500, 8, 0).as_millis()
        };
        assert!(gain(&long) > gain(&short));
    }

    #[test]
    fn jitter_produces_spread_but_is_deterministic() {
        let mut p = profile(None);
        p.jitter = 0.15;
        let a = p.run_sequential(&servable(), 100, false, true, 7);
        let b = p.run_sequential(&servable(), 100, false, true, 7);
        assert_eq!(a, b);
        let requests: Vec<SimTime> = a.iter().map(|s| s.request).collect();
        let (p5, p50, p95) = percentiles(&requests);
        assert!(p5 <= p50 && p50 <= p95);
        assert!(p95 > p5, "jitter must spread the distribution");
    }

    #[test]
    fn observed_runs_export_the_live_metrics_schema() {
        let p = profile(Some(CacheLocation::TaskManager));
        let metrics = dlhub_obs::Registry::new();
        let samples = p.run_sequential_observed(&servable(), 5, true, true, 0, &metrics);
        assert_eq!(samples.len(), 5);
        let snap = metrics.snapshot();
        let (name, series) = &snap.servables[0];
        assert_eq!(name, "test/m");
        assert_eq!(series.requests, 5);
        assert_eq!(series.cache_hits, 4);
        assert_eq!(series.request_latency.count, 5);
        // Only the one miss reaches the servable.
        assert_eq!(series.inference_latency.count, 1);
        // And the artifact renders exactly like a live run's.
        assert!(snap
            .render_prometheus()
            .contains("dlhub_servable_requests_total{servable=\"test/m\"} 5"));
    }

    #[test]
    fn percentiles_of_constant_series() {
        let series = vec![SimTime::from_millis(3.0); 10];
        let (p5, p50, p95) = percentiles(&series);
        assert_eq!(p5, p50);
        assert_eq!(p50, p95);
    }
}
