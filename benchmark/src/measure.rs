//! One run of one workload: set-up, the timed 2-client windows and, for
//! a per-layer run, the 1-client loops and the ladder.

use crate::host;
use crate::inputs::{OpStream, Workload};
use crate::ladder;
use crate::spans::{Recorder, Span};
use crate::stats::{
    highest, lowest, median, percentile, percentiles_us, quiet_windows, ratio, spread,
};
use crate::workload::{Bench, OpKind, Outcome, CLIENTS};
use dlhub_core::executor::Executor;
use dlhub_core::hub::TestHub;
use dlhub_core::memo::MemoStats;
use dlhub_queue::TopicStats;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One measurement window of the 2-client loop. The reference machine is
/// a guest on a busy host: with no change to the program its speed
/// wanders by a factor of 1.6 over seconds, and only ever downwards from
/// what the quiet machine does. So a run is cut into many short windows
/// and every end-to-end number is the best any one window reached: the
/// quiet-machine value, which repeats, where a mean or median over the
/// run follows the neighbours. A quarter of a second still puts more
/// than ten ops beyond a window's own p90 on the slowest workload
/// (`cifar-memo-zipf`, about 230 ops a window).
const WINDOW: Duration = Duration::from_millis(250);
/// Hubs built (and warmed) per end-to-end run, each measured for its
/// share of the windows, so the set-ups are spread over the run like
/// the windows are; `setup_s` is the quickest of them.
const SETUPS: usize = 10;
const TASK_TOPIC: &str = "dlhub.tasks";

pub type Metrics = Vec<(&'static str, f64)>;

/// How one run spends its `--seconds`.
struct Plan {
    hubs: usize,
    windows_per_hub: usize,
    /// The per-layer phases; `None` for an end-to-end run.
    layers: Option<LayerPlan>,
}

struct LayerPlan {
    unloaded: Duration,
    traced: Duration,
    ladder: Duration,
}

impl Plan {
    fn new(seconds: f64, trace: bool, quick: bool) -> Plan {
        let secs = Duration::from_secs_f64;
        // `--quick`: two windows and token per-layer phases, to check
        // the shape of the output only.
        let seconds = if quick { 1.0 } else { seconds };
        let layers = trace.then(|| LayerPlan {
            unloaded: secs(seconds * 0.15),
            traced: secs(seconds * 0.15),
            ladder: secs(seconds * 0.3),
        });
        // A per-layer run gives the windows 0.4 of its time, on one hub:
        // their numbers are not gated there.
        let hubs = if trace || quick { 1 } else { SETUPS };
        let share = if trace && !quick { 0.4 } else { 1.0 };
        let windows = seconds * share / WINDOW.as_secs_f64();
        Plan {
            hubs,
            windows_per_hub: ((windows / hubs as f64).round() as usize).max(1),
            layers,
        }
    }
}

/// One op as the loops keep it (an [`Outcome`] without the timings).
#[derive(Clone, Copy)]
struct Sample {
    kind: OpKind,
    ok: bool,
    cache_hit: bool,
    latency_ns: u64,
}

impl From<&Outcome> for Sample {
    fn from(o: &Outcome) -> Sample {
        Sample {
            kind: o.kind,
            ok: o.ok,
            cache_hit: o.cache_hit,
            latency_ns: o.latency_ns,
        }
    }
}

/// Every checked call of the run: `(what, attempted, failed)`.
#[derive(Default)]
struct Ledger(Vec<(&'static str, u64, u64)>);

impl Ledger {
    fn add(&mut self, what: &'static str, attempted: u64, failed: u64) {
        match self.0.iter_mut().find(|row| row.0 == what) {
            Some(row) => {
                row.1 += attempted;
                row.2 += failed;
            }
            None => self.0.push((what, attempted, failed)),
        }
    }

    fn add_samples(&mut self, samples: &[Sample]) {
        for s in samples {
            self.add(s.kind.name(), 1, u64::from(!s.ok));
        }
    }
}

/// One closed-loop client: issue the next op as soon as the previous
/// one returned, until `window` has passed.
fn client_loop(
    bench: &Bench,
    hub: &TestHub,
    stream: &mut OpStream,
    window: Duration,
    mut sink: impl FnMut(&Outcome),
) {
    let started = Instant::now();
    while started.elapsed() < window {
        sink(&bench.exec(hub, stream.next_op()));
    }
}

fn ok_nanos(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.latency_ns)
        .collect()
}

/// p50 in µs of the correct samples `keep` selects, 0 if none.
fn p50_us_of(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    percentiles_us(ok_nanos(samples, keep), &[0.5])[0]
}

/// An op that went all the way to a replica through `run`: what the
/// ladder's `serving.run` rung reproduces.
fn dispatched_single(s: &Sample) -> bool {
    s.kind == OpKind::Run && !s.cache_hit
}

/// The program's own counters, read from outside before and after the
/// timed windows.
struct Counters {
    memo: MemoStats,
    broker: TopicStats,
    dispatched: u64,
    cpu_seconds: f64,
}

impl Counters {
    fn read(hub: &TestHub) -> Counters {
        Counters {
            memo: hub.service.memo_stats(),
            broker: hub.broker.stats(TASK_TOPIC).expect("the task topic exists"),
            dispatched: hub.parsl.dispatched(),
            cpu_seconds: host::process_cpu_seconds(),
        }
    }

    /// What moved between `self` and `after`, over `ops` client ops.
    fn metrics_until(&self, after: &Counters, ops: f64) -> Metrics {
        let (m0, m1, b0, b1) = (&self.memo, &after.memo, &self.broker, &after.broker);
        let hits = (m1.hits - m0.hits) as f64;
        let lookups = hits + (m1.misses - m0.misses) as f64;
        // `mean_wait` is a mean since the topic was made; weigh it by
        // deliveries to get the mean over the windows alone.
        let waited = |s: &TopicStats| s.mean_wait().as_secs_f64() * 1e6 * s.delivered as f64;
        vec![
            ("memo.hit_ratio", ratio(hits, lookups)),
            (
                "memo.evictions_per_kop",
                ratio((m1.evictions - m0.evictions) as f64 * 1e3, ops),
            ),
            (
                "broker.mean_wait_us",
                ratio(
                    waited(b1) - waited(b0),
                    (b1.delivered - b0.delivered) as f64,
                ),
            ),
            (
                "broker.redelivered",
                (b1.redelivered - b0.redelivered) as f64,
            ),
            ("broker.dropped", (b1.dropped - b0.dropped) as f64),
            (
                "broker.dead_lettered",
                (b1.dead_lettered - b0.dead_lettered) as f64,
            ),
            (
                "executor.dispatched_per_op",
                ratio((after.dispatched - self.dispatched) as f64, ops),
            ),
            // Busy time, all threads: unlike the wall-clock numbers it
            // does not move when a core sleeps or the host steals time.
            (
                "process.cpu_us_per_op",
                ratio((after.cpu_seconds - self.cpu_seconds) * 1e6, ops),
            ),
        ]
    }
}

/// Per-window statistics of the timed 2-client windows.
#[derive(Default)]
struct Windows {
    /// The CPU the run is confined to, whose stolen time is read.
    cpu: Option<usize>,
    keep_samples: bool,
    rps: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    /// Share of the CPU's time the host took away, per window.
    steal: Vec<f64>,
    /// Every sample, kept by a per-layer run only: an end-to-end run's
    /// `peak_rss_mb` must not grow with the number of ops it completed.
    samples: Vec<Sample>,
}

/// `count` more windows of `CLIENTS` closed-loop clients side by side,
/// spans off.
fn timed_windows(
    bench: &Bench,
    hub: &TestHub,
    streams: &mut [OpStream],
    count: usize,
    out: &mut Windows,
    ledger: &mut Ledger,
) {
    // One buffer per client, reused by every window.
    let mut buffers: Vec<Vec<Sample>> = vec![Vec::new(); CLIENTS];
    for _ in 0..count {
        let barrier = Barrier::new(CLIENTS + 1);
        let (ticks_before, stolen_before) = host::cpu_ticks(out.cpu);
        let elapsed = std::thread::scope(|scope| {
            for (stream, samples) in streams.iter_mut().zip(&mut buffers) {
                let barrier = &barrier;
                scope.spawn(move || {
                    samples.clear();
                    barrier.wait();
                    client_loop(bench, hub, stream, WINDOW, |o| samples.push(o.into()));
                });
            }
            barrier.wait();
            let started = Instant::now();
            // Leaving the scope joins the clients.
            started
        })
        .elapsed();
        let (ticks_after, stolen_after) = host::cpu_ticks(out.cpu);
        out.steal.push(ratio(
            stolen_after - stolen_before,
            ticks_after - ticks_before,
        ));
        for samples in &buffers {
            ledger.add_samples(samples);
            if out.keep_samples {
                out.samples.extend_from_slice(samples);
            }
        }
        // A failed op counts towards neither throughput nor latency, and
        // a window in which every op failed has no latency to report.
        let nanos: Vec<u64> = buffers
            .iter()
            .flat_map(|samples| ok_nanos(samples, |_| true))
            .collect();
        if nanos.is_empty() {
            continue;
        }
        out.rps.push(nanos.len() as f64 / elapsed.as_secs_f64());
        let tail = percentiles_us(nanos, &[0.5, 0.9, 0.99]);
        out.p50.push(tail[0]);
        out.p90.push(tail[1]);
        out.p99.push(tail[2]);
    }
}

/// One client, spans on: a root span around each public call and the
/// program-reported durations nested under it. Returns the samples and
/// the seconds the loop took.
fn traced_loop(
    bench: &Bench,
    hub: &TestHub,
    stream: &mut OpStream,
    window: Duration,
    rec: &mut Recorder,
) -> (Vec<Sample>, f64) {
    let mut samples: Vec<Sample> = Vec::new();
    let started = Instant::now();
    client_loop(bench, hub, stream, window, |o| {
        let end_ns = rec.now_ns();
        let root = rec.push(Span {
            name: match o.kind {
                OpKind::Run => "op.run",
                OpKind::Pipeline => "op.pipeline",
                OpKind::Batch => "op.batch",
                OpKind::Async => "op.async",
            },
            start_ns: end_ns.saturating_sub(o.latency_ns),
            end_ns,
            parent: None,
            op_id: samples.len() as u64,
        });
        for step in o.steps() {
            let nanos = |d: Duration| d.as_nanos() as u64;
            let request = rec.push_reported("serving.request", root, nanos(step.request));
            let invocation =
                rec.push_reported("task_manager.invocation", request, nanos(step.invocation));
            rec.push_reported("executor.inference", invocation, nanos(step.inference));
        }
        samples.push(o.into());
    });
    (samples, started.elapsed().as_secs_f64())
}

/// p50 of each program-reported duration, and each layer's share of the
/// summed request time. The shares are ratios of self-time sums over
/// single runs and pipeline steps, so the three add up to 1.
fn reported_metrics(rec: &Recorder) -> Metrics {
    let own = rec.self_times();
    let (mut total, mut own_total) = ([0.0; 3], [0.0; 3]);
    let names = [
        "serving.request",
        "task_manager.invocation",
        "executor.inference",
    ];
    for (span, own_ns) in rec.spans().iter().zip(&own) {
        if let Some(layer) = names.iter().position(|n| *n == span.name) {
            total[layer] += span.duration_ns() as f64;
            own_total[layer] += *own_ns as f64;
        }
    }
    let p50 = |name: &str| {
        let mut nanos = rec.durations(name);
        nanos.sort_unstable();
        percentile(&nanos, 0.5) as f64 / 1e3
    };
    vec![
        ("serving.reported_request_p50_us", p50(names[0])),
        ("task_manager.reported_invocation_p50_us", p50(names[1])),
        ("executor.reported_inference_p50_us", p50(names[2])),
        ("share.serving_queue", ratio(own_total[0], total[0])),
        ("share.task_manager_executor", ratio(own_total[1], total[0])),
        ("share.servable", ratio(own_total[2], total[0])),
    ]
}

pub struct Measured {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// The whole of one run.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Measured {
    let started = Instant::now();
    let plan = &Plan::new(seconds, trace, quick);
    // Inputs and oracle are the harness's own work: done on every CPU
    // the machine has, before the program under test is confined to one.
    let bench = Bench::prepare(workload, seed, quick);
    println!(
        "workload {} seed {seed} input_fingerprint {:016x} (inputs and oracle took {:.1} s)",
        workload.name(),
        bench.inputs.fingerprint(),
        started.elapsed().as_secs_f64()
    );
    let cpu = host::pin_to_one_cpu();
    match cpu {
        Some(cpu) => println!("confined to cpu {cpu}"),
        None => println!("could not confine the process to one cpu: expect bimodal numbers"),
    }
    let mut ledger = Ledger::default();
    let mut streams: Vec<OpStream> = (0..CLIENTS as u64)
        .map(|c| bench.inputs.stream(c))
        .collect();

    // Each hub is set up, measured for its share of the windows and
    // dropped; the per-layer phases go on with the last one.
    let mut setup_secs = Vec::new();
    let mut windows = Windows {
        cpu,
        keep_samples: trace,
        ..Windows::default()
    };
    let mut last = None;
    let mut peak_rss_mb = None;
    for _ in 0..plan.hubs {
        drop(last.take());
        let setup = bench.setup();
        setup_secs.push(setup.seconds);
        ledger.add("warm-up", setup.warmup_ops, setup.warmup_failed);
        let hub = setup.hub;
        // Memory is read once the first hub has served a fixed number
        // of requests: the program keeps some bytes per request served,
        // so read at exit it would follow the run's throughput.
        if peak_rss_mb.is_none() {
            let failed = bench.fixed_work(&hub);
            ledger.add("fixed-work", bench.fixed_work_ops() as u64, failed);
            peak_rss_mb = Some(host::peak_rss_mb());
        }
        let before = Counters::read(&hub);
        timed_windows(
            &bench,
            &hub,
            &mut streams,
            plan.windows_per_hub,
            &mut windows,
            &mut ledger,
        );
        let after = Counters::read(&hub);
        last = Some((hub, before, after));
    }
    let (hub, before, after) = last.expect("a plan sets up at least once");
    println!(
        "set-ups and windows done {:.1} s into the run",
        started.elapsed().as_secs_f64()
    );
    println!(
        "window throughput_rps {:.1?}\nwindow p50_us {:.2?}\nwindow p90_us {:.2?}\nwindow steal_share {:.2?}\nsetup_s {:.4?}",
        windows.rps, windows.p50, windows.p90, windows.steal, setup_secs
    );
    let quiet = quiet_windows(&windows.rps);
    let lowest_quiet =
        |values: &[f64]| lowest(&quiet.iter().map(|&w| values[w]).collect::<Vec<_>>());

    let mut metrics: Metrics = vec![
        ("throughput_rps", highest(&windows.rps)),
        ("latency_p50_us", lowest_quiet(&windows.p50)),
        ("latency_p90_us", lowest_quiet(&windows.p90)),
        ("setup_s", lowest(&setup_secs)),
    ];
    if let Some(layers) = &plan.layers {
        let loaded = &windows.samples;
        let kind_p50 = |kind: OpKind| p50_us_of(loaded, |s| s.kind == kind);
        let any_hit = after.memo.hits > before.memo.hits;
        metrics.extend(before.metrics_until(&after, loaded.len() as f64));
        metrics.extend([
            ("client.loaded_p99_us", median(&windows.p99)),
            ("op.run_p50_us", kind_p50(OpKind::Run)),
            ("op.pipeline_p50_us", kind_p50(OpKind::Pipeline)),
            ("op.batch_p50_us", kind_p50(OpKind::Batch)),
            ("op.async_p50_us", kind_p50(OpKind::Async)),
            ("op.hit_p50_us", p50_us_of(loaded, |s| s.cache_hit)),
            // Only a workload with hits has a hit/miss split.
            (
                "op.miss_p50_us",
                if any_hit {
                    p50_us_of(loaded, dispatched_single)
                } else {
                    0.0
                },
            ),
            // What a median over the run reads, and how far the windows
            // disagree: how busy the host was, not how fast the program is.
            ("window.throughput_median_rps", median(&windows.rps)),
            ("window.p50_median_us", median(&windows.p50)),
            ("window.p90_median_us", median(&windows.p90)),
            ("window.throughput_spread", spread(&windows.rps)),
            ("window.p50_spread", spread(&windows.p50)),
            ("window.p90_spread", spread(&windows.p90)),
            (
                "host.steal_share",
                ratio(windows.steal.iter().sum(), windows.steal.len() as f64),
            ),
        ]);

        // One client, spans off: the unloaded reference.
        let mut unloaded: Vec<Sample> = Vec::new();
        let started = Instant::now();
        client_loop(&bench, &hub, &mut streams[0], layers.unloaded, |o| {
            unloaded.push(o.into())
        });
        let unloaded_secs = started.elapsed().as_secs_f64();
        ledger.add_samples(&unloaded);
        let nanos = ok_nanos(&unloaded, |_| true);
        let unloaded_rps = nanos.len() as f64 / unloaded_secs;
        let tail = percentiles_us(nanos, &[0.5, 0.9]);
        metrics.extend([
            ("client.unloaded_p50_us", tail[0]),
            ("client.unloaded_p90_us", tail[1]),
            ("client.unloaded_rps", unloaded_rps),
            // Both sides as the whole loop saw them, neighbours included.
            (
                "client.scaling_2c_over_1c",
                ratio(median(&windows.rps), unloaded_rps),
            ),
        ]);

        let mut rec = Recorder::new();
        let (traced, traced_secs) =
            traced_loop(&bench, &hub, &mut streams[0], layers.traced, &mut rec);
        ledger.add_samples(&traced);
        let traced_rps = ok_nanos(&traced, |_| true).len() as f64 / traced_secs;
        metrics.extend(reported_metrics(&rec));
        metrics.push((
            "bench.trace_overhead_ratio",
            ratio(unloaded_rps, traced_rps),
        ));

        let report = ladder::run(&bench, &hub, &mut rec, layers.ladder);
        ledger.add("ladder", report.calls, report.failed);
        metrics.extend(report.metrics);
        metrics.extend([
            (
                "ladder.vs_live_ratio",
                ratio(
                    report.serving_run_p50_us,
                    p50_us_of(&unloaded, dispatched_single),
                ),
            ),
            ("bench.spans_recorded", rec.len() as f64),
        ]);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", workload.name()));
        match rec.write_json(&path, workload.name(), seed) {
            Ok(()) => println!("{} spans written to {}", rec.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    drop(hub);
    metrics.push(("peak_rss_mb", peak_rss_mb.unwrap_or_default()));

    for (what, attempted, failed) in &ledger.0 {
        println!(
            "{} {what}: attempted {attempted} failed {failed}",
            workload.name()
        );
    }
    Measured {
        metrics,
        attempted: ledger.0.iter().map(|row| row.1).sum(),
        failed: ledger.0.iter().map(|row| row.2).sum(),
    }
}
