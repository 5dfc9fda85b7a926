//! Fig 7: makespan of 5,000 inferences at 1–32 replicas (§V-B4), on
//! the real broker → Task Manager → Parsl replica path of a `TestHub`.
//!
//! Paper: "when serving Inception requests, throughput increases
//! rapidly up to ∼15 replicas, after which subsequent replicas have
//! diminishing effect … servables that execute for shorter periods
//! benefit less from additional replicas, presumably because task
//! dispatch activities eventually come to dominate."
//!
//! That knee came from a 3 ms Parsl dispatch in front of a ~40 ms
//! Inception. Here the dispatch floor is microseconds, and on the
//! 2-vCPU reference guest a compute servable saturates the host at two
//! replicas whatever the dispatch path does. So the figure serves three
//! fixed-cost servables ([`dlhub_bench::testbed::fixed_cost`]: a sleep,
//! which holds a replica without a core) whose service times put the
//! knee — where the path's own cost per request binds — inside the
//! sweep, from [`CLIENTS`] closed-loop callers. The link constants do
//! not enter a makespan: every request pays them whatever the replica
//! count.
//!
//! Beside each measured knee (smallest replica count within 10 % of the
//! best makespan) the bin prints the control loop's predicted knee,
//! `autoscale::knee` over the servable's own dispatch sums.

use dlhub_bench::report::{print_table, shape_check, write_csv};
use dlhub_bench::testbed::fixed_cost;
use dlhub_core::autoscale::knee;
use dlhub_core::hub::TestHub;
use dlhub_core::servable::ModelType;
use dlhub_core::value::Value;
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use std::time::Duration;

const REPLICAS: [usize; 9] = [1, 2, 4, 6, 8, 12, 16, 24, 32];
/// `(name, service time in µs)`, shortest first.
const SERVABLES: [(&str, u64); 3] = [
    ("sleep-100us", 100),
    ("sleep-200us", 200),
    ("sleep-400us", 400),
];
const CLIENTS: usize = 32;
/// Inferences per replica count, as in the paper.
const REQUESTS: usize = 5_000;

/// Makespan of [`REQUESTS`] calls to `id`, split over [`CLIENTS`]
/// closed-loop threads.
fn makespan(hub: &TestHub, id: &str) -> Duration {
    let start = Instant::now();
    thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                for i in (c..REQUESTS).step_by(CLIENTS) {
                    hub.service
                        .run(&hub.token, id, Value::Int(i as i64))
                        .expect("fixed-cost run");
                }
            });
        }
    });
    start.elapsed()
}

/// One concurrent request per replica, so every replica of a freshly
/// resized pool has run once before the timed makespan.
fn warm(hub: &TestHub, id: &str, replicas: usize) {
    thread::scope(|s| {
        for i in 0..replicas {
            s.spawn(move || {
                hub.service
                    .run(&hub.token, id, Value::Int(-(i as i64) - 1))
                    .expect("warm-up run")
            });
        }
    });
}

/// The smallest replica count whose makespan is within 10 % of the
/// best one: where extra replicas stop paying.
fn measured_knee(series: &[(usize, Duration)]) -> Option<usize> {
    let best = series.iter().map(|(_, m)| *m).min()?;
    series
        .iter()
        .find(|(_, m)| m.as_secs_f64() <= best.as_secs_f64() * 1.10)
        .map(|(r, _)| *r)
}

/// Throughput gain of each doubling, `(r, tput(2r) / tput(r))`: 2.0
/// is linear scaling, 1.0 is none. Counts whose double is not in the
/// series are skipped.
fn doubling_gains(series: &[(usize, Duration)]) -> Vec<(usize, f64)> {
    series
        .iter()
        .filter_map(|(r, m)| {
            let (_, doubled) = series.iter().find(|(r2, _)| *r2 == 2 * r)?;
            Some((*r, m.as_secs_f64() / doubled.as_secs_f64()))
        })
        .collect()
}

fn main() {
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(false)
        .build();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // (name, measured knee, predicted knee, dispatch sums, doubling gains)
    let mut results = Vec::new();
    for (name, micros) in SERVABLES {
        let id = hub.publish_simple(
            name,
            ModelType::PythonFunction,
            fixed_cost(Duration::from_micros(micros)),
        );
        let mut series = Vec::new();
        for r in REPLICAS {
            hub.parsl.scale(&id, r);
            warm(&hub, &id, r);
            let m = makespan(&hub, &id);
            let throughput = REQUESTS as f64 / m.as_secs_f64();
            rows.push(vec![
                name.to_string(),
                r.to_string(),
                format!("{:.1}", m.as_secs_f64() * 1e3),
                format!("{throughput:.0}"),
            ]);
            csv.push(vec![
                name.to_string(),
                r.to_string(),
                (m.as_secs_f64() * 1e3).to_string(),
                throughput.to_string(),
            ]);
            series.push((r, m));
        }
        let cost = hub
            .service
            .obs()
            .metrics
            .series(&id)
            .dispatch
            .cost()
            .expect("the sweep dispatched");
        results.push((
            name,
            measured_knee(&series),
            knee(&cost, 32),
            cost,
            doubling_gains(&series),
        ));
    }

    print_table(
        &format!("Fig 7: makespan of {REQUESTS} inferences vs replica count ({CLIENTS} closed-loop clients)"),
        &["servable", "replicas", "makespan ms", "req/s"],
        &rows,
    );
    let path = write_csv(
        "fig7.csv",
        &["servable", "replicas", "makespan_ms", "throughput_rps"],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nknees: measured (within 10% of the best makespan) vs autoscale::knee over the dispatch sums:");
    for (name, measured, predicted, cost, gains) in &results {
        let gains: Vec<String> = gains
            .iter()
            .map(|(r, g)| format!("{r}->{}: {g:.2}x", 2 * r))
            .collect();
        println!(
            "  {name:<12} inference {:>6.1} us  dispatch floor {:>4.1} us  measured knee {:>2}  autoscale::knee {:>2}  [{}]",
            cost.inference().as_secs_f64() * 1e6,
            cost.overhead_floor().as_secs_f64() * 1e6,
            measured.map_or_else(|| "-".into(), |k| k.to_string()),
            predicted,
            gains.join(", ")
        );
    }

    println!("\nshape checks against the paper:");
    let result = |name: &str| results.iter().find(|res| res.0 == name).unwrap();
    let gain = |name: &str, r: usize| {
        result(name)
            .4
            .iter()
            .find(|(from, _)| *from == r)
            .map_or(0.0, |(_, g)| *g)
    };
    let knee_of = |name: &str| result(name).1.unwrap_or(usize::MAX);
    let (short, long) = (SERVABLES[0].0, SERVABLES[2].0);
    shape_check(
        &format!(
            "throughput rises rapidly at first: every servable's 1->2 doubling gains >= 1.7x ({})",
            SERVABLES
                .iter()
                .map(|(n, _)| format!("{:.2}x", gain(n, 1)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        SERVABLES.iter().all(|(n, _)| gain(n, 1) >= 1.7),
    );
    shape_check(
        &format!(
            "the longest servable keeps scaling to 16 replicas (paper: Inception to ~15): {long}'s doublings 1->16 each gain >= 1.7x ({})",
            [1, 2, 4, 8]
                .map(|r| format!("{:.2}x", gain(long, r)))
                .join(", ")
        ),
        [1, 2, 4, 8].iter().all(|r| gain(long, *r) >= 1.7),
    );
    shape_check(
        &format!(
            "diminishing returns: {short}'s 16->32 doubling gains < 1.3x and less than its 1->2 ({:.2}x vs {:.2}x)",
            gain(short, 16),
            gain(short, 1)
        ),
        gain(short, 16) < 1.3 && gain(short, 16) < gain(short, 1),
    );
    shape_check(
        &format!(
            "shorter servables saturate earlier: measured knees {}, the shortest inside the sweep",
            SERVABLES
                .iter()
                .map(|(n, _)| format!("{n} {}", knee_of(n)))
                .collect::<Vec<_>>()
                .join(" <= ")
        ),
        SERVABLES
            .windows(2)
            .all(|w| knee_of(w[0].0) <= knee_of(w[1].0))
            && knee_of(short) < knee_of(long)
            && knee_of(short) < 32,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(makespans_ms: &[(usize, u64)]) -> Vec<(usize, Duration)> {
        makespans_ms
            .iter()
            .map(|(r, ms)| (*r, Duration::from_millis(*ms)))
            .collect()
    }

    #[test]
    fn the_knee_is_the_first_count_within_ten_percent_of_the_best() {
        // Linear to 4, flat after: the knee is 4, not the best (16).
        let flat = series(&[(1, 800), (2, 400), (4, 205), (8, 200), (16, 199)]);
        assert_eq!(measured_knee(&flat), Some(4));
        // Linear all the way: the knee is the last count.
        let linear = series(&[(1, 800), (2, 400), (4, 200), (8, 100)]);
        assert_eq!(measured_knee(&linear), Some(8));
        assert_eq!(measured_knee(&[]), None);
    }

    #[test]
    fn doubling_gains_tell_linear_scaling_from_a_knee() {
        let linear = series(&[(1, 800), (2, 400), (4, 200), (8, 100)]);
        let gains = doubling_gains(&linear);
        assert_eq!(gains.len(), 3);
        assert!(gains.iter().all(|(_, g)| (*g - 2.0).abs() < 1e-9));
        // Comparing a 4x step with a 2x step passes on linear scaling;
        // per-doubling gains fall only past a knee.
        let knee = series(&[(1, 800), (2, 400), (4, 300), (8, 290)]);
        let gains = doubling_gains(&knee);
        assert_eq!(gains[0], (1, 2.0));
        assert!((gains[1].1 - 4.0 / 3.0).abs() < 1e-9);
        assert!(gains[2].1 < 1.05);
        // A count whose double is not in the series has no gain.
        assert!(doubling_gains(&series(&[(1, 10), (3, 5)])).is_empty());
    }
}
