//! Open-loop accounting against synthetic handlers: latency counts from
//! each request's due time, so a late generator shows up in latency and
//! in its own lag.

use std::time::{Duration, Instant};

use augur_perfbench::serve::{closed_loop, closed_rates, open_loop, slope, Closed, Target, Tick};
use augur_perfbench::timing::{Reference, REF_NOMINAL_SECS};
use augur_perfbench::trace::Tracer;

/// Completes every request `service` after it was sent; each `submit`
/// call itself takes `submit_cost`.
struct Synthetic {
    service: Duration,
    submit_cost: Duration,
}

impl Target for Synthetic {
    type Ticket = Instant;

    fn submit(&mut self, _i: usize) -> Instant {
        std::thread::sleep(self.submit_cost);
        Instant::now()
    }

    fn poll(&mut self, sent: &Instant) -> Option<bool> {
        (sent.elapsed() >= self.service).then_some(true)
    }
}

const MS: f64 = 1e-3;

#[test]
fn an_on_time_generator_measures_the_service_time() {
    let mut t = Synthetic {
        service: Duration::from_millis(5),
        submit_cost: Duration::ZERO,
    };
    let dues: Vec<f64> = (0..10).map(|i| i as f64 * 20.0 * MS).collect();
    let step = open_loop(&mut t, &dues, &Tracer::new(false));
    assert_eq!(step.sent.len(), 10);
    for s in &step.sent {
        assert!(s.ok);
        assert!(s.lag() < 3.0 * MS, "lag {}", s.lag());
        assert!(
            s.latency() >= 5.0 * MS && s.latency() < 10.0 * MS,
            "latency {}",
            s.latency()
        );
    }
}

#[test]
fn a_slow_generator_charges_its_lateness_to_later_requests() {
    // Five requests all due at once; each send takes 10 ms, so request k
    // leaves about 10k ms late and its latency includes that wait.
    let mut t = Synthetic {
        service: Duration::from_millis(20),
        submit_cost: Duration::from_millis(10),
    };
    let step = open_loop(&mut t, &[0.0; 5], &Tracer::new(false));
    for (k, s) in step.sent.iter().enumerate() {
        let expected_lag = k as f64 * 10.0 * MS;
        assert!(
            s.lag() >= expected_lag - 1.0 * MS,
            "request {k}: lag {}",
            s.lag()
        );
        assert!(
            s.latency() >= s.lag() + 30.0 * MS - 1.0 * MS,
            "request {k}: latency {}",
            s.latency()
        );
    }
    // the in-flight count only grows while the generator catches up
    assert!(step.backlog_slope > 0.0);
}

#[test]
fn closed_loop_keeps_the_concurrency_and_counts_completions() {
    let mut t = Synthetic {
        service: Duration::from_millis(10),
        submit_cost: Duration::ZERO,
    };
    let rec = closed_loop(&mut t, 4, 0.2, &Reference::new());
    let done = &rec.done;
    // 4 in flight for 0.2 s at 10 ms each: at most 80 completions inside
    // the phase; the drained tail is not counted
    assert!(
        (60..=80).contains(&done.len()),
        "{} completions",
        done.len()
    );
    assert!(done.windows(2).all(|w| w[0].0 <= w[1].0));
    assert!(done.iter().all(|&(t, _)| t < 0.2));
    // every request index is answered at most once
    let mut ids: Vec<usize> = done.iter().map(|d| d.1).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), done.len());
    // a reference pass at the start, about every REF_EVERY_SECS after,
    // and one as the phase closes
    let ticks = &rec.ticks;
    assert!((3..=7).contains(&ticks.len()), "{} passes", ticks.len());
    assert!(ticks.last().unwrap().at >= 0.2);
    assert!(ticks
        .windows(2)
        .all(|w| w[0].at < w[1].at && w[0].cpu <= w[1].cpu));
}

#[test]
fn closed_rates_count_work_per_window_after_the_warm_up() {
    // Ticks every 0.1 s for 1.5 s; each tick interval burned 0.05 CPU
    // seconds plus the pass itself, at nominal host speed; one request
    // finished every 0.05 s.
    let ticks: Vec<Tick> = (0..=15)
        .map(|k| Tick {
            at: k as f64 * 0.1,
            cpu: k as f64 * (0.05 + REF_NOMINAL_SECS),
            ref_secs: REF_NOMINAL_SECS,
        })
        .collect();
    let closed = Closed {
        done: (0..30).map(|i| (i as f64 * 0.05 + 0.01, i)).collect(),
        ticks,
    };
    // even-numbered requests weigh 2, odd ones 0: 2 units per 0.1 s
    let (adjusted, raw) = closed_rates(&closed, 0.5, |i| if i % 2 == 0 { 2 } else { 0 });
    // windows [0.5, 1.0) and [1.0, 1.5); [0, 0.5) is warm-up
    assert_eq!(raw.len(), 2);
    for (a, r) in adjusted.iter().zip(&raw) {
        assert!((r - 20.0).abs() < 1e-6, "per wall second {r}");
        assert!((a - 40.0).abs() < 1e-6, "per CPU-second {a}");
    }
}

#[test]
fn backlog_slope_is_the_least_squares_fit() {
    let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
    assert!((slope(&pts) - 3.0).abs() < 1e-12);
    assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
}
