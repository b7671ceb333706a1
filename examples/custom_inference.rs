//! Programmable inference: the `Prop (Maybe α)` family.
//!
//! The Kernel IL's `Prop` update takes an *optional* user proposal
//! (Fig. 5). This example runs the same Gamma–Poisson posterior three
//! ways and compares effective-sample rates:
//!
//! * `MH r` with the built-in random-walk proposal (`Prop Nothing`),
//! * `MH r` with a user-supplied multiplicative proposal
//!   (`Prop (Just α)`, registered via `Session::set_proposal`),
//! * `MALA r` — the gradient-drifted update added as the §7.1
//!   extensibility exercise.
//!
//! Run with: `cargo run --release --example custom_inference`

use augur::diag;
use augur::prelude::*;
use augur_backend::mcmc::Proposal;

const MODEL: &str = "(N, a, b) => {
    param r ~ Gamma(a, b) ;
    data c[n] ~ Poisson(r) for n <- 0 until N ;
}";

/// Multiplicative log-normal proposal with its Hastings correction.
#[derive(Debug)]
struct LogRandomWalk {
    scale: f64,
}

impl Proposal for LogRandomWalk {
    fn propose(
        &mut self,
        rng: &mut augurv2::augur_dist::Prng,
        current: &[f64],
        out: &mut [f64],
    ) -> f64 {
        let mut correction = 0.0;
        for (o, &x) in out.iter_mut().zip(current) {
            let f = (self.scale * rng.std_normal()).exp();
            *o = x * f;
            correction += f.ln();
        }
        correction
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let counts = vec![3.0, 5.0, 4.0, 2.0, 6.0, 4.0, 3.0, 5.0];
    let sum: f64 = counts.iter().sum();
    let (a, b) = (2.0, 1.0);
    let post_mean = (a + sum) / (b + counts.len() as f64);
    println!("analytic posterior mean: {post_mean:.3}\n");

    let run = |label: &str, sched: &str, custom: bool, mcmc: McmcConfig| {
        let model = Model::with_schedule(MODEL, sched).expect("model parses");
        let plan = model
            .plan(
                vec![HostValue::Int(counts.len() as i64), HostValue::Real(a), HostValue::Real(b)],
                vec![("c", HostValue::VecF(counts.clone()))],
            )
            .expect("model plans");
        let mut s =
            plan.session(SessionConfig { mcmc, ..Default::default() }).expect("session binds");
        if custom {
            s.set_proposal(0, Box::new(LogRandomWalk { scale: 0.4 }));
        }
        s.init().unwrap();
        let t0 = std::time::Instant::now();
        let mut trace = Vec::with_capacity(8000);
        for _ in 0..8000 {
            s.sweep();
            trace.push(s.param("r").unwrap()[0]);
        }
        let secs = t0.elapsed().as_secs_f64();
        let mean: f64 = trace.iter().sum::<f64>() / trace.len() as f64;
        println!(
            "{label:22} mean {mean:.3}  acceptance {:.2}  ESS/s {:.0}",
            s.acceptance_rate(0),
            diag::ess_per_sec(&trace, secs)
        );
    };

    run("MH (random walk)", "MH r", false, McmcConfig { mh_step: 0.3, ..Default::default() });
    run("MH (custom proposal)", "MH r", true, McmcConfig::default());
    run("MALA", "MALA r", false, McmcConfig { step_size: 0.15, ..Default::default() });
    Ok(())
}
