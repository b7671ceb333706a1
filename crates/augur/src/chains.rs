//! Multi-chain execution.
//!
//! The paper contrasts two parallelism strategies: "Jags and Stan support
//! parallel MCMC by running multiple copies of a chain in parallel. In
//! contrast, AugurV2 supports parallel MCMC by parallelizing the
//! computations within a single chain" (§7.2). Both are useful; this
//! module adds the across-chains mode to the compiled sampler — each
//! chain is an independently seeded build of the same compiled model, so
//! chains can also feed convergence diagnostics (split-R̂).
//!
//! The entry point is [`ChainPlan`]: all chains fan out over **one**
//! shared [`Plan`](crate::Plan) — one compile, N sessions — so adding
//! chains costs sessions (each copies the plan's cell arena and shares
//! its bound data), never recompiles:
//!
//! ```no_run
//! # use augur::{Model, HostValue, chains::ChainPlan};
//! # let model = Model::compile("(N) => {
//! #     param p ~ Beta(1.0, 1.0) ;
//! #     data y[n] ~ Bernoulli(p) for n <- 0 until N ;
//! # }")?;
//! let plan = model.plan(
//!     vec![HostValue::Int(2)],
//!     vec![("y", HostValue::VecF(vec![1.0, 0.0]))],
//! )?;
//! let chains = ChainPlan::new(&plan)
//!     .chains(4)
//!     .sweeps(1500)
//!     .record(&["p"])
//!     .run()?;
//! let pooled = chains.pooled_mean("p", 0)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use augur_backend::checkpoint::CheckpointError;
use augur_backend::par::Pool;
use augur_backend::Plan;

use crate::{Error, SessionConfig};

/// The result of a multi-chain run.
#[derive(Debug, Clone)]
pub struct Chains {
    /// Per-chain, per-sweep recordings: `chains[c][s][param]`.
    pub draws: Vec<Vec<HashMap<String, Vec<f64>>>>,
    /// Per-chain execution profiles, in chain order (one per chain; see
    /// [`augur_backend::Profile`]). Work counters are populated only when
    /// the run's `SessionConfig::timers` was on.
    pub profiles: Vec<augur_backend::Profile>,
}

impl Chains {
    /// Number of chains.
    pub fn num_chains(&self) -> usize {
        self.draws.len()
    }

    /// Extracts one scalar trace per chain: component `index` of `param`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotRecorded`] if the parameter was not in the
    /// recorded set, or [`Error::OutOfRange`] if `index` exceeds its
    /// length.
    pub fn traces(&self, param: &str, index: usize) -> Result<Vec<Vec<f64>>, Error> {
        self.draws
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .map(|snap| {
                        let vals = snap
                            .get(param)
                            .ok_or_else(|| Error::NotRecorded { param: param.to_owned() })?;
                        vals.get(index).copied().ok_or_else(|| Error::OutOfRange {
                            param: param.to_owned(),
                            index,
                            len: vals.len(),
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// Pooled posterior mean of one scalar component across all chains.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Chains::traces`].
    pub fn pooled_mean(&self, param: &str, index: usize) -> Result<f64, Error> {
        let traces = self.traces(param, index)?;
        let total: f64 = traces.iter().flatten().sum();
        let count: usize = traces.iter().map(Vec::len).sum();
        Ok(total / count.max(1) as f64)
    }

    /// Convergence diagnostics for every recorded scalar component:
    /// effective sample size (summed across chains) and split-R̂, in
    /// parameter-name order. The diagnostics-first companion to the
    /// per-session run report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoChains`] when nothing was run or recorded, and
    /// [`Error::ShortChain`] when chains are too short for split-R̂
    /// (fewer than 4 draws).
    pub fn report(&self) -> Result<ChainsReport, Error> {
        let first = self.draws.first().and_then(|chain| chain.first()).ok_or(Error::NoChains)?;
        let mut names: Vec<(String, usize)> =
            first.iter().map(|(name, vals)| (name.clone(), vals.len())).collect();
        names.sort();
        let mut params = Vec::new();
        for (name, len) in names {
            for index in 0..len {
                let traces = self.traces(&name, index)?;
                let ess = traces.iter().map(|t| crate::diag::ess(t)).sum();
                let split_rhat = crate::diag::split_rhat(&traces)?;
                params.push(ParamDiag { name: name.clone(), index, ess, split_rhat });
            }
        }
        Ok(ChainsReport { params })
    }

    /// Aggregated execution profile across all chains: per-step work and
    /// wall time summed element-wise (chains share one schedule, so step
    /// labels line up), metadata taken from chain 0. Returns `None` when
    /// nothing was run.
    ///
    /// Because each chain's work counters are deterministic, the work
    /// portion of the aggregate's [`augur_backend::Profile::digest`] is
    /// reproducible at any [`ChainPlan::threads`] count.
    pub fn profile(&self) -> Option<augur_backend::Profile> {
        let mut it = self.profiles.iter();
        let mut total = it.next()?.clone();
        for p in it {
            total.absorb(p);
        }
        Some(total)
    }
}

/// Per-component convergence diagnostics of one recorded parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDiag {
    /// The recorded parameter.
    pub name: String,
    /// The flat component index within the parameter.
    pub index: usize,
    /// Effective sample size, summed across chains.
    pub ess: f64,
    /// Gelman–Rubin split-R̂ across all chains (near 1 = converged).
    pub split_rhat: f64,
}

/// Diagnostics for every recorded scalar component of a multi-chain run
/// (see [`Chains::report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainsReport {
    /// One entry per recorded scalar component, ordered by parameter
    /// name, then component index.
    pub params: Vec<ParamDiag>,
}

impl ChainsReport {
    /// The diagnostics of component `index` of `param`, if recorded.
    pub fn param(&self, param: &str, index: usize) -> Option<&ParamDiag> {
        self.params.iter().find(|p| p.name == param && p.index == index)
    }

    /// The largest split-R̂ across all components — the single number to
    /// check first (near 1 = every recorded component converged).
    pub fn max_split_rhat(&self) -> Option<f64> {
        self.params.iter().map(|p| p.split_rhat).fold(None, |acc, r| {
            Some(match acc {
                Some(a) if a >= r => a,
                _ => r,
            })
        })
    }
}

impl fmt::Display for ChainsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24} {:>10} {:>10}", "parameter", "ess", "split-Rhat")?;
        for p in &self.params {
            writeln!(
                f,
                "{:<24} {:>10.1} {:>10.4}",
                format!("{}[{}]", p.name, p.index),
                p.ess,
                p.split_rhat
            )?;
        }
        Ok(())
    }
}

/// Builder for a multi-chain run over one shared, already-specialized
/// [`Plan`] — the lifecycle-native fan-out: one compile, N sessions.
///
/// Chains are embarrassingly parallel by construction: each is an
/// independently seeded [`crate::Session`] bound to the same plan, with
/// its seed derived from the base config's seed, so a run is
/// reproducible end to end — at any [`ChainPlan::threads`] count, since
/// results are collected in chain order regardless of completion order.
#[derive(Debug)]
pub struct ChainPlan<'a> {
    plan: &'a Plan,
    config: Option<SessionConfig>,
    n_chains: usize,
    sweeps: usize,
    record: Vec<&'a str>,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
}

impl<'a> ChainPlan<'a> {
    /// Starts a run over the given plan. Defaults: 4 chains, 1000
    /// sweeps, nothing recorded, one thread, default session config.
    pub fn new(plan: &'a Plan) -> ChainPlan<'a> {
        ChainPlan {
            plan,
            config: None,
            n_chains: 4,
            sweeps: 1000,
            record: Vec::new(),
            threads: 1,
            checkpoint_dir: None,
        }
    }

    /// Overrides the session configuration for every chain (per-chain
    /// seeds are still derived from its seed).
    #[must_use]
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Number of independently seeded chains (default 4).
    #[must_use]
    pub fn chains(mut self, n: usize) -> Self {
        self.n_chains = n;
        self
    }

    /// Sweeps per chain (default 1000).
    #[must_use]
    pub fn sweeps(mut self, n: usize) -> Self {
        self.sweeps = n;
        self
    }

    /// Parameters to record after each sweep.
    #[must_use]
    pub fn record(mut self, params: &[&'a str]) -> Self {
        self.record = params.to_vec();
        self
    }

    /// Number of worker threads chains are fanned across (default 1;
    /// `0` = one per available core). Results are identical at every
    /// thread count: chain seeds depend only on the chain index, and
    /// draws are collected in chain order.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = resolve_threads(n);
        self
    }

    /// Periodically checkpoints every chain into `dir` (one
    /// `chain-<c>.ckpt` file per chain, cadence from the config's
    /// `checkpoint_every`). A killed run restarts from those files with
    /// [`ChainPlan::resume_dir`].
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Binds and runs every chain as a session over the shared plan,
    /// fanned across the configured worker threads. A chain that panics
    /// is isolated to a typed error rather than unwinding through the
    /// caller.
    ///
    /// # Errors
    ///
    /// Returns the first (by chain index) build or run error.
    pub fn run(self) -> Result<Chains, Error> {
        let base = self.config.unwrap_or_default();
        fan_chains(FanSpec {
            plan: self.plan,
            base: &base,
            n_chains: self.n_chains,
            sweeps: self.sweeps,
            record: &self.record,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir.as_deref(),
            resume: false,
        })
    }

    /// Resumes every chain from `dir/chain-<c>.ckpt` (written by a prior
    /// run with [`ChainPlan::checkpoint_dir`]) and continues each to the
    /// configured total sweep count. The returned draws cover only the
    /// post-resume sweeps, and are byte-identical to the same sweeps of
    /// an uninterrupted run at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Checkpoint`] if a chain's file is missing or does
    /// not match, plus the usual build/run errors.
    pub fn resume_dir(mut self, dir: impl Into<PathBuf>) -> Result<Chains, Error> {
        self.checkpoint_dir = Some(dir.into());
        let base = self.config.unwrap_or_default();
        fan_chains(FanSpec {
            plan: self.plan,
            base: &base,
            n_chains: self.n_chains,
            sweeps: self.sweeps,
            record: &self.record,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir.as_deref(),
            resume: true,
        })
    }
}

/// The seed of chain `chain` in a fan-out whose base config seed is
/// `base`: a golden-ratio stride keeps per-chain RNG streams distinct
/// while remaining a pure function of `(base, chain)`. Exported so other
/// fan-out surfaces (e.g. the serving layer) reproduce [`ChainPlan`]
/// runs byte-for-byte.
pub fn chain_seed(base: u64, chain: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chain as u64 + 1))
}

/// `0` = one thread per available core.
fn resolve_threads(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        n => n,
    }
}

/// Everything one multi-chain fan-out needs, borrowed from the builder.
struct FanSpec<'a> {
    plan: &'a Plan,
    base: &'a SessionConfig,
    n_chains: usize,
    sweeps: usize,
    record: &'a [&'a str],
    threads: usize,
    checkpoint_dir: Option<&'a Path>,
    resume: bool,
}

/// The shared fan-out: N sessions over one plan, each independently
/// seeded, fanned across worker threads, collected in chain order.
fn fan_chains(spec: FanSpec<'_>) -> Result<Chains, Error> {
    let FanSpec { plan, base, n_chains, sweeps, record, threads, checkpoint_dir, resume } = spec;
    if let (Some(dir), false) = (checkpoint_dir, resume) {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::Checkpoint(CheckpointError::Io {
                path: dir.display().to_string(),
                detail: e.to_string(),
            })
        })?;
    }
    // Sessions hold non-`Send` trait objects, so each chain's session is
    // bound, initialized (or resumed), and run entirely inside its
    // worker job; the shared `Plan` crosses threads by reference (its
    // artifact is immutable) and only the recorded draws come back.
    type ChainOut = (Vec<HashMap<String, Vec<f64>>>, augur_backend::Profile);
    let run_one = |c: usize| -> Result<ChainOut, Error> {
        let mut chain_cfg = base.clone();
        chain_cfg.seed = chain_seed(base.seed, c);
        let ckpt: Option<PathBuf> = checkpoint_dir.map(|d| chain_file(d, c));
        chain_cfg.checkpoint_path = ckpt.clone();
        let mut session = plan.session(chain_cfg)?;
        let done = if resume {
            let path = ckpt.as_ref().expect("resume_dir sets the directory");
            session.resume(path)? as usize
        } else {
            session.init()?;
            0
        };
        let remaining = sweeps.saturating_sub(done);
        let draws = session.sample(remaining, record)?;
        Ok((draws, session.profile()))
    };
    let results: Vec<Result<_, Error>> = if threads > 1 && n_chains > 1 {
        let pool = Pool::new(threads);
        let jobs = (0..n_chains)
            .map(|c| {
                let run_one = &run_one;
                Box::new(move || run_one(c)) as Box<dyn FnOnce() -> _ + Send + '_>
            })
            .collect();
        pool.try_scatter(jobs)
            .into_iter()
            .enumerate()
            .map(|(c, r)| {
                r.unwrap_or_else(|detail| {
                    Err(Error::WorkerPanic { kernel: format!("chain {c}"), detail })
                })
            })
            .collect()
    } else {
        (0..n_chains).map(run_one).collect()
    };
    let mut draws = Vec::with_capacity(n_chains);
    let mut profiles = Vec::with_capacity(n_chains);
    for r in results {
        let (d, p) = r?;
        draws.push(d);
        profiles.push(p);
    }
    Ok(Chains { draws, profiles })
}

/// The checkpoint file of chain `c` inside `dir`.
fn chain_file(dir: &Path, c: usize) -> PathBuf {
    dir.join(format!("chain-{c}.ckpt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostValue;

    #[test]
    fn chains_differ_but_agree_in_distribution() {
        let model = crate::Model::compile(
            "(N, tau2, s2) => {
                param m ~ Normal(0.0, tau2) ;
                data y[n] ~ Normal(m, s2) for n <- 0 until N ;
            }",
        )
        .unwrap();
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let plan = model
            .plan(
                vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
                vec![("y", HostValue::VecF(data.clone()))],
            )
            .unwrap();
        let chains = ChainPlan::new(&plan).chains(4).sweeps(1500).record(&["m"]).run().unwrap();
        assert_eq!(chains.num_chains(), 4);
        // all four chains bound sessions off the one specialization
        assert_eq!(model.cache_stats().misses, 1);
        let traces = chains.traces("m", 0).unwrap();
        // distinct seeds ⇒ distinct paths
        assert_ne!(traces[0][..20], traces[1][..20]);
        // pooled mean matches the analytic posterior mean
        let sum: f64 = data.iter().sum();
        let (post_mu, _) = augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        assert!((chains.pooled_mean("m", 0).unwrap() - post_mu).abs() < 0.05);
    }

    #[test]
    fn threaded_chains_match_sequential() {
        let model = crate::Model::compile(
            "(N) => {
                param p ~ Beta(1.0, 1.0) ;
                data y[n] ~ Bernoulli(p) for n <- 0 until N ;
            }",
        )
        .unwrap();
        let plan = model
            .plan(vec![HostValue::Int(2)], vec![("y", HostValue::VecF(vec![1.0, 0.0]))])
            .unwrap();
        let run = |threads: usize| {
            ChainPlan::new(&plan).chains(3).sweeps(5).record(&["p"]).threads(threads).run().unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.draws, run(2).draws);
        assert_eq!(seq.draws, run(8).draws);
    }
}
