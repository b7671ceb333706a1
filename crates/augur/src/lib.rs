//! **AugurV2-rs** — a Rust reproduction of *"Compiling Markov Chain Monte
//! Carlo Algorithms for Probabilistic Modeling"* (Huang, Tristan &
//! Morrisett, PLDI 2017).
//!
//! AugurV2 is a compiler from a `(model, query)` pair to a *composable
//! MCMC inference algorithm*: models are written in a small first-order
//! language for fixed-structure Bayesian networks, the query asks for
//! posterior samples given observed data, and the compiler derives —
//! through a sequence of intermediate languages — an executable sampler
//! for a CPU or (simulated) GPU target.
//!
//! ```text
//! surface model ──augur_lang──▶ typed AST
//!   ──augur_density──▶ Density IL + symbolic conditionals (§3)
//!   ──augur_kernel───▶ Kernel IL: (κ ku) ⊗ … with conditionals (§4.1–4.2)
//!   ──augur_low──────▶ Low++/Low--: parallel loops, AD, size inference (§4.3–5.2)
//!   ──augur_blk──────▶ Blk IL: parBlk/sumBlk + §5.4 optimizations
//!   ──augur_backend──▶ slot-resolved programs + MCMC runtime library
//! ```
//!
//! This crate is the user-facing entry point. The paper's Python
//! interface (Fig. 2) maps onto a three-stage **plan lifecycle**
//! (`Model` → `Plan` → `Session`) that mirrors how the compiler actually
//! specializes: the shape-generic phases run once per model, the
//! size-dependent phases once per data shape (memoized in a plan cache),
//! and a cheap executable session binds per chain:
//!
//! ```
//! use augur::{Model, SessionConfig, HostValue};
//!
//! // Part 1: data (Fig. 2 loads a file; here: inline observations)
//! let y = vec![1.2, 0.8, 1.0, 1.4, 0.6];
//!
//! // Part 2: invoke AugurV2 — compile once, specialize to the data,
//! // bind an executable session ("Gibbs m" is the user schedule;
//! // `Model::compile` picks the heuristic one).
//! let model = Model::with_schedule("(N, tau2, s2) => {
//!     param m ~ Normal(0.0, tau2) ;
//!     data y[n] ~ Normal(m, s2) for n <- 0 until N ;
//! }", "Gibbs m")?;
//! let plan = model.plan(
//!     vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
//!     vec![("y", HostValue::VecF(y))],
//! )?;
//! let mut session = plan.session(SessionConfig::default())?;
//! session.init()?;
//! let samples = session.sample(100, &["m"])?;
//! assert_eq!(samples.len(), 100);
//!
//! // Part 3: observability — what did every kernel of the sweep do?
//! let report = session.report();
//! assert_eq!(report.sweeps, 100);
//! assert_eq!(report.acceptance_rate("Gibbs Single(m)"), Some(1.0));
//!
//! // Planning the same data shape again is a cache hit: only state
//! // binding re-runs, the compiled tapes are shared.
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod chains;
pub mod diag;
pub mod error;

use augur_backend::driver::BuildError;
use augur_density::DensityModel;

pub use augur_backend::driver::{Session, SessionConfig, Target};
pub use augur_backend::mcmc::McmcConfig;
pub use augur_backend::state::HostValue;
pub use augur_backend::{
    BackendAvailability, CompiledModel, NativeBreaker, Plan, PlanCacheStats, PlanEvent,
    NATIVE_BREAKER_THRESHOLD,
};
pub use augur_backend::{Checkpoint, CheckpointError, FaultPlan};
pub use augur_backend::{CodegenTarget, ExecBackend};
pub use augur_backend::{ExecReport, KernelReport, KernelStats, RunReport};
pub use augur_backend::{ExplainPlan, MemWatermark, Profile, Span, StepProfile};
pub use augur_blk::OptFlags;
pub use chains::{ChainPlan, ChainsReport};
pub use error::{Error, ErrorKind};
pub use gpu_sim::DeviceConfig;

/// One-stop import of the user-facing surface:
///
/// ```
/// use augur::prelude::*;
/// ```
///
/// Everything a typical inference script touches — the plan lifecycle
/// ([`Model`], [`CompiledModel`], [`Plan`], [`Session`],
/// [`SessionConfig`], [`HostValue`], [`Target`], [`ExecBackend`],
/// [`OptFlags`], [`McmcConfig`]), multi-chain runs ([`ChainPlan`]),
/// observing ([`RunReport`], [`KernelStats`], [`ChainsReport`], the
/// [`diag`] estimators), and failing ([`Error`], [`ErrorKind`]). The
/// pre-lifecycle names (`Infer`, `Sampler`, `SamplerConfig`,
/// `ChainRunner`) are gone: `Model` → [`Plan`] → [`Session`] and
/// [`ChainPlan`] are the only entrypoints.
pub mod prelude {
    pub use crate::chains::{ChainPlan, Chains, ChainsReport, ParamDiag};
    pub use crate::diag::{autocovariance, ess, ess_per_sec, split_rhat, OnlineParamDiag, Welford};
    pub use crate::{
        BackendAvailability, CompiledModel, Error, ErrorKind, ExecBackend, ExplainPlan, HostValue,
        KernelStats, McmcConfig, Model, OptFlags, Plan, PlanCacheStats, PlanEvent, Profile,
        RunReport, Session, SessionConfig, Target,
    };
}

/// Compiler diagnostics produced alongside a build (what the paper's
/// verbose mode prints).
#[derive(Debug, Clone)]
pub struct CompileInfo {
    /// The schedule in Kernel-IL notation, e.g.
    /// `Gibbs Single(pi) (*) Gibbs Single(mu) (*) …`.
    pub kernel: String,
    /// The density factorization, pretty-printed in the paper's notation.
    pub density: String,
    /// Generated procedures rendered as C-like code.
    pub code: String,
}

/// The entry point of the plan lifecycle: compile model source once
/// into a shape-generic [`CompiledModel`], then specialize it to data
/// shapes with [`Model::plan`] (cached), and bind executable
/// [`Session`]s from each plan.
///
/// ```
/// use augur::{Model, SessionConfig, HostValue};
///
/// let model = Model::compile("(N) => {
///     param p ~ Beta(1.0, 1.0) ;
///     data y[n] ~ Bernoulli(p) for n <- 0 until N ;
/// }")?;
/// let plan = model.plan(
///     vec![HostValue::Int(2)],
///     vec![("y", HostValue::VecF(vec![1.0, 0.0]))],
/// )?;
/// let mut session = plan.session(SessionConfig::default())?;
/// session.init()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Model {
    inner: CompiledModel,
}

impl Model {
    /// Runs the shape-generic phases (parse, typecheck, Density IL,
    /// heuristic schedule, Low-- lowering). The result is reusable
    /// across data shapes; see [`Model::plan`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the failing phase.
    pub fn compile(src: &str) -> Result<Model, BuildError> {
        Ok(Model { inner: CompiledModel::compile(src, None)? })
    }

    /// [`Model::compile`] with a user MCMC schedule — the paper's
    /// `setUserSched`, e.g. `"ESlice mu (*) Gibbs z"`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for frontend or schedule failures.
    pub fn with_schedule(src: &str, schedule: &str) -> Result<Model, BuildError> {
        Ok(Model { inner: CompiledModel::compile(src, Some(schedule))? })
    }

    /// Specializes the model to concrete data (the paper's
    /// `aug.compile(args)(data)`), reusing the cached specialization
    /// when the data *shape* has been planned before.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for binding/allocation problems.
    pub fn plan(
        &self,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
    ) -> Result<Plan, BuildError> {
        self.inner.plan(args, data)
    }

    /// [`Model::plan`] with explicit Blk-IL optimization flags (they
    /// participate in the plan-cache key).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for binding/allocation problems.
    pub fn plan_opt(
        &self,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
        opt_flags: OptFlags,
    ) -> Result<Plan, BuildError> {
        self.inner.plan_opt(args, data, opt_flags)
    }

    /// Plan-cache counters: hits, misses, respecializes, entries.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.inner.cache_stats()
    }

    /// The schedule in Kernel-IL notation, e.g.
    /// `Gibbs Single(mu) (*) Gibbs Single(z)`.
    pub fn kernel(&self) -> String {
        self.inner.labels().join(" (*) ")
    }

    /// The underlying shape-generic artifact.
    pub fn compiled(&self) -> &CompiledModel {
        &self.inner
    }

    /// The density model (for analyses and baselines).
    pub fn density_model(&self) -> &DensityModel {
        self.inner.density_model()
    }

    /// Compiler diagnostics: the schedule in Kernel-IL notation, the
    /// pretty-printed density factorization, and the generated
    /// procedures as C-like code (what the paper's verbose mode prints).
    pub fn compile_info(&self) -> CompileInfo {
        let kernel = self.kernel();
        let density = augur_density::pretty_density(self.inner.density_model());
        let mut code = String::new();
        for p in &self.inner.lowered().procs {
            code.push_str(&augur_low::il::pretty_proc(p));
            code.push('\n');
        }
        CompileInfo { kernel, density, code }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GMM: &str = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param z[n] ~ Categorical(pis) for n <- 0 until N ;
        data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
    }"#;

    #[test]
    fn fig2_workflow_compiles() {
        let model = Model::with_schedule(GMM, "ESlice mu (*) Gibbs z").unwrap();
        let info = model.compile_info();
        assert_eq!(info.kernel, "ESlice Single(mu) (*) Gibbs Single(z)");
        assert!(info.density.contains("Π_{k←0 until K}"));
        assert!(info.code.contains("u1_gibbs() {"));
    }

    #[test]
    fn heuristic_is_used_without_user_schedule() {
        let model = Model::compile(GMM).unwrap();
        // mu conjugate ⇒ Gibbs; z discrete ⇒ Gibbs
        assert_eq!(model.kernel(), "Gibbs Single(mu) (*) Gibbs Single(z)");
    }

    #[test]
    fn bad_schedule_is_rejected_at_compile_time() {
        assert!(Model::with_schedule(GMM, "HMC z (*) Gibbs mu").is_err());
    }

    #[test]
    fn end_to_end_build_and_sample() {
        let model = Model::compile(
            "(N) => {
                param p ~ Beta(1.0, 1.0) ;
                data y[n] ~ Bernoulli(p) for n <- 0 until N ;
            }",
        )
        .unwrap();
        let mut s = model
            .plan(vec![HostValue::Int(4)], vec![("y", HostValue::VecF(vec![1.0, 1.0, 1.0, 0.0]))])
            .unwrap()
            .session(SessionConfig::default())
            .unwrap();
        s.init().unwrap();
        let samples = s.sample(50, &["p"]).unwrap();
        assert_eq!(samples.len(), 50);
        assert!(samples.iter().all(|m| (0.0..=1.0).contains(&m["p"][0])));
    }
}
