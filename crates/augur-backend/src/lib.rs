//! The AugurV2 backend (paper §5–§6): turns a lowered model into a running
//! MCMC sampler.
//!
//! Responsibilities, mirroring the paper's backend + runtime library:
//!
//! * **binding & size inference** ([`setup`]) — model arguments and data
//!   are bound to host values; every parameter and planned temporary is
//!   allocated *up front* by resolving the symbolic shapes of
//!   `augur-low`'s size inference (§5.2);
//! * **compilation** ([`compile`], [`tape`]) — procedures are resolved to
//!   buffer slots, lowered once more to a flat register-machine tape
//!   (fused loads/stores, value numbering, precomputed work charges), and
//!   for the GPU target translated to Blk IL and optimized (§5.3–5.4);
//! * **execution** ([`eval`], [`tape`], [`native`]) — a CPU interpreter
//!   and a simulated-GPU executor that charge virtual time to a
//!   `gpu_sim::Device`. CPU procedures run as a reference tree-walker,
//!   as the tape (the default), or as C printed from the tape, compiled
//!   by the host toolchain and `dlopen`ed (the paper's Cuda/C emission,
//!   §2.3); all three produce bit-identical traces for a fixed seed;
//! * **the MCMC library** ([`mcmc`]) — leapfrog HMC (+ a NUTS prototype),
//!   reflective and elliptical slice sampling, random-walk MH, and the
//!   acceptance-ratio/state-duplication discipline of §5.5;
//! * **the driver** ([`driver`]) — the `⊗`-composition sweep.
//!
//! # Example
//!
//! The plan lifecycle ([`plan`]) separates compilation into a
//! shape-generic [`CompiledModel`], a cached shape-specialized
//! [`Plan`], and an executable [`Session`]:
//!
//! ```
//! use augur_backend::{CompiledModel, SessionConfig};
//! use augur_backend::state::HostValue;
//!
//! let src = "(N, tau2, s2) => {
//!     param m ~ Normal(0.0, tau2) ;
//!     data y[n] ~ Normal(m, s2) for n <- 0 until N ;
//! }";
//! let model = CompiledModel::compile(src, None)?; // heuristic schedule
//! let plan = model.plan(
//!     vec![HostValue::Int(4), HostValue::Real(10.0), HostValue::Real(1.0)],
//!     vec![("y", HostValue::VecF(vec![1.0, 1.2, 0.8, 1.1]))],
//! )?;
//! let mut session = plan.session(SessionConfig::default())?;
//! session.init()?;
//! for _ in 0..10 {
//!     session.sweep();
//! }
//! assert!(session.param("m")?[0].is_finite());
//! // Same shape again: the plan cache reuses the compiled tapes.
//! assert_eq!(model.cache_stats().misses, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
mod codegen;
pub mod compile;
pub mod driver;
pub mod eval;
mod factor_memo;
pub mod fault;
pub mod mcmc;
pub mod metrics;
pub mod native;
pub mod oracle;
pub mod par;
pub mod plan;
pub mod profile;
pub mod setup;
pub mod state;
pub mod tape;
mod tape_opt;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use codegen::CodegenTarget;
pub use driver::{BuildError, RunError, Session, SessionConfig, Target};
pub use plan::{
    BackendAvailability, CompiledModel, NativeBreaker, Plan, PlanCacheStats, PlanEvent,
    NATIVE_BREAKER_THRESHOLD,
};
pub use fault::{FaultParseError, FaultPlan};
pub use metrics::{ExecReport, KernelReport, KernelStats, RunReport, UpdateOutcome};
pub use profile::{ExplainPlan, MemWatermark, Profile, Span, StepProfile};
pub use state::HostValue;
pub use tape::ExecBackend;
