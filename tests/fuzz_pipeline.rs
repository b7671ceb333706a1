//! Pipeline fuzzing: randomly composed (well-formed) models must make it
//! through every compiler stage and a few sweeps without panicking, must
//! leave the state at a finite log-joint, and must print both code units.
//!
//! Models are drawn from the in-tree splitmix64 generator with a fixed
//! seed per property, so every run checks the same cases and a failure
//! message carries the model source that reproduces it.

use augur::{CodegenTarget, HostValue, McmcConfig, Model, Plan, SessionConfig};
use augur_dist::Prng;

const CASES: usize = 48;

/// One randomly chosen scalar prior, with its support class.
#[derive(Debug, Clone, Copy)]
enum ScalarPrior {
    Normal,
    Gamma,
    Beta,
    Exponential,
    InvGamma,
}

const PRIORS: [ScalarPrior; 5] = [
    ScalarPrior::Normal,
    ScalarPrior::Gamma,
    ScalarPrior::Beta,
    ScalarPrior::Exponential,
    ScalarPrior::InvGamma,
];

impl ScalarPrior {
    fn decl(self, name: &str, mean_ref: Option<&str>) -> String {
        match self {
            ScalarPrior::Normal => {
                let mean = mean_ref.unwrap_or("0.0");
                format!("param {name} ~ Normal({mean}, 1.5) ;")
            }
            ScalarPrior::Gamma => format!("param {name} ~ Gamma(2.0, 2.0) ;"),
            ScalarPrior::Beta => format!("param {name} ~ Beta(2.0, 2.0) ;"),
            ScalarPrior::Exponential => format!("param {name} ~ Exponential(1.0) ;"),
            ScalarPrior::InvGamma => format!("param {name} ~ InvGamma(3.0, 2.0) ;"),
        }
    }

    /// Can this parameter serve as a Normal likelihood's mean (real line)?
    fn real_line(self) -> bool {
        matches!(self, ScalarPrior::Normal)
    }

    /// Can this parameter serve as a Normal likelihood's variance?
    fn positive(self) -> bool {
        matches!(self, ScalarPrior::Gamma | ScalarPrior::Exponential | ScalarPrior::InvGamma)
    }
}

/// A composed model with its data size and likelihood family.
struct FuzzModel {
    src: String,
    n: usize,
    likelihood: u8, // 0 = Normal, 1 = Bernoulli(sigmoid), 2 = Poisson(exp)
}

impl FuzzModel {
    /// Composes a model: a chain of scalar priors (later Normals may
    /// reference earlier ones as means when `chain`), an optional vector
    /// layer, and a Normal/Bernoulli/Poisson data declaration wired to
    /// compatible parameters.
    fn compose(
        priors: &[ScalarPrior],
        vector_layer: bool,
        likelihood: u8,
        n: usize,
        chain: bool,
    ) -> Self {
        let mut src = String::from("(N) => {\n");
        let mut names: Vec<(String, ScalarPrior)> = Vec::new();
        for (i, p) in priors.iter().enumerate() {
            let name = format!("s{i}");
            let mean_ref = if chain && p.real_line() {
                names.iter().rev().find(|(_, q)| q.real_line()).map(|(n, _)| n.clone())
            } else {
                None
            };
            src.push_str("  ");
            src.push_str(&p.decl(&name, mean_ref.as_deref()));
            src.push('\n');
            names.push((name, *p));
        }
        // pick a mean-capable and a variance-capable parameter
        let mean = names
            .iter()
            .find(|(_, p)| p.real_line())
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| "0.0".to_owned());
        let var = names
            .iter()
            .find(|(_, p)| p.positive())
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| "1.0".to_owned());
        let loc = if vector_layer {
            src.push_str(&format!("  param w[n] ~ Normal({mean}, {var}) for n <- 0 until N ;\n"));
            "w[n]".to_owned()
        } else {
            mean
        };
        match likelihood {
            0 => src.push_str(&format!("  data y[n] ~ Normal({loc}, 1.0) for n <- 0 until N ;\n")),
            1 => src.push_str(&format!(
                "  data y[n] ~ Bernoulli(sigmoid({loc})) for n <- 0 until N ;\n"
            )),
            _ => src.push_str(&format!("  data y[n] ~ Poisson(exp({loc})) for n <- 0 until N ;\n")),
        }
        src.push('}');
        FuzzModel { src, n, likelihood }
    }

    /// One to three priors, either likelihood family, 2–6 data points.
    fn arbitrary(rng: &mut Prng) -> Self {
        let priors: Vec<ScalarPrior> =
            (0..1 + rng.below(3)).map(|_| PRIORS[rng.below(PRIORS.len())]).collect();
        let vector_layer = rng.below(2) == 1;
        let likelihood = rng.below(3) as u8;
        let n = 2 + rng.below(5);
        let chain = rng.below(2) == 1;
        FuzzModel::compose(&priors, vector_layer, likelihood, n, chain)
    }

    /// Compiles with the heuristic schedule and binds data drawn from
    /// `seed`.
    fn plan(&self, seed: u64) -> (Model, Plan) {
        let mut rng = Prng::seed_from_u64(seed);
        let y: Vec<f64> = (0..self.n)
            .map(|_| match self.likelihood {
                0 => rng.normal(0.0, 1.0),
                1 => f64::from(rng.bernoulli(0.5)),
                _ => rng.poisson(2.0) as f64,
            })
            .collect();
        // The heuristic must always produce *some* plan for these models.
        let compiled = Model::compile(&self.src)
            .unwrap_or_else(|e| panic!("compile failed on:\n{}\n{e}", self.src));
        let plan = compiled
            .plan(vec![HostValue::Int(self.n as i64)], vec![("y", HostValue::VecF(y))])
            .unwrap_or_else(|e| panic!("planning failed on:\n{}\n{e}", self.src));
        (compiled, plan)
    }

    /// Five sweeps from `seed` end at a finite log-joint with every
    /// parameter finite.
    fn assert_runs(&self, seed: u64) {
        let (compiled, plan) = self.plan(seed);
        assert!(!compiled.kernel().is_empty());
        let mut s = plan
            .session(SessionConfig {
                seed,
                mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() },
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("build failed on:\n{}\n{e}", self.src));
        s.init().unwrap();
        for _ in 0..5 {
            s.sweep();
        }
        let lj = s.log_joint();
        assert!(lj.is_finite(), "log joint {lj} on:\n{}", self.src);
        for p in s.param_names().to_vec() {
            let vals = s.param(&p).unwrap().to_vec();
            assert!(vals.iter().all(|v| v.is_finite()), "{p} went non-finite on:\n{}", self.src);
        }
    }
}

#[test]
fn random_models_compile_and_run() {
    let mut rng = Prng::seed_from_u64(0xF022_0001);
    for _ in 0..CASES {
        let model = FuzzModel::arbitrary(&mut rng);
        model.assert_runs(rng.below(1000) as u64);
    }
}

/// A recorded failure: a `Beta` prior that no data reaches.
#[test]
fn unreached_beta_prior_compiles_and_runs() {
    let model = FuzzModel::compose(&[ScalarPrior::Beta], false, 0, 2, false);
    assert_eq!(
        model.src,
        "(N) => {\n  param s0 ~ Beta(2.0, 2.0) ;\n  data y[n] ~ Normal(0.0, 1.0) for n <- 0 until N ;\n}"
    );
    model.assert_runs(0);
}

/// `Plan::emit` prints both units for every random model without
/// panicking.
#[test]
fn random_models_emit_both_units() {
    let mut rng = Prng::seed_from_u64(0xF022_0002);
    for _ in 0..CASES {
        let model = FuzzModel::arbitrary(&mut rng);
        let (_, plan) = model.plan(rng.below(1000) as u64);
        let c = plan
            .emit(CodegenTarget::C)
            .unwrap_or_else(|e| panic!("C emit failed on:\n{}\n{e}", model.src));
        assert!(c.contains("aug_procs["), "{}", model.src);
        let cu = plan
            .emit(CodegenTarget::Cuda)
            .unwrap_or_else(|e| panic!("Cuda emit failed on:\n{}\n{e}", model.src));
        assert!(cu.contains("void mcmc_sweep"), "{}", model.src);
    }
}
