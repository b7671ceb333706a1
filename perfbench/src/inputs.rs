//! Seeded workload inputs. Everything the program receives — data,
//! model arguments, chain seeds, request arrivals — is generated here
//! from the workload seed, so the same seed always gives the same
//! inputs.

use augur::{HostValue, McmcConfig, Model, Plan};
use augur_math::{Matrix, Prng};
use augurv2::{models, workloads};

/// Input sizes: the benchmark's own, or tiny ones for the smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny sizes: every code path, in well under a second per workload.
    Smoke,
}

/// Which of the paper's three models an input set binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Latent Dirichlet allocation.
    Lda,
    /// Hierarchical logistic regression.
    Hlr,
    /// Hierarchical Gaussian mixture.
    Hgmm,
}

impl Kind {
    /// The model name used in requests and printed tables.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lda => "lda",
            Kind::Hlr => "hlr",
            Kind::Hgmm => "hgmm",
        }
    }

    /// The model source.
    pub fn source(self) -> &'static str {
        match self {
            Kind::Lda => models::LDA,
            Kind::Hlr => models::HLR,
            Kind::Hgmm => models::HGMM,
        }
    }
}

/// One model's bindings: arguments, data, sampler tuning, and the
/// summary components whose ESS and values the checks read.
#[derive(Debug, Clone)]
pub struct ModelInputs {
    /// The model.
    pub kind: Kind,
    /// Positional model arguments.
    pub args: Vec<HostValue>,
    /// Observed data.
    pub data: Vec<(String, HostValue)>,
    /// Sampler tuning.
    pub mcmc: McmcConfig,
    /// Parameters recorded after every sweep by serving requests.
    pub record: Vec<String>,
    /// `(parameter, flat index)` components summarizing the chain.
    pub summary: Vec<(&'static str, usize)>,
    /// Ground truth the checks compare against: HLR coefficients or
    /// HGMM component means (flattened), empty for LDA.
    pub truth: Vec<f64>,
    /// Initial mixture assignments (HGMM only): the generator's own, so
    /// every seed starts in the right mode. Two of the three clusters lie
    /// 6.7 apart, and a farthest-first start over the data put two
    /// centres in one cluster and merged the other two on 1 of seeds
    /// 1–200 (seed 64), a mode ten thousand points never leave.
    pub init_z: Option<Vec<f64>>,
}

impl ModelInputs {
    /// Data bindings in the form `Model::plan` takes.
    pub fn data_refs(&self) -> Vec<(&str, HostValue)> {
        self.data
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect()
    }

    /// Specializes `model` to these inputs.
    ///
    /// # Errors
    ///
    /// Returns the library's binding error.
    pub fn plan(&self, model: &Model) -> Result<Plan, augur::Error> {
        Ok(model.plan(self.args.clone(), self.data_refs())?)
    }
}

/// LDA over a synthetic corpus: `topics` topics, `docs` documents of
/// about `len` tokens over a `vocab`-word vocabulary.
pub fn lda(seed: u64, topics: usize, docs: usize, len: usize, vocab: usize) -> ModelInputs {
    let corpus = workloads::lda_corpus(topics, docs, vocab, len, seed);
    let summary_docs = docs.min(10);
    ModelInputs {
        kind: Kind::Lda,
        args: vec![
            HostValue::Int(topics as i64),
            HostValue::Int(docs as i64),
            HostValue::VecF(vec![0.5; topics]),
            HostValue::VecF(vec![0.1; vocab]),
            HostValue::VecI(corpus.lens.clone()),
        ],
        data: vec![("w".into(), HostValue::RaggedI(corpus.docs))],
        mcmc: McmcConfig::default(),
        record: vec!["theta".into()],
        summary: (0..summary_docs * topics).map(|i| ("theta", i)).collect(),
        truth: Vec::new(),
        init_z: None,
    }
}

/// HLR on `n` rows of `d` standard-normal features.
pub fn hlr(seed: u64, n: usize, d: usize, mcmc: McmcConfig) -> ModelInputs {
    let data = workloads::logistic_data(n, d, seed);
    let mut summary = vec![("sigma2", 0), ("b", 0)];
    summary.extend((0..d).map(|j| ("theta", j)));
    ModelInputs {
        kind: Kind::Hlr,
        args: vec![
            HostValue::Real(1.0),
            HostValue::Int(n as i64),
            HostValue::Int(d as i64),
            HostValue::Ragged(data.x),
        ],
        data: vec![("y".into(), HostValue::VecF(data.y))],
        mcmc,
        record: vec!["theta".into()],
        summary,
        truth: data.true_theta,
        init_z: None,
    }
}

/// HGMM with `k` components in `d` dimensions over `n` points.
pub fn hgmm(seed: u64, k: usize, d: usize, n: usize) -> ModelInputs {
    let data = workloads::hgmm_data(k, d, n, seed);
    let mut summary: Vec<(&'static str, usize)> = (0..k * d).map(|i| ("mu", i)).collect();
    summary.extend((0..k).map(|i| ("pi", i)));
    let init_z = data.true_z.iter().map(|&c| c as f64).collect();
    ModelInputs {
        kind: Kind::Hgmm,
        args: vec![
            HostValue::Int(k as i64),
            HostValue::Int(n as i64),
            HostValue::VecF(vec![1.0; k]),
            HostValue::VecF(vec![0.0; d]),
            HostValue::Mat(Matrix::identity(d).scale(50.0)),
            HostValue::Real((d + 2) as f64),
            HostValue::Mat(Matrix::identity(d)),
        ],
        data: vec![("y".into(), HostValue::Ragged(data.points))],
        mcmc: McmcConfig::default(),
        record: vec!["mu".into()],
        summary,
        truth: data.true_means.concat(),
        init_z: Some(init_z),
    }
}

/// HMC tuning of the HLR workload: step 0.02 × 10 leapfrogs.
pub fn hlr_mcmc() -> McmcConfig {
    McmcConfig {
        step_size: 0.02,
        leapfrog_steps: 10,
        ..McmcConfig::default()
    }
}

/// The `lda-native` inputs.
pub fn lda_native(seed: u64, scale: Scale) -> ModelInputs {
    match scale {
        Scale::Full => lda(seed, 20, 160, 100, 2000),
        Scale::Smoke => lda(seed, 3, 8, 10, 30),
    }
}

/// The `hlr-hmc` inputs (German-credit shape at full scale).
pub fn hlr_hmc(seed: u64, scale: Scale) -> ModelInputs {
    match scale {
        Scale::Full => hlr(seed, 1000, 24, hlr_mcmc()),
        Scale::Smoke => hlr(seed, 60, 4, hlr_mcmc()),
    }
}

/// The `hgmm-gibbs` inputs.
pub fn hgmm_gibbs(seed: u64, scale: Scale) -> ModelInputs {
    match scale {
        Scale::Full => hgmm(seed, 3, 2, 10_000),
        Scale::Smoke => hgmm(seed, 3, 2, 300),
    }
}

/// Sizes of the serving mix: each model small enough that one request
/// takes milliseconds. `grow` > 0 gives a data size no earlier request
/// had, so the plan cache respecializes.
pub fn serve_model(kind: Kind, seed: u64, grow: usize) -> ModelInputs {
    let small = McmcConfig {
        step_size: 0.05,
        leapfrog_steps: 8,
        ..McmcConfig::default()
    };
    match kind {
        Kind::Hgmm => hgmm(seed, 2, 2, 100 + grow),
        Kind::Lda => lda(seed, 3, 18 + grow, 10, 40),
        Kind::Hlr => hlr(seed, 30 + grow, 4, small),
    }
}

/// The three serving models, in round-robin order.
pub const SERVE_MODELS: [Kind; 3] = [Kind::Hgmm, Kind::Lda, Kind::Hlr];

/// What one planned request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Sample from a model; `grow` > 0 is a new shape.
    Sample {
        /// Index into the run's model list.
        model: usize,
        /// Size increment (0 = the shape every other request shares).
        grow: usize,
    },
    /// Log-joint at the seeded initial state.
    Score {
        /// Index into the run's model list.
        model: usize,
    },
    /// Explain plan for the shared shape.
    Explain {
        /// Index into the run's model list.
        model: usize,
    },
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Seconds after the start of its step that the request is due.
    pub due: f64,
    /// What it asks for.
    pub ask: Ask,
    /// Its session seed.
    pub seed: u64,
}

/// The score or explain request at position `i` of a request stream
/// round-robin over `models` models — 2 positions in 20 — or `None` where
/// the stream sends a sample request.
pub fn side_request(i: usize, models: usize) -> Option<Ask> {
    let model = i % models;
    match i % 20 {
        7 => Some(Ask::Score { model }),
        17 => Some(Ask::Explain { model }),
        _ => None,
    }
}

/// `count` requests for one rate step lasting `secs`, round-robin over
/// `models` models. Arrival times are a Poisson process conditioned on
/// `count` arrivals (sorted uniform draws), so the offered rate is
/// exactly `count / secs` on every seed. The mix is interleaved rather
/// than drawn, so every stretch of a step carries the same share of
/// heavy requests: 2 in 20 are score/explain, and 1 in 20 sample
/// requests carries a data size not seen before (`next_grow` numbers
/// those sizes across steps so each is new).
pub fn schedule(
    rng: &mut Prng,
    models: usize,
    count: usize,
    secs: f64,
    next_grow: &mut usize,
) -> Vec<Planned> {
    let mut due: Vec<f64> = (0..count).map(|_| rng.uniform() * secs).collect();
    due.sort_by(|a, b| a.partial_cmp(b).expect("uniform draws are finite"));
    let mut samples = 0usize;
    due.into_iter()
        .enumerate()
        .map(|(i, due)| {
            let model = i % models;
            let ask = side_request(i, models).unwrap_or_else(|| {
                samples += 1;
                if samples % 20 == 10 {
                    *next_grow += 1;
                    Ask::Sample {
                        model,
                        grow: *next_grow,
                    }
                } else {
                    Ask::Sample { model, grow: 0 }
                }
            });
            Planned {
                due,
                ask,
                seed: rng.next_u64(),
            }
        })
        .collect()
}
