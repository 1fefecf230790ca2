//! The generative label model `p_w(Λ, Y)` (paper §2.2).
//!
//! The true class label of each data point is a latent variable; each
//! labeling function is a noisy voter. The model couples them through
//! three factor types with weights `w ∈ R^{2n + |C|}`:
//!
//! ```text
//! φ_Lab(Λ, y)  = 1{Λ_ij ≠ ∅}              (labeling propensity)
//! φ_Acc(Λ, y)  = 1{Λ_ij = y_i}            (accuracy)
//! φ_Corr(Λ, y) = 1{Λ_ij = Λ_ik ≠ ∅}       ((j,k) ∈ C, pairwise correlation)
//! ```
//!
//! One deliberate deviation from the paper's notation: the correlation
//! factor fires only on agreeing *votes*, not on joint abstention. With
//! sparse suites (coverage of a few percent) both-abstain agreement is
//! ~90% of rows and swamps the actual vote correlation, making every LF
//! pair look dependent and the redundancy discount destructive.
//!
//! Training minimizes the negative log *marginal* likelihood of the
//! observed matrix, `−log Σ_Y p_w(Λ, Y)` — no ground truth enters:
//!
//! * **Independent model** (`C = ∅`): expectation–maximization with
//!   exact posteriors (E) and a closed-form per-LF maximizer (M) — the
//!   model is a tied-error-rate Dawid–Skene mixture, so the M-step is
//!   analytic. Deterministic, sampling-free, and convergent in tens of
//!   iterations where first-order ascent needed thousands; iteration
//!   stops at an optimizer-independent fixed point, which is what makes
//!   warm restarts ([`LabelModel::fit_warm`]) agree with cold fits
//!   to ≤1e-9.
//! * **Correlated model** (`C ≠ ∅`): SGD whose model phase is estimated
//!   by Gibbs chains seeded at observed rows — the
//!   contrastive-divergence style training the paper describes
//!   ("interleaving stochastic gradient descent steps with Gibbs
//!   sampling ones").
//!
//! After fitting, the per-LF accuracy weight recovers the LF's accuracy
//! via `α_j = e^{w_j} / (e^{w_j} + K − 1)` (appendix A.1 in the binary
//! case), and posteriors `p(y | Λ_i)` become the probabilistic training
//! labels `Ỹ`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use snorkel_linalg::math::{logsumexp, softmax_in_place};
use snorkel_matrix::{LabelMatrix, ShardedMatrix, Vote};

use crate::label_model::LabelModel;
use crate::vote::plurality_class;

/// Vote-scheme abstraction shared by the binary (`{−1,+1}`) and
/// multi-class (`{1..=k}`) settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelScheme {
    /// Votes in `{−1, +1}`; class 0 is `+1`, class 1 is `−1`.
    Binary,
    /// Votes in `{1..=k}`; class `c` is vote `c + 1`.
    MultiClass(u8),
}

impl LabelScheme {
    /// Scheme matching a matrix's cardinality.
    pub fn from_cardinality(k: u8) -> Self {
        if k == 2 {
            LabelScheme::Binary
        } else {
            LabelScheme::MultiClass(k)
        }
    }

    /// The cardinality this scheme encodes (inverse of
    /// [`Self::from_cardinality`]).
    pub fn cardinality(&self) -> u8 {
        match self {
            LabelScheme::Binary => 2,
            LabelScheme::MultiClass(k) => *k,
        }
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        match self {
            LabelScheme::Binary => 2,
            LabelScheme::MultiClass(k) => *k as usize,
        }
    }

    /// Dense class index of a non-abstain vote.
    pub fn class_of_vote(&self, v: Vote) -> Option<usize> {
        if v == 0 {
            return None;
        }
        Some(match self {
            LabelScheme::Binary => {
                if v == 1 {
                    0
                } else {
                    1
                }
            }
            LabelScheme::MultiClass(_) => (v as usize) - 1,
        })
    }

    /// Vote value of a dense class index.
    pub fn vote_of_class(&self, c: usize) -> Vote {
        match self {
            LabelScheme::Binary => {
                if c == 0 {
                    1
                } else {
                    -1
                }
            }
            LabelScheme::MultiClass(_) => (c + 1) as Vote,
        }
    }
}

/// Row count at which the pattern plan goes from one shard to one shard
/// per core (see [`plan_shards`]).
pub const SCALEOUT_MIN_ROWS: usize = 8192;

/// The shard-count rule of the pattern plan that every exact pass,
/// marginals pass and distillation range reads: one shard below
/// [`SCALEOUT_MIN_ROWS`] rows, where a single index is cheapest, and one
/// shard per available core at or above it.
///
/// The posterior of a data point depends only on its vote signature
/// `(cols, votes)`, so the plan groups rows by unique pattern
/// ([`snorkel_matrix::PatternIndex`]) per row-range shard and every pass
/// runs once per pattern, weighted by multiplicity. Marginals are
/// bit-identical for any shard count (a pattern's posterior is the same
/// float-op sequence as its rows'); fits differ across shard counts only
/// in floating-point summation order, inside the [`TrainConfig::tol`]
/// fixed-point guarantee. Both contracts are pinned by the
/// `proptest_scaleout` harness against an identity plan (one pattern
/// per row).
pub fn plan_shards(rows: usize) -> usize {
    if rows < SCALEOUT_MIN_ROWS {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |c| c.get())
    }
}

/// Build the pattern plan for `lambda` with [`plan_shards`] shards.
pub fn build_plan(lambda: &LabelMatrix) -> ShardedMatrix {
    ShardedMatrix::build(lambda, plan_shards(lambda.num_points()))
}

/// Training hyperparameters.
///
/// The exact (independent-model) path and the Gibbs/contrastive-
/// divergence (correlated-model) path are configured separately: the
/// exact path is deterministic EM with a closed-form M-step (no step
/// size; `epochs` is just a cap above the `tol` convergence test), while
/// the CD path is noisy minibatch SGD with its own epoch count and step
/// size.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// EM iteration cap for the exact independent-model path (the
    /// [`Self::tol`] convergence test usually stops it after tens of
    /// iterations).
    pub epochs: usize,
    /// Step size for first-order paths. Unused by the exact path (its EM
    /// M-step is closed-form); retained for configs that tune the CD
    /// path alongside.
    pub learning_rate: f64,
    /// Per-epoch multiplicative step decay (CD path).
    pub lr_decay: f64,
    /// Passes over the data for the correlated (CD) path.
    pub cd_epochs: usize,
    /// Step size for the correlated path.
    pub cd_learning_rate: f64,
    /// L2 regularization strength (CD path; the exact path regularizes
    /// with prior pseudocounts in its M-step instead — see
    /// [`Self::init_acc_weight`]).
    pub l2: f64,
    /// RNG seed (minibatch order, Gibbs chains).
    pub seed: u64,
    /// Gibbs sweeps per contrastive-divergence step (correlated model).
    pub gibbs_steps: usize,
    /// Minibatch size (correlated model; the independent model is
    /// full-batch).
    pub batch_size: usize,
    /// Convergence tolerance for the exact (independent-model) path:
    /// stop once the Aitken-estimated distance to the EM fixed point
    /// drops below this. The fixed point is a stationary point of the
    /// likelihood and does not depend on where iteration started, so any
    /// two runs that both converge — e.g. a cold fit and a
    /// [`LabelModel::fit_warm`] restart after one LF edit — land on
    /// the *same* parameters up to this tolerance. `0.0` disables early
    /// stopping. This is the §3 early-stopping lever (the paper reports
    /// up to 61% of training time saved by stopping when converged).
    pub tol: f64,
    /// Mean prior accuracy weight w̄ (log-odds scale; 1.0 ≈ 73% accuracy,
    /// the paper's default). Seeds the optimizer *and* sets the exact
    /// path's Dirichlet pseudocounts, so with little data fitted
    /// accuracies shrink toward this prior rather than toward chance.
    pub init_acc_weight: f64,
    /// Initialize accuracy weights from each LF's agreement rate with
    /// the unweighted majority vote. This anchors optimization in the
    /// correct basin: the marginal likelihood has an exact label-flip
    /// symmetry (`w → −w` with classes relabeled), and on imbalanced
    /// matrices a neutral init can fall into the flipped optimum.
    pub init_from_majority_vote: bool,
    /// How to set the fixed class-balance weights `b_c`. The balance is
    /// *not* learned: jointly optimizing a free class prior with the
    /// accuracy weights admits a degenerate optimum where the latent
    /// class collapses to a constant and every vote is explained by
    /// per-LF marginals alone.
    pub class_balance: ClassBalance,
    /// Clamp accuracy weights at ≥ 0 (assume non-adversarial LFs).
    pub clamp_nonadversarial: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1000,
            learning_rate: 0.5,
            lr_decay: 0.998,
            cd_epochs: 60,
            cd_learning_rate: 0.05,
            l2: 1e-4,
            seed: 0,
            gibbs_steps: 2,
            batch_size: 64,
            tol: 1e-12,
            init_acc_weight: 1.0,
            init_from_majority_vote: true,
            class_balance: ClassBalance::FromMajorityVote,
            clamp_nonadversarial: false,
        }
    }
}

/// Policy for the fixed class-balance weights.
#[derive(Clone, Debug, PartialEq)]
pub enum ClassBalance {
    /// Uniform prior (`b = 0`), matching the paper's factor set exactly.
    Uniform,
    /// Estimate the balance from the unweighted majority vote's class
    /// distribution (smoothed); the practical default for the imbalanced
    /// relation-extraction tasks.
    FromMajorityVote,
    /// User-specified class probabilities (must sum to ~1).
    Fixed(Vec<f64>),
}

/// Outcome of a fit.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Final mean negative log marginal likelihood (exact for the
    /// independent model; `NaN` for correlated models, whose partition
    /// function we never compute).
    pub final_nll: f64,
    /// Whether Gibbs-based contrastive divergence was used.
    pub used_gibbs: bool,
    /// Whether this fit warm-started from a previous model's parameters
    /// ([`LabelModel::fit_warm`]).
    pub warm_started: bool,
}

/// Why a [`ModelParams`] value cannot be a fitted model — the typed
/// decode-validation surface for untrusted parameter blobs (snapshot
/// files, wire payloads). Every variant names exactly the invariant that
/// was violated, so callers ([`crate::label_model::ModelSnapshot`],
/// `snorkel-incr`'s thaw path, `snorkel-serve`'s snapshot reader) can
/// propagate it without flattening to strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// Cardinality below 2 cannot describe a labeling task.
    BadCardinality {
        /// The cardinality found in the parameters.
        found: u8,
    },
    /// A per-LF or per-class vector has the wrong length.
    LengthMismatch {
        /// Which vector was mis-sized.
        field: &'static str,
        /// Length found.
        found: usize,
        /// Length required.
        expected: usize,
    },
    /// A correlation pair is not normalized `a < b` within the LF range.
    PairOutOfRange {
        /// First LF of the pair as stored.
        a: usize,
        /// Second LF of the pair as stored.
        b: usize,
        /// Number of LFs the model covers.
        num_lfs: usize,
    },
    /// The same correlation pair appears twice.
    DuplicatePair {
        /// First LF of the duplicated pair.
        a: usize,
        /// Second LF of the duplicated pair.
        b: usize,
    },
    /// A weight is NaN or infinite.
    NonFiniteWeight {
        /// Which weight vector holds the offending value.
        field: &'static str,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::BadCardinality { found } => write!(f, "cardinality {found} < 2"),
            ParamsError::LengthMismatch {
                field,
                found,
                expected,
            } => write!(f, "{field} has {found} entries, expected {expected}"),
            ParamsError::PairOutOfRange { a, b, num_lfs } => write!(
                f,
                "correlation pair ({a}, {b}) not normalized in-range for {num_lfs} LFs"
            ),
            ParamsError::DuplicatePair { a, b } => {
                write!(f, "duplicate correlation pair ({a}, {b})")
            }
            ParamsError::NonFiniteWeight { field } => write!(f, "non-finite weight in {field}"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Owned copy of a [`GenerativeModel`]'s learned parameters — the
/// stable encoding surface for on-disk snapshots (`snorkel-serve`). The
/// correlation adjacency lists are *not* part of the encoding;
/// [`GenerativeModel::from_params`] re-derives them from the pairs, so a
/// round trip reproduces a model whose inference is bit-identical to the
/// original's.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelParams {
    /// Task cardinality (2 = the binary `{−1,+1}` scheme).
    pub cardinality: u8,
    /// Number of labeling functions `n`.
    pub num_lfs: usize,
    /// Labeling-propensity weights (`n` entries).
    pub w_lab: Vec<f64>,
    /// Accuracy weights (`n` entries).
    pub w_acc: Vec<f64>,
    /// Modeled correlation pairs, each normalized `a < b`, deduplicated.
    pub corr_pairs: Vec<(usize, usize)>,
    /// Learned correlation weights (parallel to `corr_pairs`).
    pub w_corr: Vec<f64>,
    /// Prior correlation strengths (parallel to `corr_pairs`).
    pub corr_strength: Vec<f64>,
    /// Class-balance weights (one per class).
    pub b_class: Vec<f64>,
}

impl ModelParams {
    /// Check every structural invariant a fitted model relies on:
    /// weight-vector lengths, pair normalization/range/uniqueness, and
    /// finite weights. [`GenerativeModel::from_params`] calls this before
    /// rebuilding; snapshot decoders call it directly so corrupt model
    /// sections surface as typed [`ParamsError`]s at read time.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.cardinality < 2 {
            return Err(ParamsError::BadCardinality {
                found: self.cardinality,
            });
        }
        let n = self.num_lfs;
        let scheme = LabelScheme::from_cardinality(self.cardinality);
        for (field, len, expected) in [
            ("w_lab", self.w_lab.len(), n),
            ("w_acc", self.w_acc.len(), n),
            ("w_corr", self.w_corr.len(), self.corr_pairs.len()),
            (
                "corr_strength",
                self.corr_strength.len(),
                self.corr_pairs.len(),
            ),
            ("b_class", self.b_class.len(), scheme.num_classes()),
        ] {
            if len != expected {
                return Err(ParamsError::LengthMismatch {
                    field,
                    found: len,
                    expected,
                });
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &self.corr_pairs {
            if a >= b || b >= n {
                return Err(ParamsError::PairOutOfRange { a, b, num_lfs: n });
            }
            if !seen.insert((a, b)) {
                return Err(ParamsError::DuplicatePair { a, b });
            }
        }
        for (field, xs) in [
            ("w_lab", &self.w_lab),
            ("w_acc", &self.w_acc),
            ("w_corr", &self.w_corr),
            ("corr_strength", &self.corr_strength),
            ("b_class", &self.b_class),
        ] {
            if xs.iter().any(|w| !w.is_finite()) {
                return Err(ParamsError::NonFiniteWeight { field });
            }
        }
        Ok(())
    }
}

/// The generative label model.
#[derive(Clone, Debug)]
pub struct GenerativeModel {
    scheme: LabelScheme,
    n: usize,
    w_lab: Vec<f64>,
    w_acc: Vec<f64>,
    corr_pairs: Vec<(usize, usize)>,
    w_corr: Vec<f64>,
    /// Prior correlation strengths from structure learning (used to
    /// seed `w_corr` and to discount redundant LFs' initial accuracy
    /// weights); 1.0 when unknown.
    corr_strength: Vec<f64>,
    /// Adjacency: for each LF, `(pair_index, other_lf)` of its
    /// correlation factors.
    corr_adj: Vec<Vec<(usize, usize)>>,
    /// Class-balance weights `b_c` (log-prior per class). The paper's
    /// factor set omits a class prior; on the imbalanced relation tasks
    /// that omission miscalibrates posteriors badly, so we add the one
    /// factor `φ_Bal(y) = 1{y = c}` and learn its weights jointly.
    b_class: Vec<f64>,
}

/// Weight clamp keeping `exp` comfortably finite (shared with the
/// closed-form moment backend in [`crate::label_model`]).
pub(crate) const W_CLAMP: f64 = 10.0;

impl GenerativeModel {
    /// Independent model over `n` labeling functions.
    pub fn new(n: usize, scheme: LabelScheme) -> Self {
        GenerativeModel {
            scheme,
            n,
            w_lab: vec![0.0; n],
            w_acc: vec![1.0; n],
            corr_pairs: Vec::new(),
            w_corr: Vec::new(),
            corr_strength: Vec::new(),
            corr_adj: vec![Vec::new(); n],
            b_class: vec![0.0; scheme.num_classes()],
        }
    }

    /// Add pairwise-correlation factors for the given LF pairs
    /// (deduplicated, self-pairs rejected) with unit prior strength.
    pub fn with_correlations(self, pairs: &[(usize, usize)]) -> Self {
        let strengths = vec![1.0; pairs.len()];
        self.with_weighted_correlations(pairs, &strengths)
    }

    /// Add pairwise-correlation factors with prior strengths (typically
    /// the fitted weights from
    /// [`crate::structure::learn_structure`]). Strengths seed the
    /// correlation weights and drive the redundancy discount of the
    /// correlated-training initialization.
    pub fn with_weighted_correlations(
        mut self,
        pairs: &[(usize, usize)],
        strengths: &[f64],
    ) -> Self {
        assert_eq!(pairs.len(), strengths.len(), "one strength per pair");
        let mut seen = std::collections::BTreeSet::new();
        for (&(a, b), &s) in pairs.iter().zip(strengths) {
            assert!(a < self.n && b < self.n, "correlation pair out of range");
            assert_ne!(a, b, "self-correlation is meaningless");
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                let idx = self.corr_pairs.len();
                self.corr_pairs.push(key);
                self.w_corr.push(0.0);
                self.corr_strength.push(s.abs());
                self.corr_adj[key.0].push((idx, key.1));
                self.corr_adj[key.1].push((idx, key.0));
            }
        }
        self
    }

    /// Number of labeling functions.
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// The label scheme.
    pub fn scheme(&self) -> LabelScheme {
        self.scheme
    }

    /// The modeled correlation pairs.
    pub fn correlations(&self) -> &[(usize, usize)] {
        &self.corr_pairs
    }

    /// Learned correlation weights (parallel to
    /// [`Self::correlations`]).
    pub fn correlation_weights(&self) -> &[f64] {
        &self.w_corr
    }

    /// Learned accuracy weights (log-odds scale).
    pub fn accuracy_weights(&self) -> &[f64] {
        &self.w_acc
    }

    /// Learned propensity weights.
    pub fn propensity_weights(&self) -> &[f64] {
        &self.w_lab
    }

    /// Learned class-balance weights (log-prior scale); softmax of these
    /// is the model's implied class distribution.
    pub fn class_balance_weights(&self) -> &[f64] {
        &self.b_class
    }

    /// The model's implied class prior `softmax(b)`.
    pub fn implied_class_prior(&self) -> Vec<f64> {
        let mut p = self.b_class.clone();
        softmax_in_place(&mut p);
        p
    }

    /// Implied LF accuracies `α_j = e^{w_j} / (e^{w_j} + K − 1)`
    /// (appendix A.1 generalized to K classes).
    pub fn implied_accuracies(&self) -> Vec<f64> {
        let k1 = (self.scheme.num_classes() - 1) as f64;
        self.w_acc
            .iter()
            .map(|&w| {
                let e = w.exp();
                e / (e + k1)
            })
            .collect()
    }

    /// Export the learned parameters (see [`ModelParams`]).
    pub fn to_params(&self) -> ModelParams {
        ModelParams {
            cardinality: match self.scheme {
                LabelScheme::Binary => 2,
                LabelScheme::MultiClass(k) => k,
            },
            num_lfs: self.n,
            w_lab: self.w_lab.clone(),
            w_acc: self.w_acc.clone(),
            corr_pairs: self.corr_pairs.clone(),
            w_corr: self.w_corr.clone(),
            corr_strength: self.corr_strength.clone(),
            b_class: self.b_class.clone(),
        }
    }

    /// Rebuild a fitted model from exported parameters (the inverse of
    /// [`Self::to_params`]). Untrusted input (a snapshot file) comes
    /// through here, so every structural invariant the constructors
    /// assert is checked ([`ModelParams::validate`]) and violations
    /// return a typed [`ParamsError`]: weight-vector lengths, pair
    /// ranges and normalization, and finite weights.
    pub fn from_params(params: ModelParams) -> Result<GenerativeModel, ParamsError> {
        params.validate()?;
        let ModelParams {
            cardinality,
            num_lfs: n,
            w_lab,
            w_acc,
            corr_pairs,
            w_corr,
            corr_strength,
            b_class,
        } = params;
        let scheme = LabelScheme::from_cardinality(cardinality);
        let mut corr_adj = vec![Vec::new(); n];
        for (idx, &(a, b)) in corr_pairs.iter().enumerate() {
            corr_adj[a].push((idx, b));
            corr_adj[b].push((idx, a));
        }
        Ok(GenerativeModel {
            scheme,
            n,
            w_lab,
            w_acc,
            corr_pairs,
            w_corr,
            corr_strength,
            corr_adj,
            b_class,
        })
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    /// Posterior `p(y = class | Λ_i)` for one row of votes: a wrapper
    /// over [`Self::posterior_into`].
    ///
    /// Correlation and propensity factors cancel (they do not involve
    /// `y`), so the posterior depends only on the accuracy weights and
    /// the class-balance weights — but those weights are *fit*
    /// differently when correlations are modeled, which is where the
    /// correction of Example 3.1 comes from.
    pub fn posterior(&self, cols: &[u32], votes: &[Vote]) -> Vec<f64> {
        let mut out = vec![0.0; self.b_class.len()];
        self.posterior_into(cols, votes, &mut out);
        out
    }

    /// [`Self::posterior`] into a caller-owned slice of
    /// `scheme().num_classes()` elements, allocating nothing: copy the
    /// class-balance weights, accumulate accuracy weights, softmax in
    /// place. This is the kernel under the serving layer's flat
    /// posterior arena.
    ///
    /// Panics if `out.len() != scheme().num_classes()`.
    pub fn posterior_into(&self, cols: &[u32], votes: &[Vote], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.b_class.len(),
            "posterior_into needs a slice of num_classes elements"
        );
        out.copy_from_slice(&self.b_class);
        for (&c, &v) in cols.iter().zip(votes) {
            if let Some(class) = self.scheme.class_of_vote(v) {
                out[class] += self.w_acc[c as usize];
            }
        }
        softmax_in_place(out);
    }

    /// Binary convenience: `p(y = +1 | Λ_i)` per row, through a freshly
    /// built plan (see [`LabelModel::marginals`]).
    pub fn prob_positive(&self, lambda: &LabelMatrix) -> Vec<f64> {
        assert_eq!(self.scheme, LabelScheme::Binary, "binary scheme only");
        LabelModel::marginals(self, lambda, None)
            .into_iter()
            .map(|p| p[0])
            .collect()
    }

    fn assert_plan_matches(&self, lambda: &LabelMatrix, plan: &ShardedMatrix) {
        assert_eq!(
            plan.num_rows(),
            lambda.num_points(),
            "sharded plan covers {} rows but Λ has {}",
            plan.num_rows(),
            lambda.num_points()
        );
        assert_eq!(
            plan.num_lfs(),
            lambda.num_lfs(),
            "sharded plan built for {} LFs but Λ has {}",
            plan.num_lfs(),
            lambda.num_lfs()
        );
    }

    // ------------------------------------------------------------------
    // Training
    // ------------------------------------------------------------------

    /// The pattern plan [`LabelModel::fit`] builds when handed none:
    /// always [`build_plan`]. Callers that run several passes over the
    /// same matrix (pipeline, incremental session) build it once and
    /// pass it to every fit and marginals call. `cfg` no longer affects
    /// the plan; the signature is kept for existing callers.
    pub fn plan_for(lambda: &LabelMatrix, _cfg: &TrainConfig) -> Option<ShardedMatrix> {
        Some(build_plan(lambda))
    }

    /// Cold fit against `plan` (the [`LabelModel::fit`] body).
    pub(crate) fn fit_cold(
        &mut self,
        lambda: &LabelMatrix,
        plan: &ShardedMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        assert_eq!(
            lambda.num_lfs(),
            self.n,
            "matrix has {} LFs but model has {}",
            lambda.num_lfs(),
            self.n
        );
        self.assert_plan_matches(lambda, plan);
        for w in self.w_acc.iter_mut() {
            *w = cfg.init_acc_weight;
        }
        self.set_class_balance(plan, cfg);
        if cfg.init_from_majority_vote && lambda.num_points() > 0 {
            self.init_acc_from_majority_vote(plan, cfg);
        }
        self.init_lab_from_coverage(plan);
        if lambda.num_points() == 0 {
            return FitReport {
                epochs: 0,
                final_nll: 0.0,
                used_gibbs: false,
                warm_started: false,
            };
        }
        if self.corr_pairs.is_empty() {
            self.fit_independent_exact(plan, cfg)
        } else {
            self.fit_correlated_cd(lambda, cfg)
        }
    }

    /// Fix the class-balance weights per the configured policy.
    fn set_class_balance(&mut self, plan: &ShardedMatrix, cfg: &TrainConfig) {
        let k = self.scheme.num_classes();
        match &cfg.class_balance {
            ClassBalance::Uniform => self.b_class.iter_mut().for_each(|b| *b = 0.0),
            ClassBalance::Fixed(p) => {
                assert_eq!(p.len(), k, "class balance needs one entry per class");
                for (b, &pc) in self.b_class.iter_mut().zip(p) {
                    *b = pc.max(1e-3).ln();
                }
            }
            ClassBalance::FromMajorityVote => {
                // The MV class is a pure function of the vote signature,
                // and these are integer counts: the per-pattern tally is
                // exactly the per-row one.
                let mut counts = vec![1usize; k]; // add-one smoothing
                for c in plan.map_shards(|idx| {
                    let mut c = vec![0usize; k];
                    let mut tally = vec![0usize; k];
                    for (_, _, votes, cnt) in idx.live_patterns() {
                        if let Some(mv) = plurality_class(self.scheme, votes, &mut tally) {
                            c[mv] += cnt;
                        }
                    }
                    c
                }) {
                    for (tot, add) in counts.iter_mut().zip(c) {
                        *tot += add;
                    }
                }
                let total: f64 = counts.iter().map(|&c| c as f64).sum();
                for (b, c) in self.b_class.iter_mut().zip(counts) {
                    *b = (c as f64 / total).ln();
                }
            }
        }
    }

    /// Initialize the propensity weights so the model's implied coverage
    /// matches each LF's observed coverage. Starting from `w_lab = 0`
    /// (implied coverage ≈ 77% for binary) while real suites cover a few
    /// percent makes the early accuracy gradients strongly negative for
    /// *every* LF while the propensities calibrate; minority-class LFs
    /// never recover from that transient and the fit lands in a
    /// collapsed optimum. Solving
    /// `coverage = e^lab (e^acc + K−1) / (1 + e^lab (e^acc + K−1))`
    /// for `lab` removes the transient entirely.
    fn init_lab_from_coverage(&mut self, plan: &ShardedMatrix) {
        let m = plan.num_rows();
        if m == 0 {
            return;
        }
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let mut votes = vec![0usize; self.n];
        // Per-pattern coverage counts are integer-exact.
        for c in plan.map_shards(|idx| {
            let mut c = vec![0usize; self.n];
            for (_, cols, _, cnt) in idx.live_patterns() {
                for &j in cols {
                    c[j as usize] += cnt;
                }
            }
            c
        }) {
            for (tot, add) in votes.iter_mut().zip(c) {
                *tot += add;
            }
        }
        for j in 0..self.n {
            let c = ((votes[j] as f64 + 0.5) / (m as f64 + 1.0)).clamp(1e-4, 1.0 - 1e-4);
            let s = c / (1.0 - c);
            self.w_lab[j] = (s.ln() - (self.w_acc[j].exp() + k1).ln()).clamp(-W_CLAMP, W_CLAMP);
        }
    }

    /// Seed accuracy weights from agreement with the unweighted majority
    /// vote: `w_j = ½ log(a_j / (1 − a_j))` where `a_j` is LF j's
    /// agreement rate with MV on rows where both commit, shrunk toward
    /// the prior and clamped to a moderate band so the data still
    /// dominates.
    fn init_acc_from_majority_vote(&mut self, plan: &ShardedMatrix, cfg: &TrainConfig) {
        let mut agree = vec![0usize; self.n];
        let mut total = vec![0usize; self.n];
        // Agreement with the row's own majority vote is a pure function
        // of the signature; integer counts are exact.
        let k = self.scheme.num_classes();
        for (a, t) in plan.map_shards(|idx| {
            let mut a = vec![0usize; self.n];
            let mut t = vec![0usize; self.n];
            let mut tally = vec![0usize; k];
            for (_, cols, votes, cnt) in idx.live_patterns() {
                let Some(mv_class) = plurality_class(self.scheme, votes, &mut tally) else {
                    continue;
                };
                for (&c, &v) in cols.iter().zip(votes) {
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        t[c as usize] += cnt;
                        if class == mv_class {
                            a[c as usize] += cnt;
                        }
                    }
                }
            }
            (a, t)
        }) {
            for j in 0..self.n {
                agree[j] += a[j];
                total[j] += t[j];
            }
        }
        for j in 0..self.n {
            if total[j] < 5 {
                continue; // keep the prior for LFs with no evidence
            }
            // Shrink toward the prior (5 pseudo-votes at the prior's
            // implied accuracy) so tiny-coverage LFs stay near w̄.
            let prior_acc = {
                let e = cfg.init_acc_weight.exp();
                e / (e + (self.scheme.num_classes() - 1) as f64)
            };
            let a = (agree[j] as f64 + 5.0 * prior_acc) / (total[j] as f64 + 5.0);
            let a = a.clamp(0.05, 0.95);
            self.w_acc[j] = (0.5 * (a / (1.0 - a)).ln()).clamp(-2.0, 3.0);
        }
    }

    /// Full-batch exact-gradient training for the independent model.
    fn fit_independent_exact(&mut self, plan: &ShardedMatrix, cfg: &TrainConfig) -> FitReport {
        let (epochs, nll) = self.run_exact_epochs(plan, cfg);
        FitReport {
            epochs,
            final_nll: nll,
            used_gibbs: false,
            warm_started: false,
        }
    }

    /// The shared exact-inference training loop (cold fits and warm
    /// restarts alike), maximizing the pseudocount-smoothed marginal
    /// likelihood of the independent model in two phases:
    ///
    /// 1. **EM warm-up** — the model is a tied-error-rate Dawid–Skene
    ///    mixture, so the M-step is closed-form per LF: with posteriors
    ///    `q_i(y)` (E-step, exact) and expected statistics
    ///    `A_j = Σ_{i:Λ_ij≠∅} q_i(Λ_ij)`, `D_j = V_j − A_j`,
    ///    `Z_j = m − V_j`, the Dirichlet-smoothed update is
    ///    `w_acc_j = ln((A_j+α_a)(K−1)/(D_j+α_d))`,
    ///    `w_lab_j = ln((D_j+α_d)/((K−1)(Z_j+α_z)))`, with the
    ///    pseudocounts encoding the paper's LF-accuracy prior (see
    ///    [`prior_pseudocounts`]). A handful of sweeps reaches the right
    ///    basin from any reasonable initialization.
    /// 2. **Damped Newton** — EM's linear tail is governed by the
    ///    missing-information ratio and crawls on real suites, for warm
    ///    restarts just as for cold fits. The exact gradient and Hessian
    ///    of the smoothed likelihood are cheap here (`O(Σ_i |V_i|²)` per
    ///    iteration), so a Levenberg-damped Newton phase converges
    ///    quadratically: the last ten decades of error cost ~3
    ///    iterations instead of ~150 sweeps — which is precisely what
    ///    makes a warm restart (already near the optimum) almost free.
    ///
    /// Both phases move toward the same stationary point of the same
    /// smoothed likelihood, independent of where iteration started — the
    /// property the warm-start path's ≤1e-9 marginal-equivalence
    /// guarantee rests on. Iteration stops one polish step after the
    /// gradient sup-norm falls below `(m+1)·cfg.tol` (or at the
    /// `cfg.epochs` cap).
    ///
    /// Returns `(iterations run, final NLL)`.
    fn run_exact_epochs(&mut self, plan: &ShardedMatrix, cfg: &TrainConfig) -> (usize, f64) {
        const EM_WARMUP_MAX: usize = 15;
        // Warm-up only needs to reach the right basin — the damped Newton
        // phase is robust from a rough start (it falls back to EM sweeps
        // when a step is rejected), so entering it early is pure win.
        const EM_BASIN_TOL: f64 = 3e-2;
        let m = plan.num_rows() as f64;
        let n = self.n;
        if n == 0 {
            return (0, 0.0);
        }
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let (a_agree, a_dis, a_abs) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let m_eff = m + a_agree + a_dis + a_abs;
        let dim = 2 * n; // parameter order: [w_lab | w_acc]
        let mut iters = 0usize;

        // ---------------- Phase 1: plain EM sweeps ----------------
        let mut stats = ExactPassStats::new(n);
        // Per-shard accumulator pool, allocated on the first pass and
        // reused by every later iteration of both phases.
        let mut pool: Vec<ShardPass> = Vec::new();
        loop {
            self.exact_pass(plan, &mut stats, false, &mut pool);
            iters += 1;
            let mut f_inf = 0.0f64;
            for j in 0..n {
                let a_j = stats.agree[j];
                let d_j = (stats.votes_cast[j] - a_j).max(0.0);
                let z_j = (m - stats.votes_cast[j]).max(0.0);
                let new_lab =
                    (((d_j + a_dis) / (k1 * (z_j + a_abs))).ln()).clamp(-W_CLAMP, W_CLAMP);
                let mut new_acc =
                    (((a_j + a_agree) * k1 / (d_j + a_dis)).ln()).clamp(-W_CLAMP, W_CLAMP);
                if cfg.clamp_nonadversarial && new_acc < 0.0 {
                    new_acc = 0.0;
                }
                f_inf = f_inf
                    .max((new_lab - self.w_lab[j]).abs())
                    .max((new_acc - self.w_acc[j]).abs());
                self.w_lab[j] = new_lab;
                self.w_acc[j] = new_acc;
            }
            if f_inf < EM_BASIN_TOL || iters >= EM_WARMUP_MAX || iters >= cfg.epochs {
                break;
            }
        }

        // ---------------- Phase 2: Levenberg-damped Newton ----------------
        let g_stop = (m + 1.0) * if cfg.tol > 0.0 { cfg.tol } else { 0.0 };
        let mut lm = 1e-3f64; // Levenberg damping, adapted per step
        let mut polished = false;
        let mut best_g = f64::INFINITY;
        let mut stalled = 0usize;
        let mut grad = vec![0.0f64; dim];
        let mut hess = vec![vec![0.0f64; dim]; dim];
        while iters < cfg.epochs {
            self.exact_pass(plan, &mut stats, true, &mut pool);
            iters += 1;
            let obj_cur = self.penalized_objective(&stats, m, (a_agree, a_dis, a_abs));

            // Assemble gradient and Hessian of the smoothed likelihood.
            for g in grad.iter_mut() {
                *g = 0.0;
            }
            for row in hess.iter_mut() {
                for h in row.iter_mut() {
                    *h = 0.0;
                }
            }
            for j in 0..n {
                let e_lab = self.w_lab[j].exp();
                let e_la = (self.w_lab[j] + self.w_acc[j]).exp();
                let z = 1.0 + e_la + k1 * e_lab;
                let p1 = e_la / z; // P(agree)
                let v = (e_la + k1 * e_lab) / z; // P(vote at all)
                grad[j] = stats.votes_cast[j] + a_agree + a_dis - m_eff * v;
                grad[n + j] = stats.agree[j] + a_agree - m_eff * p1;
                hess[j][j] -= m_eff * v * (1.0 - v);
                hess[j][n + j] -= m_eff * p1 * (1.0 - v);
                hess[n + j][j] -= m_eff * p1 * (1.0 - v);
                hess[n + j][n + j] -= m_eff * p1 * (1.0 - p1);
            }
            for a in 0..n {
                for b in 0..n {
                    hess[n + a][n + b] += stats.acc_moment[a][b];
                }
            }

            // Box-constraint mask: coordinates pinned at a bound with an
            // outward gradient are frozen for this step (and excluded
            // from the stop test).
            let mut active = vec![true; dim];
            for j in 0..n {
                for (d, w) in [(j, self.w_lab[j]), (n + j, self.w_acc[j])] {
                    let at_lo =
                        w <= -W_CLAMP + 1e-12 || (d >= n && cfg.clamp_nonadversarial && w <= 1e-15);
                    let at_hi = w >= W_CLAMP - 1e-12;
                    if (at_lo && grad[d] < 0.0) || (at_hi && grad[d] > 0.0) {
                        active[d] = false;
                    }
                }
            }
            let g_inf = (0..dim)
                .filter(|&d| active[d])
                .fold(0.0f64, |acc, d| acc.max(grad[d].abs()));
            // Backstop: once the gradient stops halving, iteration has
            // hit the arithmetic noise floor — every later iterate is
            // equivalent, so stop rather than spin to the epoch cap.
            if g_inf < best_g * 0.5 {
                best_g = g_inf;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 8 {
                    break;
                }
            }
            if cfg.tol > 0.0 && g_inf <= g_stop {
                if polished {
                    break;
                }
                // One more quadratic step from here typically lands at
                // the arithmetic noise floor — take it, then stop.
                polished = true;
            }

            // Try damped steps: solve (−H + λ·diag) δ = g, ascend, accept
            // on objective improvement; otherwise increase damping.
            let mut accepted = false;
            for _attempt in 0..10 {
                let mut a_mat = vec![vec![0.0f64; dim]; dim];
                let mut rhs = vec![0.0f64; dim];
                for d in 0..dim {
                    if !active[d] {
                        a_mat[d][d] = 1.0;
                        rhs[d] = 0.0;
                        continue;
                    }
                    for e in 0..dim {
                        if active[e] {
                            a_mat[d][e] = -hess[d][e];
                        }
                    }
                    a_mat[d][d] += lm * (hess[d][d].abs() + 1e-8);
                    rhs[d] = grad[d];
                }
                let Some(delta) = solve_small(&mut a_mat, &mut rhs) else {
                    lm *= 10.0;
                    continue;
                };
                let saved_lab = self.w_lab.clone();
                let saved_acc = self.w_acc.clone();
                for j in 0..n {
                    self.w_lab[j] = (self.w_lab[j] + delta[j]).clamp(-W_CLAMP, W_CLAMP);
                    let mut acc = self.w_acc[j] + delta[n + j];
                    if cfg.clamp_nonadversarial && acc < 0.0 {
                        acc = 0.0;
                    }
                    self.w_acc[j] = acc.clamp(-W_CLAMP, W_CLAMP);
                }
                self.exact_pass(plan, &mut stats, false, &mut pool);
                iters += 1;
                let obj_new = self.penalized_objective(&stats, m, (a_agree, a_dis, a_abs));
                // Acceptance slack at the objective's arithmetic noise
                // floor (the objective is a sum of ~m terms of O(1);
                // demanding more than ~1e-14·|obj| rejects good steps at
                // random near convergence).
                let slack = 1e-12f64.max(obj_cur.abs() * 1e-14);
                if obj_new >= obj_cur - slack {
                    lm = (lm / 3.0).max(1e-12);
                    accepted = true;
                    break;
                }
                self.w_lab = saved_lab;
                self.w_acc = saved_acc;
                lm *= 10.0;
            }
            if !accepted {
                // Heavily damped Newton keeps failing (numerically odd
                // region): fall back to one plain EM sweep, which always
                // makes progress, and reset the damping.
                self.exact_pass(plan, &mut stats, false, &mut pool);
                iters += 1;
                for j in 0..n {
                    let a_j = stats.agree[j];
                    let d_j = (stats.votes_cast[j] - a_j).max(0.0);
                    let z_j = (m - stats.votes_cast[j]).max(0.0);
                    self.w_lab[j] =
                        (((d_j + a_dis) / (k1 * (z_j + a_abs))).ln()).clamp(-W_CLAMP, W_CLAMP);
                    let mut acc =
                        (((a_j + a_agree) * k1 / (d_j + a_dis)).ln()).clamp(-W_CLAMP, W_CLAMP);
                    if cfg.clamp_nonadversarial && acc < 0.0 {
                        acc = 0.0;
                    }
                    self.w_acc[j] = acc;
                }
                lm = 1e-3;
            }
        }

        // Final bookkeeping pass for the reported NLL.
        self.exact_pass(plan, &mut stats, false, &mut pool);
        let nll = stats.nll(m, &self.b_class, &self.w_lab, &self.w_acc, k1);
        (iters, nll)
    }

    /// One exact E-pass over Λ: posteriors accumulated into the expected
    /// per-LF statistics (and, when `with_moments`, the posterior
    /// second-moment matrix the Newton phase needs). Each shard walks its
    /// *unique* vote patterns once, scaling every statistic by the
    /// pattern's multiplicity, and the per-shard partials merge in shard
    /// index order (deterministic for a fixed shard count regardless of
    /// how many worker threads ran). On a DryBell-shaped corpus this
    /// turns the O(m) posterior computations of one pass into
    /// O(#patterns).
    fn exact_pass(
        &self,
        plan: &ShardedMatrix,
        stats: &mut ExactPassStats,
        with_moments: bool,
        pool: &mut Vec<ShardPass>,
    ) {
        let k = self.scheme.num_classes();
        let n = self.n;
        if pool.len() != plan.shards().len() {
            pool.clear();
            pool.resize_with(plan.shards().len(), || ShardPass::new(n, k));
        }
        plan.for_each_shard_with(pool, |idx, slot| {
            let s = &mut slot.stats;
            s.reset(with_moments);
            let scores = &mut slot.scores;
            let row_classes = &mut slot.row_classes;
            for (_, cols, votes, cnt) in idx.live_patterns() {
                let c = cnt as f64;
                scores.copy_from_slice(&self.b_class);
                let mut lab_term = 0.0;
                for (&col, &v) in cols.iter().zip(votes) {
                    let j = col as usize;
                    lab_term += self.w_lab[j];
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        scores[class] += self.w_acc[j];
                    }
                }
                let lse = logsumexp(scores);
                s.loglik += c * (lab_term + lse);
                row_classes.clear();
                for (&col, &v) in cols.iter().zip(votes) {
                    let j = col as usize;
                    s.votes_cast[j] += c;
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        let q = (scores[class] - lse).exp();
                        s.agree[j] += c * q;
                        if with_moments {
                            row_classes.push((j, class, q));
                        }
                    }
                }
                if with_moments {
                    for (x, &(j, cj, qj)) in row_classes.iter().enumerate() {
                        s.acc_moment[j][j] += c * qj * (1.0 - qj);
                        for &(l, cl, ql) in row_classes.iter().skip(x + 1) {
                            let joint = if cj == cl { qj } else { 0.0 };
                            let cov = c * (joint - qj * ql);
                            s.acc_moment[j][l] += cov;
                            s.acc_moment[l][j] += cov;
                        }
                    }
                }
            }
        });
        stats.reset(with_moments);
        for slot in pool.iter() {
            stats.merge(&slot.stats, with_moments);
        }
    }

    /// The pseudocount-smoothed log-likelihood (up to constants shared
    /// by every iterate) — the Newton phase's acceptance objective.
    fn penalized_objective(&self, stats: &ExactPassStats, m: f64, alphas: (f64, f64, f64)) -> f64 {
        let (a_agree, a_dis, a_abs) = alphas;
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let mut obj = stats.loglik;
        for j in 0..self.n {
            let e_lab = self.w_lab[j].exp();
            let e_la = (self.w_lab[j] + self.w_acc[j]).exp();
            let z = 1.0 + e_la + k1 * e_lab;
            obj += a_agree * (self.w_lab[j] + self.w_acc[j]) + a_dis * self.w_lab[j]
                - (m + a_agree + a_dis + a_abs) * z.ln();
        }
        obj
    }

    /// Build an unfitted model over `col_map.len()` LFs whose per-LF
    /// weights are copied from `prev` where `col_map[j] = Some(old_j)`;
    /// `None` columns keep the fresh-model defaults. Correlation factors
    /// are not carried (add them with
    /// [`Self::with_weighted_correlations`] afterwards). This is the
    /// warm-start bridge for *structural* suite edits: after adding or
    /// removing an LF, map every surviving column to its previous weights
    /// and [`LabelModel::fit_warm`] from the remapped model.
    pub fn remapped_from(prev: &GenerativeModel, col_map: &[Option<usize>]) -> GenerativeModel {
        let mut gm = GenerativeModel::new(col_map.len(), prev.scheme);
        for (j, slot) in col_map.iter().enumerate() {
            if let Some(old) = slot {
                assert!(
                    *old < prev.n,
                    "col_map entry {old} out of range ({} LFs)",
                    prev.n
                );
                gm.w_lab[j] = prev.w_lab[*old];
                gm.w_acc[j] = prev.w_acc[*old];
            }
        }
        gm.b_class = prev.b_class.clone();
        gm
    }

    /// Warm-restart fit against `plan` (the [`LabelModel::fit_warm`]
    /// body for a compatible `prev`): start from a previously fitted
    /// model's parameters, re-initialize only the columns in
    /// `changed_cols`, and run the optimizer until convergence.
    ///
    /// For the exact independent path this converges to the same fixed
    /// point a cold fit finds (the update's stationary point is
    /// step-size-independent), so with a convergence tolerance set
    /// ([`TrainConfig::tol`]) warm and cold marginals agree to ≤1e-9 —
    /// while the warm restart, starting next to the optimum, typically
    /// needs an order of magnitude fewer epochs after a one-LF edit.
    ///
    /// For correlated models the CD path is stochastic; warm-starting
    /// still reuses the previous weights (and the correlation weights of
    /// every pair both models share) as the initialization, but no
    /// bit-level equivalence with a cold fit is implied.
    ///
    /// `prev` must have the same LF count and scheme; `changed_cols`
    /// lists the columns whose LF was edited (an empty slice means only
    /// the data changed, e.g. a new candidate batch was ingested).
    pub(crate) fn fit_warm_from(
        &mut self,
        lambda: &LabelMatrix,
        plan: &ShardedMatrix,
        cfg: &TrainConfig,
        prev: &GenerativeModel,
        changed_cols: &[usize],
    ) -> FitReport {
        self.assert_plan_matches(lambda, plan);
        assert_eq!(
            lambda.num_lfs(),
            self.n,
            "matrix has {} LFs but model has {}",
            lambda.num_lfs(),
            self.n
        );
        assert_eq!(prev.n, self.n, "warm start requires matching LF count");
        assert_eq!(
            prev.scheme, self.scheme,
            "warm start requires matching scheme"
        );
        for &j in changed_cols {
            assert!(j < self.n, "changed col {j} out of range ({} LFs)", self.n);
        }

        // Adopt the previous optimum.
        self.w_lab.copy_from_slice(&prev.w_lab);
        self.w_acc.copy_from_slice(&prev.w_acc);
        // Correlation weights carry over where the pair survives; new
        // pairs keep the strength-seeded init set by the constructor.
        for (p, pair) in self.corr_pairs.iter().enumerate() {
            if let Some(prev_p) = prev.corr_pairs.iter().position(|q| q == pair) {
                self.w_corr[p] = prev.w_corr[prev_p];
            }
        }
        // The class balance is a deterministic function of Λ and the
        // policy — recompute so it matches what a cold fit would use.
        self.set_class_balance(plan, cfg);
        // Edited columns start from the cold-path initialization.
        for &j in changed_cols {
            self.reinit_column(plan, cfg, j);
        }
        if lambda.num_points() == 0 {
            return FitReport {
                epochs: 0,
                final_nll: 0.0,
                used_gibbs: false,
                warm_started: true,
            };
        }
        if self.corr_pairs.is_empty() {
            let (epochs, nll) = self.run_exact_epochs(plan, cfg);
            FitReport {
                epochs,
                final_nll: nll,
                used_gibbs: false,
                warm_started: true,
            }
        } else {
            let mut report = self.fit_correlated_cd_from_current(lambda, cfg);
            report.warm_started = true;
            report
        }
    }

    /// Warm-start initialization for an edited column: one coordinate EM
    /// step. The column's parameters are set to their closed-form
    /// conditional MLE given posteriors computed from the *other*
    /// columns' (previously fitted) weights — i.e. the edited LF starts
    /// at its exact optimum conditioned on everything the model already
    /// believed, so the subsequent global EM polish starts next to the
    /// new joint optimum instead of perturbing every posterior with a
    /// generic prior init.
    fn reinit_column(&mut self, plan: &ShardedMatrix, cfg: &TrainConfig, j: usize) {
        let m = plan.num_rows();
        if m == 0 {
            self.w_acc[j] = cfg.init_acc_weight;
            return;
        }
        let k = self.scheme.num_classes();
        let k1 = (k - 1) as f64;
        let jc = j as u32;
        let mut agree = 0.0f64;
        let mut votes_cast = 0.0f64;
        for (a, v) in plan.map_shards(|idx| {
            let (mut agree, mut votes_cast) = (0.0f64, 0.0f64);
            let mut scores = vec![0.0f64; k];
            for (_, cols, votes, cnt) in idx.live_patterns() {
                let Ok(pos) = cols.binary_search(&jc) else {
                    continue;
                };
                // Posterior with column j masked out.
                scores.copy_from_slice(&self.b_class);
                for (&c, &v) in cols.iter().zip(votes) {
                    if c != jc {
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            scores[class] += self.w_acc[c as usize];
                        }
                    }
                }
                softmax_in_place(&mut scores);
                let c = cnt as f64;
                votes_cast += c;
                if let Some(class) = self.scheme.class_of_vote(votes[pos]) {
                    agree += c * scores[class];
                }
            }
            (agree, votes_cast)
        }) {
            agree += a;
            votes_cast += v;
        }
        let (a_agree, a_dis, a_abs) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let d_j = (votes_cast - agree).max(0.0);
        let z_j = (m as f64 - votes_cast).max(0.0);
        self.w_lab[j] = (((d_j + a_dis) / (k1 * (z_j + a_abs))).ln()).clamp(-W_CLAMP, W_CLAMP);
        let mut acc = (((agree + a_agree) * k1 / (d_j + a_dis)).ln()).clamp(-W_CLAMP, W_CLAMP);
        if cfg.clamp_nonadversarial && acc < 0.0 {
            acc = 0.0;
        }
        self.w_acc[j] = acc;
    }

    /// Minibatch contrastive-divergence training for correlated models.
    ///
    /// Initialization discounts each LF's prior accuracy weight by its
    /// strength-weighted redundancy `1 + Σ_k ρ_jk` over its correlated
    /// partners: a cluster of near-copies carries roughly one voter's
    /// worth of evidence, so the discount keeps it from dominating the
    /// latent posterior before the correlation weights can explain its
    /// coherence. Without this, Example 3.1's pathology (a large
    /// low-accuracy correlated block out-voting a few accurate LFs) is a
    /// local optimum the SGD cannot leave, because the block pins the
    /// label posterior from the first epoch. Correlation weights start
    /// at their structure-learning strengths rather than zero so the
    /// model phase accounts for the redundancy from the first step.
    fn fit_correlated_cd(&mut self, lambda: &LabelMatrix, cfg: &TrainConfig) -> FitReport {
        let mut redundancy = vec![0.0f64; self.n];
        for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
            let s = self.corr_strength[p].min(1.5);
            redundancy[a] += s;
            redundancy[b] += s;
        }
        for j in 0..self.n {
            self.w_acc[j] = cfg.init_acc_weight / (1.0 + redundancy[j]);
        }
        for p in 0..self.corr_pairs.len() {
            self.w_corr[p] = self.corr_strength[p].min(2.0);
        }
        self.fit_correlated_cd_from_current(lambda, cfg)
    }

    /// The CD epoch loop, starting from whatever weights are currently
    /// set (the warm-start path enters here directly).
    fn fit_correlated_cd_from_current(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        let m = lambda.num_points();
        let k = self.scheme.num_classes();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..m).collect();
        let mut lr = cfg.cd_learning_rate;

        // Dense vote buffer reused by the Gibbs chain.
        let mut chain = vec![0 as Vote; self.n];
        let mut scores = vec![0.0f64; k];

        for _epoch in 0..cfg.cd_epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(cfg.batch_size) {
                let bs = batch.len() as f64;
                let mut g_lab = vec![0.0; self.n];
                let mut g_acc = vec![0.0; self.n];
                let mut g_corr = vec![0.0; self.corr_pairs.len()];

                for &i in batch {
                    let (cols, votes) = lambda.row(i);

                    // Posterior phase (exact).
                    let post = self.posterior(cols, votes);
                    for (&c, &v) in cols.iter().zip(votes) {
                        let j = c as usize;
                        g_lab[j] += 1.0;
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            g_acc[j] += post[class];
                        }
                    }

                    // Observed correlation agreements (vote agreement
                    // only — see the module docs on the factor).
                    chain.iter_mut().for_each(|v| *v = 0);
                    for (&c, &v) in cols.iter().zip(votes) {
                        chain[c as usize] = v;
                    }
                    for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
                        if chain[a] == chain[b] && chain[a] != 0 {
                            g_corr[p] += 1.0;
                        }
                    }

                    // Model phase: CD-k Gibbs chain from the observed row.
                    for _sweep in 0..cfg.gibbs_steps {
                        // Sample y' | Λ'.
                        scores.copy_from_slice(&self.b_class);
                        for (j, &v) in chain.iter().enumerate() {
                            if let Some(class) = self.scheme.class_of_vote(v) {
                                scores[class] += self.w_acc[j];
                            }
                        }
                        softmax_in_place(&mut scores);
                        let y_class = sample_categorical(&mut rng, &scores);
                        // Sample each Λ'_j | y', Λ'_{-j}.
                        for j in 0..self.n {
                            chain[j] = self.sample_vote(&mut rng, j, y_class, &chain);
                        }
                    }

                    // Subtract model-phase statistics.
                    for (j, &v) in chain.iter().enumerate() {
                        if v != 0 {
                            g_lab[j] -= 1.0;
                        }
                        // Accuracy factor: need y'; resample once more for
                        // an unbiased-ish pairing of (Λ', y').
                    }
                    scores.copy_from_slice(&self.b_class);
                    for (j, &v) in chain.iter().enumerate() {
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            scores[class] += self.w_acc[j];
                        }
                    }
                    softmax_in_place(&mut scores);
                    let y_final = sample_categorical(&mut rng, &scores);
                    for (j, &v) in chain.iter().enumerate() {
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            if class == y_final {
                                g_acc[j] -= 1.0;
                            }
                        }
                    }
                    for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
                        if chain[a] == chain[b] && chain[a] != 0 {
                            g_corr[p] -= 1.0;
                        }
                    }
                }

                // Apply the averaged ascent step.
                for j in 0..self.n {
                    self.w_lab[j] = (self.w_lab[j] + lr * (g_lab[j] / bs - cfg.l2 * self.w_lab[j]))
                        .clamp(-W_CLAMP, W_CLAMP);
                    self.w_acc[j] = (self.w_acc[j] + lr * (g_acc[j] / bs - cfg.l2 * self.w_acc[j]))
                        .clamp(-W_CLAMP, W_CLAMP);
                    if cfg.clamp_nonadversarial && self.w_acc[j] < 0.0 {
                        self.w_acc[j] = 0.0;
                    }
                }
                for p in 0..self.corr_pairs.len() {
                    self.w_corr[p] = (self.w_corr[p]
                        + lr * (g_corr[p] / bs - cfg.l2 * self.w_corr[p]))
                        .clamp(-W_CLAMP, W_CLAMP);
                }
            }
            lr *= cfg.lr_decay;
        }

        FitReport {
            epochs: cfg.cd_epochs,
            final_nll: f64::NAN,
            used_gibbs: true,
            warm_started: false,
        }
    }

    /// Sample `Λ'_j` from its conditional given the class and the other
    /// chain entries.
    fn sample_vote(&self, rng: &mut StdRng, j: usize, y_class: usize, chain: &[Vote]) -> Vote {
        let k = self.scheme.num_classes();
        // Candidate values: abstain + each class vote.
        let mut weights = Vec::with_capacity(k + 1);
        let mut values = Vec::with_capacity(k + 1);
        for cand_class in std::iter::once(None).chain((0..k).map(Some)) {
            let v = cand_class.map_or(0, |c| self.scheme.vote_of_class(c));
            let mut s = 0.0;
            if v != 0 {
                s += self.w_lab[j];
                if cand_class == Some(y_class) {
                    s += self.w_acc[j];
                }
            }
            for &(pair_idx, other) in &self.corr_adj[j] {
                if v != 0 && v == chain[other] {
                    s += self.w_corr[pair_idx];
                }
            }
            values.push(v);
            weights.push(s);
        }
        softmax_in_place(&mut weights);
        values[sample_categorical(rng, &weights)]
    }
}

/// Pseudocounts encoding the paper's LF-accuracy prior (footnote 8:
/// mean prior weight w̄, i.e. accuracy `e^w̄/(e^w̄+K−1)` ≈ 73% binary)
/// as a Dirichlet over the per-LF outcome buckets: `strength` prior
/// votes split between agree/disagree at the prior accuracy, plus a
/// weak abstain bucket. With a handful of real votes the data washes
/// the prior out; with none (a brand-new tiny suite) the prior carries,
/// matching the original trainer's Bayesian-init semantics.
pub(crate) fn prior_pseudocounts(init_acc_weight: f64, k1: f64) -> (f64, f64, f64) {
    const PRIOR_STRENGTH: f64 = 4.0;
    let e = init_acc_weight.exp();
    let prior_acc = e / (e + k1);
    let alpha_agree = PRIOR_STRENGTH * prior_acc;
    let alpha_dis = PRIOR_STRENGTH * (1.0 - prior_acc);
    let alpha_abs = 0.5;
    (alpha_agree, alpha_dis, alpha_abs)
}

/// Accumulators for one exact E-pass (see `GenerativeModel::exact_pass`).
struct ExactPassStats {
    /// `V_j`: rows where LF j voted.
    votes_cast: Vec<f64>,
    /// `A_j = Σ_i q_i(Λ_ij)`: expected agreements.
    agree: Vec<f64>,
    /// Row log-likelihood terms `Σ_i (Σ_{j∈V_i} w_lab_j + lse_i)`.
    loglik: f64,
    /// Posterior second moments `Σ_i cov_i(φ_j, φ_k)` (Newton only).
    acc_moment: Vec<Vec<f64>>,
}

/// One shard's slot in the exact-pass scratch pool: the partial
/// accumulators plus the per-pattern posterior buffers. The fit loop
/// owns one pool for its whole run, so every EM/Newton iteration after
/// the first reuses these buffers instead of reallocating them per
/// pass (`ShardedMatrix::for_each_shard_with` pairs slot `i` with
/// shard `i` deterministically).
struct ShardPass {
    stats: ExactPassStats,
    scores: Vec<f64>,
    row_classes: Vec<(usize, usize, f64)>,
}

impl ShardPass {
    fn new(n: usize, k: usize) -> Self {
        ShardPass {
            stats: ExactPassStats::new(n),
            scores: vec![0.0; k],
            row_classes: Vec::new(),
        }
    }
}

impl ExactPassStats {
    fn new(n: usize) -> Self {
        ExactPassStats {
            votes_cast: vec![0.0; n],
            agree: vec![0.0; n],
            loglik: 0.0,
            acc_moment: vec![vec![0.0; n]; n],
        }
    }

    fn reset(&mut self, with_moments: bool) {
        self.votes_cast.iter_mut().for_each(|v| *v = 0.0);
        self.agree.iter_mut().for_each(|v| *v = 0.0);
        self.loglik = 0.0;
        if with_moments {
            for row in self.acc_moment.iter_mut() {
                row.iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }

    /// Add another pass's accumulators (the sharded reduction; callers
    /// merge in shard index order for determinism).
    fn merge(&mut self, other: &ExactPassStats, with_moments: bool) {
        for (a, b) in self.votes_cast.iter_mut().zip(&other.votes_cast) {
            *a += b;
        }
        for (a, b) in self.agree.iter_mut().zip(&other.agree) {
            *a += b;
        }
        self.loglik += other.loglik;
        if with_moments {
            for (ra, rb) in self.acc_moment.iter_mut().zip(&other.acc_moment) {
                for (a, b) in ra.iter_mut().zip(rb) {
                    *a += b;
                }
            }
        }
    }

    /// The reported mean NLL (same formula the old trainer printed):
    /// `−loglik/m + Σ_j ln z_j + logsumexp(b)`.
    fn nll(&self, m: f64, b_class: &[f64], w_lab: &[f64], w_acc: &[f64], k1: f64) -> f64 {
        if m == 0.0 {
            return 0.0;
        }
        let mut log_z_sum = 0.0;
        for (l, a) in w_lab.iter().zip(w_acc) {
            log_z_sum += (1.0 + (l + a).exp() + k1 * l.exp()).ln();
        }
        -(self.loglik / m) + log_z_sum + logsumexp(b_class)
    }
}

/// Solve a small dense linear system (the `2n × 2n` damped-Newton step;
/// n = LF count, so typically tens of unknowns) in place by Gaussian
/// elimination with partial pivoting. No symmetry or definiteness is
/// assumed. Returns `None` on (numerical) singularity — the caller then
/// raises the Levenberg damping and retries.
fn solve_small(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let k = b.len();
    for col in 0..k {
        let pivot = (col..k).max_by(|&x, &y| {
            a[x][col]
                .abs()
                .partial_cmp(&a[y][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..k {
            let factor = a[row][col] / a[col][col];
            for c in col..k {
                a[row][c] -= factor * a[col][c];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = b[row];
        for c in (row + 1)..k {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
        if !x[row].is_finite() {
            return None;
        }
    }
    Some(x)
}

/// Draw an index from a normalized categorical distribution.
fn sample_categorical(rng: &mut StdRng, probs: &[f64]) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity_plan::identity_plan;
    use snorkel_matrix::LabelMatrixBuilder;

    /// Plant a binary dataset: LF `j` votes with propensity `pl` and
    /// accuracy `accs[j]`.
    fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> (LabelMatrix, Vec<Vote>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = LabelMatrixBuilder::new(m, accs.len());
        let mut gold = Vec::with_capacity(m);
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            gold.push(y);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < pl {
                    let v = if rng.gen::<f64>() < acc { y } else { -y };
                    b.set(i, j, v);
                }
            }
        }
        (b.build(), gold)
    }

    #[test]
    fn scheme_round_trips() {
        let b = LabelScheme::Binary;
        assert_eq!(b.class_of_vote(1), Some(0));
        assert_eq!(b.class_of_vote(-1), Some(1));
        assert_eq!(b.class_of_vote(0), None);
        assert_eq!(b.vote_of_class(0), 1);
        assert_eq!(b.vote_of_class(1), -1);
        let m = LabelScheme::MultiClass(5);
        for c in 0..5 {
            assert_eq!(m.class_of_vote(m.vote_of_class(c)), Some(c));
        }
    }

    #[test]
    fn recovers_planted_accuracies() {
        let accs = [0.9, 0.8, 0.7, 0.6, 0.55];
        let (lambda, _) = planted(4000, &accs, 0.6, 7);
        let mut gm = GenerativeModel::new(5, LabelScheme::Binary);
        gm.fit(&lambda, None, &TrainConfig::default());
        let implied = gm.implied_accuracies();
        for (j, &a) in accs.iter().enumerate() {
            assert!(
                (implied[j] - a).abs() < 0.08,
                "LF{j}: implied {:.3} vs true {a}",
                implied[j]
            );
        }
        // Ordering must be recovered exactly.
        for j in 1..accs.len() {
            assert!(
                implied[j - 1] > implied[j],
                "accuracy order violated at {j}"
            );
        }
    }

    #[test]
    fn recovers_propensity() {
        let (lambda, _) = planted(4000, &[0.8, 0.8], 0.3, 3);
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        gm.fit(&lambda, None, &TrainConfig::default());
        // P(vote) under the model = (e^{lab+acc} + e^{lab}) / z.
        for j in 0..2 {
            let e_lab = gm.propensity_weights()[j].exp();
            let e_la = (gm.propensity_weights()[j] + gm.accuracy_weights()[j]).exp();
            let z = 1.0 + e_la + e_lab;
            let p_vote = (e_la + e_lab) / z;
            assert!((p_vote - 0.3).abs() < 0.05, "propensity {p_vote:.3}");
        }
    }

    #[test]
    fn example_1_1_conflict_resolution() {
        // High-accuracy source vs low-accuracy source (paper Example
        // 1.1): after fitting, a conflict resolves toward the stronger
        // source. A third source is needed for identifiability — with
        // only two conditionally independent voters, the marginal
        // likelihood depends only on their agreement rate (the classical
        // Dawid-Skene two-view ambiguity), so individual accuracies
        // cannot be recovered.
        let (lambda, _) = planted(3000, &[0.9, 0.6, 0.75], 0.8, 11);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        gm.fit(&lambda, None, &TrainConfig::default());
        let post = gm.posterior(&[0, 1], &[1, -1]); // sources 0 and 1 disagree
        assert!(
            post[0] > 0.6,
            "posterior must side with the accurate source, got {:.3}",
            post[0]
        );
    }

    #[test]
    fn params_round_trip_is_bit_identical() {
        let (lambda, _) = planted(500, &[0.9, 0.7, 0.6], 0.5, 21);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary)
            .with_weighted_correlations(&[(0, 2)], &[0.8]);
        gm.fit(&lambda, None, &TrainConfig::default());
        let back = GenerativeModel::from_params(gm.to_params()).unwrap();
        let plan = identity_plan(&lambda);
        assert_eq!(
            back.marginals(&lambda, Some(&plan)),
            gm.marginals(&lambda, Some(&plan))
        );
        assert_eq!(back.correlations(), gm.correlations());
        assert_eq!(back.correlation_weights(), gm.correlation_weights());
        assert_eq!(back.to_params(), gm.to_params());
    }

    #[test]
    fn from_params_rejects_corruption() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary);
        // Length mismatch.
        let mut p = gm.to_params();
        p.w_acc.pop();
        assert!(GenerativeModel::from_params(p).is_err());
        // Unnormalized pair.
        let mut p = gm.to_params();
        p.corr_pairs = vec![(2, 1)];
        p.w_corr = vec![0.0];
        p.corr_strength = vec![1.0];
        assert!(GenerativeModel::from_params(p).is_err());
        // Out-of-range pair.
        let mut p = gm.to_params();
        p.corr_pairs = vec![(0, 3)];
        p.w_corr = vec![0.0];
        p.corr_strength = vec![1.0];
        assert!(GenerativeModel::from_params(p).is_err());
        // Non-finite weight.
        let mut p = gm.to_params();
        p.w_lab[0] = f64::NAN;
        assert!(GenerativeModel::from_params(p).is_err());
        // Wrong balance length.
        let mut p = gm.to_params();
        p.b_class.push(0.0);
        assert!(GenerativeModel::from_params(p).is_err());
    }

    #[test]
    fn posterior_uniform_without_votes() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary);
        let post = gm.posterior(&[], &[]);
        assert!((post[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginals_and_hard_labels() {
        let (lambda, gold) = planted(1500, &[0.85, 0.85, 0.85], 0.9, 5);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        gm.fit(&lambda, None, &TrainConfig::default());
        let probs = gm.prob_positive(&lambda);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let preds = gm.predicted_labels(&lambda);
        let acc = crate::vote::vote_accuracy(&preds, &gold);
        assert!(acc > 0.9, "posterior MAP accuracy {acc:.3}");
    }

    #[test]
    fn fit_is_deterministic() {
        let (lambda, _) = planted(500, &[0.8, 0.7], 0.5, 2);
        let mut a = GenerativeModel::new(2, LabelScheme::Binary);
        let mut b = GenerativeModel::new(2, LabelScheme::Binary);
        a.fit(&lambda, None, &TrainConfig::default());
        b.fit(&lambda, None, &TrainConfig::default());
        assert_eq!(a.accuracy_weights(), b.accuracy_weights());
    }

    #[test]
    fn example_3_1_correlation_correction() {
        // 5 perfectly correlated LFs at 50% accuracy + 2 independent LFs
        // at 95%: the independent model over-trusts the correlated block;
        // modeling the correlations restores the good LFs' dominance.
        let m = 2000;
        let mut rng = StdRng::seed_from_u64(13);
        let n = 7;
        let mut b = LabelMatrixBuilder::new(m, n);
        let mut gold = Vec::new();
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            gold.push(y);
            // Correlated block: one coin flip copied to LFs 0..5.
            let block_vote: Vote = if rng.gen::<f64>() < 0.5 { y } else { -y };
            for j in 0..5 {
                b.set(i, j, block_vote);
            }
            for j in 5..7 {
                if rng.gen::<f64>() < 0.95 {
                    b.set(i, j, y);
                } else {
                    b.set(i, j, -y);
                }
            }
        }
        let lambda = b.build();

        let mut indep = GenerativeModel::new(n, LabelScheme::Binary);
        indep.fit(&lambda, None, &TrainConfig::default());

        let pairs: Vec<(usize, usize)> = (0..5)
            .flat_map(|a| ((a + 1)..5).map(move |b| (a, b)))
            .collect();
        let mut corr = GenerativeModel::new(n, LabelScheme::Binary).with_correlations(&pairs);
        corr.fit(&lambda, None, &TrainConfig::default());

        // Under the correlated model, a conflict of (block says +1,
        // good LFs say −1) must resolve toward the good LFs.
        let cols: Vec<u32> = (0..7).collect();
        let votes: Vec<Vote> = vec![1, 1, 1, 1, 1, -1, -1];
        let post_corr = corr.posterior(&cols, &votes);
        assert!(
            post_corr[1] > 0.5,
            "correlated model must trust the independent accurate LFs, p(-1) = {:.3}",
            post_corr[1]
        );
        // And it must do better than the independent model does.
        let post_indep = indep.posterior(&cols, &votes);
        assert!(
            post_corr[1] > post_indep[1] - 0.05,
            "corr {:.3} vs indep {:.3}",
            post_corr[1],
            post_indep[1]
        );
        // Learned correlation weights on the block must be positive.
        let mean_corr: f64 = corr.correlation_weights().iter().sum::<f64>()
            / corr.correlation_weights().len() as f64;
        assert!(mean_corr > 0.1, "mean correlation weight {mean_corr:.3}");
    }

    #[test]
    fn multiclass_posterior_and_recovery() {
        let k = 3u8;
        let scheme = LabelScheme::MultiClass(k);
        let mut rng = StdRng::seed_from_u64(21);
        let m = 3000;
        let accs = [0.85, 0.7, 0.55];
        let mut b = LabelMatrixBuilder::with_cardinality(m, 3, k);
        for i in 0..m {
            let y = rng.gen_range(0..k as usize);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < 0.7 {
                    let class = if rng.gen::<f64>() < acc {
                        y
                    } else {
                        // Uniform error over the other classes.
                        let mut c = rng.gen_range(0..(k as usize - 1));
                        if c >= y {
                            c += 1;
                        }
                        c
                    };
                    b.set(i, j, scheme.vote_of_class(class));
                }
            }
        }
        let lambda = b.build();
        let mut gm = GenerativeModel::new(3, scheme);
        gm.fit(&lambda, None, &TrainConfig::default());
        let implied = gm.implied_accuracies();
        assert!(implied[0] > implied[1] && implied[1] > implied[2]);
        assert!((implied[0] - 0.85).abs() < 0.1, "implied {:.3}", implied[0]);
        let post = gm.posterior(&[0], &[scheme.vote_of_class(2)]);
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(post[2] > post[0]);
    }

    #[test]
    fn clamp_nonadversarial_floors_weights() {
        // An adversarial LF (accuracy 20%) gets a negative weight when
        // two accurate LFs pin down the labels; the clamp keeps it at
        // zero instead.
        let (lambda, _) = planted(2000, &[0.9, 0.85, 0.2], 0.8, 17);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        let cfg = TrainConfig {
            clamp_nonadversarial: true,
            ..TrainConfig::default()
        };
        gm.fit(&lambda, None, &cfg);
        assert!(gm.accuracy_weights()[2] >= 0.0);

        let mut free = GenerativeModel::new(3, LabelScheme::Binary);
        free.fit(&lambda, None, &TrainConfig::default());
        assert!(
            free.accuracy_weights()[2] < 0.0,
            "unclamped fit must detect the adversarial LF, got {:?}",
            free.accuracy_weights()
        );
    }

    /// Replace column `j` of a binary matrix with fresh planted votes.
    fn edit_column(lambda: &LabelMatrix, j: usize, acc: f64, pl: f64, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lambda = lambda.clone();
        let mut entries = Vec::new();
        for i in 0..lambda.num_points() {
            if rng.gen::<f64>() < pl {
                let v: Vote = if rng.gen::<f64>() < acc { 1 } else { -1 };
                entries.push((i as u32, v));
            }
        }
        lambda.replace_column(j, &entries);
        lambda
    }

    #[test]
    fn tol_stops_early_at_the_same_optimum() {
        let (lambda, _) = planted(1500, &[0.85, 0.75, 0.65], 0.5, 4);
        let full = TrainConfig {
            tol: 0.0,
            ..TrainConfig::default()
        };
        let tol = TrainConfig::default(); // tol = 1e-14
        let mut a = GenerativeModel::new(3, LabelScheme::Binary);
        let ra = a.fit(&lambda, None, &full);
        let mut b = GenerativeModel::new(3, LabelScheme::Binary);
        let rb = b.fit(&lambda, None, &tol);
        assert!(rb.epochs <= ra.epochs);
        for (wa, wb) in a.accuracy_weights().iter().zip(b.accuracy_weights()) {
            assert!(
                (wa - wb).abs() < 1e-9,
                "tol changed the optimum: {wa} vs {wb}"
            );
        }
    }

    /// A realistic dev-loop suite: 10 LFs spanning the paper's assumed
    /// accuracy band. (Tiny 3-LF matrices sit on the classic Dawid–Skene
    /// near-degenerate ridge where *every* optimizer's notion of
    /// "converged" is ill-determined; they are not the warm-start
    /// contract's domain.)
    const SUITE: [f64; 10] = [0.9, 0.85, 0.82, 0.78, 0.75, 0.72, 0.7, 0.67, 0.63, 0.6];

    #[test]
    fn warm_start_matches_cold_fit_after_column_edit() {
        let (lambda, _) = planted(2000, &SUITE, 0.4, 8);
        let cfg = TrainConfig::default();
        let mut base = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        base.fit(&lambda, None, &cfg);

        let edited = edit_column(&lambda, 4, 0.85, 0.5, 99);

        let mut cold = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        let cold_report = cold.fit(&edited, None, &cfg);

        let mut warm = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        let warm_report = warm.fit_warm(&edited, None, &cfg, &base, &[4]);
        assert!(warm_report.warm_started);

        // Same optimum: marginals within 1e-9 of the cold path.
        let cold_marg = cold.marginals(&edited, None);
        let warm_marg = warm.marginals(&edited, None);
        let mut max_diff = 0.0f64;
        for (c, w) in cold_marg.iter().zip(&warm_marg) {
            for (pc, pw) in c.iter().zip(w) {
                max_diff = max_diff.max((pc - pw).abs());
            }
        }
        assert!(max_diff < 1e-9, "warm/cold marginal gap {max_diff:e}");

        // And cheaper: the warm restart starts next to the optimum.
        assert!(
            warm_report.epochs <= cold_report.epochs,
            "warm {} vs cold {} epochs",
            warm_report.epochs,
            cold_report.epochs
        );
    }

    #[test]
    fn warm_start_handles_new_rows() {
        let (lambda, _) = planted(1200, &SUITE, 0.4, 21);
        let cfg = TrainConfig::default();
        let mut base = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        base.fit(&lambda, None, &cfg);

        // Ingest 300 more rows.
        let (extra, _) = planted(300, &SUITE, 0.4, 22);
        let mut grown = lambda.clone();
        let rows: Vec<Vec<(u32, Vote)>> = (0..extra.num_points())
            .map(|i| {
                let (cols, votes) = extra.row(i);
                cols.iter().copied().zip(votes.iter().copied()).collect()
            })
            .collect();
        grown.append_rows(&rows);

        let mut cold = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        cold.fit(&grown, None, &cfg);
        let mut warm = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        warm.fit_warm(&grown, None, &cfg, &base, &[]);
        for (c, w) in cold.accuracy_weights().iter().zip(warm.accuracy_weights()) {
            assert!((c - w).abs() < 1e-8, "acc weight gap {c} vs {w}");
        }
    }

    #[test]
    #[should_panic(expected = "matching LF count")]
    fn warm_start_rejects_shape_mismatch() {
        let (lambda, _) = planted(100, &[0.8, 0.8], 0.5, 1);
        let prev = GenerativeModel::new(3, LabelScheme::Binary);
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        gm.fit_warm_from(
            &lambda,
            &build_plan(&lambda),
            &TrainConfig::default(),
            &prev,
            &[],
        );
    }

    #[test]
    fn empty_matrix_fit_is_noop() {
        let lambda = LabelMatrixBuilder::new(0, 2).build();
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        let report = gm.fit(&lambda, None, &TrainConfig::default());
        assert_eq!(report.epochs, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_correlation_pair_panics() {
        let _ = GenerativeModel::new(2, LabelScheme::Binary).with_correlations(&[(0, 5)]);
    }

    #[test]
    fn duplicate_pairs_deduplicated() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary).with_correlations(&[
            (0, 1),
            (1, 0),
            (0, 1),
            (1, 2),
        ]);
        assert_eq!(gm.correlations(), &[(0, 1), (1, 2)]);
    }
}
