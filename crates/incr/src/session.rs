//! The interactive dev-loop session: add/edit/remove labeling functions,
//! ingest candidate batches, and [`IncrementalSession::refresh`] — which
//! recomputes *only* what the edits touched.

use std::sync::OnceLock;
use std::time::Duration;

use snorkel_context::{CandidateId, CandidateView, Corpus};
use snorkel_core::label_model::{LabelModel, ModelRegistry, ModelSnapshot};
use snorkel_core::model::{build_plan, plan_shards, LabelScheme, ParamsError, TrainConfig};
use snorkel_core::optimizer::{advantage_upper_bound, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{fit_labels, select_strategy, DiscTrainer, DiscTrainerConfig};
use snorkel_disc::{DiscModelParts, DistillReport, DistilledModel, TextFeaturizer};
use snorkel_lf::{BoxedLf, LfExecutor};
use snorkel_linalg::SparseVec;
use snorkel_matrix::{
    LabelMatrix, MatrixDelta, ResignScratch, ShardedMatrix, ShardedMatrixParts, Vote,
};
use snorkel_stream::{DriftConfig, FrozenStream, StreamState};

use crate::cache::{CacheStats, FrozenCache, LfResultCache};
use crate::fingerprint::Fingerprint;

/// Pre-resolved global-registry handles for the incremental layer,
/// resolved once per process so refresh bookkeeping is a handful of
/// relaxed atomic stores.
struct IncrMetrics {
    cache_hits: std::sync::Arc<snorkel_obs::Counter>,
    cache_misses: std::sync::Arc<snorkel_obs::Counter>,
    cache_extensions: std::sync::Arc<snorkel_obs::Counter>,
    cache_evictions: std::sync::Arc<snorkel_obs::Counter>,
    refreshes: std::sync::Arc<snorkel_obs::Counter>,
    refresh_generation: std::sync::Arc<snorkel_obs::Gauge>,
    unique_patterns: std::sync::Arc<snorkel_obs::Gauge>,
    cache_columns: std::sync::Arc<snorkel_obs::Gauge>,
    cache_capacity: std::sync::Arc<snorkel_obs::Gauge>,
    rows: std::sync::Arc<snorkel_obs::Gauge>,
    lfs: std::sync::Arc<snorkel_obs::Gauge>,
    scratch_bytes: std::sync::Arc<snorkel_obs::Gauge>,
}

fn incr_metrics() -> &'static IncrMetrics {
    static METRICS: OnceLock<IncrMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = snorkel_obs::global();
        IncrMetrics {
            cache_hits: r.counter("snorkel_incr_cache_hits_total", &[]),
            cache_misses: r.counter("snorkel_incr_cache_misses_total", &[]),
            cache_extensions: r.counter("snorkel_incr_cache_extensions_total", &[]),
            cache_evictions: r.counter("snorkel_incr_cache_evictions_total", &[]),
            refreshes: r.counter("snorkel_incr_refreshes_total", &[]),
            refresh_generation: r.gauge("snorkel_incr_refresh_generation", &[]),
            unique_patterns: r.gauge("snorkel_incr_unique_patterns", &[]),
            cache_columns: r.gauge("snorkel_incr_cache_columns", &[]),
            cache_capacity: r.gauge("snorkel_incr_cache_capacity", &[]),
            rows: r.gauge("snorkel_incr_rows", &[]),
            lfs: r.gauge("snorkel_incr_lfs", &[]),
            scratch_bytes: r.gauge("snorkel_incr_scratch_bytes", &[]),
        }
    })
}

/// Start a span for one refresh stage, recording into
/// `snorkel_incr_refresh_stage_seconds{stage="…"}`. As in the batch
/// pipeline, [`finish`](snorkel_obs::Span::finish) hands back the
/// duration the [`RefreshTimings`] report, so the live metric and the
/// report are the same measurement.
fn stage_span(stage: &'static str) -> snorkel_obs::Span {
    let hist =
        snorkel_obs::global().histogram("snorkel_incr_refresh_stage_seconds", &[("stage", stage)]);
    snorkel_obs::Span::start(stage, hist, snorkel_obs::TraceLevel::Debug)
}

/// Start a span for one [`IncrementalSession::ingest_batch`] call,
/// recording into `snorkel_stream_ingest_seconds` — the steady-state
/// ingest latency the streaming bench gates on.
fn ingest_span() -> snorkel_obs::Span {
    static HIST: OnceLock<std::sync::Arc<snorkel_obs::Histogram>> = OnceLock::new();
    let hist =
        HIST.get_or_init(|| snorkel_obs::global().histogram("snorkel_stream_ingest_seconds", &[]));
    snorkel_obs::Span::start(
        "ingest",
        std::sync::Arc::clone(hist),
        snorkel_obs::TraceLevel::Debug,
    )
}

/// Extend `plan` over the rows appended to `lambda`: they are interned
/// into the tail shard while the plan's shard count is the shard rule's
/// for the grown Λ. Otherwise (growth crossed `SCALEOUT_MIN_ROWS`, or
/// the plan was thawed from a snapshot written under another rule) the
/// plan is rebuilt, as a cold build of Λ would be. Returns whether it
/// was rebuilt.
fn grow_plan(plan: &mut ShardedMatrix, lambda: &LabelMatrix) -> bool {
    if plan.num_shards() == plan_shards(lambda.num_points()) {
        plan.append_rows(lambda);
        false
    } else {
        *plan = build_plan(lambda);
        true
    }
}

/// Grow `lambda` to `rows` rows, gathering the appended rows' votes from
/// the live columns' cached entries (`live` is the suite's column
/// layout; every column must already cover `rows`).
fn append_cached_rows(
    cache: &mut LfResultCache,
    live: &[Fingerprint],
    lambda: &mut LabelMatrix,
    rows: usize,
) {
    let old_rows = lambda.num_points();
    let mut appended: Vec<Vec<(u32, Vote)>> = vec![Vec::new(); rows - old_rows];
    for (j, fp) in live.iter().enumerate() {
        let entries = cache.entries(*fp).expect("live column cached");
        let start = entries.partition_point(|e| (e.0 as usize) < old_rows);
        for &(row, v) in &entries[start..] {
            appended[row as usize - old_rows].push((j as u32, v));
        }
    }
    lambda.apply_delta(&MatrixDelta::AppendRows { rows: appended });
}

/// Publish the per-LF drift gauges
/// (`snorkel_stream_drift_score_lf_ppm{lf="…"}`, scores × 10⁶ — the
/// registry's gauges are integers). Registered here rather than in
/// `snorkel-stream` because only the session knows the LF names.
fn publish_drift_gauges<'a>(names: impl Iterator<Item = &'a str>, scores: &[f64]) {
    let registry = snorkel_obs::global();
    for (name, score) in names.zip(scores) {
        registry
            .gauge("snorkel_stream_drift_score_lf_ppm", &[("lf", name)])
            .set((score * 1_000_000.0).round() as i64);
    }
}

/// Session configuration. The defaults mirror
/// [`snorkel_core::pipeline::PipelineConfig`], plus the LF-result cache
/// bound and the streaming drift settings.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// LF executor (parallelism, vote-scheme cardinality).
    pub executor: LfExecutor,
    /// Generative-model training settings. Keep
    /// [`TrainConfig::tol`] non-zero: the warm-start equivalence
    /// guarantee is "both runs converged", and the tolerance is what
    /// "converged" means.
    pub train: TrainConfig,
    /// Optimizer settings (Algorithm 1).
    pub optimizer: OptimizerConfig,
    /// Force a backend instead of running the optimizer (resolved
    /// through [`Self::registry`]).
    pub force_strategy: Option<ModelingStrategy>,
    /// The label-model backends this session may build.
    pub registry: ModelRegistry,
    /// Maximum cached columns (live suite columns are never evicted).
    pub cache_capacity: usize,
    /// Distillation: when set, [`IncrementalSession::distill`] trains a
    /// serving-side [`DistilledModel`] on the label model's marginals
    /// (warm across refreshes). The model carries a *staleness
    /// generation*: refreshes never block on disc retraining, they just
    /// advance [`IncrementalSession::refresh_generation`] past the
    /// disc model's.
    pub distill: Option<DiscTrainerConfig>,
    /// Drift-detector settings used when [`IncrementalSession::ingest_batch`]
    /// auto-enables streaming (window size, ring depth, refit threshold).
    pub drift: DriftConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            executor: LfExecutor::default(),
            train: TrainConfig::default(),
            optimizer: OptimizerConfig::default(),
            force_strategy: None,
            registry: ModelRegistry::standard(),
            cache_capacity: 256,
            distill: None,
            drift: DriftConfig::default(),
        }
    }
}

/// Wall-clock breakdown of one refresh.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshTimings {
    /// Executing LF columns that missed the cache (or row extensions).
    pub lf_application: Duration,
    /// Patching / assembling Λ.
    pub matrix_assembly: Duration,
    /// Strategy selection (bound check, or the full sweep).
    pub strategy_selection: Duration,
    /// Generative training (zero when MV was chosen).
    pub training: Duration,
    /// Whole refresh.
    pub total: Duration,
}

/// How Λ was brought up to date.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LambdaUpdate {
    /// First refresh, or a structural suite change: assembled from cached
    /// columns in one pass.
    Assembled,
    /// Patched in place with column/row deltas.
    Patched {
        /// Columns spliced by [`MatrixDelta::ReplaceColumn`].
        columns_replaced: usize,
        /// Rows appended by [`MatrixDelta::AppendRows`].
        rows_appended: usize,
    },
    /// Nothing changed; the previous Λ was reused untouched.
    Unchanged,
}

/// Everything one [`IncrementalSession::refresh`] did and produced,
/// besides the labels themselves.
#[derive(Clone, Debug)]
pub struct RefreshReport {
    /// The strategy that produced the labels.
    pub strategy: ModelingStrategy,
    /// Predicted advantage bound A~* (`NaN` when forced or multi-class).
    pub predicted_advantage: f64,
    /// Label density of Λ.
    pub label_density: f64,
    /// How Λ was updated.
    pub lambda_update: LambdaUpdate,
    /// Columns served straight from cache.
    pub columns_reused: usize,
    /// Columns executed from scratch this refresh.
    pub columns_recomputed: usize,
    /// Columns extended onto newly ingested rows.
    pub columns_extended: usize,
    /// Individual LF invocations this refresh (`columns × rows`
    /// actually executed — *the* number the cache exists to minimize).
    pub lf_invocations: usize,
    /// Whether the structure sweep was skipped in favor of the previous
    /// refresh's correlation structure.
    pub structure_reused: bool,
    /// Name of the label-model backend that produced the labels.
    pub backend: &'static str,
    /// Whether training warm-started from the previous model.
    pub warm_started: bool,
    /// Training iterations run (0 for fit-free backends like MV).
    pub fit_epochs: usize,
    /// Distinct vote patterns in the sharded pattern plan.
    pub unique_patterns: usize,
    /// Cumulative cache statistics.
    pub cache: CacheStats,
    /// Stage timings.
    pub timings: RefreshTimings,
}

/// What one [`IncrementalSession::ingest_batch`] call did: how the
/// batch was absorbed, whether the model was refreshed online (no pass
/// over Λ) and where the drift detector stands.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Rows appended by this batch.
    pub rows: usize,
    /// Individual LF invocations (always `rows × live columns` on the
    /// steady path — only the new rows are executed).
    pub lf_invocations: usize,
    /// `true` when the batch rode the steady streaming path: columns
    /// extended, Λ spliced, model re-solved from running statistics via
    /// `fit_online` — **no cold `fit`, no pass over Λ**. `false` when
    /// the backend has no online path or the session needed a full
    /// refresh first (un-refreshed suite edits pending).
    pub online_fit: bool,
    /// Overall drift score after this batch.
    pub drift_score: f64,
    /// Whether the drift threshold was crossed by this batch.
    pub drifted: bool,
    /// Whether a drift-triggered automatic warm refit ran (bumping
    /// [`IncrementalSession::refresh_generation`] a second time).
    pub auto_refit: bool,
    /// The session's refresh generation after the ingest.
    pub generation: u64,
}

/// What [`IncrementalSession::extend_live_columns`] executed (the
/// [`RefreshReport`] fields of the same names).
#[derive(Default)]
struct ColumnWork {
    reused: usize,
    recomputed: usize,
    extended: usize,
    lf_invocations: usize,
}

struct SessionLf {
    lf: BoxedLf,
    fingerprint: Fingerprint,
}

/// The session's distilled serving model, stamped with the refresh
/// generation whose marginals trained it. Self-contained: it carries
/// its own [`DiscTrainerConfig`] so a thawed session keeps predicting
/// (and retraining) without the operator re-supplying the
/// configuration.
#[derive(Clone, Debug)]
pub struct DiscState {
    /// Featurizer + training settings the model was distilled with.
    pub config: DiscTrainerConfig,
    /// The distilled model.
    pub model: DistilledModel,
    /// [`IncrementalSession::refresh_generation`] value whose marginals
    /// this model was trained on. Lower than the live counter ⇒ stale
    /// (still serving, just lagging the latest edit).
    pub generation: u64,
}

/// Everything one distillation run needs, cloned out of the session so
/// training can happen **without holding the session lock** — the
/// serving layer's non-blocking retrain path. Produced by
/// [`IncrementalSession::disc_training_set`], consumed by
/// [`DiscTrainingSet::train`], installed with
/// [`IncrementalSession::install_disc`].
#[derive(Clone, Debug)]
pub struct DiscTrainingSet {
    /// Featurizer + training settings to distill with.
    pub config: DiscTrainerConfig,
    /// Hashed feature vectors, row-aligned with the marginals (the
    /// cache may run longer when candidates were ingested since the
    /// last refresh; training uses the first `marginals.len()` rows).
    /// Shared with the session's cache: taking a training set is O(1)
    /// in the feature count, not a deep copy under the caller's lock.
    pub features: std::sync::Arc<Vec<SparseVec>>,
    /// The label model's per-row marginals at `generation`. Shared with
    /// the session's refresh cache — O(1) to take.
    pub marginals: std::sync::Arc<Vec<Vec<f64>>>,
    /// Row ranges to parallelize over (the live plan's shard ranges).
    pub ranges: Vec<(usize, usize)>,
    /// Classes per marginal row.
    pub num_classes: usize,
    /// Previous model to warm-start from, if any.
    pub warm: Option<DistilledModel>,
    /// The refresh generation the marginals belong to.
    pub generation: u64,
}

impl DiscTrainingSet {
    /// Distill (warm when [`Self::warm`] is set). Pure function of the
    /// set — safe to run outside any session lock.
    pub fn train(self) -> (DiscState, DistillReport) {
        let trainer = DiscTrainer::new(self.config);
        // Candidates ingested after the last refresh have features but
        // no marginal row yet; they join training after the next
        // refresh labels them.
        let rows = self.marginals.len();
        let retrain_span = stage_span("disc_retrain");
        let (model, report) = trainer.train_from(
            self.warm,
            &self.features[..rows],
            &self.marginals,
            self.num_classes,
            &self.ranges,
        );
        drop(retrain_span);
        (
            DiscState {
                config: trainer.config,
                model,
                generation: self.generation,
            },
            report,
        )
    }
}

/// Everything an [`IncrementalSession`] needs to restart warm, as plain
/// owned data — the stable encoding surface for `snorkel-serve`
/// snapshots. Produced by [`IncrementalSession::freeze`], consumed by
/// [`IncrementalSession::thaw`].
///
/// The LF *code* is deliberately absent: Rust closures cannot be
/// serialized, and a corpus is derived state the operator reloads from
/// its own source of truth. Thawing therefore takes the corpus and a
/// freshly constructed LF suite; the frozen fingerprints re-attach to
/// the supplied LFs by name, so nothing is re-executed.
#[derive(Clone, Debug)]
pub struct FrozenSession {
    /// Registered candidate rows, in row order.
    pub candidates: Vec<CandidateId>,
    /// Per-name auto-version counters, sorted by name.
    pub versions: Vec<(String, u64)>,
    /// Live suite layout at freeze time: `(name, fingerprint)` per
    /// column.
    pub suite: Vec<(String, Fingerprint)>,
    /// The LF-result cache.
    pub cache: FrozenCache,
    /// The label matrix of the last refresh.
    pub lambda: Option<LabelMatrix>,
    /// The sharded pattern plan of the last refresh.
    pub plan: Option<ShardedMatrixParts>,
    /// The label model of the last refresh, tagged with its backend.
    pub model: Option<ModelSnapshot>,
    /// Column-aligned fingerprint layout at the last refresh.
    pub last_fingerprints: Vec<Fingerprint>,
    /// Row count at the last refresh.
    pub last_rows: usize,
    /// Last structure-sweep outcome and the LF-name layout it indexes.
    pub last_gm_strategy: Option<(ModelingStrategy, Vec<String>)>,
    /// Refresh generation at freeze time (the disc staleness reference).
    pub refresh_generation: u64,
    /// The distilled serving model, if one was trained. The row-aligned
    /// feature cache is deliberately absent — features are derived state,
    /// re-extracted from the reloaded corpus on the next distill.
    pub disc: Option<FrozenDisc>,
    /// The streaming plane's state (running moment statistics, drift
    /// reference window, lifetime counters), if streaming was active.
    pub stream: Option<FrozenStream>,
}

/// Plain-data image of a [`DiscState`] (see [`FrozenSession::disc`]).
#[derive(Clone, Debug)]
pub struct FrozenDisc {
    /// Featurizer + training settings the model was distilled with.
    pub config: DiscTrainerConfig,
    /// The distilled model's stable encoding.
    pub model: DiscModelParts,
    /// Refresh generation whose marginals trained the model.
    pub generation: u64,
}

/// Why [`IncrementalSession::thaw`] refused to restore a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThawError {
    /// The supplied LF suite does not match the frozen layout.
    SuiteMismatch(String),
    /// The frozen state is internally inconsistent (corrupt or
    /// hand-edited snapshot, or a corpus that does not cover the
    /// registered candidates).
    Inconsistent(String),
    /// The frozen label model's parameters violate a structural
    /// invariant (see [`ParamsError`]).
    Model(ParamsError),
}

impl std::fmt::Display for ThawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThawError::SuiteMismatch(msg) => write!(f, "LF suite mismatch: {msg}"),
            ThawError::Inconsistent(msg) => write!(f, "inconsistent frozen state: {msg}"),
            ThawError::Model(e) => write!(f, "invalid frozen model: {e}"),
        }
    }
}

impl std::error::Error for ThawError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThawError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for ThawError {
    fn from(e: ParamsError) -> Self {
        ThawError::Model(e)
    }
}

/// The incremental labeling engine's façade: an interactive-session
/// counterpart to the batch [`snorkel_core::pipeline::Pipeline`], running
/// the same select, fit and distill stages. It adds cache, Λ and plan
/// maintenance, and structure reuse: a one-column edit may reuse only
/// the previous refresh's selection.
///
/// ## Contract
///
/// * **Append-only corpus.** Candidates registered with the session are
///   assumed immutable: the cache key is `(lf_fingerprint, candidate)`,
///   so in-place edits to already-registered candidates would serve
///   stale votes. Grow the corpus through [`Self::corpus_mut`] +
///   [`Self::ingest_candidates`]; call [`Self::invalidate_cache`] if you
///   must mutate in place.
/// * **Names identify LFs.** [`Self::edit_lf`] / [`Self::remove_lf`]
///   address the suite by `LabelingFunction::name()`; names must be
///   unique within the session.
/// * **Equivalence.** After any edit sequence, [`Self::refresh`]
///   produces a Λ bit-identical to applying the current suite from
///   scratch, and (on the exact training path, with a convergence
///   tolerance set) marginals within 1e-9 of a cold
///   [`snorkel_core::pipeline::Pipeline::run`] — asserted by this
///   crate's property tests.
pub struct IncrementalSession {
    corpus: Corpus,
    config: SessionConfig,
    candidates: Vec<CandidateId>,
    lfs: Vec<SessionLf>,
    versions: std::collections::HashMap<String, u64>,
    cache: LfResultCache,
    lambda: Option<LabelMatrix>,
    /// Sharded pattern index over `lambda` (present exactly when `lambda`
    /// is), maintained incrementally across refreshes and ingests: an
    /// appended candidate batch interns just the new rows, a one-column
    /// edit re-signs just the rows that voted in the old or new column.
    /// Every fit, marginals pass and distillation range reads it.
    plan: Option<ShardedMatrix>,
    /// The label-model backend of the last refresh (whatever the
    /// optimizer selected — majority vote included).
    model: Option<Box<dyn LabelModel>>,
    /// Fingerprint layout at the last refresh (column-aligned).
    last_fingerprints: Vec<Fingerprint>,
    /// The previous refresh's selection when it was a generative model
    /// (its correlation structure), together with the LF-name layout it
    /// was derived from — pair indices are only meaningful against that
    /// exact layout.
    last_gm_strategy: Option<(ModelingStrategy, Vec<String>)>,
    /// Bumped by every [`Self::refresh`]; the reference the disc
    /// model's staleness is measured against.
    refresh_generation: u64,
    /// Row-aligned hashed-feature cache for distillation (grown lazily;
    /// cleared when the featurizer changes). Behind an `Arc` so a
    /// [`DiscTrainingSet`] shares it instead of deep-copying under the
    /// caller's lock.
    features: std::sync::Arc<Vec<SparseVec>>,
    /// The featurizer [`Self::features`] was extracted with.
    features_featurizer: Option<TextFeaturizer>,
    /// The last refresh's marginals, kept only while distillation is
    /// configured so [`Self::disc_training_set`] does not recompute a
    /// full inference pass the refresh just produced. `Arc`d so taking
    /// a training set under the serving write lock is O(1).
    last_marginals: Option<std::sync::Arc<Vec<Vec<f64>>>>,
    /// The distilled serving model, if any.
    disc: Option<DiscState>,
    /// The streaming plane: running moment statistics + drift detector,
    /// fed by [`Self::ingest_batch`]. `None` until streaming is enabled
    /// (explicitly, from a thawed snapshot, or by the first ingest).
    stream: Option<StreamState>,
    /// Reusable re-sign scratch for the sharded plan's delta column
    /// splices: grown to the workload's high-water mark on the first
    /// edit, reset (not freed) on every subsequent refresh. Its
    /// footprint is the `snorkel_incr_scratch_bytes` gauge.
    resign_scratch: ResignScratch,
}

impl IncrementalSession {
    /// A session over `corpus` with no candidates or LFs registered yet.
    pub fn new(corpus: Corpus, config: SessionConfig) -> Self {
        let cache = LfResultCache::new(config.cache_capacity);
        IncrementalSession {
            corpus,
            config,
            candidates: Vec::new(),
            lfs: Vec::new(),
            versions: std::collections::HashMap::new(),
            cache,
            lambda: None,
            plan: None,
            model: None,
            last_fingerprints: Vec::new(),
            last_gm_strategy: None,
            refresh_generation: 0,
            features: std::sync::Arc::new(Vec::new()),
            features_featurizer: None,
            last_marginals: None,
            disc: None,
            stream: None,
            resign_scratch: ResignScratch::new(),
        }
    }

    /// Convenience: a session pre-registered with every candidate of the
    /// corpus, in id order (matching
    /// [`snorkel_lf::LfExecutor::apply_all`]).
    pub fn over_all_candidates(corpus: Corpus, config: SessionConfig) -> Self {
        let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
        let mut s = IncrementalSession::new(corpus, config);
        s.ingest_candidates(&ids);
        s
    }

    /// Read access to the corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Read access to the session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the corpus — for *growing* it (new documents,
    /// sentences, spans, candidates). Mutating content of candidates
    /// already registered breaks the cache contract; see the type docs.
    pub fn corpus_mut(&mut self) -> &mut Corpus {
        &mut self.corpus
    }

    /// The registered candidates, in row order.
    pub fn candidates(&self) -> &[CandidateId] {
        &self.candidates
    }

    /// Number of registered candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of LFs in the live suite.
    pub fn num_lfs(&self) -> usize {
        self.lfs.len()
    }

    /// Names of the live suite, in column order.
    pub fn lf_names(&self) -> Vec<&str> {
        self.lfs.iter().map(|s| s.lf.name()).collect()
    }

    /// Fingerprints of the live suite, in column order.
    pub fn live_fingerprints(&self) -> Vec<Fingerprint> {
        self.lfs.iter().map(|s| s.fingerprint).collect()
    }

    /// Whether the live suite is exactly the layout the last refresh's
    /// Λ/model were built for (same fingerprints, same column order) —
    /// i.e. whether [`Self::model`]'s columns can score votes indexed
    /// by the live suite. False after any un-refreshed add/edit/remove.
    pub fn suite_matches_last_refresh(&self) -> bool {
        self.lfs.len() == self.last_fingerprints.len()
            && self
                .lfs
                .iter()
                .zip(&self.last_fingerprints)
                .all(|(s, fp)| s.fingerprint == *fp)
    }

    /// The current label matrix (after the first refresh).
    pub fn label_matrix(&self) -> Option<&LabelMatrix> {
        self.lambda.as_ref()
    }

    /// The label model of the last refresh (any backend; downcast for
    /// backend-specific state, e.g.
    /// `session.model()?.downcast_ref::<GenerativeModel>()`).
    pub fn model(&self) -> Option<&dyn LabelModel> {
        self.model.as_deref()
    }

    /// Name of the active label-model backend (after the first refresh).
    pub fn backend_name(&self) -> Option<&'static str> {
        self.model.as_deref().map(LabelModel::backend_name)
    }

    /// The live sharded pattern plan (after the first refresh).
    pub fn pattern_plan(&self) -> Option<&ShardedMatrix> {
        self.plan.as_ref()
    }

    /// How many refreshes this session has run — the reference point
    /// for disc-model staleness.
    pub fn refresh_generation(&self) -> u64 {
        self.refresh_generation
    }

    /// The distilled serving model (and the generation it was trained
    /// at), if one exists.
    pub fn disc(&self) -> Option<&DiscState> {
        self.disc.as_ref()
    }

    /// Whether the disc model lags the label model: `true` after a
    /// refresh until the next [`Self::distill`] /
    /// [`Self::install_disc`] lands. A session with no disc model is
    /// not "stale" — there is nothing lagging.
    pub fn disc_is_stale(&self) -> bool {
        self.disc
            .as_ref()
            .is_some_and(|d| d.generation < self.refresh_generation)
    }

    /// The streaming plane's state (running moment statistics, drift
    /// detector, lifetime counters), if streaming is active.
    pub fn stream(&self) -> Option<&StreamState> {
        self.stream.as_ref()
    }

    /// Activate the streaming plane with the session config's
    /// [`DriftConfig`]. Idempotent. The running statistics are seeded
    /// from the current Λ (one batch pass, once) so subsequent
    /// [`Self::ingest_batch`] refits solve over *all* rows, not just
    /// the streamed tail. Called implicitly by the first ingest.
    pub fn enable_streaming(&mut self) {
        if self.stream.is_some() {
            return;
        }
        let scheme = LabelScheme::from_cardinality(self.config.executor.cardinality);
        let mut state = StreamState::new(self.lfs.len(), scheme, self.config.drift.clone());
        if let Some(lambda) = &self.lambda {
            state.rebuild_from_matrix(lambda);
        }
        self.stream = Some(state);
    }

    /// The active distillation configuration: the session config's, or
    /// the one the live disc model carries (a thawed session keeps
    /// retraining with the frozen settings).
    fn distill_config(&self) -> Option<DiscTrainerConfig> {
        self.config
            .distill
            .clone()
            .or_else(|| self.disc.as_ref().map(|d| d.config.clone()))
    }

    /// Bring the row-aligned feature cache up to date for `featurizer`.
    /// Extends in place when the cache is uniquely owned; only when a
    /// previous [`DiscTrainingSet`] still shares it does this pay one
    /// copy-on-write.
    fn ensure_features(&mut self, featurizer: &TextFeaturizer) {
        if self.features_featurizer.as_ref() != Some(featurizer) {
            self.features = std::sync::Arc::new(Vec::new());
            self.features_featurizer = Some(featurizer.clone());
        }
        let from = self.features.len();
        if from < self.candidates.len() {
            let new = featurizer.featurize_all(&self.corpus, &self.candidates[from..]);
            match std::sync::Arc::get_mut(&mut self.features) {
                Some(cache) => cache.extend(new),
                None => {
                    let mut cache = self.features.to_vec();
                    cache.extend(new);
                    self.features = std::sync::Arc::new(cache);
                }
            }
        }
    }

    /// Everything one distillation run needs, cloned out so training can
    /// happen without borrowing the session (the serving layer trains
    /// outside its session lock; see [`DiscTrainingSet`]). `None` until
    /// the first refresh, or when no distillation config is available.
    pub fn disc_training_set(&mut self) -> Option<DiscTrainingSet> {
        let config = self.distill_config()?;
        let lambda = self.lambda.as_ref()?;
        let model = self.model.as_deref()?;
        // Serve the marginals the refresh just computed; recompute only
        // when none are cached (e.g. a freshly thawed session).
        let marginals = match &self.last_marginals {
            Some(m) if m.len() == lambda.num_points() => std::sync::Arc::clone(m),
            _ => std::sync::Arc::new(model.marginals(lambda, self.plan.as_ref())),
        };
        let num_classes = LabelScheme::from_cardinality(lambda.cardinality()).num_classes();
        let ranges = DiscTrainer::ranges_for(self.plan.as_ref(), marginals.len());
        self.ensure_features(&config.featurizer);
        Some(DiscTrainingSet {
            features: std::sync::Arc::clone(&self.features),
            marginals,
            ranges,
            num_classes,
            warm: self.disc.as_ref().map(|d| d.model.clone()),
            generation: self.refresh_generation,
            config,
        })
    }

    /// Install a freshly distilled model. Returns `true` when the model
    /// is current (trained on this generation's marginals), `false` when
    /// another refresh landed while it trained — it still installs if it
    /// is newer than what it replaces, so serving improves monotonically.
    pub fn install_disc(&mut self, state: DiscState) -> bool {
        let current = state.generation == self.refresh_generation;
        if self
            .disc
            .as_ref()
            .is_none_or(|live| state.generation >= live.generation)
        {
            self.disc = Some(state);
        }
        current
    }

    /// Distill (or warm-retrain) the serving model from the current
    /// marginals, in place. The inline counterpart of the
    /// [`Self::disc_training_set`] → train → [`Self::install_disc`]
    /// flow; returns `None` under the same conditions.
    pub fn distill(&mut self) -> Option<DistillReport> {
        let set = self.disc_training_set()?;
        let (state, report) = set.train();
        self.install_disc(state);
        Some(report)
    }

    /// Cumulative cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of cached LF-result columns (live + superseded).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Maximum cached LF-result columns.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Set the session-shape gauges of the global registry from current
    /// state. Called after every refresh; [`Self::thaw`] calls it too,
    /// so a restarted process reports its reconstructed generation and
    /// cache shape before the first refresh (counters, by contrast,
    /// reset with the process — they count what *this* process did).
    fn publish_gauges(&self) {
        let metrics = incr_metrics();
        metrics
            .refresh_generation
            .set(self.refresh_generation.min(i64::MAX as u64) as i64);
        metrics
            .unique_patterns
            .set(self.plan.as_ref().map_or(0, ShardedMatrix::num_patterns) as i64);
        metrics.cache_columns.set(self.cache.len() as i64);
        metrics.cache_capacity.set(self.cache.capacity() as i64);
        metrics.rows.set(self.candidates.len() as i64);
        metrics.lfs.set(self.lfs.len() as i64);
        metrics
            .scratch_bytes
            .set(self.resign_scratch.bytes().min(i64::MAX as usize) as i64);
    }

    /// Drop all cached LF results (required after mutating registered
    /// candidates in place — see the type-level contract).
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
    }

    /// Register new candidate rows (appended after the existing ones).
    /// Panics on candidates already registered — rows are append-only.
    pub fn ingest_candidates(&mut self, ids: &[CandidateId]) {
        let mut seen: std::collections::HashSet<CandidateId> =
            self.candidates.iter().copied().collect();
        for id in ids {
            assert!(
                seen.insert(*id),
                "candidate {id} is already registered (rows are append-only and unique)"
            );
        }
        self.candidates.extend_from_slice(ids);
    }

    fn column_of(&self, name: &str) -> Option<usize> {
        self.lfs.iter().position(|s| s.lf.name() == name)
    }

    fn next_version(&mut self, name: &str) -> u64 {
        let v = self.versions.entry(name.to_string()).or_insert(0);
        let out = *v;
        *v += 1;
        out
    }

    /// Add an LF (auto-versioned fingerprint). Returns its column index.
    pub fn add_lf(&mut self, lf: BoxedLf) -> usize {
        let version = self.next_version(lf.name());
        let fingerprint = Fingerprint::of_auto(lf.name(), version);
        self.add_lf_with_fingerprint(lf, fingerprint)
    }

    /// Add an LF with a caller-supplied content tag (see
    /// [`Fingerprint`]): same `(name, tag)` ⇒ same fingerprint ⇒ cache
    /// hits across re-adds and reverts. Returns its column index.
    pub fn add_lf_tagged(&mut self, lf: BoxedLf, content_tag: u64) -> usize {
        let fingerprint = Fingerprint::of(lf.name(), content_tag);
        self.add_lf_with_fingerprint(lf, fingerprint)
    }

    fn add_lf_with_fingerprint(&mut self, lf: BoxedLf, fingerprint: Fingerprint) -> usize {
        assert!(
            self.column_of(lf.name()).is_none(),
            "LF {:?} is already in the suite (names are unique; use edit_lf)",
            lf.name()
        );
        self.lfs.push(SessionLf { lf, fingerprint });
        self.lfs.len() - 1
    }

    /// Replace the same-named LF with a new version (auto-versioned
    /// fingerprint). Returns its column index.
    pub fn edit_lf(&mut self, lf: BoxedLf) -> usize {
        let version = self.next_version(lf.name());
        let fingerprint = Fingerprint::of_auto(lf.name(), version);
        self.edit_lf_with_fingerprint(lf, fingerprint)
    }

    /// Replace the same-named LF, identifying the new version by a
    /// caller-supplied content tag: editing back to a previously seen tag
    /// reuses that version's cached column. Returns its column index.
    pub fn edit_lf_tagged(&mut self, lf: BoxedLf, content_tag: u64) -> usize {
        let fingerprint = Fingerprint::of(lf.name(), content_tag);
        self.edit_lf_with_fingerprint(lf, fingerprint)
    }

    fn edit_lf_with_fingerprint(&mut self, lf: BoxedLf, fingerprint: Fingerprint) -> usize {
        let col = self
            .column_of(lf.name())
            .unwrap_or_else(|| panic!("LF {:?} is not in the suite (use add_lf)", lf.name()));
        self.lfs[col] = SessionLf { lf, fingerprint };
        col
    }

    /// Remove an LF from the suite. Its cached column stays around (LRU)
    /// so re-adding the same version is free. Returns the removed
    /// column's index, or `None` if no such LF.
    pub fn remove_lf(&mut self, name: &str) -> Option<usize> {
        let col = self.column_of(name)?;
        self.lfs.remove(col);
        Some(col)
    }

    /// Apply the live LF suite to one candidate view, returning one vote
    /// per column (0 = abstain). This is the serving probe: a labeling
    /// service answers "label this new data point" by running the suite
    /// on a transient candidate and feeding the votes to
    /// [`Self::model`]'s posterior — no session state is touched, so it
    /// runs under a shared read lock.
    pub fn apply_lfs(&self, view: &CandidateView<'_>) -> Vec<Vote> {
        self.lfs.iter().map(|s| s.lf.label(view)).collect()
    }

    /// Snapshot the session's warm state as plain data (see
    /// [`FrozenSession`]). The session is untouched; pair with
    /// [`Self::thaw`] to restart a process without re-executing any LF
    /// or re-fitting from scratch.
    pub fn freeze(&self) -> FrozenSession {
        let mut versions: Vec<(String, u64)> = self
            .versions
            .iter()
            .map(|(name, &v)| (name.clone(), v))
            .collect();
        versions.sort();
        FrozenSession {
            candidates: self.candidates.clone(),
            versions,
            suite: self
                .lfs
                .iter()
                .map(|s| (s.lf.name().to_string(), s.fingerprint))
                .collect(),
            cache: self.cache.export(),
            lambda: self.lambda.clone(),
            plan: self.plan.as_ref().map(ShardedMatrix::to_parts),
            model: self.model.as_deref().map(LabelModel::to_snapshot),
            last_fingerprints: self.last_fingerprints.clone(),
            last_rows: self.lambda.as_ref().map_or(0, LabelMatrix::num_points),
            last_gm_strategy: self.last_gm_strategy.clone(),
            refresh_generation: self.refresh_generation,
            disc: self.disc.as_ref().map(|d| FrozenDisc {
                config: d.config.clone(),
                model: d.model.to_parts(),
                generation: d.generation,
            }),
            stream: self.stream.as_ref().map(StreamState::freeze),
        }
    }

    /// Restore a frozen session around a reloaded corpus and a freshly
    /// constructed LF suite.
    ///
    /// `lfs` must contain exactly the frozen layout's names (any order);
    /// each LF adopts its frozen fingerprint, i.e. it is *assumed
    /// behaviorally identical* to the version that produced the cached
    /// columns — the same contract as [`Self::add_lf_tagged`] with a
    /// reused tag. A thawed session's first
    /// [`refresh`](Self::refresh) with an unchanged suite executes zero
    /// LF invocations and warm-starts training at the frozen optimum, so
    /// it reproduces the frozen marginals bit-for-bit.
    ///
    /// Every structural invariant of the frozen state is validated
    /// against the corpus and `config` — corrupt or mismatched state
    /// returns a typed [`ThawError`] instead of panicking later.
    pub fn thaw(
        corpus: Corpus,
        config: SessionConfig,
        frozen: FrozenSession,
        lfs: Vec<BoxedLf>,
    ) -> Result<Self, ThawError> {
        let FrozenSession {
            candidates,
            versions,
            suite,
            cache,
            lambda,
            plan,
            model,
            last_fingerprints,
            last_rows,
            last_gm_strategy,
            refresh_generation,
            disc,
            stream,
        } = frozen;

        // --- Re-attach the supplied LFs to the frozen layout by name.
        if lfs.len() != suite.len() {
            return Err(ThawError::SuiteMismatch(format!(
                "frozen suite has {} LFs, {} supplied",
                suite.len(),
                lfs.len()
            )));
        }
        let mut by_name: std::collections::HashMap<String, BoxedLf> =
            std::collections::HashMap::new();
        for lf in lfs {
            let name = lf.name().to_string();
            if by_name.insert(name.clone(), lf).is_some() {
                return Err(ThawError::SuiteMismatch(format!("duplicate LF {name:?}")));
            }
        }
        let mut session_lfs = Vec::with_capacity(suite.len());
        for (name, fingerprint) in &suite {
            let Some(lf) = by_name.remove(name) else {
                return Err(ThawError::SuiteMismatch(format!(
                    "frozen suite expects LF {name:?}, not supplied"
                )));
            };
            session_lfs.push(SessionLf {
                lf,
                fingerprint: *fingerprint,
            });
        }

        // --- Validate the frozen state against corpus and config.
        let cardinality = config.executor.cardinality;
        let mut seen = std::collections::HashSet::new();
        for id in &candidates {
            if id.index() >= corpus.num_candidates() {
                return Err(ThawError::Inconsistent(format!(
                    "registered candidate {id} not present in the corpus \
                     ({} candidates)",
                    corpus.num_candidates()
                )));
            }
            if !seen.insert(*id) {
                return Err(ThawError::Inconsistent(format!(
                    "candidate {id} registered twice"
                )));
            }
        }
        if last_rows > candidates.len() {
            return Err(ThawError::Inconsistent(format!(
                "last refresh covered {last_rows} rows but only {} candidates are registered",
                candidates.len()
            )));
        }
        // Collect into the live map up front so duplicates are caught
        // regardless of the snapshot's ordering (a later duplicate would
        // otherwise silently rewind the counter, letting an auto-tagged
        // re-add reproduce an old fingerprint still in the cache).
        let mut version_map = std::collections::HashMap::new();
        for (name, v) in versions {
            if version_map.insert(name.clone(), v).is_some() {
                return Err(ThawError::Inconsistent(format!(
                    "duplicate version counter for {name:?}"
                )));
            }
        }
        let cache = LfResultCache::import(cache, cardinality).map_err(ThawError::Inconsistent)?;
        if let Some(lambda) = &lambda {
            if lambda.num_points() != last_rows {
                return Err(ThawError::Inconsistent(format!(
                    "Λ has {} rows but the last refresh covered {last_rows}",
                    lambda.num_points()
                )));
            }
            if lambda.num_lfs() != last_fingerprints.len() {
                return Err(ThawError::Inconsistent(format!(
                    "Λ has {} columns but the last refresh had {}",
                    lambda.num_lfs(),
                    last_fingerprints.len()
                )));
            }
            if lambda.cardinality() != cardinality {
                return Err(ThawError::Inconsistent(format!(
                    "Λ cardinality {} != executor cardinality {cardinality}",
                    lambda.cardinality()
                )));
            }
        } else if last_rows > 0 || !last_fingerprints.is_empty() {
            return Err(ThawError::Inconsistent(
                "a refresh happened but Λ is missing".into(),
            ));
        }
        // Snapshots of sessions that never built a plan (older ones,
        // below the old row-count threshold) thaw with a rebuilt one.
        let plan = match (plan, &lambda) {
            (None, None) => None,
            (Some(_), None) => {
                return Err(ThawError::Inconsistent(
                    "a sharded plan without a matrix".into(),
                ))
            }
            (None, Some(lambda)) => Some(build_plan(lambda)),
            (Some(parts), Some(lambda)) => {
                let plan = ShardedMatrix::from_parts(parts).map_err(ThawError::Inconsistent)?;
                plan.validate(lambda).map_err(ThawError::Inconsistent)?;
                Some(plan)
            }
        };
        let model = match model {
            None => None,
            Some(snapshot) => {
                let model = snapshot.restore()?;
                if model.num_lfs() != last_fingerprints.len() {
                    return Err(ThawError::Inconsistent(format!(
                        "{} model covers {} LFs but the last refresh had {}",
                        model.backend_name(),
                        model.num_lfs(),
                        last_fingerprints.len()
                    )));
                }
                if model.scheme() != LabelScheme::from_cardinality(cardinality) {
                    return Err(ThawError::Inconsistent(
                        "model scheme != executor cardinality".into(),
                    ));
                }
                Some(model)
            }
        };
        if let Some((
            ModelingStrategy::GenerativeModel {
                correlations,
                strengths,
                ..
            },
            layout,
        )) = &last_gm_strategy
        {
            if strengths.len() != correlations.len() {
                return Err(ThawError::Inconsistent(
                    "correlation strengths not parallel to pairs".into(),
                ));
            }
            if correlations
                .iter()
                .any(|&(a, b)| a >= layout.len() || b >= layout.len() || a == b)
            {
                return Err(ThawError::Inconsistent(
                    "stored correlation pair indexes outside its layout".into(),
                ));
            }
        }

        let disc = match disc {
            None => None,
            Some(frozen_disc) => {
                if frozen_disc.generation > refresh_generation {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model generation {} is ahead of the session's {}",
                        frozen_disc.generation, refresh_generation
                    )));
                }
                if frozen_disc.config.train.dim != frozen_disc.config.featurizer.buckets {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model dim {} != featurizer buckets {}",
                        frozen_disc.config.train.dim, frozen_disc.config.featurizer.buckets
                    )));
                }
                let model = DistilledModel::from_parts(&frozen_disc.model)
                    .map_err(ThawError::Inconsistent)?;
                if model.dim() != frozen_disc.config.train.dim {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model dim {} != its config dim {}",
                        model.dim(),
                        frozen_disc.config.train.dim
                    )));
                }
                Some(DiscState {
                    config: frozen_disc.config,
                    model,
                    generation: frozen_disc.generation,
                })
            }
        };

        let stream = match stream {
            None => None,
            Some(frozen_stream) => {
                let state = StreamState::thaw(frozen_stream)
                    .map_err(|e| ThawError::Inconsistent(e.to_string()))?;
                if state.num_lfs() != last_fingerprints.len() {
                    return Err(ThawError::Inconsistent(format!(
                        "stream statistics cover {} LFs but the last refresh had {}",
                        state.num_lfs(),
                        last_fingerprints.len()
                    )));
                }
                if state.scheme() != LabelScheme::from_cardinality(cardinality) {
                    return Err(ThawError::Inconsistent(
                        "stream scheme != executor cardinality".into(),
                    ));
                }
                Some(state)
            }
        };

        let session = IncrementalSession {
            corpus,
            config,
            candidates,
            lfs: session_lfs,
            versions: version_map,
            cache,
            lambda,
            plan,
            model,
            last_fingerprints,
            last_gm_strategy,
            refresh_generation,
            features: std::sync::Arc::new(Vec::new()),
            features_featurizer: None,
            last_marginals: None,
            disc,
            stream,
            resign_scratch: ResignScratch::new(),
        };
        // A thawed process starts with fresh (zero) counters, but the
        // gauges describe reconstructed state — publish them now so the
        // first scrape after a restart already shows the generation the
        // snapshot carried.
        session.publish_gauges();
        Ok(session)
    }

    /// Bring every live column's cache entry up to the registered rows,
    /// executing only what the cache cannot serve: whole columns it has
    /// never seen, or just the rows registered since a column last ran.
    /// Then evict down to capacity (live columns are never evicted).
    /// Returns what ran and the live column layout.
    fn extend_live_columns(&mut self) -> (ColumnWork, Vec<Fingerprint>) {
        let m = self.candidates.len();
        let mut work = ColumnWork::default();
        for s in &self.lfs {
            let covered = self.cache.rows(s.fingerprint);
            if covered >= m {
                self.cache.note_hit();
                work.reused += 1;
                continue;
            }
            // Execute rows covered..m of this column — in parallel across
            // candidates via the executor (a 1-LF suite).
            let slice = &self.candidates[covered..];
            let mini = self
                .config
                .executor
                .apply(std::slice::from_ref(&s.lf), &self.corpus, slice);
            let mut entries = mini.column(0);
            for e in &mut entries {
                e.0 += covered as u32;
            }
            work.lf_invocations += slice.len();
            if covered == 0 {
                work.recomputed += 1;
                self.cache.insert(s.fingerprint, m, entries);
            } else {
                work.extended += 1;
                self.cache.extend(s.fingerprint, m, entries);
            }
        }
        let live: Vec<Fingerprint> = self.lfs.iter().map(|s| s.fingerprint).collect();
        self.cache.evict_to_capacity(&live);
        (work, live)
    }

    /// Bring labels up to date after any sequence of edits: re-execute
    /// exactly the LF columns (and candidate rows) the cache cannot
    /// serve, patch Λ in place, re-select the modeling strategy (reusing
    /// the previous structure sweep on one-column edits), and train —
    /// warm-started from the previous model when possible.
    ///
    /// Returns per-class probabilistic labels (`labels[row][class]`) and
    /// the [`RefreshReport`].
    pub fn refresh(&mut self) -> (Vec<Vec<f64>>, RefreshReport) {
        let total_span = stage_span("total");
        let stats_before = self.cache.stats();
        let m = self.candidates.len();
        let n = self.lfs.len();
        let cardinality = self.config.executor.cardinality;

        // ------------------------------------------------------------------
        // 1. Bring every live column up to date in the cache, executing
        //    only what it cannot serve.
        // ------------------------------------------------------------------
        let lf_span = stage_span("lf_exec");
        let (work, live) = self.extend_live_columns();
        let lf_time = lf_span.finish();

        // ------------------------------------------------------------------
        // 2. Patch or assemble Λ.
        // ------------------------------------------------------------------
        let asm_span = stage_span("splice");
        let structural = live.len() != self.last_fingerprints.len();
        let changed_cols: Vec<usize> = if structural {
            Vec::new()
        } else {
            (0..n)
                .filter(|&j| live[j] != self.last_fingerprints[j])
                .collect()
        };
        let new_rows = m - self.lambda.as_ref().map_or(0, LabelMatrix::num_points);

        let lambda_update;
        if let (Some(lambda), false) = (self.lambda.as_mut(), structural) {
            if changed_cols.is_empty() && new_rows == 0 {
                lambda_update = LambdaUpdate::Unchanged;
            } else {
                // Rows first (changed columns' new-row votes are included
                // here and then overwritten wholesale by their column
                // splice — both sourced from the same cached column, so
                // the result is consistent either way).
                if new_rows > 0 {
                    append_cached_rows(&mut self.cache, &live, lambda, m);
                }
                for &j in &changed_cols {
                    let entries = self
                        .cache
                        .entries(live[j])
                        .expect("live column cached")
                        .to_vec();
                    lambda.apply_delta(&MatrixDelta::ReplaceColumn { col: j, entries });
                }
                lambda_update = LambdaUpdate::Patched {
                    columns_replaced: changed_cols.len(),
                    rows_appended: new_rows,
                };
            }
        } else {
            let cols: Vec<Vec<(u32, Vote)>> = live
                .iter()
                .map(|fp| {
                    self.cache
                        .entries(*fp)
                        .expect("live column cached")
                        .to_vec()
                })
                .collect();
            self.lambda = Some(LabelMatrix::from_columns(m, cardinality, &cols));
            lambda_update = LambdaUpdate::Assembled;
        }
        // Keep the sharded pattern plan in sync with Λ. Delta refreshes
        // touch only the affected patterns: an appended batch grows the
        // plan (see `grow_plan`); a column splice re-signs just the rows
        // that voted in the old or new column. Structural suite changes
        // rebuild.
        let lambda = self.lambda.as_ref().expect("Λ assembled above");
        match (&mut self.plan, lambda_update) {
            (Some(plan), LambdaUpdate::Patched { .. }) => {
                if !(new_rows > 0 && grow_plan(plan, lambda)) {
                    for &j in &changed_cols {
                        plan.refresh_column_with(lambda, j, &mut self.resign_scratch);
                    }
                }
            }
            (Some(_), LambdaUpdate::Unchanged) => {}
            (plan, _) => *plan = Some(build_plan(lambda)),
        }
        let assembly_time = asm_span.finish();

        // ------------------------------------------------------------------
        // 3. Strategy selection (Algorithm 1, with sweep reuse).
        // ------------------------------------------------------------------
        let strat_span = stage_span("strategy");
        let optimizer = &self.config.optimizer;
        // Structure reuse: an unforced binary refresh that changed at
        // most one column and appended no rows keeps the correlation
        // structure the previous refresh selected (the sweep is by far
        // the most expensive part of selection). It indexes columns of
        // one exact layout, so any add/remove/shuffle drops it.
        let layout: Vec<String> = self.lfs.iter().map(|s| s.lf.name().to_string()).collect();
        let reusable = self.last_gm_strategy.take().filter(|(_, stored)| {
            *stored == layout
                && self.config.force_strategy.is_none()
                && lambda.is_binary()
                && !structural
                && new_rows == 0
                && changed_cols.len() <= 1
        });
        let mut structure_reused = false;
        let (strategy, predicted) = match reusable {
            Some((stored, _)) => {
                // The bound is O(nnz) — always recompute it; only the
                // expensive sweep is reused.
                let predicted = advantage_upper_bound(lambda, optimizer);
                structure_reused = predicted >= optimizer.gamma;
                if structure_reused {
                    (stored, predicted)
                } else {
                    (ModelingStrategy::MajorityVote, predicted)
                }
            }
            None => select_strategy(
                lambda,
                self.config.force_strategy.as_ref(),
                optimizer,
                &self.config.registry,
            ),
        };
        // Store only this refresh's selection: the next edit may reuse
        // it, never one from further back.
        if matches!(strategy, ModelingStrategy::GenerativeModel { .. }) {
            self.last_gm_strategy = Some((strategy.clone(), layout));
        }
        let strategy_time = strat_span.finish();

        // ------------------------------------------------------------------
        // 4. Labels: build the selected backend, fit it through the live
        //    plan — warm-started from the previous refresh's model when it
        //    scores the same scheme — and infer.
        // ------------------------------------------------------------------
        let train_span = stage_span("fit");
        let scheme = LabelScheme::from_cardinality(lambda.cardinality());
        let prev = self.model.take().filter(|prev| prev.scheme() == scheme);
        let (remapped, fresh);
        let warm = match &prev {
            Some(prev) if structural || prev.num_lfs() != n => {
                // Map surviving columns to their previous per-column
                // state by fingerprint; new/edited columns start fresh.
                let col_map: Vec<Option<usize>> = live
                    .iter()
                    .map(|fp| self.last_fingerprints.iter().position(|p| p == fp))
                    .collect();
                fresh = (0..n).filter(|&j| col_map[j].is_none()).collect::<Vec<_>>();
                remapped = prev.remapped(&col_map);
                Some((remapped.as_ref(), fresh.as_slice()))
            }
            Some(prev) => Some((prev.as_ref(), changed_cols.as_slice())),
            None => None,
        };
        let (model, fit, labels) = fit_labels(
            &self.config.registry,
            &strategy,
            lambda,
            self.plan.as_ref().expect("plan kept in sync above"),
            &self.config.train,
            warm,
        );
        let backend = model.backend_name();
        self.model = Some(model);
        let training_time = train_span.finish();

        // ------------------------------------------------------------------
        // 5. Commit refresh bookkeeping and report.
        // ------------------------------------------------------------------
        self.last_fingerprints = live;
        // Keep the streaming plane consistent with the refreshed Λ:
        // suite edits and batch-path row appends change per-LF counts,
        // so the running moment statistics are rebuilt from Λ (edits
        // are rare; ingest — the hot path — never comes through here)
        // and the drift baseline restarts. A no-op refresh (e.g. the
        // automatic post-drift warm refit) leaves the stream untouched.
        if lambda_update != LambdaUpdate::Unchanged {
            if let Some(stream) = &mut self.stream {
                stream.rebuild_from_matrix(lambda);
            }
        }
        // The disc model (if any) now lags these marginals; readers keep
        // serving it while a retrain runs, comparing its generation
        // against this counter. Cache the marginals so the upcoming
        // distillation pass does not redo this refresh's inference.
        self.refresh_generation += 1;
        self.last_marginals = if self.distill_config().is_some() {
            Some(std::sync::Arc::new(labels.clone()))
        } else {
            None
        };
        // Publish this refresh's cache activity (deltas of the session's
        // cumulative stats) and the session-shape gauges.
        let label_density = lambda.label_density();
        let stats_after = self.cache.stats();
        let metrics = incr_metrics();
        metrics.refreshes.inc();
        metrics.cache_hits.add(stats_after.hits - stats_before.hits);
        metrics
            .cache_misses
            .add(stats_after.misses - stats_before.misses);
        metrics
            .cache_extensions
            .add(stats_after.extensions - stats_before.extensions);
        metrics
            .cache_evictions
            .add(stats_after.evictions - stats_before.evictions);
        let unique_patterns = self.plan.as_ref().map_or(0, ShardedMatrix::num_patterns);
        self.publish_gauges();

        let report = RefreshReport {
            strategy,
            backend,
            predicted_advantage: predicted,
            label_density,
            lambda_update,
            columns_reused: work.reused,
            columns_recomputed: work.recomputed,
            columns_extended: work.extended,
            lf_invocations: work.lf_invocations,
            structure_reused,
            warm_started: fit.warm_started,
            fit_epochs: fit.epochs,
            unique_patterns,
            cache: stats_after,
            timings: RefreshTimings {
                lf_application: lf_time,
                matrix_assembly: assembly_time,
                strategy_selection: strategy_time,
                training: training_time,
                total: total_span.finish(),
            },
        };
        (labels, report)
    }

    /// Absorb one streamed candidate batch — the continuous-arrival
    /// counterpart of `ingest_candidates` + [`Self::refresh`], built to
    /// run forever without the per-batch cost growing with the corpus:
    ///
    /// 1. the live LF columns are *extended* onto just the new rows
    ///    (content-addressed cache, same as a refresh extension);
    /// 2. the new rows are spliced into Λ ([`MatrixDelta::AppendRows`])
    ///    and interned into the live sharded plan's tail;
    /// 3. each row is folded into the running moment statistics and the
    ///    drift detector's current window;
    /// 4. the label model is re-solved from the running statistics via
    ///    [`LabelModel::fit_online`] — **no pass over Λ** (backends
    ///    without an online path keep their weights until the next
    ///    refresh);
    /// 5. if the batch pushed the drift score past the configured
    ///    threshold, an automatic warm [`Self::refresh`] runs and the
    ///    detector re-anchors on the post-refit regime.
    ///
    /// An online-refit (and the automatic drift refit) advances
    /// [`Self::refresh_generation`]: the model changed, so posterior
    /// memoizations keyed by generation must not serve stale answers.
    ///
    /// When the steady-state preconditions do not hold (no refresh yet,
    /// or suite edits pending), the batch falls back to registering the
    /// candidates and running a full [`Self::refresh`].
    pub fn ingest_batch(&mut self, ids: &[CandidateId]) -> IngestReport {
        let span = ingest_span();
        if self.lambda.is_none() || !self.suite_matches_last_refresh() {
            self.ingest_candidates(ids);
            let (_, refresh) = self.refresh();
            self.enable_streaming();
            let stream = self.stream.as_ref().expect("enabled above");
            let report = IngestReport {
                rows: ids.len(),
                lf_invocations: refresh.lf_invocations,
                online_fit: false,
                drift_score: stream.drift_score(),
                drifted: stream.drifted(),
                auto_refit: false,
                generation: self.refresh_generation,
            };
            drop(span);
            return report;
        }
        self.enable_streaming();
        self.ingest_candidates(ids);
        let m = self.candidates.len();
        let old_m = self.lambda.as_ref().map_or(0, LabelMatrix::num_points);
        let new_rows = m - old_m;

        // 1. Extend every live column onto the new rows.
        let (work, live) = self.extend_live_columns();

        // 2. Splice the new rows into Λ and the live plan's tail shard.
        let lambda = self.lambda.as_mut().expect("checked above");
        if new_rows > 0 {
            append_cached_rows(&mut self.cache, &live, lambda, m);
            grow_plan(
                self.plan.as_mut().expect("a refreshed session has a plan"),
                lambda,
            );
        }

        // 3. Fold the new rows into the streaming statistics.
        let stream = self.stream.as_mut().expect("enabled above");
        for i in old_m..m {
            let (cols, votes) = lambda.row(i);
            stream.observe_row(cols, votes);
        }
        stream.note_batch(new_rows);
        publish_drift_gauges(self.lfs.iter().map(|s| s.lf.name()), stream.per_lf_scores());

        // 4. Online refit from the running statistics — the steady-state
        //    fast path the streaming bench gates: O(n³) in the LF count,
        //    independent of the corpus size.
        let online_fit = match self.model.as_deref_mut() {
            Some(model) => model
                .fit_online(stream.stats(), &self.config.train)
                .is_some(),
            None => false,
        };

        // 5. Bookkeeping: an online-refitted model invalidates
        //    generation-keyed posterior memos.
        if online_fit {
            self.refresh_generation += 1;
            self.last_marginals = None;
        }

        // 6. Drift response: automatic warm refit, then re-anchor.
        let (drift_score, drifted) = {
            let stream = self.stream.as_ref().expect("enabled above");
            (stream.drift_score(), stream.drifted())
        };
        let mut auto_refit = false;
        if drifted {
            // Λ is already up to date, so this is the warm no-splice
            // path: strategy re-selection + warm training + fresh
            // marginals, bumping the generation.
            let _ = self.refresh();
            if let Some(stream) = &mut self.stream {
                stream.record_auto_refit();
            }
            auto_refit = true;
        }
        self.publish_gauges();
        drop(span);
        IngestReport {
            rows: new_rows,
            lf_invocations: work.lf_invocations,
            online_fit,
            drift_score,
            drifted,
            auto_refit,
            generation: self.refresh_generation,
        }
    }
}
