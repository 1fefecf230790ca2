//! Leader/follower replication: a checksummed write-ahead log of
//! mutating ops, an in-memory op log for live tailing, and the shared
//! replay entry points that make a follower's state bit-identical to
//! the leader's at every LSN.
//!
//! The division of labor:
//!
//! * [`wal`] — the on-disk log format and its torn-tail recovery.
//! * [`leader`] — the in-memory [`OpLog`](leader::OpLog) subscribers
//!   tail over `OP_LOG_SUBSCRIBE`.
//! * [`follower`] — the tailing client (subscribe, heartbeat tracking,
//!   reconnect backoff).
//! * this module — [`apply_op`] and friends: the *single* code path
//!   through which a mutation reaches an [`IncrementalSession`], used
//!   identically by the leader's request handlers, WAL recovery at
//!   boot, and the follower's live tail (which runs `apply_op`'s two
//!   halves, [`prepare_op`] and [`apply_prepared`], around its write
//!   lock). One code path is what makes
//!   "replica marginals are bit-identical" a structural property
//!   instead of a hope.
//!
//! The full log grammar, LSN/generation mapping, promote semantics,
//! and divergence policy are documented in `docs/REPLICATION.md`.

pub mod follower;
pub mod leader;
pub mod wal;

use snorkel_context::Token;
use snorkel_incr::{DiscTrainingSet, IncrementalSession, IngestReport, RefreshReport};

use crate::frame::IngestRow;
use crate::protocol::SuiteEdit;
use wal::Op;

/// Replication position carried inside a snapshot: the LSN and server
/// generation the snapshot's state corresponds to. A follower thawing
/// the snapshot resumes tailing at `applied_lsn + 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplMark {
    /// Last log sequence number applied to the snapshotted state.
    pub applied_lsn: u64,
    /// Server generation at that LSN.
    pub generation: u64,
}

/// One tokenized, span-validated ingest row awaiting the write lock.
type PreparedRow = ((usize, usize), (usize, usize), String, Vec<Token>);

/// An `INGEST` batch validated and tokenized *outside* any lock.
/// Produced by [`prepare_ingest`], consumed by [`apply_ingest`].
pub struct PreparedIngest {
    rows: Vec<PreparedRow>,
}

impl PreparedIngest {
    /// Number of candidate rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Tokenize `text` and check that both token-range spans fit it — the
/// one span check behind `APPLY`, `PREDICT_TEXT` and `INGEST`, so every
/// verb (and every replayed ingest) refuses a bad span with the same
/// message.
pub fn tokenize_spans(
    span1: (usize, usize),
    span2: (usize, usize),
    text: &str,
) -> Result<Vec<Token>, String> {
    let tokens = snorkel_nlp::tokenize(text);
    for (lo, hi) in [span1, span2] {
        if lo >= hi || hi > tokens.len() {
            return Err(format!(
                "span {lo}..{hi} invalid for {} tokens",
                tokens.len()
            ));
        }
    }
    Ok(tokens)
}

/// Tokenize and span-validate an ingest batch. This is the expensive,
/// lock-free half of an ingest.
pub fn prepare_ingest(rows: &[IngestRow]) -> Result<PreparedIngest, String> {
    let mut prepared = Vec::with_capacity(rows.len());
    for (span1, span2, text) in rows {
        let tokens = tokenize_spans(*span1, *span2, text)?;
        prepared.push((*span1, *span2, text.clone(), tokens));
    }
    Ok(PreparedIngest { rows: prepared })
}

/// Append a prepared batch to the corpus and absorb it through the
/// streaming plane — the write-lock half of an ingest. Bumps
/// `generation` exactly when the streaming plane refit (online or
/// warm), mirroring the leader's visible generation semantics.
pub fn apply_ingest(
    session: &mut IncrementalSession,
    generation: &mut u64,
    batch: PreparedIngest,
) -> IngestReport {
    let mut ids = Vec::with_capacity(batch.rows.len());
    for (s1, s2, text, tokens) in batch.rows {
        let corpus = session.corpus_mut();
        let doc = corpus.add_document("ingest");
        let sent = corpus.add_sentence(doc, text, tokens);
        let a = corpus.add_span(sent, s1.0, s1.1, None);
        let b = corpus.add_span(sent, s2.0, s2.1, None);
        ids.push(corpus.add_candidate(vec![a, b]));
    }
    let report = session.ingest_batch(&ids);
    if report.online_fit || report.auto_refit {
        *generation += 1;
    }
    report
}

/// Apply an optional suite edit and refresh — the write-lock half of a
/// `REFRESH`. On success the caller owns the (already computed)
/// [`RefreshReport`] and, when distillation is configured, the
/// training set to run *outside* the lock. Error strings match the
/// serving layer's refusals byte-for-byte.
pub fn apply_refresh(
    session: &mut IncrementalSession,
    generation: &mut u64,
    edit: Option<&SuiteEdit>,
) -> Result<(RefreshReport, Option<DiscTrainingSet>), String> {
    let names: Vec<String> = session.lf_names().iter().map(|n| n.to_string()).collect();
    match edit {
        Some(SuiteEdit::Add(spec)) => {
            if names.iter().any(|n| n == spec.name()) {
                return Err(format!("LF {:?} already exists (use EDIT)", spec.name()));
            }
            let lf = spec.build()?;
            session.add_lf_tagged(lf, spec.content_tag());
        }
        Some(SuiteEdit::Edit(spec)) => {
            if !names.iter().any(|n| n == spec.name()) {
                return Err(format!("LF {:?} not in the suite (use ADD)", spec.name()));
            }
            let lf = spec.build()?;
            session.edit_lf_tagged(lf, spec.content_tag());
        }
        Some(SuiteEdit::Remove(name)) => {
            session
                .remove_lf(name)
                .ok_or_else(|| format!("LF {name:?} not in the suite"))?;
        }
        None => {}
    }
    let (_, report) = session.refresh();
    *generation += 1;
    Ok((report, session.disc_training_set()))
}

/// A logged op with its lock-free work done (an ingest batch tokenized
/// and span-checked), awaiting the write lock. Produced by
/// [`prepare_op`], consumed by [`apply_prepared`].
pub enum PreparedOp<'a> {
    /// A suite edit (or plain refresh) to apply.
    Refresh(Option<&'a SuiteEdit>),
    /// A prepared ingest batch.
    Ingest(PreparedIngest),
    /// A seal: no state change.
    Seal,
}

/// The lock-free half of a replay: everything [`apply_prepared`] needs
/// that does not read the session.
pub fn prepare_op(op: &Op) -> Result<PreparedOp<'_>, String> {
    Ok(match op {
        Op::Refresh(edit) => PreparedOp::Refresh(edit.as_ref()),
        Op::Ingest(rows) => PreparedOp::Ingest(prepare_ingest(rows)?),
        Op::Seal => PreparedOp::Seal,
    })
}

/// The write-lock half of a replay, through the same session entry
/// points the leader's handlers use. Returns the distilled-model
/// retrain a refresh left due, if any: run it outside any lock, then
/// [`install_disc`](IncrementalSession::install_disc).
pub fn apply_prepared(
    session: &mut IncrementalSession,
    generation: &mut u64,
    op: PreparedOp<'_>,
) -> Result<Option<DiscTrainingSet>, String> {
    match op {
        PreparedOp::Refresh(edit) => Ok(apply_refresh(session, generation, edit)?.1),
        PreparedOp::Ingest(batch) => {
            apply_ingest(session, generation, batch);
            Ok(None)
        }
        PreparedOp::Seal => Ok(None),
    }
}

/// Replay one logged op: [`prepare_op`] then [`apply_prepared`], the two
/// halves a tailing follower runs on either side of taking its write
/// lock. `generation` mirrors the server generation and must be
/// compared against the record's `gen_after` afterwards — a mismatch is
/// divergence.
pub fn apply_op(
    session: &mut IncrementalSession,
    generation: &mut u64,
    op: &Op,
) -> Result<Option<DiscTrainingSet>, String> {
    apply_prepared(session, generation, prepare_op(op)?)
}
