//! Snapshot format property tests: bit-identical round trips over
//! arbitrary matrices/models/cardinalities, and corruption tests —
//! bit-flips, truncations, version bumps, and random garbage must all
//! yield a typed `SnapError`, never a panic or a silent misread.

use proptest::prelude::*;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::label_model::ModelSnapshot;
use snorkel_core::model::ParamsError;
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf, LfExecutor, Vote};
use snorkel_matrix::ShardedMatrix;
use snorkel_nlp::tokenize;
use snorkel_serve::{SnapError, Snapshot, FORMAT_VERSION};

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x632B_E5AB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn build_corpus(n: usize) -> (Corpus, Vec<CandidateId>) {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    let mut ids = Vec::new();
    for i in 0..n {
        let verb = if mix(i as u64, 11).is_multiple_of(2) {
            "causes"
        } else {
            "treats"
        };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        ids.push(corpus.add_candidate(vec![a, b]));
    }
    (corpus, ids)
}

/// Deterministic text-hash LF emitting votes legal for `cardinality`,
/// with behavior fully determined by `(salt, cardinality)` — two builds
/// with the same salt are behaviorally identical, which is the thaw
/// contract.
fn salted_lf(name: &str, salt: u64, cardinality: u8) -> BoxedLf {
    lf(name.to_string(), move |x| {
        let text = x.sentence().text();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let r = mix(h, salt) % 1000;
        if r < 420 {
            return 0; // abstain
        }
        if cardinality == 2 {
            if r.is_multiple_of(2) {
                1
            } else {
                -1
            }
        } else {
            (1 + (r % cardinality as u64) as i8) as Vote
        }
    })
}

fn session_with_strategy(
    rows: usize,
    lf_salts: &[u64],
    cardinality: u8,
    strategy: ModelingStrategy,
) -> IncrementalSession {
    let (corpus, _) = build_corpus(rows);
    let config = SessionConfig {
        executor: LfExecutor {
            cardinality,
            ..LfExecutor::default()
        },
        force_strategy: Some(strategy),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus, config);
    for (j, &salt) in lf_salts.iter().enumerate() {
        session.add_lf_tagged(salted_lf(&format!("lf_{j}"), salt, cardinality), salt);
    }
    session.refresh();
    session
}

fn session_for(rows: usize, lf_salts: &[u64], cardinality: u8) -> IncrementalSession {
    session_with_strategy(
        rows,
        lf_salts,
        cardinality,
        ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        },
    )
}

fn snapshot_of(session: &IncrementalSession) -> Snapshot {
    Snapshot {
        session: session.freeze(),
        train: session.config().train.clone(),
        repl: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Freeze → bytes → parse → thaw reproduces the session exactly: a
    /// bit-identical matrix, model weights, cache, plan, and marginals.
    #[test]
    fn round_trip_is_bit_identical(
        rows in 1usize..120,
        lf_salts in prop::collection::vec(0u64..1_000_000, 1..6),
        cardinality in 2u8..5,
        three_shards in prop_oneof![Just(false), Just(true)],
    ) {
        let session = session_for(rows, &lf_salts, cardinality);
        let mut snapshot = snapshot_of(&session);
        if three_shards {
            // The session's own plan has one shard at this size; a
            // 3-shard plan exercises the multi-shard PLAN section and
            // its validation on thaw.
            let lambda = session.label_matrix().expect("Λ built");
            snapshot.session.plan = Some(ShardedMatrix::build(lambda, 3).to_parts());
        }
        let bytes = snapshot.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("own bytes parse");

        // Bit-exact state round trip (Debug formatting of f64 is
        // shortest-round-trip, hence injective on finite values).
        prop_assert_eq!(
            format!("{:?}", back.session),
            format!("{:?}", snapshot.session)
        );
        prop_assert_eq!(format!("{:?}", back.train), format!("{:?}", snapshot.train));

        // Thaw and compare marginals to the last bit.
        let (corpus, _) = build_corpus(rows);
        let config = session.config().clone();
        let lfs: Vec<BoxedLf> = lf_salts
            .iter()
            .enumerate()
            .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, cardinality))
            .collect();
        let thawed = match IncrementalSession::thaw(corpus, config, back.session, lfs) {
            Ok(s) => s,
            Err(e) => panic!("thaw: {e}"),
        };
        let lambda = session.label_matrix().expect("Λ built");
        prop_assert_eq!(thawed.label_matrix().expect("Λ restored"), lambda);
        let plan = thawed.pattern_plan().expect("plan restored");
        let expected_shards = if three_shards { 3.min(rows) } else { 1 };
        prop_assert_eq!(plan.num_shards(), expected_shards);
        let frozen_marginals = session.model().expect("model").marginals(lambda, None);
        let thawed_marginals = thawed.model().expect("model").marginals(lambda, Some(plan));
        prop_assert_eq!(thawed_marginals, frozen_marginals);
    }

    /// Any single-bit flip anywhere in the file is detected.
    #[test]
    fn every_bit_flip_is_detected(case_salt in 0u64..1000) {
        let session = session_for(17, &[case_salt, case_salt + 1], 2);
        let bytes = snapshot_of(&session).to_bytes();
        // Sampled positions (every flip at small sizes is ~8·len decode
        // attempts; sample densely but boundedly).
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= 1 << bit;
                prop_assert!(
                    Snapshot::from_bytes(&corrupted).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
            }
        }
    }

    /// Every truncation is detected.
    #[test]
    fn every_truncation_is_detected(case_salt in 0u64..1000) {
        let session = session_for(13, &[case_salt], 2);
        let bytes = snapshot_of(&session).to_bytes();
        let stride = (bytes.len() / 163).max(1);
        for len in (0..bytes.len()).step_by(stride) {
            prop_assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes parsed"
            );
        }
    }

    /// Random garbage never panics — it errors.
    #[test]
    fn random_garbage_never_panics(
        garbage in prop::collection::vec(0u8..=255, 0..512)
    ) {
        prop_assert!(Snapshot::from_bytes(&garbage).is_err());
    }
}

/// FNV-1a 64 (the snapshot checksum), reimplemented locally so tests can
/// re-seal deliberately corrupted files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Patch one byte inside a section's payload, then re-seal the section
/// and header checksums so the corruption reaches the semantic decoder
/// instead of tripping the checksum layer.
fn patch_section(bytes: &mut [u8], tag: &[u8; 4], offset_in_section: usize, value: u8) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let header_end = 16 + 28 * count + 8;
    for s in 0..count {
        let at = 16 + 28 * s;
        if &bytes[at..at + 4] != tag {
            continue;
        }
        let off = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
        bytes[off + offset_in_section] = value;
        let checksum = fnv1a(&bytes[off..off + len]);
        bytes[at + 20..at + 28].copy_from_slice(&checksum.to_le_bytes());
        let header_checksum = fnv1a(&bytes[..header_end - 8]);
        bytes[header_end - 8..header_end].copy_from_slice(&header_checksum.to_le_bytes());
        return;
    }
    panic!("section {tag:?} not present");
}

#[test]
fn v1_snapshot_thaws_with_generative_backend() {
    // A pre-redesign (v1) snapshot must still load and thaw into a
    // session running the generative backend, bit-identical marginals
    // included.
    let salts = [21u64, 22, 23];
    let session = session_for(40, &salts, 2);
    let snapshot = snapshot_of(&session);
    let v1_bytes = snapshot
        .to_bytes_with_version(1)
        .expect("generative models encode as v1");
    let back = Snapshot::from_bytes(&v1_bytes).expect("v1 parses");
    assert!(matches!(
        back.session.model,
        Some(ModelSnapshot::Generative(_))
    ));

    let (corpus, _) = build_corpus(40);
    let lfs: Vec<BoxedLf> = salts
        .iter()
        .enumerate()
        .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, 2))
        .collect();
    let thawed = IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
        .expect("v1 snapshot thaws");
    assert_eq!(thawed.backend_name(), Some("generative"));
    let lambda = session.label_matrix().expect("Λ");
    assert_eq!(
        thawed.model().expect("model").marginals(lambda, None),
        session.model().expect("model").marginals(lambda, None),
    );
}

#[test]
fn v1_cannot_encode_non_generative_backends() {
    let session = session_with_strategy(30, &[31, 32], 2, ModelingStrategy::MajorityVote);
    assert_eq!(session.backend_name(), Some("majority-vote"));
    let snapshot = snapshot_of(&session);
    // v2 carries it fine…
    assert!(Snapshot::from_bytes(&snapshot.to_bytes()).is_ok());
    // …but v1 has no tag to express it: typed refusal, not a misread.
    assert!(matches!(
        snapshot.to_bytes_with_version(1),
        Err(SnapError::Corrupt { .. })
    ));
}

#[test]
fn mv_and_moment_backends_round_trip_through_snapshots() {
    for (strategy, backend) in [
        (ModelingStrategy::MajorityVote, "majority-vote"),
        (ModelingStrategy::MomentMatching, "moment"),
    ] {
        let salts = [41u64, 42, 43];
        let session = session_with_strategy(35, &salts, 2, strategy);
        assert_eq!(session.backend_name(), Some(backend));
        let bytes = snapshot_of(&session).to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("own bytes parse");
        let (corpus, _) = build_corpus(35);
        let lfs: Vec<BoxedLf> = salts
            .iter()
            .enumerate()
            .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, 2))
            .collect();
        let thawed = IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
            .unwrap_or_else(|e| panic!("{backend} thaw: {e}"));
        assert_eq!(thawed.backend_name(), Some(backend));
        let lambda = session.label_matrix().expect("Λ");
        assert_eq!(
            thawed.model().expect("model").marginals(lambda, None),
            session.model().expect("model").marginals(lambda, None),
            "{backend} marginals changed across the snapshot round trip"
        );
    }
}

#[test]
fn unknown_backend_tag_is_a_typed_error() {
    let session = session_for(20, &[51, 52], 2);
    let mut bytes = snapshot_of(&session).to_bytes();
    // The v2 MODL section opens with the backend tag byte; overwrite it
    // with an unassigned value and re-seal the checksums.
    patch_section(&mut bytes, b"MODL", 0, 200);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapError::UnknownBackend { tag: 200 }) => {}
        other => panic!("want UnknownBackend, got {other:?}"),
    }
}

#[test]
fn corrupt_model_params_are_typed_errors() {
    let session = session_for(20, &[61, 62], 2);
    let mut snapshot = snapshot_of(&session);
    // Poison a weight in the encoded model; the decoder must refuse
    // with the typed ParamsError, not thaw a NaN model.
    match &mut snapshot.session.model {
        Some(ModelSnapshot::Generative(params)) => params.w_acc[0] = f64::NAN,
        other => panic!("expected a generative model, got {other:?}"),
    }
    let bytes = snapshot.to_bytes();
    match Snapshot::from_bytes(&bytes) {
        Err(SnapError::Model(ParamsError::NonFiniteWeight { field: "w_acc" })) => {}
        other => panic!("want Model(NonFiniteWeight), got {other:?}"),
    }
}

#[test]
fn version_bump_is_a_typed_error() {
    let session = session_for(9, &[3], 2);
    let mut bytes = snapshot_of(&session).to_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("want UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_short_files_are_typed_errors() {
    let session = session_for(9, &[4], 2);
    let mut bytes = snapshot_of(&session).to_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapError::BadMagic)
    ));
    assert!(matches!(
        Snapshot::from_bytes(&[]),
        Err(SnapError::Truncated { .. })
    ));
    assert!(matches!(
        Snapshot::from_bytes(b"SNKLSNA"),
        Err(SnapError::Truncated { .. })
    ));
}

#[test]
fn flipped_payload_reports_checksum_mismatch() {
    let session = session_for(20, &[5, 6], 2);
    let snapshot = snapshot_of(&session);
    let bytes = snapshot.to_bytes();
    // Flip a byte deep in the payload region (past the header).
    let mut corrupted = bytes.clone();
    let pos = bytes.len() - 9;
    corrupted[pos] ^= 0x10;
    assert!(matches!(
        Snapshot::from_bytes(&corrupted),
        Err(SnapError::ChecksumMismatch { .. })
    ));
}

#[test]
fn file_round_trip_is_atomic_and_loadable() {
    let dir = std::env::temp_dir().join(format!("snorkel-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.snap");
    let session = session_for(25, &[7, 8, 9], 2);
    let mut snapshot = snapshot_of(&session);
    let lambda = session.label_matrix().expect("Λ built");
    snapshot.session.plan = Some(ShardedMatrix::build(lambda, 2).to_parts());
    let written = snapshot.write_file(&path).expect("write");
    assert_eq!(written, std::fs::metadata(&path).expect("stat").len());
    let back = Snapshot::read_file(&path).expect("read");
    assert_eq!(
        format!("{:?}", back.session),
        format!("{:?}", snapshot.session)
    );
    // The temp file used for atomic replacement is gone: the snapshot
    // is the only file left in the directory.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(entries, vec![std::ffi::OsString::from("session.snap")]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sessions below 8192 rows used to keep no pattern plan, so their
/// snapshots carry no `PLAN` section. They thaw with a rebuilt plan and
/// bit-identical marginals.
#[test]
fn snapshot_without_plan_thaws_with_rebuilt_plan() {
    let salts = [31, 32, 33];
    let session = session_for(60, &salts, 2);
    let mut snapshot = snapshot_of(&session);
    snapshot.session.plan = None;
    let back = Snapshot::from_bytes(&snapshot.to_bytes()).expect("parses");
    assert!(back.session.plan.is_none());

    let (corpus, _) = build_corpus(60);
    let lfs: Vec<BoxedLf> = salts
        .iter()
        .enumerate()
        .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, 2))
        .collect();
    let thawed = match IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
    {
        Ok(s) => s,
        Err(e) => panic!("thaw: {e}"),
    };
    let lambda = thawed.label_matrix().expect("Λ restored");
    let plan = thawed.pattern_plan().expect("plan rebuilt on thaw");
    plan.validate(lambda).expect("rebuilt plan matches Λ");

    let bits = |m: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
        m.iter()
            .map(|row| row.iter().map(|p| p.to_bits()).collect())
            .collect()
    };
    let before = session.model().expect("model").marginals(
        session.label_matrix().expect("Λ built"),
        session.pattern_plan(),
    );
    let after = thawed.model().expect("model").marginals(lambda, Some(plan));
    assert_eq!(bits(after), bits(before));
}

/// A refreshed + distilled binary session (forced generative backend).
fn distilled_session(rows: usize, salts: &[u64]) -> IncrementalSession {
    use snorkel_core::pipeline::DiscTrainerConfig;
    let (corpus, _) = build_corpus(rows);
    let config = SessionConfig {
        force_strategy: Some(ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus, config);
    for (j, &salt) in salts.iter().enumerate() {
        session.add_lf_tagged(salted_lf(&format!("lf_{j}"), salt, 2), salt);
    }
    session.refresh();
    session.distill().expect("distills");
    session
}

#[test]
fn disc_model_round_trips_in_v3_with_staleness() {
    let salts = [41u64, 42, 43];
    let mut session = distilled_session(60, &salts);
    // Leave the disc model stale so the staleness relation is what the
    // round trip must preserve, not just the model bytes.
    session.edit_lf_tagged(salted_lf("lf_1", 99, 2), 99);
    session.refresh();
    assert!(session.disc_is_stale());
    let probe = snorkel_disc::hash_features(["u=alpha1", "btw=causes"], 1 << 12);
    let before = session.disc().unwrap().model.predict_proba(&probe);

    let snapshot = snapshot_of(&session);
    let bytes = snapshot.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("v3 parses");
    assert_eq!(back.session.refresh_generation, 2);
    let frozen_disc = back.session.disc.as_ref().expect("DISC section decoded");
    assert_eq!(frozen_disc.generation, 1);

    let (corpus, _) = build_corpus(60);
    let lfs: Vec<BoxedLf> = vec![
        salted_lf("lf_0", 41, 2),
        salted_lf("lf_1", 99, 2),
        salted_lf("lf_2", 43, 2),
    ];
    let thawed = IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
        .expect("v3 snapshot thaws");
    assert!(thawed.disc_is_stale(), "staleness survives the round trip");
    let after = thawed.disc().unwrap().model.predict_proba(&probe);
    assert_eq!(before, after, "disc predictions are bit-identical");
}

#[test]
fn older_versions_cannot_encode_a_distilled_model() {
    let session = distilled_session(40, &[51, 52]);
    let snapshot = snapshot_of(&session);
    for version in [1, 2] {
        assert!(
            matches!(
                snapshot.to_bytes_with_version(version),
                Err(SnapError::Corrupt { .. })
            ),
            "v{version} must refuse a disc model"
        );
    }
    assert!(Snapshot::from_bytes(&snapshot.to_bytes()).is_ok());
}

#[test]
fn v2_files_still_thaw_without_a_disc_model() {
    // A session that never distilled writes a valid v2 file, and this
    // build reads it back: no disc model, generation counter at zero.
    let salts = [61u64, 62];
    let session = session_for(30, &salts, 2);
    let v2_bytes = snapshot_of(&session)
        .to_bytes_with_version(2)
        .expect("no disc model: v2 encodes");
    let back = Snapshot::from_bytes(&v2_bytes).expect("v2 parses");
    assert!(back.session.disc.is_none());
    assert_eq!(back.session.refresh_generation, 0);

    let (corpus, _) = build_corpus(30);
    let lfs: Vec<BoxedLf> = salts
        .iter()
        .enumerate()
        .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, 2))
        .collect();
    let thawed = IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
        .expect("v2 snapshot thaws");
    assert!(thawed.disc().is_none());
}

/// A moment-backend session that has ingested two streamed batches —
/// the streaming state a v4 `STRM` section must carry. The corpus text
/// formula continues seamlessly, so `build_corpus(base + extra)`
/// rebuilds the exact corpus a thaw needs.
fn streaming_session(base: usize, extra: usize, salts: &[u64]) -> IncrementalSession {
    let mut session = session_with_strategy(base, salts, 2, ModelingStrategy::MomentMatching);
    assert_eq!(session.backend_name(), Some("moment"));
    let half = extra / 2;
    for (start, count) in [(base, half), (base + half, extra - half)] {
        let ids: Vec<CandidateId> = {
            let corpus = session.corpus_mut();
            let doc = corpus.add_document(format!("ingest-{start}"));
            (start..start + count)
                .map(|i| {
                    let verb = if mix(i as u64, 11).is_multiple_of(2) {
                        "causes"
                    } else {
                        "treats"
                    };
                    let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
                    let s = corpus.add_sentence(doc, &text, tokenize(&text));
                    let a = corpus.add_span(s, 0, 1, Some("A"));
                    let b = corpus.add_span(s, 2, 3, Some("B"));
                    corpus.add_candidate(vec![a, b])
                })
                .collect()
        };
        let report = session.ingest_batch(&ids);
        assert!(report.online_fit, "moment session must ingest online");
    }
    session
}

#[test]
fn v4_round_trips_streaming_state_and_resumes_steady_state() {
    let salts = [81u64, 82, 83];
    let mut session = streaming_session(80, 32, &salts);
    let stream_before = session.stream().expect("streaming active").clone();
    assert_eq!(stream_before.rows(), 32);
    assert_eq!(stream_before.batches(), 2);

    let snapshot = snapshot_of(&session);
    let frozen = snapshot.session.stream.clone().expect("STRM present");
    let bytes = snapshot.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("own bytes parse");
    assert_eq!(
        back.session.stream.as_ref(),
        Some(&frozen),
        "STRM payload round-trips bit-for-bit"
    );

    let (corpus, _) = build_corpus(112);
    let lfs: Vec<BoxedLf> = salts
        .iter()
        .enumerate()
        .map(|(j, &salt)| salted_lf(&format!("lf_{j}"), salt, 2))
        .collect();
    let mut thawed = IncrementalSession::thaw(corpus, session.config().clone(), back.session, lfs)
        .expect("v4 snapshot thaws");
    {
        let stream = thawed.stream().expect("stream survives the thaw");
        assert_eq!(stream.stats(), stream_before.stats());
        assert_eq!(stream.rows(), stream_before.rows());
        assert_eq!(stream.batches(), stream_before.batches());
        assert_eq!(stream.auto_refits(), stream_before.auto_refits());
        assert_eq!(stream.drift_score(), stream_before.drift_score());
    }
    // Re-freezing the thawed session reproduces the same image.
    assert_eq!(thawed.freeze().stream, Some(frozen));

    // Steady state survives the resume: the next ingested batch is
    // online (per-batch LF execution, no cold fit) on both sessions,
    // and their running statistics stay identical.
    for s in [&mut session, &mut thawed] {
        let ids: Vec<CandidateId> = {
            let corpus = s.corpus_mut();
            let doc = corpus.add_document("post-thaw");
            (112..112 + 8)
                .map(|i| {
                    let text = format!("alpha{} causes beta{}", i % 7, i % 5);
                    let sent = corpus.add_sentence(doc, &text, tokenize(&text));
                    let a = corpus.add_span(sent, 0, 1, Some("A"));
                    let b = corpus.add_span(sent, 2, 3, Some("B"));
                    corpus.add_candidate(vec![a, b])
                })
                .collect()
        };
        let report = s.ingest_batch(&ids);
        assert!(
            report.online_fit,
            "resumed session must stay in steady state"
        );
        assert_eq!(report.lf_invocations, 8 * 3);
    }
    assert_eq!(
        thawed.stream().expect("stream").stats(),
        session.stream().expect("stream").stats()
    );
}

#[test]
fn older_versions_cannot_encode_streaming_state() {
    let salts = [91u64, 92, 93];
    let session = streaming_session(60, 16, &salts);
    let snapshot = snapshot_of(&session);
    for version in [1, 2, 3] {
        assert!(
            matches!(
                snapshot.to_bytes_with_version(version),
                Err(SnapError::Corrupt { .. })
            ),
            "v{version} must refuse streaming state with a typed error"
        );
    }
    assert!(Snapshot::from_bytes(&snapshot.to_bytes()).is_ok());

    // Control: the same session shape minus the stream state still
    // writes v3 — the refusal is about the STRM payload, not the model.
    let no_stream = session_with_strategy(60, &salts, 2, ModelingStrategy::MomentMatching);
    assert!(no_stream.stream().is_none());
    assert!(snapshot_of(&no_stream).to_bytes_with_version(3).is_ok());
}

#[test]
fn corrupt_strm_section_is_a_typed_error() {
    let session = streaming_session(60, 16, &[95, 96, 97]);
    let mut bytes = snapshot_of(&session).to_bytes();
    // Byte 8 of STRM is the statistics' cardinality (after the u64 LF
    // count); zeroing it is semantic corruption the stream crate's own
    // thaw validation must catch, surfaced as a typed snapshot error.
    patch_section(&mut bytes, b"STRM", 8, 0);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapError::Corrupt { context }) => {
            assert!(context.contains("STRM"), "unexpected context {context:?}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_disc_section_is_a_typed_error() {
    let session = distilled_session(40, &[71, 72]);
    let mut bytes = snapshot_of(&session).to_bytes();
    // Byte 8 of DISC starts the disc-generation u64 (bytes 0..8); set it
    // beyond the refresh generation: semantic corruption, not checksum.
    patch_section(&mut bytes, b"DISC", 0, 0xFF);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapError::Corrupt { context }) => {
            assert!(context.contains("disc"), "unexpected context {context:?}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
