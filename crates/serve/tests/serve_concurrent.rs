//! Serving-layer integration tests:
//!
//! * **kill/resume** — a server is stopped mid-session and restarted
//!   from its snapshot; the resumed server answers its first `MARGINAL`
//!   without executing a single LF (counted by instrumented LFs) and
//!   reproduces the pre-kill posteriors bit-for-bit.
//! * **no torn reads** — N concurrent clients hammer `MARGINAL` while
//!   an LF edit lands mid-stream; every response must equal the pre- or
//!   the post-edit posterior exactly, with the generation tag matching.
//! * **one read path** — `APPLY` answers through the `MARGINAL` memo
//!   (or by majority vote, outside it, for a suite edited since the
//!   last refresh), and text `PREDICT` matches a batched `OP_PREDICT`
//!   to the bit.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{wait_until, Deadline};
use snorkel_context::{CandidateId, Corpus};
use snorkel_core::label_model::{LabelModel, MajorityVoteModel};
use snorkel_core::model::LabelScheme;
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;
use snorkel_serve::protocol::format_probs;
use snorkel_serve::{BinReply, Client, FrameClient, LabelServer, LfSpec, ServeConfig, Snapshot};

fn build_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        let verb = match i % 5 {
            0 | 1 => "causes",
            2 => "treats",
            3 => "worsens",
            _ => "mentions",
        };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

fn gm_config() -> SessionConfig {
    SessionConfig {
        force_strategy: Some(ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..SessionConfig::default()
    }
}

/// An LF that counts its own invocations (the kill/resume assertion).
fn counting_lf(name: &str, counter: Arc<AtomicUsize>) -> BoxedLf {
    lf(name.to_string(), move |x| {
        counter.fetch_add(1, Ordering::Relaxed);
        if x.sentence().text().contains("worsens") {
            1
        } else {
            0
        }
    })
}

const SPEC_CAUSES: &str = "lf_causes KEYWORD 1 -1 causes";
const SPEC_TREATS: &str = "lf_treats KEYWORD -1 1 treats";

fn wire_lf(spec: &str) -> (BoxedLf, u64) {
    let spec = LfSpec::parse(spec).expect("valid spec");
    (spec.build().expect("buildable"), spec.content_tag())
}

/// Session with two wire-expressible LFs plus one counting closure LF.
fn primed_session(corpus: Corpus, counter: Arc<AtomicUsize>) -> IncrementalSession {
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, gm_config());
    session.ingest_candidates(&ids);
    for spec in [SPEC_CAUSES, SPEC_TREATS] {
        let (lf, tag) = wire_lf(spec);
        session.add_lf_tagged(lf, tag);
    }
    session.add_lf_tagged(counting_lf("lf_count", counter), 7);
    session.refresh();
    session
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {response:?}"))
}

#[test]
fn kill_and_resume_serves_first_marginal_without_lf_execution() {
    let dir = std::env::temp_dir().join(format!("snorkel-serve-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_path = dir.join("server.snap");

    // ---- First life: serve, snapshot, die. ----
    let rows = 200;
    let c1 = Arc::new(AtomicUsize::new(0));
    let session = primed_session(build_corpus(rows), Arc::clone(&c1));
    let invocations_before_serving = c1.load(Ordering::Relaxed);
    assert!(invocations_before_serving > 0, "priming executed LFs");

    let server = LabelServer::start(
        session,
        ServeConfig {
            snapshot_path: Some(snap_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let pre = client.request("MARGINAL 0:1,1:-1").expect("marginal");
    assert!(pre.starts_with("OK "), "{pre}");
    let pre_p = field(&pre, "p").to_string();
    let apply = client
        .request("APPLY 0 1 2 3 alpha1 causes beta2")
        .expect("apply");
    assert!(apply.starts_with("OK "), "{apply}");
    let snap = client.request("SNAPSHOT").expect("snapshot");
    assert!(snap.starts_with("OK "), "{snap}");
    assert!(client.request("SHUTDOWN").expect("shutdown") == "OK bye");
    server.wait().expect("clean shutdown");
    // MARGINAL and SNAPSHOT run no LF code; the one APPLY probe ran the
    // suite once, on its single transient candidate.
    assert_eq!(
        c1.load(Ordering::Relaxed),
        invocations_before_serving + 1,
        "only APPLY may execute LFs while serving"
    );

    // ---- Second life: thaw from the snapshot, serve warm. ----
    let snapshot = Snapshot::read_file(&snap_path).expect("snapshot loads");
    let c2 = Arc::new(AtomicUsize::new(0));
    let lfs: Vec<BoxedLf> = vec![
        wire_lf(SPEC_CAUSES).0,
        wire_lf(SPEC_TREATS).0,
        counting_lf("lf_count", Arc::clone(&c2)),
    ];
    let thawed = IncrementalSession::thaw(build_corpus(rows), gm_config(), snapshot.session, lfs)
        .unwrap_or_else(|e| panic!("thaw: {e}"));
    let server = LabelServer::start(thawed, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // First MARGINAL after resume: warm, bit-identical, zero LF runs.
    let post = client.request("MARGINAL 0:1,1:-1").expect("marginal");
    assert_eq!(field(&post, "p"), pre_p, "resumed posterior bit-identical");
    assert_eq!(
        c2.load(Ordering::Relaxed),
        0,
        "warm-started server answered MARGINAL without executing any LF"
    );

    // A full relabel is also free: everything is cache-served.
    let refresh = client.request("REFRESH").expect("refresh");
    assert_eq!(field(&refresh, "lf_invocations"), "0");
    assert_eq!(field(&refresh, "columns_reused"), "3");
    assert_eq!(c2.load(Ordering::Relaxed), 0);

    // Editing one LF over the wire re-executes exactly that column.
    let edited = client
        .request("REFRESH EDIT lf_causes KEYWORD 1 -1 causes,worsens")
        .expect("edit");
    assert_eq!(field(&edited, "columns_recomputed"), "1");
    assert_eq!(field(&edited, "lf_invocations"), rows.to_string());
    // Reverting the edit is a full cache hit (content-derived tags).
    let reverted = client
        .request(&format!("REFRESH EDIT {SPEC_CAUSES}"))
        .expect("revert");
    assert_eq!(field(&reverted, "lf_invocations"), "0");

    client.request("SHUTDOWN").expect("shutdown");
    server.wait().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_marginals_with_midstream_edit_see_no_torn_reads() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 150; // 1200 total ≥ the 1k floor

    let c = Arc::new(AtomicUsize::new(0));
    let session = primed_session(build_corpus(300), c);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let mut control = Client::connect(addr).expect("connect");
    let sig = "MARGINAL 0:1,1:-1";
    let pre = control.request(sig).expect("pre query");
    let (pre_gen, pre_p) = (field(&pre, "gen").to_string(), field(&pre, "p").to_string());

    // Hammer from N clients; land one LF edit mid-stream. Each client
    // issues at least its quota *and* keeps querying until the edit has
    // committed (`edit_done`), then one final query — so the stream is
    // guaranteed to span the edit on both sides.
    let edit_done = Arc::new(AtomicUsize::new(0));
    let warmed_up = Arc::new(AtomicUsize::new(0));
    let responses: Vec<Vec<String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let edit_done = Arc::clone(&edit_done);
            let warmed_up = Arc::clone(&warmed_up);
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut responses = Vec::with_capacity(QUERIES_PER_CLIENT + 1);
                let watchdog = Deadline::new(Duration::from_secs(60), "hammer client quota");
                while responses.len() < QUERIES_PER_CLIENT || edit_done.load(Ordering::SeqCst) == 0
                {
                    watchdog.check();
                    responses.push(client.request(sig).expect("query"));
                    if responses.len() == 1 {
                        warmed_up.fetch_add(1, Ordering::SeqCst);
                    }
                }
                responses.push(client.request(sig).expect("post-edit query"));
                responses
            }));
        }
        // Once every hammer thread has a query in flight, land the
        // edit: replacing lf_causes with a much broader keyword set
        // moves the fitted weights, so pre- and post-edit posteriors
        // differ. (Readiness-based, not a fixed sleep: the edit lands
        // as soon as every client is provably mid-stream.)
        wait_until(
            Duration::from_secs(30),
            "every hammer client to issue its first query",
            || (warmed_up.load(Ordering::SeqCst) == CLIENTS).then_some(()),
        );
        let edited = control
            .request("REFRESH EDIT lf_causes KEYWORD 1 -1 causes,mentions,worsens")
            .expect("edit");
        assert!(edited.starts_with("OK "), "{edited}");
        edit_done.store(1, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let post = control.request(sig).expect("post query");
    let (post_gen, post_p) = (
        field(&post, "gen").to_string(),
        field(&post, "p").to_string(),
    );
    assert_ne!(pre_gen, post_gen, "the edit bumped the generation");
    assert_ne!(
        pre_p, post_p,
        "the edit must change this posterior, or the test checks nothing"
    );

    let mut saw_pre = 0usize;
    let mut saw_post = 0usize;
    for response in responses.iter().flatten() {
        let (gen, p) = (field(response, "gen"), field(response, "p"));
        if gen == pre_gen {
            assert_eq!(p, pre_p, "torn read: pre-edit gen with wrong posterior");
            saw_pre += 1;
        } else if gen == post_gen {
            assert_eq!(p, post_p, "torn read: post-edit gen with wrong posterior");
            saw_post += 1;
        } else {
            panic!("response from unknown generation: {response}");
        }
    }
    let total = responses.iter().map(Vec::len).sum::<usize>();
    assert_eq!(saw_pre + saw_post, total);
    assert!(total >= CLIENTS * QUERIES_PER_CLIENT, "≥1k queries issued");
    assert!(saw_post >= CLIENTS, "every client observed the new model");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn stats_and_errors_are_well_formed() {
    let c = Arc::new(AtomicUsize::new(0));
    let session = primed_session(build_corpus(60), c);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    assert_eq!(client.request("PING").expect("ping"), "OK pong");
    let stats = client.request("STATS").expect("stats");
    assert_eq!(field(&stats, "rows"), "60");
    assert_eq!(field(&stats, "lfs"), "3");
    assert_eq!(field(&stats, "lf_names"), "lf_causes,lf_treats,lf_count");

    // Errors are reported, never disconnects or panics.
    for bad in [
        "NOPE",
        "MARGINAL",
        "MARGINAL 9:1",          // column out of model range
        "MARGINAL 0:7",          // illegal vote for binary
        "APPLY 5 4 0 1 too few", // inverted span
        "REFRESH REMOVE lf_nope",
        "REFRESH EDIT lf_new KEYWORD 1 -1 x", // EDIT of absent LF
        "REFRESH ADD lf_causes KEYWORD 1 -1 x", // ADD of existing LF
        "SNAPSHOT",                           // no path configured
    ] {
        let response = client.request(bad).expect("still connected");
        assert!(response.starts_with("ERR "), "{bad:?} -> {response}");
    }
    // The connection still works after all those errors.
    assert_eq!(client.request("PING").expect("ping"), "OK pong");
    // A marginal memo hit shows up in STATS.
    client.request("MARGINAL 0:1").expect("q1");
    client.request("MARGINAL 0:1").expect("q2");
    let stats = client.request("STATS").expect("stats");
    let hits: u64 = field(&stats, "memo_hits").parse().expect("number");
    assert!(hits >= 1, "repeat signature served from the posterior memo");

    server.shutdown().expect("clean shutdown");
}

fn memo_hits(client: &mut Client) -> u64 {
    let stats = client.request("STATS").expect("stats");
    field(&stats, "memo_hits").parse().expect("number")
}

#[test]
fn apply_shares_the_marginal_memo() {
    let c = Arc::new(AtomicUsize::new(0));
    let server = LabelServer::start(primed_session(build_corpus(60), c), ServeConfig::default())
        .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Only lf_causes fires: the non-abstain signature is `0:1`.
    let applied = client
        .request("APPLY 0 1 2 3 alpha1 causes beta2")
        .expect("apply");
    assert!(applied.starts_with("OK "), "{applied}");
    assert_eq!(field(&applied, "votes"), "1,0,0", "{applied}");

    let before = memo_hits(&mut client);
    let marginal = client.request("MARGINAL 0:1").expect("marginal");
    assert_eq!(
        memo_hits(&mut client),
        before + 1,
        "APPLY memoized its signature for MARGINAL"
    );
    assert_eq!(field(&marginal, "gen"), field(&applied, "gen"));
    assert_eq!(field(&marginal, "p"), field(&applied, "p"), "same bits");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn apply_on_a_stale_suite_answers_majority_vote_outside_the_memo() {
    let c = Arc::new(AtomicUsize::new(0));
    let mut session = primed_session(build_corpus(60), c);
    let model_p = session
        .model()
        .expect("refreshed session has a model")
        .posterior(&[0], &[1]);
    let mv_p = MajorityVoteModel::new(4, LabelScheme::Binary).posterior(&[0], &[1]);
    assert_ne!(model_p, mv_p, "the two answers must be told apart");
    // An LF added after the last refresh: the live suite no longer has
    // the layout the model was fitted on.
    let (lf, tag) = wire_lf("lf_mentions KEYWORD 1 -1 mentions");
    session.add_lf_tagged(lf, tag);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let applied = client
        .request("APPLY 0 1 2 3 alpha1 causes beta2")
        .expect("apply");
    assert_eq!(field(&applied, "votes"), "1,0,0,0", "{applied}");
    assert_eq!(field(&applied, "p"), format_probs(&mv_p), "{applied}");

    let marginal = client.request("MARGINAL 0:1").expect("marginal");
    assert_eq!(
        field(&marginal, "p"),
        format_probs(&model_p),
        "the fallback left no majority vote in the memo"
    );

    server.shutdown().expect("clean shutdown");
}

/// The distillation test corpus: two cue verbs per class on the same
/// rows (agreement makes LF accuracies identifiable without ground
/// truth). Built twice — once to serve, once to thaw — and the
/// kill/resume assertion depends on both builds being identical.
fn build_distill_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        let verb = match i % 5 {
            0 | 1 => "causes and induces",
            2 => "treats and cures",
            3 => "worsens",
            _ => "mentions",
        };
        let text = format!("alpha{} {verb} beta{}", i % 7, i % 5);
        let tokens = tokenize(&text);
        let last = tokens.len();
        let s = corpus.add_sentence(doc, &text, tokens);
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, last - 1, last, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

const DISTILL_SPECS: [&str; 4] = [
    "lf_causes KEYWORD 1 1 causes",
    "lf_induces KEYWORD 1 1 induces",
    "lf_treats KEYWORD -1 -1 treats",
    "lf_cures KEYWORD -1 -1 cures",
];

/// A session with distillation enabled over the distill corpus (see
/// build_distill_corpus for why two LFs per class vote on the same
/// rows), not yet refreshed. Returns its config too, for thawing.
fn distill_session() -> (IncrementalSession, SessionConfig) {
    use snorkel_core::pipeline::DiscTrainerConfig;

    let corpus = build_distill_corpus(400);
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut disc_cfg = DiscTrainerConfig::with_dim(1 << 12);
    // Small corpus: more epochs / smaller batches than the
    // deployment-scale defaults so the linear model converges.
    disc_cfg.train.epochs = 40;
    disc_cfg.train.batch_size = 32;
    let config = SessionConfig {
        distill: Some(disc_cfg),
        ..gm_config()
    };
    let mut session = IncrementalSession::new(corpus, config.clone());
    session.ingest_candidates(&ids);
    for spec in DISTILL_SPECS {
        let (lf, tag) = wire_lf(spec);
        session.add_lf_tagged(lf, tag);
    }
    (session, config)
}

#[test]
fn predict_answers_zero_coverage_candidates_and_survives_kill_resume() {
    let dir = std::env::temp_dir().join(format!("snorkel-predict-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_path = dir.join("predict.snap");

    let (session, config) = distill_session();

    let server = LabelServer::start(
        session,
        ServeConfig {
            snapshot_path: Some(snap_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Before any refresh there is no distilled model.
    let early = client.request("PREDICT btw=causes").expect("request");
    assert!(early.starts_with("ERR no distilled model"), "{early}");

    // REFRESH trains the label model, then distills (retrain runs after
    // the write lock drops; the reply advertises it).
    let refreshed = client.request("REFRESH").expect("refresh");
    assert!(refreshed.starts_with("OK "), "{refreshed}");
    assert_eq!(field(&refreshed, "disc"), "retraining");

    // PREDICT: raw feature strings for a candidate *absent from Λ* —
    // "alpha99" is out of corpus. Feature names follow the featurizer's
    // conventions (lemma level: `btw=cause`, not `btw=causes`).
    let pos = client.request("PREDICT btw=induce u=alpha99").expect("ok");
    assert!(pos.starts_with("OK "), "{pos}");
    assert_eq!(field(&pos, "disc_gen"), "1");
    let p_pos: f64 = field(&pos, "p").split(',').next().unwrap().parse().unwrap();
    assert!(p_pos > 0.5, "'induces' features must score positive: {pos}");

    let neg = client.request("PREDICT btw=cure u=alpha99").expect("ok");
    let p_neg: f64 = field(&neg, "p").split(',').next().unwrap().parse().unwrap();
    assert!(p_neg < 0.5, "'cures' features must score negative: {neg}");

    // PREDICT_TEXT featurizes a transient candidate server-side. The
    // sentence shares no span text with the corpus: zero LF coverage,
    // answered purely by the distilled model.
    let text = client
        .request("PREDICT_TEXT 0 1 2 3 gamma5 causes delta2")
        .expect("ok");
    assert!(text.starts_with("OK "), "{text}");
    let p_text: f64 = field(&text, "p")
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        p_text > 0.5,
        "'causes' sentence must score positive: {text}"
    );

    // STATS reports the disc generation and freshness.
    let stats = client.request("STATS").expect("stats");
    assert_eq!(field(&stats, "disc_gen"), "1", "{stats}");

    // Kill: snapshot + shutdown.
    let snap = client.request("SNAPSHOT").expect("snapshot");
    assert!(snap.starts_with("OK bytes="), "{snap}");
    client.request("SHUTDOWN").expect("bye");
    server.wait().expect("clean shutdown");

    // Resume from the snapshot: the distilled model must serve PREDICT
    // immediately, bit-identically, with its generation intact.
    let snapshot = Snapshot::read_file(&snap_path).expect("snapshot loads");
    let lfs: Vec<BoxedLf> = DISTILL_SPECS.iter().map(|s| wire_lf(s).0).collect();
    // The corpus is derived state: rebuild an identical one for thawing.
    let resumed =
        IncrementalSession::thaw(build_distill_corpus(400), config, snapshot.session, lfs)
            .expect("thaw");
    let server = LabelServer::start(resumed, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let pos2 = client.request("PREDICT btw=induce u=alpha99").expect("ok");
    assert_eq!(field(&pos2, "disc_gen"), "1");
    assert_eq!(
        field(&pos2, "p"),
        field(&pos, "p"),
        "resumed disc predictions are bit-identical"
    );
    let text2 = client
        .request("PREDICT_TEXT 0 1 2 3 gamma5 causes delta2")
        .expect("ok");
    assert_eq!(field(&text2, "p"), field(&text, "p"));
    client.request("SHUTDOWN").expect("bye");
    server.wait().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_predict_matches_binary_predict_bit_for_bit() {
    let (mut session, _) = distill_session();
    session.refresh();
    session.distill();
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let rows: Vec<Vec<String>> = [
        &["btw=induce", "u=alpha99"][..],
        &["btw=cure", "u=alpha99"],
        &["btw=cause", "btw=and", "btw=induce", "pair=alpha1|beta2"],
        &["u=gamma5"],
        &["btw=treat", "btw=cure", "order=true", "dist=2"],
        &["never=seen"],
    ]
    .iter()
    .map(|row| row.iter().map(|f| f.to_string()).collect())
    .collect();

    let mut bin = FrameClient::connect(server.addr()).expect("frame connect");
    let reply = bin.predict(&rows).expect("binary round trip");
    let BinReply::Predict {
        gen,
        disc_gen,
        probs,
    } = reply
    else {
        panic!("unexpected reply {reply:?}");
    };
    assert_eq!(probs.len(), rows.len());

    let mut text = Client::connect(server.addr()).expect("text connect");
    for (row, bin_row) in rows.iter().zip(&probs) {
        let reply = text
            .request(&format!("PREDICT {}", row.join(" ")))
            .expect("text round trip");
        assert!(reply.starts_with("OK "), "{reply}");
        assert_eq!(field(&reply, "gen"), gen.to_string());
        assert_eq!(field(&reply, "disc_gen"), disc_gen.to_string());
        let text_bits: Vec<u64> = field(&reply, "p")
            .split(',')
            .map(|p| p.parse::<f64>().expect("probability").to_bits())
            .collect();
        let bin_bits: Vec<u64> = bin_row.iter().map(|p| p.to_bits()).collect();
        assert_eq!(text_bits, bin_bits, "planes disagree on {row:?}");
    }

    server.shutdown().expect("clean shutdown");
}
