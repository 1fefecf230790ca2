//! In-process per-layer probes for the traced run: each times one public
//! call of the serving, incremental, streaming or replication layer on a
//! twin of the served session (primed identically, never served).

use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use snorkel_context::{CandidateId, Corpus};
use snorkel_serve::frame;
use snorkel_serve::hotpath::{self, ReadScratch, SigMemo};
use snorkel_serve::protocol::{parse_request, LfSpec, SuiteEdit};
use snorkel_serve::repl::{self, wal};

use crate::serve::{keyword_spec, Pools, Primed, REFRESH_SLOT};
use crate::stats::{median, micros, millis};

/// Calls per timed batch of a nanosecond-scale probe.
const BATCH: usize = 64;
/// Timed batches per probe.
const BATCHES: usize = 101;

/// Median over [`BATCHES`] batches of the mean time of one `f(i)` call,
/// in ns; `i` counts calls from 0.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    for _ in 0..BATCH {
        f(i);
        i += 1;
    }
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f(i);
                i += 1;
            }
            t.elapsed().as_secs_f64() * 1e9 / BATCH as f64
        })
        .collect();
    median(&per_batch)
}

/// One per-layer value: name, value, unit.
pub type Value = (&'static str, f64, &'static str);

/// Wire-path probes: parse, decode, compute (memo hit and miss), encode.
fn serve_probes(primed: &Primed, pools: &Pools, out: &mut Vec<Value>) {
    let session = &primed.session;
    let lines: Vec<String> = pools
        .marginal
        .iter()
        .take(1024)
        .map(|r| String::from_utf8_lossy(&r.line).trim_end().to_string())
        .collect();
    out.push((
        "serve.parse_ns",
        ns_per_call(|i| {
            black_box(parse_request(black_box(&lines[i % lines.len()])).ok());
        }),
        "ns",
    ));

    let rows: Vec<_> = pools
        .batches
        .iter()
        .flat_map(|b| b.rows.iter().cloned())
        .take(256)
        .collect();
    let payloads: Vec<Vec<u8>> = rows
        .iter()
        .map(|row| frame::encode_marginal(std::slice::from_ref(row))[6..].to_vec())
        .collect();
    let mut scratch = ReadScratch::new();
    out.push((
        "serve.decode_ns",
        ns_per_call(|i| {
            black_box(hotpath::decode_marginal(&payloads[i % payloads.len()], &mut scratch).ok());
        }),
        "ns",
    ));

    let memo = Mutex::new(SigMemo::new());
    let gen = 1u64;
    for (cols, votes) in &rows {
        scratch.set_vote_row(cols, votes);
        let _ = hotpath::compute_marginal(session, gen, &memo, &mut scratch);
    }
    out.push((
        "serve.compute_hit_ns",
        ns_per_call(|i| {
            let (cols, votes) = &rows[i % rows.len()];
            scratch.set_vote_row(cols, votes);
            black_box(hotpath::compute_marginal(session, gen, &memo, &mut scratch).ok());
        }),
        "ns",
    ));
    // A new generation per call: the memo resets and the row misses —
    // the first read after every write-side generation bump.
    let mut bumped = gen;
    out.push((
        "serve.compute_miss_ns",
        ns_per_call(|i| {
            bumped += 1;
            let (cols, votes) = &rows[i % rows.len()];
            scratch.set_vote_row(cols, votes);
            black_box(hotpath::compute_marginal(session, bumped, &memo, &mut scratch).ok());
        }),
        "ns",
    ));

    let probs = pools.batches[0].expect[0].clone();
    let mut reply = Vec::with_capacity(64);
    out.push((
        "serve.encode_ns",
        ns_per_call(|_| {
            reply.clear();
            frame::encode_marginal_reply_flat_into(gen, black_box(&probs), probs.len(), &mut reply);
            black_box(&reply);
        }),
        "ns",
    ));
}

/// LF execution on one transient candidate, as `APPLY` runs it.
fn lf_probe(primed: &Primed, out: &mut Vec<Value>) {
    let transients: Vec<(Corpus, CandidateId)> = primed
        .texts
        .iter()
        .take(128)
        .map(|(s1, s2, text)| {
            let tokens = snorkel_nlp::tokenize(text);
            let mut corpus = Corpus::new();
            let doc = corpus.add_document("probe");
            let sent = corpus.add_sentence(doc, text, tokens);
            let a = corpus.add_span(sent, s1.0, s1.1, None);
            let b = corpus.add_span(sent, s2.0, s2.1, None);
            let cand = corpus.add_candidate(vec![a, b]);
            (corpus, cand)
        })
        .collect();
    let ns = ns_per_call(|i| {
        let (corpus, cand) = &transients[i % transients.len()];
        black_box(primed.session.apply_lfs(&corpus.candidate(*cand)));
    });
    out.push(("lf.apply_row_us", ns / 1e3, "us"));
}

/// One-LF edits through `repl::apply_refresh`, then the distilled-model
/// retrain `REFRESH` runs outside the lock.
fn incr_probe(primed: &mut Primed, out: &mut Vec<Value>) {
    const EDITS: usize = 5;
    let session = &mut primed.session;
    let mut gen = 0u64;
    // An add, then edits that each install a keyword not seen before,
    // so every timed edit executes its column.
    let edit = |r: usize| -> SuiteEdit {
        let spec = LfSpec::parse(&keyword_spec(r)).expect("valid LF spec");
        if r == 0 {
            SuiteEdit::Add(spec)
        } else {
            SuiteEdit::Edit(spec)
        }
    };
    let (_, set) = repl::apply_refresh(session, &mut gen, Some(&edit(0))).expect("add the LF");
    if let Some(set) = set {
        session.install_disc(set.train().0);
    }
    let mut refresh_ms = Vec::new();
    let mut retrain_ms = Vec::new();
    let (mut invocations, mut reused, mut rows_trained) = (0.0, 0.0, 0.0);
    for r in 1..=EDITS {
        let t = Instant::now();
        let (report, set) =
            repl::apply_refresh(session, &mut gen, Some(&edit(r))).expect("edit the LF");
        refresh_ms.push(millis(t.elapsed()));
        invocations = report.lf_invocations as f64;
        reused = report.columns_reused as f64;
        if let Some(set) = set {
            let t = Instant::now();
            let (state, report) = set.train();
            retrain_ms.push(millis(t.elapsed()));
            rows_trained = report.rows_trained as f64;
            session.install_disc(state);
        }
    }
    out.push(("incr.refresh_ms", median(&refresh_ms), "ms"));
    out.push(("incr.refresh_lf_invocations", invocations, "count"));
    out.push(("incr.columns_reused", reused, "count"));
    out.push((
        "disc.retrain_ms",
        if retrain_ms.is_empty() {
            0.0
        } else {
            median(&retrain_ms)
        },
        "ms",
    ));
    out.push(("disc.retrain_rows", rows_trained, "count"));
}

/// Ingest batches through `repl::prepare_ingest` and `repl::apply_ingest`
/// (the write-lock hold).
fn stream_probe(primed: &mut Primed, pools: &Pools, out: &mut Vec<Value>) {
    const BATCHES: usize = 200;
    let mut gen = 0u64;
    let (mut prepare, mut apply, mut online) = (Vec::new(), Vec::new(), 0usize);
    for (rows, _) in pools.ingest.iter().cycle().take(BATCHES) {
        let t = Instant::now();
        let prepared = repl::prepare_ingest(rows).expect("held-out rows are valid");
        prepare.push(micros(t.elapsed()));
        let t = Instant::now();
        let report = repl::apply_ingest(&mut primed.session, &mut gen, prepared);
        apply.push(micros(t.elapsed()));
        online += usize::from(report.online_fit);
    }
    out.push(("stream.prepare_us", median(&prepare), "us"));
    out.push(("stream.apply_ingest_us", median(&apply), "us"));
    out.push((
        "stream.online_fit_share",
        online as f64 / BATCHES as f64,
        "share",
    ));
}

/// Append and fsync the run's record bodies on a scratch WAL, the way
/// the leader logs each write inside its write-lock hold.
fn wal_probe(pools: &Pools, dir: &Path, out: &mut Vec<Value>) -> std::io::Result<()> {
    const RECORDS: usize = 200;
    std::fs::create_dir_all(dir)?;
    let path = dir.join("probe.wal");
    let _ = std::fs::remove_file(&path);
    let (mut file, _) =
        wal::WalFile::open_or_create(&path, 0).map_err(|e| std::io::Error::other(e.to_string()))?;
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    let mut ingests = pools.ingest.iter().cycle();
    for k in 0..RECORDS {
        let op = if k as u64 % REFRESH_SLOT == REFRESH_SLOT - 1 {
            let spec = LfSpec::parse(&keyword_spec(k)).expect("valid LF spec");
            wal::Op::Refresh(Some(SuiteEdit::Edit(spec)))
        } else {
            let (rows, _) = ingests.next().expect("cycled pool");
            wal::Op::Ingest(rows.clone())
        };
        let lsn = file.next_lsn();
        let body = wal::encode_body(lsn, lsn, &op);
        let t = Instant::now();
        file.append_body(lsn, &body)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        append.push(micros(t.elapsed()));
        let t = Instant::now();
        file.sync()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        sync.push(micros(t.elapsed()));
    }
    drop(file);
    std::fs::remove_file(&path)?;
    std::fs::remove_dir(dir)?;
    out.push(("repl.wal_append_us", median(&append), "us"));
    out.push(("repl.wal_sync_us", median(&sync), "us"));
    Ok(())
}

/// Every in-process probe, on `twin` (consumed: the probes edit it).
pub fn probe(mut twin: Primed, pools: &Pools, dir: &Path) -> std::io::Result<Vec<Value>> {
    let mut out = Vec::new();
    serve_probes(&twin, pools, &mut out);
    lf_probe(&twin, &mut out);
    incr_probe(&mut twin, &mut out);
    stream_probe(&mut twin, pools, &mut out);
    wal_probe(pools, dir, &mut out)?;
    Ok(out)
}
