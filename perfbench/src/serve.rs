//! The serving phases: a primed `IncrementalSession` behind
//! `LabelServer::start` on loopback, driven by at most two client
//! threads over at most two connections.
//!
//! Every read reply answered at the starting generation (read from a
//! `STATS` reply before the phases) is compared with the in-process
//! reference computed from the session before it was handed to the
//! server: text replies as strings built with `protocol::format_probs`,
//! binary `OP_MARGINAL` rows bit for bit.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::Vote;
use snorkel_serve::frame::{self, IngestRow, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES};
use snorkel_serve::protocol::format_probs;
use snorkel_serve::{BinReply, LabelServer, ServeConfig, VoteRow};

use crate::stats::{self, classify_frame_err, classify_text, OpenLoop, Outcome, Tally};

/// Candidates the served session is primed on.
pub const SERVE_ROWS: usize = 10_000;
/// Further candidates generated with the corpus and held out of the
/// session; `OP_INGEST` streams them in.
pub const HOLDOUT_ROWS: usize = 6_000;
/// Seed offset of the served corpus, so it never equals the pipeline
/// corpus of the same run.
const SERVE_SALT: u64 = 0x5E_4E;
/// Transient candidates in the `APPLY`/`PREDICT_TEXT` pools.
const TEXT_POOL: usize = 512;
/// Rows per `OP_MARGINAL` batch.
pub const BATCH_ROWS: usize = 32;
/// Rows per `OP_INGEST` batch.
pub const INGEST_BATCH: usize = 2;
/// Offered rate of the open-loop read stream, requests per second.
pub const READ_RATE: u32 = 500;
/// Interval between scheduled writes.
pub const WRITE_EVERY: Duration = Duration::from_millis(10);
/// Every this-many-th write slot carries a `REFRESH` instead of an
/// ingest batch.
pub const REFRESH_SLOT: u64 = 100;

/// Read request classes, in metric-name order.
pub const READ_CLASSES: [&str; 4] = ["marginal", "op_marginal", "apply", "predict_text"];
/// Write request classes.
pub const WRITE_CLASSES: [&str; 2] = ["ingest", "refresh"];
/// Items (labelled rows) each read class carries.
const ITEMS: [u64; 4] = [1, BATCH_ROWS as u64, 1, 1];
/// The fixed read mix, cycled: 14 text `MARGINAL`, 2 `OP_MARGINAL`×32,
/// 2 `APPLY`, 2 `PREDICT_TEXT` in every 20 requests.
const MIX: [usize; 20] = [0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3];
/// Keywords the `REFRESH` cycle's LF rotates through.
const KEYWORDS: [&str; 6] = [
    "causes",
    "induced",
    "caused",
    "linked",
    "developed",
    "attributed",
];

/// The served session's configuration: moment backend, distillation on.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        force_strategy: Some(ModelingStrategy::MomentMatching),
        distill: Some(DiscTrainerConfig::default()),
        ..SessionConfig::default()
    }
}

/// A primed session and the corpus rows the client side replays.
pub struct Primed {
    /// Refreshed, distilled, streaming-enabled session.
    pub session: IncrementalSession,
    /// Held-out rows for `OP_INGEST`.
    pub holdout: Vec<IngestRow>,
    /// Served rows for `APPLY` and `PREDICT_TEXT`.
    pub texts: Vec<IngestRow>,
}

fn row_of(corpus: &Corpus, id: CandidateId) -> IngestRow {
    let c = corpus.candidate(id);
    (
        c.span(0).word_range(),
        c.span(1).word_range(),
        c.sentence().text().to_string(),
    )
}

/// Build the served corpus and prime a session on it. Returns the time
/// spent building the corpus and priming, separately.
pub fn prime(seed: u64) -> (Primed, Duration, Duration) {
    let t = Instant::now();
    let task = cdr::build(TaskConfig {
        num_candidates: SERVE_ROWS + HOLDOUT_ROWS,
        seed: seed ^ SERVE_SALT,
    });
    let build = t.elapsed();
    let served = SERVE_ROWS.min(task.candidates.len());
    let holdout: Vec<IngestRow> = task.candidates[served..]
        .iter()
        .map(|&id| row_of(&task.corpus, id))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E47);
    let mut picks: Vec<CandidateId> = task.candidates[..served].to_vec();
    picks.shuffle(&mut rng);
    let texts: Vec<IngestRow> = picks[..TEXT_POOL.min(served)]
        .iter()
        .map(|&id| row_of(&task.corpus, id))
        .collect();

    let t = Instant::now();
    let mut session = IncrementalSession::new(task.corpus, session_config());
    session.ingest_candidates(&task.candidates[..served]);
    for (j, lf) in task.lfs.into_iter().enumerate() {
        session.add_lf_tagged(lf, j as u64);
    }
    session.refresh();
    session.distill();
    session.enable_streaming();
    let prime = t.elapsed();
    (
        Primed {
            session,
            holdout,
            texts,
        },
        build,
        prime,
    )
}

/// A text request and the reply the in-process reference predicts.
pub struct TextReq {
    /// Request line, newline included.
    pub line: Vec<u8>,
    /// Expected reply at the starting generation, after its
    /// `OK gen=<g0> ` prefix.
    pub expect: String,
}

/// An `OP_MARGINAL` frame and its expected posterior rows.
pub struct BatchReq {
    /// Encoded request frame.
    pub frame: Vec<u8>,
    /// The batch's vote rows.
    pub rows: Vec<VoteRow>,
    /// Expected posterior rows at the starting generation.
    pub expect: Vec<Vec<f64>>,
}

/// Everything the client side sends, with the expected replies.
pub struct Pools {
    /// Text `MARGINAL` requests over the served Λ's non-empty rows, in
    /// seeded random order.
    pub marginal: Vec<TextReq>,
    /// `OP_MARGINAL` batches over the same rows.
    pub batches: Vec<BatchReq>,
    /// `APPLY` requests.
    pub apply: Vec<TextReq>,
    /// `PREDICT_TEXT` requests.
    pub predict: Vec<TextReq>,
    /// `OP_INGEST` batches of held-out rows, and their frames.
    pub ingest: Vec<(Vec<IngestRow>, Vec<u8>)>,
    /// Rows no request could carry (spans the tokenizer rejects).
    pub unusable_rows: usize,
}

fn marginal_line((cols, votes): &VoteRow) -> String {
    let entries: Vec<String> = cols
        .iter()
        .zip(votes)
        .map(|(c, v)| format!("{c}:{v}"))
        .collect();
    format!("MARGINAL {}", entries.join(","))
}

fn spans_line(verb: &str, (s1, s2, text): &IngestRow) -> String {
    format!("{verb} {} {} {} {} {text}", s1.0, s1.1, s2.0, s2.1)
}

/// A transient one-sentence corpus holding `row`, built exactly as the
/// server builds one for `APPLY`/`PREDICT_TEXT`. `None` when the spans
/// do not fit the tokenized text.
fn transient(row: &IngestRow) -> Option<(Corpus, CandidateId)> {
    let (s1, s2, text) = row;
    let tokens = snorkel_nlp::tokenize(text);
    if [*s1, *s2]
        .iter()
        .any(|&(lo, hi)| lo >= hi || hi > tokens.len())
    {
        return None;
    }
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("probe");
    let sent = corpus.add_sentence(doc, text, tokens);
    let a = corpus.add_span(sent, s1.0, s1.1, None);
    let b = corpus.add_span(sent, s2.0, s2.1, None);
    let cand = corpus.add_candidate(vec![a, b]);
    Some((corpus, cand))
}

impl Pools {
    /// Requests and expectations from the primed session, before it is
    /// served.
    pub fn new(primed: &Primed, seed: u64) -> Pools {
        let session = &primed.session;
        let model = session.model().expect("primed session has a model");
        let lambda = session.label_matrix().expect("primed session has Λ");
        let mut rows: Vec<VoteRow> = (0..lambda.num_points())
            .map(|i| {
                let (cols, votes) = lambda.row(i);
                (cols.to_vec(), votes.to_vec())
            })
            .filter(|(cols, _)| !cols.is_empty())
            .collect();
        rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x3A46));
        let posterior = |(cols, votes): &VoteRow| model.posterior(cols, votes);

        let marginal = rows
            .iter()
            .map(|row| TextReq {
                line: format!("{}\n", marginal_line(row)).into_bytes(),
                expect: format!("p={}", format_probs(&posterior(row))),
            })
            .collect();
        let batches = rows
            .chunks_exact(BATCH_ROWS)
            .map(|chunk| BatchReq {
                frame: frame::encode_marginal(chunk),
                rows: chunk.to_vec(),
                expect: chunk.iter().map(posterior).collect(),
            })
            .collect();

        let disc = session.disc().expect("primed session is distilled");
        let mut unusable_rows = 0;
        let mut apply = Vec::new();
        let mut predict = Vec::new();
        for row in &primed.texts {
            let Some((corpus, cand)) = transient(row) else {
                unusable_rows += 1;
                continue;
            };
            let view = corpus.candidate(cand);
            let votes = session.apply_lfs(&view);
            let (cols, nz): (Vec<u32>, Vec<Vote>) = votes
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(j, &v)| (j as u32, v))
                .unzip();
            let vote_strs: Vec<String> = votes.iter().map(|v| v.to_string()).collect();
            apply.push(TextReq {
                line: format!("{}\n", spans_line("APPLY", row)).into_bytes(),
                expect: format!(
                    "votes={} p={}",
                    vote_strs.join(","),
                    format_probs(&model.posterior(&cols, &nz))
                ),
            });
            let x = disc.config.featurizer.featurize(&view);
            predict.push(TextReq {
                line: format!("{}\n", spans_line("PREDICT_TEXT", row)).into_bytes(),
                expect: format!(
                    "disc_gen={} p={}",
                    disc.generation,
                    format_probs(&disc.model.predict_proba(&x))
                ),
            });
        }
        let usable: Vec<IngestRow> = primed
            .holdout
            .iter()
            .filter(|row| {
                let ok = transient(row).is_some();
                unusable_rows += usize::from(!ok);
                ok
            })
            .cloned()
            .collect();
        let ingest = usable
            .chunks_exact(INGEST_BATCH)
            .map(|chunk| (chunk.to_vec(), frame::encode_ingest(chunk)))
            .collect();
        Pools {
            marginal,
            batches,
            apply,
            predict,
            ingest,
            unusable_rows,
        }
    }

    /// Corrupt one expectation, so the run must report a mismatch.
    pub fn inject_mismatch(&mut self) {
        self.marginal[0].expect.push('0');
    }
}

/// Counters of a `STATS` reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Current generation.
    pub gen: u64,
    /// Read queries answered.
    pub queries: u64,
    /// Of those, answered from the memo.
    pub memo_hits: u64,
}

/// One client connection carrying both wire planes.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    payload: Vec<u8>,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            payload: Vec::new(),
        })
    }

    /// Send request bytes without reading a reply.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read one reply line.
    pub fn recv_text(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Read and decode one reply frame.
    pub fn recv_frame(&mut self) -> std::io::Result<BinReply> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        if header[0] != FRAME_MAGIC {
            return Err(invalid(format!("bad reply magic 0x{:02x}", header[0])));
        }
        let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(invalid(format!("reply of {len} bytes")));
        }
        self.payload.resize(len as usize, 0);
        self.reader.read_exact(&mut self.payload)?;
        frame::decode_reply(header[1], &self.payload).map_err(invalid)
    }

    /// Send one request line (newline included), read the reply line.
    pub fn text(&mut self, line: &[u8]) -> std::io::Result<&str> {
        self.send(line)?;
        self.recv_text()
    }

    /// Send one request frame, read and decode the reply frame.
    pub fn frame(&mut self, frame: &[u8]) -> std::io::Result<BinReply> {
        self.send(frame)?;
        self.recv_frame()
    }

    /// Send `STATS` and read its counters.
    pub fn stats(&mut self) -> std::io::Result<Counters> {
        let reply = self.text(b"STATS\n")?;
        let field = |key: &str| -> Option<u64> {
            reply
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        match (field("gen="), field("queries="), field("memo_hits=")) {
            (Some(gen), Some(queries), Some(memo_hits)) => Ok(Counters {
                gen,
                queries,
                memo_hits,
            }),
            _ => Err(invalid(format!("STATS reply without counters: {reply}"))),
        }
    }
}

/// Read the reply to `req` and compare it with the expectation when it
/// was answered at the starting generation (`prefix`).
fn check_text(conn: &mut Conn, req: &TextReq, prefix: &str) -> Outcome {
    match conn.recv_text() {
        Err(_) => Outcome::Io,
        Ok(reply) => match reply.strip_prefix(prefix) {
            Some(body) if body == req.expect => Outcome::Verified,
            Some(_) => Outcome::Mismatch,
            None => classify_text(reply),
        },
    }
}

fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The client side of a served phase: pools plus per-class cursors.
pub struct Reader<'a> {
    pools: &'a Pools,
    g0: u64,
    prefix: String,
    cursor: [usize; 4],
}

impl<'a> Reader<'a> {
    /// A reader starting at `offset` into every pool, checking replies
    /// answered at generation `g0`.
    pub fn new(pools: &'a Pools, g0: u64, offset: usize) -> Reader<'a> {
        Reader {
            pools,
            g0,
            prefix: format!("OK gen={g0} "),
            cursor: [offset; 4],
        }
    }

    /// The class of read request `k` of the mix, and its index into
    /// that class's pool.
    pub fn next(&mut self, k: u64) -> (usize, usize) {
        let class = MIX[(k % MIX.len() as u64) as usize];
        let i = self.cursor[class];
        self.cursor[class] += 1;
        (class, i)
    }

    /// The request bytes of `(class, i)`.
    pub fn request(&self, (class, i): (usize, usize)) -> &'a [u8] {
        let p = self.pools;
        match class {
            0 => &p.marginal[i % p.marginal.len()].line,
            1 => &p.batches[i % p.batches.len()].frame,
            2 => &p.apply[i % p.apply.len()].line,
            _ => &p.predict[i % p.predict.len()].line,
        }
    }

    /// Read the reply to `(class, i)` and check it.
    pub fn check(&self, conn: &mut Conn, (class, i): (usize, usize)) -> Outcome {
        let p = self.pools;
        match class {
            0 => check_text(conn, &p.marginal[i % p.marginal.len()], &self.prefix),
            1 => {
                let b = &p.batches[i % p.batches.len()];
                match conn.recv_frame() {
                    Err(_) => Outcome::Io,
                    Ok(BinReply::Marginal { gen, .. }) if gen != self.g0 => Outcome::Ok,
                    Ok(BinReply::Marginal { probs, .. }) if bits_equal(&probs, &b.expect) => {
                        Outcome::Verified
                    }
                    Ok(BinReply::Err { message }) => classify_frame_err(&message),
                    Ok(_) => Outcome::Mismatch,
                }
            }
            2 => check_text(conn, &p.apply[i % p.apply.len()], &self.prefix),
            _ => check_text(conn, &p.predict[i % p.predict.len()], &self.prefix),
        }
    }

    /// Send read request `k` of the mix and check its reply; returns its
    /// class and outcome.
    pub fn op(&mut self, conn: &mut Conn, k: u64) -> (usize, Outcome) {
        let req = self.next(k);
        if conn.send(self.request(req)).is_err() {
            return (req.0, Outcome::Io);
        }
        (req.0, self.check(conn, req))
    }
}

/// The `KEYWORD` LF spec the `r`-th refresh of the cycle installs.
pub fn keyword_spec(r: usize) -> String {
    format!("bench_kw KEYWORD 1 -1 {}", KEYWORDS[r % KEYWORDS.len()])
}

/// The scheduled write stream: `OP_INGEST` batches, with a
/// `REFRESH ADD`/`EDIT`/`REMOVE` of one `KEYWORD` LF every
/// [`REFRESH_SLOT`]-th slot.
pub struct Writer<'a> {
    pools: &'a Pools,
    ingested: usize,
    refreshes: usize,
}

impl<'a> Writer<'a> {
    /// A writer at the start of both streams.
    pub fn new(pools: &'a Pools) -> Writer<'a> {
        Writer {
            pools,
            ingested: 0,
            refreshes: 0,
        }
    }

    /// The `r`-th request line of the refresh cycle.
    pub fn refresh_line(r: usize) -> String {
        match r % 3 {
            0 => format!("REFRESH ADD {}", keyword_spec(r)),
            1 => format!("REFRESH EDIT {}", keyword_spec(r)),
            _ => "REFRESH REMOVE bench_kw".to_string(),
        }
    }

    /// Send write `k`; returns its class and outcome.
    pub fn op(&mut self, conn: &mut Conn, k: u64) -> (usize, Outcome) {
        if k % REFRESH_SLOT == REFRESH_SLOT - 1 {
            let line = format!("{}\n", Writer::refresh_line(self.refreshes));
            self.refreshes += 1;
            let outcome = match conn.text(line.as_bytes()) {
                Err(_) => Outcome::Io,
                Ok(reply) => classify_text(reply),
            };
            return (1, outcome);
        }
        let (_, frame) = &self.pools.ingest[self.ingested % self.pools.ingest.len()];
        self.ingested += 1;
        let outcome = match conn.frame(frame) {
            Err(_) => Outcome::Io,
            Ok(BinReply::Ingest { rows, .. }) if rows == INGEST_BATCH as u64 => Outcome::Ok,
            Ok(BinReply::Err { message }) => classify_frame_err(&message),
            Ok(_) => Outcome::Mismatch,
        };
        (0, outcome)
    }
}

/// A running server plus its client-side pools.
pub struct Served {
    server: LabelServer,
    /// Loopback address.
    pub addr: SocketAddr,
    wal_dir: PathBuf,
    /// Requests and expectations.
    pub pools: Pools,
}

/// Scratch directory for this process's WAL files, inside the working
/// directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()))
}

impl Served {
    /// Serve a primed session: `LabelServer::start` with the default
    /// configuration plus a write-ahead log. Returns the server and the
    /// time `start` took.
    pub fn start(primed: Primed, pools: Pools, tag: &str) -> std::io::Result<(Served, Duration)> {
        let wal_dir = scratch_dir(tag);
        std::fs::create_dir_all(&wal_dir)?;
        let t = Instant::now();
        let server = LabelServer::start(
            primed.session,
            ServeConfig {
                wal_path: Some(wal_dir.join("leader.wal")),
                ..ServeConfig::default()
            },
        )?;
        let took = t.elapsed();
        let addr = server.addr();
        Ok((
            Served {
                server,
                addr,
                wal_dir,
                pools,
            },
            took,
        ))
    }

    /// Stop the server, wait for it, and delete its WAL; returns the
    /// pools.
    pub fn stop(self) -> Pools {
        let _ = self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
        self.pools
    }
}

/// Lengths of the served phases, as shares of the run's seconds.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Closed loop on two connections (read capacity).
    pub closed: f64,
    /// Open-loop reads alone on one connection.
    pub open: f64,
    /// Open-loop reads on one connection beside scheduled writes on the
    /// other. The reported read latencies come from this phase when
    /// there is no read-only one.
    pub mixed: f64,
}

/// What the served phases measured.
#[derive(Default)]
pub struct ServeResult {
    /// Items labelled per second in each closed-loop burst.
    pub bursts: Vec<f64>,
    /// The open-loop read stream the read metrics come from.
    pub reads: OpenLoop,
    /// The scheduled write stream.
    pub writes: OpenLoop,
    /// Memo hits per query over the reported read stream (`STATS`
    /// deltas).
    pub memo_hit_ratio: f64,
    /// Every operation of every phase.
    pub tally: Tally,
}

/// Send one `OP_MARGINAL` batch and the same rows as text `MARGINAL`
/// lines; every text reply must carry the binary row's exact floats.
fn cross_plane_check(conn: &mut Conn, pools: &Pools, tally: &mut Tally) {
    let batch = &pools.batches[0];
    let Ok(BinReply::Marginal { probs, .. }) = conn.frame(&batch.frame) else {
        tally.record(Outcome::Mismatch);
        return;
    };
    tally.record(Outcome::Ok);
    for (row, bin) in batch.rows.iter().zip(&probs) {
        let line = format!("{}\n", marginal_line(row));
        let outcome = match conn.text(line.as_bytes()) {
            Err(_) => Outcome::Io,
            Ok(reply) => match reply.split_once(" p=") {
                Some((_, p)) if p == format_probs(bin) => Outcome::Ok,
                Some(_) => Outcome::Mismatch,
                None => classify_text(reply),
            },
        };
        tally.record(outcome);
    }
}

/// Closed-loop bursts; the read capacity is the upper quartile of their
/// throughputs (steal only ever lowers a burst's rate).
const BURSTS: usize = 20;
/// Requests each closed-loop connection keeps in flight, so the server's
/// workers never idle between a reply and the next request.
const DEPTH: usize = 8;

fn closed_loop(addr: SocketAddr, pools: &Pools, g0: u64, dur: Duration) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let rates: Vec<f64> = (0..BURSTS)
        .map(|b| {
            let (rate, t) = closed_burst(addr, pools, g0, dur / BURSTS as u32, b);
            tally.merge(&t);
            rate
        })
        .collect();
    (rates, tally)
}

fn closed_burst(
    addr: SocketAddr,
    pools: &Pools,
    g0: u64,
    dur: Duration,
    burst: usize,
) -> (f64, Tally) {
    let barrier = Barrier::new(2);
    let results: Vec<(u64, f64, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let Ok(mut conn) = Conn::connect(addr) else {
                        tally.record(Outcome::Io);
                        barrier.wait();
                        return (0, 1.0, tally);
                    };
                    let mut reader = Reader::new(pools, g0, (burst * 2 + t) * 7919);
                    let mut pending = VecDeque::with_capacity(DEPTH);
                    barrier.wait();
                    let start = Instant::now();
                    let mut items = 0u64;
                    let mut k = t as u64 * 5;
                    loop {
                        let open = start.elapsed() < dur;
                        while open && pending.len() < DEPTH {
                            let req = reader.next(k);
                            k += 1;
                            if conn.send(reader.request(req)).is_err() {
                                tally.record(Outcome::Io);
                                break;
                            }
                            pending.push_back(req);
                        }
                        let Some(req) = pending.pop_front() else {
                            break;
                        };
                        let outcome = reader.check(&mut conn, req);
                        tally.record(outcome);
                        if outcome.succeeded() {
                            items += ITEMS[req.0];
                        }
                    }
                    (items, start.elapsed().as_secs_f64(), tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut items = 0;
    let mut secs: f64 = 0.0;
    for (n, s, t) in &results {
        items += n;
        secs = secs.max(*s);
        tally.merge(t);
    }
    (items as f64 / secs, tally)
}

fn read_stream(
    addr: SocketAddr,
    pools: &Pools,
    g0: u64,
    start: Instant,
    dur: Duration,
) -> OpenLoop {
    let interval = Duration::from_secs(1) / READ_RATE;
    let count = (dur.as_secs_f64() * f64::from(READ_RATE)) as u64;
    let Ok(mut conn) = Conn::connect(addr) else {
        let mut failed = OpenLoop::default();
        failed.tally.record(Outcome::Io);
        return failed;
    };
    let mut reader = Reader::new(pools, g0, 0);
    stats::open_loop(start, interval, count, READ_CLASSES.len(), |k| {
        reader.op(&mut conn, k)
    })
}

fn write_stream(addr: SocketAddr, pools: &Pools, start: Instant, dur: Duration) -> OpenLoop {
    let count = (dur.as_secs_f64() / WRITE_EVERY.as_secs_f64()) as u64;
    let Ok(mut conn) = Conn::connect(addr) else {
        let mut failed = OpenLoop::default();
        failed.tally.record(Outcome::Io);
        return failed;
    };
    let mut writer = Writer::new(pools);
    stats::open_loop(start, WRITE_EVERY, count, WRITE_CLASSES.len(), |k| {
        writer.op(&mut conn, k)
    })
}

/// Memo hits per query between two `STATS` samples.
fn hit_ratio(before: Counters, after: Counters) -> f64 {
    let queries = after.queries.saturating_sub(before.queries).max(1);
    after.memo_hits.saturating_sub(before.memo_hits) as f64 / queries as f64
}

/// Run the closed-loop, open-loop and mixed phases against `served`.
/// Reads are checked at the generation the server reports before the
/// phases; a run in which no reply was compared with its reference
/// counts as a mismatch.
pub fn run(served: &Served, phases: Phases, seconds: f64) -> ServeResult {
    let addr = served.addr;
    let pools = &served.pools;
    let secs = |share: f64| Duration::from_secs_f64(share * seconds);
    let mut tally = Tally::default();
    let mut result = ServeResult {
        bursts: Vec::new(),
        reads: OpenLoop::default(),
        writes: OpenLoop::default(),
        memo_hit_ratio: 0.0,
        tally: Tally::default(),
    };
    let (mut ctl, g0) = match Conn::connect(addr).and_then(|mut c| c.stats().map(|s| (c, s.gen))) {
        Ok(ok) => ok,
        Err(_) => {
            result.tally.record(Outcome::Io);
            return result;
        }
    };
    cross_plane_check(&mut ctl, pools, &mut tally);

    let (bursts, closed_tally) = closed_loop(addr, pools, g0, secs(phases.closed));
    tally.merge(&closed_tally);
    result.bursts = bursts;

    let mut stats_failed = false;
    let mut sample = |ctl: &mut Conn| {
        ctl.stats().unwrap_or_else(|_| {
            stats_failed = true;
            Counters::default()
        })
    };
    if phases.open > 0.0 {
        let before = sample(&mut ctl);
        result.reads = read_stream(addr, pools, g0, Instant::now(), secs(phases.open));
        result.memo_hit_ratio = hit_ratio(before, sample(&mut ctl));
        tally.merge(&result.reads.tally);
    }
    if phases.mixed > 0.0 {
        let before = sample(&mut ctl);
        let start = Instant::now() + Duration::from_millis(5);
        let dur = secs(phases.mixed);
        let (reads, writes) = std::thread::scope(|s| {
            let w = s.spawn(|| write_stream(addr, pools, start, dur));
            let r = read_stream(addr, pools, g0, start, dur);
            (r, w.join().expect("write client thread"))
        });
        tally.merge(&reads.tally);
        tally.merge(&writes.tally);
        if phases.open == 0.0 {
            result.memo_hit_ratio = hit_ratio(before, sample(&mut ctl));
            result.reads = reads;
        }
        result.writes = writes;
    }
    if stats_failed {
        tally.record(Outcome::Io);
    }
    if tally.verified == 0 {
        tally.record(Outcome::Mismatch);
    }
    result.tally = tally;
    result
}
