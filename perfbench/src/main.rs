//! The repository benchmark: four workloads over the real public entry
//! points of `core`, `lf`, `matrix`, `disc`, `incr`, `stream` and
//! `serve`, reporting end-to-end metrics (`--trace 0`) or per-layer
//! metrics timed around each layer's public calls (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; earlier lines
//! carry provenance and sample counts. See `perfbench/README.md`.

mod layers;
mod pipe;
mod serve;
mod stats;

use std::time::{Duration, Instant};

use snorkel_core::pipeline::{Pipeline, PipelineConfig};
use snorkel_datasets::{cdr, RelationTask, TaskConfig};

use pipe::{Eval, PipeSpec, Product, Traced, STAGES};
use serve::{Phases, Pools, ServeResult, Served, READ_CLASSES, WRITE_CLASSES};
use stats::{json_num, json_str, median, millis, summarize, Metric, Outcome, Tally};

/// One named workload.
struct Workload {
    name: &'static str,
    /// The pipeline every run executes cold.
    pipe: PipeSpec,
    /// The served phases of a serving workload. A pipeline workload
    /// (`None`) starts no server in its untraced runs; its traced runs
    /// serve [`CONTROL_PHASES`] after the pipelines, for the serving
    /// per-layer metrics.
    phases: Option<Phases>,
}

/// The pipeline the served session runs, at the served corpus size.
const SERVED_PIPE: PipeSpec = PipeSpec {
    candidates: serve::SERVE_ROWS,
    structure_search: false,
    moment: true,
};

/// Served phases of a pipeline workload's traced run.
const CONTROL_PHASES: Phases = Phases {
    closed: 0.1,
    open: 0.2,
    mixed: 0.5,
};

const WORKLOADS: [Workload; 4] = [
    // Structure selection plus the correlated Gibbs fit dominate, on the
    // row-wise side of the fit-path choice (below the 8192-row plan
    // threshold).
    Workload {
        name: "pipeline_paper",
        pipe: PipeSpec {
            candidates: 5_000,
            structure_search: true,
            moment: false,
        },
        phases: None,
    },
    // The dev-loop configuration at scale: LF execution, featurization
    // and distillation dominate; the fit takes the pattern-plan path.
    Workload {
        name: "pipeline_scale",
        pipe: PipeSpec {
            candidates: 100_000,
            structure_search: false,
            moment: false,
        },
        phases: None,
    },
    // Read-only serving: wire, parse, memo, compute, encode, and worker
    // wake-up, with no write traffic beside the measured reads.
    Workload {
        name: "serve_read",
        pipe: SERVED_PIPE,
        phases: Some(Phases {
            closed: 0.15,
            open: 0.4,
            mixed: 0.45,
        }),
    },
    // The same reads beside durable writes: ingests and LF edits under
    // the write lock, WAL fsyncs, memo resets on every generation bump.
    Workload {
        name: "serve_write",
        pipe: SERVED_PIPE,
        phases: Some(Phases {
            closed: 0.2,
            open: 0.0,
            mixed: 0.8,
        }),
    },
];

/// Least set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups repeat until they have taken this long together, so a cheap
/// set-up's median is drawn from several of the host's fast and slow
/// phases (each lasts a second or two), not from one.
const SETUP_MIN: Duration = Duration::from_secs(4);
/// Timed cold pipeline runs per untraced run, after a warm-up.
const PIPE_REPS: usize = 3;
/// Untraced/traced pipeline pairs per traced run.
const TRACE_PAIRS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject_mismatch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--inject-mismatch" => args.inject_mismatch = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of a git checkout in the working directory, if any.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let clock =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"clock_source\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&clock),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
    )
}

/// Everything one run set up and kept.
struct Setup {
    setup_s: f64,
    task: RelationTask,
    /// The running server of a serving workload.
    served: Option<Served>,
}

/// Prime the served session on its own corpus and start the server.
/// Returns it and the time the corpus build, priming and start took.
fn serve_session(args: &Args, tag: &str) -> std::io::Result<(Served, Duration)> {
    let (primed, build, prime) = serve::prime(args.seed);
    let mut pools = Pools::new(&primed, args.seed);
    if args.inject_mismatch {
        pools.inject_mismatch();
    }
    let (served, start) = Served::start(primed, pools, tag)?;
    Ok((served, build + prime + start))
}

/// Build the pipeline corpus and, on a serving workload, the served
/// session and its server; at least [`SETUP_REPS`] times and for
/// [`SETUP_MIN`] (once when traced, where `setup_s` is not reported),
/// keeping the last.
fn set_up(w: &Workload, args: &Args) -> std::io::Result<Setup> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    let mut kept: Option<(RelationTask, Option<Served>)> = None;
    while kept.is_none() || (!args.trace && (times.len() < SETUP_REPS || total < SETUP_MIN)) {
        let rep = times.len();
        if let Some((_, Some(served))) = kept.take() {
            served.stop();
        }
        let t = Instant::now();
        let task = cdr::build(TaskConfig {
            num_candidates: w.pipe.candidates,
            seed: args.seed,
        });
        let mut took = t.elapsed();
        let served = match w.phases {
            Some(_) => {
                let (served, start) = serve_session(args, &format!("setup{rep}"))?;
                took += start;
                Some(served)
            }
            None => None,
        };
        total += took;
        times.push(took.as_secs_f64());
        kept = Some((task, served));
    }
    let (task, served) = kept.expect("at least one set-up");
    Ok(Setup {
        setup_s: median(&times),
        task,
        served,
    })
}

/// What the pipeline phase measured.
struct PipeResult {
    cold_s: Vec<f64>,
    cold_cpu_s: Vec<f64>,
    product: Product,
    traced: Vec<Traced>,
    tally: Tally,
}

/// The pipeline phase: its configuration, and every run so far.
struct PipePhase<'a> {
    task: &'a RelationTask,
    cfg: PipelineConfig,
    pipeline: Pipeline,
    eval: Eval,
    first: Option<Product>,
    cold_s: Vec<f64>,
    cold_cpu_s: Vec<f64>,
    traced: Vec<Traced>,
    tally: Tally,
}

impl<'a> PipePhase<'a> {
    fn new(w: &Workload, task: &'a RelationTask) -> PipePhase<'a> {
        let cfg = w.pipe.config();
        PipePhase {
            task,
            pipeline: Pipeline::new(cfg.clone()),
            eval: Eval::new(task, &cfg),
            cfg,
            first: None,
            cold_s: Vec::new(),
            cold_cpu_s: Vec::new(),
            traced: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Count one product: every run must reproduce the first exactly
    /// (bit-identical marginals, identical F1s).
    fn check(&mut self, p: Product) {
        let reference = *self.first.get_or_insert(p);
        self.tally.record(if p == reference {
            Outcome::Verified
        } else {
            Outcome::Mismatch
        });
    }

    fn cold(&mut self) {
        let (took, product) = pipe::run_cold(self.task, &self.pipeline, &self.eval);
        self.cold_s.push(took.wall.as_secs_f64());
        self.cold_cpu_s.push(took.cpu.as_secs_f64());
        self.check(product);
    }

    /// One run whose times are discarded: the first execution in a
    /// process also pays for growing the heap.
    fn warm_up(&mut self) {
        self.cold();
        self.cold_s.clear();
        self.cold_cpu_s.clear();
    }

    /// A warm-up, then [`PIPE_REPS`] cold runs.
    fn cold_runs(&mut self) {
        self.warm_up();
        for _ in 0..PIPE_REPS {
            self.cold();
        }
    }

    /// A warm-up, then untraced and traced runs in adjacent pairs,
    /// alternating which goes first, so drift in machine speed cancels in
    /// the pair ratios.
    fn traced_pairs(&mut self) {
        self.warm_up();
        for pair in 0..TRACE_PAIRS {
            if pair % 2 == 0 {
                self.cold();
            }
            let t = pipe::run_traced(self.task, &self.cfg, &self.eval);
            self.check(t.product);
            self.traced.push(t);
            if pair % 2 == 1 {
                self.cold();
            }
        }
    }

    fn finish(self) -> PipeResult {
        PipeResult {
            cold_s: self.cold_s,
            cold_cpu_s: self.cold_cpu_s,
            product: self.first.expect("at least one pipeline run"),
            traced: self.traced,
            tally: self.tally,
        }
    }
}

/// Latency summaries in the run's details line.
fn summary_json(name: &str, samples: &[f64]) -> String {
    match summarize(samples, 0.99) {
        Some(s) => format!(
            "{}: {{\"n\": {}, \"p50\": {}, \"tail_q\": {}, \"tail\": {}}}",
            json_str(name),
            s.n,
            json_num(s.p50),
            json_num(s.tail_q),
            json_num(s.tail)
        ),
        None => format!("{}: {{\"n\": 0}}", json_str(name)),
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(", "))
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median and rule-conforming tail of a sample set, 0 when empty.
fn p50_tail(samples: &[f64]) -> (f64, f64) {
    summarize(samples, 0.99).map_or((0.0, 0.0), |s| (s.p50, s.tail))
}

fn end_to_end(setup_s: f64, pipe: &PipeResult, tally: &Tally) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("label_f1", pipe.product.label_f1, "f1"),
        metric("disc_f1", pipe.product.disc_f1, "f1"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("ok_share", 1.0 - tally.failed_share(), "share"),
    ]
}

fn per_layer(
    pipe: &PipeResult,
    srv: &ServeResult,
    probes: &[layers::Value],
    tally: &Tally,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let stage_ms: Vec<f64> = (0..STAGES.len())
        .map(|i| {
            let v: Vec<f64> = pipe.traced.iter().map(|t| millis(t.stages[i])).collect();
            median(&v)
        })
        .collect();
    let stage = |name: &str| stage_ms[STAGES.iter().position(|s| *s == name).expect("stage")];
    let last = pipe.traced.last().expect("a traced run");
    out.push(metric("lf.apply_ms", stage("lf_apply"), "ms"));
    out.push(metric("lf.invocations", last.invocations as f64, "count"));
    out.push(metric("matrix.plan_ms", stage("plan"), "ms"));
    out.push(metric(
        "matrix.unique_patterns",
        last.unique_patterns as f64,
        "count",
    ));
    out.push(metric(
        "matrix.rows_per_pattern",
        if last.unique_patterns == 0 {
            0.0
        } else {
            last.rows as f64 / last.unique_patterns as f64
        },
        "rows",
    ));
    out.push(metric("core.select_ms", stage("select"), "ms"));
    out.push(metric(
        "core.correlations",
        last.correlations as f64,
        "count",
    ));
    out.push(metric("core.build_ms", stage("build"), "ms"));
    out.push(metric("core.fit_ms", stage("fit"), "ms"));
    out.push(metric("core.fit_epochs", last.fit_epochs as f64, "count"));
    out.push(metric("core.marginals_ms", stage("marginals"), "ms"));
    out.push(metric("disc.featurize_ms", stage("featurize"), "ms"));
    out.push(metric("disc.train_ms", stage("train"), "ms"));
    out.push(metric(
        "disc.rows_trained",
        last.rows_trained as f64,
        "count",
    ));

    let stage_sum: f64 = stage_ms.iter().sum();
    for (name, ms) in STAGES.iter().zip(&stage_ms) {
        out.push(metric(
            format!("stage.{name}_share"),
            ms / stage_sum,
            "share",
        ));
    }
    // How far the traced stage sum sits from the untraced time: the
    // median over adjacent pairs. It is reported, not enforced: two
    // executions of the same pipeline differ by up to ±10% run to run on
    // a shared 2-vCPU host.
    let ratios: Vec<f64> = pipe
        .traced
        .iter()
        .zip(&pipe.cold_s)
        .map(|(t, cold)| t.total().as_secs_f64() / cold)
        .collect();
    let sum_share = median(&ratios);
    out.push(metric("trace.stage_sum_share", sum_share, "share"));
    out.push(metric(
        "trace.overhead_ms",
        (sum_share - 1.0) * median(&pipe.cold_s) * 1e3,
        "ms",
    ));

    for &(name, value, unit) in probes {
        out.push(metric(name, value, unit));
    }
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    for (class, name) in READ_CLASSES.iter().enumerate() {
        let (p50, tail) = p50_tail(srv.reads.class_us(class));
        out.push(metric(format!("serve.rt_{name}_p50_us"), p50, "us"));
        out.push(metric(format!("serve.rt_{name}_p99_us"), tail, "us"));
    }
    for (class, name) in WRITE_CLASSES.iter().enumerate() {
        let (p50, tail) = p50_tail(srv.writes.class_us(class));
        out.push(metric(format!("serve.rt_{name}_p50_us"), p50, "us"));
        out.push(metric(format!("serve.rt_{name}_p99_us"), tail, "us"));
    }
    let (marginal_p50, _) = p50_tail(srv.reads.class_us(0));
    let in_process_ns =
        probe("serve.parse_ns") + probe("serve.compute_hit_ns") + probe("serve.encode_ns");
    out.push(metric(
        "serve.transport_us",
        marginal_p50 - in_process_ns / 1e3,
        "us",
    ));
    out.push(metric("serve.memo_hit_ratio", srv.memo_hit_ratio, "share"));
    out.push(metric("serve.refused", tally.refused as f64, "count"));
    // Speed figures a user would see. On a shared 2-vCPU host, steal,
    // contention and speed drift move them between runs and between sets
    // of runs by more than any regression bound of 25% or less (an open
    // loop turns each stall into a backlog), so they are reported here
    // rather than end to end. That holds for CPU time too: identical
    // pipeline runs in one process vary by ±15–20% in user time.
    out.push(metric("pipeline_s", median(&pipe.cold_cpu_s), "s"));
    out.push(metric("pipeline_wall_s", median(&pipe.cold_s), "s"));
    out.push(metric(
        "read_capacity_items_per_s",
        stats::quantile(&srv.bursts, 0.75),
        "1/s",
    ));
    let reads = &srv.reads.seq_us;
    let ingests = srv.writes.class_us(0);
    out.push(metric("read_p50_us", stats::windowed(reads, 0.5), "us"));
    out.push(metric("read_p99_us", stats::windowed(reads, 0.99), "us"));
    out.push(metric(
        "ingest_p50_ms",
        stats::windowed(ingests, 0.5) / 1e3,
        "ms",
    ));
    out.push(metric(
        "ingest_p99_ms",
        stats::windowed(ingests, 0.99) / 1e3,
        "ms",
    ));
    out.push(metric(
        "refresh_p50_ms",
        stats::windowed(srv.writes.class_us(1), 0.5) / 1e3,
        "ms",
    ));
    let (_, late) = p50_tail(&srv.reads.lateness_us);
    out.push(metric("serve.gen_lateness_p99_us", late, "us"));
    out.push(metric("failed_share", tally.failed_share(), "share"));
    out
}

fn run(w: &Workload, args: &Args) -> std::io::Result<(bool, Tally, Vec<Metric>, String)> {
    let Setup {
        setup_s,
        task,
        served,
    } = set_up(w, args)?;
    let mut served_run = None;
    // A serving workload serves first and stops its server before any
    // pipeline is timed.
    if let (Some(served), Some(phases)) = (served, w.phases) {
        let srv = serve::run(&served, phases, args.seconds);
        served_run = Some((srv, served.stop()));
    }
    let mut pipe = PipePhase::new(w, &task);
    if args.trace {
        pipe.traced_pairs();
    } else {
        pipe.cold_runs();
    }
    let pipe = pipe.finish();
    drop(task);
    let mut probes = Vec::new();
    if args.trace {
        if served_run.is_none() {
            let (served, _) = serve_session(args, "control")?;
            let srv = serve::run(&served, CONTROL_PHASES, args.seconds);
            served_run = Some((srv, served.stop()));
        }
        let (_, pools) = served_run.as_ref().expect("served above");
        let (twin, _, _) = serve::prime(args.seed);
        probes = layers::probe(twin, pools, &serve::scratch_dir("probe"))?;
    }
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let mut tally = pipe.tally;
    let empty = ServeResult::default();
    let srv = match &served_run {
        Some((srv, pools)) => {
            tally.merge(&srv.tally);
            if pools.unusable_rows > 0 {
                tally.record(Outcome::Mismatch);
            }
            srv
        }
        None => &empty,
    };
    let details = format!(
        "{{\"details\": {{\"pipeline_runs\": {}, \"traced_runs\": {}, \"verified\": {}, \
         \"mismatches\": {}, \"err_replies\": {}, \"refused\": {}, \"io\": {}, \"pipeline_runs_s\": {}, \"pipeline_runs_cpu_s\": {}, \"traced_runs_s\": {}, \"capacity_bursts\": {}, \"read_window_tails\": {}, {}, {}, {}, {}}}}}",
        pipe.cold_s.len(),
        pipe.traced.len(),
        tally.verified,
        tally.mismatches,
        tally.err_replies,
        tally.refused,
        tally.io,
        json_list(&pipe.cold_s),
        json_list(&pipe.cold_cpu_s),
        json_list(
            &pipe
                .traced
                .iter()
                .map(|t| t.total().as_secs_f64())
                .collect::<Vec<_>>()
        ),
        json_list(&srv.bursts),
        json_list(&stats::window_values(&srv.reads.seq_us, 0.99)),
        summary_json("read_us", &srv.reads.seq_us),
        summary_json("ingest_us", srv.writes.class_us(0)),
        summary_json("refresh_us", srv.writes.class_us(1)),
        summary_json("generator_lateness_us", &srv.reads.lateness_us),
    );
    let metrics = if args.trace {
        per_layer(&pipe, srv, &probes, &tally)
    } else {
        end_to_end(setup_s, &pipe, &tally)
    };
    let correct = tally.failed() == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok((correct, tally, metrics, details))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    println!("{}", provenance(&args));
    match run(w, &args) {
        Ok((correct, tally, metrics, details)) => {
            println!("{details}");
            println!("{}", stats::result_line(correct, &tally, &metrics));
            if !correct {
                eprintln!("perfbench: correctness check failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
