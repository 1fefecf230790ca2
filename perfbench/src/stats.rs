//! Measurement helpers shared by every workload: the percentile rule,
//! operation accounting, the open-loop request schedule, and the JSON
//! result line.

use std::time::{Duration, Instant};

/// Tail quantiles a summary may report, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

/// Samples that must lie beyond a reported tail quantile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest quantile no higher than `wanted` that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it; `None` when even the lowest
/// tail quantile does not.
pub fn tail_quantile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= wanted)
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
}

/// Median and rule-conforming tail of one set of timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail quantile actually reported (see [`tail_quantile`]);
    /// the median's rank when no tail quantile qualifies.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// Summarize `samples`, reporting the tail at `wanted` or the highest
/// quantile below it that the sample count supports. `None` when there
/// are no samples.
pub fn summarize(samples: &[f64], wanted: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_q = tail_quantile(n, wanted).unwrap_or(0.5);
    Some(Summary {
        n,
        p50: sorted[rank(n, 0.5)],
        tail_q,
        tail: sorted[rank(n, tail_q)],
    })
}

/// Samples per window of [`windowed`]: enough that the quantile leaves
/// ten samples beyond it, and at least 100.
pub fn window_len(q: f64) -> usize {
    ((MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize).max(100)
}

/// Quantile `q` of `seq` as seen in the quiet part of a run: computed
/// over each window of [`window_len`] consecutive samples, then the
/// lower quartile of those per-window values. On a shared host, steal
/// and preemption only ever add latency, in bursts; a burst spoils the
/// windows it lands in, not the reported value, while a slower program
/// is slower in every window. With fewer than two windows, the plain
/// quantile (by the rule of [`summarize`]); 0 without samples.
pub fn windowed(seq: &[f64], q: f64) -> f64 {
    let windows = window_values(seq, q);
    if windows.len() < 2 {
        return summarize(seq, q).map_or(0.0, |s| if q <= 0.5 { s.p50 } else { s.tail });
    }
    quantile(&windows, 0.25)
}

/// Nearest-rank quantile `q` of a non-empty value set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Each full window's quantile `q`, in arrival order.
pub fn window_values(seq: &[f64], q: f64) -> Vec<f64> {
    seq.chunks_exact(window_len(q))
        .map(|w| {
            let s = summarize(w, q).expect("non-empty window");
            if q <= 0.5 {
                s.p50
            } else {
                s.tail
            }
        })
        .collect()
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer equals the in-process reference.
    Verified,
    /// Answered, without a reference to compare with.
    Ok,
    /// An `ERR` reply or a `STATUS_ERR` frame.
    ErrReply,
    /// Refused for load (`ERR busy`, `ERR backpressure`).
    Refused,
    /// The connection failed.
    Io,
    /// Answered, but the answer differs from the in-process reference.
    Mismatch,
}

impl Outcome {
    /// Whether the operation was answered without failing.
    pub fn succeeded(self) -> bool {
        matches!(self, Outcome::Verified | Outcome::Ok)
    }
}

/// Classify a text reply line.
pub fn classify_text(reply: &str) -> Outcome {
    if reply.starts_with("OK") {
        Outcome::Ok
    } else if reply.starts_with("ERR busy") || reply.starts_with("ERR backpressure") {
        Outcome::Refused
    } else {
        Outcome::ErrReply
    }
}

/// Classify a binary-plane error message (the `STATUS_ERR` payload).
pub fn classify_frame_err(message: &str) -> Outcome {
    if message.starts_with("busy") || message.starts_with("backpressure") {
        Outcome::Refused
    } else {
        Outcome::ErrReply
    }
}

/// Attempted and failed operations, by failure kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Every operation started.
    pub attempted: u64,
    /// Answers compared with the in-process reference and found equal.
    pub verified: u64,
    /// `ERR` replies.
    pub err_replies: u64,
    /// Load refusals.
    pub refused: u64,
    /// Connection failures.
    pub io: u64,
    /// Correctness mismatches.
    pub mismatches: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Verified => self.verified += 1,
            Outcome::Ok => {}
            Outcome::ErrReply => self.err_replies += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Io => self.io += 1,
            Outcome::Mismatch => self.mismatches += 1,
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.err_replies += other.err_replies;
        self.refused += other.refused;
        self.io += other.io;
        self.mismatches += other.mismatches;
    }

    /// Operations that failed, of any kind.
    pub fn failed(&self) -> u64 {
        self.err_replies + self.refused + self.io + self.mismatches
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Block until `due`: sleep while it is far off, then spin the last
/// stretch so the send lands on time without a sleep's overshoot.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Timings of one open-loop stream.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Per request class: latency in µs from the scheduled send to the
    /// reply.
    pub latency_us: Vec<Vec<f64>>,
    /// Every request's latency in µs, in send order.
    pub seq_us: Vec<f64>,
    /// Per request: how late the generator sent it, in µs.
    pub lateness_us: Vec<f64>,
    /// Outcomes of every request.
    pub tally: Tally,
}

impl OpenLoop {
    /// Latencies of request class `class`; empty when the stream never
    /// ran.
    pub fn class_us(&self, class: usize) -> &[f64] {
        self.latency_us.get(class).map_or(&[], Vec::as_slice)
    }
}

/// Drive `count` requests on a fixed schedule, one every `interval`
/// from `start`. `op(k)` performs request `k` and returns its class
/// (an index below `classes`) and outcome. Latency runs from when the
/// request was *due*, not from when it went out, so a generator held up
/// by a slow reply charges the delay to every request it pushed back.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    count: u64,
    classes: usize,
    mut op: impl FnMut(u64) -> (usize, Outcome),
) -> OpenLoop {
    let mut out = OpenLoop {
        latency_us: vec![Vec::new(); classes],
        seq_us: Vec::with_capacity(count as usize),
        lateness_us: Vec::with_capacity(count as usize),
        tally: Tally::default(),
    };
    for k in 0..count {
        let due = start + interval * k as u32;
        wait_until(due);
        let sent = Instant::now();
        let (class, outcome) = op(k);
        let done = Instant::now();
        out.tally.record(outcome);
        let latency = micros(done - due);
        out.latency_us[class].push(latency);
        out.seq_us.push(latency);
        out.lateness_us.push(micros(sent - due));
    }
    out
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads together (exited
/// ones included). Time the hypervisor steals from the vCPU is not
/// counted, so a CPU-time difference measures the work done, not how
/// busy the host was.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A duration in µs.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in ms.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One named metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Render a float as a JSON number (non-finite values become `null`,
/// which the result check rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly ten above it.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        // One sample fewer and p99 would leave nine: fall back to p95.
        assert_eq!(tail_quantile(999, 0.99), Some(0.95));
        assert_eq!(tail_quantile(200, 0.99), Some(0.95));
        assert_eq!(tail_quantile(199, 0.99), Some(0.9));
        // p99.9 is never reported when only p99 is asked for.
        assert_eq!(tail_quantile(1_000_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(20_000, 0.999), Some(0.999));
        assert_eq!(tail_quantile(100, 0.99), Some(0.9));
        // Too few samples for any tail.
        assert_eq!(tail_quantile(99, 0.99), None);
        assert_eq!(tail_quantile(0, 0.99), None);
    }

    #[test]
    fn summary_reports_count_and_chosen_quantile() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples, 0.99).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);

        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        let s = summarize(&few, 0.99).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail), (150, 0.9, 135.0));

        // Below the lowest tail: only the median is meaningful.
        let tiny = [3.0, 1.0, 2.0];
        let s = summarize(&tiny, 0.99).unwrap();
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, 0.5, 2.0));
        assert!(summarize(&[], 0.99).is_none());
    }

    #[test]
    fn windowed_quantiles_are_robust_to_one_slow_burst() {
        let mut seq: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        // One window's worth of stall: 200 slow requests in a row.
        for v in &mut seq[1200..1400] {
            *v = 50_000.0;
        }
        // Window tails: 98 for four windows, 50 000 for the stalled one.
        assert_eq!(window_len(0.99), 1000);
        assert_eq!(windowed(&seq, 0.99), 98.0);
        assert_eq!(summarize(&seq, 0.99).unwrap().tail, 50_000.0);
        // Under two windows: the plain tail.
        assert_eq!(windowed(&seq[..1500], 0.99), 50_000.0);
        assert_eq!(windowed(&[], 0.99), 0.0);
        // Medians over 100-sample windows: two stalled windows of fifty
        // do not reach the lower quartile.
        assert_eq!(window_len(0.5), 100);
        assert_eq!(windowed(&seq, 0.5), 49.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v[..3], 0.25), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_scheduled_send() {
        // Request 0 stalls the generator for 30 ms; requests are due
        // every 1 ms, so requests 1.. go out late and their latency
        // must include that wait even though each one is instant.
        let start = Instant::now();
        let run = open_loop(start, Duration::from_millis(1), 10, 1, |k| {
            if k == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            (0, Outcome::Ok)
        });
        let lat = &run.latency_us[0];
        assert_eq!(lat.len(), 10);
        assert!(lat[0] >= 30_000.0, "stalled request {}", lat[0]);
        // Request 1 was due at 1 ms and answered after 30 ms.
        assert!(lat[1] >= 28_000.0, "request behind the stall {}", lat[1]);
        assert!(run.lateness_us[1] >= 28_000.0);
        // Request 9 was due at 9 ms, still behind the 30 ms stall.
        assert!(lat[9] >= 20_000.0, "late request {}", lat[9]);
        assert_eq!(run.tally.attempted, 10);
        assert_eq!(run.tally.failed(), 0);
    }

    #[test]
    fn open_loop_on_time_requests_are_not_inflated() {
        let start = Instant::now();
        let run = open_loop(start, Duration::from_millis(2), 5, 2, |k| {
            ((k % 2) as usize, Outcome::Ok)
        });
        assert_eq!(run.latency_us[0].len(), 3);
        assert_eq!(run.latency_us[1].len(), 2);
        assert_eq!(run.seq_us.len(), 5);
        // Nothing stalled, so no request waits anywhere near a whole
        // interval's backlog (the bound leaves room for a host's
        // oversleep).
        assert!(run.seq_us.iter().all(|&l| l < 20_000.0));
    }

    #[test]
    fn failed_share_counts_err_replies_refusals_io_and_mismatches() {
        let mut t = Tally::default();
        for reply in [
            "OK gen=0 p=0.5,0.5",
            "ERR column 99 out of range (model covers 33 LFs)",
            "ERR busy: too many connections",
            "ERR backpressure: ingest queue full (16 in flight, capacity 16)",
            "OK pong",
        ] {
            t.record(classify_text(reply));
        }
        assert_eq!(t.err_replies, 1);
        assert_eq!(t.refused, 2);
        t.record(Outcome::Verified);
        assert_eq!(t.verified, 1);
        t.record(classify_frame_err("backpressure: ingest queue full"));
        t.record(classify_frame_err("unknown opcode"));
        t.record(Outcome::Io);
        t.record(Outcome::Mismatch);
        assert_eq!(t.attempted, 10);
        assert_eq!(t.failed(), 7);
        assert!((t.failed_share() - 7.0 / 10.0).abs() < 1e-12);

        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!(
            (total.attempted, total.verified, total.failed()),
            (20, 2, 14)
        );
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn process_cpu_counts_work_not_sleep() {
        let t0 = process_cpu();
        std::thread::sleep(Duration::from_millis(50));
        let slept = process_cpu() - t0;
        assert!(slept < Duration::from_millis(25), "sleeping used {slept:?}");
        let t0 = process_cpu();
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spun = process_cpu() - t0;
        assert!(spun >= Duration::from_millis(10), "spinning used {spun:?}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        let line = result_line(
            true,
            &t,
            &[Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        // The attempted count is printed as counted, never rounded up.
        assert!(result_line(true, &Tally::default(), &[]).contains("\"attempted\": 0,"));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
