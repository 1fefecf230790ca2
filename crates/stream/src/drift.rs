//! Windowed per-LF drift detection over the ingested stream.
//!
//! The detector keeps a **current window** that fills as rows stream
//! in; every `window_rows` rows it seals the window, scores it against
//! the frozen **reference window**, and pushes it onto a bounded ring
//! of recent windows. The first sealed window becomes the reference;
//! after an automatic refit the caller re-anchors with
//! [`DriftDetector::rebase`] so the post-refit regime is the new
//! baseline.
//!
//! The score is a normalized divergence in `[0, 1]`: per LF, the mean
//! of the absolute coverage-rate delta and the absolute
//! plurality-agreement-rate delta between the window and the reference
//! (equivalently `1 − conflict`, so conflict shifts move it too); the
//! overall score is the max across LFs — one collapsed or flipped LF
//! is drift even when the suite average looks calm. Two windows drawn
//! from identical empirical distributions score exactly 0; a flipped
//! LF moves its agreement rate and scores positive (both are
//! property-tested).

use snorkel_core::model::LabelScheme;
use snorkel_core::vote::plurality_class;
use snorkel_matrix::Vote;
use std::collections::VecDeque;

/// Configuration of the drift detector, persisted in snapshots so a
/// resumed process keeps the same sensitivity.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftConfig {
    /// Rows per window. Smaller windows react faster but are noisier.
    pub window_rows: usize,
    /// Sealed windows retained in the diagnostic ring.
    pub ring_windows: usize,
    /// Divergence score above which the stream counts as drifted.
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window_rows: 512,
            ring_windows: 8,
            threshold: 0.25,
        }
    }
}

impl DriftConfig {
    /// Structural validation (snapshot decoders hand this untrusted
    /// data). The error string names the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_rows == 0 {
            return Err("drift window_rows must be positive".into());
        }
        if self.ring_windows == 0 {
            return Err("drift ring_windows must be positive".into());
        }
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(format!("bad drift threshold {}", self.threshold));
        }
        Ok(())
    }
}

/// Per-LF vote statistics over one fixed-size window of ingested rows:
/// coverage, agreement with the row's plurality class, and (implied)
/// conflict. Counts are exact integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowStats {
    /// Rows folded into this window.
    pub rows: u64,
    /// Per-LF non-abstain vote counts.
    pub votes: Vec<u64>,
    /// Per-LF votes agreeing with the row's plurality class.
    pub agree_mv: Vec<u64>,
    /// Per-LF votes on rows that have a unique plurality class.
    pub total_mv: Vec<u64>,
}

impl WindowStats {
    /// An empty window over `n` LFs.
    pub fn new(n: usize) -> Self {
        WindowStats {
            rows: 0,
            votes: vec![0; n],
            agree_mv: vec![0; n],
            total_mv: vec![0; n],
        }
    }

    /// Number of LF columns the window covers.
    pub fn num_lfs(&self) -> usize {
        self.votes.len()
    }

    /// Per-LF coverage rate within the window.
    pub fn coverage(&self, j: usize) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.votes[j] as f64 / self.rows as f64
        }
    }

    /// Per-LF agreement rate with the plurality vote (`None` when the
    /// LF never voted on a plurality-covered row in this window).
    pub fn agreement(&self, j: usize) -> Option<f64> {
        if self.total_mv[j] == 0 {
            None
        } else {
            Some(self.agree_mv[j] as f64 / self.total_mv[j] as f64)
        }
    }

    /// Per-LF conflict rate (`1 −` agreement; `None` as
    /// [`agreement`](Self::agreement)).
    pub fn conflict(&self, j: usize) -> Option<f64> {
        self.agreement(j).map(|a| 1.0 - a)
    }

    /// Structural validation for thawed windows.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (name, vec) in [
            ("votes", &self.votes),
            ("agree_mv", &self.agree_mv),
            ("total_mv", &self.total_mv),
        ] {
            if vec.len() != n {
                return Err(format!("window {name} has {} entries, want {n}", vec.len()));
            }
        }
        for j in 0..n {
            if self.votes[j] > self.rows || self.total_mv[j] > self.votes[j] {
                return Err(format!("window counts inconsistent at LF {j}"));
            }
            if self.agree_mv[j] > self.total_mv[j] {
                return Err(format!("window agreements exceed votes at LF {j}"));
            }
        }
        Ok(())
    }

    fn observe(&mut self, scheme: LabelScheme, cols: &[u32], votes: &[Vote], tally: &mut [usize]) {
        self.rows += 1;
        for &c in cols {
            self.votes[c as usize] += 1;
        }
        let Some(mv) = plurality_class(scheme, votes, tally) else {
            return;
        };
        for (&c, &v) in cols.iter().zip(votes) {
            if let Some(class) = scheme.class_of_vote(v) {
                let j = c as usize;
                self.total_mv[j] += 1;
                if class == mv {
                    self.agree_mv[j] += 1;
                }
            }
        }
    }
}

/// Normalized divergence of `w` from `r`, per LF: the mean of the
/// absolute coverage delta and the absolute agreement delta, each in
/// `[0, 1]`. The agreement term contributes only when both windows
/// observed the LF on plurality-covered rows (a coverage collapse is
/// already the coverage term's job).
fn divergence_per_lf(w: &WindowStats, r: &WindowStats, out: &mut [f64]) {
    for (j, slot) in out.iter_mut().enumerate().take(w.num_lfs()) {
        let cov = (w.coverage(j) - r.coverage(j)).abs();
        let agr = match (w.agreement(j), r.agreement(j)) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => 0.0,
        };
        *slot = (cov + agr) / 2.0;
    }
}

/// The windowed drift detector. Feed rows with
/// [`observe_row`](Self::observe_row); read
/// [`score`](Self::score) / [`per_lf_scores`](Self::per_lf_scores);
/// re-anchor with [`rebase`](Self::rebase) after acting on drift.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    scheme: LabelScheme,
    current: WindowStats,
    reference: Option<WindowStats>,
    ring: VecDeque<WindowStats>,
    /// Per-LF scores of the most recently sealed window vs the
    /// reference; the overall score is their max.
    scores: Vec<f64>,
    score: f64,
    tally: Vec<usize>,
}

impl DriftDetector {
    /// A detector over `n` LFs under `scheme`.
    pub fn new(n: usize, scheme: LabelScheme, config: DriftConfig) -> Self {
        config.validate().expect("invalid drift config");
        DriftDetector {
            config,
            scheme,
            current: WindowStats::new(n),
            reference: None,
            ring: VecDeque::new(),
            scores: vec![0.0; n],
            score: 0.0,
            tally: vec![0; scheme.num_classes()],
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Number of LF columns the detector covers.
    pub fn num_lfs(&self) -> usize {
        self.current.num_lfs()
    }

    /// The frozen reference window, once the first window has sealed.
    pub fn reference(&self) -> Option<&WindowStats> {
        self.reference.as_ref()
    }

    /// The in-progress (unsealed) window.
    pub fn current(&self) -> &WindowStats {
        &self.current
    }

    /// The sealed windows still in the diagnostic ring, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &WindowStats> {
        self.ring.iter()
    }

    /// Fold one ingested row into the current window, sealing and
    /// scoring it when it fills.
    pub fn observe_row(&mut self, cols: &[u32], votes: &[Vote]) {
        let mut tally = std::mem::take(&mut self.tally);
        self.current.observe(self.scheme, cols, votes, &mut tally);
        self.tally = tally;
        if self.current.rows as usize >= self.config.window_rows {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let n = self.num_lfs();
        let sealed = std::mem::replace(&mut self.current, WindowStats::new(n));
        match &self.reference {
            None => {
                self.reference = Some(sealed.clone());
                self.scores.iter_mut().for_each(|s| *s = 0.0);
                self.score = 0.0;
            }
            Some(reference) => {
                divergence_per_lf(&sealed, reference, &mut self.scores);
                self.score = self.scores.iter().cloned().fold(0.0, f64::max);
            }
        }
        self.ring.push_back(sealed);
        while self.ring.len() > self.config.ring_windows {
            self.ring.pop_front();
        }
    }

    /// Overall drift score: the max per-LF divergence of the most
    /// recently sealed window from the reference. 0 until two windows
    /// exist.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Per-LF divergence scores of the most recently sealed window.
    pub fn per_lf_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Whether the latest sealed window crossed the threshold.
    pub fn drifted(&self) -> bool {
        self.score > self.config.threshold
    }

    /// Re-anchor after acting on drift: the most recently sealed
    /// window becomes the new reference and the score resets — the
    /// post-refit regime is the new baseline.
    pub fn rebase(&mut self) {
        if let Some(latest) = self.ring.back() {
            self.reference = Some(latest.clone());
        }
        self.scores.iter_mut().for_each(|s| *s = 0.0);
        self.score = 0.0;
    }

    /// Restore a detector from thawed state (reference window and
    /// partially filled current window; the ring restarts empty).
    pub(crate) fn restore(
        n: usize,
        scheme: LabelScheme,
        config: DriftConfig,
        reference: Option<WindowStats>,
        current: WindowStats,
        score: f64,
        scores: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(current.num_lfs(), n);
        DriftDetector {
            config,
            scheme,
            current,
            reference,
            ring: VecDeque::new(),
            scores,
            score,
            tally: vec![0; scheme.num_classes()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut DriftDetector, rows: &[(&[u32], &[Vote])]) {
        for (cols, votes) in rows {
            d.observe_row(cols, votes);
        }
    }

    #[test]
    fn identical_windows_score_zero() {
        let mut d = DriftDetector::new(
            3,
            LabelScheme::Binary,
            DriftConfig {
                window_rows: 4,
                ..DriftConfig::default()
            },
        );
        let pattern: Vec<(&[u32], &[Vote])> = vec![
            (&[0, 1], &[1, 1]),
            (&[0, 2], &[1, -1]),
            (&[1], &[-1]),
            (&[0, 1, 2], &[1, 1, 1]),
        ];
        feed(&mut d, &pattern); // seals the reference
        assert!(d.reference().is_some());
        assert_eq!(d.score(), 0.0);
        feed(&mut d, &pattern); // identical distribution
        assert_eq!(d.score(), 0.0, "identical windows must score exactly 0");
        assert!(!d.drifted());
    }

    #[test]
    fn flipped_lf_scores_positive_and_rebase_resets() {
        let cfg = DriftConfig {
            window_rows: 4,
            threshold: 0.1,
            ..DriftConfig::default()
        };
        let mut d = DriftDetector::new(3, LabelScheme::Binary, cfg);
        let agree: Vec<(&[u32], &[Vote])> = vec![
            (&[0, 1, 2], &[1, 1, 1]),
            (&[0, 1, 2], &[-1, -1, -1]),
            (&[0, 1, 2], &[1, 1, 1]),
            (&[0, 1, 2], &[-1, -1, -1]),
        ];
        // LF 2 flips against the other two.
        let flipped: Vec<(&[u32], &[Vote])> = vec![
            (&[0, 1, 2], &[1, 1, -1]),
            (&[0, 1, 2], &[-1, -1, 1]),
            (&[0, 1, 2], &[1, 1, -1]),
            (&[0, 1, 2], &[-1, -1, 1]),
        ];
        feed(&mut d, &agree);
        feed(&mut d, &flipped);
        assert!(d.score() > 0.0, "flipped LF must score positive");
        assert!(d.drifted());
        assert!(d.per_lf_scores()[2] > d.per_lf_scores()[0]);
        d.rebase();
        assert_eq!(d.score(), 0.0);
        assert!(!d.drifted());
        // The flipped regime is now the baseline: more of it is calm.
        feed(&mut d, &flipped);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn ring_is_bounded() {
        let mut d = DriftDetector::new(
            1,
            LabelScheme::Binary,
            DriftConfig {
                window_rows: 1,
                ring_windows: 3,
                ..DriftConfig::default()
            },
        );
        for _ in 0..10 {
            d.observe_row(&[0], &[1]);
        }
        assert_eq!(d.ring().count(), 3);
    }
}
