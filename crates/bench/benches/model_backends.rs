//! Label-model backend fit-cost comparison at deployment scale —
//! the numbers behind the README's backend table and the
//! `BENCH_model_backends.json` artifact.
//!
//! On a 100k×25 planted binary suite (mostly-unique vote patterns; set
//! `SNORKEL_BACKENDS_ROWS` / `SNORKEL_BACKENDS_LFS` to re-size), each
//! backend fits through the same prebuilt sharded plan:
//!
//! * `majority-vote` — no training at all (the floor).
//! * `moment` — one statistics pass + the closed-form triplet solve.
//! * `generative` — EM warm-up + damped-Newton to convergence (the
//!   exact MLE).
//!
//! The CI floor `SNORKEL_BACKENDS_MIN_SPEEDUP` gates the
//! moment-vs-generative fit ratio (acceptance: ≥10×); marginal quality
//! is recorded as the sup-norm gap between the two backends' posteriors
//! so the artifact shows what the speed costs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::{LabelModel, MajorityVoteModel, MomentModel};
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, ShardedMatrix, Vote};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> LabelMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = LabelMatrixBuilder::new(m, accs.len());
    for i in 0..m {
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        for (j, &acc) in accs.iter().enumerate() {
            if rng.gen::<f64>() < pl {
                b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
            }
        }
    }
    b.build()
}

fn median_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let rows = env_usize("SNORKEL_BACKENDS_ROWS", 100_000);
    let n = env_usize("SNORKEL_BACKENDS_LFS", 25);
    let iters = 3;
    let accs: Vec<f64> = (0..n).map(|j| 0.9 - 0.35 * j as f64 / n as f64).collect();
    let lambda = planted(rows, &accs, 0.3, 7);
    let plan = ShardedMatrix::build(&lambda, 0);
    let cfg = TrainConfig::default();
    let scheme = LabelScheme::Binary;

    let mv_fit = median_secs(iters, || {
        let mut mv = MajorityVoteModel::new(n, scheme);
        mv.fit(&lambda, Some(&plan), &cfg)
    });
    let moment_fit = median_secs(iters, || {
        let mut mm = MomentModel::new(n, scheme);
        mm.fit(&lambda, Some(&plan), &cfg)
    });
    let generative_fit = median_secs(iters, || {
        let mut gm = GenerativeModel::new(n, scheme);
        gm.fit(&lambda, Some(&plan), &cfg)
    });

    // Marginal quality gap between the two trained backends.
    let mut mm = MomentModel::new(n, scheme);
    mm.fit(&lambda, Some(&plan), &cfg);
    let mut gm = GenerativeModel::new(n, scheme);
    gm.fit(&lambda, Some(&plan), &cfg);
    let approx = LabelModel::marginals(&mm, &lambda, Some(&plan));
    let exact = gm.marginals(&lambda, Some(&plan));
    let sup_gap = approx
        .iter()
        .zip(&exact)
        .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
        .fold(0.0f64, f64::max);

    let speedup = generative_fit / moment_fit.max(1e-12);
    println!(
        "{rows}×{n} fit: majority-vote {:.3} ms, moment {:.1} ms, generative {:.1} ms \
         → moment {speedup:.0}× faster than generative (marginal sup gap {sup_gap:.4})",
        1e3 * mv_fit,
        1e3 * moment_fit,
        1e3 * generative_fit,
    );
    snorkel_bench::report::emit(
        "model_backends",
        &[
            ("rows", rows as f64),
            ("lfs", n as f64),
            ("majority_vote_fit_secs", mv_fit),
            ("moment_fit_secs", moment_fit),
            ("generative_fit_secs", generative_fit),
            ("moment_vs_generative_speedup", speedup),
            ("moment_marginal_sup_gap", sup_gap),
        ],
    );
    snorkel_bench::report::enforce_floor(
        "SNORKEL_BACKENDS_MIN_SPEEDUP",
        "moment-vs-generative fit",
        speedup,
    );
}
