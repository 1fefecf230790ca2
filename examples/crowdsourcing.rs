//! Crowdsourcing as weak supervision (paper §4.1.2, Crowd task):
//! each crowdworker becomes a labeling function, the generative model
//! recovers worker reliability without gold labels, and a text model
//! learns to predict sentiment with no workers in the loop.
//!
//! Run with: `cargo run --release --example crowdsourcing`

use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel::datasets::{crowd, TaskConfig};
use snorkel::disc::metrics::accuracy;
use snorkel::disc::{SoftmaxConfig, SoftmaxRegression, TextFeaturizer};
use snorkel::linalg::stats::pearson;

fn main() {
    let task = crowd::build(TaskConfig {
        num_candidates: 632, // the paper's scale: 505 train + 63 dev + 64 test
        seed: 3,
    });
    println!(
        "Crowd task: {} tweets, {} workers-as-LFs, 5 classes",
        task.candidates.len(),
        task.lfs.len()
    );

    // Fit the generative model on worker votes (5-class Dawid-Skene).
    let lambda = task.label_matrix(&task.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::MultiClass(5));
    gm.fit(&lambda, None, &TrainConfig::default());

    // The learned per-worker accuracies track the simulation's truth.
    let implied = gm.implied_accuracies();
    let r = pearson(&implied, &task.worker_accuracies);
    println!("correlation(learned worker accuracy, true worker accuracy) = {r:.2}");

    // Train a tweet-text model on the probabilistic labels.
    let targets = gm.marginals(&lambda, None);
    let buckets = 1 << 14;
    let featurizer = TextFeaturizer::with_buckets(buckets);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let cfg = SoftmaxConfig {
        dim: buckets,
        classes: 5,
        epochs: 15,
        ..SoftmaxConfig::default()
    };
    let mut model = SoftmaxRegression::new(buckets, 5);
    model.fit(&x_train, &targets, &cfg);

    // The test tweets were never graded by any worker.
    let acc = accuracy(&model.predict_votes(&x_test), &task.gold_of(&task.test));
    println!("worker-free test accuracy = {:.1}%", 100.0 * acc);
}
