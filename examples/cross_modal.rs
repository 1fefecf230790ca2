//! Cross-modal supervision (paper §4.1.2, Radiology task): labeling
//! functions read the *text report*; the classifier is trained on
//! *image features* the LFs never see.
//!
//! Run with: `cargo run --release --example cross_modal`

use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel::datasets::{radiology, TaskConfig};
use snorkel::disc::metrics::roc_auc;
use snorkel::disc::{Mlp, MlpConfig};

fn main() {
    let task = radiology::build(TaskConfig {
        num_candidates: 1500,
        seed: 5,
    });
    println!(
        "Radiology task: {} reports, {} text LFs, {}-dim image features",
        task.candidates.len(),
        task.lfs.len(),
        task.image_dim
    );

    // Text side: LFs over reports → generative model → soft labels.
    let lambda = task.label_matrix(&task.train);
    println!("text label matrix density: {:.2}", lambda.label_density());
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    gm.fit(&lambda, None, &TrainConfig::default());
    let soft = gm.prob_positive(&lambda);

    // Image side: an MLP on the (synthetic) ResNet-style embeddings.
    let cfg = MlpConfig {
        input_dim: task.image_dim,
        hidden_dim: 24,
        epochs: 40,
        ..MlpConfig::default()
    };
    let mut image_model = Mlp::new(&cfg);
    image_model.fit(&task.images_of(&task.train), &soft, &cfg);

    let scores = image_model.predict_proba_all(&task.images_of(&task.test));
    let auc = roc_auc(&scores, &task.gold_of(&task.test));
    println!(
        "image-classifier test AUC from text-only supervision = {:.1}",
        100.0 * auc
    );

    // Compare against full hand supervision on the same architecture.
    let mut hand = Mlp::new(&cfg);
    hand.fit_hard(
        &task.images_of(&task.train),
        &task.gold_of(&task.train),
        &cfg,
    );
    let hand_auc = roc_auc(
        &hand.predict_proba_all(&task.images_of(&task.test)),
        &task.gold_of(&task.test),
    );
    println!("hand-supervised ceiling AUC = {:.1}", 100.0 * hand_auc);
}
