//! Quickstart: the three-stage Snorkel flow on a tiny hand-built corpus.
//!
//! 1. Write labeling functions over candidates.
//! 2. Fit the generative label model — no ground truth involved.
//! 3. Train a discriminative model on the probabilistic labels.
//!
//! Run with: `cargo run --release --example quickstart`

use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel::disc::{LogRegConfig, LogisticRegression, TextFeaturizer};
use snorkel::lf::{lf, BoxedLf, KeywordBetweenLf, LfExecutor};
use snorkel::nlp::{CandidateExtractor, DictionaryTagger, DocumentIngester};

fn main() {
    // --- Build a miniature corpus -------------------------------------
    let mut tagger = DictionaryTagger::new();
    tagger.add_phrases(["magnesium", "aspirin", "ibuprofen"], "Chemical");
    tagger.add_phrases(["weakness", "headache", "nausea"], "Disease");
    let ingester = DocumentIngester::with_tagger(tagger);

    let mut corpus = snorkel::context::Corpus::new();
    for (i, text) in [
        "Magnesium causes weakness in rare cases. The cohort was small.",
        "Aspirin treats headache quickly. No adverse events were seen.",
        "Ibuprofen caused nausea in two patients. Dosing was adjusted.",
        "Aspirin and weakness were discussed. No causal link was found.",
        "Magnesium induced weakness again. The effect was dose dependent.",
        "Ibuprofen treats headache in most adults. Relief was rapid.",
    ]
    .iter()
    .enumerate()
    {
        ingester.ingest(&mut corpus, &format!("doc-{i}"), text);
    }
    let candidates = CandidateExtractor::new("Chemical", "Disease").extract(&mut corpus);
    println!("extracted {} candidates", candidates.len());

    // --- Stage 1: labeling functions ----------------------------------
    let lfs: Vec<BoxedLf> = vec![
        Box::new(KeywordBetweenLf::new(
            "lf_causes",
            &["causes", "caused", "induced"],
            1,
            0,
        )),
        Box::new(KeywordBetweenLf::new("lf_treats", &["treats"], -1, -1)),
        lf("lf_discussed", |x| {
            if x.words_between(0, 1).contains(&"and") {
                -1
            } else {
                0
            }
        }),
    ];

    // --- Stage 2: generative label model ------------------------------
    let lambda = LfExecutor::new().apply(&lfs, &corpus, &candidates);
    println!(
        "label matrix: {} points x {} LFs, density {:.2}",
        lambda.num_points(),
        lambda.num_lfs(),
        lambda.label_density()
    );
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    gm.fit(&lambda, None, &TrainConfig::default());
    let soft = gm.prob_positive(&lambda);
    for (i, p) in soft.iter().enumerate() {
        let view = corpus.candidate(candidates[i]);
        println!(
            "  P(causes) = {:.2}  {} / {}",
            p,
            view.span(0).text(),
            view.span(1).text()
        );
    }

    // --- Stage 3: discriminative model --------------------------------
    let featurizer = TextFeaturizer::with_buckets(1 << 12);
    let xs = featurizer.featurize_all(&corpus, &candidates);
    let cfg = LogRegConfig {
        dim: 1 << 12,
        epochs: 20,
        ..LogRegConfig::default()
    };
    let mut disc = LogisticRegression::new(1 << 12);
    disc.fit(&xs, &soft, &cfg);
    println!(
        "discriminative probabilities: {:?}",
        disc.predict_proba_all(&xs)
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}
