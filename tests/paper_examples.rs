//! The paper's worked examples as executable tests.

use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{ClassBalance, GenerativeModel, LabelScheme, TrainConfig};
use snorkel::datasets::synthetic::heterogeneous_matrix;
use snorkel::lf::{lf, KeywordBetweenLf, LfExecutor};
use snorkel::matrix::LabelMatrixBuilder;
use snorkel::nlp::{CandidateExtractor, DictionaryTagger, DocumentIngester};

/// Example 1.1 / Figure 1: a 90%-accurate low-coverage source and a
/// 60%-accurate high-coverage source. Majority vote ties on conflicts;
/// the generative model resolves them toward the accurate source and
/// the training labels carry that lineage.
#[test]
fn example_1_1_lineage() {
    // Three sources (two is the classical non-identifiable case):
    // accuracies 0.9 / 0.6 / 0.75.
    let (lambda, _) = heterogeneous_matrix(4000, &[0.9, 0.6, 0.75], 0.7, 1);
    let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
    gm.fit(&lambda, None, &TrainConfig::default());

    // Conflict: source 0 says +1, source 1 says −1.
    let post = gm.posterior(&[0, 1], &[1, -1]);
    assert!(
        post[0] > 0.6,
        "conflicts must resolve toward the accurate source: {post:?}"
    );
    // And the lineage survives in the soft label: the probabilistic
    // label is strictly between 0.5 and 1 (confidence, not certainty).
    assert!(post[0] < 0.99);
}

/// Example 2.1–2.3: the running CDR candidates and the LF_causes
/// labeling function, written exactly as the paper sketches it.
#[test]
fn example_2_3_lf_causes() {
    let mut tagger = DictionaryTagger::new();
    tagger.add_phrase("magnesium", "Chemical");
    tagger.add_phrases(["quadriplegic", "preeclampsia"], "Disease");
    let ingester = DocumentIngester::with_tagger(tagger);
    let mut corpus = snorkel::context::Corpus::new();
    ingester.ingest(
        &mut corpus,
        "abstract",
        "We study a patient who became quadriplegic after parenteral magnesium \
         administration for preeclampsia.",
    );
    let candidates = CandidateExtractor::new("Chemical", "Disease").extract(&mut corpus);
    assert_eq!(candidates.len(), 2, "two candidates as in Example 2.1");

    // The paper's hand-written LF: "causes" between chemical and disease.
    let lf_causes = lf("LF_causes", |x| {
        let (_, ce) = x.span(0).word_range();
        let (ds, _) = x.span(1).word_range();
        let words = x.sentence().words();
        if ce <= ds && words[ce..ds].contains(&"causes") {
            1
        } else if !x.span_precedes(0, 1) && x.words_between(0, 1).contains(&"causes") {
            -1
        } else {
            0
        }
    });
    // Neither candidate's sentence contains "causes": both abstain.
    for &c in &candidates {
        assert_eq!(lf_causes.label(&corpus.candidate(c)), 0);
    }

    // On a sentence that does assert causation, it votes.
    let mut tagger = DictionaryTagger::new();
    tagger.add_phrase("magnesium", "Chemical");
    tagger.add_phrase("weakness", "Disease");
    let ingester = DocumentIngester::with_tagger(tagger);
    let mut corpus2 = snorkel::context::Corpus::new();
    ingester.ingest(&mut corpus2, "d", "Magnesium causes weakness.");
    let cands2 = CandidateExtractor::new("Chemical", "Disease").extract(&mut corpus2);
    assert_eq!(lf_causes.label(&corpus2.candidate(cands2[0])), 1);
}

/// Example 3.1: 10 LFs where 5 are perfectly correlated with accuracy
/// 50% and 5 are conditionally independent with high accuracy. The
/// independent model over-trusts the block; modeling the correlations
/// fixes the estimates.
#[test]
fn example_3_1_catastrophic_correlations() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(31);
    let m = 3000;
    let mut b = LabelMatrixBuilder::new(m, 10);
    for i in 0..m {
        let y: i8 = if rng.gen::<bool>() { 1 } else { -1 };
        let block: i8 = if rng.gen::<f64>() < 0.5 { y } else { -y };
        for j in 0..5 {
            b.set(i, j, block);
        }
        for j in 5..10 {
            b.set(i, j, if rng.gen::<f64>() < 0.95 { y } else { -y });
        }
    }
    let lambda = b.build();

    let cfg = TrainConfig {
        class_balance: ClassBalance::Uniform,
        ..TrainConfig::default()
    };

    let mut indep = GenerativeModel::new(10, LabelScheme::Binary);
    indep.fit(&lambda, None, &cfg);

    let pairs: Vec<(usize, usize)> = (0..5)
        .flat_map(|a| ((a + 1)..5).map(move |b2| (a, b2)))
        .collect();
    let mut corr = GenerativeModel::new(10, LabelScheme::Binary).with_correlations(&pairs);
    corr.fit(&lambda, None, &cfg);

    // Under the correlated model, the good independent LFs must carry
    // more total weight than the whole 50%-accurate block.
    let w = corr.accuracy_weights();
    let block_sum: f64 = w[..5].iter().sum();
    let good_sum: f64 = w[5..].iter().sum();
    assert!(
        good_sum > block_sum,
        "correlated fit must trust the independent LFs: block {block_sum:.2} vs good {good_sum:.2}"
    );

    // And its conflict resolution must side with the good LFs where the
    // independent model sides with the block.
    let cols: Vec<u32> = (0..10).collect();
    let votes: Vec<i8> = vec![1, 1, 1, 1, 1, -1, -1, -1, -1, -1];
    let p_corr = corr.posterior(&cols, &votes);
    assert!(
        p_corr[1] > 0.5,
        "block (+1) vs good LFs (−1): correlated model must pick −1, got {:?}",
        p_corr
    );
}

/// §2.1's "simplicity was critical": a complete LF suite is just a vec
/// of boxed trait objects; executor output is identical regardless of
/// how LFs were constructed (closure, declarative, generator).
#[test]
fn heterogeneous_suite_uniformity() {
    let mut tagger = DictionaryTagger::new();
    tagger.add_phrase("aspirin", "Chemical");
    tagger.add_phrase("headache", "Disease");
    let ingester = DocumentIngester::with_tagger(tagger);
    let mut corpus = snorkel::context::Corpus::new();
    ingester.ingest(
        &mut corpus,
        "d",
        "Aspirin treats headache. Aspirin causes headache.",
    );
    let cands = CandidateExtractor::new("Chemical", "Disease").extract(&mut corpus);

    let suite: Vec<snorkel::lf::BoxedLf> = vec![
        lf(
            "closure",
            |x| if x.token_distance(0, 1) <= 2 { 1 } else { 0 },
        ),
        Box::new(KeywordBetweenLf::new("declarative", &["treats"], -1, -1)),
    ];
    let lambda = LfExecutor::new().apply(&suite, &corpus, &cands);
    assert_eq!(lambda.num_points(), 2);
    assert_eq!(lambda.num_lfs(), 2);
    assert_eq!(lambda.get(0, 1), -1, "treats sentence");
    assert_eq!(lambda.get(1, 1), 0, "causes sentence");
}
