//! The row-wise reference as a pattern plan, shared by every test and
//! bench that checks the deduplicated plan against it.
//!
//! Include it with `#[path = ".../crates/core/tests/support/identity_plan.rs"]
//! mod identity_plan;` — it is not a test target of its own.

use snorkel_matrix::{LabelMatrix, PatternIndexParts, ShardedMatrix, ShardedMatrixParts};

/// One shard holding one pattern per row, each with count 1: every pass
/// through this plan visits the rows one by one, in row order, which is
/// the float-op sequence of a row-wise walk.
///
/// The plan repeats signatures, so it is built from parts and never
/// `validate`d (validation rejects repeated signatures).
pub fn identity_plan(lambda: &LabelMatrix) -> ShardedMatrix {
    let m = lambda.num_points();
    let mut sig_cols = Vec::new();
    let mut sig_votes = Vec::new();
    let mut pat_bounds = Vec::with_capacity(m);
    for i in 0..m {
        let (cols, votes) = lambda.row(i);
        pat_bounds.push((sig_cols.len(), cols.len()));
        sig_cols.extend_from_slice(cols);
        sig_votes.extend_from_slice(votes);
    }
    let shard = PatternIndexParts {
        start: 0,
        sig_cols,
        sig_votes,
        pat_bounds,
        counts: vec![1; m],
        row_pattern: (0..m as u32).collect(),
    };
    ShardedMatrix::from_parts(ShardedMatrixParts {
        num_lfs: lambda.num_lfs(),
        shards: vec![shard],
    })
    .expect("identity plan parts are well formed")
}
