//! Tier-1 acceptance: the vectorized engine core (flattened physical
//! programs, selection vectors, fused kernels) serializes byte-identically
//! to the scalar reference path over the XMark corpus and the fuzz query
//! stream, serially and with morsel-parallel kernels.

use exrquy_verify::{run_vectorized_differential, VectorizedConfig};

#[test]
fn vectorized_matches_scalar_byte_for_byte() {
    let cfg = VectorizedConfig::default();
    let report = run_vectorized_differential(&cfg);
    assert!(report.passed(), "{report}");
    // All 20 XMark queries x 2 profiles x 2 arms (serial + 4 threads)
    // + 25 fuzz iters x 2 profiles x 2 arms.
    assert_eq!(report.cells, 180);
}
