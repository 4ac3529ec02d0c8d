//! Small order statistics used by the metrics, and the q-error.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; `NaN`
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The q-error of one cardinality estimate: `max(est/act, act/est)` with
/// both sides floored at 1, so an estimate of 0.3 rows against 0 actual
/// rows is exact and never divides by zero.
pub fn qerror(est: f64, act: f64) -> f64 {
    let (e, a) = (est.max(1.0), act.max(1.0));
    (e / a).max(a / e)
}

/// p50 and p90 of the q-errors over `(estimate, actual)` pairs.
pub fn qerror_p50_p90(pairs: &[(f64, f64)]) -> (f64, f64) {
    let q: Vec<f64> = pairs.iter().map(|&(e, a)| qerror(e, a)).collect();
    (quantile(&q, 0.5), quantile(&q, 0.9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_weights_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    /// A hand-built estimate/actual table, one row per case the definition
    /// has to get right.
    #[test]
    fn qerror_on_a_hand_built_table() {
        let table = [
            // (estimate, actual, q-error)
            (10.0, 10.0, 1.0),      // exact
            (100.0, 10.0, 10.0),    // over-estimate
            (10.0, 100.0, 10.0),    // under-estimate: symmetric
            (0.0, 1.0, 1.0),        // both floored at 1
            (0.25, 0.0, 1.0),       // empty result, tiny estimate
            (0.0, 2_550.0, 2550.0), // a zero estimate against real rows
            (4.0, 0.0, 4.0),        // estimated rows where none came out
            (1.5, 3.0, 2.0),
            (7.0, 1.0, 7.0),
            (1.0, 5.0, 5.0),
        ];
        for &(e, a, want) in &table {
            assert!((qerror(e, a) - want).abs() < 1e-12, "q({e}, {a})");
        }
        let pairs: Vec<(f64, f64)> = table.iter().map(|&(e, a, _)| (e, a)).collect();
        // Sorted q-errors: 1 1 1 2 4 | 5 7 10 10 2550; p90 sits a tenth of
        // the way from the ninth (10) to the tenth (2550).
        let (p50, p90) = qerror_p50_p90(&pairs);
        assert!((p50 - 4.5).abs() < 1e-9, "{p50}");
        assert!((p90 - 264.0).abs() < 1e-9, "{p90}");
    }
}
