//! Sample summaries: quantiles by linear interpolation between order
//! statistics (the common "type 7" definition).

/// The `q` quantile (0 ≤ q ≤ 1) of `samples`; NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median over consecutive blocks of `block` samples of each block's
/// `q` quantile, so a burst of outliers moves one block's figure, not the
/// whole run's. Samples past the last whole block are left out; with
/// fewer than two whole blocks it is the `q` quantile of all samples.
pub fn blocked_quantile(samples: &[f64], q: f64, block: usize) -> f64 {
    if samples.len() < 2 * block {
        return quantile(samples, q);
    }
    let per_block: Vec<f64> = samples
        .chunks_exact(block)
        .map(|b| quantile(b, q))
        .collect();
    median(&per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn blocked_quantile_damps_a_burst_of_outliers() {
        let mut v = vec![1.0; 300];
        v[10..20].fill(50.0);
        assert_eq!(quantile(&v, 0.99), 50.0);
        assert_eq!(blocked_quantile(&v, 0.99, 100), 1.0);
        assert_eq!(
            blocked_quantile(&v[..150], 0.99, 100),
            quantile(&v[..150], 0.99)
        );
    }
}
