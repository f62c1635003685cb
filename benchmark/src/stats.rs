//! Order statistics the benchmark reports: medians, quartiles and tail
//! percentiles that refuse to speak for samples they do not have.

/// A sorted copy of `values` (total order, so a NaN cannot reorder a run).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks. `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `values`, in any order.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// `(p25, p50, p75)` of `values`, in any order.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `pct`-th percentile of an ascending slice, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it: a p95 of forty
/// values is two samples deep and says nothing about the tail.
pub fn tail_percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 190, ten samples (191..=200) beyond it.
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        // One sample short: 199 values leave only nine beyond rank 190.
        assert_eq!(tail_percentile(&v[..199], 95.0), None);
        // p99 of 200 has two samples beyond it.
        assert_eq!(tail_percentile(&v, 99.0), None);
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
