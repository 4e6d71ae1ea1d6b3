//! Order statistics over job timings.

/// The median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (1–99) the value stands for.
    pub percentile: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond it.
    pub beyond: usize,
}

/// The highest whole percentile from 50 up that still has at least
/// `min_beyond` samples beyond it (nearest-rank definition). With too few
/// samples for any of them to qualify, falls back to the median's rank.
pub fn tail(values: &[f64], min_beyond: usize) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: 50,
            value: 0.0,
            beyond: 0,
        };
    }
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let percentile = (50..=99)
        .rev()
        .find(|&p| n - rank(p) >= min_beyond)
        .unwrap_or(50);
    let r = rank(percentile);
    Tail {
        percentile,
        value: sorted[r - 1],
        beyond: n - r,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);

        let values: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!((t.percentile, t.beyond), (66, 10));
        assert_eq!(t.value, 20.0);
    }

    #[test]
    fn tail_with_few_samples_falls_back_to_the_median_rank() {
        let t = tail(&[1.0, 2.0, 3.0], 10);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 2.0, 1));
    }
}
