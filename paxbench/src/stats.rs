//! Order statistics over latency samples.

/// The `p`-th percentile of `samples` by the nearest-rank rule: the
/// smallest sample such that at least `p` percent of all samples are at or
/// below it (rank `ceil(p/100 · n)`, 1-based). Unlike interpolating rules it
/// always returns a value that was actually measured. `None` when there are
/// no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 91.0), Some(10.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let samples = [7.0, 1.0, 3.0, 9.0, 5.0];
        assert_eq!(median(&samples), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&[4.0], 90.0), Some(4.0));
    }

    #[test]
    fn no_samples_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_p90_need_a_hundred() {
        // The tail rule: report the highest percentile with at least ten
        // samples beyond it. With 100 samples, 10 lie strictly above p90.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
    }
}
