//! Order statistics for latency samples.

/// The median of `values` (mean of the two middle values for an even
/// count). `values` need not be sorted.
///
/// Panics on an empty slice: every reported median has samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of a run made of passes over a fixed corpus: the median
/// over passes of each pass's median. `samples` are in arrival order,
/// `pass` long each (a trailing partial pass is left out). With an even
/// number of requests per pass the plain median of the run falls between
/// two requests' latency clusters, where it jumps between the slowest of
/// one and the fastest of the other; each pass's median is the midpoint
/// of the two, and its median over passes is steady.
///
/// Panics when there is no complete pass.
pub fn pass_median(samples: &[f64], pass: usize) -> f64 {
    let medians: Vec<f64> = samples.chunks_exact(pass.max(1)).map(median).collect();
    median(&medians)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Picks the tail of `values`: with `n` samples sorted ascending, the
/// sample of rank `n - 10` (1-based) is the highest one with ten samples
/// ranked above it, and it sits at percentile `100 * (n - 10) / n`. With
/// ten samples or fewer no percentile has ten beyond it; the maximum is
/// reported with `beyond` telling how many really lie beyond (zero).
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    }
}

/// Requests per block of [`block_tail`].
pub const TAIL_BLOCK: usize = 1000;

/// The tail of a long run: `samples` (in arrival order) cut into blocks
/// of [`TAIL_BLOCK`] consecutive samples, each block's [`tail`] (its
/// p99), and the median of those over blocks, so one stall of the
/// machine cannot set the figure. A run of fewer than two blocks is one
/// block. Returns the figure, one block's tail as an example of its
/// percentile, and the number of blocks.
///
/// Panics on an empty slice.
pub fn block_tail(samples: &[f64]) -> (f64, Tail, usize) {
    let blocks: Vec<&[f64]> = if samples.len() < 2 * TAIL_BLOCK {
        vec![samples]
    } else {
        samples
            .chunks(TAIL_BLOCK)
            .filter(|b| b.len() == TAIL_BLOCK)
            .collect()
    };
    let tails: Vec<Tail> = blocks.iter().map(|b| tail(b)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    (median(&values), tails[0], tails.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn pass_median_takes_the_median_of_pass_medians() {
        // two requests per pass: the plain median would be (2 + 10) / 2
        // only by luck of the extremes; each pass's median is its midpoint
        let samples = [1.0, 9.0, 2.0, 10.0, 3.0, 11.0, 100.0];
        assert_eq!(pass_median(&samples, 2), 6.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=200: rank 190 is the value 190, at p95, with 191..=200 beyond
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_is_the_highest_such_percentile() {
        // one more sample than the minimum: rank 1 of 11 has ten beyond
        let values: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.beyond), (0.0, 10));
        // 10000 samples reach p99.9
        let values: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 99.9).abs() < 1e-9);
    }

    #[test]
    fn block_tail_is_the_median_of_block_p99s() {
        // three blocks whose 11th-largest values are 989, 1989 and 2989,
        // plus a partial block that is left out
        let samples: Vec<f64> = (0..3500).map(f64::from).collect();
        let (value, example, blocks) = block_tail(&samples);
        assert_eq!((value, blocks), (1989.0, 3));
        assert_eq!(example.beyond, 10);
        assert!((example.percentile - 99.0).abs() < 1e-9);
        // a short run is one block
        let samples: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(block_tail(&samples), (489.0, tail(&samples), 1));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.value, t.beyond, t.percentile), (9.0, 0, 100.0));
    }
}
