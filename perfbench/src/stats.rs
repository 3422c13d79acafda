//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark prints is an element of the sorted
//! sample vector (nearest-rank definition), never a histogram bucket
//! edge, and travels with the number of samples it was taken from.

/// A quantile and the number of samples it was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample value at the requested rank (0 when `n == 0`).
    pub value: f64,
    /// Samples the quantile was taken over.
    pub n: usize,
}

impl Quantile {
    /// The same quantile in a unit `div` times larger.
    pub fn scaled(self, div: f64) -> Quantile {
        Quantile {
            value: self.value / div,
            n: self.n,
        }
    }
}

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample such that at least a fraction `q` of the samples are `<=` it.
/// `q` is clamped to `[0, 1]`; `q = 0` is the minimum. `None` when
/// there are no samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let q = q.clamp(0.0, 1.0);
    let rank = (q * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts `samples` in place and returns the requested quantiles, each
/// with the sample count.
pub fn quantiles(samples: &mut [u64], qs: &[f64]) -> Vec<Quantile> {
    samples.sort_unstable();
    qs.iter()
        .map(|&q| Quantile {
            value: quantile_sorted(samples, q).map_or(0.0, |v| v as f64),
            n: samples.len(),
        })
        .collect()
}

/// The median of `values` (mean of the two middle values for an even
/// count), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Raw nanosecond samples with a hard cap, so a traced run's memory is
/// bounded. Samples past the cap are counted but not kept.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    kept: Vec<u64>,
    cap: usize,
    seen: u64,
}

impl Samples {
    /// An empty sample set keeping at most `cap` values.
    pub fn with_cap(cap: usize) -> Samples {
        Samples {
            kept: Vec::new(),
            cap,
            seen: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        }
    }

    /// Appends every kept sample of `other`.
    pub fn absorb(&mut self, other: Samples) {
        self.seen += other.seen;
        let room = self.cap.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Samples observed (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples.
    pub fn kept(&self) -> &[u64] {
        &self.kept
    }

    /// Nearest-rank quantiles over the kept samples, in the unit the
    /// samples were recorded in divided by `scale`.
    pub fn quantiles(&mut self, qs: &[f64], scale: f64) -> Vec<Quantile> {
        quantiles(&mut self.kept, qs)
            .into_iter()
            .map(|q| q.scaled(scale))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.9), Some(90));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
    }

    #[test]
    fn small_and_empty_vectors() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7], 0.5), Some(7));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        // Four samples: p50 is the 2nd, p75 the 3rd, p99 the 4th.
        let v = [10u64, 20, 30, 40];
        assert_eq!(quantile_sorted(&v, 0.5), Some(20));
        assert_eq!(quantile_sorted(&v, 0.75), Some(30));
        assert_eq!(quantile_sorted(&v, 0.99), Some(40));
    }

    #[test]
    fn quantiles_sort_and_count() {
        let mut v = vec![5u64, 1, 4, 2, 3];
        let q = quantiles(&mut v, &[0.5, 0.99]);
        assert_eq!(q[0], Quantile { value: 3.0, n: 5 });
        assert_eq!(q[1], Quantile { value: 5.0, n: 5 });
        // p99 is not the max once there are more than 100 samples.
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let q = quantiles(&mut v, &[0.99]);
        assert_eq!(q[0].value, 990.0);
        assert_eq!(q[0].n, 1000);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn samples_cap_keeps_count() {
        let mut s = Samples::with_cap(3);
        for v in [9, 8, 7, 6, 5] {
            s.push(v);
        }
        assert_eq!(s.seen(), 5);
        assert_eq!(s.kept(), &[9, 8, 7]);
        let q = s.quantiles(&[0.5], 1.0);
        assert_eq!(q[0], Quantile { value: 8.0, n: 3 });
    }
}
