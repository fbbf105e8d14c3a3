//! Seeded randomness and the order statistics every metric is built on.

/// SplitMix64: a tiny, seedable generator whose output depends on the
/// seed alone, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Nearest-rank quantile of an ascending slice, `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail the benchmark reports as `p99`: the highest percentile, at
/// most the 99th, that still has at least ten samples beyond it.
/// Returns `(percentile, value)`, or `None` below eleven samples.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let p99_index = ((0.99 * n as f64).ceil() as usize).max(1) - 1;
    let index = p99_index.min(n - 11);
    Some((100.0 * (index + 1) as f64 / n as f64, sorted[index]))
}

/// Median and tail of one latency class.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// Percentile the tail was taken at (see [`tail_percentile`]); the
    /// maximum stands in, labelled 100, below eleven samples.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_pct, tail) =
            tail_percentile(&sorted).unwrap_or((100.0, sorted[sorted.len() - 1]));
        Some(Latency {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5),
            tail_pct,
            tail,
        })
    }
}

/// Median, quartiles and range of repeated measurements of one quantity.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Spread {
            n,
            median,
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
        // 200 samples: p99 would leave only 2 beyond, so the rule backs
        // off to the 190th value (p95) with exactly ten beyond it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail_percentile(&xs).unwrap();
        assert_eq!(value, 190.0);
        assert!((pct - 95.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((100.0 / 11.0, 1.0)));
        assert_eq!(tail_percentile(&xs[..10]), None);
    }

    #[test]
    fn tail_never_exceeds_p99() {
        for n in 11..3000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, value) = tail_percentile(&xs).unwrap();
            assert!(value <= quantile(&xs, 0.99), "n={n}");
            assert!(xs.iter().filter(|&&x| x > value).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn spread_reports_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max), (3.0, 1.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "write_p99_ms",
            "api.decode_us",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "p99%", "x/y", "é"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        let mut other = Rng::new(8);
        assert_ne!(a[0], other.next_u64());
    }
}
