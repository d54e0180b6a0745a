//! Random-variate samplers implemented from scratch: standard normal
//! (Box–Muller), truncated normal, lognormal and Zipf.
//!
//! Only `rand`'s uniform primitives are used; the shaped distributions
//! the experiments need are derived here so the reproduction does not
//! depend on `rand_distr`.

use rand::Rng;

/// Draws a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A normal distribution truncated to `[lower, upper]` by rejection.
#[derive(Clone, Copy, Debug)]
pub struct TruncatedNormal {
    /// Mean of the underlying normal.
    pub mean: f64,
    /// Standard deviation of the underlying normal.
    pub sd: f64,
    /// Lower truncation bound (inclusive).
    pub lower: f64,
    /// Upper truncation bound (inclusive).
    pub upper: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted, `sd` is not positive, or the
    /// acceptance region is more than 8σ away from the mean (rejection
    /// would practically never terminate).
    pub fn new(mean: f64, sd: f64, lower: f64, upper: f64) -> Self {
        assert!(lower < upper, "bounds inverted");
        assert!(sd > 0.0, "sd must be positive");
        assert!(
            lower <= mean + 8.0 * sd && upper >= mean - 8.0 * sd,
            "acceptance region unreachable"
        );
        TruncatedNormal {
            mean,
            sd,
            lower,
            upper,
        }
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let v = self.mean + self.sd * standard_normal(rng);
            if v >= self.lower && v <= self.upper {
                return v;
            }
        }
    }
}

/// A lognormal distribution (optionally truncated above), parameterized
/// by the μ and σ of the underlying normal.
///
/// The PAST workloads are calibrated through the lognormal identities
/// `median = e^μ` and `mean = e^{μ + σ²/2}`: given the published median
/// and mean, `μ = ln(median)` and `σ = sqrt(2 ln(mean/median))`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Location parameter of the underlying normal.
    pub mu: f64,
    /// Scale parameter of the underlying normal.
    pub sigma: f64,
    /// Upper truncation bound (re-draw above this), if any.
    pub max: Option<f64>,
}

impl LogNormal {
    /// Creates a lognormal from μ and σ.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LogNormal {
            mu,
            sigma,
            max: None,
        }
    }

    /// Calibrates μ and σ from a target median and mean (mean > median).
    pub fn from_median_mean(median: f64, mean: f64) -> Self {
        assert!(median > 0.0 && mean > median, "need mean > median > 0");
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal::new(mu, sigma)
    }

    /// Adds an upper truncation bound.
    pub fn with_max(mut self, max: f64) -> Self {
        assert!(max > 0.0);
        self.max = Some(max);
        self
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let v = (self.mu + self.sigma * standard_normal(rng)).exp();
            match self.max {
                Some(m) if v > m => continue,
                _ => return v,
            }
        }
    }
}

/// A Pareto distribution with scale `x_m` and shape `alpha`, optionally
/// truncated above, sampled by inverse CDF.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    /// Scale (minimum value).
    pub x_m: f64,
    /// Shape (smaller = heavier tail).
    pub alpha: f64,
    /// Upper truncation bound (re-draw above), if any.
    pub max: Option<f64>,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `x_m > 0` and `alpha > 0`.
    pub fn new(x_m: f64, alpha: f64) -> Self {
        assert!(x_m > 0.0 && alpha > 0.0, "invalid Pareto parameters");
        Pareto {
            x_m,
            alpha,
            max: None,
        }
    }

    /// Adds an upper truncation bound.
    pub fn with_max(mut self, max: f64) -> Self {
        assert!(max > self.x_m, "truncation below the scale");
        self.max = Some(max);
        self
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
            let v = self.x_m * u.powf(-1.0 / self.alpha);
            match self.max {
                Some(m) if v > m => continue,
                _ => return v,
            }
        }
    }
}

/// A hybrid file-size model: a lognormal body plus a Pareto tail drawn
/// with probability `tail_prob`.
///
/// Web object and filesystem size distributions are famously
/// lognormal-bodied with Pareto tails; the tail carries a large share of
/// the bytes in a small share of the files. This matters for PAST: its
/// `t_pri`/`t_div` policies shed almost all of the overshoot by
/// rejecting a tiny number of huge files, which is only possible when
/// the byte mass is concentrated in the tail the way real traces
/// concentrate it.
#[derive(Clone, Copy, Debug)]
pub struct SizeModel {
    /// The lognormal body.
    pub body: LogNormal,
    /// Probability a draw comes from the tail.
    pub tail_prob: f64,
    /// The Pareto tail.
    pub tail: Pareto,
}

impl SizeModel {
    /// Creates a hybrid model.
    ///
    /// # Panics
    ///
    /// Panics unless `tail_prob` is a probability.
    pub fn new(body: LogNormal, tail_prob: f64, tail: Pareto) -> Self {
        assert!((0.0..=1.0).contains(&tail_prob), "bad tail probability");
        SizeModel {
            body,
            tail_prob,
            tail,
        }
    }

    /// Samples one size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.tail_prob {
            self.tail.sample(rng)
        } else {
            self.body.sample(rng)
        }
    }

    /// Calibrates a hybrid model to a trace's published (median, mean,
    /// max) statistics with its tail parameters: the Pareto tail's mean
    /// is computed analytically and the lognormal body absorbs the rest
    /// of the target mean while pinning the median.
    ///
    /// # Panics
    ///
    /// Panics if the tail already overshoots the target mean.
    pub fn calibrated(stats: &SizeStats) -> Self {
        let &SizeStats {
            median,
            mean,
            max,
            tail_prob,
            tail_x_m,
            tail_alpha,
        } = stats;
        let tail = Pareto::new(tail_x_m, tail_alpha).with_max(max);
        let tail_mean = truncated_pareto_mean(tail_x_m, tail_alpha, max);
        let body_mean = (mean - tail_prob * tail_mean) / (1.0 - tail_prob);
        assert!(
            body_mean > median,
            "tail too heavy: body mean {body_mean} below median {median}"
        );
        let body = LogNormal::from_median_mean(median, body_mean).with_max(max);
        SizeModel::new(body, tail_prob, tail)
    }
}

/// A trace's file-size statistics: the (median, mean, max) the paper
/// publishes, and the Pareto tail [`SizeModel::calibrated`] fits the
/// lognormal body around. Each trace has one, next to its config
/// (`past_workload::trace`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeStats {
    /// Median file size in bytes.
    pub median: f64,
    /// Mean file size in bytes.
    pub mean: f64,
    /// Maximum file size in bytes (both parts are truncated here).
    pub max: f64,
    /// Probability a file's size comes from the Pareto tail.
    pub tail_prob: f64,
    /// Pareto tail scale (minimum tail size) in bytes.
    pub tail_x_m: f64,
    /// Pareto tail shape.
    pub tail_alpha: f64,
}

/// The mean of a Pareto(x_m, alpha) truncated at `max`.
pub fn truncated_pareto_mean(x_m: f64, alpha: f64, max: f64) -> f64 {
    assert!(x_m > 0.0 && alpha > 0.0 && max > x_m);
    let r = x_m / max;
    if (alpha - 1.0).abs() < 1e-9 {
        // alpha = 1: mean = x_m * ln(max/x_m) / (1 - r).
        x_m * (max / x_m).ln() / (1.0 - r)
    } else {
        (alpha / (alpha - 1.0)) * x_m * (1.0 - r.powf(alpha - 1.0)) / (1.0 - r.powf(alpha))
    }
}

/// A Zipf distribution over ranks `1..=n` with exponent `alpha`:
/// P(rank = r) ∝ r^{-alpha}.
///
/// Web request popularity is Zipf-like with α around 0.8 (Breslau et al.,
/// cited by the paper to explain its caching results). Sampling uses a
/// precomputed CDF with binary search, O(log n) per draw.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(alpha.is_finite() && alpha >= 0.0, "bad alpha");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// The probability of rank `r` (1-based).
    pub fn pmf(&self, r: usize) -> f64 {
        assert!(r >= 1 && r <= self.cdf.len());
        if r == 1 {
            self.cdf[0]
        } else {
            self.cdf[r - 1] - self.cdf[r - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = rng();
        let d = TruncatedNormal::new(27.0, 54.0, 6.0, 48.0);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((6.0..=48.0).contains(&v));
        }
    }

    #[test]
    fn truncated_normal_mean_near_center_for_symmetric_cut() {
        let mut rng = rng();
        let d = TruncatedNormal::new(27.0, 10.8, 2.0, 52.0);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 27.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn lognormal_calibration_matches_web_trace_stats() {
        // Paper: NLANR web trace mean 10,517 B, median 1,312 B.
        let mut rng = rng();
        let d = LogNormal::from_median_mean(1312.0, 10517.0).with_max(138.0e6);
        let n = 200_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (median / 1312.0 - 1.0).abs() < 0.1,
            "median {median} vs target 1312"
        );
        // The heavy tail makes the sample mean noisy; accept a wide band.
        assert!(
            (mean / 10517.0 - 1.0).abs() < 0.5,
            "mean {mean} vs target 10517"
        );
    }

    #[test]
    fn lognormal_truncation_enforced() {
        let mut rng = rng();
        let d = LogNormal::from_median_mean(4578.0, 88233.0).with_max(1_000_000.0);
        for _ in 0..20_000 {
            assert!(d.sample(&mut rng) <= 1_000_000.0);
        }
    }

    #[test]
    #[should_panic]
    fn lognormal_rejects_mean_below_median() {
        LogNormal::from_median_mean(100.0, 50.0);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(1000, 0.8);
        let total: f64 = (1..=1000).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank1_most_popular() {
        let z = Zipf::new(100, 0.8);
        assert!(z.pmf(1) > z.pmf(2));
        assert!(z.pmf(2) > z.pmf(50));
        // Ratio check: p(1)/p(2) = 2^0.8.
        let ratio = z.pmf(1) / z.pmf(2);
        assert!((ratio - 2f64.powf(0.8)).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_match_pmf() {
        let mut rng = rng();
        let z = Zipf::new(50, 0.8);
        let n = 100_000;
        let mut counts = vec![0u32; 51];
        for _ in 0..n {
            let r = z.sample(&mut rng);
            assert!((1..=50).contains(&r));
            counts[r] += 1;
        }
        let observed_p1 = counts[1] as f64 / n as f64;
        assert!(
            (observed_p1 - z.pmf(1)).abs() < 0.01,
            "p1 observed {observed_p1} expected {}",
            z.pmf(1)
        );
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 1..=10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }
}
