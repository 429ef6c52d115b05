//! Random samplers: Poisson arrivals and key-popularity distributions.
//!
//! The paper's clients "send requests to nodes according to a Poisson
//! process at a given inter-arrival rate" with keys "randomly selected
//! from 1 million keys" (§8.1) — i.e. uniform popularity. A Zipf sampler
//! is included for skewed-popularity extensions.

use rand::rngs::SmallRng;
use rand::Rng;

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product method for small means and a normal approximation
/// (rounded, clamped at zero) for large ones — the standard approach when
/// exactness beyond the fourth moment is irrelevant, as in open-loop
/// arrival generation.
pub fn poisson(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        // Box-Muller normal approximation N(mean, mean).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = mean + z * mean.sqrt();
        sample.round().max(0.0) as u64
    }
}

/// Key popularity distributions.
#[derive(Clone, Debug)]
pub enum KeyDist {
    /// Uniform over `[0, keys)` — the paper's workload.
    Uniform {
        /// Key-space size (the paper uses 1 million).
        keys: u64,
    },
    /// Zipf with exponent `theta` over `[0, keys)`.
    Zipf {
        /// Key-space size.
        keys: u64,
        /// Skew exponent (≈0.99 for typical YCSB-skewed workloads).
        theta: f64,
        /// Precomputed normalization.
        zeta: f64,
    },
}

impl KeyDist {
    /// Uniform keys, as in the paper.
    pub fn uniform(keys: u64) -> KeyDist {
        assert!(keys > 0);
        KeyDist::Uniform { keys }
    }

    /// Zipf-distributed keys (popularity ∝ 1/rank^theta).
    pub fn zipf(keys: u64, theta: f64) -> KeyDist {
        assert!(keys > 0 && theta > 0.0);
        // Harmonic normalization; exact for small spaces, sampled-tail
        // approximation for large ones to keep construction cheap.
        let n = keys.min(1_000_000);
        let mut zeta = 0.0;
        for i in 1..=n {
            zeta += 1.0 / (i as f64).powf(theta);
        }
        KeyDist::Zipf { keys, theta, zeta }
    }

    /// Samples one key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyDist::Uniform { keys } => rng.gen_range(0..*keys),
            KeyDist::Zipf { keys, theta, zeta } => {
                // Inverse-CDF by sequential scan is too slow; use the
                // rejection-free approximation of Gray et al. (1994).
                let n = (*keys).min(1_000_000) as f64;
                let alpha = 1.0 / (1.0 - theta).max(1e-9);
                let eta = (1.0 - (2.0 / n).powf(1.0 - theta))
                    / (1.0 - (1.0f64 / zeta) * (1.0 + 0.5f64.powf(*theta)));
                let u: f64 = rng.gen();
                let uz = u * zeta;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(*theta) {
                    return 1;
                }
                ((n * (eta * u - eta + 1.0).powf(alpha)) as u64).min(keys - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn poisson_mean_small() {
        let mut g = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut g, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_mean_large() {
        let mut g = rng();
        let n = 5_000;
        let total: u64 = (0..n).map(|_| poisson(&mut g, 500.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 500.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn poisson_zero_and_negative() {
        let mut g = rng();
        assert_eq!(poisson(&mut g, 0.0), 0);
        assert_eq!(poisson(&mut g, -5.0), 0);
    }

    #[test]
    fn uniform_covers_space() {
        let d = KeyDist::uniform(10);
        let mut g = rng();
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[d.sample(&mut g) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_skews_towards_low_keys() {
        let d = KeyDist::zipf(1000, 0.99);
        let mut g = rng();
        let mut low = 0;
        let n = 10_000;
        for _ in 0..n {
            if d.sample(&mut g) < 10 {
                low += 1;
            }
        }
        // With theta≈1, the top-10 keys should absorb a large share.
        assert!(
            low > n / 10,
            "zipf skew too weak: {low}/{n} samples in the top 10 keys"
        );
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        // A run is reproducible only if the sampler is a pure function of
        // (distribution, seed).
        let d = KeyDist::zipf(1_000_000, 0.99);
        let draw = |seed: u64| {
            let mut g = SmallRng::seed_from_u64(seed);
            (0..256).map(|_| d.sample(&mut g)).collect::<Vec<u64>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same stream");
        assert_ne!(draw(7), draw(8), "streams differ across seeds");
        // Golden prefix: catches silent sampler/rng drift.
        assert_eq!(&draw(7)[..4], &[0, 6, 19737, 295]);
    }

    #[test]
    fn zipf_stays_in_range() {
        let d = KeyDist::zipf(100, 0.8);
        let mut g = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut g) < 100);
        }
    }
}
