//! Poisson arrivals: the paper's clients "send requests to nodes according
//! to a Poisson process at a given inter-arrival rate" (§8.1).

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
}
