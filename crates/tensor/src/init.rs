//! Deterministic weight initialisation.
//!
//! Every stochastic component in the workspace takes an explicit seed so that
//! experiments are reproducible run-to-run (the paper averages 15 seeded
//! runs; our harnesses do the same with `--seeds`).

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create a seeded RNG. Thin alias so call sites don't import rand directly.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform tensor in `[lo, hi)`.
pub fn uniform(shape: impl Into<crate::shape::Shape>, lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    Tensor::new(shape, (0..n).map(|_| rng.gen_range(lo..hi)).collect())
}

/// Standard-normal tensor scaled by `std`, via Box–Muller (keeps us inside
/// the allowed `rand` core API without `rand_distr`).
pub fn normal(shape: impl Into<crate::shape::Shape>, std: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::new(shape, data)
}

/// Xavier/Glorot uniform initialisation for a weight of shape
/// `[fan_in, fan_out]` (or higher rank, in which case the first dim is
/// treated as fan-in and the rest as fan-out).
pub fn xavier(shape: impl Into<crate::shape::Shape>, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let dims = shape.dims();
    let (fan_in, fan_out) = match dims.len() {
        0 | 1 => (1, dims.first().copied().unwrap_or(1)),
        _ => (dims[0], dims[1..].iter().product()),
    };
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -limit, limit, rng)
}

/// Kaiming/He normal initialisation (for ReLU stacks).
pub fn kaiming(shape: impl Into<crate::shape::Shape>, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let fan_in = shape.dims().first().copied().unwrap_or(1).max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    normal(shape, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = xavier([4, 4], &mut rng(7));
        let b = xavier([4, 4], &mut rng(7));
        assert_eq!(a, b);
        let c = xavier([4, 4], &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let t = normal([10_000], 2.0, &mut rng(42));
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_within_limit() {
        let t = xavier([16, 16], &mut rng(1));
        let limit = (6.0f32 / 32.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn uniform_bounds() {
        let t = uniform([1000], -0.5, 0.5, &mut rng(3));
        assert!(t.max() < 0.5 && t.min() >= -0.5);
    }
}
