//! Dropout regularisers (inverted scaling, so inference needs no rescale).

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

impl Tape {
    /// Standard elementwise dropout with keep-probability `1 − p`. A no-op
    /// when `p == 0` (use that for evaluation).
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        if p == 0.0 {
            return x;
        }
        let shape = self.value(x).shape().clone();
        let scale = 1.0 / (1.0 - p);
        let mask = Tensor::new(
            shape,
            (0..self.value(x).numel())
                .map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale })
                .collect(),
        );
        let m = self.constant(mask);
        self.mul(x, m)
    }

    /// Spatial dropout for `(L, B, C)` activations: drops whole channels
    /// (the same mask across the entire time axis), as used after each TCN
    /// layer in the paper (Section IV-C, citing Srivastava et al.).
    pub fn spatial_dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let xv = self.value(x);
        assert_eq!(xv.rank(), 3, "spatial_dropout expects (L, B, C)");
        if p == 0.0 {
            return x;
        }
        let (l, b, c) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let scale = 1.0 / (1.0 - p);
        // One keep/drop draw per (b, c), b-major, then the row at every step.
        let row: Vec<f32> =
            (0..b * c).map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale }).collect();
        let mut mask = Tensor::zeros([l, b, c]);
        for step in mask.data_mut().chunks_exact_mut(row.len().max(1)) {
            step.copy_from_slice(&row);
        }
        let m = self.constant(mask);
        self.mul(x, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    #[test]
    fn p_zero_is_identity() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0]));
        let y = tape.dropout(x, 0.0, &mut rng(0));
        assert_eq!(x, y, "p=0 should return the same var untouched");
    }

    #[test]
    fn expected_value_preserved() {
        let mut r = rng(11);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([10_000]));
        let y = tape.dropout(x, 0.3, &mut r);
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps E[x], got {mean}");
    }

    #[test]
    fn spatial_dropout_kills_whole_channels() {
        let mut r = rng(5);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([6, 4, 8]));
        let y = tape.spatial_dropout(x, 0.5, &mut r);
        let yv = tape.value(y);
        for bi in 0..4 {
            for ci in 0..8 {
                let ch: Vec<f32> = (0..6).map(|t| yv.at(&[t, bi, ci])).collect();
                let all_zero = ch.iter().all(|&v| v == 0.0);
                let all_scaled = ch.iter().all(|&v| (v - 2.0).abs() < 1e-6);
                assert!(all_zero || all_scaled, "channel must be dropped or kept whole");
            }
        }
    }

    #[test]
    fn gradient_masked_consistently() {
        let mut r = rng(7);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([64]));
        let y = tape.dropout(x, 0.5, &mut r);
        let s = tape.sum_all(y);
        tape.backward(s);
        let yv = tape.value(y).clone();
        let g = tape.grad(x).unwrap();
        for i in 0..64 {
            if yv.data()[i] == 0.0 {
                assert_eq!(g.data()[i], 0.0);
            } else {
                assert!((g.data()[i] - 2.0).abs() < 1e-6);
            }
        }
    }
}
