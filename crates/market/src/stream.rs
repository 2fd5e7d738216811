//! Incremental feature maintenance for the streaming day-advance pipeline
//! (DESIGN.md §14).
//!
//! [`window_features`](crate::features::window_features) rescans the price
//! history for every moving average of every window it builds. A live
//! system scores one new window a day, and each window shares all but one
//! day with the last, so [`FeatureStream`] records each day's 5/10/20-day
//! averages once, when the day is appended, and assembles any later window
//! by lookup.
//!
//! ## Parity contract
//!
//! Each average is recorded by the very f32 scan `window_features` runs
//! (`features::moving_average`), over the same price rows, so
//! [`FeatureStream::window`] is bit-identical to `window_features`, and
//! pushing days one at a time equals a rebuild with
//! [`FeatureStream::from_prices`], bit for bit. The streaming parity suite
//! enforces both.

use crate::features::{moving_average, warmup_for, MAX_FEATURES, MA_WINDOWS};
use rtgcn_tensor::Tensor;

/// The moving averages of a growing price history, one row per day.
#[derive(Clone, Debug)]
pub struct FeatureStream {
    n: usize,
    /// Days ingested so far (the next `push_day` fills day index `days`).
    days: usize,
    /// Raw (pre-anchor-normalisation) moving averages, `(day, stock,
    /// window)` row-major; NaN before a window's warm-up is reached (never
    /// read: `window` gates on [`warmup_for`]).
    ma_hist: Vec<f32>,
}

const N_WINDOWS: usize = MA_WINDOWS.len();

impl FeatureStream {
    /// Empty stream over `n` stocks.
    pub fn new(n: usize) -> Self {
        FeatureStream { n, days: 0, ma_hist: Vec::new() }
    }

    /// Batch rebuild: ingest every day of `prices` in order. This is the
    /// reference the parity suite compares incremental streams against —
    /// same code path, so equality is bitwise.
    pub fn from_prices(prices: &Tensor) -> Self {
        assert_eq!(prices.rank(), 2, "prices must be (days, N)");
        let mut s = FeatureStream::new(prices.dims()[1]);
        for _ in 0..prices.dims()[0] {
            s.push_day(prices);
        }
        s
    }

    /// Days ingested so far.
    pub fn days(&self) -> usize {
        self.days
    }

    /// Ingest the next day (index `self.days()`) from `prices`, which must
    /// already contain that row: record each stock's moving averages ending
    /// at that day.
    pub fn push_day(&mut self, prices: &Tensor) {
        let day = self.days;
        assert_eq!(prices.dims()[1], self.n, "stock count changed mid-stream");
        assert!(prices.dims()[0] > day, "prices have no row for day {day}");
        for i in 0..self.n {
            for &w in &MA_WINDOWS {
                let ma = if day + 1 >= w { moving_average(prices, day, i, w) } else { f32::NAN };
                self.ma_hist.push(ma);
            }
        }
        self.days += 1;
    }

    /// Raw (pre-anchor) moving average of window index `k` (0 → 5-day, 1 →
    /// 10-day, 2 → 20-day) for `stock` at `day`.
    pub fn raw_ma(&self, day: usize, stock: usize, k: usize) -> f32 {
        assert!(day < self.days && stock < self.n && k < N_WINDOWS);
        self.ma_hist[(day * self.n + stock) * N_WINDOWS + k]
    }

    /// Assemble the `X_t ∈ R^{T×N×D}` window ending at `end_day`, matching
    /// [`window_features`](crate::features::window_features)' layout, gates,
    /// and anchor normalisation, bit for bit, but reading the recorded moving
    /// averages instead of rescanning the price history.
    pub fn window(
        &self,
        prices: &Tensor,
        end_day: usize,
        t_steps: usize,
        n_features: usize,
    ) -> Tensor {
        assert!((1..=MAX_FEATURES).contains(&n_features), "n_features must be 1..=4");
        assert!(end_day < self.days, "day {end_day} not ingested yet (have {})", self.days);
        assert!(end_day + 1 >= t_steps, "window of {t_steps} steps cannot end at day {end_day}");
        let start = end_day + 1 - t_steps;
        assert!(
            start + 1 >= warmup_for(n_features),
            "window starting at day {start} lacks warm-up history \
             (n_features = {n_features} needs {} prior days)",
            warmup_for(n_features)
        );
        let n = self.n;
        let data = prices.data();
        let mut x = Tensor::zeros([t_steps, n, n_features]);
        for i in 0..n {
            let anchor = data[end_day * n + i].max(1e-6);
            for (w_idx, day) in (start..=end_day).enumerate() {
                let base = (w_idx * n + i) * n_features;
                x.data_mut()[base] = data[day * n + i] / anchor;
                for f in 0..n_features.saturating_sub(1) {
                    x.data_mut()[base + 1 + f] =
                        self.ma_hist[(day * n + i) * N_WINDOWS + f] / anchor;
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::window_features;

    fn toy_prices(days: usize, n: usize) -> Tensor {
        let mut p = Tensor::zeros([days, n]);
        for d in 0..days {
            for i in 0..n {
                // Mildly oscillating so the moving averages actually vary.
                p.data_mut()[d * n + i] =
                    100.0 + d as f32 + 10.0 * i as f32 + ((d * 7 + i) % 5) as f32 * 0.3;
            }
        }
        p
    }

    #[test]
    fn incremental_matches_batch_rebuild_bitwise() {
        let p = toy_prices(80, 3);
        let batch = FeatureStream::from_prices(&p);
        // Incremental path as the day loop drives it: the price history
        // grows one row at a time and each push sees only the prefix.
        let mut grow = Tensor::new([0, 3], Vec::new());
        let mut inc = FeatureStream::new(3);
        for d in 0..80 {
            grow.push_row(&p.data()[d * 3..(d + 1) * 3]);
            inc.push_day(&grow);
        }
        assert_eq!(inc.days(), batch.days());
        // NaN-aware bitwise comparison of the MA history.
        let a: Vec<u32> = inc.ma_hist.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = batch.ma_hist.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "ma history diverges");
    }

    #[test]
    fn window_is_bitwise_identical_to_window_features() {
        let p = toy_prices(80, 4);
        let s = FeatureStream::from_prices(&p);
        for nf in 1..=4 {
            for end_day in [30, 60, 79] {
                let a = s.window(&p, end_day, 12, nf);
                let b = window_features(&p, end_day, 12, nf);
                assert_eq!(a.dims(), b.dims());
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "nf={nf}, end day {end_day}");
            }
        }
    }

    #[test]
    fn per_combination_gate_matches_features_module() {
        let p = toy_prices(60, 2);
        let s = FeatureStream::from_prices(&p);
        // nf=3 needs the 10-day MA: start day 9 is the earliest legal one.
        let x = s.window(&p, 12, 4, 3);
        assert!(x.data().iter().all(|v| v.is_finite()));
        let early = std::panic::catch_unwind(|| s.window(&p, 11, 4, 3));
        assert!(early.is_err(), "window before warm-up must be rejected");
    }

    #[test]
    #[should_panic(expected = "not ingested")]
    fn window_beyond_stream_rejected() {
        let p = toy_prices(30, 2);
        let s = FeatureStream::from_prices(&p);
        let _ = s.window(&p, 30, 4, 2);
    }
}
