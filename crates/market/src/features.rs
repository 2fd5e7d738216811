//! The paper's 4-step feature pipeline (Section V-A.1):
//!
//! 1. Normalise closing prices by the price at the **last period of the input
//!    window** (`p^t / p^T`) — no future leakage.
//! 2. Compute 5/10/20-day moving averages (weekly / half-month trends).
//! 3. Compute next-day return ratios (Eq. 10) as ground truth.
//! 4. Split chronologically into train / test.
//!
//! Feature combinations follow Table VIII: 1 = close, 2 = +5d MA,
//! 3 = +10d MA, 4 = +20d MA.

use rtgcn_tensor::Tensor;

/// Days of history needed before the first usable window element (the 20-day
/// moving average's reach).
pub const WARMUP_DAYS: usize = 20;

/// Moving-average windows in feature order (after the raw close).
pub const MA_WINDOWS: [usize; 3] = [5, 10, 20];

/// Maximum feature count (close + three MAs — Table VIII row 4).
pub const MAX_FEATURES: usize = 4;

/// Days of history required before a window may start for a given feature
/// combination: the reach of the longest moving average it uses. `n_features
/// == 1` is the raw close (no history beyond the day itself); 2–4 add the
/// 5/10/20-day MAs in Table VIII order.
pub fn warmup_for(n_features: usize) -> usize {
    assert!((1..=MAX_FEATURES).contains(&n_features), "n_features must be 1..=4");
    match n_features {
        1 => 1,
        nf => MA_WINDOWS[nf - 2],
    }
}

/// Moving average of the `w` prices ending at `day` (inclusive) for a price
/// series laid out `(days, n)` row-major.
pub(crate) fn moving_average(prices: &Tensor, day: usize, stock: usize, w: usize) -> f32 {
    let n = prices.dims()[1];
    // A real assert: in release builds the old debug_assert! compiled away
    // and `day + 1 - w` underflowed with a raw panic-on-overflow (or silent
    // wraparound index) instead of a message.
    assert!(day + 1 >= w, "moving average needs {w} days of history, day {day} has {}", day + 1);
    let mut acc = 0.0;
    for d in (day + 1 - w)..=day {
        acc += prices.data()[d * n + stock];
    }
    acc / w as f32
}

/// Build the feature tensor `X_t ∈ R^{T×N×D}` for the window of `t_steps`
/// days **ending at** `end_day` (inclusive). `n_features ∈ 1..=4` selects the
/// Table VIII combination. Every feature is divided by each stock's closing
/// price at `end_day` (step 1 normalisation).
pub fn window_features(
    prices: &Tensor,
    end_day: usize,
    t_steps: usize,
    n_features: usize,
) -> Tensor {
    assert!(prices.rank() == 2, "prices must be (days, N)");
    assert!((1..=MAX_FEATURES).contains(&n_features), "n_features must be 1..=4");
    let n = prices.dims()[1];
    assert!(end_day + 1 >= t_steps, "window of {t_steps} steps cannot end at day {end_day}");
    let start = end_day + 1 - t_steps;
    // Gate per feature combination: n_features 2 and 3 only reach back
    // through the 5/10-day MAs, so demanding the full 20-day warm-up (as
    // the old unparenthesized `||`/`&&` condition effectively did for
    // every n_features > 1) rejected perfectly computable windows.
    assert!(
        start + 1 >= warmup_for(n_features),
        "window starting at day {start} lacks warm-up history \
         (n_features = {n_features} needs {} prior days)",
        warmup_for(n_features)
    );
    assert!(end_day < prices.dims()[0], "end_day out of range");

    let mut x = Tensor::zeros([t_steps, n, n_features]);
    for i in 0..n {
        let anchor = prices.data()[end_day * n + i].max(1e-6);
        for (w_idx, day) in (start..=end_day).enumerate() {
            let base = (w_idx * n + i) * n_features;
            x.data_mut()[base] = prices.data()[day * n + i] / anchor;
            for (f, &ma) in MA_WINDOWS.iter().enumerate().take(n_features.saturating_sub(1)) {
                x.data_mut()[base + 1 + f] = moving_average(prices, day, i, ma) / anchor;
            }
        }
    }
    x
}

/// Next-day return ratios `r^{t+1}_i = (p^{t+1}_i − p^t_i)/p^t_i` for every
/// stock at `day` (Eq. 10).
pub fn return_ratios(prices: &Tensor, day: usize) -> Tensor {
    let n = prices.dims()[1];
    assert!(day + 1 < prices.dims()[0], "need day+1 prices for the return ratio");
    let mut r = Tensor::zeros([n]);
    for i in 0..n {
        let p0 = prices.data()[day * n + i].max(1e-6);
        let p1 = prices.data()[(day + 1) * n + i];
        r.data_mut()[i] = (p1 - p0) / p0;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic toy price series: p(d, i) = 100 + d + 10·i.
    fn toy_prices(days: usize, n: usize) -> Tensor {
        let mut p = Tensor::zeros([days, n]);
        for d in 0..days {
            for i in 0..n {
                p.data_mut()[d * n + i] = 100.0 + d as f32 + 10.0 * i as f32;
            }
        }
        p
    }

    #[test]
    fn close_normalised_to_one_at_window_end() {
        let p = toy_prices(60, 3);
        let x = window_features(&p, 40, 8, 4);
        assert_eq!(x.dims(), &[8, 3, 4]);
        for i in 0..3 {
            // Last step's raw close / anchor = 1.
            assert!((x.at(&[7, i, 0]) - 1.0).abs() < 1e-6, "stock {i}");
        }
    }

    #[test]
    fn moving_averages_of_linear_prices() {
        // For p(d) = 100 + d, the w-day MA ending at d is 100 + d − (w−1)/2.
        let p = toy_prices(60, 1);
        let x = window_features(&p, 50, 4, 4);
        let anchor = 150.0;
        let close_49 = x.at(&[2, 0, 0]) * anchor;
        assert!((close_49 - 149.0).abs() < 1e-3);
        let ma5_50 = x.at(&[3, 0, 1]) * anchor;
        assert!((ma5_50 - 148.0).abs() < 1e-3, "5-day MA at d=50 is {ma5_50}");
        let ma20_50 = x.at(&[3, 0, 3]) * anchor;
        assert!((ma20_50 - 140.5).abs() < 1e-3, "20-day MA at d=50 is {ma20_50}");
    }

    #[test]
    fn no_future_leakage_in_features() {
        // Changing prices after end_day must not change the features.
        let mut p1 = toy_prices(60, 2);
        let x1 = window_features(&p1, 40, 8, 4);
        for d in 41..60 {
            for i in 0..2 {
                p1.data_mut()[d * 2 + i] = 9999.0;
            }
        }
        let x2 = window_features(&p1, 40, 8, 4);
        assert_eq!(x1, x2, "features must depend only on days ≤ end_day");
    }

    #[test]
    fn feature_count_selects_combination() {
        let p = toy_prices(60, 2);
        for nf in 1..=4 {
            let x = window_features(&p, 40, 4, nf);
            assert_eq!(x.dims(), &[4, 2, nf]);
        }
    }

    #[test]
    fn return_ratio_eq10() {
        let p = toy_prices(60, 2);
        let r = return_ratios(&p, 30);
        // p(31)/p(30) − 1 = 131/130 − 1 for stock 0.
        assert!((r.data()[0] - 1.0 / 130.0).abs() < 1e-6);
        assert!((r.data()[1] - 1.0 / 140.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "warm-up")]
    fn early_window_rejected() {
        let p = toy_prices(60, 2);
        let _ = window_features(&p, 10, 8, 4);
    }

    /// Per-combination warm-up gate: a window starting exactly at the
    /// minimum history for its feature count must work, and one day earlier
    /// must panic. n_features 2 and 3 only need the 5/10-day MAs.
    #[test]
    fn warmup_gate_is_per_feature_combination() {
        let p = toy_prices(60, 2);
        for nf in 1..=4 {
            let need = warmup_for(nf);
            let min_start = need - 1;
            let t_steps = 4;
            let end_ok = min_start + t_steps - 1;
            let x = window_features(&p, end_ok, t_steps, nf);
            assert_eq!(x.dims(), &[t_steps, 2, nf], "nf={nf} at minimal warm-up");
            assert!(x.data().iter().all(|v| v.is_finite()), "nf={nf}");
            if end_ok > 0 {
                let early = std::panic::catch_unwind(|| window_features(&p, end_ok - 1, t_steps, nf));
                assert!(early.is_err(), "nf={nf}: one day before warm-up must be rejected");
            }
        }
    }

    /// The gate must reflect the MA reach, not the full 20-day warm-up.
    #[test]
    fn warmup_for_matches_ma_windows() {
        assert_eq!(warmup_for(1), 1);
        assert_eq!(warmup_for(2), 5);
        assert_eq!(warmup_for(3), 10);
        assert_eq!(warmup_for(4), 20);
    }

    /// A 3-feature window needing only the 10-day MA computes fine at day
    /// 10 — the old gate demanded day ≥ 19 regardless of combination.
    #[test]
    fn shorter_combinations_accept_earlier_windows() {
        let p = toy_prices(60, 1);
        let x = window_features(&p, 10, 2, 3);
        // 10-day MA ending at day 10 of p(d) = 100 + d is 100 + 10 − 4.5.
        let anchor = 110.0;
        let ma10 = x.at(&[1, 0, 2]) * anchor;
        assert!((ma10 - 105.5).abs() < 1e-3, "10-day MA at d=10 is {ma10}");
    }

    /// `moving_average`'s history guard must fire in release builds too
    /// (it was a `debug_assert!` over an underflowing usize subtraction).
    #[test]
    #[should_panic(expected = "days of history")]
    fn moving_average_guard_is_a_real_assert() {
        let p = toy_prices(60, 1);
        // end_day = 4, t_steps = 1, nf = 2 passes the window gate (needs 5
        // days, has 5) — but calling the helper directly below warm-up must
        // panic with the message, not underflow.
        let _ = moving_average(&p, 3, 0, 5);
    }
}
