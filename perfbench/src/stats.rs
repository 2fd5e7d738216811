//! Exact statistics over raw samples, and the open-loop request driver.
//!
//! Percentiles here are nearest-rank order statistics of the recorded
//! samples, never histogram bucket bounds. A tail percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie above it; [`Summary::tail`]
//! holds the highest percentile the sample count supports.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank `q`-quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an ascending slice (mean of the two middle samples when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted samples (NaN, which no metric may report, when
/// there are none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    median_sorted(&sorted(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly above the nearest-rank `q`-quantile position.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder that `n` samples support.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Median, supported tail and sample count of one timing.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(q, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let p50 = if v.is_empty() {
            f64::NAN
        } else {
            median_sorted(&v)
        };
        let tail = supported_tail(v.len()).map(|q| (q, quantile(&v, q)));
        Summary {
            n: v.len(),
            p50,
            tail,
        }
    }

    /// `p99`-style label of the tail, or `-` when none is supported.
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((q, _)) => format!("p{}", (q * 100.0).round() as u32),
            None => "-".to_string(),
        }
    }
}

/// One request sent by [`drive_open_loop`].
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Latency from the request's due send time to the end of its reply.
    pub latency: Duration,
    /// How late the generator woke for a request it was idle for (its own
    /// scheduling error); `None` when the request was already overdue
    /// because an earlier reply held the generator (backlog, not lag).
    pub gen_lag: Option<Duration>,
    /// How far behind schedule the request was actually sent.
    pub send_delay: Duration,
}

/// Send request `i` at `start + dues[i]`, in order, on the calling thread.
///
/// Each latency runs from the due time, not the send time, so a stalled
/// reply also charges the requests that queued up behind it: coordinated
/// omission is counted, not hidden.
pub fn drive_open_loop<R>(
    start: Instant,
    dues: &[Duration],
    mut send: impl FnMut(usize) -> R,
) -> Vec<(Sent, R)> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        let mut gen_lag = None;
        let now = start.elapsed();
        if now < due {
            std::thread::sleep(due - now);
            gen_lag = Some(start.elapsed().saturating_sub(due));
        }
        let send_delay = start.elapsed().saturating_sub(due);
        let r = send(i);
        let latency = start.elapsed().saturating_sub(due);
        out.push((
            Sent {
                latency,
                gen_lag,
                send_delay,
            },
            r,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median_sorted(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50), (1000, 500.5));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(Summary::of(&v[..10]).tail_label(), "-");
    }

    #[test]
    fn one_stalled_reply_inflates_the_requests_queued_behind_it() {
        // Requests due every 5 ms; every reply is immediate except request
        // 3's, which stalls for 60 ms. Requests 4.. fell due during the
        // stall, so their latency from the due time must carry the wait.
        let dues: Vec<Duration> = (0..16).map(|i| Duration::from_millis(5 * i)).collect();
        let sent = drive_open_loop(Instant::now(), &dues, |i| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let lat: Vec<f64> = sent.iter().map(|(s, _)| ms(s.latency)).collect();
        assert!(lat[3] >= 60.0, "the stalled request itself: {lat:?}");
        assert!(
            lat[4] >= 50.0,
            "request 4 was due 5 ms into the stall: {lat:?}"
        );
        assert!(
            lat[10] >= 20.0,
            "request 10 was due 35 ms into the stall: {lat:?}"
        );
        for (s, _) in &sent[4..=10] {
            assert!(
                s.gen_lag.is_none(),
                "overdue sends are backlog, not generator lag"
            );
        }
        // Timed from the send instead, the queued request would look instant.
        let s4 = sent[4].0;
        assert!(ms(s4.latency - s4.send_delay) < 20.0);
    }
}
