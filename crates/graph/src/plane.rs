//! Per-time-plane state for the streaming time-sensitive adjacency
//! (DESIGN.md §14).
//!
//! The time-sensitive strategy (Eq. 5) scales each relation edge's learned
//! importance by the feature correlation `⟨x_i, x_j⟩/√d` *per time plane*.
//! In batch mode every forward recomputes all `T` planes from the window
//! tensor; on the streaming path only the newest day is new — the other
//! `T − 1` planes were already seen. [`TimePlaneCache`] stores the **raw**
//! (pre-anchor-normalisation) per-edge inner products for every generated
//! day, so a day-advance refreshes exactly one plane, and a window's
//! correlation factor is assembled by rescaling cached dots with the
//! window-end anchors:
//!
//! ```text
//! ⟨x_i, x_j⟩/√d = rawdot_e(day) / (anchor_i · anchor_j · √d)
//! ```
//!
//! because anchor normalisation divides stock `i`'s features by a per-stock
//! scalar.
//!
//! ## Edge-set swaps
//!
//! The dots are held as one series per edge, aligned with the edge list.
//! [`TimePlaneCache::set_edges`] (relation add/drop events) moves each
//! surviving edge's series to its new position, dots only the edges it
//! does not already hold over the stored raw history, and drops the rest:
//! O(E + days·ΔE·d) for ΔE new edges. A dropped series is never resumed —
//! it would miss the days its edge was absent — so a re-added edge is a
//! new edge.
//!
//! ## Parity contract
//!
//! [`TimePlaneCache::push_day`], [`TimePlaneCache::from_history`] and
//! [`TimePlaneCache::set_edges`] compute every cached value through the
//! same pure per-(day, edge) dot, so streamed, swapped and rebuilt caches
//! are bit-identical. Against the direct `edge_dot_batched` path (which
//! dots *normalised* features) the assembled correlations agree to float
//! tolerance only — the division happens in a different place.

use rtgcn_tensor::Tensor;
use std::collections::BTreeMap;

/// Raw per-edge feature inner products for every generated day, refreshed
/// one plane per day-advance; an edge-set swap dots only the new edges.
#[derive(Clone, Debug)]
pub struct TimePlaneCache {
    n: usize,
    d: usize,
    /// Directed relation edges the series are aligned with.
    edges: Vec<[usize; 2]>,
    days: usize,
    /// Raw feature history `(day, stock, feature)` row-major — kept so an
    /// edge added by a relation event can be dotted over every day.
    raw_hist: Vec<f32>,
    /// One raw inner-product series per edge, `series[e][day]`; every
    /// series holds exactly `days` values.
    series: Vec<Vec<f32>>,
}

impl TimePlaneCache {
    /// Empty cache over `n` stocks with `d` raw features per stock-day.
    pub fn new(n: usize, d: usize, edges: Vec<[usize; 2]>) -> Self {
        assert!(d > 0, "need at least one feature");
        for e in &edges {
            assert!(e[0] < n && e[1] < n, "edge {e:?} out of range for n={n}");
        }
        let series = vec![Vec::new(); edges.len()];
        TimePlaneCache { n, d, edges, days: 0, raw_hist: Vec::new(), series }
    }

    /// Batch rebuild from a full raw-feature history, `(days, n, d)`
    /// row-major. The parity reference: pushing the same rows one at a time
    /// yields a bit-identical cache.
    pub fn from_history(n: usize, d: usize, edges: Vec<[usize; 2]>, raw: &[f32]) -> Self {
        assert_eq!(raw.len() % (n * d), 0, "raw history must be whole days");
        let mut c = TimePlaneCache::new(n, d, edges);
        for row in raw.chunks_exact(n * d) {
            c.push_day(row);
        }
        c
    }

    pub fn days(&self) -> usize {
        self.days
    }

    pub fn n_stocks(&self) -> usize {
        self.n
    }

    pub fn n_features(&self) -> usize {
        self.d
    }

    pub fn edges(&self) -> &[[usize; 2]] {
        &self.edges
    }

    /// Raw dot of one edge on one day's raw feature row — the single pure
    /// function every cached value goes through.
    fn dot(raw_row: &[f32], [s, t]: [usize; 2], d: usize) -> f32 {
        let mut acc = 0.0f32;
        for f in 0..d {
            acc += raw_row[s * d + f] * raw_row[t * d + f];
        }
        acc
    }

    /// Ingest the next day's raw features (`n × d` row-major): appends one
    /// dot to every edge's series. O(E·d) — only the newest plane is
    /// touched.
    pub fn push_day(&mut self, raw_row: &[f32]) {
        assert_eq!(raw_row.len(), self.n * self.d, "raw row must be n×d");
        refresh_counter().inc(1);
        for (series, &edge) in self.series.iter_mut().zip(&self.edges) {
            series.push(Self::dot(raw_row, edge, self.d));
        }
        self.raw_hist.extend_from_slice(raw_row);
        self.days += 1;
    }

    /// Swap in a new directed edge set (after relation add/drop events).
    /// Edges already held keep their series, looked up by edge rather than
    /// by position; only new edges are dotted over the stored raw history.
    /// O(E + days·ΔE·d) for ΔE new edges, paid only on mutation days. A
    /// duplicated edge takes the held series once and is re-dotted after.
    pub fn set_edges(&mut self, edges: Vec<[usize; 2]>) {
        for e in &edges {
            assert!(e[0] < self.n && e[1] < self.n, "edge {e:?} out of range for n={}", self.n);
        }
        rebuild_counter().inc(1);
        let mut held: BTreeMap<[usize; 2], Vec<f32>> =
            self.edges.iter().copied().zip(std::mem::take(&mut self.series)).collect();
        let (rows, d) = (self.raw_hist.chunks_exact(self.n * self.d), self.d);
        self.series = edges
            .iter()
            .map(|&edge| {
                held.remove(&edge)
                    .unwrap_or_else(|| rows.clone().map(|row| Self::dot(row, edge, d)).collect())
            })
            .collect();
        self.edges = edges;
    }

    /// Assemble the `(t_steps, E)` correlation factor for the window ending
    /// at `end_day`, given the per-stock window-end anchors (each stock's
    /// feature divisor) and the `√d` scale of Eq. 5.
    pub fn corr_window(
        &self,
        end_day: usize,
        t_steps: usize,
        anchors: &[f32],
        scale: f32,
    ) -> Tensor {
        assert!(end_day < self.days, "day {end_day} not ingested yet (have {})", self.days);
        assert!(end_day + 1 >= t_steps, "window of {t_steps} steps cannot end at day {end_day}");
        assert_eq!(anchors.len(), self.n, "one anchor per stock");
        let e_count = self.edges.len();
        let start = end_day + 1 - t_steps;
        let mut out = Tensor::zeros([t_steps, e_count]);
        let data = out.data_mut();
        for (e, (&[s, dst], series)) in self.edges.iter().zip(&self.series).enumerate() {
            let denom = anchors[s] * anchors[dst] * scale;
            for (t, &v) in series[start..start + t_steps].iter().enumerate() {
                data[t * e_count + e] = v / denom;
            }
        }
        out
    }
}

fn refresh_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("stream.plane.refresh"))
}

fn rebuild_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("stream.plane.rebuild"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_raw(days: usize, n: usize, d: usize) -> Vec<f32> {
        (0..days * n * d).map(|i| ((i * 37 + 11) % 23) as f32 * 0.5 - 4.0).collect()
    }

    fn series_bits(c: &TimePlaneCache) -> Vec<Vec<u32>> {
        c.series.iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// Every cached dot through the public read path: unit anchors and
    /// scale over the full history (division by 1.0 is exact).
    fn window_bits(c: &TimePlaneCache) -> Vec<u32> {
        let ones = vec![1.0; c.n_stocks()];
        let window = c.corr_window(c.days() - 1, c.days(), &ones, 1.0);
        window.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn incremental_equals_batch_rebuild_bitwise() {
        let (n, d) = (4, 3);
        let raw = toy_raw(30, n, d);
        let edges = vec![[0, 1], [1, 0], [2, 3], [3, 2], [0, 3], [3, 0]];
        let batch = TimePlaneCache::from_history(n, d, edges.clone(), &raw);
        let mut inc = TimePlaneCache::new(n, d, edges);
        for row in raw.chunks_exact(n * d) {
            inc.push_day(row);
        }
        assert_eq!(inc.days(), batch.days());
        assert_eq!(series_bits(&inc), series_bits(&batch));
    }

    #[test]
    fn edge_mutation_rebuild_matches_fresh_cache_bitwise() {
        // Each case swaps in its edge sets in turn, starting from `base`
        // over 20 days, with two days pushed before every swap and one after
        // the last, so swaps land at different history lengths (all longer
        // than a model window).
        let (n, d) = (5, 2);
        let base = [[0, 1], [1, 0], [2, 3], [3, 2]];
        let cases: [(&str, &[&[[usize; 2]]]); 7] = [
            ("add", &[&[[0, 1], [1, 0], [2, 3], [3, 2], [2, 4], [4, 2]]]),
            ("drop", &[&[[2, 3], [3, 2]]]),
            ("add and drop in one swap", &[&[[1, 4], [4, 1], [2, 3], [3, 2]]]),
            ("reorder", &[&[[3, 2], [2, 3], [1, 0], [0, 1]]]),
            ("duplicate", &[&[[0, 1], [2, 3], [0, 1], [1, 0], [2, 3], [3, 2]]]),
            ("through the empty set", &[&[], &[[0, 4], [4, 0]]]),
            ("re-add", &[&[[0, 1], [1, 0]], &[[0, 1], [1, 0], [2, 3], [3, 2]]]),
        ];
        let raw = toy_raw(40, n, d);
        let day = |k: usize| &raw[k * n * d..(k + 1) * n * d];
        for (name, swaps) in cases {
            let mut cache = TimePlaneCache::from_history(n, d, base.to_vec(), &raw[..20 * n * d]);
            for edges in swaps {
                for _ in 0..2 {
                    cache.push_day(day(cache.days()));
                }
                cache.set_edges(edges.to_vec());
            }
            cache.push_day(day(cache.days()));
            let last = swaps[swaps.len() - 1].to_vec();
            let fresh = TimePlaneCache::from_history(n, d, last, &raw[..cache.days() * n * d]);
            assert_eq!(cache.edges(), fresh.edges(), "{name}: edges");
            assert_eq!(series_bits(&cache), series_bits(&fresh), "{name}: series");
            assert_eq!(window_bits(&cache), window_bits(&fresh), "{name}: corr_window");
        }
    }

    #[test]
    fn corr_window_matches_direct_normalised_dots() {
        // rawdot/(a_s·a_d·scale) must equal dotting anchor-normalised
        // features directly, to float tolerance.
        let (n, d) = (3, 4);
        let raw = toy_raw(12, n, d);
        let edges = vec![[0, 2], [2, 0], [1, 2], [2, 1]];
        let cache = TimePlaneCache::from_history(n, d, edges.clone(), &raw);
        let end_day = 9;
        let t_steps = 4;
        let anchors: Vec<f32> = (0..n).map(|i| 1.5 + i as f32).collect();
        let scale = (d as f32).sqrt();
        let got = cache.corr_window(end_day, t_steps, &anchors, scale);
        assert_eq!(got.dims(), &[t_steps, edges.len()]);
        for t in 0..t_steps {
            let day = end_day + 1 - t_steps + t;
            for (e, &[s, dst]) in edges.iter().enumerate() {
                let mut dot = 0.0f32;
                for f in 0..d {
                    let xs = raw[(day * n + s) * d + f] / anchors[s];
                    let xd = raw[(day * n + dst) * d + f] / anchors[dst];
                    dot += xs * xd;
                }
                let want = dot / scale;
                let have = got.at(&[t, e]);
                assert!(
                    (have - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "plane {t} edge {e}: {have} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not ingested")]
    fn window_past_history_rejected() {
        let cache = TimePlaneCache::from_history(2, 1, vec![[0, 1]], &toy_raw(5, 2, 1));
        let _ = cache.corr_window(5, 2, &[1.0, 1.0], 1.0);
    }
}
