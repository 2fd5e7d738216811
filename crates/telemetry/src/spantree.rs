//! Hierarchical span-tree aggregation: turns the flat `path → SpanStat`
//! registry map into a tree ordered pre-order, with **self time** (total
//! minus the totals of direct children) computed per node. Self time is the
//! quantity profilers attribute work to — a parent that merely waits on its
//! children shows ~0 self time — and is what the collapsed-stack exporter
//! ([`crate::trace`]) and `rtgcn-report`'s span-level regression attribution
//! consume.
//!
//! The same subtraction applies to the per-span allocation totals gathered
//! by the tracking allocator ([`crate::alloc`]): `self_alloc_bytes` is the
//! bytes allocated under a path minus the bytes its direct children already
//! account for.
//!
//! Paths are slash-joined (`seed/fit/epoch/relational/spmm_batched`), and the
//! registry's `BTreeMap` iteration order — lexicographic on the path — *is*
//! a pre-order traversal of the tree ('/' sorts before every path character
//! used in span names), so no explicit tree structure is built.

use crate::with_registry;
use std::collections::BTreeMap;

/// One aggregated span-tree node: the flat registry stats for a path plus
/// the derived self quantities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanAgg {
    /// Full slash-joined span path, e.g. `seed/fit/epoch/relational`.
    pub path: String,
    /// Completions recorded under this exact path.
    pub count: u64,
    /// Total wall time of all completions, ns.
    pub total_ns: u64,
    /// `total_ns` minus the `total_ns` of direct children (saturating: a
    /// child that outlives a still-open parent at flush time cannot drive
    /// the parent negative).
    pub self_ns: u64,
    /// Bytes allocated on the owning thread while the span was open
    /// (0 unless `RTGCN_ALLOC_STATS=1`; see [`crate::alloc`]).
    pub alloc_bytes: u64,
    /// Bytes freed on the owning thread while the span was open.
    pub freed_bytes: u64,
    /// `alloc_bytes` minus direct children's `alloc_bytes` (saturating).
    pub self_alloc_bytes: u64,
}

impl SpanAgg {
    /// Depth in the tree (number of '/' separators in the path).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Leaf name (the segment after the last '/').
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Parent path of a slash-joined span path (`None` for roots).
pub fn parent_path(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(parent, _)| parent)
}

/// Compute self totals for a flat `path → total` map: each parent's self
/// value is its total minus the sum of its *direct* children's totals,
/// saturating at zero. Paths whose parent is absent from the map (a span
/// that never closed) are treated as roots — their total is not subtracted
/// from anything.
pub fn self_totals(totals: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut selfs = totals.clone();
    for (path, total) in totals {
        if let Some(parent) = parent_path(path) {
            if let Some(parent_self) = selfs.get_mut(parent) {
                *parent_self = parent_self.saturating_sub(*total);
            }
        }
    }
    selfs
}

/// Build the aggregated tree (pre-order) from `(path, count, total_ns,
/// alloc_bytes, freed_bytes)` rows. Rows may arrive in any order.
pub fn aggregate(rows: impl IntoIterator<Item = (String, u64, u64, u64, u64)>) -> Vec<SpanAgg> {
    let mut by_path: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for (path, count, total_ns, alloc, freed) in rows {
        let e = by_path.entry(path).or_insert((0, 0, 0, 0));
        e.0 += count;
        e.1 = e.1.saturating_add(total_ns);
        e.2 = e.2.saturating_add(alloc);
        e.3 = e.3.saturating_add(freed);
    }
    let time_totals: BTreeMap<String, u64> =
        by_path.iter().map(|(p, v)| (p.clone(), v.1)).collect();
    let alloc_totals: BTreeMap<String, u64> =
        by_path.iter().map(|(p, v)| (p.clone(), v.2)).collect();
    let self_ns = self_totals(&time_totals);
    let self_alloc = self_totals(&alloc_totals);
    by_path
        .into_iter()
        .map(|(path, (count, total_ns, alloc_bytes, freed_bytes))| SpanAgg {
            self_ns: self_ns.get(&path).copied().unwrap_or(total_ns),
            self_alloc_bytes: self_alloc.get(&path).copied().unwrap_or(alloc_bytes),
            path,
            count,
            total_ns,
            alloc_bytes,
            freed_bytes,
        })
        .collect()
}

/// Aggregate the calling thread's *current scope* registry into a tree.
pub fn snapshot_current() -> Vec<SpanAgg> {
    let rows: Vec<(String, u64, u64, u64, u64)> = with_registry(|r| {
        r.spans
            .lock()
            .iter()
            .map(|(p, st)| (p.clone(), st.count, st.total_ns, st.alloc_bytes, st.freed_bytes))
            .collect()
    });
    aggregate(rows)
}

/// Top `k` nodes by self time, descending (ties broken by path for
/// determinism). Zero-self nodes are skipped.
pub fn top_self(aggs: &[SpanAgg], k: usize) -> Vec<SpanAgg> {
    let mut v: Vec<SpanAgg> = aggs.iter().filter(|a| a.self_ns > 0).cloned().collect();
    v.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(spec: &[(&str, u64, u64)]) -> Vec<(String, u64, u64, u64, u64)> {
        spec.iter().map(|&(p, c, t)| (p.to_string(), c, t, 0, 0)).collect()
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let aggs = aggregate(rows(&[
            ("fit", 1, 100),
            ("fit/epoch", 2, 90),
            ("fit/epoch/loss", 2, 30),
            ("fit/epoch/backward", 2, 40),
        ]));
        let by: BTreeMap<&str, u64> = aggs.iter().map(|a| (a.path.as_str(), a.self_ns)).collect();
        assert_eq!(by["fit"], 10); // 100 − 90, grandchildren untouched
        assert_eq!(by["fit/epoch"], 20); // 90 − 30 − 40
        assert_eq!(by["fit/epoch/loss"], 30);
        assert_eq!(by["fit/epoch/backward"], 40);
    }

    #[test]
    fn orphan_child_does_not_underflow_parent() {
        // Child total exceeds parent total (parent still open at flush).
        let aggs = aggregate(rows(&[("a", 1, 10), ("a/b", 5, 25)]));
        let a = aggs.iter().find(|x| x.path == "a").unwrap();
        assert_eq!(a.self_ns, 0, "saturating, never wraps");
    }

    #[test]
    fn aggregation_order_is_preorder() {
        let aggs = aggregate(rows(&[
            ("fit/epoch2", 1, 1),
            ("fit", 1, 10),
            ("fit/epoch", 1, 1),
            ("fit/epoch/x", 1, 1),
        ]));
        let paths: Vec<&str> = aggs.iter().map(|a| a.path.as_str()).collect();
        // Children of fit/epoch sort before the sibling fit/epoch2.
        assert_eq!(paths, ["fit", "fit/epoch", "fit/epoch/x", "fit/epoch2"]);
    }

    #[test]
    fn top_self_ranks_descending_and_skips_zero() {
        let aggs = aggregate(rows(&[("a", 1, 50), ("a/b", 1, 50), ("c", 1, 30)]));
        let top = top_self(&aggs, 10);
        let paths: Vec<&str> = top.iter().map(|a| a.path.as_str()).collect();
        assert_eq!(paths, ["a/b", "c"]); // "a" has 0 self
    }

    #[test]
    fn alloc_self_mirrors_time_self() {
        let aggs = aggregate(vec![
            ("p".to_string(), 1, 10, 1000, 400),
            ("p/q".to_string(), 1, 5, 300, 100),
        ]);
        let p = aggs.iter().find(|a| a.path == "p").unwrap();
        assert_eq!(p.alloc_bytes, 1000);
        assert_eq!(p.self_alloc_bytes, 700);
        assert_eq!(p.freed_bytes, 400);
    }
}
