//! `rtgcn-telemetry`: a zero-dependency tracing + metrics layer for the
//! RT-GCN workspace (std + the in-repo `parking_lot`/`serde` shims only).
//!
//! Five primitives share one registry per *scope*:
//!
//! - **Spans** — hierarchical RAII timers. [`span`] pushes onto a
//!   thread-local stack; dropping the guard records `(count, total, min,
//!   max)` under the slash-joined path (`fit/epoch/relational`).
//!   [`debug_span`] is identical but only active at [`Level::Debug`], which
//!   is what the per-call tensor-kernel instrumentation uses so that
//!   `RTGCN_LOG=off`/`summary` keep hot loops cheap.
//! - **Counters** — named `u64`s ([`count`], or a cached [`Counter`]
//!   handle for hot paths).
//! - **Histograms** — fixed log-spaced bucket latency histograms
//!   ([`record_ns`]); percentiles are estimated as the upper bound of the
//!   bucket containing the target rank.
//! - **Series** — named per-epoch (or per-day) scalar time series recorded
//!   with [`gauge`]: each point is `(index, value)`, readable back in memory
//!   via [`series_points`] and streamed to the JSONL sink as
//!   `kind = "series"` events. The training-health monitor ([`health`])
//!   records its per-epoch diagnostics (loss components, gradient/weight
//!   norms) through this API.
//! - **Warnings** — [`warn`] prints to stderr and emits a JSONL event; used
//!   for degenerate-but-not-fatal conditions (zero-epoch fits, empty splits).
//!
//! Aggregated state can also be rendered as a Prometheus text-exposition
//! dump with [`render_prometheus`] (counters, histograms, span totals and
//! latest series values in one scrapeable string).
//!
//! # Scopes
//!
//! All of the free functions above resolve against the calling thread's
//! *current scope*: a `(registry, sink)` pair. By default every thread uses
//! the process-wide **root scope**, which is what serial harnesses and tests
//! see — the historical global-registry behaviour. A [`ModelScope`] is an
//! isolated scope a worker thread can [`ModelScope::enter`] for the duration
//! of one model's job, so concurrent models record into disjoint registries
//! and disjoint JSONL sinks instead of interleaving. Handles that hot paths
//! cache in `static`s ([`Counter`], returned by [`counter`]) re-resolve by
//! name on every operation, so one cached handle counts into whichever scope
//! the calling thread currently has entered.
//!
//! Two sinks per scope:
//!
//! - a human-readable **span-tree summary** rendered to stderr by
//!   [`print_summary`] (and automatically when the [`Telemetry`] guard from
//!   [`init_harness`] drops);
//! - a machine-readable **JSONL event stream** ([`Event`] per line) written
//!   through [`install_file_sink`] / [`install_memory_sink`].
//!
//! The level comes from `RTGCN_LOG=off|summary|debug` (default `off` for
//! library/test use; [`init_harness`] defaults to `summary` when the
//! variable is unset so experiment binaries are observable out of the box).

pub mod alloc;
pub mod health;
pub mod http;
mod prometheus;
pub mod spantree;
pub mod trace;

pub use prometheus::{render_prometheus, render_prometheus_all};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------- levels

/// Verbosity, ordered: `Off < Summary < Debug`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// All telemetry disabled; spans/counters are no-ops.
    Off = 0,
    /// Coarse spans (epochs, phases, per-day scoring), counters, warnings.
    Summary = 1,
    /// Everything, including per-call kernel spans.
    Debug = 2,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "summary" | "1" | "info" => Some(Level::Summary),
            "debug" | "2" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Current level; reads `RTGCN_LOG` once and caches it in an atomic.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        2 => Level::Debug,
        _ => init_level_from_env(Level::Off),
    }
}

fn init_level_from_env(default: Level) -> Level {
    let l = std::env::var("RTGCN_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(default);
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Force the level (tests, or programmatic override of `RTGCN_LOG`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

#[inline]
pub fn enabled(l: Level) -> bool {
    level() >= l
}

// ---------------------------------------------------------------- registry

#[derive(Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Bytes allocated on the recording thread while spans under this path
    /// were open (0 unless `RTGCN_ALLOC_STATS=1`; see [`alloc`]).
    alloc_bytes: u64,
    /// Bytes freed on the recording thread while spans under this path
    /// were open.
    freed_bytes: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64, alloc_bytes: u64, freed_bytes: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = if self.count == 1 { ns } else { self.min_ns.min(ns) };
        self.max_ns = self.max_ns.max(ns);
        self.alloc_bytes = self.alloc_bytes.saturating_add(alloc_bytes);
        self.freed_bytes = self.freed_bytes.saturating_add(freed_bytes);
    }
}

pub(crate) struct Registry {
    pub(crate) spans: Mutex<BTreeMap<String, SpanStat>>,
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    pub(crate) series: Mutex<BTreeMap<String, Vec<SeriesPoint>>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            spans: Mutex::new(BTreeMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
        }
    }
}

// ---------------------------------------------------------------- scopes

/// One telemetry scope: a metric registry plus an optional JSONL sink.
pub(crate) struct ScopeInner {
    pub(crate) registry: Registry,
    sink: Mutex<Option<SinkTarget>>,
    /// Outstanding [`ScopeGuard`]s across all threads — the enter/exit
    /// balance the debug-build order/leak checker audits.
    active_enters: AtomicU64,
    /// Buffered Chrome-trace events for this scope (see [`trace`]).
    pub(crate) trace: Mutex<trace::TraceBuf>,
    /// `(harness, model)` labels captured from `meta` events; name the
    /// scope's trace/folded export files.
    pub(crate) labels: Mutex<(String, String)>,
}

impl ScopeInner {
    fn new() -> ScopeInner {
        ScopeInner {
            registry: Registry::new(),
            sink: Mutex::new(None),
            active_enters: AtomicU64::new(0),
            trace: Mutex::new(trace::TraceBuf::default()),
            labels: Mutex::new((String::new(), String::new())),
        }
    }
}

/// The process-wide default scope (the historical global registry/sink).
fn root_scope() -> &'static Arc<ScopeInner> {
    static ROOT: OnceLock<Arc<ScopeInner>> = OnceLock::new();
    ROOT.get_or_init(|| Arc::new(ScopeInner::new()))
}

// ------------------------------------------------------------- live scopes

/// Weak handles to every [`ModelScope`] ever created, pruned of dead scopes
/// on registration. The monitor server ([`http`]) walks this list to render
/// `/metrics` and `/spans` over *live* runs — registries of in-flight model
/// jobs, not just whatever scope the server thread happens to be in.
static LIVE_SCOPES: Mutex<Vec<Weak<ScopeInner>>> = Mutex::new(Vec::new());

fn register_scope(scope: &Arc<ScopeInner>) {
    let mut v = LIVE_SCOPES.lock();
    v.retain(|w| w.strong_count() > 0);
    v.push(Arc::downgrade(scope));
}

/// Every live model scope, in creation order (root scope not included).
pub(crate) fn live_scopes() -> Vec<Arc<ScopeInner>> {
    LIVE_SCOPES.lock().iter().filter_map(Weak::upgrade).collect()
}

/// `(model label, scope)` for the root scope plus every live model scope —
/// the snapshot surface the monitor endpoints render. The root scope comes
/// first with an empty label (while a [`test_scope`] guard lives, that
/// test's own scope stands in for it); model scopes carry the label
/// captured from their `meta` events (empty until the harness emits one).
pub(crate) fn snapshot_scopes() -> Vec<(String, Arc<ScopeInner>)> {
    let root = TEST_ROOT.lock().clone().unwrap_or_else(|| Arc::clone(root_scope()));
    let mut out = vec![(String::new(), root)];
    for s in live_scopes() {
        let label = s.labels.lock().1.clone();
        out.push((label, s));
    }
    out
}

thread_local! {
    /// Stack of scopes this thread has entered; empty = root scope.
    static CURRENT_SCOPE: RefCell<Vec<Arc<ScopeInner>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` against the calling thread's current scope (root by default).
/// Tolerates TLS teardown (`try_with`): telemetry recorded from a thread's
/// destructors falls back to the root scope instead of panicking.
fn with_scope<R>(f: impl FnOnce(&ScopeInner) -> R) -> R {
    let current = CURRENT_SCOPE.try_with(|c| c.borrow().last().cloned()).ok().flatten();
    match current {
        Some(s) => f(&s),
        None => f(root_scope()),
    }
}

/// Crate-internal alias so sibling modules ([`trace`]) can reach the
/// current scope without re-exporting `ScopeInner` details.
pub(crate) fn with_scope_inner<R>(f: impl FnOnce(&ScopeInner) -> R) -> R {
    with_scope(f)
}

pub(crate) fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> R {
    with_scope(|s| f(&s.registry))
}

/// An isolated telemetry scope — its own registry and its own JSONL sink —
/// for running concurrent per-model jobs without interleaving metrics.
///
/// A worker thread makes the scope current with [`ModelScope::enter`]; every
/// span/counter/histogram/series/warn recorded on that thread until the
/// returned guard drops lands in this scope instead of the root scope. The
/// handle is `Clone` (cheap `Arc`) and `Send + Sync`, so the same scope can
/// be entered from several worker threads (e.g. two seeds of one model
/// running in parallel share one per-model registry and log file).
///
/// Call [`ModelScope::finish`] after the last job completes to flush the
/// aggregate span/counter/histogram events into the scope's sink and close
/// it — the per-model analogue of what the [`Telemetry`] guard does for the
/// root scope on drop.
#[derive(Clone)]
pub struct ModelScope {
    inner: Arc<ScopeInner>,
}

impl Default for ModelScope {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelScope {
    /// A fresh scope with an empty registry and no sink. The scope is
    /// registered with the process-wide live-scope list so the monitor
    /// server can snapshot it while jobs are still running.
    pub fn new() -> ModelScope {
        let inner = Arc::new(ScopeInner::new());
        register_scope(&inner);
        ModelScope { inner }
    }

    /// Route this scope's events to a JSONL file (parents are created).
    pub fn install_file_sink(&self, path: &Path) -> std::io::Result<()> {
        install_file_sink_for(&self.inner, path)
    }

    /// Route this scope's events to an in-memory buffer (tests).
    pub fn install_memory_sink(&self) {
        *self.inner.sink.lock() = Some(SinkTarget::Memory(Vec::new()));
    }

    /// Drain this scope's in-memory sink (empty for a file sink / no sink).
    pub fn drain_memory_sink(&self) -> Vec<String> {
        match self.inner.sink.lock().as_mut() {
            Some(SinkTarget::Memory(lines)) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }

    /// Write one event directly to this scope's sink (run metadata headers).
    pub fn emit(&self, event: &Event) {
        emit_for(&self.inner, event);
    }

    /// Make this scope current on the calling thread until the guard drops.
    pub fn enter(&self) -> ScopeGuard {
        self.inner.active_enters.fetch_add(1, Ordering::AcqRel);
        CURRENT_SCOPE.with(|c| c.borrow_mut().push(Arc::clone(&self.inner)));
        ScopeGuard { entered: Arc::clone(&self.inner), _not_send: std::marker::PhantomData }
    }

    /// Flush this scope's cumulative aggregate events into its sink and
    /// keep the sink open, for a scope that later jobs re-enter. Each flush
    /// publishes the totals so far; readers keep the last record per name.
    pub fn flush(&self) {
        flush_aggregates_for(&self.inner);
    }

    /// Flush this scope's aggregate events into its sink, then close the
    /// sink if it is a file (a memory sink stays installed so tests can
    /// still [`ModelScope::drain_memory_sink`] after finishing).
    ///
    /// In debug builds this audits the enter/exit balance first: a `finish`
    /// while some worker still holds a [`ScopeGuard`] means aggregates are
    /// being flushed mid-write, so a `telemetry.scope_leak` warn event lands
    /// in this scope's own sink (never a panic — the pool must keep
    /// draining).
    pub fn finish(&self) {
        if cfg!(debug_assertions) {
            let active = self.inner.active_enters.load(Ordering::Acquire);
            if active > 0 {
                let msg = format!(
                    "finish() called with {active} ScopeGuard(s) still active — a worker \
                     thread has not exited this scope, its metrics may be flushed mid-write"
                );
                if enabled(Level::Summary) {
                    eprintln!("[rtgcn-telemetry] WARN telemetry.scope_leak: {msg}");
                }
                emit_for(&self.inner, &Event::warn("telemetry.scope_leak", &msg));
                // Also scrapeable: the leak must show up as a counter in
                // `/metrics`, not only as a one-shot warn line.
                self.inner
                    .registry
                    .counters
                    .lock()
                    .entry("telemetry.scope_leak".to_string())
                    .or_default()
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        flush_aggregates_for(&self.inner);
        trace::write_exports_for(&self.inner);
        let mut sink = self.inner.sink.lock();
        if matches!(sink.as_ref(), Some(SinkTarget::File(_))) {
            if let Some(SinkTarget::File(mut w)) = sink.take() {
                let _ = w.flush();
            }
        }
    }
}

/// Returned by [`ModelScope::enter`]; restores the previous scope on drop.
/// `!Send` by construction — it must drop on the thread that entered.
pub struct ScopeGuard {
    /// The scope this guard entered — checked against what actually pops.
    entered: Arc<ScopeInner>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let popped = CURRENT_SCOPE.try_with(|c| c.borrow_mut().pop()).ok().flatten();
        // One decrement per guard, paired with the increment in `enter`.
        self.entered.active_enters.fetch_sub(1, Ordering::AcqRel);
        // Debug-build order check: guards must unwind LIFO. Dropping them
        // out of order silently mis-routes every metric recorded between
        // the two drops, so name the condition loudly — but never panic in
        // Drop (a panic here would abort if we are already unwinding).
        if cfg!(debug_assertions) {
            let in_order = matches!(&popped, Some(s) if Arc::ptr_eq(s, &self.entered));
            if !in_order {
                warn(
                    "telemetry.scope_order",
                    "ScopeGuard dropped out of LIFO order — metrics recorded on this \
                     thread may be attributed to the wrong model scope",
                );
            }
        }
    }
}

/// Clear the current scope's aggregated state (between per-model runs, and
/// in tests). Counters are zeroed in place rather than removed so that
/// previously observed names keep reporting 0 via [`counter_value`];
/// histogram and series entries are dropped. [`Counter`] handles re-resolve
/// by name per operation, so cached handles keep working across resets.
///
/// # Contract
///
/// `reset()` races with every other registry/sink operation on the same
/// scope: called on the root scope while another thread is mid-assertion
/// on it, it makes that thread's state vanish. Telemetry-asserting tests
/// therefore take [`test_scope`], which serialises them and gives each its
/// own registry, so neither a `reset()` nor the recordings of tests running
/// alongside reach another test's assertions. Production callers
/// ([`begin_model_run`], the parallel runner's per-model [`ModelScope`]s)
/// operate on disjoint scopes and are exempt.
pub fn reset() {
    with_registry(|r| {
        r.spans.lock().clear();
        for c in r.counters.lock().values() {
            c.store(0, Ordering::Relaxed);
        }
        r.hists.lock().clear();
        r.series.lock().clear();
    });
}

// ---------------------------------------------------------------- test lock

static TEST_GATE: Mutex<()> = Mutex::new(());

/// The scope of the test currently holding [`test_scope`], if any. The
/// monitor endpoints render it in place of the root scope.
static TEST_ROOT: Mutex<Option<Arc<ScopeInner>>> = Mutex::new(None);

/// Guard returned by [`test_lock`]/[`test_scope`]. On drop it leaves the
/// test's own scope (if any), then releases the process-wide telemetry test
/// mutex. `!Send`: it must drop on the thread that took it.
pub struct TestGuard {
    scope: Option<(ModelScope, ScopeGuard)>,
    _gate: parking_lot::MutexGuard<'static, ()>,
}

impl TestGuard {
    /// The test's own scope ([`test_scope`] guards only). Threads the test
    /// spawns record into the root scope unless they
    /// [`ModelScope::enter`] this one.
    pub fn scope(&self) -> Option<&ModelScope> {
        self.scope.as_ref().map(|(scope, _)| scope)
    }
}

impl Drop for TestGuard {
    fn drop(&mut self) {
        if self.scope.take().is_some() {
            *TEST_ROOT.lock() = None;
        }
    }
}

/// Acquire the process-wide lock that serialises tests mutating global
/// telemetry state (the level, the root registry and sink, the health
/// board, the trace directory). See the contract on [`reset`].
pub fn test_lock() -> TestGuard {
    TestGuard { scope: None, _gate: TEST_GATE.lock() }
}

/// [`test_lock`] plus the standard test preamble: set `level`, then give
/// the calling thread a fresh registry of its own, with an in-memory sink,
/// until the guard drops. Every free function on this thread (`count`,
/// `series_points`, `drain_memory_sink`, `reset`, ...) resolves to it, so
/// telemetry that tests without the lock record concurrently (their fits
/// see the raised level too) lands in the root scope instead of this
/// test's assertions.
pub fn test_scope(level: Level) -> TestGuard {
    let gate = TEST_GATE.lock();
    set_level(level);
    let scope = ModelScope { inner: Arc::new(ScopeInner::new()) };
    scope.install_memory_sink();
    *TEST_ROOT.lock() = Some(Arc::clone(&scope.inner));
    let entered = scope.enter();
    TestGuard { scope: Some((scope, entered)), _gate: gate }
}

// ---------------------------------------------------------------- spans

thread_local! {
    /// Stack of active span paths on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    path: String,
    start: Instant,
    /// Thread-local allocation counter snapshots at open (0 when the
    /// tracking allocator is disabled; see [`alloc`]).
    alloc0: u64,
    freed0: u64,
}

/// RAII span timer. Created by [`span`]/[`debug_span`]; records into the
/// current scope's registry on drop. Inactive guards (level too low) cost
/// one atomic load and carry no clock read.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    const INACTIVE: SpanGuard = SpanGuard(None);

    fn open(name: &str) -> SpanGuard {
        let path = SPAN_STACK
            .try_with(|s| {
                let mut s = s.borrow_mut();
                let path = match s.last() {
                    Some(parent) => format!("{parent}/{name}"),
                    None => name.to_string(),
                };
                s.push(path.clone());
                path
            })
            // TLS teardown: record as a root span without a stack frame.
            .unwrap_or_else(|_| name.to_string());
        let (alloc0, freed0) =
            if alloc::tracking_enabled() { alloc::thread_counters() } else { (0, 0) };
        trace::record_begin(&path);
        SpanGuard(Some(ActiveSpan { path, start: Instant::now(), alloc0, freed0 }))
    }

    /// Elapsed time so far (zero for inactive guards).
    pub fn elapsed(&self) -> Duration {
        self.0.as_ref().map(|a| a.start.elapsed()).unwrap_or(Duration::ZERO)
    }

    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(ActiveSpan { path, start, alloc0, freed0 }) = self.0.take() else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (alloc_bytes, freed_bytes) = if alloc::tracking_enabled() {
            let (a1, f1) = alloc::thread_counters();
            (a1.wrapping_sub(alloc0), f1.wrapping_sub(freed0))
        } else {
            (0, 0)
        };
        // This drop also runs during unwind (`catch_unwind` pool jobs): the
        // elapsed time must still land in the registry, the trace `E` event
        // must still close its `B`, and the stack must never be left with a
        // stale frame — hence `try_with` (no panic across TLS teardown) and
        // the out-of-order-tolerant pop below.
        let _ = SPAN_STACK.try_with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own frame; tolerate out-of-order drops defensively.
            if s.last() == Some(&path) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|p| p == &path) {
                s.remove(pos);
            }
        });
        trace::record_end(&path);
        with_registry(|r| {
            r.spans.lock().entry(path.clone()).or_default().record(ns, alloc_bytes, freed_bytes)
        });
        if enabled(Level::Debug) {
            emit(&Event::span(&path, 1, ns));
        }
    }
}

/// Open a span, active at `Summary` and above.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if enabled(Level::Summary) {
        SpanGuard::open(name)
    } else {
        SpanGuard::INACTIVE
    }
}

/// Open a span that is only active at `Debug` (per-call kernel timing).
#[inline]
pub fn debug_span(name: &str) -> SpanGuard {
    if enabled(Level::Debug) {
        SpanGuard::open(name)
    } else {
        SpanGuard::INACTIVE
    }
}

// ---------------------------------------------------------------- counters

/// Cached handle to a named counter; cheap to clone and `inc` from hot
/// loops. The handle stores the *name* and resolves it against the calling
/// thread's current scope on every operation, so a handle cached in a
/// `static` at a kernel call site counts into whichever [`ModelScope`] the
/// thread has entered (and into the root scope otherwise).
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
}

impl Counter {
    #[inline]
    pub fn inc(&self, n: u64) {
        if enabled(Level::Summary) {
            with_registry(|r| {
                let mut map = r.counters.lock();
                match map.get(&*self.name) {
                    Some(c) => {
                        c.fetch_add(n, Ordering::Relaxed);
                    }
                    None => {
                        map.insert(self.name.to_string(), Arc::new(AtomicU64::new(n)));
                    }
                }
            });
        }
    }

    /// Current value in the calling thread's scope (0 if never touched).
    pub fn get(&self) -> u64 {
        counter_value(&self.name)
    }
}

/// Look up (or create) the named counter in the current scope.
pub fn counter(name: &str) -> Counter {
    with_registry(|r| {
        r.counters.lock().entry(name.to_string()).or_default();
    });
    Counter { name: Arc::from(name) }
}

/// One-shot increment; prefer a cached [`Counter`] in hot paths.
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled(Level::Summary) {
        with_registry(|r| {
            let mut map = r.counters.lock();
            match map.get(name) {
                Some(c) => {
                    c.fetch_add(n, Ordering::Relaxed);
                }
                None => {
                    map.insert(name.to_string(), Arc::new(AtomicU64::new(n)));
                }
            }
        });
    }
}

/// Level-gate-free increment, the counter analogue of [`warn`]: failure
/// signals (dropped trace events, journal write failures, scope leaks)
/// must stay scrapeable via the monitor's `/metrics` even at `Level::Off`.
/// Use [`count`] for ordinary volume metrics.
pub fn count_always(name: &str, n: u64) {
    with_registry(|r| {
        let mut map = r.counters.lock();
        match map.get(name) {
            Some(c) => {
                c.fetch_add(n, Ordering::Relaxed);
            }
            None => {
                map.insert(name.to_string(), Arc::new(AtomicU64::new(n)));
            }
        }
    });
}

/// Read a counter's current value (0 if it was never touched).
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| {
        r.counters.lock().get(name).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    })
}

// ---------------------------------------------------------------- histograms

/// Number of log-spaced buckets: bounds are `FIRST_BOUND_NS << i`, plus a
/// final catch-all at `u64::MAX`.
pub(crate) const HIST_BUCKETS: usize = 40;
const FIRST_BOUND_NS: u64 = 64;

/// Fixed-bucket latency histogram. Bucket `i` counts samples with
/// `ns <= FIRST_BOUND_NS << i`; percentile estimates return the upper bound
/// of the bucket holding the target rank (≤ 2× overestimate by design).
pub struct Histogram {
    pub(crate) buckets: [AtomicU64; HIST_BUCKETS + 1],
    count: AtomicU64,
    pub(crate) sum_ns: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Upper bound (ns) of bucket `i`.
    pub(crate) fn bound(i: usize) -> u64 {
        if i >= HIST_BUCKETS {
            u64::MAX
        } else {
            FIRST_BOUND_NS << i
        }
    }

    fn bucket_index(ns: u64) -> usize {
        (0..HIST_BUCKETS).find(|&i| ns <= Self::bound(i)).unwrap_or(HIST_BUCKETS)
    }

    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Estimated `q`-quantile in ns. `q` is clamped into `[0, 1]` (so
    /// `q = -3.0` behaves like `q = 0.0` and `q = 7.0` like `q = 1.0`);
    /// `q = NaN` and empty histograms return 0 rather than panicking or
    /// picking a garbage bucket.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 || q.is_nan() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..=HIST_BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bound(i);
            }
        }
        Self::bound(HIST_BUCKETS)
    }
}

/// Look up (or create) the named histogram in the current scope.
pub fn histogram(name: &str) -> Arc<Histogram> {
    with_registry(|r| {
        let mut map = r.hists.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    })
}

/// Record one latency sample into the named histogram (`Summary` and above).
#[inline]
pub fn record_ns(name: &str, ns: u64) {
    if enabled(Level::Summary) {
        histogram(name).record(ns);
    }
}

// ---------------------------------------------------------------- series

/// One `(index, value)` sample of a named scalar time series. `index` is the
/// caller's ordinal (epoch number, test-day number); values are whatever
/// scalar the series tracks (loss, gradient norm, cumulative IRR, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    pub index: u64,
    pub value: f64,
}

/// Record one point of the named scalar series (`Summary` and above): the
/// point is appended to the current scope's registry (readable with
/// [`series_points`]) and streamed to the scope's JSONL sink as a `series`
/// event with `count = index` and `value = value`.
pub fn gauge(name: &str, index: u64, value: f64) {
    if !enabled(Level::Summary) {
        return;
    }
    with_registry(|r| {
        r.series
            .lock()
            .entry(name.to_string())
            .or_default()
            .push(SeriesPoint { index, value });
    });
    emit(&Event::series(name, index, value));
}

/// Read back every recorded point of the named series (empty if unknown).
/// Points appear in recording order; [`gauge`] callers that use a
/// monotonically increasing `index` (the health monitor's epoch counter)
/// therefore read back monotone indices.
pub fn series_points(name: &str) -> Vec<SeriesPoint> {
    with_registry(|r| r.series.lock().get(name).cloned().unwrap_or_default())
}

/// Names of all series recorded since the last [`reset`], sorted.
pub fn series_names() -> Vec<String> {
    with_registry(|r| r.series.lock().keys().cloned().collect())
}

// ---------------------------------------------------------------- events

/// One JSONL line. A flat schema (no `Option`s, no nesting) keeps every
/// consumer — including `grep`/`jq` one-liners — trivial:
///
/// - `kind = "span"`: `count` completions totalling `total_ns` under `name`.
/// - `kind = "counter"`: counter `name` reached `count`.
/// - `kind = "hist"`: histogram `name` with `count` samples and
///   `p50_ns`/`p95_ns`/`p99_ns` estimates (`total_ns` carries the sum).
/// - `kind = "series"`: one point of scalar series `name` — ordinal in
///   `count`, sample in `value` (NaN serialises as `null`).
/// - `kind = "health"`: end-of-fit training-health record — model in `name`,
///   verdict in `msg`, epochs observed in `count`, final loss in `value`.
/// - `kind = "warn"`: warning code in `name`, text in `msg`.
/// - `kind = "meta"`: run metadata (harness/model labels) in `name`/`msg`.
///
/// Unused numeric fields are 0, unused strings empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    pub ts_ms: u64,
    pub kind: String,
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub value: f64,
    pub msg: String,
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

impl Event {
    fn blank(kind: &str, name: &str) -> Event {
        Event {
            ts_ms: now_ms(),
            kind: kind.to_string(),
            name: name.to_string(),
            count: 0,
            total_ns: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            value: 0.0,
            msg: String::new(),
        }
    }

    pub fn span(path: &str, count: u64, total_ns: u64) -> Event {
        Event { count, total_ns, ..Event::blank("span", path) }
    }

    pub fn counter(name: &str, value: u64) -> Event {
        Event { count: value, ..Event::blank("counter", name) }
    }

    pub fn series(name: &str, index: u64, value: f64) -> Event {
        Event { count: index, value, ..Event::blank("series", name) }
    }

    pub fn warn(code: &str, msg: &str) -> Event {
        Event { msg: msg.to_string(), ..Event::blank("warn", code) }
    }

    pub fn meta(key: &str, value: &str) -> Event {
        Event { msg: value.to_string(), ..Event::blank("meta", key) }
    }
}

enum SinkTarget {
    File(BufWriter<std::fs::File>),
    Memory(Vec<String>),
}

fn install_file_sink_for(scope: &ScopeInner, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    *scope.sink.lock() = Some(SinkTarget::File(BufWriter::new(file)));
    Ok(())
}

fn close_sink_for(scope: &ScopeInner) {
    if let Some(SinkTarget::File(mut w)) = scope.sink.lock().take() {
        let _ = w.flush();
    }
}

fn emit_for(scope: &ScopeInner, event: &Event) {
    // `meta` events carry the run labels the trace exporters name files by.
    if event.kind == "meta" {
        let mut labels = scope.labels.lock();
        match event.name.as_str() {
            "harness" => labels.0 = event.msg.clone(),
            "model" => labels.1 = event.msg.clone(),
            _ => {}
        }
    }
    let Ok(line) = serde_json::to_string(event) else { return };
    match scope.sink.lock().as_mut() {
        Some(SinkTarget::File(w)) => {
            let _ = writeln!(w, "{line}");
        }
        Some(SinkTarget::Memory(lines)) => lines.push(line),
        None => {}
    }
}

/// Fold the scope's span-level allocation attribution into `alloc.*`
/// counters (set, not add — flushes and summaries may both publish). Root
/// spans already transitively contain their children's bytes, so summing
/// them gives the scope's total without double counting; the peak is the
/// process-global high-water mark (see the caveats on [`alloc`]).
fn publish_alloc_counters_for(scope: &ScopeInner) {
    if !alloc::tracking_enabled() {
        return;
    }
    let (allocated, freed) = {
        let spans = scope.registry.spans.lock();
        spans
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .fold((0u64, 0u64), |(a, f), (_, st)| {
                (a.saturating_add(st.alloc_bytes), f.saturating_add(st.freed_bytes))
            })
    };
    let mut counters = scope.registry.counters.lock();
    for (name, value) in [
        ("alloc.bytes_allocated", allocated),
        ("alloc.bytes_freed", freed),
        ("alloc.peak_live_bytes", alloc::peak_live_bytes()),
        ("alloc.large", alloc::large_allocs()),
    ] {
        counters.entry(name.to_string()).or_default().store(value, Ordering::Relaxed);
    }
}

fn flush_aggregates_for(scope: &ScopeInner) {
    publish_alloc_counters_for(scope);
    let r = &scope.registry;
    for (path, st) in r.spans.lock().iter() {
        emit_for(scope, &Event::span(path, st.count, st.total_ns));
    }
    for (name, c) in r.counters.lock().iter() {
        let v = c.load(Ordering::Relaxed);
        if v > 0 {
            emit_for(scope, &Event::counter(name, v));
        }
    }
    for (name, h) in r.hists.lock().iter() {
        emit_for(
            scope,
            &Event {
                count: h.count(),
                total_ns: h.sum_ns.load(Ordering::Relaxed),
                p50_ns: h.percentile(0.50),
                p95_ns: h.percentile(0.95),
                p99_ns: h.percentile(0.99),
                ..Event::blank("hist", name)
            },
        );
    }
    if let Some(SinkTarget::File(w)) = scope.sink.lock().as_mut() {
        let _ = w.flush();
    }
}

/// Route the current scope's events to a JSONL file (parent directories are
/// created). Replaces any previously installed sink on that scope.
pub fn install_file_sink(path: &Path) -> std::io::Result<()> {
    with_scope(|s| install_file_sink_for(s, path))
}

/// Route the current scope's events to an in-memory buffer (tests).
pub fn install_memory_sink() {
    with_scope(|s| {
        *s.sink.lock() = Some(SinkTarget::Memory(Vec::new()));
    });
}

/// Drain the current scope's in-memory sink (empty for a file sink/no sink).
pub fn drain_memory_sink() -> Vec<String> {
    with_scope(|s| match s.sink.lock().as_mut() {
        Some(SinkTarget::Memory(lines)) => std::mem::take(lines),
        _ => Vec::new(),
    })
}

/// Flush and remove the current scope's sink.
pub fn close_sink() {
    with_scope(close_sink_for);
}

/// Write one event to the current scope's sink (no-op without a sink).
pub fn emit(event: &Event) {
    with_scope(|s| emit_for(s, event));
}

/// Emit a warning: stderr at `Summary`+, and always a JSONL event so
/// degenerate conditions are machine-visible even at `off`.
pub fn warn(code: &str, msg: &str) {
    if enabled(Level::Summary) {
        eprintln!("[rtgcn-telemetry] WARN {code}: {msg}");
    }
    emit(&Event::warn(code, msg));
}

/// Write aggregate span/counter/histogram events to the current scope's
/// sink and flush it. Called between per-model runs and by the [`Telemetry`]
/// guard on drop.
pub fn flush_aggregates() {
    with_scope(flush_aggregates_for);
}

// ---------------------------------------------------------------- summary

fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Human-readable byte count (`1.5KiB`, `2.3MiB`, ...).
fn format_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b < KIB {
        format!("{b}B")
    } else if b < KIB * KIB {
        format!("{:.1}KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    }
}

/// Render the current scope's aggregated span tree (hierarchical, with per
/// node **self time** = total minus direct children), counters and
/// histogram percentiles as human-readable text (what [`print_summary`]
/// writes to stderr). With `RTGCN_ALLOC_STATS=1` each span row gains a
/// self-allocated-bytes column.
pub fn render_summary() -> String {
    with_scope(publish_alloc_counters_for);
    let aggs = spantree::snapshot_current();
    let show_alloc = alloc::tracking_enabled();
    with_registry(|r| {
        let mut out = String::new();
        if !aggs.is_empty() {
            out.push_str(if show_alloc {
                "span tree (total | self | mean | count | self-alloc):\n"
            } else {
                "span tree (total | self | mean | count):\n"
            });
            for a in &aggs {
                let mean = a.total_ns.checked_div(a.count).unwrap_or(0);
                out.push_str(&format!(
                    "{:indent$}{:<28} {:>9} | {:>9} | {:>9} | {}",
                    "",
                    a.name(),
                    format_ns(a.total_ns),
                    format_ns(a.self_ns),
                    format_ns(mean),
                    a.count,
                    indent = 2 * a.depth(),
                ));
                if show_alloc {
                    out.push_str(&format!(" | {}", format_bytes(a.self_alloc_bytes)));
                }
                out.push('\n');
            }
        }
        let counters = r.counters.lock();
        let live: Vec<_> = counters
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .filter(|&(_, v)| v > 0)
            .collect();
        drop(counters);
        if !live.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in live {
                out.push_str(&format!("  {name:<34} {v}\n"));
            }
        }
        let hists = r.hists.lock();
        if !hists.is_empty() {
            out.push_str("latency histograms (p50 / p95 / p99 | n):\n");
            for (name, h) in hists.iter() {
                out.push_str(&format!(
                    "  {name:<34} {} / {} / {} | {}\n",
                    format_ns(h.percentile(0.50)),
                    format_ns(h.percentile(0.95)),
                    format_ns(h.percentile(0.99)),
                    h.count(),
                ));
            }
        }
        drop(hists);
        let series = r.series.lock();
        if !series.is_empty() {
            out.push_str("series (last | n):\n");
            for (name, points) in series.iter() {
                let last = points.last().map(|p| p.value).unwrap_or(f64::NAN);
                out.push_str(&format!("  {name:<34} {last:.6} | {}\n", points.len()));
            }
        }
        out
    })
}

/// Write [`render_summary`] to stderr (no-op when there is nothing to show).
pub fn print_summary() {
    let s = render_summary();
    if !s.is_empty() {
        eprintln!("─── rtgcn-telemetry summary ───");
        eprint!("{s}");
        eprintln!("───────────────────────────────");
    }
}

// ---------------------------------------------------------------- build info

/// `(unix start seconds, monotonic start)` of this process, captured on
/// first use. [`init_harness`] touches it early so the value approximates
/// true process start; scrapes read it for `rtgcn_process_start_time_seconds`
/// and the uptime gauge.
fn process_start() -> &'static (u64, Instant) {
    static START: OnceLock<(u64, Instant)> = OnceLock::new();
    START.get_or_init(|| (now_ms() / 1000, Instant::now()))
}

/// Unix timestamp (seconds) this process started, best effort.
pub fn process_start_unix_secs() -> u64 {
    process_start().0
}

/// Seconds since [`process_start_unix_secs`] was first captured.
pub fn process_uptime_secs() -> f64 {
    process_start().1.elapsed().as_secs_f64()
}

/// Crate version baked into the binary (`CARGO_PKG_VERSION`).
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Short git hash captured at build time by `build.rs` (`"unknown"` when
/// the build ran outside a git checkout).
pub fn build_git_hash() -> &'static str {
    option_env!("RTGCN_GIT_HASH").unwrap_or("unknown")
}

// ---------------------------------------------------------------- harness init

/// RAII handle returned by [`init_harness`]: on drop, flushes aggregate
/// events to the JSONL sink and (at `Summary`+) prints the span-tree summary
/// to stderr.
pub struct Telemetry {
    _private: (),
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        // Stop serving before the final flush so a scrape racing harness
        // exit never reads a half-flushed registry.
        http::shutdown_monitor();
        flush_aggregates();
        if enabled(Level::Summary) {
            print_summary();
        }
        // Export any trace/folded profile the final scope still buffers
        // (serial harnesses: the last model's spans live in the root scope).
        with_scope(trace::write_exports_for);
        close_sink();
    }
}

/// Sanitise a harness/model label into a filename fragment.
pub fn sanitize_label(label: &str) -> String {
    let mut out: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c.to_ascii_lowercase() } else { '-' })
        .collect();
    while out.contains("--") {
        out = out.replace("--", "-");
    }
    out.trim_matches('-').to_string()
}

/// JSONL path for one (harness, model) run: `<dir>/run-<harness>-<model>.jsonl`.
pub fn run_log_path(dir: &Path, harness: &str, model: &str) -> PathBuf {
    dir.join(format!("run-{}-{}.jsonl", sanitize_label(harness), sanitize_label(model)))
}

/// Initialise telemetry for an experiment binary: resolves the level from
/// `RTGCN_LOG` (defaulting to `Summary` rather than `Off` — harnesses are
/// observable unless explicitly silenced), installs a JSONL file sink at
/// `<log_dir>/run-<harness>.jsonl`, and emits a `meta` event naming the
/// harness. Returns the guard that flushes + prints on drop.
pub fn init_harness(harness: &str, log_dir: &Path) -> Telemetry {
    if LEVEL.load(Ordering::Relaxed) == LEVEL_UNSET {
        init_level_from_env(Level::Summary);
    }
    alloc::init_from_env();
    trace::init_from_env();
    let _ = process_start();
    let path = log_dir.join(format!("run-{}.jsonl", sanitize_label(harness)));
    if let Err(e) = install_file_sink(&path) {
        eprintln!("[rtgcn-telemetry] cannot open JSONL sink {}: {e}", path.display());
    }
    emit(&Event::meta("harness", harness));
    // Live observability: RTGCN_MONITOR=<addr> starts the read-only HTTP
    // monitor for the duration of the harness (shut down when this guard
    // drops).
    http::start_monitor_from_env();
    Telemetry { _private: () }
}

/// Swap the current scope's JSONL sink to a per-model file
/// (`run-<harness>-<model>.jsonl`), flushing the aggregates gathered so far
/// into the previous sink and resetting the registry so each model's stats
/// stand alone. This is the *serial* per-model scope used by harnesses that
/// run one model at a time on the main thread; concurrent runners use one
/// [`ModelScope`] per model instead.
pub fn begin_model_run(log_dir: &Path, harness: &str, model: &str) {
    flush_aggregates();
    // Export the previous model's trace before `reset` clears its spans.
    with_scope(trace::write_exports_for);
    reset();
    let path = run_log_path(log_dir, harness, model);
    if let Err(e) = install_file_sink(&path) {
        eprintln!("[rtgcn-telemetry] cannot open JSONL sink {}: {e}", path.display());
    }
    emit(&Event::meta("harness", harness));
    emit(&Event::meta("model", model));
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("summary"), Some(Level::Summary));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn sanitized_labels_are_filename_safe() {
        assert_eq!(sanitize_label("RT-GCN (T)"), "rt-gcn-t");
        assert_eq!(sanitize_label("Rank_LSTM"), "rank_lstm");
        assert_eq!(
            run_log_path(Path::new("results/logs"), "table4_baselines", "RT-GCN (U)"),
            PathBuf::from("results/logs/run-table4_baselines-rt-gcn-u.jsonl")
        );
    }

    #[test]
    fn histogram_bucketing_is_monotone() {
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(64), 0);
        assert_eq!(Histogram::bucket_index(65), 1);
        assert!(Histogram::bucket_index(u64::MAX) == HIST_BUCKETS);
        for i in 0..HIST_BUCKETS {
            assert!(Histogram::bound(i) < Histogram::bound(i + 1));
        }
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_500_000), "2.5ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn entered_scope_isolates_metrics_from_root() {
        let _g = test_scope(Level::Summary);
        count("scope.unit.root", 1);
        let scope = ModelScope::new();
        scope.install_memory_sink();
        {
            let _e = scope.enter();
            count("scope.unit.inner", 5);
            gauge("scope.unit.series", 0, 1.5);
            assert_eq!(counter_value("scope.unit.inner"), 5);
            // The root counter is invisible from inside the scope.
            assert_eq!(counter_value("scope.unit.root"), 0);
        }
        // Back on the root scope: inner metrics stayed in the model scope.
        assert_eq!(counter_value("scope.unit.inner"), 0);
        assert_eq!(counter_value("scope.unit.root"), 1);
        scope.finish();
        let lines = scope.drain_memory_sink();
        assert!(lines.iter().any(|l| l.contains("scope.unit.inner")), "{lines:?}");
        assert!(!lines.iter().any(|l| l.contains("scope.unit.root")), "{lines:?}");
    }

    #[test]
    fn cached_counter_handle_follows_the_current_scope() {
        let _g = test_scope(Level::Summary);
        let handle = counter("scope.unit.cached");
        handle.inc(2);
        let scope = ModelScope::new();
        {
            let _e = scope.enter();
            handle.inc(40);
            assert_eq!(handle.get(), 40);
        }
        assert_eq!(handle.get(), 2);
    }

    #[test]
    fn scope_enter_is_reentrant_across_threads() {
        let _g = test_scope(Level::Summary);
        let scope = ModelScope::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = scope.clone();
                std::thread::spawn(move || {
                    let _e = s.enter();
                    for _ in 0..100 {
                        count("scope.unit.shared", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let _e = scope.enter();
        assert_eq!(counter_value("scope.unit.shared"), 400);
    }
}
