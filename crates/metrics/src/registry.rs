//! The shard-per-thread metrics registry.
//!
//! Every thread that records gets its own shard (a small hash map behind
//! a mutex only that thread ever contends on); [`snapshot`] merges all
//! shards into one sorted, deterministic view. Counters and histogram
//! cells are exact `u64` arithmetic, so the merged totals are independent
//! of thread interleaving — the property the concurrent-writer proptests
//! pin against a serial replay.
//!
//! A shard lives as long as its thread: when the thread exits, its cells
//! are folded into one registry-owned retired map and the shard is
//! dropped, so a process that spawns short-lived recording threads (the
//! planning service's connection and job workers) holds a shard list as
//! long as its live thread count, not its thread history.
//!
//! Gauges are last-write-wins across shards, ordered by a global write
//! sequence (not wall time), so "last" is well defined even when two
//! shards hold a value for the same series.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Lock a mutex, absorbing poisoning: a panic on another thread must not
/// cascade into the observability layer (the data is still consistent —
/// every cell update is a single guarded mutation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the registry recording? One relaxed load — this is the whole cost
/// of an instrumentation site when metrics are off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off (off is the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Identity of one series: metric name plus sorted-as-given label pairs.
/// Label *names* are static (they are part of the schema); label values
/// are rendered per call.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    Key { name, labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect() }
}

#[derive(Clone)]
enum Cell {
    Counter(u64),
    Gauge { seq: u64, value: f64 },
    Hist { bounds: &'static [u64], counts: Vec<u64>, sum: u64, count: u64 },
}

#[derive(Default)]
struct Shard {
    cells: Mutex<HashMap<Key, Cell>>,
}

/// Every cell the registry holds, behind one lock: [`snapshot`] and a
/// retiring thread each hold it for their whole merge, so a scrape sees
/// a thread's cells exactly once — in its live shard or in `retired`.
#[derive(Default)]
struct Shards {
    /// One shard per live recording thread.
    live: Vec<Arc<Shard>>,
    /// The folded cells of every recording thread that has exited.
    retired: BTreeMap<Key, Cell>,
}

struct Registry {
    shards: Mutex<Shards>,
    gauge_seq: AtomicU64,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        shards: Mutex::new(Shards::default()),
        gauge_seq: AtomicU64::new(0),
    })
}

/// Fold `from` into `into` by the merge rules: counters and histogram
/// buckets add, a gauge keeps the write with the higher sequence. Cells
/// whose kinds disagree (a schema bug in the caller) keep `into`, as does
/// an older gauge write.
fn absorb(into: &mut Cell, from: &Cell) {
    match (into, from) {
        (Cell::Counter(total), Cell::Counter(v)) => *total = total.saturating_add(*v),
        (Cell::Gauge { seq: s, value: v }, Cell::Gauge { seq, value }) if *seq >= *s => {
            *s = *seq;
            *v = *value;
        }
        (
            Cell::Hist { counts: mc, sum: ms, count: mn, .. },
            Cell::Hist { counts, sum, count, .. },
        ) => {
            for (m, c) in mc.iter_mut().zip(counts.iter()) {
                *m = m.saturating_add(*c);
            }
            *ms = ms.saturating_add(*sum);
            *mn = mn.saturating_add(*count);
        }
        _ => {}
    }
}

/// A thread's handle on its shard; dropped by the thread-local's
/// destructor when the thread exits, which retires the shard.
struct ShardGuard(Arc<Shard>);

/// Fold one shard's cells into a merged map.
fn fold(into: &mut BTreeMap<Key, Cell>, cells: &HashMap<Key, Cell>) {
    for (k, cell) in cells {
        match into.get_mut(k) {
            Some(merged) => absorb(merged, cell),
            None => {
                into.insert(k.clone(), cell.clone());
            }
        }
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let mut shards = lock(&registry().shards);
        fold(&mut shards.retired, &lock(&self.0.cells));
        shards.live.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static LOCAL: std::cell::OnceCell<ShardGuard> = const { std::cell::OnceCell::new() };
}

fn with_shard(f: impl FnOnce(&Shard)) {
    // `try_with`: a record issued from another thread-local's destructor
    // after this thread's shard has retired is dropped, not a panic.
    let _ = LOCAL.try_with(|cell| {
        let guard = cell.get_or_init(|| {
            let shard = Arc::new(Shard::default());
            lock(&registry().shards).live.push(Arc::clone(&shard));
            ShardGuard(shard)
        });
        f(&guard.0);
    });
}

/// Add `delta` to a counter series. No-op while disabled.
pub fn counter_add(name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
    if !enabled() {
        return;
    }
    with_shard(|shard| {
        let mut cells = lock(&shard.cells);
        if let Cell::Counter(v) = cells.entry(key(name, labels)).or_insert(Cell::Counter(0)) {
            *v = v.saturating_add(delta);
        }
    });
}

/// Set a gauge series (last write wins, ordered by write sequence).
/// No-op while disabled.
pub fn gauge_set(name: &'static str, labels: &[(&'static str, &str)], value: f64) {
    if !enabled() {
        return;
    }
    let seq = registry().gauge_seq.fetch_add(1, Ordering::Relaxed);
    with_shard(|shard| {
        let mut cells = lock(&shard.cells);
        if let Cell::Gauge { seq: s, value: v } =
            cells.entry(key(name, labels)).or_insert(Cell::Gauge { seq, value })
        {
            if seq >= *s {
                *s = seq;
                *v = value;
            }
        }
    });
}

/// Record one observation in a fixed-bucket histogram series. `bounds`
/// must be strictly increasing upper bounds (`le` semantics; an implicit
/// `+Inf` bucket is appended). The first registration of a series fixes
/// its bounds. No-op while disabled.
pub fn observe(
    name: &'static str,
    labels: &[(&'static str, &str)],
    bounds: &'static [u64],
    value: u64,
) {
    if !enabled() {
        return;
    }
    with_shard(|shard| {
        let mut cells = lock(&shard.cells);
        let cell = cells.entry(key(name, labels)).or_insert_with(|| Cell::Hist {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        });
        if let Cell::Hist { bounds, counts, sum, count } = cell {
            let idx = bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len());
            if let Some(c) = counts.get_mut(idx) {
                *c = c.saturating_add(1);
            }
            *sum = sum.saturating_add(value);
            *count = count.saturating_add(1);
        }
    });
}

/// One merged series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Label pairs, in recording order.
    pub labels: Vec<(String, String)>,
    /// Merged value.
    pub value: SeriesValue,
}

/// The merged value of a series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Sum over shards.
    Counter(u64),
    /// Last write (by global write sequence) over shards.
    Gauge(f64),
    /// Element-wise sums over shards; `counts` has one entry per bound
    /// plus the trailing `+Inf` bucket.
    Histogram {
        /// Upper bounds (`le`), strictly increasing.
        bounds: Vec<u64>,
        /// Per-bucket observation counts.
        counts: Vec<u64>,
        /// Exact sum of all observed values.
        sum: u64,
        /// Total observations.
        count: u64,
    },
}

/// A deterministic, sorted view of every series across every shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Series sorted by `(name, labels)`.
    pub series: Vec<Series>,
}

/// Merge the retired cells and every live shard into a sorted snapshot.
/// Counters/histograms sum; gauges keep the highest-sequence write.
/// Series whose cell types disagree across shards (a schema bug in the
/// caller) keep the first kind seen and ignore the rest rather than
/// failing.
pub fn snapshot() -> Snapshot {
    let shards = lock(&registry().shards);
    let mut merged = shards.retired.clone();
    for shard in &shards.live {
        fold(&mut merged, &lock(&shard.cells));
    }
    drop(shards);
    let series = merged
        .into_iter()
        .map(|(k, v)| Series {
            name: k.name.to_string(),
            labels: k.labels.into_iter().map(|(n, val)| (n.to_string(), val)).collect(),
            value: match v {
                Cell::Counter(v) => SeriesValue::Counter(v),
                Cell::Gauge { value, .. } => SeriesValue::Gauge(value),
                Cell::Hist { bounds, counts, sum, count } => {
                    SeriesValue::Histogram { bounds: bounds.to_vec(), counts, sum, count }
                }
            },
        })
        .collect();
    Snapshot { series }
}

/// Clear every cell, live and retired (shard registrations survive —
/// threads keep their handle), and reset the gauge write sequence. Test
/// isolation.
pub fn reset() {
    let mut shards = lock(&registry().shards);
    for shard in &shards.live {
        lock(&shard.cells).clear();
    }
    shards.retired.clear();
    registry().gauge_seq.store(0, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry state is process-global; every test that records runs
    /// under this lock and starts from a clean slate.
    fn isolated(f: impl FnOnce()) {
        static GATE: Mutex<()> = Mutex::new(());
        let _guard = lock(&GATE);
        reset();
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    fn live_shards() -> usize {
        lock(&registry().shards).live.len()
    }

    fn counter_value(snap: &Snapshot, name: &str) -> u64 {
        snap.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => panic!("{name} is not a counter"),
            })
            .unwrap_or(0)
    }

    #[test]
    fn disabled_records_nothing() {
        isolated(|| {
            set_enabled(false);
            counter_add("off_total", &[], 5);
            gauge_set("off_gauge", &[], 1.0);
            observe("off_hist", &[], &[10], 3);
            set_enabled(true);
            assert!(snapshot().series.is_empty());
        });
    }

    #[test]
    fn counters_sum_across_threads() {
        isolated(|| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(|| {
                        for _ in 0..100 {
                            counter_add("threads_total", &[], 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().map_err(|_| "worker panicked").unwrap();
            }
            assert_eq!(counter_value(&snapshot(), "threads_total"), 400);
        });
    }

    #[test]
    fn exited_threads_retire_their_shards() {
        isolated(|| {
            // This thread's own shard is registered before the count.
            counter_add("retire_total", &[], 0);
            let before = live_shards();
            let bounds: &'static [u64] = &[10, 100];
            for round in 0..1250u64 {
                let handles: Vec<_> = (0..8u64)
                    .map(|t| {
                        std::thread::spawn(move || {
                            let id = round * 8 + t;
                            counter_add("retire_total", &[], 1);
                            observe("retire_hist", &[], bounds, id % 200);
                            gauge_set("retire_gauge", &[], id as f64);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().map_err(|_| "worker panicked").unwrap();
                }
                assert!(live_shards() <= before, "a joined thread left its shard behind");
            }
            let snap = snapshot();
            assert_eq!(counter_value(&snap, "retire_total"), 10_000);
            let hist = snap.series.iter().find(|s| s.name == "retire_hist").map(|s| &s.value);
            match hist {
                Some(SeriesValue::Histogram { counts, sum, count, .. }) => {
                    // 50 full cycles of 0..200: 11 values <= 10, 90 in (10, 100], 99 above.
                    assert_eq!(counts, &vec![550, 4500, 4950]);
                    assert_eq!(*sum, 50 * (199 * 200 / 2));
                    assert_eq!(*count, 10_000);
                }
                other => panic!("expected histogram, got {other:?}"),
            }
            // The retired gauge kept a real write, not a default.
            let gauge = snap.series.iter().find(|s| s.name == "retire_gauge").map(|s| &s.value);
            assert!(matches!(gauge, Some(SeriesValue::Gauge(v)) if (0.0..10_000.0).contains(v)));
        });
    }

    #[test]
    fn a_snapshot_during_retirement_equals_the_serial_total() {
        use std::sync::Barrier;
        isolated(|| {
            const THREADS: u64 = 32;
            for round in 1..=20u64 {
                // Every thread records, then all meet the barrier: from
                // there the total is fixed while the threads exit (and
                // retire) under the snapshots taken below.
                let recorded = Arc::new(Barrier::new(THREADS as usize + 1));
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let recorded = Arc::clone(&recorded);
                        std::thread::spawn(move || {
                            counter_add("race_total", &[], t + 1);
                            recorded.wait();
                        })
                    })
                    .collect();
                recorded.wait();
                let expected = round * THREADS * (THREADS + 1) / 2;
                while handles.iter().any(|h| !h.is_finished()) {
                    assert_eq!(counter_value(&snapshot(), "race_total"), expected);
                }
                for h in handles {
                    h.join().map_err(|_| "worker panicked").unwrap();
                }
                assert_eq!(counter_value(&snapshot(), "race_total"), expected);
            }
        });
    }

    #[test]
    fn labels_split_series() {
        isolated(|| {
            counter_add("lbl_total", &[("kind", "a")], 1);
            counter_add("lbl_total", &[("kind", "b")], 2);
            counter_add("lbl_total", &[("kind", "a")], 3);
            let snap = snapshot();
            let values: Vec<(String, u64)> = snap
                .series
                .iter()
                .map(|s| {
                    let v = match s.value {
                        SeriesValue::Counter(v) => v,
                        _ => 0,
                    };
                    (s.labels[0].1.clone(), v)
                })
                .collect();
            assert_eq!(values, vec![("a".to_string(), 4), ("b".to_string(), 2)]);
        });
    }

    #[test]
    fn gauge_last_write_wins() {
        isolated(|| {
            gauge_set("g", &[], 1.0);
            gauge_set("g", &[], 2.5);
            let snap = snapshot();
            assert_eq!(snap.series[0].value, SeriesValue::Gauge(2.5));
        });
    }

    #[test]
    fn histogram_buckets_sum_and_count_exactly() {
        isolated(|| {
            let bounds: &'static [u64] = &[10, 100];
            for v in [5u64, 7, 50, 1000] {
                observe("h", &[], bounds, v);
            }
            let snap = snapshot();
            match &snap.series[0].value {
                SeriesValue::Histogram { bounds, counts, sum, count } => {
                    assert_eq!(bounds, &vec![10, 100]);
                    assert_eq!(counts, &vec![2, 1, 1]);
                    assert_eq!(*sum, 1062);
                    assert_eq!(*count, 4);
                }
                other => panic!("expected histogram, got {other:?}"),
            }
        });
    }

    #[test]
    fn snapshot_is_sorted_and_reset_clears() {
        isolated(|| {
            counter_add("z_total", &[], 1);
            counter_add("a_total", &[], 1);
            let names: Vec<String> = snapshot().series.into_iter().map(|s| s.name).collect();
            assert_eq!(names, vec!["a_total", "z_total"]);
            reset();
            assert!(snapshot().series.is_empty());
        });
    }
}
