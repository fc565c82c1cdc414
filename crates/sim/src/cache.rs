//! Cross-candidate (and, since the planning service, cross-*request*)
//! artifact caches for tuner sweeps.
//!
//! [`SweepCaches`] memoizes every pure artifact a sweep derives from its
//! candidates: schedule shapes (each built schedule with its lowered
//! program and deadlock verdict, see [`Shape`]), cost tables, static
//! memory replays, critical-path bounds, prefetch windows and
//! pipeline-group simulation reports. Each cache is keyed by the
//! *complete* set of inputs its artifact is a pure function of, so a hit
//! returns byte-for-byte what the miss path would have computed and worker
//! interleaving (which thread populates an entry first) cannot perturb a
//! ranking.
//!
//! The caches come in two tiers. A [`ShapeTier`] holds what a schedule
//! shape alone determines — the shapes and their prefetch windows, keyed
//! by `(scheme, P, B)` (plus the lookahead) — which depends on neither the
//! model nor the cluster. Everything else is the per-configuration tier
//! inside [`SweepCaches`], which sits over one shape tier: its own by
//! default, or one that many configurations share
//! ([`SweepCaches::over`]), as the planning service does.
//!
//! Two properties were added when the caches started outliving a single
//! sweep inside a resident `hanayo-serve` process:
//!
//! * **Explicit poison recovery.** A panicking writer used to degrade a
//!   cache to rebuild-on-every-probe (`lock().ok()` fallbacks); now the
//!   lock is recovered explicitly — every cached value is a pure function
//!   of its key and every write is a single `insert`, so the state behind
//!   a poisoned lock is never torn — and the recovery is counted once per
//!   cache in `hanayo_tuner_cache_poisonings_total`.
//! * **Bounded size.** [`SweepCaches::bounded`] and [`ShapeTier::bounded`]
//!   cap each cache at a fixed entry count with FIFO eviction (counted in
//!   `hanayo_tuner_cache_evictions_total`), so a resident process cannot
//!   grow without limit. Sub-cluster content ids come from a monotonic
//!   counter, never from map sizes, so an evicted sub-cluster's id is
//!   never reissued and a stale memo entry can never alias a fresh one.

use crate::engine::{lower_windows, CompiledSchedule, SimOptions};
use crate::report::SimReport;
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::Schedule;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::program::{Program, ProgramError};
use hanayo_core::schedule::{build_schedule, ScheduleError};
use hanayo_model::{CostTable, ModelConfig, Recompute};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One registry increment per cache probe, disabled-path cost a single
/// relaxed load. Hit/miss totals are deterministic under serial sweeps.
/// A parallel sweep runs each resolved schedule shape in one task, so the
/// caches keyed by the shape (`schedules`, `peaks`, `compiled`, `reports`)
/// are probed by one executor in serial order. Only `costs` and
/// `sub_clusters`, which tasks share, may split differently between hit
/// and miss (whichever executor populates first), which is why the
/// golden exposition pins the serial path. The `schedules`/`compiled`
/// split is deterministic per CLI sweep, whose shape tier is its own, but
/// not across a service's concurrent sweeps: they share one shape tier,
/// and whichever sweep reaches a shape first records its miss.
fn record_cache(cache: &'static str, hit: bool) {
    if hanayo_metrics::enabled() {
        let name =
            if hit { "hanayo_tuner_cache_hits_total" } else { "hanayo_tuner_cache_misses_total" };
        hanayo_metrics::counter_add(name, &[("cache", cache)], 1);
    }
}

fn record_eviction(cache: &'static str, n: u64) {
    if n > 0 && hanayo_metrics::enabled() {
        hanayo_metrics::counter_add("hanayo_tuner_cache_evictions_total", &[("cache", cache)], n);
    }
}

/// A mutex-protected map with first-writer-wins inserts, FIFO eviction at
/// a fixed capacity, and explicit poison recovery.
pub(crate) struct BoundedMap<K, V> {
    label: &'static str,
    cap: usize,
    poisoned: AtomicBool,
    inner: Mutex<Inner<K, V>>,
}

struct Inner<K, V> {
    map: HashMap<K, V>,
    /// Insertion order, for FIFO eviction. Only keys actually inserted
    /// are pushed, so the queue length tracks the map exactly.
    order: VecDeque<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedMap<K, V> {
    pub(crate) fn new(label: &'static str, cap: usize) -> BoundedMap<K, V> {
        BoundedMap {
            label,
            cap: cap.max(1),
            poisoned: AtomicBool::new(false),
            inner: Mutex::new(Inner { map: HashMap::new(), order: VecDeque::new() }),
        }
    }

    /// Acquire the lock, recovering explicitly from poisoning. Recovery
    /// is sound here because every value is a pure function of its key
    /// and every write path is a single non-tearing `insert`: the worst
    /// a panicked writer leaves behind is a missing entry, which the
    /// next miss rebuilds. The first recovery per map is counted.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                if !self.poisoned.swap(true, Ordering::SeqCst) && hanayo_metrics::enabled() {
                    hanayo_metrics::counter_add(
                        "hanayo_tuner_cache_poisonings_total",
                        &[("cache", self.label)],
                        1,
                    );
                }
                poisoned.into_inner()
            }
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().map.get(key).cloned()
    }

    /// Insert unless present; either way return the entry the map holds
    /// afterwards (first writer wins, so concurrent inserters agree).
    /// Evicts oldest-inserted entries once the capacity is reached.
    pub(crate) fn insert_if_absent(&self, key: K, value: V) -> V {
        let mut inner = self.lock();
        if let Some(hit) = inner.map.get(&key) {
            return hit.clone();
        }
        self.push(&mut inner, key, value.clone());
        value
    }

    /// The entry under `key`, built by `build` on a miss; the probe counts
    /// as a hit or a miss of this cache.
    pub(crate) fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(&key) {
            record_cache(self.label, true);
            return hit;
        }
        record_cache(self.label, false);
        self.insert_if_absent(key, build())
    }

    /// The key of an entry whose value `same` accepts or, failing that, of
    /// the entry `fresh` makes. The probe and the insert share one lock,
    /// so concurrent callers agree on one key per value.
    pub(crate) fn find_or_insert(
        &self,
        same: impl Fn(&V) -> bool,
        fresh: impl FnOnce() -> (K, V),
    ) -> K {
        let mut inner = self.lock();
        if let Some(key) = inner.map.iter().find_map(|(k, v)| same(v).then(|| k.clone())) {
            return key;
        }
        let (key, value) = fresh();
        self.push(&mut inner, key.clone(), value);
        key
    }

    /// Insert a key known to be absent, evicting oldest-inserted entries
    /// once the capacity is reached.
    fn push(&self, inner: &mut Inner<K, V>, key: K, value: V) {
        let mut evicted = 0u64;
        while inner.map.len() >= self.cap {
            match inner.order.pop_front() {
                Some(old) => {
                    inner.map.remove(&old);
                    evicted += 1;
                }
                None => break,
            }
        }
        record_eviction(self.label, evicted);
        inner.map.insert(key.clone(), value);
        inner.order.push_back(key);
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }
}

/// Cache key of a built schedule: the only inputs schedule lowering takes.
pub(crate) type SchedKey = (Scheme, u32, u32);
/// Cache key of a cost table (the model is fixed per sweep):
/// `(stages, micro_batch_size, recompute)`.
pub(crate) type CostKey = (u32, u32, Recompute);
/// Everything a span-free group simulation's report is a function of:
/// the schedule shape, the cost table, the prefetch switch, the receive
/// lookahead and the *content* of the group's sub-cluster. The
/// sub-cluster enters as its content id ([`SweepCaches::sub_cluster_id`])
/// rather than its position, so groups whose devices and links match up
/// to node labels share one report. Each lookahead keeps its own entry;
/// a deeper one that a lookahead-1 run proves equal is filed without a
/// simulation (see [`crate::tuner`]).
pub(crate) type ReportKey = (SchedKey, CostKey, bool, usize, u32);
/// Everything a group's critical path is a function of: the schedule
/// shape, the cost table and the sub-cluster's content id. Prefetching and
/// the receive lookahead only add waiting, so every simulator variant of a
/// group shares one bound.
pub(crate) type BoundKey = (SchedKey, CostKey, u32);

pub(crate) fn report_key(
    schedule_key: SchedKey,
    cost_key: CostKey,
    sim: &SimOptions,
    sub_cluster: u32,
) -> ReportKey {
    (schedule_key, cost_key, sim.prefetch, sim.recv_lookahead, sub_cluster)
}

/// Everything derived from a schedule shape alone: the built schedule,
/// its [`Program`] (lowered once, when the shape is built, and shared by
/// the prefetch windows of every lookahead), and its deadlock verdict.
pub(crate) struct Shape {
    pub(crate) schedule: Schedule,
    pub(crate) program: Arc<Result<Program, ProgramError>>,
    deadlock_free: OnceLock<bool>,
}

impl Shape {
    pub(crate) fn new(schedule: Schedule) -> Shape {
        let program = Arc::new(Program::lower(&schedule));
        Shape { schedule, program, deadlock_free: OnceLock::new() }
    }

    /// [`hanayo_analyze::check_deadlock_free`]'s verdict on the schedule:
    /// it lowers, and its happens-before replay leaves no device waiting.
    /// Replayed at most once per shape.
    pub(crate) fn deadlock_free(&self) -> bool {
        *self.deadlock_free.get_or_init(|| {
            self.program.as_ref().as_ref().is_ok_and(|p| p.check_deadlock().is_ok())
        })
    }
}

/// The shape tier: every artifact a schedule shape alone determines — the
/// built schedules, each with its lowered program and deadlock verdict,
/// and their prefetch windows per lookahead. Each entry is a
/// pure function of its `(scheme, P, B)` key (plus the lookahead), so
/// one tier can serve any number of models and clusters at once; see
/// [`SweepCaches`]' sharing contract.
pub struct ShapeTier {
    /// Schedule shapes.
    pub(crate) schedules: BoundedMap<SchedKey, Arc<Shape>>,
    /// Prefetch windows, keyed by the shape and the `recv_lookahead`
    /// they were scanned with, each over its shape's one [`Program`].
    pub(crate) compiled: BoundedMap<(SchedKey, usize), Arc<CompiledSchedule>>,
}

impl Default for ShapeTier {
    /// An unbounded tier, as one sweep's own.
    fn default() -> ShapeTier {
        ShapeTier::bounded(usize::MAX)
    }
}

impl ShapeTier {
    /// A tier whose two caches hold at most `per_cache_entries` entries
    /// each, FIFO-evicted.
    pub fn bounded(per_cache_entries: usize) -> ShapeTier {
        ShapeTier {
            schedules: BoundedMap::new("schedules", per_cache_entries),
            compiled: BoundedMap::new("compiled", per_cache_entries),
        }
    }

    /// Entries currently held: shapes plus prefetch windows.
    pub fn entries(&self) -> usize {
        self.schedules.len() + self.compiled.len()
    }

    /// The shape for `cfg` (whose shape `key` is), or the schedule
    /// build's error — failed builds are not cached.
    pub(crate) fn schedule_for(
        &self,
        key: SchedKey,
        cfg: &PipelineConfig,
    ) -> Result<Arc<Shape>, ScheduleError> {
        if let Some(hit) = self.schedules.get(&key) {
            record_cache("schedules", true);
            return Ok(hit);
        }
        record_cache("schedules", false);
        let built = Arc::new(Shape::new(build_schedule(cfg)?));
        Ok(self.schedules.insert_if_absent(key, built))
    }

    /// The prefetch windows of `shape` (whose key `key` is) under
    /// `sim.recv_lookahead`, over the shape's lowered program.
    pub(crate) fn compiled_for(
        &self,
        key: SchedKey,
        shape: &Shape,
        sim: &SimOptions,
    ) -> Arc<CompiledSchedule> {
        self.compiled.get_or_insert_with((key, sim.recv_lookahead), || {
            Arc::new(lower_windows(shape.program.clone(), sim.recv_lookahead))
        })
    }
}

/// Cross-candidate artifact caches for one sweep — every sweep builds one
/// unless it is handed one through a [`crate::tuner::TuneContext`], which
/// lets a resident service share them across every sweep of one `(model,
/// cluster)` pair it ever evaluates. They are the per-configuration tier
/// over one [`ShapeTier`].
///
/// The wide sweep's axes (sim-option ablations, recompute modes,
/// micro-batch merges) multiply a handful of distinct pipeline shapes into
/// hundreds of candidates; the caches build each shape's schedule, cost
/// table, static memory replay, engine lowering and group simulations
/// once. Every cached value is a pure function of its cache key, so a hit
/// returns byte-for-byte what the miss path would have computed — a sweep
/// ranks exactly as [`crate::plan::evaluate_plan`] run on every candidate
/// would.
///
/// **Sharing contract:** the per-configuration cache keys assume one model
/// and one cluster. Callers sharing a `SweepCaches` across requests must
/// key the *handle* by the `(model, cluster)` configuration —
/// `hanayo-serve` does this with the FNV config fingerprint from
/// `hanayo-ckpt`. The shape tier is exempt from that rule: its keys are
/// its artifacts' complete inputs, so caches of any configurations may
/// sit over one tier ([`SweepCaches::over`]).
pub struct SweepCaches {
    /// Schedule shapes and their prefetch windows.
    pub(crate) shapes: Arc<ShapeTier>,
    /// Cost tables.
    pub(crate) costs: BoundedMap<CostKey, Arc<CostTable>>,
    /// Static per-device memory replays (group-local peaks).
    pub(crate) peaks: BoundedMap<(SchedKey, CostKey), Arc<Vec<u64>>>,
    /// Pipeline-group critical paths ([`hanayo_analyze::critical_path`]),
    /// read by top-k sweeps only; `None` when the program cannot be
    /// replayed to the end.
    pub(crate) critical_paths: BoundedMap<BoundKey, Option<f64>>,
    /// Pipeline-group [`SimReport`]s ([`SweepCaches::group_report`]),
    /// memoised across a sweep (or, when the caches are shared by a
    /// resident service, across many sweeps of the same `(model,
    /// cluster)` pair).
    ///
    /// Keyed by [`ReportKey`], the complete input of each report, so a
    /// memo hit returns the byte-identical report the simulation would
    /// have produced. That includes a hit across sub-clusters that differ
    /// only in node labels: the engine reads node ids only to compare them
    /// and to pick a per-node-pair link cursor, so a relabelled twin runs
    /// the same float operations in the same order. The reports come from
    /// span-free runs (a sweep ranks on scalars), so their `spans` are
    /// empty and a hit clones only the per-device vectors.
    pub(crate) reports: BoundedMap<ReportKey, SimReport>,
    /// Every distinct sub-cluster content seen, by content id
    /// ([`SweepCaches::sub_cluster_id`]).
    sub_clusters: BoundedMap<u32, ClusterSpec>,
    /// Monotonic source of sub-cluster content ids: ids survive evictions
    /// unreused, so a stale memo entry can never alias a fresh
    /// sub-cluster.
    next_content_id: AtomicU32,
}

impl Default for SweepCaches {
    /// Unbounded (one-shot sweep) caches: a single sweep's working set is
    /// bounded by its candidate space, so no eviction is needed and the
    /// hit/miss split stays a pure function of the candidate order.
    fn default() -> SweepCaches {
        SweepCaches::bounded(usize::MAX)
    }
}

impl SweepCaches {
    /// Caches capped at `per_cache_entries` entries each, FIFO-evicted,
    /// over a shape tier of their own with the same cap.
    pub fn bounded(per_cache_entries: usize) -> SweepCaches {
        SweepCaches::over(Arc::new(ShapeTier::bounded(per_cache_entries)), per_cache_entries)
    }

    /// Per-configuration caches capped at `per_cache_entries` entries
    /// each, FIFO-evicted, over `shapes` — a tier that other
    /// configurations' caches may share (see the sharing contract).
    pub fn over(shapes: Arc<ShapeTier>, per_cache_entries: usize) -> SweepCaches {
        let cap = per_cache_entries;
        SweepCaches {
            shapes,
            costs: BoundedMap::new("costs", cap),
            peaks: BoundedMap::new("peaks", cap),
            critical_paths: BoundedMap::new("critical_paths", cap),
            reports: BoundedMap::new("reports", cap),
            sub_clusters: BoundedMap::new("sub_clusters", cap),
            next_content_id: AtomicU32::new(0),
        }
    }

    /// The shape tier these caches sit over.
    pub fn shapes(&self) -> &Arc<ShapeTier> {
        &self.shapes
    }

    /// Entries currently held by the per-configuration tier; the shape
    /// tier, which several configurations may share, counts its own
    /// ([`ShapeTier::entries`]).
    pub fn entries(&self) -> usize {
        self.costs.len()
            + self.peaks.len()
            + self.critical_paths.len()
            + self.reports.len()
            + self.sub_clusters.len()
    }

    pub(crate) fn cost_for(&self, key: CostKey, model: &ModelConfig) -> Arc<CostTable> {
        let (stages, micro_batch_size, recompute) = key;
        self.costs.get_or_insert_with(key, || {
            Arc::new(CostTable::build_with(model, stages, micro_batch_size, recompute))
        })
    }

    pub(crate) fn peaks_for(
        &self,
        key: (SchedKey, CostKey),
        schedule: &Schedule,
        cost: &CostTable,
    ) -> Arc<Vec<u64>> {
        self.peaks
            .get_or_insert_with(key, || Arc::new(hanayo_analyze::static_peak_mem(schedule, cost)))
    }

    /// The critical path of `shape` (whose key is in `key`) under `cost` on
    /// `sub`, the sub-cluster whose content id is in `key`; `None` when the
    /// shape does not lower or its replay stalls.
    pub(crate) fn critical_path_for(
        &self,
        key: BoundKey,
        shape: &Shape,
        cost: &CostTable,
        sub: &ClusterSpec,
    ) -> Option<f64> {
        self.critical_paths.get_or_insert_with(key, || {
            let program = shape.program.as_ref().as_ref().ok()?;
            hanayo_analyze::critical_path(program, cost, sub).ok()
        })
    }

    /// The content id of a pipeline group's sub-cluster: one id per
    /// content under [`ClusterSpec::same_content`], whichever devices the
    /// group sits on.
    pub(crate) fn sub_cluster_id(&self, sub: &ClusterSpec) -> u32 {
        self.sub_clusters.find_or_insert(
            |seen| seen.same_content(sub),
            || (self.next_content_id.fetch_add(1, Ordering::Relaxed), sub.clone()),
        )
    }

    /// The memoised group report under `key` (see [`SweepCaches::reports`]),
    /// running `simulate` on a miss. The simulation runs outside the lock,
    /// so concurrent misses may both simulate; the first insert wins and
    /// both values are identical anyway.
    pub(crate) fn group_report<E>(
        &self,
        key: ReportKey,
        simulate: impl FnOnce() -> Result<SimReport, E>,
    ) -> Result<SimReport, E> {
        if let Some(hit) = self.reports.get(&key) {
            return Ok(hit);
        }
        Ok(self.reports.insert_if_absent(key, simulate()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_cluster::topology::lonestar6;
    use hanayo_cluster::{GpuModel, Link, LinkClass};
    use hanayo_core::action::{Action, CommDir};

    #[test]
    fn insert_if_absent_is_first_writer_wins() {
        let m: BoundedMap<u32, u32> = BoundedMap::new("test", 8);
        assert_eq!(m.insert_if_absent(1, 10), 10);
        assert_eq!(m.insert_if_absent(1, 20), 10);
        assert_eq!(m.get(&1), Some(10));
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let m: BoundedMap<u32, u32> = BoundedMap::new("test", 2);
        m.insert_if_absent(1, 1);
        m.insert_if_absent(2, 2);
        m.insert_if_absent(3, 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), None, "oldest entry must be the one evicted");
        assert_eq!(m.get(&2), Some(2));
        assert_eq!(m.get(&3), Some(3));
    }

    #[test]
    fn eviction_increments_the_metrics_counter() {
        hanayo_metrics::reset();
        hanayo_metrics::set_enabled(true);
        let m: BoundedMap<u32, u32> = BoundedMap::new("evict_probe", 1);
        m.insert_if_absent(1, 1);
        m.insert_if_absent(2, 2);
        let snap = hanayo_metrics::snapshot();
        let evictions = snap
            .series
            .iter()
            .find(|s| {
                s.name == "hanayo_tuner_cache_evictions_total"
                    && s.labels.iter().any(|(k, v)| k == "cache" && v == "evict_probe")
            })
            .map(|s| s.value.clone());
        hanayo_metrics::set_enabled(false);
        hanayo_metrics::reset();
        assert!(evictions.is_some(), "eviction must be counted");
    }

    #[test]
    fn poisoned_lock_recovers_and_keeps_serving() {
        let m: Arc<BoundedMap<u32, u32>> = Arc::new(BoundedMap::new("poison_probe", 8));
        m.insert_if_absent(1, 10);
        let m2 = m.clone();
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            std::panic::panic_any("poison");
        })
        .join();
        // Recovery: existing entries survive, new inserts work.
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.insert_if_absent(2, 20), 20);
        assert_eq!(m.get(&2), Some(20));
    }

    #[test]
    fn one_shape_is_lowered_once() {
        let c = ShapeTier::default();
        let key = (Scheme::Hanayo { waves: 2 }, 4, 8);
        let cfg = PipelineConfig::new(4, 8, key.0).unwrap();
        let shape = c.schedule_for(key, &cfg).unwrap();
        assert!(Arc::ptr_eq(&shape, &c.schedule_for(key, &cfg).unwrap()));
        let [one, two, four] = [1, 2, 4].map(|recv_lookahead| {
            c.compiled_for(key, &shape, &SimOptions { recv_lookahead, ..Default::default() })
        });
        let program = one.program().unwrap();
        for other in [&two, &four] {
            assert!(std::ptr::eq(program, other.program().unwrap()), "one Program per shape");
        }
        assert_eq!(program, &Program::lower(&shape.schedule).unwrap());
        let checked = |shape: &Shape| hanayo_analyze::check_deadlock_free(&shape.schedule).is_ok();
        assert!(shape.deadlock_free() && checked(&shape));
        // DAPPLE P=2 B=2 with device 0's first receive moved to the front:
        // device 0 waits for a gradient that needs its own first forward.
        let mut schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::Dapple).unwrap()).unwrap();
        let recv = schedule.lists[0]
            .actions
            .iter()
            .position(|a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv))
            .unwrap();
        let moved = schedule.lists[0].actions.remove(recv);
        schedule.lists[0].actions.insert(0, moved);
        let deadlocked = Shape::new(schedule);
        assert!(!deadlocked.deadlock_free());
        assert_eq!(deadlocked.deadlock_free(), checked(&deadlocked));
    }

    #[test]
    fn report_key_keeps_every_variant_and_sub_cluster_apart() {
        let sched = (Scheme::Dapple, 4, 4);
        let cost = (4, 1, Recompute::None);
        let on = |recv_lookahead| SimOptions { recv_lookahead, ..Default::default() };
        let off = SimOptions { prefetch: false, ..on(1) };
        let keys: Vec<ReportKey> = [on(1), on(2), on(4), off]
            .iter()
            .flat_map(|sim| [0, 1].map(|sub| report_key(sched, cost, sim, sub)))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "{a:?} collides");
        }
    }

    #[test]
    fn node_relabelled_twins_share_a_sub_cluster_id() {
        let c = SweepCaches::default();
        let tacc = lonestar6(8);
        let id = c.sub_cluster_id(&tacc.select(&[0, 1]));
        // Nodes (2, 2) instead of (0, 0); same GPUs and links.
        assert_eq!(c.sub_cluster_id(&tacc.select(&[6, 7])), id);
        let mut relabelled = tacc.select(&[0, 1]);
        relabelled.node = vec![5, 5];
        assert_eq!(c.sub_cluster_id(&relabelled), id);
        // A same-socket link instead of a cross-socket one.
        assert_ne!(c.sub_cluster_id(&tacc.select(&[4, 5])), id);
        // One different GPU.
        let mut gpu = tacc.select(&[0, 1]);
        gpu.gpus[1] = GpuModel::A100_80G;
        assert_ne!(c.sub_cluster_id(&gpu), id);
        // One different link.
        let mut link = tacc.select(&[0, 1]);
        link.links[0][1] = Link::of(LinkClass::Pcie4);
        assert_ne!(c.sub_cluster_id(&link), id);
        assert_eq!(c.sub_clusters.len(), 4);
    }

    #[test]
    fn sub_cluster_ids_are_never_reused_across_evictions() {
        let c = SweepCaches::bounded(1);
        let tacc = lonestar6(8);
        let a = c.sub_cluster_id(&tacc.select(&[0, 1]));
        let b = c.sub_cluster_id(&tacc.select(&[2, 3])); // evicts [0, 1]
        let a2 = c.sub_cluster_id(&tacc.select(&[6, 7])); // [0, 1]'s twin, interned afresh
        assert_ne!(a, b);
        assert_ne!(a2, a, "an evicted sub-cluster's id must not be reissued");
        assert_ne!(a2, b);
    }

    #[test]
    fn bounded_caches_report_their_size() {
        let c = SweepCaches::bounded(4);
        assert_eq!(c.entries(), 0);
        let table = CostTable::build(&ModelConfig::bert64(), 4, 1);
        c.costs.insert_if_absent((4, 1, Recompute::None), Arc::new(table));
        assert_eq!(c.entries(), 1);
        c.sub_cluster_id(&lonestar6(8).select(&[0, 1]));
        assert_eq!(c.entries(), 2);
        // A shape lands in the shape tier, which counts it apart.
        let key = (Scheme::Dapple, 4, 4);
        c.shapes.schedule_for(key, &PipelineConfig::new(4, 4, key.0).unwrap()).unwrap();
        assert_eq!((c.entries(), c.shapes.entries()), (2, 1));
    }

    #[test]
    fn caches_over_one_tier_share_its_shapes_and_no_more() {
        let tier = Arc::new(ShapeTier::default());
        let [a, b] = [0, 1].map(|_| SweepCaches::over(Arc::clone(&tier), usize::MAX));
        assert!(Arc::ptr_eq(a.shapes(), b.shapes()));
        let key = (Scheme::Hanayo { waves: 2 }, 4, 8);
        let cfg = PipelineConfig::new(4, 8, key.0).unwrap();
        let shape = a.shapes.schedule_for(key, &cfg).unwrap();
        assert!(Arc::ptr_eq(&shape, &b.shapes.schedule_for(key, &cfg).unwrap()));
        let table = CostTable::build(&ModelConfig::bert64(), 4, 1);
        a.costs.insert_if_absent((4, 1, Recompute::None), Arc::new(table));
        assert_eq!((a.entries(), b.entries()), (1, 0), "the configuration tier is private");
        // Every other constructor makes a tier of its own.
        let own = [SweepCaches::default(), SweepCaches::bounded(4)];
        assert!(!Arc::ptr_eq(own[0].shapes(), own[1].shapes()));
        assert!(own.iter().all(|c| !Arc::ptr_eq(c.shapes(), &tier)));
    }
}
