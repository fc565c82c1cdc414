//! Cross-request shared state: the sweep caches — one shape tier for the
//! whole service, per-configuration caches over it — and the in-flight
//! dedup table that lets N identical concurrent `tune` requests cost one
//! evaluation.

use hanayo_sim::{ShapeTier, SweepCaches};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most `(model, cluster)` configurations whose caches stay resident at
/// once. Beyond this the least recently *used* one is dropped (every
/// [`ServeState::caches_for`] hit refreshes a config's recency), so hot
/// configurations stay resident while a cold tail cycles through the
/// other slots. Each retained configuration's caches are themselves
/// bounded (see [`CACHE_ENTRIES`]).
const MAX_CONFIGS: usize = 8;
/// Per-cache entry bound inside the shape tier and inside one
/// configuration's [`SweepCaches`].
const CACHE_ENTRIES: usize = 4096;

/// Lock a mutex, recovering from poisoning: every structure guarded here
/// is a plain map whose writes are single non-tearing inserts, so a
/// panicking holder cannot leave it half-updated.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// What one identical-request group is waiting on: the leader's HTTP
/// status and response body, once published.
struct InFlightSlot {
    done: Mutex<Option<(u16, String)>>,
    cv: Condvar,
}

/// Joining an in-flight computation either makes you the leader (you
/// compute and publish) or a follower (you wait for the leader's bytes).
pub(crate) enum Join {
    /// First requester for this exact request: compute, then
    /// [`InFlight::publish`] the outcome.
    Leader,
    /// An identical request is already being computed; this is its
    /// published `(status, body)`.
    Joined(u16, String),
}

/// Dedup table for identical in-flight synchronous requests, keyed by
/// the request's exact JSON bytes (the strictest possible equality — two
/// requests share work only when their responses are guaranteed equal).
#[derive(Default)]
pub(crate) struct InFlight {
    slots: Mutex<HashMap<String, Arc<InFlightSlot>>>,
    /// How many requests were answered from another request's
    /// computation (the load test's dedup-factor numerator).
    joins: AtomicU64,
}

impl InFlight {
    /// Enter the group for `key`. Followers block until the leader
    /// publishes; the leader returns immediately with [`Join::Leader`].
    pub(crate) fn join(&self, key: &str) -> Join {
        let slot = {
            let mut slots = lock(&self.slots);
            match slots.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot =
                        Arc::new(InFlightSlot { done: Mutex::new(None), cv: Condvar::new() });
                    slots.insert(key.to_string(), Arc::clone(&slot));
                    return Join::Leader;
                }
            }
        };
        self.joins.fetch_add(1, Ordering::Relaxed);
        hanayo_metrics::counter_add("hanayo_serve_dedup_joins_total", &[], 1);
        let mut done = lock(&slot.done);
        while done.is_none() {
            done = match slot.cv.wait(done) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        // The loop above only exits with the slot filled.
        match done.clone() {
            Some((status, body)) => Join::Joined(status, body),
            None => Join::Joined(500, "in-flight slot emptied\n".to_string()),
        }
    }

    /// Leader-side: publish the outcome to every follower and retire the
    /// slot so later identical requests recompute (they will hit the
    /// sweep caches instead).
    pub(crate) fn publish(&self, key: &str, outcome: (u16, String)) {
        let slot = lock(&self.slots).remove(key);
        if let Some(slot) = slot {
            *lock(&slot.done) = Some(outcome);
            slot.cv.notify_all();
        }
    }

    /// Requests answered by joining another request's computation.
    pub(crate) fn join_count(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }
}

/// One retained configuration's caches plus when it was last used.
struct ConfigEntry {
    caches: Arc<SweepCaches>,
    last_used: u64,
}

/// The service's shared state: one shape tier, sweep caches over it per
/// configuration fingerprint, the in-flight dedup table, and the drain
/// flag.
pub(crate) struct ServeState {
    /// Schedule shapes and their prefetch windows: a function of
    /// `(scheme, P, B)` alone, so every configuration's caches sit over
    /// this one tier, and evicting a configuration keeps it.
    shapes: Arc<ShapeTier>,
    configs: Mutex<HashMap<u64, ConfigEntry>>,
    /// Recency clock: one tick per [`ServeState::caches_for`] call, read
    /// and advanced under the `configs` lock.
    uses: AtomicU64,
    /// Synchronous-tune dedup.
    pub inflight: InFlight,
    /// Set when the server starts draining: new work is refused with 503
    /// while reads (`/healthz`, `/metrics`, job polls) still answer.
    pub draining: AtomicBool,
}

impl Default for ServeState {
    fn default() -> ServeState {
        ServeState {
            shapes: Arc::new(ShapeTier::bounded(CACHE_ENTRIES)),
            configs: Mutex::new(HashMap::new()),
            uses: AtomicU64::new(0),
            inflight: InFlight::default(),
            draining: AtomicBool::new(false),
        }
    }
}

impl ServeState {
    /// The shared [`SweepCaches`] for a configuration fingerprint. A hit
    /// marks the configuration most recently used; a miss creates its
    /// caches over the service's shape tier and, beyond `MAX_CONFIGS` (8),
    /// first drops the least recently used configuration's own tier
    /// (counted in `hanayo_serve_cache_evictions_total`). Callers clone
    /// the `Arc`, so an evicted configuration's caches stay alive for
    /// requests already holding them.
    pub(crate) fn caches_for(&self, config_key: u64) -> Arc<SweepCaches> {
        let mut configs = lock(&self.configs);
        let now = self.uses.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = configs.get_mut(&config_key) {
            entry.last_used = now;
            return Arc::clone(&entry.caches);
        }
        if configs.len() >= MAX_CONFIGS {
            let coldest = configs.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            if let Some(coldest) = coldest {
                configs.remove(&coldest);
                hanayo_metrics::counter_add("hanayo_serve_cache_evictions_total", &[], 1);
            }
        }
        let caches = Arc::new(SweepCaches::over(Arc::clone(&self.shapes), CACHE_ENTRIES));
        configs.insert(config_key, ConfigEntry { caches: Arc::clone(&caches), last_used: now });
        caches
    }

    /// Export the cache gauges: resident configurations and total cached
    /// entries, the shape tier's counted once beside each configuration's
    /// own. Called on each `/metrics` scrape so the numbers are current
    /// without per-request bookkeeping.
    pub(crate) fn export_cache_gauges(&self) {
        let configs = lock(&self.configs);
        let entries =
            self.shapes.entries() + configs.values().map(|e| e.caches.entries()).sum::<usize>();
        hanayo_metrics::gauge_set("hanayo_serve_cache_configs", &[], configs.len() as f64);
        hanayo_metrics::gauge_set("hanayo_serve_cache_entries", &[], entries as f64);
    }

    /// Is the server refusing new work?
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn caches_are_shared_per_config_and_split_across_configs() {
        let state = ServeState::default();
        let a = state.caches_for(1);
        let b = state.caches_for(1);
        let c = state.caches_for(2);
        assert!(Arc::ptr_eq(&a, &b), "same fingerprint must share caches");
        assert!(!Arc::ptr_eq(&a, &c), "different fingerprints must not");
        assert!(Arc::ptr_eq(a.shapes(), c.shapes()), "every config sits over one shape tier");
        assert!(Arc::ptr_eq(a.shapes(), &state.shapes));
    }

    #[test]
    fn config_registry_evicts_the_oldest_beyond_the_cap() {
        // The only test here that evicts, so it owns the eviction counter.
        hanayo_metrics::reset();
        hanayo_metrics::set_enabled(true);
        let state = ServeState::default();
        let first = state.caches_for(0);
        for key in 1..=MAX_CONFIGS as u64 {
            state.caches_for(key);
        }
        // Key 0 was the oldest, so it was evicted and is rebuilt fresh.
        let again = state.caches_for(0);
        assert!(!Arc::ptr_eq(&first, &again), "evicted config must be rebuilt");
        // Only the configuration's own tier went: the shape tier stays.
        assert!(Arc::ptr_eq(first.shapes(), again.shapes()));
        assert!(Arc::ptr_eq(again.shapes(), &state.shapes));
        // The clone taken before eviction still works.
        assert_eq!(first.entries(), 0);

        // Recency, not admission, decides: fill the registry with keys
        // 100.., touch the first-admitted after the others, then admit a
        // ninth. The touched config survives; the least recently touched
        // one (101) is the one rebuilt.
        let state = ServeState::default();
        let keys: Vec<u64> = (100..100 + MAX_CONFIGS as u64).collect();
        let held: Vec<_> = keys.iter().map(|&k| state.caches_for(k)).collect();
        assert!(Arc::ptr_eq(&state.caches_for(keys[0]), &held[0]), "a hit returns the caches");
        state.caches_for(999);
        assert!(Arc::ptr_eq(&state.caches_for(keys[0]), &held[0]), "touched config survives");
        assert!(!Arc::ptr_eq(&state.caches_for(keys[1]), &held[1]), "coldest is rebuilt");

        // One eviction per dropped config: key 0, then key 1 on
        // re-admitting 0; key 101 on admitting 999, then key 102 on
        // re-admitting 101. Hits count nothing.
        let snap = hanayo_metrics::snapshot();
        hanayo_metrics::set_enabled(false);
        hanayo_metrics::reset();
        let evictions = snap
            .series
            .iter()
            .find(|s| s.name == "hanayo_serve_cache_evictions_total")
            .map(|s| s.value.clone());
        assert_eq!(evictions, Some(hanayo_metrics::SeriesValue::Counter(4)));
    }

    #[test]
    fn followers_receive_the_leaders_bytes() {
        let inflight = Arc::new(InFlight::default());
        match inflight.join("req") {
            Join::Leader => {}
            Join::Joined(..) => panic!("first join must lead"),
        }
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let inflight = Arc::clone(&inflight);
                thread::spawn(move || match inflight.join("req") {
                    Join::Joined(status, body) => (status, body),
                    Join::Leader => (0, "duplicate leader".to_string()),
                })
            })
            .collect();
        // A follower counts itself only once it holds the slot, so from
        // here on the publish reaches all four, parked or not.
        while inflight.join_count() < 4 {
            thread::yield_now();
        }
        inflight.publish("req", (200, "the-body".to_string()));
        for f in followers {
            assert_eq!(f.join().expect("follower join"), (200, "the-body".to_string()));
        }
        assert_eq!(inflight.join_count(), 4);
        // The slot retired with the publish: the next join leads again.
        match inflight.join("req") {
            Join::Leader => {}
            Join::Joined(..) => panic!("retired slot must elect a new leader"),
        }
    }
}
