//! Cross-request shared state: the per-configuration sweep caches and
//! the in-flight dedup table that lets N identical concurrent `tune`
//! requests cost one evaluation.

use hanayo_sim::SweepCaches;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most `(model, cluster)` configurations whose caches stay resident at
/// once; least-recently-created beyond this are dropped. Each retained
/// configuration's caches are themselves bounded (see [`CACHE_ENTRIES`]).
const MAX_CONFIGS: usize = 8;
/// Per-cache entry bound inside one configuration's [`SweepCaches`].
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
pub enum Join {
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
pub struct InFlight {
    slots: Mutex<HashMap<String, Arc<InFlightSlot>>>,
    /// How many requests were answered from another request's
    /// computation (the load test's dedup-factor numerator).
    joins: AtomicU64,
}

impl InFlight {
    /// Enter the group for `key`. Followers block until the leader
    /// publishes; the leader returns immediately with [`Join::Leader`].
    pub fn join(&self, key: &str) -> Join {
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
    pub fn publish(&self, key: &str, outcome: (u16, String)) {
        let slot = lock(&self.slots).remove(key);
        if let Some(slot) = slot {
            *lock(&slot.done) = Some(outcome);
            slot.cv.notify_all();
        }
    }

    /// Requests answered by joining another request's computation.
    pub fn join_count(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }
}

/// One retained configuration's caches plus its admission order.
struct ConfigEntry {
    caches: Arc<SweepCaches>,
    admitted: u64,
}

/// The service's shared state: sweep caches per configuration
/// fingerprint, the in-flight dedup table, and the drain flag.
pub struct ServeState {
    configs: Mutex<HashMap<u64, ConfigEntry>>,
    admissions: AtomicU64,
    /// Synchronous-tune dedup.
    pub inflight: InFlight,
    /// Set when the server starts draining: new work is refused with 503
    /// while reads (`/healthz`, `/metrics`, job polls) still answer.
    pub draining: AtomicBool,
}

impl Default for ServeState {
    fn default() -> ServeState {
        ServeState {
            configs: Mutex::new(HashMap::new()),
            admissions: AtomicU64::new(0),
            inflight: InFlight::default(),
            draining: AtomicBool::new(false),
        }
    }
}

impl ServeState {
    /// The shared [`SweepCaches`] for a configuration fingerprint,
    /// creating (and, beyond `MAX_CONFIGS`, evicting the oldest) as
    /// needed. Callers clone the `Arc`, so an evicted configuration's
    /// caches stay alive for requests already holding them.
    pub fn caches_for(&self, config_key: u64) -> Arc<SweepCaches> {
        let mut configs = lock(&self.configs);
        if let Some(entry) = configs.get(&config_key) {
            return Arc::clone(&entry.caches);
        }
        if configs.len() >= MAX_CONFIGS {
            if let Some(oldest) = configs.iter().min_by_key(|(_, e)| e.admitted).map(|(k, _)| *k) {
                configs.remove(&oldest);
            }
        }
        let caches = Arc::new(SweepCaches::bounded(CACHE_ENTRIES));
        let admitted = self.admissions.fetch_add(1, Ordering::Relaxed);
        configs.insert(config_key, ConfigEntry { caches: Arc::clone(&caches), admitted });
        caches
    }

    /// Export the cache gauges: resident configurations and total cached
    /// entries across them. Called on each `/metrics` scrape so the
    /// numbers are current without per-request bookkeeping.
    pub fn export_cache_gauges(&self) {
        let configs = lock(&self.configs);
        let entries: usize = configs.values().map(|e| e.caches.entries()).sum();
        hanayo_metrics::gauge_set("hanayo_serve_cache_configs", &[], configs.len() as f64);
        hanayo_metrics::gauge_set("hanayo_serve_cache_entries", &[], entries as f64);
    }

    /// Is the server refusing new work?
    pub fn is_draining(&self) -> bool {
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
    }

    #[test]
    fn config_registry_evicts_the_oldest_beyond_the_cap() {
        let state = ServeState::default();
        let first = state.caches_for(0);
        for key in 1..=MAX_CONFIGS as u64 {
            state.caches_for(key);
        }
        // Key 0 was the oldest, so it was evicted and is rebuilt fresh.
        let again = state.caches_for(0);
        assert!(!Arc::ptr_eq(&first, &again), "evicted config must be rebuilt");
        // The clone taken before eviction still works.
        assert_eq!(first.entries(), 0);
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
        // Give the followers a moment to block on the condvar.
        thread::sleep(std::time::Duration::from_millis(50));
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
