//! Data-parallel gradient exchange.
//!
//! [`AllreduceHub`] is the runtime's collective: every pipeline replica
//! contributes its per-stage gradient sum at the flush, and each receives
//! the total. Contributions are combined **in replica-rank order** once all
//! have arrived, so the reduced value is bit-identical no matter which
//! thread arrives first — the same determinism discipline as the
//! micro-batch-ordered gradient accumulator inside a worker, which moves
//! its accumulator in and takes the reduced sum back.

use hanayo_tensor::StageGrads;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

struct Slot {
    contributions: Vec<Option<StageGrads>>,
    arrived: usize,
    reduced: Option<StageGrads>,
    taken: usize,
}

/// A shared-memory all-reduce rendezvous for `world` pipeline replicas.
pub struct AllreduceHub {
    world: usize,
    state: Mutex<HashMap<(u32, u32), Slot>>,
    cv: Condvar,
    aborted: AtomicBool,
}

impl AllreduceHub {
    /// Create a hub for `world` replicas.
    pub fn new(world: usize) -> AllreduceHub {
        AllreduceHub {
            world,
            state: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Number of replicas.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Cancel the collective: wake every blocked replica and make all
    /// current and future [`AllreduceHub::try_allreduce`] calls return
    /// `None`. Called when a worker fails so the surviving replicas unwind
    /// instead of waiting for a contribution that will never come.
    pub fn abort(&self) {
        // The store happens under the lock so a replica cannot check the
        // flag, miss it, and then sleep past the notify.
        let _state = self.state.lock();
        self.aborted.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Has the collective been cancelled?
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Contribute `grads` for `(iter, stage)` as replica `rank`; blocks
    /// until all replicas contributed and returns the rank-ordered sum,
    /// or `None` if the collective was aborted.
    pub fn try_allreduce(
        &self,
        iter: u32,
        stage: u32,
        rank: usize,
        grads: StageGrads,
    ) -> Option<StageGrads> {
        assert!(rank < self.world, "rank out of range");
        let key = (iter, stage);
        let mut state = self.state.lock();
        if self.is_aborted() {
            return None;
        }
        let slot = state.entry(key).or_insert_with(|| Slot {
            contributions: vec![None; self.world],
            arrived: 0,
            reduced: None,
            taken: 0,
        });
        assert!(slot.contributions[rank].is_none(), "duplicate contribution");
        slot.contributions[rank] = Some(grads);
        slot.arrived += 1;
        if slot.arrived == self.world {
            // Reduce in rank order for bitwise determinism. Every
            // contribution is present (`arrived == world`, and `world >= 1`
            // by construction), so the drain yields exactly `world` values;
            // an impossible empty drain reads as an abort rather than a
            // panic inside the lock.
            let mut drained = slot.contributions.iter_mut().filter_map(Option::take);
            let mut total = drained.next()?;
            for c in drained {
                total.accumulate(&c);
            }
            slot.reduced = Some(total);
            self.cv.notify_all();
        } else {
            while state.get(&key).is_none_or(|s| s.reduced.is_none()) {
                if self.is_aborted() {
                    return None;
                }
                self.cv.wait(&mut state);
            }
        }
        if self.is_aborted() {
            return None;
        }
        // The slot and its reduced value are guaranteed here (either this
        // rank reduced above, or the wait loop saw `reduced` set under the
        // same lock); losing either reads as an abort rather than a panic.
        let slot = state.get_mut(&key)?;
        let out = slot.reduced.clone()?;
        slot.taken += 1;
        if slot.taken == self.world {
            state.remove(&key);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_tensor::rng::seeded;
    use hanayo_tensor::Stage;
    use std::sync::Arc;

    /// Contribute and wait, in tests where nothing aborts the hub.
    fn allreduce(
        hub: &AllreduceHub,
        iter: u32,
        stage: u32,
        rank: usize,
        grads: StageGrads,
    ) -> StageGrads {
        hub.try_allreduce(iter, stage, rank, grads).expect("all-reduce aborted")
    }

    fn grads_scaled(stage: &Stage, alpha: f32) -> StageGrads {
        // A deterministic non-zero gradient: run one forward/backward.
        let x = hanayo_tensor::rng::uniform(&mut seeded(3), 2, 6, 0.5);
        let (_, stash) = stage.forward(&x);
        let dy = hanayo_tensor::rng::uniform(&mut seeded(4), 2, 6, 0.5);
        let (_, mut g) = stage.backward(&stash, &dy);
        g.scale(alpha);
        g
    }

    #[test]
    fn sums_across_ranks() {
        let stage = Stage::mlp(&mut seeded(1), 6, 1);
        let hub = Arc::new(AllreduceHub::new(3));
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                let stage = stage.clone();
                std::thread::spawn(move || {
                    allreduce(&hub, 0, 0, rank, grads_scaled(&stage, (rank + 1) as f32))
                })
            })
            .collect();
        let results: Vec<StageGrads> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All ranks see the same sum: 1x + 2x + 3x = 6x.
        let mut expect = grads_scaled(&stage, 1.0);
        expect.scale(6.0);
        for r in &results {
            let diff = r
                .flat()
                .iter()
                .zip(expect.flat())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-5, "diff {diff}");
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn reduction_is_rank_ordered_and_deterministic() {
        let stage = Stage::mlp(&mut seeded(2), 6, 1);
        let run = || {
            let hub = Arc::new(AllreduceHub::new(4));
            let handles: Vec<_> = (0..4)
                .map(|rank| {
                    let hub = Arc::clone(&hub);
                    let stage = stage.clone();
                    std::thread::spawn(move || {
                        // Scramble arrival order.
                        std::thread::sleep(std::time::Duration::from_millis(
                            ((rank * 7) % 4) as u64,
                        ));
                        allreduce(&hub, 0, 0, rank, grads_scaled(&stage, 0.1 + rank as f32))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap().flat()).next().unwrap()
        };
        assert_eq!(run(), run(), "arrival order must not change the bits");
    }

    #[test]
    fn abort_wakes_blocked_replicas() {
        let stage = Stage::mlp(&mut seeded(6), 6, 1);
        let hub = Arc::new(AllreduceHub::new(2));
        let waiter = {
            let hub = Arc::clone(&hub);
            let g = grads_scaled(&stage, 1.0);
            // Rank 0 contributes; rank 1 never will.
            std::thread::spawn(move || hub.try_allreduce(0, 0, 0, g))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        hub.abort();
        assert_eq!(waiter.join().unwrap(), None, "blocked replica must wake on abort");
        // Late arrivals bail immediately.
        assert!(hub.try_allreduce(0, 0, 1, grads_scaled(&stage, 1.0)).is_none());
    }

    #[test]
    fn iterations_and_stages_are_independent_slots() {
        let stage = Stage::mlp(&mut seeded(5), 6, 1);
        let hub = Arc::new(AllreduceHub::new(2));
        let g = grads_scaled(&stage, 1.0);
        let h = {
            let hub = Arc::clone(&hub);
            let g = g.clone();
            std::thread::spawn(move || {
                let a = allreduce(&hub, 0, 0, 1, g.clone());
                let b = allreduce(&hub, 1, 0, 1, g.clone());
                let c = allreduce(&hub, 0, 5, 1, g);
                (a, b, c)
            })
        };
        let a0 = allreduce(&hub, 0, 0, 0, g.clone());
        let b0 = allreduce(&hub, 1, 0, 0, g.clone());
        let c0 = allreduce(&hub, 0, 5, 0, g);
        let (a1, b1, c1) = h.join().unwrap();
        assert_eq!(a0, a1);
        assert_eq!(b0, b1);
        assert_eq!(c0, c1);
    }
}
