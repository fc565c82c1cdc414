//! Cooperative cancellation.
//!
//! [`AbortFlag`] lives here, at the bottom of the dependency graph,
//! because it threads *user-initiated* cancellation through the tuner
//! (`hanayo-sim`) and the planning service (`hanayo-serve`): a long sweep
//! checks the flag before each shape task and returns a typed
//! `Cancelled` error once its client is gone. (The threaded runtime, where
//! the latch started life, now aborts by message instead of by polling —
//! see `hanayo_runtime::mailbox`.)

use std::sync::atomic::{AtomicBool, Ordering};

/// Cooperative cancellation latch shared by every participant of one
/// run — the shape tasks of a tuner sweep, the jobs of the planning
/// service. Tripping is one-way and idempotent; observers poll
/// [`AbortFlag::is_tripped`] at their own checkpoints and unwind cleanly.
#[derive(Debug, Default)]
pub struct AbortFlag {
    tripped: AtomicBool,
}

impl AbortFlag {
    /// A fresh, untripped flag.
    pub fn new() -> AbortFlag {
        AbortFlag::default()
    }

    /// Signal every observer to stop.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// Has someone aborted the run?
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_once_and_stays_tripped() {
        let flag = AbortFlag::new();
        assert!(!flag.is_tripped());
        flag.trip();
        assert!(flag.is_tripped());
        flag.trip();
        assert!(flag.is_tripped());
    }

    #[test]
    fn visible_across_threads() {
        use std::sync::Arc;
        let flag = Arc::new(AbortFlag::new());
        let observer = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                while !flag.is_tripped() {
                    std::thread::yield_now();
                }
                true
            })
        };
        flag.trip();
        assert!(observer.join().unwrap_or(false));
    }
}
