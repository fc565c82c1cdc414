//! A throttled, TTY-gated stderr progress line for long sweeps.
//!
//! The line rewrites itself in place (`\r`), prints at most every 200 ms,
//! and is completely inert when stderr is not a terminal (CI, pipes,
//! tests) or when `HANAYO_PROGRESS=0` — in that case a tick is one atomic
//! add. Progress output is a side channel on stderr and never touches the
//! computation it reports on.

use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum interval between repaints.
const THROTTLE_NS: u64 = 200_000_000;

/// A monotonically advancing `done / total` tracker that paints
/// `label: done/total (rate/s, ETA ..s)` onto stderr.
pub struct Progress {
    label: String,
    total: u64,
    done: AtomicU64,
    start: Instant,
    /// Elapsed-ns of the last repaint (claimed via compare-exchange so
    /// concurrent tickers never double-paint).
    last_paint_ns: AtomicU64,
    active: bool,
    painted: AtomicU64,
}

impl Progress {
    /// A tracker for `total` units of work. Painting activates only when
    /// stderr is a terminal and `HANAYO_PROGRESS` is not `0`.
    pub fn new(label: impl Into<String>, total: u64) -> Progress {
        let suppressed = std::env::var("HANAYO_PROGRESS").is_ok_and(|v| v == "0");
        Progress {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            start: Instant::now(),
            last_paint_ns: AtomicU64::new(0),
            active: std::io::stderr().is_terminal() && !suppressed,
            painted: AtomicU64::new(0),
        }
    }

    /// Record one completed unit.
    pub fn tick(&self) {
        self.add(1);
    }

    /// Record `n` completed units and repaint if the throttle allows.
    fn add(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if !self.active {
            return;
        }
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        let last = self.last_paint_ns.load(Ordering::Relaxed);
        if elapsed_ns.saturating_sub(last) < THROTTLE_NS {
            return;
        }
        if self
            .last_paint_ns
            .compare_exchange(last, elapsed_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.paint(done, elapsed_ns);
    }

    /// Completed units so far.
    fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn paint(&self, done: u64, elapsed_ns: u64) {
        let secs = (elapsed_ns as f64 / 1e9).max(1e-9);
        let rate = done as f64 / secs;
        let eta =
            if rate > 0.0 && self.total > done { (self.total - done) as f64 / rate } else { 0.0 };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r\x1b[2K{}: {done}/{} ({rate:.1}/s, ETA {eta:.0}s)",
            self.label, self.total
        );
        let _ = err.flush();
        self.painted.fetch_add(1, Ordering::Relaxed);
    }

    /// Clear the line (if anything was ever painted) and print a final
    /// one-shot summary ending in a newline.
    pub fn finish(&self) {
        if !self.active {
            return;
        }
        let done = self.done();
        let secs = (self.start.elapsed().as_nanos() as f64 / 1e9).max(1e-9);
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\x1b[2K");
        if self.painted.load(Ordering::Relaxed) > 0 {
            let _ = writeln!(
                err,
                "{}: {done}/{} in {secs:.1}s ({:.1}/s)",
                self.label,
                self.total,
                done as f64 / secs
            );
        }
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_without_a_tty() {
        // Under `cargo test` stderr is not a terminal, so this exercises
        // the inert path: counting works, nothing is painted.
        let p = Progress::new("test", 10);
        assert!(!p.active, "test harness stderr must not be a TTY");
        for _ in 0..7 {
            p.tick();
        }
        p.add(3);
        p.finish();
        assert_eq!(p.done(), 10);
        assert_eq!(p.painted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_ticks_are_exact() {
        let p = std::sync::Arc::new(Progress::new("mt", 400));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        p.tick();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().map_err(|_| "ticker panicked").unwrap();
        }
        assert_eq!(p.done(), 400);
    }
}
