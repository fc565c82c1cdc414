//! Zero-perturbation observability for the Hanayo workspace.
//!
//! This crate is the bottom of the dependency graph: a shard-per-thread
//! metrics registry (counters, gauges, fixed-bucket histograms with exact
//! `u64` sums), a leveled structured-logging facade with a `HANAYO_LOG`
//! env filter, and two exposition formats (Prometheus text and a JSON
//! snapshot). The log facade is the crate's only writer to stderr.
//!
//! ## The no-perturbation contract
//!
//! Instrumentation must never change what the instrumented run computes:
//!
//! * **Disabled is (almost) free.** The registry is off by default; every
//!   recording macro first reads one relaxed atomic and branches away.
//!   The benchmark's `metrics.overhead_share` row (`BENCHMARK.json`)
//!   prices the *enabled* registry on a cold tuner sweep.
//! * **Enabled never feeds back.** Metrics are write-only from the
//!   instrumented code's point of view: nothing in the workspace reads a
//!   counter to make a decision, so losses, weights, schedules, reports
//!   and golden snapshots are bit-identical with metrics on or off (the
//!   integration suites assert exactly this).
//! * **Snapshots are deterministic.** Counters and histograms are exact
//!   `u64` arithmetic merged by summation, so any thread interleaving of
//!   the same operations yields the same totals; series are emitted in
//!   sorted `(name, labels)` order. Wall-clock observations are routed
//!   through [`set_clock`], so tests pin a [`ClockMode::Fixed`] clock and
//!   get byte-exact expositions.
//!
//! ## Recording
//!
//! ```
//! hanayo_metrics::set_enabled(true);
//! hanayo_metrics::count!("demo_ops_total", &[("kind", "fwd")], 3);
//! hanayo_metrics::gauge!("demo_live_bytes", &[], 4096.0);
//! hanayo_metrics::observe!("demo_wait_ns", &[], hanayo_metrics::NANOS_BUCKETS, 1500);
//! let snap = hanayo_metrics::snapshot();
//! assert_eq!(snap.series.len(), 3);
//! hanayo_metrics::set_enabled(false);
//! hanayo_metrics::reset();
//! ```

pub mod expo;
pub mod log;
pub mod registry;

pub use registry::{
    counter_add, enabled, gauge_set, observe, reset, set_enabled, snapshot, Series, SeriesValue,
    Snapshot,
};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Histogram bounds for wall-clock durations in nanoseconds (1µs .. 10s).
pub const NANOS_BUCKETS: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000];

/// Histogram bounds for small percentages (calibration error and the
/// like), in whole percent.
pub const PCT_BUCKETS: &[u64] = &[1, 2, 5, 10, 20, 40, 80, 160];

/// Where timestamps and durations come from.
///
/// The default wall clock is what production runs use; tests install a
/// fixed clock so every timestamp renders as the same bytes and every
/// measured duration collapses to zero — making logs and histogram
/// expositions byte-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Real time: `SystemTime` for timestamps, a monotonic `Instant` for
    /// durations.
    Wall,
    /// Every reading returns exactly this many nanoseconds.
    Fixed(u64),
}

const CLOCK_WALL: u8 = 0;
const CLOCK_FIXED: u8 = 1;

static CLOCK_MODE: AtomicU8 = AtomicU8::new(CLOCK_WALL);
static CLOCK_FIXED_NS: AtomicU64 = AtomicU64::new(0);
static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Install the clock every timestamp and duration reading goes through.
pub fn set_clock(mode: ClockMode) {
    match mode {
        ClockMode::Wall => CLOCK_MODE.store(CLOCK_WALL, Ordering::SeqCst),
        ClockMode::Fixed(ns) => {
            CLOCK_FIXED_NS.store(ns, Ordering::SeqCst);
            CLOCK_MODE.store(CLOCK_FIXED, Ordering::SeqCst);
        }
    }
}

/// Wall-clock timestamp in nanoseconds since the Unix epoch (or the fixed
/// value under [`ClockMode::Fixed`]). Used for log timestamps and
/// heartbeat gauges.
pub fn now_nanos() -> u64 {
    if CLOCK_MODE.load(Ordering::Relaxed) == CLOCK_FIXED {
        return CLOCK_FIXED_NS.load(Ordering::Relaxed);
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Monotonic reading in nanoseconds for measuring durations
/// (`monotonic_nanos() - t0`). Under [`ClockMode::Fixed`] every reading
/// is the same value, so durations are exactly zero.
pub fn monotonic_nanos() -> u64 {
    if CLOCK_MODE.load(Ordering::Relaxed) == CLOCK_FIXED {
        return CLOCK_FIXED_NS.load(Ordering::Relaxed);
    }
    PROCESS_START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Increment a counter, compiled to a single relaxed load + branch when
/// metrics are disabled: `count!(name, labels, delta)` or
/// `count!(name, delta)`.
#[macro_export]
macro_rules! count {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, &[], $delta);
        }
    };
    ($name:expr, $labels:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, $labels, $delta);
        }
    };
}

/// Set a gauge (last write wins): `gauge!(name, labels, value)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $labels:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::gauge_set($name, $labels, $value);
        }
    };
}

/// Record one histogram observation:
/// `observe!(name, labels, bounds, value)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $labels:expr, $bounds:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::observe($name, $labels, $bounds, $value);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clock_pins_both_axes() {
        set_clock(ClockMode::Fixed(42));
        assert_eq!(now_nanos(), 42);
        assert_eq!(monotonic_nanos(), 42);
        assert_eq!(monotonic_nanos().saturating_sub(monotonic_nanos()), 0);
        set_clock(ClockMode::Wall);
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }

    #[test]
    fn bucket_tables_are_sorted() {
        for bounds in [NANOS_BUCKETS, PCT_BUCKETS] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        }
    }
}
