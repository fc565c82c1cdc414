//! What every workload shares: the phase protocol, the timed-phase
//! record, the per-layer metric sink and the probe timer.

use crate::spans::SpanLog;
use crate::stats;
use std::hint::black_box;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One workload instance: built by its set-up (inputs generated from the
/// seed, outputs verified, caches warm), then measured. Dropping it stops
/// whatever the set-up started.
pub trait Bench {
    /// Closed-loop timed phase: tracing off, metrics registry at the
    /// program's default, every op's output checked.
    fn timed(&mut self, seconds: f64) -> Timed;

    /// Traced phase: a fixed op count scaled by `scale` (1.0 at the
    /// declared run length), spans around each public call.
    fn traced(&mut self, scale: f64, log: &mut SpanLog) -> Result<Layers, String>;
}

/// One successful op of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When the op started and ended, seconds into the phase.
    pub start_s: f64,
    pub end_s: f64,
    /// The op time reported (ms): the call, or the call over its iterations.
    pub ms: f64,
    /// Work units the op completed (samples, candidates, requests).
    pub work: f64,
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub ops: Vec<Op>,
    pub attempted: u64,
    /// Ops that errored, were refused, or returned wrong output.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
}

/// The phase is cut into this many equal windows; each end-to-end timing
/// is the median of the windows' values, so a disturbance of the machine
/// that lasts a few seconds moves a minority of windows and not the result.
pub const WINDOWS: usize = 10;

impl Timed {
    /// One caller in a closed loop for `seconds`: `op` returns the work it
    /// completed, or `None` when it failed or its output was wrong. The
    /// op time reported is the call time over `iters_per_op`.
    pub fn closed_loop(
        seconds: f64,
        iters_per_op: f64,
        mut op: impl FnMut() -> Option<f64>,
    ) -> Timed {
        let mut timed = Timed::default();
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds {
            let start_s = phase.elapsed().as_secs_f64();
            let t = Instant::now();
            let work = op();
            let ms = t.elapsed().as_secs_f64() * 1e3 / iters_per_op;
            timed.attempted += 1;
            match work {
                Some(work) => {
                    let end_s = phase.elapsed().as_secs_f64();
                    timed.ops.push(Op { start_s, end_s, ms, work });
                }
                None => timed.failed += 1,
            }
        }
        timed.elapsed_s = phase.elapsed().as_secs_f64();
        timed
    }

    /// `(op_ms_p50, op_ms_p90, work_per_s)`: medians over the windows of
    /// the window's median op time, 90th percentile and work per second.
    /// An op counts towards the percentiles of the window it ends in; its
    /// work is shared among the windows it overlaps, by overlap.
    pub fn windowed(&self) -> (f64, f64, f64) {
        let width = self.elapsed_s / WINDOWS as f64;
        let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        for w in 0..WINDOWS {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            let last = w + 1 == WINDOWS;
            let ended: Vec<f64> = self
                .ops
                .iter()
                .filter(|op| op.end_s >= lo && (op.end_s < hi || last))
                .map(|op| op.ms)
                .collect();
            if !ended.is_empty() {
                let ended = stats::sorted(&ended);
                p50.push(stats::percentile(&ended, 50.0));
                p90.push(stats::percentile(&ended, 90.0));
            }
            let work: f64 = self
                .ops
                .iter()
                .map(|op| {
                    let overlap = op.end_s.min(hi) - op.start_s.max(lo);
                    let length = op.end_s - op.start_s;
                    if overlap > 0.0 && length > 0.0 {
                        op.work * overlap / length
                    } else {
                        0.0
                    }
                })
                .sum();
            rate.push(work / width);
        }
        (stats::median(&p50), stats::median(&p90), stats::median(&rate))
    }
}

/// Per-layer metric values gathered by a traced phase.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

/// Repetitions for a fixed-count step of the traced phase.
pub fn reps(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(floor)
}

/// Time `f` repeatedly — one span per call — until `budget_s` is spent
/// (at least `min_reps` calls) and return the median call time in ms.
pub fn probe<R>(
    log: &mut SpanLog,
    name: &str,
    budget_s: f64,
    min_reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    black_box(f());
    let started = Instant::now();
    let first = log.spans().len();
    let mut n = 0;
    while n < min_reps || started.elapsed().as_secs_f64() < budget_s {
        log.time(name, n as u64, |_| black_box(f()));
        n += 1;
    }
    let times: Vec<f64> = log.spans()[first..].iter().map(|s| s.duration_ms()).collect();
    stats::median(&times)
}

/// `SCHED_IDLE` busy loops, one per core, alive while a workload runs.
///
/// The recording machine is a VM: a virtual core that goes idle is taken
/// off its physical core, and when the host is busy, getting it back costs
/// hundreds of microseconds. Every blocking receive of a pipeline pays
/// that, so the same binary runs in a fast and a slow mode (`train_orch`:
/// 1.1 and 1.5 ms per iteration) that alternate every few minutes. A
/// `SCHED_IDLE` loop keeps each core scheduled, runs only when the core
/// has nothing else to do, and — unlike a `nice 19` loop — leaves the
/// placement of waking threads alone.
pub struct IdleKeepers(Vec<Child>);

impl IdleKeepers {
    /// Start one keeper per core; without `chrt` the run goes on without.
    pub fn start() -> IdleKeepers {
        let Ok(exe) = std::env::current_exe() else { return IdleKeepers(Vec::new()) };
        let spawn = || {
            Command::new("chrt")
                .args(["--idle", "0"])
                .arg(&exe)
                .arg(KEEPER_ARG)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
        };
        let keepers: Vec<Child> =
            (0..crate::report::nproc()).filter_map(|_| spawn().ok()).collect();
        if keepers.is_empty() {
            eprintln!("warning: could not start idle keepers (is `chrt` installed?)");
        }
        IdleKeepers(keepers)
    }
}

impl Drop for IdleKeepers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // A keeper that already ended makes `kill` fail; `wait` reaps it either way.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The hidden subcommand a keeper process runs.
pub const KEEPER_ARG: &str = "idle-keeper";

/// Spin until the benchmark that started this process is gone (it kills
/// its keepers when it ends; this covers a benchmark that was killed).
pub fn keep_idle() {
    let parent = std::os::unix::process::parent_id();
    while std::os::unix::process::parent_id() == parent {
        let t = Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next().and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of a counter family in the in-process registry, optionally
/// restricted to series carrying `label == value`.
pub fn counter_sum(
    snap: &hanayo_metrics::Snapshot,
    family: &str,
    label: Option<(&str, &str)>,
) -> f64 {
    snap.series
        .iter()
        .filter(|s| s.name == family)
        .filter(|s| label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v)))
        .map(|s| match s.value {
            hanayo_metrics::SeriesValue::Counter(v) => v as f64,
            _ => 0.0,
        })
        .sum()
}

/// Run `f` with the metrics registry on and freshly cleared; return its
/// result and the registry's snapshot, leaving the registry off and empty.
pub fn with_registry<R>(f: impl FnOnce() -> R) -> (R, hanayo_metrics::Snapshot) {
    hanayo_metrics::reset();
    hanayo_metrics::set_enabled(true);
    let out = f();
    let snap = hanayo_metrics::snapshot();
    hanayo_metrics::set_enabled(false);
    hanayo_metrics::reset();
    (out, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start_s: f64, end_s: f64, ms: f64) -> Op {
        Op { start_s, end_s, ms, work: 1.0 }
    }

    #[test]
    fn windowed_takes_medians_over_windows_and_shares_work_by_overlap() {
        // Ten 1 s windows. Every window holds ops of 10, 20 and 30 ms but
        // the last two, which a disturbance slowed tenfold.
        let mut timed = Timed { elapsed_s: 10.0, ..Default::default() };
        for w in 0..10 {
            let slow = if w >= 8 { 10.0 } else { 1.0 };
            for (i, ms) in [10.0, 20.0, 30.0].into_iter().enumerate() {
                let start = w as f64 + 0.25 * i as f64;
                timed.ops.push(op(start, start + 0.2, ms * slow));
            }
        }
        let (p50, p90, rate) = timed.windowed();
        assert_eq!((p50, p90), (20.0, 28.0));
        assert!((rate - 3.0).abs() < 1e-9, "{rate}");

        // An op across two windows gives each the share it overlaps:
        // 6 of its 8 units fall in window 0 and 2 in window 1.
        let mut split = Timed { elapsed_s: 10.0, ..Default::default() };
        split.ops.push(Op { start_s: 0.25, end_s: 1.25, ms: 1000.0, work: 8.0 });
        split.ops.extend((2..10).map(|w| Op { work: 4.0, ..op(w as f64, w as f64 + 0.5, 500.0) }));
        let (p50, _, rate) = split.windowed();
        assert_eq!((p50, rate), (500.0, 4.0));
        split.ops.truncate(1);
        split.elapsed_s = 2.0;
        split.ops[0] = Op { start_s: 0.05, end_s: 0.25, ms: 200.0, work: 8.0 };
        let (_, _, rate) = split.windowed();
        assert_eq!(rate, 0.0, "work in two of ten windows leaves the median window empty");
    }
}
