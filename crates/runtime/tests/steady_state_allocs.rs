//! A steady-state training iteration allocates nothing.
//!
//! A counting `#[global_allocator]` (a `System` wrapper with relaxed
//! atomics; this test binary only, the library is untouched) sees every
//! allocation of a `try_train` call, on every thread. Per-call set-up
//! (module copies, gradient accumulators, `Wᵀ`, the worker tables, the
//! first iteration's activation and gradient buffers) is the same for a
//! 1-iteration and an [`ITERS`]-iteration call, so their difference is
//! what the steady-state iterations allocate: at most [`SLACK`], which
//! covers a mailbox queue that grows once more in a later iteration
//! because a message arrived earlier than it did before (a
//! timing-dependent doubling, not a per-iteration cost). `ITERS` is 17,
//! and 3 in a debug build, where the `32×160` iterations are slow; CI runs
//! the release build too.
//!
//! The cases are both benchmark shapes (`4×32` and `32×160` micro-batches,
//! Hanayo with two waves, `P = 2`, `B = 8`, 16 blocks), each under
//! `Recompute::Full` too, and cross-entropy at the small shape. The gemm
//! pool is held to one executor, set before its first use, as the
//! benchmark's train workloads hold it.
//!
//! The binary holds one test so nothing else allocates while it counts.

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo_runtime::worker::IterationData;
use hanayo_runtime::{LossKind, Recompute};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations the `ITERS - 1` steady-state iterations may make in all.
const SLACK: usize = 8;
/// Iterations of the long call.
const ITERS: usize = if cfg!(debug_assertions) { 3 } else { 17 };
const B: u32 = 8;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `try_train` call.
fn count_call(cfg: &TrainerConfig, data: &[IterationData]) -> usize {
    let before = ALLOCS.load(Relaxed);
    let out = try_train(cfg, data).expect("the benchmark shape trains");
    assert_eq!(out.losses.len(), data.len());
    ALLOCS.load(Relaxed) - before
}

/// `(rows, width, recompute, cross-entropy)` of each case.
const CASES: [(usize, usize, Recompute, bool); 5] = [
    (4, 32, Recompute::None, false),
    (32, 160, Recompute::None, false),
    (4, 32, Recompute::Full, false),
    (32, 160, Recompute::Full, false),
    (4, 32, Recompute::None, true),
];

#[test]
fn steady_state_iterations_allocate_nothing() {
    // Before anything touches the gemm pool: one executor, no resident
    // pool worker, as in the benchmark's train workloads.
    std::env::set_var("HANAYO_THREADS", "1");
    let mut failures = Vec::new();
    for (rows, width, recompute, xent) in CASES {
        let pipeline = PipelineConfig::new(2, B, Scheme::Hanayo { waves: 2 }).unwrap();
        let schedule = build_schedule(&pipeline).unwrap();
        let model = MicroModel { width, total_blocks: 16, seed: 1 };
        let stages = model.build_stages(schedule.stage_map.stages);
        let loss = if xent {
            let labels = (0..B as usize).map(|mb| (0..rows).map(|r| (mb + r) % width).collect());
            LossKind::CrossEntropy { labels: labels.collect() }
        } else {
            LossKind::Mse
        };
        let cfg = TrainerConfig { recompute, ..TrainerConfig::new(schedule, stages, 0.01, loss) };
        let data = synthetic_data(1, ITERS, B as usize, rows, width);

        // Warm up so lazily built process state (the gemm pool, the
        // resident device threads) is charged to neither measured call.
        count_call(&cfg, &data[..1]);
        let one = count_call(&cfg, &data[..1]);
        let many = count_call(&cfg, &data);
        let extra = many.saturating_sub(one);
        let case = format!("{rows}x{width}, {recompute:?}, cross-entropy {xent}");
        println!("{case}: {one} allocations at 1 iteration, {extra} more at {ITERS}");
        if extra > SLACK {
            failures
                .push(format!("{case}: {extra} allocations in {} steady iterations", ITERS - 1));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
