//! Steady-state training allocates no gradient- or weight-sized buffer.
//!
//! A counting `#[global_allocator]` (a `System` wrapper with relaxed
//! atomics; this test binary only, the library is untouched) sees every
//! allocation of a `try_train` call at the `train_gemm` benchmark shape:
//! `P = 2`, `B = 8`, Hanayo with two waves, `32×160` micro-batches, 16
//! blocks. Per-call set-up (module copies, the per-stage gradient
//! accumulators and `Wᵀ`) is the same for a 1-iteration and a 3-iteration
//! call, so half their difference is what one steady-state iteration
//! allocates. No allocation of a `160×160` weight's size may remain there:
//! not a per-micro-batch `dW`, not a per-product `Wᵀ`, not a per-flush
//! gradient total.
//!
//! The binary holds one test so nothing else allocates while it counts.

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo_runtime::worker::IterationData;
use hanayo_runtime::LossKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const ROWS: usize = 32;
const WIDTH: usize = 160;
/// The size of one `WIDTH × WIDTH` f32 weight, `dW` or `Wᵀ`.
const LARGE: usize = WIDTH * WIDTH * 4;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Relaxed);
        if size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(all, large)` allocations made by one `try_train` call.
fn count_call(cfg: &TrainerConfig, data: &[IterationData]) -> (usize, usize) {
    let (all, large) = (ALLOCS.load(Relaxed), LARGE_ALLOCS.load(Relaxed));
    let out = try_train(cfg, data).expect("train_gemm shape trains");
    assert_eq!(out.losses.len(), data.len());
    (ALLOCS.load(Relaxed) - all, LARGE_ALLOCS.load(Relaxed) - large)
}

#[test]
fn steady_state_iterations_allocate_no_weight_sized_buffer() {
    let b = 8;
    let pipeline = PipelineConfig::new(2, b, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&pipeline).unwrap();
    let model = MicroModel { width: WIDTH, total_blocks: 16, seed: 1 };
    let stages = model.build_stages(schedule.stage_map.stages);
    let cfg = TrainerConfig::new(schedule, stages, 0.01, LossKind::Mse);
    let data = synthetic_data(1, 3, b as usize, ROWS, WIDTH);

    // Warm up once so lazily built process state (the gemm pool) is not
    // charged to either measured call.
    count_call(&cfg, &data[..1]);
    let (all_1, large_1) = count_call(&cfg, &data[..1]);
    let (all_3, large_3) = count_call(&cfg, &data);
    let per_iter = |three: usize, one: usize| three.saturating_sub(one) as f64 / 2.0;
    println!(
        "per steady-state iteration: {} allocations, {} of >= {LARGE} bytes",
        per_iter(all_3, all_1),
        per_iter(large_3, large_1)
    );
    assert_eq!(
        large_3,
        large_1,
        "a steady-state iteration allocates {} weight-sized buffer(s)",
        per_iter(large_3, large_1)
    );
}
