//! The memory-truth contract: the four memory models agree *exactly*.
//!
//! For every golden scheme at `(P=8, M=8)` and both recompute modes, four
//! independent accountings of activation memory are pinned against each
//! other:
//!
//! 1. **Runtime (measured)** — the threaded workers' instrumented
//!    live-bytes counter: real tensors, real stashes, per-device peak.
//! 2. **Simulator (modelled)** — `simulate` driven by a cost table whose
//!    stash bytes are *probed from the same micro-model stages*
//!    (`micro_cost_table`); its `peak_mem − weight_mem` must equal the
//!    runtime's measurement byte for byte.
//! 3. **Static analysis (proved)** — `analyze::static_stash_peak`, the
//!    activation-liveness replay over the schedule that never executes
//!    anything; exactly equal to 2 in integer bytes (the claim that lets
//!    the tuner reject OOM plans without simulating).
//! 4. **Unit replay (abstract)** — `core::memory::unit_profile_with` in
//!    Fig. 3 units, converted to bytes through the size of one activation
//!    unit.
//!
//! Agreement is exact (integer bytes) between 1, 2 and 3, and within
//! float rounding for 4. Chimera-native replicates stages, which the
//! runtime deliberately rejects, so its row checks 2 vs 3 vs 4 only.

use hanayo::analyze::static_stash_peak;
use hanayo::cluster::topology::fc_full_nvlink;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::memory::unit_profile_with;
use hanayo::core::schedule::{build_compute_schedule, build_schedule};
use hanayo::model::builders::{micro_cost_table, MicroModel};
use hanayo::model::Recompute;
use hanayo::runtime::trainer::{synthetic_data, try_train, TrainerConfig};
use hanayo::runtime::LossKind;
use hanayo::sim::{try_simulate_traced, SimOptions};

const P: u32 = 8;
const B: u32 = 8;
const ROWS: usize = 2;
const WIDTH: usize = 8;
/// Micro-model blocks per pipeline stage — more than one, so `Full` has
/// internal activations to discard on every stage.
const BLOCKS_PER_STAGE: usize = 2;

/// The 7 golden schemes, with whether the threaded runtime can train them
/// (Chimera-native replicates weights, which the runtime rejects).
fn golden_schemes() -> Vec<(&'static str, Scheme, bool)> {
    vec![
        ("gpipe", Scheme::GPipe, true),
        ("dapple", Scheme::Dapple, true),
        ("interleaved2", Scheme::Interleaved { chunks: 2 }, true),
        ("chimera", Scheme::Chimera, false),
        ("hanayo_w1", Scheme::Hanayo { waves: 1 }, true),
        ("hanayo_w2", Scheme::Hanayo { waves: 2 }, true),
        ("hanayo_w4", Scheme::Hanayo { waves: 4 }, true),
    ]
}

struct Truth {
    /// Simulator per-device peak stash bytes (`peak_mem − weight_mem`).
    sim_stash: Vec<u64>,
    /// Static-analyzer per-device peak stash bytes — proven, not run.
    static_stash: Vec<u64>,
    /// Runtime measured per-device peak stash bytes (`None` for schemes
    /// the runtime cannot train).
    runtime_stash: Option<Vec<usize>>,
    /// Unit-replay prediction converted to bytes.
    replay_stash: Vec<f64>,
}

fn measure(scheme: Scheme, runnable: bool, mode: Recompute) -> Truth {
    let cfg = PipelineConfig::new(P, B, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cs = build_compute_schedule(&cfg).unwrap();
    let s = cfg.stages();
    let model = MicroModel { width: WIDTH, total_blocks: s as usize * BLOCKS_PER_STAGE, seed: 77 };
    let stages = model.build_stages(s);

    // Simulator: cost table probed from the very stages the runtime runs.
    let cost = micro_cost_table(&stages, ROWS, WIDTH, mode);
    let report =
        try_simulate_traced(&schedule, &cost, &fc_full_nvlink(P as usize), SimOptions::default())
            .unwrap()
            .0;
    let sim_stash: Vec<u64> =
        report.peak_mem.iter().zip(&report.weight_mem).map(|(p, w)| p - w).collect();

    // Static analysis: the same number, proved from the schedule alone.
    let static_stash = static_stash_peak(&schedule, &cost);

    // Runtime: train one iteration and read the live-bytes peaks.
    let runtime_stash = runnable.then(|| {
        let trainer = TrainerConfig {
            recompute: mode,
            ..TrainerConfig::new(schedule.clone(), stages.clone(), 0.05, LossKind::Mse)
        };
        let data = synthetic_data(13, 1, B as usize, ROWS, WIDTH);
        try_train(&trainer, &data).unwrap().peak_stash_bytes
    });

    // Unit replay: one activation unit = the stash of one micro-batch
    // across model/P worth of layers. Stages are uniform here, so the
    // unit is `S/P` stage stashes.
    let full_cost = micro_cost_table(&stages, ROWS, WIDTH, Recompute::None);
    let unit_bytes = full_cost.stash_bytes.iter().sum::<u64>() as f64 / P as f64;
    let stash_units = match mode {
        Recompute::None => P as f64 / s as f64,
        Recompute::Full => (ROWS * WIDTH * 4) as f64 / unit_bytes,
    };
    let prof = unit_profile_with(&cs, stash_units);
    let replay_stash: Vec<f64> = prof.ma_peak_units.iter().map(|u| u * unit_bytes).collect();

    Truth { sim_stash, static_stash, runtime_stash, replay_stash }
}

#[test]
fn runtime_simulator_and_unit_replay_agree_on_every_golden_scheme() {
    for (name, scheme, runnable) in golden_schemes() {
        for mode in Recompute::ALL {
            let t = measure(scheme, runnable, mode);
            // Proved == modelled, exactly, device by device: the static
            // replay is the simulator's accounting, not an upper bound.
            assert_eq!(
                t.static_stash, t.sim_stash,
                "{name}/{mode}: static analyzer diverges from the simulator"
            );
            if let Some(measured) = &t.runtime_stash {
                // Measured == modelled, exactly, device by device.
                for (d, (&m, &s)) in measured.iter().zip(&t.sim_stash).enumerate() {
                    assert_eq!(
                        m as u64, s,
                        "{name}/{mode} device {d}: runtime measured {m} B, sim modelled {s} B"
                    );
                }
            }
            // Modelled == abstract replay, within float rounding of the
            // unit conversion.
            for (d, (&s, &r)) in t.sim_stash.iter().zip(&t.replay_stash).enumerate() {
                let err = (s as f64 - r).abs();
                assert!(
                    err < 1e-6 * (1.0 + r.abs()),
                    "{name}/{mode} device {d}: sim {s} B vs unit replay {r} B"
                );
            }
        }
    }
}

#[test]
fn full_recompute_strictly_shrinks_every_device_peak() {
    for (name, scheme, runnable) in golden_schemes() {
        let plain = measure(scheme, runnable, Recompute::None);
        let ckpt = measure(scheme, runnable, Recompute::Full);
        for (d, (&c, &p)) in ckpt.sim_stash.iter().zip(&plain.sim_stash).enumerate() {
            assert!(c < p, "{name} device {d}: checkpointed {c} !< plain {p}");
        }
        if let (Some(c), Some(p)) = (&ckpt.runtime_stash, &plain.runtime_stash) {
            for d in 0..c.len() {
                assert!(c[d] < p[d], "{name} device {d}: measured {} !< {}", c[d], p[d]);
            }
        }
    }
}

#[test]
fn training_bits_are_mode_independent_on_every_runnable_golden_scheme() {
    // The acceptance bar: Recompute::Full is bit-identical in losses and
    // weights to Recompute::None on all runnable golden schemes.
    for (name, scheme, runnable) in golden_schemes() {
        if !runnable {
            continue;
        }
        let cfg = PipelineConfig::new(P, B, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let s = cfg.stages();
        let model =
            MicroModel { width: WIDTH, total_blocks: s as usize * BLOCKS_PER_STAGE, seed: 41 };
        let data = synthetic_data(29, 2, B as usize, ROWS, WIDTH);
        let run = |mode| {
            try_train(
                &TrainerConfig {
                    recompute: mode,
                    ..TrainerConfig::new(
                        schedule.clone(),
                        model.build_stages(s),
                        0.05,
                        LossKind::Mse,
                    )
                },
                &data,
            )
            .unwrap()
        };
        let plain = run(Recompute::None);
        let ckpt = run(Recompute::Full);
        assert_eq!(plain.losses, ckpt.losses, "{name}: losses diverged");
        assert_eq!(plain.stages, ckpt.stages, "{name}: weights diverged");
    }
}
