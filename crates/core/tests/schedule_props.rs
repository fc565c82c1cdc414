//! Property tests for the schedule layer: generation, lowering, memory
//! replay, timing replay and serialization, over randomly drawn pipeline
//! shapes. Validity of generated schedules is pinned in `hanayo-analyze`
//! (`tests/verify.rs`).

use hanayo_core::action::{Action, CommDir, Schedule};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::replay_timeline;
use hanayo_core::memory::unit_profile;
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_core::transform::chimera_to_waves;
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        (1u32..=4).prop_map(|w| Scheme::Hanayo { waves: w }),
        (2u32..=4).prop_map(|v| Scheme::Interleaved { chunks: v }),
        Just(Scheme::Chimera),
    ]
}

/// Make a shape valid for the drawn scheme (Chimera needs even splits).
fn legalise(p: u32, b: u32, scheme: Scheme) -> (u32, u32) {
    if matches!(scheme, Scheme::Chimera) {
        ((p + p % 2).max(2), (b + b % 2).max(2))
    } else {
        (p, b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sends_equal_recvs_per_schedule(
        p in 2u32..=6,
        b in 2u32..=10,
        scheme in any_scheme(),
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let mut sends = 0usize;
        let mut recvs = 0usize;
        for (_, a) in schedule.iter_actions() {
            for op in a.comm_ops() {
                match op.dir {
                    CommDir::Send => sends += 1,
                    CommDir::Recv => recvs += 1,
                }
            }
        }
        prop_assert_eq!(sends, recvs);
    }

    #[test]
    fn replay_busy_time_is_exactly_total_work(
        p in 2u32..=6,
        b in 2u32..=10,
        scheme in any_scheme(),
        f_cost in 1u64..=3,
        b_cost in 1u64..=5,
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let tl = replay_timeline(&cs, f_cost, b_cost, 0);
        let s = cs.stage_map.stages as u64;
        let busy: u64 = tl.busy_per_device().iter().sum();
        prop_assert_eq!(busy, (f_cost + b_cost) * s * b as u64);
    }

    #[test]
    fn memory_replay_peaks_bounded_by_gpipe(
        p in 2u32..=6,
        b in 2u32..=10,
        scheme in any_scheme(),
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let prof = unit_profile(&cs);
        for &ma in &prof.ma_peak_units {
            // Nothing can stash more than every micro-batch of every one of
            // its chunks: B units per weight-copy share.
            let copies = cfg.scheme.weight_replicas() as f64;
            prop_assert!(ma <= copies * b as f64 + 1e-9, "{scheme}: {ma}");
        }
    }

    #[test]
    fn schedules_serde_roundtrip(
        p in 2u32..=5,
        b in 2u32..=6,
        scheme in any_scheme(),
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let json = serde_json::to_string(&schedule).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(schedule, back);
    }

    #[test]
    fn generation_is_deterministic(
        p in 2u32..=6,
        b in 2u32..=10,
        scheme in any_scheme(),
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        prop_assert_eq!(build_schedule(&cfg).unwrap(), build_schedule(&cfg).unwrap());
    }

    #[test]
    fn wave_transformation_never_slower(p in 1u32..=5, b in 1u32..=6) {
        let (p, b) = (2 * p, 2 * b);
        let t = chimera_to_waves(p, b).unwrap();
        let r = t.report();
        prop_assert!(r.wave_makespan <= r.chimera_makespan);
        prop_assert!(r.wave_mw < r.chimera_mw);
    }

    #[test]
    fn optimizer_step_is_always_last(
        p in 2u32..=6,
        b in 2u32..=8,
        scheme in any_scheme(),
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        for list in &schedule.lists {
            prop_assert_eq!(list.actions.last(), Some(&Action::OptimizerStep));
            let steps = list
                .actions
                .iter()
                .filter(|a| **a == Action::OptimizerStep)
                .count();
            prop_assert_eq!(steps, 1, "exactly one flush per device");
        }
    }
}
