//! Property tests for the schedule layer: generation, lowering, memory
//! replay, timing replay and serialization, over randomly drawn pipeline
//! shapes. Validity of generated schedules is pinned in `hanayo-analyze`
//! (`tests/verify.rs`).

use hanayo_core::action::{Action, CommDir, Schedule};
use hanayo_core::chain::{ComputeOp, ComputeSchedule};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::{replay_timeline, Span, Timeline};
use hanayo_core::memory::unit_profile;
use hanayo_core::schedule::search::{apply_move, sample_legal_moves};
use hanayo_core::schedule::table::{check_table, ScheduleTable};
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_core::transform::chimera_to_waves;
use proptest::prelude::*;
use std::collections::HashMap;

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

/// The compute-only unit replay `replay_timeline` ran before it became a
/// walk of the lowered program, kept as its oracle: each op starts once
/// its device is free and its chain predecessor has ended, plus
/// `comm_cost` when the predecessor ran on another device.
fn reference_timeline(cs: &ComputeSchedule, f_cost: u64, b_cost: u64, comm_cost: u64) -> Timeline {
    let s = cs.stage_map.stages;
    let n = cs.per_device.len();
    let mut pc = vec![0usize; n];
    let mut free = vec![0u64; n];
    let mut done: HashMap<(u32, u32), u64> = HashMap::new();
    let mut spans: Vec<Vec<Span>> = (0..n).map(|_| Vec::new()).collect();
    let mut remaining: usize = cs.per_device.iter().map(Vec::len).sum();

    while remaining > 0 {
        let mut progress = false;
        for d in 0..n {
            while pc[d] < cs.per_device[d].len() {
                let op = cs.per_device[d][pc[d]];
                let pos = op.pos(s);
                let dep_ready = if pos == 0 {
                    Some(0)
                } else {
                    done.get(&(op.mb.0, pos - 1)).map(|&t| {
                        let prev = ComputeOp::from_pos(op.mb, pos - 1, s);
                        let prev_dev = cs.stage_map.device_of(prev.mb, prev.stage);
                        if prev_dev.idx() == d {
                            t
                        } else {
                            t + comm_cost
                        }
                    })
                };
                let Some(ready) = dep_ready else { break };
                let start = ready.max(free[d]);
                let cost = if op.backward { b_cost } else { f_cost };
                let end = start + cost;
                spans[d].push(Span { start, end, op });
                done.insert((op.mb.0, pos), end);
                free[d] = end;
                pc[d] += 1;
                remaining -= 1;
                progress = true;
            }
        }
        assert!(progress, "replay stalled on an invalid schedule");
    }

    let makespan = free.into_iter().max().unwrap_or(0);
    Timeline { spans, makespan }
}

/// Unit costs `(T_F, T_B, T_C)` the oracle comparisons cycle through:
/// zero durations, zero and non-zero messages, `T_B` above and below
/// `T_F`.
const UNIT_COSTS: [(u64, u64, u64); 6] =
    [(1, 2, 0), (1, 2, 1), (0, 0, 0), (0, 3, 2), (3, 1, 0), (2, 5, 7)];

/// Hold `replay_timeline` equal to its oracle on every shape each scheme
/// generates at `P ∈ 1..=16`, `B ∈ 1..=4P`, cycling through
/// [`UNIT_COSTS`]; returns how many shapes were compared.
fn replay_matches_oracle_on_every_shape(schemes: &[Scheme]) -> usize {
    let mut cases = 0usize;
    for &scheme in schemes {
        for p in 1u32..=16 {
            for b in 1..=4 * p {
                let Ok(cs) = PipelineConfig::new(p, b, scheme)
                    .map_err(|e| e.to_string())
                    .and_then(|cfg| build_compute_schedule(&cfg).map_err(|e| e.to_string()))
                else {
                    continue;
                };
                let (f, bw, c) = UNIT_COSTS[cases % UNIT_COSTS.len()];
                assert_eq!(
                    replay_timeline(&cs, f, bw, c),
                    reference_timeline(&cs, f, bw, c),
                    "{scheme} P={p} B={b} costs ({f}, {bw}, {c})"
                );
                cases += 1;
            }
        }
    }
    cases
}

#[test]
fn unit_replay_equals_its_oracle_on_every_straight_and_bidirectional_shape() {
    let schemes = [Scheme::GPipe, Scheme::Dapple, Scheme::AsyncPipeDream, Scheme::Chimera];
    let cases = replay_matches_oracle_on_every_shape(&schemes);
    assert!(cases > 1500, "only {cases} generated shapes compared");
}

#[test]
fn unit_replay_equals_its_oracle_on_every_interleaved_and_wave_shape() {
    let schemes = [
        Scheme::Interleaved { chunks: 2 },
        Scheme::Interleaved { chunks: 4 },
        Scheme::Hanayo { waves: 1 },
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 4 },
    ];
    let cases = replay_matches_oracle_on_every_shape(&schemes);
    assert!(cases > 2000, "only {cases} generated shapes compared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_replay_equals_its_oracle_on_random_walked_tables(
        p in 2u32..=5,
        b in 2u32..=8,
        scheme in any_scheme(),
        seed in 0u64..u64::MAX,
        steps in 1usize..=24,
        costs in (0u64..=3, 0u64..=3, 0u64..=3),
    ) {
        // Walk to an arbitrary legal table no generator emits.
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let mut table = ScheduleTable::from_compute(&build_compute_schedule(&cfg).unwrap());
        for mv in sample_legal_moves(&table, seed, steps) {
            let mut candidate = table.clone();
            if apply_move(&mut candidate, mv) && check_table(&candidate).is_ok() {
                table = candidate;
            }
        }
        let cs = table.to_compute();
        let (f, bw, c) = costs;
        prop_assert_eq!(replay_timeline(&cs, f, bw, c), reference_timeline(&cs, f, bw, c));
    }

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
