//! `verify`, the one validity check for lowered schedules: every generated
//! and hand-built scheme passes it, and each defect class comes back as
//! the typed error naming its device and action index — including the two
//! defects the happens-before replay alone cannot see, which `analyze()`
//! therefore rejects too.

use hanayo_analyze::{analyze, check_deadlock_free, verify, AnalysisError};
use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::action::{Action, CommDir, MsgTag, Payload, Schedule};
use hanayo_core::chain::ComputeOp;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::ids::{DeviceId, MicroBatch, ReplicaId, StageId};
use hanayo_core::program::Defect;
use hanayo_core::schedule::build_schedule;
use hanayo_core::schedule::custom::build_custom_schedule;
use hanayo_core::schedule::table::TableError;
use hanayo_core::stage_map::{PathGroup, StageMap};
use hanayo_model::{CostTable, ModelConfig};
use proptest::prelude::*;

fn built(p: u32, b: u32, scheme: Scheme) -> Schedule {
    build_schedule(&PipelineConfig::new(p, b, scheme).unwrap()).unwrap()
}

/// `verify` and `analyze()` both reject `s` with `expected`.
fn rejected_by_both(s: &Schedule, expected: &AnalysisError) {
    assert_eq!(verify(s).as_ref(), Err(expected));
    let cost = CostTable::build(&ModelConfig::bert64(), s.stage_map.stages, 1);
    let cluster = fc_full_nvlink(s.lists.len());
    assert_eq!(analyze(s, &cost, &cluster).err().as_ref(), Some(expected));
}

fn position(s: &Schedule, device: usize, pred: impl Fn(&Action) -> bool) -> usize {
    s.lists[device].actions.iter().position(pred).expect("action present")
}

#[test]
fn all_generated_schedules_verify() {
    let schemes = [
        Scheme::GPipe,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::Chimera,
        Scheme::Hanayo { waves: 1 },
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 3 },
    ];
    for p in [2u32, 4, 6, 8] {
        for b in [p, 2 * p, 3 * p] {
            for scheme in schemes {
                let s = built(p, b, scheme);
                verify(&s).unwrap_or_else(|e| panic!("{scheme} P={p} B={b}: {e}"));
            }
        }
    }
}

#[test]
fn turnaround_swap_is_an_order_violation() {
    // B(mb0, S_last) listed before F(mb0, S_last) on their shared device:
    // no message orders the two, so the replay runs to the end.
    for scheme in [Scheme::Hanayo { waves: 2 }, Scheme::Dapple, Scheme::GPipe] {
        let mut s = built(4, 4, scheme);
        let last = StageId(s.stage_map.stages - 1);
        let device = s.stage_map.device_of(MicroBatch(0), last);
        let (fwd, bwd) = (ComputeOp::fwd(0, last.0), ComputeOp::bwd(0, last.0));
        let f = position(&s, device.idx(), |a| a.compute_op() == Some(fwd));
        let b = position(&s, device.idx(), |a| a.compute_op() == Some(bwd));
        s.lists[device.idx()].actions.swap(f, b);
        assert_eq!(check_deadlock_free(&s), Ok(()), "{scheme}: the replay alone accepts it");
        let expected = TableError::DependencyViolation { op: bwd, column: f, dep_column: b };
        rejected_by_both(&s, &AnalysisError::Table(expected));
        assert_eq!(s.lists[device.idx()].actions[f].compute_op(), Some(bwd), "{scheme}");
    }
}

#[test]
fn stripped_communication_leaves_steps_uncarried() {
    for scheme in [Scheme::Hanayo { waves: 2 }, Scheme::Dapple, Scheme::GPipe] {
        let mut s = built(4, 4, scheme);
        for list in &mut s.lists {
            list.actions.retain(|a| a.comm_ops().is_empty());
        }
        assert_eq!(check_deadlock_free(&s), Ok(()), "{scheme}: the replay alone accepts it");
        // The first cross-device step: F(mb0, S1) on device 1.
        let index = position(&s, 1, |a| a.compute_op() == Some(ComputeOp::fwd(0, 1)));
        let tag = MsgTag { mb: MicroBatch(0), stage: StageId(1), payload: Payload::Activation };
        let expected = AnalysisError::UncarriedStep { device: DeviceId(1), index, tag };
        rejected_by_both(&s, &expected);
        let msg = expected.to_string();
        assert!(msg.contains(&format!("P1#{index}")), "{msg}");
    }
}

#[test]
fn detects_missing_flush() {
    let mut s = built(2, 2, Scheme::GPipe);
    s.lists[0].actions.pop();
    let index = s.lists[0].actions.len();
    assert_eq!(verify(&s), Err(AnalysisError::MissingFlush { device: DeviceId(0), index }));

    // A flush before the end is one too many.
    let mut s = built(2, 2, Scheme::GPipe);
    s.lists[1].actions.insert(0, Action::OptimizerStep);
    assert_eq!(verify(&s), Err(AnalysisError::MissingFlush { device: DeviceId(1), index: 0 }));
}

#[test]
fn detects_duplicate_op() {
    let mut s = built(2, 2, Scheme::GPipe);
    let op = s.lists[0].actions.iter().find_map(Action::compute_op).unwrap();
    let dup = s.lists[0].actions[0].clone();
    s.lists[0].actions.insert(0, dup);
    let expected = TableError::DuplicateOp { op, device: DeviceId(0), column: 1 };
    assert_eq!(verify(&s), Err(AnalysisError::Table(expected)));
}

#[test]
fn detects_missing_op() {
    let mut s = built(2, 2, Scheme::GPipe);
    let idx = position(&s, 1, |a| matches!(a, Action::Backward { .. }));
    let op = s.lists[1].actions.remove(idx).compute_op().unwrap();
    assert_eq!(verify(&s), Err(AnalysisError::Table(TableError::MissingOp(op))));
}

#[test]
fn detects_unmatched_message() {
    let mut s = built(2, 2, Scheme::GPipe);
    let idx = position(&s, 1, |a| a.comm_ops().iter().any(|o| o.dir == CommDir::Recv));
    s.lists[1].actions.remove(idx);
    let err = verify(&s).unwrap_err();
    let AnalysisError::Program(e) = &err else { panic!("{err}") };
    assert_eq!((e.device, e.defect), (DeviceId(0), Defect::UnmatchedSend), "{err}");
}

#[test]
fn detects_a_receive_reordered_after_its_consumer() {
    let mut s = built(2, 2, Scheme::GPipe);
    let recv = position(&s, 1, |a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv));
    let Action::Comm(op) = s.lists[1].actions[recv].clone() else { unreachable!() };
    s.lists[1].actions.swap(recv, recv + 1);
    assert!(s.lists[1].actions[recv].is_compute(), "a compute follows the receive");
    let expected = AnalysisError::UncarriedStep { device: DeviceId(1), index: recv, tag: op.tag };
    assert_eq!(verify(&s), Err(expected));
}

#[test]
fn detects_an_op_on_the_wrong_device() {
    let mut s = built(2, 2, Scheme::GPipe);
    let idx = position(&s, 1, Action::is_compute);
    let moved = s.lists[1].actions.remove(idx);
    let op = moved.compute_op().unwrap();
    s.lists[0].actions.insert(0, moved);
    let expected = TableError::WrongDevice { op, device: DeviceId(0), expected: DeviceId(1) };
    assert_eq!(verify(&s), Err(AnalysisError::Table(expected)));
}

// ---------------------------------------------------------------------
// Hand-built stage maps (`build_custom_schedule`)
// ---------------------------------------------------------------------

fn custom(devices: u32, path: Vec<u32>, b: u32) -> Schedule {
    let map = StageMap {
        devices,
        stages: path.len() as u32,
        groups: vec![PathGroup {
            path: path.into_iter().map(DeviceId).collect(),
            replica: ReplicaId(0),
        }],
        mb_group: vec![0; b as usize],
    };
    let cfg = PipelineConfig::new(devices, b, Scheme::GPipe).unwrap();
    build_custom_schedule(&cfg, map, None).unwrap()
}

#[test]
fn zigzag_pipeline_schedules_and_verifies() {
    verify(&custom(4, vec![0, 1, 2, 3, 1, 2], 4)).unwrap();
}

#[test]
fn single_device_chain_works() {
    // Degenerate: the whole "pipeline" on one device — still valid, and
    // without any communication.
    let s = custom(1, vec![0, 0, 0], 2);
    verify(&s).unwrap();
    assert!(s.iter_actions().all(|(_, a)| a.comm_ops().is_empty()));
}

#[test]
fn reversed_pipeline_is_just_as_valid() {
    verify(&custom(3, vec![2, 1, 0], 3)).unwrap();
}

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        (1u32..=4).prop_map(|w| Scheme::Hanayo { waves: w }),
        (2u32..=4).prop_map(|v| Scheme::Interleaved { chunks: v }),
        Just(Scheme::Chimera),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_schedules_always_verify(
        p in 2u32..=7,
        b in 2u32..=14,
        scheme in any_scheme(),
    ) {
        // Chimera needs even splits.
        let (p, b) = if matches!(scheme, Scheme::Chimera) {
            ((p + p % 2).max(2), (b + b % 2).max(2))
        } else {
            (p, b)
        };
        prop_assert_eq!(verify(&built(p, b, scheme)), Ok(()));
    }
}
