//! Cross-validation of the static analyzer against the simulator: every
//! accepted schedule simulates without deadlock, the static memory fold
//! equals the reference engine's in-loop `peak_mem` exactly (the fast
//! engine reports the fold itself), the critical-path bound
//! never exceeds the simulated iteration time, and corrupting a schedule
//! flips the two verdicts together.

use hanayo_analyze::{analyze, check_deadlock_free, AnalysisError, CRITICAL_PATH_SLACK};
use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::action::Schedule;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::program::{Defect, ProgramError};
use hanayo_core::schedule::build_schedule;
use hanayo_model::{CostTable, ModelConfig};
use hanayo_sim::{simulate_reference, try_simulate_traced, SimError, SimOptions};

const P: u32 = 8;
const M: u32 = 8;

fn schemes() -> [Scheme; 7] {
    [
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 1 },
        Scheme::Chimera,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::GPipe,
        Scheme::AsyncPipeDream,
    ]
}

fn build(scheme: Scheme) -> (Schedule, CostTable) {
    let cfg = PipelineConfig::new(P, M, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    (schedule, cost)
}

/// Accepted schedules never deadlock, the static peaks equal the
/// reference engine's accounted peaks exactly, and the critical path
/// lower-bounds the simulated makespan — on all seven named schemes.
#[test]
fn analyzer_matches_simulator_on_named_schemes() {
    let cluster = fc_full_nvlink(P as usize);
    for scheme in schemes() {
        let (schedule, cost) = build(scheme);
        let report = analyze(&schedule, &cost, &cluster)
            .unwrap_or_else(|e| panic!("{scheme:?} rejected: {e}"));
        let sim = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default())
            .map(|(report, _)| report)
            .unwrap_or_else(|e| panic!("{scheme:?} failed to simulate: {e}"));

        assert!(report.fifo_consistent, "{scheme:?}: generated schemes are FIFO-clean");
        let reference = simulate_reference(&schedule, &cost, &cluster, SimOptions::default());
        assert_eq!(report.peak_mem, reference.peak_mem, "{scheme:?}: static peak != engine peak");
        assert_eq!(report.weight_mem, reference.weight_mem, "{scheme:?}: weight mem mismatch");
        let stash: Vec<u64> =
            reference.peak_mem.iter().zip(&reference.weight_mem).map(|(&p, &w)| p - w).collect();
        assert_eq!(report.stash_peak, stash, "{scheme:?}: stash peak mismatch");

        assert!(
            report.critical_path_s <= sim.iteration_time * (1.0 + CRITICAL_PATH_SLACK),
            "{scheme:?}: critical path {} exceeds simulated {}",
            report.critical_path_s,
            sim.iteration_time
        );
        assert!(report.critical_path_s > 0.0, "{scheme:?}: degenerate critical path");
    }
}

/// Reversing one device's action list creates a circular wait (or, if it
/// happens not to, leaves the schedule executable). Whatever the outcome,
/// the static verdict and the simulator's verdict must agree — the
/// soundness *and* completeness half of the deadlock claim — and on a
/// deadlock both name the same stalled device, action and message.
#[test]
fn corrupted_verdicts_agree_with_simulator() {
    let cluster = fc_full_nvlink(P as usize);
    let mut deadlocks = 0usize;
    for scheme in schemes() {
        let (schedule, cost) = build(scheme);
        for victim in [0usize, P as usize / 2, P as usize - 1] {
            let mut corrupted = schedule.clone();
            corrupted.lists[victim].actions.reverse();
            let static_verdict = check_deadlock_free(&corrupted);
            let sim_verdict =
                try_simulate_traced(&corrupted, &cost, &cluster, SimOptions::default())
                    .map(|(report, _)| report);
            match (&static_verdict, &sim_verdict) {
                (Err(AnalysisError::Deadlock(replayed)), Err(SimError::Deadlock(stalled))) => {
                    deadlocks += 1;
                    // The replay and the engine name the same wait.
                    assert_eq!(replayed, stalled, "{scheme:?} (device {victim} reversed)");
                }
                (Ok(()), Ok(_)) => {}
                (s, v) => panic!(
                    "{scheme:?} (device {victim} reversed): static verdict {s:?} \
                     disagrees with simulator {}",
                    match v {
                        Ok(_) => "Ok".to_string(),
                        Err(e) => format!("{e}"),
                    }
                ),
            }
        }
    }
    assert!(deadlocks >= 7, "corruption produced only {deadlocks} deadlocks — too weak a test");
}

/// Dropping a single receive turns up as `UnmatchedSend` (its sender has
/// nobody to hand the message to), never as a false acceptance.
#[test]
fn dropped_recv_is_rejected() {
    let (schedule, _) = build(Scheme::Dapple);
    for d in 0..P as usize {
        let Some(pos) = schedule.lists[d].actions.iter().position(|a| {
            a.comm_ops().iter().any(|op| op.dir == hanayo_core::action::CommDir::Recv)
        }) else {
            continue;
        };
        let mut corrupted = schedule.clone();
        corrupted.lists[d].actions.remove(pos);
        let err = check_deadlock_free(&corrupted).unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::Program(ProgramError {
                    defect: Defect::UnmatchedSend | Defect::UnmatchedRecv,
                    ..
                })
            ),
            "device {d}: expected an unmatched-message defect, got {err}"
        );
        return;
    }
    panic!("no receive found to drop");
}
