//! Property tests for the static analyzer, cross-validated against the
//! simulator on random shapes:
//!
//! * random *legal* tables (gated random walks from generated seeds) are
//!   accepted by the analyzer and never deadlock the simulator;
//! * random corruptions — a dropped receive, a swapped chain pair — are
//!   rejected with the right typed [`AnalysisError`], and the DAG cycle
//!   verdict always agrees with the simulator's deadlock verdict;
//! * the static memory replay equals the simulated `peak_mem` exactly on
//!   random `(scheme, P, B, recompute)` shapes — the bound is tight, not
//!   merely sound.

use hanayo_analyze::{analyze_table, check_deadlock_free, static_peak_mem, AnalysisError};
use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::action::CommDir;
use hanayo_core::comm;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::search::{apply_move, sample_legal_moves};
use hanayo_core::schedule::table::{check_table, ScheduleTable, Slot, TableError, TableLimits};
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_model::{CostTable, ModelConfig, Recompute};
use hanayo_sim::{try_simulate_traced, SimError, SimOptions};
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        Just(Scheme::AsyncPipeDream),
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

fn table_for(p: u32, b: u32, scheme: Scheme) -> ScheduleTable {
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    ScheduleTable::from_compute(&build_compute_schedule(&cfg).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accepted_random_tables_never_deadlock_the_simulator(
        p in 2u32..=5,
        b in 2u32..=6,
        scheme in any_scheme(),
        seed in 0u64..u64::MAX,
        steps in 1usize..=16,
    ) {
        // Walk to an arbitrary legal table no generator emits, then prove
        // it statically and execute it: acceptance must imply the
        // simulator completes (zero false accepts on deadlock).
        let (p, b) = legalise(p, b, scheme);
        let mut table = table_for(p, b, scheme);
        for mv in sample_legal_moves(&table, seed, steps) {
            let mut candidate = table.clone();
            if apply_move(&mut candidate, mv) && check_table(&candidate).is_ok() {
                table = candidate;
            }
        }
        let cluster = fc_full_nvlink(p as usize);
        let cost = CostTable::build(&ModelConfig::bert64(), table.config.stages(), 1);
        let report = analyze_table(&table, &cost, &cluster, TableLimits::default());
        prop_assert!(report.is_ok(), "legal table rejected: {:?}", report);

        let schedule = comm::lower(&table.to_compute());
        let sim = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default());
        prop_assert!(
            !matches!(sim, Err(SimError::Deadlock { .. })),
            "analyzer accepted a deadlocking table"
        );
        // And the bounds the report carries hold against the execution.
        let (report, (sim, _)) = (report.unwrap(), sim.unwrap());
        prop_assert_eq!(&report.peak_mem, &sim.peak_mem);
        prop_assert!(report.critical_path_s <= sim.iteration_time * (1.0 + 1e-9));
    }

    #[test]
    fn dropped_recv_is_a_typed_defect(
        p in 2u32..=5,
        b in 2u32..=6,
        scheme in any_scheme(),
        pick in 0u64..u64::MAX,
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        // Every (device, action) whose action posts at least one receive.
        let recv_sites: Vec<(usize, usize)> = schedule
            .lists
            .iter()
            .enumerate()
            .flat_map(|(d, list)| {
                list.actions.iter().enumerate().filter_map(move |(i, a)| {
                    a.comm_ops().iter().any(|op| op.dir == CommDir::Recv).then_some((d, i))
                })
            })
            .collect();
        prop_assert!(!recv_sites.is_empty(), "every pipeline communicates");
        let (d, i) = recv_sites[(pick % recv_sites.len() as u64) as usize];
        let mut corrupted = schedule;
        corrupted.lists[d].actions.remove(i);
        let err = check_deadlock_free(&corrupted).unwrap_err();
        prop_assert!(
            matches!(
                err,
                AnalysisError::UnmatchedSend { .. } | AnalysisError::UnmatchedRecv { .. }
            ),
            "expected an unmatched-message defect, got {err}"
        );
    }

    #[test]
    fn swapped_chain_pair_is_rejected_and_agrees_with_simulator(
        p in 2u32..=5,
        b in 2u32..=6,
        scheme in any_scheme(),
        pick in 0u64..u64::MAX,
    ) {
        // Swap a forward with the backward of the same micro-batch on one
        // device. At the table layer this is a typed chain violation; at
        // the DAG layer the lowered order either cycles (simulator
        // deadlocks) or happens to stay executable — the two verdicts must
        // match either way.
        let (p, b) = legalise(p, b, scheme);
        let mut table = table_for(p, b, scheme);
        let d = (pick % table.rows.len() as u64) as usize;
        let row = &mut table.rows[d];
        let Some(mb) = row.iter().find_map(|s| match s {
            Slot::Fwd { mb, .. } => Some(*mb),
            _ => None,
        }) else {
            return Ok(());
        };
        let fwd = row.iter().position(|s| matches!(s, Slot::Fwd { mb: m, .. } if *m == mb));
        let bwd = row.iter().position(|s| matches!(s, Slot::Bwd { mb: m, .. } if *m == mb));
        let (Some(fwd), Some(bwd)) = (fwd, bwd) else { return Ok(()) };
        row.swap(fwd, bwd);

        let cluster = fc_full_nvlink(p as usize);
        let cost = CostTable::build(&ModelConfig::bert64(), table.config.stages(), 1);
        let report = analyze_table(&table, &cost, &cluster, TableLimits::default());
        prop_assert!(
            matches!(
                report,
                Err(AnalysisError::Table(TableError::DependencyViolation { .. }))
            ),
            "expected the chain violation, got {:?}",
            report
        );

        let schedule = comm::lower(&table.to_compute());
        let static_verdict = check_deadlock_free(&schedule);
        let sim_verdict = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default());
        match (&static_verdict, &sim_verdict) {
            (Err(AnalysisError::Cycle { .. }), Err(SimError::Deadlock { .. })) => {}
            (Ok(()), Ok(_)) => {}
            _ => prop_assert!(
                false,
                "verdicts disagree: static {:?}, sim deadlock {}",
                static_verdict,
                matches!(sim_verdict, Err(SimError::Deadlock { .. }))
            ),
        }
    }

    #[test]
    fn static_memory_equals_simulated_peaks_on_random_shapes(
        p in 2u32..=6,
        b in 2u32..=8,
        scheme in any_scheme(),
        mbs in 1u32..=2,
        ckpt in 0u32..=1,
    ) {
        let (p, b) = legalise(p, b, scheme);
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let mode = if ckpt == 1 { Recompute::Full } else { Recompute::None };
        let cost = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), mbs, mode);
        let cluster = fc_full_nvlink(p as usize);
        let sim = try_simulate_traced(&schedule, &cost, &cluster, SimOptions::default()).unwrap().0;
        let bound = static_peak_mem(&schedule, &cost);
        // Sound (never below the truth) *and* tight (equal).
        for (d, (&s, &t)) in bound.iter().zip(&sim.peak_mem).enumerate() {
            prop_assert!(s >= t, "device {d}: static {s} below simulated {t}");
        }
        prop_assert_eq!(bound, sim.peak_mem);
    }
}
