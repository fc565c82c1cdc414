//! Fast-path vs. seed engine: the indexed simulator must reproduce the
//! seed `HashMap` engine's reports **exactly** — same makespans, same
//! per-device busy/wait times, same memory peaks, same spans — on every
//! golden scheme at `(P, M)` in `(8, 8)`, `(2, 2)`, `(2, 4)`, `(4, 4)` and
//! `(4, 8)`, under both recompute modes, on real cluster models, under
//! both prefetch settings. This is the contract that lets the tuner's
//! wide sweep run on the fast path while the seed engine stays the
//! oracle. The fast engine's `peak_mem` is the static liveness fold and
//! the seed engine's is its own in-loop accounting, so the equality also
//! checks the fold at every one of these shapes.

use hanayo::cluster::topology::{fc_full_nvlink, lonestar6};
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::{CostTable, ModelConfig, Recompute};
use hanayo::sim::{simulate_reference, try_simulate_traced, SimOptions};

/// The 7 golden schemes frozen under `tests/golden/`.
fn golden_schemes() -> [Scheme; 7] {
    [
        Scheme::GPipe,
        Scheme::Dapple,
        Scheme::Interleaved { chunks: 2 },
        Scheme::Chimera,
        Scheme::Hanayo { waves: 1 },
        Scheme::Hanayo { waves: 2 },
        Scheme::Hanayo { waves: 4 },
    ]
}

fn check_scheme(scheme: Scheme) {
    for (p, b) in [(8, 8), (2, 2), (2, 4), (4, 4), (4, 8)] {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        for recompute in Recompute::ALL {
            let cost = CostTable::build_with(&ModelConfig::bert64(), cfg.stages(), 2, recompute);
            for cluster in [fc_full_nvlink(p as usize), lonestar6(p as usize)] {
                for opts in
                    [SimOptions::default(), SimOptions { prefetch: false, ..Default::default() }]
                {
                    let fast = try_simulate_traced(&schedule, &cost, &cluster, opts).unwrap().0;
                    let seed = simulate_reference(&schedule, &cost, &cluster, opts);
                    let at = format!(
                        "{scheme} P={p} B={b} {recompute} on {} (prefetch={})",
                        cluster.name, opts.prefetch
                    );
                    assert_eq!(fast.iteration_time, seed.iteration_time, "{at}: makespan diverged");
                    assert_eq!(fast, seed, "{at}: full report diverged");
                }
            }
        }
    }
}

#[test]
fn gpipe_fast_path_matches_seed_engine() {
    check_scheme(Scheme::GPipe);
}

#[test]
fn dapple_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Dapple);
}

#[test]
fn interleaved_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Interleaved { chunks: 2 });
}

#[test]
fn chimera_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Chimera);
}

#[test]
fn hanayo_one_wave_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Hanayo { waves: 1 });
}

#[test]
fn hanayo_two_wave_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Hanayo { waves: 2 });
}

#[test]
fn hanayo_four_wave_fast_path_matches_seed_engine() {
    check_scheme(Scheme::Hanayo { waves: 4 });
}

#[test]
fn all_golden_schemes_are_covered() {
    // Keep this list in lock-step with tests/golden/.
    assert_eq!(golden_schemes().len(), 7);
}
