//! Property tests for the parallel tuner: across random `(model, cluster,
//! batch)` triples, parallel evaluation must return a [`Tuning`] that is
//! **byte-identical** (per its JSON serialisation) to the serial reference
//! run — worker interleaving must never leak into the ranking.

use hanayo_cluster::topology::{lonestar6, paper_clusters};
use hanayo_model::{ModelConfig, Recompute};
use hanayo_sim::tuner::{tune_serial_with, tune_with, Rejection, TuneContext, TuneOptions};
use hanayo_sim::ParallelPlan;
use proptest::prelude::*;

fn pick_model(idx: usize) -> ModelConfig {
    let m = if idx == 0 { ModelConfig::bert64() } else { ModelConfig::gpt128() };
    m.with_train_bytes_per_param(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_tuning_is_byte_identical_to_serial(
        model_idx in 0usize..2,
        cluster_idx in 0usize..4,
        batch in 4u32..=16,
        micro_batch_size in 1u32..=2,
        wide in 0u8..2,
    ) {
        let model = pick_model(model_idx);
        let cluster = paper_clusters(8).remove(cluster_idx);
        let mut opts = TuneOptions { min_pp: 4, ..Default::default() };
        if wide == 1 {
            opts = opts.wide();
        }
        let ctx = TuneContext::default();
        let par = tune_with(&model, &cluster, batch, micro_batch_size, &opts, &ctx).unwrap();
        let ser = tune_serial_with(&model, &cluster, batch, micro_batch_size, &opts, &ctx).unwrap();
        prop_assert_eq!(&par, &ser, "structural divergence");
        let par_bytes = serde_json::to_string(&par).expect("tuning serialises");
        let ser_bytes = serde_json::to_string(&ser).expect("tuning serialises");
        prop_assert_eq!(par_bytes, ser_bytes, "byte divergence");
    }

    #[test]
    fn recompute_axis_keeps_parallel_serial_byte_identical(
        model_idx in 0usize..2,
        cluster_idx in 0usize..4,
        batch in 4u32..=12,
        micro_batch_size in 1u32..=2,
    ) {
        // The new axis enabled explicitly (not via .wide()): parallel and
        // serial evaluation must still serialise to the same bytes, and
        // every ranked candidate must carry one of the swept modes.
        let model = pick_model(model_idx);
        let cluster = paper_clusters(8).remove(cluster_idx);
        let opts = TuneOptions {
            min_pp: 4,
            recompute_modes: Recompute::ALL.to_vec(),
            ..Default::default()
        };
        let ctx = TuneContext::default();
        let par = tune_with(&model, &cluster, batch, micro_batch_size, &opts, &ctx).unwrap();
        let ser = tune_serial_with(&model, &cluster, batch, micro_batch_size, &opts, &ctx).unwrap();
        let par_bytes = serde_json::to_string(&par).expect("tuning serialises");
        let ser_bytes = serde_json::to_string(&ser).expect("tuning serialises");
        prop_assert_eq!(par_bytes, ser_bytes, "byte divergence with the recompute axis");
        // Both modes genuinely appear in the evaluated space.
        for mode in Recompute::ALL {
            let seen = par.ranked.iter().any(|c| c.plan.recompute == mode)
                || par.rejected.iter().any(|r| r.plan().recompute == mode);
            prop_assert!(seen, "mode {mode} missing from the space");
        }
    }

    #[test]
    fn every_candidate_is_ranked_or_rejected(
        model_idx in 0usize..2,
        cluster_idx in 0usize..4,
        batch in 4u32..=12,
    ) {
        // The widened space never loses candidates: repeated runs agree on
        // the exact partition sizes, and nothing is both ranked and
        // rejected.
        let model = pick_model(model_idx);
        let cluster = paper_clusters(8).remove(cluster_idx);
        let opts = TuneOptions { min_pp: 4, ..Default::default() }.wide();
        let a = tune_with(&model, &cluster, batch, 1, &opts, &TuneContext::default()).unwrap();
        let b = tune_with(&model, &cluster, batch, 1, &opts, &TuneContext::default()).unwrap();
        prop_assert_eq!(a.ranked.len(), b.ranked.len());
        prop_assert_eq!(a.rejected.len(), b.rejected.len());
        for c in &a.ranked {
            let also_rejected = a.rejected.iter().any(|r| {
                let sim = match r {
                    hanayo_sim::Rejection::Oom { sim, .. } => sim,
                    hanayo_sim::Rejection::InvalidShape { sim, .. } => sim,
                };
                r.plan() == &c.plan && *sim == c.sim
            });
            prop_assert!(!also_rejected, "candidate both ranked and rejected");
        }
    }
}

/// Regression: a capacity-constrained cluster that is infeasible under
/// `Recompute::None` (nothing ranked, only OOM rejections) becomes
/// feasible once the recompute axis is enabled — and the ranked table
/// names the mode that made it fit.
#[test]
fn capacity_constrained_cluster_is_rescued_by_the_recompute_axis() {
    // BERT with the full 16 B/param mixed-precision Adam accounting on
    // 40 GB A100s, 8-sequence micro-batches: every stash-everything plan
    // overflows the card.
    let model = ModelConfig::bert64();
    let cluster = lonestar6(8);
    let narrow = TuneOptions { min_pp: 8, ..Default::default() };

    let none_only = tune_with(&model, &cluster, 16, 8, &narrow, &TuneContext::default()).unwrap();
    assert!(none_only.best().is_none(), "expected no feasible plan under Recompute::None");
    assert!(
        none_only.rejected.iter().any(Rejection::is_oom),
        "the infeasibility must be memory, not shape"
    );

    let with_axis = TuneOptions { recompute_modes: Recompute::ALL.to_vec(), ..narrow };
    let tuning = tune_with(&model, &cluster, 16, 8, &with_axis, &TuneContext::default()).unwrap();
    let best = tuning.best().expect("a checkpointed plan must fit");
    assert_eq!(best.plan.recompute, Recompute::Full, "the ranked table must name the mode");
    // The winner's stash-everything twin is still an OOM rejection: the
    // mode — and nothing else — is what rescued the plan.
    let twin = ParallelPlan { recompute: Recompute::None, ..best.plan };
    assert!(tuning.rejected.iter().any(|r| r.is_oom() && r.plan() == &twin));
    // Serial evaluation agrees byte for byte on the rescued space.
    let serial =
        tune_serial_with(&model, &cluster, 16, 8, &with_axis, &TuneContext::default()).unwrap();
    assert_eq!(serde_json::to_string(&tuning).unwrap(), serde_json::to_string(&serial).unwrap());
}
