//! A `top: N` tune simulates only the candidates whose throughput bound
//! reaches the N-th best, yet its document must be the full table's
//! rendered with `top: N`, byte for byte, in parallel and `--serial`. The
//! shapes are the planning service's tune requests: bert64 and gpt128 ×
//! {pc, fc, tacc} × {8, 16, 32} GPUs plus tc/8, × `wide` off and on, at
//! `min_pp` 4 and waves {1, 2}. The same sweeps hold every ranked
//! candidate's simulated throughput to its bound: the admissibility the
//! pruning relies on. Last, the service's cache layout — per-configuration
//! caches over one shared shape tier — must change no document, whichever
//! configuration fills a shape first.

use hanayo_analyze::CRITICAL_PATH_SLACK;
use hanayo_serve::schema::{build_sweep_table, run_tune, TuneRequest};
use hanayo_sim::tuner::{throughput_bound, tune_with, TuneOptions};
use hanayo_sim::{ShapeTier, SweepCaches, TuneContext};
use std::collections::HashMap;
use std::sync::Arc;

const TOP: usize = 5;

/// Every request shape at the given global batches.
fn requests(batches: &[u32]) -> Vec<TuneRequest> {
    let mut configs = Vec::new();
    for model in ["bert64", "gpt128"] {
        for cluster in ["pc", "fc", "tacc"] {
            for gpus in [8, 16, 32] {
                configs.push((model, cluster, gpus));
            }
        }
        configs.push((model, "tc", 8));
    }
    let mut out = Vec::new();
    for (model, cluster, gpus) in configs {
        for &batch in batches {
            for wide in [false, true] {
                out.push(TuneRequest {
                    model: model.to_string(),
                    cluster: cluster.to_string(),
                    gpus,
                    batch,
                    micro_batch_size: 1,
                    train_bytes_per_param: 8,
                    min_pp: 4,
                    waves: vec![1, 2],
                    recompute: None,
                    wide,
                    serial: false,
                    top: Some(TOP),
                });
            }
        }
    }
    out
}

fn encode<T: serde::Serialize>(doc: &T) -> String {
    serde_json::to_string(doc).expect("the sweep table encodes")
}

/// One shape: the full sweep rendered with `top`, against the top-k sweep
/// in parallel and serially; then every ranked candidate of the full
/// sweep against its bound.
fn holds(req: &TuneRequest) {
    let (model, cluster, opts) = req.resolve().expect("a known configuration");
    let full_opts = TuneOptions { top: None, ..opts.clone() };
    let ctx = TuneContext::default();
    let full = tune_with(&model, &cluster, req.batch, req.micro_batch_size, &full_opts, &ctx)
        .expect("a default context never cancels");
    assert_eq!(full.unranked, 0, "a full sweep skips nothing");
    let modes = opts.recompute_variants();
    let expected = encode(&build_sweep_table(req, &full, &cluster, &model, &modes));
    for serial in [false, true] {
        let req = TuneRequest { serial, ..req.clone() };
        let top = run_tune(&req, &ctx).expect("a default context never cancels");
        assert_eq!(encode(&top), expected, "{req:?}");
    }

    let caches = SweepCaches::default();
    for c in &full.ranked {
        let bound = throughput_bound(&model, &cluster, &c.plan, &caches)
            .unwrap_or_else(|| panic!("{req:?}: a ranked candidate has a bound: {:?}", c.plan));
        assert!(
            c.result.throughput <= bound * (1.0 + CRITICAL_PATH_SLACK),
            "{req:?}: {:?} under {:?} simulates {} above its bound {bound}",
            c.plan,
            c.sim,
            c.result.throughput
        );
    }
}

#[test]
fn top_k_equals_the_full_prefix() {
    for req in requests(&[16]) {
        holds(&req);
    }
}

/// The whole corpus; CI runs it in release (`--ignored`).
#[test]
#[ignore = "the full 120-shape corpus; run in release with --ignored"]
fn top_k_equals_the_full_prefix_on_every_shape() {
    for req in requests(&[8, 16, 32]) {
        holds(&req);
    }
}

/// The batch-16 slice through per-configuration caches over one shared
/// shape tier, as the service holds them, in request order and reversed:
/// every document, at `top: 5` and in full, equals the fresh-cache one.
#[test]
fn a_shared_shape_tier_changes_no_document() {
    let reqs: Vec<TuneRequest> = requests(&[16])
        .into_iter()
        .flat_map(|req| [Some(TOP), None].map(|top| TuneRequest { top, ..req.clone() }))
        .collect();
    let fresh: Vec<String> = reqs
        .iter()
        .map(|req| encode(&run_tune(req, &TuneContext::default()).expect("never cancels")))
        .collect();
    for reversed in [false, true] {
        let tier = Arc::new(ShapeTier::default());
        let mut configs: HashMap<u64, Arc<SweepCaches>> = HashMap::new();
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        if reversed {
            order.reverse();
        }
        for i in order {
            let req = &reqs[i];
            let caches = configs
                .entry(req.config_key())
                .or_insert_with(|| Arc::new(SweepCaches::over(Arc::clone(&tier), usize::MAX)));
            let ctx = TuneContext { caches: Some(Arc::clone(caches)), ..Default::default() };
            let doc = encode(&run_tune(req, &ctx).expect("never cancels"));
            assert_eq!(doc, fresh[i], "reversed {reversed}: {req:?}");
        }
    }
}
