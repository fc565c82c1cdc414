//! A `top: N` tune simulates only the candidates whose throughput bound
//! reaches the N-th best, yet its document must be the full table's
//! rendered with `top: N`, byte for byte, in parallel and `--serial`. The
//! shapes are the planning service's tune requests: bert64 and gpt128 ×
//! {pc, fc, tacc} × {8, 16, 32} GPUs plus tc/8, × `wide` off and on, at
//! `min_pp` 4 and waves {1, 2}. The same sweeps hold every ranked
//! candidate's simulated throughput to its bound: the admissibility the
//! pruning relies on.

use hanayo_analyze::CRITICAL_PATH_SLACK;
use hanayo_serve::schema::{build_sweep_table, run_tune, TuneRequest};
use hanayo_sim::tuner::{throughput_bound, tune_with, TuneOptions};
use hanayo_sim::{SweepCaches, TuneContext};

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
