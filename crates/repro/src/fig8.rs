//! Figure 8: peak-memory distribution over 32 Lonestar6 GPUs for BERT and
//! GPT under (P=8, D=4) and (P=16, D=2), four schemes each, plus the §5.1
//! balance variances.
//!
//! Workload preset: micro-batch size 2 sequences, `B = 5P/2` micro-batches
//! per pipeline (the stash-heavy regime where GPipe's keep-everything
//! policy breaks 40 GB on the BERT model while the 1F1B-family schemes
//! stay inside — the paper's "GPipe caused OOM errors in two settings").

use crate::common::{eval_methods, render_table};
use hanayo_cluster::topology::lonestar6;
use hanayo_core::memory::mean_variance;
use hanayo_model::{ModelConfig, Recompute};
use hanayo_sim::{evaluate_plan, Method, ParallelPlan, SimOptions};

/// One panel: a model × parallelism setting.
pub(crate) struct Panel {
    /// Caption, e.g. `Bert (P=8, D=4, B=20)`.
    pub caption: String,
    /// Per-method results.
    pub methods: Vec<MethodMemory>,
}

/// Memory outcome of one method in one panel.
pub(crate) struct MethodMemory {
    /// The method.
    pub method: Method,
    /// Peak bytes per global device (all 32).
    #[cfg(test)]
    pub peak_mem: Vec<u64>,
    /// Highest per-device peak, GB.
    pub highest_gb: f64,
    /// Variance of per-device peaks, GB².
    pub variance_gb2: f64,
    /// Did it exceed 40 GB?
    pub oom: bool,
}

fn micro_batches(p: u32) -> u32 {
    5 * p / 2
}

/// Evaluate all four panels.
pub(crate) fn data() -> Vec<Panel> {
    let cluster = lonestar6(32);
    let mut panels = Vec::new();
    for model in [ModelConfig::bert64(), ModelConfig::gpt128()] {
        for (p, d) in [(8u32, 4u32), (16, 2)] {
            let b = micro_batches(p);
            let methods = eval_methods()
                .into_iter()
                .map(|method| {
                    let plan = ParallelPlan {
                        method,
                        dp: d,
                        pp: p,
                        micro_batches: b,
                        micro_batch_size: 2,
                        recompute: Recompute::None,
                    };
                    let r = evaluate_plan(&plan, &model, &cluster, SimOptions::default())
                        .expect("plan fits the cluster");
                    let gb: Vec<f64> = r.peak_mem.iter().map(|&x| x as f64 / 1e9).collect();
                    MethodMemory {
                        method,
                        highest_gb: gb.iter().cloned().fold(0.0, f64::max),
                        variance_gb2: mean_variance(&gb).1,
                        oom: r.is_oom(),
                        #[cfg(test)]
                        peak_mem: r.peak_mem,
                    }
                })
                .collect();
            panels.push(Panel {
                caption: format!("{} (P={p}, D={d}, B={b}, mb=2)", model.name),
                methods,
            });
        }
    }
    panels
}

/// Render the figure.
pub(crate) fn run() -> String {
    let mut out = String::from(
        "Figure 8: peak memory distribution across 32 GPUs (TACC Lonestar6, A100-40GB)\n\n",
    );
    for panel in data() {
        out.push_str(&format!("{}\n", panel.caption));
        let rows: Vec<Vec<String>> = panel
            .methods
            .iter()
            .map(|m| {
                vec![
                    m.method.label(),
                    format!("{:.1}", m.highest_gb),
                    format!("{:.2}", m.variance_gb2),
                    if m.oom { "OOM".into() } else { "ok".into() },
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["method", "highest peak (GB)", "variance (GB^2)", "fits 40GB?"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_ooms_in_exactly_the_bert_panels() {
        let panels = data();
        for panel in &panels {
            let gpipe = &panel.methods[0];
            assert_eq!(gpipe.method, Method::GPipe);
            if panel.caption.contains("Bert") {
                assert!(gpipe.oom, "{}: GPipe should OOM", panel.caption);
            } else {
                assert!(!gpipe.oom, "{}: GPipe should fit", panel.caption);
            }
        }
    }

    #[test]
    fn non_gpipe_methods_always_fit() {
        for panel in data() {
            for m in &panel.methods[1..] {
                assert!(!m.oom, "{}: {} OOMed", panel.caption, m.method);
            }
        }
    }

    #[test]
    fn dapple_is_least_balanced_hanayo_among_most_balanced() {
        // §5.1: DAPPLE variance 16.85 dwarfs GPipe 1.33, Chimera 2.86,
        // Hanayo 1.44 — our shape requirement: DAPPLE's variance is the
        // largest and Hanayo's is below Chimera's and DAPPLE's.
        for panel in data() {
            let by = |m: Method| panel.methods.iter().find(|x| x.method == m).unwrap().variance_gb2;
            let dapple = by(Method::Dapple);
            let hanayo = by(Method::Hanayo { waves: 2 });
            assert!(
                dapple >= panel.methods.iter().map(|m| m.variance_gb2).fold(0.0, f64::max) - 1e-9,
                "{}: DAPPLE must be the most imbalanced",
                panel.caption
            );
            assert!(hanayo < dapple, "{}", panel.caption);
        }
    }

    #[test]
    fn every_device_is_accounted() {
        for panel in data() {
            for m in &panel.methods {
                assert_eq!(m.peak_mem.len(), 32);
                assert!(m.peak_mem.iter().all(|&x| x > 0));
            }
        }
    }
}
