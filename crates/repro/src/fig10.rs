//! Figure 10: the configuration search — for each method, throughput over
//! the (P, D) grid {(8,4), (16,2), (32,1)} at two global batch sizes on
//! 32 Lonestar6 GPUs, with OOM cells, plus the winning configuration.
//!
//! For Hanayo every cell reports the best wave count in {1, 2, 4, 8}
//! (the paper: "we searched for the best wave number under each
//! parallelism configuration"). Workload: micro-batches of 3 sequences,
//! ZeRO-1-style 8 bytes/param (as in Figs. 9/12); the large-batch rows
//! are where GPipe's stash-everything policy hits the 40 GB ceiling.

use crate::common::{fmt_outcome, render_table, WAVE_SEARCH};
use hanayo_cluster::topology::lonestar6;
use hanayo_model::{ModelConfig, Recompute};
use hanayo_sim::{evaluate_plan, Method, ParallelPlan, PlanResult, SimOptions};
use rayon::prelude::*;

/// One search cell.
#[derive(Debug, Clone)]
pub(crate) struct SearchCell {
    /// Model name.
    pub model: String,
    /// Method label (Hanayo annotated with the winning wave count).
    pub method: String,
    /// Pipeline width.
    pub pp: u32,
    /// Data-parallel width.
    pub dp: u32,
    /// Global batch in micro-batches (across all replicas).
    pub global_batch: u32,
    /// Throughput, `None` on OOM.
    pub throughput: Option<f64>,
}

fn try_plan(model: &ModelConfig, plan: ParallelPlan) -> Option<PlanResult> {
    let cluster = lonestar6(32);
    let r = evaluate_plan(&plan, model, &cluster, SimOptions::default()).ok()?;
    if r.is_oom() {
        None
    } else {
        Some(r)
    }
}

/// Evaluate the whole grid (parallelised with rayon — this is the largest
/// sweep in the harness).
pub(crate) fn data() -> Vec<SearchCell> {
    let grid: Vec<(ModelConfig, u32, (u32, u32))> = [
        ModelConfig::bert64().with_train_bytes_per_param(8),
        ModelConfig::gpt128().with_train_bytes_per_param(8),
    ]
    .into_iter()
    .flat_map(|m| {
        [32u32, 64].into_iter().flat_map(move |gb| {
            let m = m.clone();
            [(8u32, 4u32), (16, 2), (32, 1)].into_iter().map(move |pd| (m.clone(), gb, pd))
        })
    })
    .collect();

    grid.par_iter()
        .flat_map(|(model, global_batch, (pp, dp))| {
            let b = global_batch / dp;
            let mut cells = Vec::new();
            for method in [Method::GPipe, Method::Dapple, Method::ChimeraWave] {
                let plan = ParallelPlan {
                    method,
                    dp: *dp,
                    pp: *pp,
                    micro_batches: b,
                    micro_batch_size: 3,
                    recompute: Recompute::None,
                };
                cells.push(SearchCell {
                    model: model.name.clone(),
                    method: method.label(),
                    pp: *pp,
                    dp: *dp,
                    global_batch: *global_batch,
                    throughput: try_plan(model, plan).map(|r| r.throughput),
                });
            }
            // Hanayo: best wave count for this cell.
            let best = WAVE_SEARCH
                .iter()
                .filter_map(|&w| {
                    let plan = ParallelPlan {
                        method: Method::Hanayo { waves: w },
                        dp: *dp,
                        pp: *pp,
                        micro_batches: b,
                        micro_batch_size: 3,
                        recompute: Recompute::None,
                    };
                    try_plan(model, plan).map(|r| (w, r.throughput))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            cells.push(SearchCell {
                model: model.name.clone(),
                method: best.map(|(w, _)| format!("H-{w}")).unwrap_or_else(|| "H".to_string()),
                pp: *pp,
                dp: *dp,
                global_batch: *global_batch,
                throughput: best.map(|(_, t)| t),
            });
            cells
        })
        .collect()
}

/// The best configuration per (model, method family).
pub(crate) fn best_configs(cells: &[SearchCell]) -> Vec<(String, String, u32, u32, f64)> {
    let mut out = Vec::new();
    for model in ["Bert-64L", "GPT-128L"] {
        for fam in ["G", "D", "C", "H"] {
            let best = cells
                .iter()
                .filter(|c| c.model == model && c.method.starts_with(fam))
                .filter_map(|c| c.throughput.map(|t| (c, t)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((c, t)) = best {
                out.push((model.to_string(), c.method.clone(), c.pp, c.dp, t));
            }
        }
    }
    out
}

/// Render the figure.
pub(crate) fn run() -> String {
    let cells = data();
    let mut out = String::from(
        "Figure 10: configuration search on 32 Lonestar6 GPUs (throughput in sequences/s)\n\n",
    );
    for model in ["Bert-64L", "GPT-128L"] {
        for gb in [32u32, 64] {
            out.push_str(&format!("{model}, global batch = {gb} micro-batches:\n"));
            let rows: Vec<Vec<String>> = [(8u32, 4u32), (16, 2), (32, 1)]
                .iter()
                .map(|(pp, dp)| {
                    let mut row = vec![format!("(P={pp}, D={dp})")];
                    for fam in ["G", "D", "C", "H"] {
                        let cell = cells
                            .iter()
                            .find(|c| {
                                c.model == model
                                    && c.global_batch == gb
                                    && c.pp == *pp
                                    && c.dp == *dp
                                    && c.method.starts_with(fam)
                            })
                            .expect("cell present");
                        let label = if fam == "H" {
                            format!("{} ({})", fmt_outcome(cell.throughput), cell.method)
                        } else {
                            fmt_outcome(cell.throughput)
                        };
                        row.push(label);
                    }
                    row
                })
                .collect();
            out.push_str(&render_table(
                &["config", "GPipe", "DAPPLE", "Chimera", "Hanayo (best W)"],
                &rows,
            ));
            out.push('\n');
        }
    }
    out.push_str("best configuration per method:\n");
    for (model, method, pp, dp, t) in best_configs(&cells) {
        out.push_str(&format!("  {model:<9} {method:<4} -> (P={pp}, D={dp}) at {t:.2} seq/s\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_complete() {
        let cells = data();
        // 2 models × 2 batches × 3 grid points × 4 methods.
        assert_eq!(cells.len(), 48);
    }

    #[test]
    fn some_gpipe_cells_oom() {
        // "The absence of data in certain areas indicates ... OOM" —
        // GPipe must hit at least one OOM cell on the 40 GB parts.
        let cells = data();
        assert!(cells.iter().any(|c| c.method == "G" && c.throughput.is_none()));
    }

    #[test]
    fn hanayo_never_ooms_and_stays_on_top() {
        let cells = data();
        for c in cells.iter().filter(|c| c.method.starts_with("H")) {
            assert!(c.throughput.is_some(), "Hanayo OOM at P={} D={}", c.pp, c.dp);
        }
        // Hanayo strictly wins the paper's chosen shallow-pipe cells; in
        // the deeper pipes the wave subdivision turns communication-bound
        // on Lonestar6's interconnect (especially for the small-hidden GPT
        // model) and straight pipes can edge ahead, so there we only
        // require Hanayo within 10% (P=16) / 15% (P=32). The paper keeps
        // only the per-config *best*, which test
        // `hanayos_best_config_is_the_papers_choice_and_wins_overall`
        // pins down strictly.
        for model in ["Bert-64L", "GPT-128L"] {
            for gb in [32u32, 64] {
                for (pp, dp) in [(8u32, 4u32), (16, 2), (32, 1)] {
                    let of = |fam: &str| {
                        cells
                            .iter()
                            .find(|c| {
                                c.model == model
                                    && c.global_batch == gb
                                    && c.pp == pp
                                    && c.dp == dp
                                    && c.method.starts_with(fam)
                            })
                            .and_then(|c| c.throughput)
                    };
                    let h = of("H").expect("hanayo runs");
                    let slack = match pp {
                        32 => 0.85,
                        16 => 0.90,
                        _ => 1.0,
                    };
                    for fam in ["G", "D", "C"] {
                        if let Some(t) = of(fam) {
                            assert!(
                                h > t * slack,
                                "{model} gb={gb} (P={pp},D={dp}): H {h} vs {fam} {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hanayos_best_config_is_the_papers_choice_and_wins_overall() {
        // The paper settles on (D=4, P=8) with Hanayo on top. Require that
        // for Hanayo and Chimera (the contenders); GPipe/DAPPLE are
        // bubble-bound, not search-bound, so only their presence matters.
        let cells = data();
        let best = best_configs(&cells);
        for (model, method, pp, dp, _) in &best {
            if method.starts_with('H') || method.starts_with('C') {
                assert_eq!((*pp, *dp), (8, 4), "{model}/{method} best config");
            }
        }
        for model in ["Bert-64L", "GPT-128L"] {
            let best_h = best
                .iter()
                .find(|(m, meth, ..)| m == model && meth.starts_with('H'))
                .map(|(.., t)| *t)
                .unwrap();
            for fam in ["G", "D", "C"] {
                if let Some((.., t)) =
                    best.iter().find(|(m, meth, ..)| m == model && meth.starts_with(fam))
                {
                    assert!(best_h > *t, "{model}: H best {best_h} vs {fam} {t}");
                }
            }
        }
    }
}
