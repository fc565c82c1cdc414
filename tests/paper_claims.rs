//! The paper's headline quantitative claims, asserted end-to-end against
//! the reproduction (the per-figure details live in `hanayo-repro`'s unit
//! tests; these are the top-line numbers a reader would quote).

use hanayo::cluster::{ClusterSpec, GpuModel, Link, LinkClass};
use hanayo::core::analysis::bubble;
use hanayo::core::analysis::CostTerms;
use hanayo::core::config::{PipelineConfig, Scheme};
use hanayo::core::schedule::build_schedule;
use hanayo::model::CostTable;
use hanayo::repro::{fig11, fig12, fig9};
use hanayo::sim::{try_simulate_traced, SimOptions};
use hanayo::trace::Trace;

#[test]
fn abstract_bubble_ratio_drops_sharply_with_waves() {
    // §3.4: "(2P-2)/(3PW+P-1) decreases with an increasing number of waves".
    let c = CostTerms::paper_default();
    let h2 = bubble::hanayo_eq1(32, 2, &c);
    let h8 = bubble::hanayo_eq1(32, 8, &c);
    assert!(h8 < h2 / 2.0, "H-8 {h8} vs H-2 {h2}");
}

/// An idealised cluster for closed-form cross-checks: every link is
/// loopback-class (infinite bandwidth, zero latency), so `T_C = 0` exactly
/// as the formulas assume.
fn ideal_cluster(p: usize) -> ClusterSpec {
    ClusterSpec {
        name: "ideal".into(),
        gpus: vec![GpuModel::A100_80G; p],
        node: vec![0; p],
        links: (0..p).map(|_| (0..p).map(|_| Link::of(LinkClass::Local)).collect()).collect(),
        mfu: 0.5,
        device_mtbf_s: f64::INFINITY,
    }
}

/// A uniform cost table with per-stage forward time exactly 1 simulated
/// second and `T_B = 2 T_F` (the paper's drawing convention).
fn uniform_cost(s: u32, eff: f64) -> CostTable {
    let s = s as usize;
    CostTable {
        layers_per_stage: vec![1.0; s],
        fwd_flops: vec![eff; s],
        bwd_flops: vec![2.0 * eff; s],
        stash_bytes: vec![1; s],
        weight_bytes: vec![1; s],
        grad_bytes: vec![1; s],
        msg_bytes: 1,
    }
}

fn traced_bubble(p: u32, b: u32, scheme: Scheme) -> f64 {
    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cluster = ideal_cluster(p as usize);
    let cost = uniform_cost(cfg.stages(), cluster.effective_flops(0));
    let (report, trace) = try_simulate_traced(
        &schedule,
        &cost,
        &cluster,
        SimOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace: Trace = trace.expect("trace requested");
    // The trace and the report measure the same run.
    assert_eq!(trace.makespan(), report.iteration_time);
    trace.bubble_ratio()
}

#[test]
fn trace_measured_bubble_equals_closed_forms_for_gpipe_and_1f1b() {
    // Under uniform costs and free links the *measured* bubble ratio of
    // the executed schedule is the textbook (P-1)/(B+P-1) — for GPipe and
    // DAPPLE the formula is exact, and the trace reproduces it to float
    // rounding.
    let c = CostTerms::paper_default();
    for (p, b) in [(4u32, 4u32), (8, 8), (8, 16), (4, 8)] {
        for scheme in [Scheme::GPipe, Scheme::Dapple] {
            let measured = traced_bubble(p, b, scheme);
            let closed = bubble::gpipe(p, b, &c);
            assert!(
                (measured - closed).abs() < 1e-12,
                "{scheme} P={p} B={b}: measured {measured} vs closed form {closed}"
            );
        }
    }
}

#[test]
fn trace_measured_hanayo_bubble_converges_to_eq1_from_below() {
    // Eq. 1 (§3.4) is the paper's closed-form estimate at B = P. The
    // executed wave schedule is never *worse* than the estimate, and the
    // gap closes as waves grow (the regime the derivation assumes):
    // measured ≤ Eq. 1, within 2% absolute by W = 2 and 0.1% by W = 4.
    let c = CostTerms::paper_default();
    let gap = |w: u32| {
        let measured = traced_bubble(8, 8, Scheme::Hanayo { waves: w });
        let eq1 = bubble::hanayo_eq1(8, w, &c);
        assert!(measured <= eq1 + 1e-9, "W={w}: measured {measured} beats Eq.1 {eq1}");
        eq1 - measured
    };
    let (g1, g2, g4) = (gap(1), gap(2), gap(4));
    assert!(g2 < g1 && g4 < g2, "gaps must shrink with waves: {g1} {g2} {g4}");
    assert!(g2 < 0.02, "W=2 gap {g2}");
    assert!(g4 < 0.001, "W=4 gap {g4}");
}

#[test]
fn headline_up_to_30_percent_over_chimera() {
    // Abstract: "up to a 30.4% increase in throughput compared to the
    // state-of-the-art approach". Require the best observed improvement
    // across the eight Fig. 9 settings to reach at least 20%.
    let best = fig9::hanayo_over_chimera().into_iter().map(|(_, pct)| pct).fold(f64::MIN, f64::max);
    assert!(best >= 20.0, "best improvement over Chimera only {best:.1}%");
}

#[test]
fn weak_scaling_efficiency_near_perfect() {
    // §5.4: parallel efficiency "100.1% and 99.8%".
    let bars = fig11::data();
    for (p, eff) in fig11::hanayo_efficiency(&bars) {
        assert!(eff > 0.90, "P={p}: efficiency {:.1}%", 100.0 * eff);
    }
}

#[test]
fn strong_scaling_monotone_and_oom_pattern() {
    // §5.5: Hanayo handles the fixed batch at every scale; GPipe cannot at
    // 8 GPUs; speedups grow with devices.
    let bars = fig12::data();
    let gpipe8 = bars.iter().find(|b| b.devices == 8 && b.method.starts_with("GPipe")).unwrap();
    assert!(gpipe8.throughput.is_none());
    let speedups = fig12::hanayo_speedups(&bars);
    assert!(speedups[0].1 > 100.0 && speedups[1].1 > speedups[0].1);
}
