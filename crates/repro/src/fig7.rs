//! Figure 7: the four bubble types of a Hanayo iteration — analytic
//! single-bubble sizes (§3.4) next to the idle time measured from the
//! replayed schedule, classified per zone.

use hanayo_core::analysis::zones::{analytic_zones, measure_zones, ZoneMeasurement, ZoneSizes};
use hanayo_core::analysis::CostTerms;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::replay_timeline;
use hanayo_core::schedule::build_compute_schedule;

/// Analytic and measured zone data at the figure's size (`P=4`, `W=1`).
pub(crate) fn data() -> (ZoneSizes, ZoneMeasurement) {
    let analytic = analytic_zones(4, 1, &CostTerms::paper_default());
    let cfg = PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 1 }).expect("valid");
    let cs = build_compute_schedule(&cfg).expect("schedulable");
    let tl = replay_timeline(&cs, 1, 2, 0);
    (analytic, measure_zones(&tl))
}

/// Render the taxonomy.
pub(crate) fn run() -> String {
    let (a, m) = data();
    let zone_b: Vec<String> = a.zone_b.iter().map(|v| format!("{v:.2}")).collect();
    format!(
        "Figure 7: bubble taxonomy of a Hanayo wave pipeline (P=4, W=1, T_F=1, T_B=2)\n\n\
         analytic single-bubble sizes:\n\
           zone A (awaiting forward activation): {:.2}\n\
           zone B (fwd/bwd turnaround, by local rank): [{}]\n\
           zone C (awaiting peer backward): {:.2} / {:.2}\n\
           cross-communication term: {:.2}\n\n\
         measured idle (ticks, replayed schedule):\n\
           zone A: {}   zone B: {}   zone C: {}   total: {}\n",
        a.zone_a,
        zone_b.join(", "),
        a.zone_c.0,
        a.zone_c.1,
        a.cross_comm,
        m.zone_a,
        m.zone_b,
        m.zone_c,
        m.total()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_zones_nonzero() {
        let (_, m) = data();
        assert!(m.total() > 0);
        assert!(m.zone_a > 0);
    }

    #[test]
    fn analytic_sizes_positive_without_comm() {
        let (a, _) = data();
        assert!(a.zone_a > 0.0);
        assert!(a.zone_b.iter().all(|&v| v > 0.0));
        assert_eq!(a.cross_comm, 0.0, "T_C = 0 in the drawing convention");
    }
}
