//! The unified performance model (§3.4, "Through theoretical analysis, we
//! obtain a unified performance model for pipeline parallelism").
//!
//! For every scheme we estimate one iteration's wall time as
//! `useful work + ramp bubble`:
//!
//! ```text
//! T_iter = B·(T_F + T_B) + Δ(scheme, P, W, T_C)
//! ```
//!
//! where the ramp `Δ` is independent of `B` for 1F1B-family schedules (the
//! steady state is bubble-free) and the formulas mirror
//! [`crate::analysis::bubble`]. Nothing outside this file calls it: the
//! configuration search (Fig. 10) ranks candidates by the discrete-event
//! simulator alone, and no caller checks one against the other.

use super::CostTerms;
use crate::config::Scheme;

/// Ramp (bubble) time `Δ` of one iteration.
pub fn ramp_time(scheme: Scheme, p: u32, c: &CostTerms) -> f64 {
    let pf = p as f64;
    match scheme {
        Scheme::GPipe | Scheme::Dapple | Scheme::AsyncPipeDream => {
            (pf - 1.0) * (c.t_f + c.t_b) + 2.0 * (pf - 1.0) * c.t_c
        }
        Scheme::Interleaved { chunks } => {
            // Each chunk is 1/chunks of a stage: the ramp shrinks v-fold but
            // every stage boundary now communicates.
            (pf - 1.0) * (c.t_f + c.t_b) / chunks as f64 + 2.0 * (pf - 1.0) * c.t_c * chunks as f64
        }
        Scheme::Chimera => (pf / 2.0 - 1.0) * (c.t_f + c.t_b) + (pf - 2.0) * c.t_c,
        Scheme::Hanayo { waves } => {
            // Compute ramp: invert Eq. (1) with T_C = 0 at B = P
            // (ratio = Δ / (P(T_F+T_B) + Δ)), then add Eq. (1)'s
            // communication-bubble terms, which grow with the wave count —
            // this is what makes the optimal W finite on slow interconnects
            // (§5.2).
            let c0 = CostTerms { t_c: 0.0, ..*c };
            let r = super::bubble::hanayo_eq1(p, waves, &c0);
            let work = pf * (c.t_f + c.t_b);
            let compute_ramp = r * work / (1.0 - r);
            let wf = waves as f64;
            let comm_bubble = (1.0 + 2.0 * wf + 2.0 / pf + (pf - 2.0) / 3.0) * c.t_c;
            compute_ramp + comm_bubble
        }
    }
}

/// Estimated wall time of one iteration with `B` micro-batches.
pub fn iteration_time(scheme: Scheme, p: u32, b: u32, c: &CostTerms) -> f64 {
    b as f64 * (c.t_f + c.t_b) + ramp_time(scheme, p, c)
}

/// Estimated throughput in micro-batches per unit time.
pub fn throughput(scheme: Scheme, p: u32, b: u32, c: &CostTerms) -> f64 {
    b as f64 / iteration_time(scheme, p, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hanayo_ramp_shrinks_with_waves() {
        let c = CostTerms::paper_default();
        let r1 = ramp_time(Scheme::Hanayo { waves: 1 }, 8, &c);
        let r2 = ramp_time(Scheme::Hanayo { waves: 2 }, 8, &c);
        let r4 = ramp_time(Scheme::Hanayo { waves: 4 }, 8, &c);
        assert!(r1 > r2 && r2 > r4, "{r1} {r2} {r4}");
    }

    #[test]
    fn hanayo_beats_chimera_beats_dapple() {
        let c = CostTerms::paper_default();
        let d = throughput(Scheme::Dapple, 8, 8, &c);
        let ch = throughput(Scheme::Chimera, 8, 8, &c);
        let h = throughput(Scheme::Hanayo { waves: 2 }, 8, 8, &c);
        assert!(ch > d);
        assert!(h > ch);
    }

    #[test]
    fn iteration_time_grows_linearly_in_b() {
        let c = CostTerms::paper_default();
        let t1 = iteration_time(Scheme::Dapple, 4, 4, &c);
        let t2 = iteration_time(Scheme::Dapple, 4, 8, &c);
        assert!((t2 - t1 - 4.0 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn gpipe_iteration_matches_replay() {
        // Cross-check against the abstract replay: (B+P-1)(TF+TB).
        let c = CostTerms::paper_default();
        let t = iteration_time(Scheme::GPipe, 4, 4, &c);
        assert!((t - 21.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_comm_penalises_many_waves() {
        let c = CostTerms::with_comm(1.0, 2.0, 0.8);
        let h2 = iteration_time(Scheme::Hanayo { waves: 2 }, 8, 8, &c);
        let h8 = iteration_time(Scheme::Hanayo { waves: 8 }, 8, 8, &c);
        assert!(h8 > h2, "H-8 {h8} vs H-2 {h2}");
    }
}
