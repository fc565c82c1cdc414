//! Closed-form bubble ratios for the synchronous schemes (Fig. 1, Fig. 2).
//!
//! All formulas are expressed with Table 1's symbols. Derivations (with
//! `B` micro-batches, per-device work `B(T_F+T_B)`):
//!
//! * **GPipe / DAPPLE** — the classic ramp: `(P-1)(T_F+T_B)` of idle per
//!   device, total span `(B+P-1)(T_F+T_B)`; communication adds `2(P-1)T_C`
//!   on the critical path.
//! * **GEMS** — executes the two directions *sequentially* (its second
//!   replica exists for memory reasons, not overlap), so only `B/2`
//!   micro-batches amortise the same ramp.
//! * **Chimera** — two simultaneous directions halve the ramp:
//!   `(P/2-1)(T_F+T_B)`.
//! * **Hanayo** — Eq. (1) of the paper, reproduced verbatim in
//!   [`hanayo_eq1`]; with `T_B = 2 T_F`, `T_C = 0` it simplifies to
//!   `(2P-2)/(3PW+P-1)` (`hanayo_simplified`).

use super::CostTerms;

/// GPipe bubble ratio for `P` devices and `B` micro-batches.
pub fn gpipe(p: u32, b: u32, c: &CostTerms) -> f64 {
    let (p, b) = (p as f64, b as f64);
    let ramp = (p - 1.0) * (c.t_f + c.t_b) + 2.0 * (p - 1.0) * c.t_c;
    let total = b * (c.t_f + c.t_b) + ramp;
    ramp / total
}

/// DAPPLE (1F1B) bubble ratio — identical critical path to GPipe; the
/// schedule moves memory, not time (§2.2).
pub fn dapple(p: u32, b: u32, c: &CostTerms) -> f64 {
    gpipe(p, b, c)
}

/// GEMS bubble ratio: the down/up replicas run sequentially, so the ramp is
/// amortised over only `B/2` micro-batches.
pub(crate) fn gems(p: u32, b: u32, c: &CostTerms) -> f64 {
    let (p, b) = (p as f64, b as f64);
    let ramp = (p - 1.0) * (c.t_f + c.t_b) + 2.0 * (p - 1.0) * c.t_c;
    let total = (b / 2.0) * (c.t_f + c.t_b) + ramp;
    ramp / total
}

/// Chimera (2 replicas) bubble ratio: bidirectional overlap halves the
/// ramp length.
pub fn chimera(p: u32, b: u32, c: &CostTerms) -> f64 {
    let (p, b) = (p as f64, b as f64);
    let ramp = (p / 2.0 - 1.0) * (c.t_f + c.t_b) + (p - 2.0) * c.t_c;
    let total = b * (c.t_f + c.t_b) + ramp;
    ramp / total
}

/// Hanayo's Eq. (1), verbatim from §3.4:
///
/// ```text
///          (1/W)·T_B + (1 + 2W + 2/P + (P-2)/3)·T_C
/// ratio = --------------------------------------------------------------
///          P/(P-1)·T_F + (1/(2W) + P/(P-1))·T_B + ((P-2)/2 + 4W)·T_C
/// ```
///
/// The formula assumes `B = P` (one full round of micro-batches).
pub fn hanayo_eq1(p: u32, w: u32, c: &CostTerms) -> f64 {
    let (pf, wf) = (p as f64, w as f64);
    let num = c.t_b / wf + (1.0 + 2.0 * wf + 2.0 / pf + (pf - 2.0) / 3.0) * c.t_c;
    let den = pf / (pf - 1.0) * c.t_f
        + (1.0 / (2.0 * wf) + pf / (pf - 1.0)) * c.t_b
        + ((pf - 2.0) / 2.0 + 4.0 * wf) * c.t_c;
    num / den
}

/// Eq. (1) simplified with `T_B = 2 T_F`, `T_C = 0`:
/// `(2P-2) / (3PW + P - 1)` — "this expression decreases with an
/// increasing number of waves" (§3.4).
#[cfg(test)]
pub(crate) fn hanayo_simplified(p: u32, w: u32) -> f64 {
    let (pf, wf) = (p as f64, w as f64);
    (2.0 * pf - 2.0) / (3.0 * pf * wf + pf - 1.0)
}

/// The Fig. 1 bar chart: bubble ratios of all schemes at `B = P`, under
/// the paper's `T_B = 2 T_F`, `T_C = 0` convention. Returns labelled rows.
pub fn figure1_rows(devices: u32) -> Vec<(&'static str, f64)> {
    let c = CostTerms::paper_default();
    let p = devices;
    vec![
        ("Gpipe", gpipe(p, p, &c)),
        ("DAPPLE", dapple(p, p, &c)),
        ("GEMS", gems(p, p, &c)),
        ("Chimera (replica=2)", chimera(p, p, &c)),
        ("Hanayo (wave=2)", hanayo_eq1(p, 2, &c)),
        ("Hanayo (wave=4)", hanayo_eq1(p, 4, &c)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn gpipe_matches_textbook_values() {
        let c = CostTerms::paper_default();
        assert!((gpipe(8, 8, &c) - 7.0 / 15.0).abs() < EPS);
        assert!((gpipe(32, 32, &c) - 31.0 / 63.0).abs() < EPS);
    }

    #[test]
    fn dapple_equals_gpipe() {
        let c = CostTerms::paper_default();
        for p in [4, 8, 16, 32] {
            assert_eq!(gpipe(p, p, &c), dapple(p, p, &c));
        }
    }

    #[test]
    fn gems_is_worst() {
        let c = CostTerms::paper_default();
        for p in [8, 32] {
            assert!(gems(p, p, &c) > gpipe(p, p, &c));
        }
        assert!((gems(8, 8, &c) - 7.0 / 11.0).abs() < EPS);
    }

    #[test]
    fn chimera_roughly_halves_the_ramp() {
        let c = CostTerms::paper_default();
        assert!((chimera(8, 8, &c) - 3.0 / 11.0).abs() < EPS);
        assert!(chimera(8, 8, &c) < gpipe(8, 8, &c));
    }

    #[test]
    fn eq1_simplification_is_exact() {
        let c = CostTerms::paper_default();
        for p in [4u32, 8, 16, 32] {
            for w in [1u32, 2, 4, 8] {
                let full = hanayo_eq1(p, w, &c);
                let simple = hanayo_simplified(p, w);
                assert!((full - simple).abs() < 1e-9, "P={p} W={w}: {full} vs {simple}");
            }
        }
    }

    #[test]
    fn bubble_decreases_with_waves() {
        let c = CostTerms::paper_default();
        for p in [8u32, 32] {
            let mut prev = f64::MAX;
            for w in [1u32, 2, 4, 8] {
                let r = hanayo_eq1(p, w, &c);
                assert!(r < prev, "P={p} W={w}");
                prev = r;
            }
        }
    }

    #[test]
    fn figure1_ordering_matches_the_paper() {
        // GEMS > GPipe = DAPPLE > Chimera ≥ Hanayo-2 > Hanayo-4.
        for p in [8, 32] {
            let rows = figure1_rows(p);
            let v: Vec<f64> = rows.iter().map(|r| r.1).collect();
            assert!(v[2] > v[0], "GEMS worst");
            assert_eq!(v[0], v[1], "GPipe == DAPPLE");
            assert!(v[3] < v[0], "Chimera beats GPipe");
            assert!(v[4] < v[3] + 1e-9, "H-2 at or below Chimera");
            assert!(v[5] < v[4], "H-4 beats H-2");
        }
    }

    #[test]
    fn communication_term_raises_ratio() {
        let c0 = CostTerms::paper_default();
        let c1 = CostTerms::with_comm(1.0, 2.0, 0.1);
        assert!(hanayo_eq1(8, 2, &c1) > hanayo_eq1(8, 2, &c0));
        assert!(gpipe(8, 8, &c1) > gpipe(8, 8, &c0));
    }

    #[test]
    fn eq1_absolute_comm_bubble_grows_with_waves() {
        // Eq. 1 attributes `(1 + 2W + 2/P + (P-2)/3)·T_C` of *absolute*
        // bubble time to communication: that contribution must grow with W.
        // (The throughput consequence — "optimal wave number is lower on
        // poor interconnects", §5.2 — is asserted on the time model in
        // perf_model, since the *ratio* normalises it away.)
        let t_c = 0.5;
        let comm_bubble = |p: f64, w: f64| (1.0 + 2.0 * w + 2.0 / p + (p - 2.0) / 3.0) * t_c;
        assert!(comm_bubble(8.0, 8.0) > comm_bubble(8.0, 2.0));
        assert!(comm_bubble(8.0, 4.0) > comm_bubble(8.0, 1.0));
    }

    #[test]
    fn all_ratios_in_unit_interval() {
        let c = CostTerms::with_comm(1.0, 2.0, 0.2);
        for p in [2u32, 4, 8, 16, 32, 64] {
            for b in [p, 2 * p] {
                for r in [gpipe(p, b, &c), gems(p, b, &c), chimera(p, b, &c)] {
                    assert!((0.0..1.0).contains(&r), "P={p} B={b}: {r}");
                }
            }
            for w in [1u32, 2, 4] {
                let r = hanayo_eq1(p, w, &c);
                assert!((0.0..1.0).contains(&r), "P={p} W={w}: {r}");
            }
        }
    }
}
