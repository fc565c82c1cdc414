//! Analytical models from the paper: Table 1 symbols, the Fig. 1/Fig. 2
//! bubble-ratio formulas, Eq. (1), the Fig. 7 bubble-zone taxonomy, and the
//! unified performance model the paper uses to pick configurations.

pub mod bubble;
pub mod formulas;
pub mod perf_model;
pub mod zones;

use serde::{Deserialize, Serialize};

/// The cost symbols of Table 1.
///
/// * `t_f` — time for a complete forward pass (all stages summed) divided
///   by `P`; i.e. the forward time of `model/P` worth of layers for one
///   micro-batch.
/// * `t_b` — same for backward (the paper draws and assumes `T_B = 2 T_F`).
/// * `t_c` — one point-to-point transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostTerms {
    /// `T_F` from Table 1.
    pub t_f: f64,
    /// `T_B` from Table 1.
    pub t_b: f64,
    /// `T_C` from Table 1.
    pub t_c: f64,
}

impl CostTerms {
    /// The paper's drawing/analysis convention: `T_B = 2 T_F`, `T_C = 0`.
    pub fn paper_default() -> Self {
        CostTerms { t_f: 1.0, t_b: 2.0, t_c: 0.0 }
    }

    /// With a communication term.
    #[cfg(test)]
    pub(crate) fn with_comm(t_f: f64, t_b: f64, t_c: f64) -> Self {
        CostTerms { t_f, t_b, t_c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_ratios() {
        let c = CostTerms::paper_default();
        assert_eq!(c.t_b, 2.0 * c.t_f);
        assert_eq!(c.t_c, 0.0);
    }
}
