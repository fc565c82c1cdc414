//! Figure 2: side-by-side comparison of bubble ratio and memory for the
//! SOTA approaches (rendered numerically at `P = 8`, `B = 8`, `W = 2`).

use hanayo_core::analysis::formulas::{comparison_table, render_table, ComparisonRow};

/// The comparison rows at the figure's reference point.
pub(crate) fn data() -> Vec<ComparisonRow> {
    comparison_table(8, 8, 2).expect("the reference shapes are valid for all four schemes")
}

/// Render the figure.
pub(crate) fn run() -> String {
    format!(
        "Figure 2: comparison of SOTA approaches (P=8, B=8, Hanayo W=2)\n{}",
        render_table(&data())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_schemes_compared() {
        assert_eq!(data().len(), 4);
    }

    #[test]
    fn hanayo_row_has_no_replica_cost() {
        let rows = data();
        let h = rows.iter().find(|r| r.scheme.contains("Hanayo")).unwrap();
        let c = rows.iter().find(|r| r.scheme.contains("Chimera")).unwrap();
        assert_eq!(h.mw_units, 1.0);
        assert_eq!(c.mw_units, 2.0);
        assert!(h.bubble_ratio <= c.bubble_ratio + 1e-9);
    }
}
