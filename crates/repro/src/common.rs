//! Shared plumbing for the figure harnesses: table rendering, method
//! rosters, and the workload presets documented in `EXPERIMENTS.md`.

use hanayo_sim::Method;

/// The method roster of Figs. 8–12 (Chimera measured as Chimera-wave, as
/// in the paper's evaluation).
pub(crate) fn eval_methods() -> Vec<Method> {
    vec![Method::GPipe, Method::Dapple, Method::ChimeraWave, Method::Hanayo { waves: 2 }]
}

/// The extended roster of Fig. 9 (Hanayo at several wave counts).
pub(crate) fn fig9_methods() -> Vec<Method> {
    vec![
        Method::GPipe,
        Method::Dapple,
        Method::ChimeraWave,
        Method::Hanayo { waves: 2 },
        Method::Hanayo { waves: 4 },
        Method::Hanayo { waves: 8 },
    ]
}

/// Wave counts searched when a figure reports "the best wave number".
pub(crate) const WAVE_SEARCH: [u32; 4] = [1, 2, 4, 8];

/// Render rows as a fixed-width text table. `headers.len()` must match
/// every row's cell count.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Format a throughput / OOM outcome.
pub(crate) fn fmt_outcome(result: Option<f64>) -> String {
    match result {
        Some(t) => format!("{t:.2}"),
        None => "OOM".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1.0".into()], vec!["longer".into(), "2.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn outcome_formatting() {
        assert_eq!(fmt_outcome(Some(1.234)), "1.23");
        assert_eq!(fmt_outcome(None), "OOM");
    }
}
