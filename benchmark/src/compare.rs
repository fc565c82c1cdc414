//! `compare`: two result sets of the same benchmark, row by row. For
//! every workload × end-to-end metric it prints both medians and
//! quartiles, the change and the bound, and marks the row `ok`, `worse`
//! (second median worse than the first by more than the bound) or
//! `unresolved` (run-to-run spread wider than the bound, so the medians
//! cannot carry a verdict).

use crate::report::{read_records, Record};
use crate::spec::{Better, EndToEnd, Workload, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: median, quartiles and IQR share of the values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

pub fn side(values: &[f64]) -> Side {
    let median = stats::median(values);
    match stats::quartiles(values) {
        Some([q1, _, q3]) => {
            Side { median, q1, q3, spread: stats::iqr_share(values).unwrap_or(0.0) }
        }
        None => Side { median, q1: median, q3: median, spread: 0.0 },
    }
}

/// Share of the first median by which the second is worse (negative when
/// it is better), in the metric's own direction.
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(metric: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    if a.spread.max(b.spread) > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, a.median, b.median) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.result.get(metric))
        .collect()
}

/// Print the table; `Err` when any row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let (a, b) = (read_records(path_a)?, read_records(path_b)?);
    println!(
        "{:<11} {:<12} {:>12} {:>24} {:>12} {:>24} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "change",
        "spread",
        "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&a, workload.name(), metric.name),
                values(&b, workload.name(), metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (side(&va), side(&vb));
            let v = verdict(metric, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<11} {:<12} {:>12.4} {:>24} {:>12.4} {:>24} {:>+7.2}% {:>6.2}% {:>5.1}%  {}",
                workload.name(),
                metric.name,
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                100.0 * worsening(metric, sa.median, sb.median),
                100.0 * sa.spread.max(sb.spread),
                100.0 * metric.bound,
                v.label()
            );
        }
    }
    println!("change: share of median A by which median B is worse (negative: better)");
    println!("{worse} worse, {unresolved} unresolved");
    if worse > 0 {
        return Err(format!("{worse} row(s) worse than the bound"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd { name: "m", unit: "ms", better, bound }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(Better::Lower, 0.10);
        let higher = metric(Better::Higher, 0.10);
        let tight = |m: f64| side(&[m * 0.99, m, m * 1.01, m, m]);
        assert_eq!(verdict(&lower, &tight(10.0), &tight(10.5)), Verdict::Ok);
        assert_eq!(verdict(&lower, &tight(10.0), &tight(11.5)), Verdict::Worse);
        assert_eq!(verdict(&lower, &tight(10.0), &tight(5.0)), Verdict::Ok);
        assert_eq!(verdict(&higher, &tight(10.0), &tight(8.5)), Verdict::Worse);
        assert_eq!(verdict(&higher, &tight(10.0), &tight(12.0)), Verdict::Ok);
        let noisy = side(&[5.0, 10.0, 15.0, 8.0, 12.0]);
        assert_eq!(verdict(&lower, &tight(10.0), &noisy), Verdict::Unresolved);
    }

    #[test]
    fn side_reports_python_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = side(&v);
        assert_eq!((s.median, s.q1, s.q3, s.spread), (5.5, 2.75, 8.25, 1.0));
        assert_eq!(side(&[3.0]), Side { median: 3.0, q1: 3.0, q3: 3.0, spread: 0.0 });
    }
}
