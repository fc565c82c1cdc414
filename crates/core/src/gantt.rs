//! Abstract-time replay and textual Gantt rendering (Figs. 3, 5, 6).
//!
//! [`replay_timeline`] assigns start/end ticks to every compute op of a
//! schedule under abstract unit costs (`T_F`-chunk, `T_B`-chunk, `T_C`),
//! respecting both the per-device order frozen by the generator and the
//! cross-device dependency chains: it is [`Program::replay`] over the
//! schedule's lowering, the walk every engine's happens-before answer
//! comes from. [`render`] draws the result as one text row per device —
//! forward blocks print the micro-batch as `0-9A-Z`, backward blocks as
//! `a-z`, idle as `.`:
//!
//! ```text
//! P0 |0123aabbccdd..
//! P1 |.0123aabbccdd.
//! ```

use crate::chain::{ComputeOp, ComputeSchedule};
use crate::comm;
use crate::ids::{MicroBatch, StageId};
use crate::program::{Op, Program};
use serde::{Deserialize, Serialize};

/// A scheduled compute op with its abstract time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Tick at which the op starts.
    pub start: u64,
    /// Tick at which the op ends (exclusive).
    pub end: u64,
    /// The op itself.
    pub op: ComputeOp,
}

/// Per-device spans plus the overall makespan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    /// `spans[d]` are device `d`'s ops in execution order.
    pub spans: Vec<Vec<Span>>,
    /// End tick of the last op.
    pub makespan: u64,
}

impl Timeline {
    /// Fraction of device-ticks spent idle between tick 0 and the makespan —
    /// the *bubble ratio* as measured on an executed schedule.
    pub fn bubble_ratio(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let total = self.makespan * self.spans.len() as u64;
        let busy: u64 = self.spans.iter().flat_map(|s| s.iter()).map(|s| s.end - s.start).sum();
        1.0 - busy as f64 / total as f64
    }

    /// Busy ticks per device.
    pub fn busy_per_device(&self) -> Vec<u64> {
        self.spans.iter().map(|s| s.iter().map(|x| x.end - x.start).sum()).collect()
    }
}

/// Replay a compute schedule under abstract unit costs.
///
/// `f_cost`/`b_cost` are per stage-chunk; `comm_cost` is charged on every
/// message, i.e. every cross-device dependency (a simple `T_C` model —
/// the full link-level model lives in `hanayo-sim`). The schedule is
/// lowered ([`comm::lower`], then [`Program::lower`]) and walked by
/// [`Program::replay`]: the lowering puts a compute's sends right after
/// it and its one upstream receive right before it, so the walk starts
/// each compute once its device is free and its input has arrived.
/// Panics on a schedule that does not run: a message that does not
/// pair, a circular wait, or a compute before its same-device input.
pub fn replay_timeline(cs: &ComputeSchedule, f_cost: u64, b_cost: u64, comm_cost: u64) -> Timeline {
    walk_units(cs, f_cost, b_cost, comm_cost)
        .unwrap_or_else(|why| panic!("replay stalled on an invalid schedule: {why}"))
}

/// [`replay_timeline`], naming why a schedule does not run.
fn walk_units(cs: &ComputeSchedule, f: u64, b: u64, c: u64) -> Result<Timeline, String> {
    let program = Program::lower(&comm::lower(cs)).map_err(|e| e.to_string())?;
    let mut tl = Timeline { spans: vec![Vec::new(); cs.per_device.len()], makespan: 0 };
    // Keys whose producing compute has run: no message orders a compute
    // after its input on its own device, so the walk checks that here.
    let (mut produced, mut in_order) = (vec![false; program.keys()], true);
    let cost = |_, op| if matches!(op, Op::Compute { backward: true, .. }) { b } else { f };
    let visit = |d: usize, _, op, start, end: u64| {
        let Op::Compute { mb, stage, backward } = op else { return };
        let (consumed, output) = program.dataflow(mb, stage, backward);
        in_order &= (stage == 0 && !backward) || produced[consumed as usize];
        if let Some(key) = output {
            produced[key as usize] = true;
        }
        let op = ComputeOp { mb: MicroBatch(mb), stage: StageId(stage), backward };
        tl.spans[d].push(Span { start, end, op });
        tl.makespan = tl.makespan.max(end);
    };
    program.replay(cost, |_| c, visit).map_err(|stall| stall.to_string())?;
    in_order.then_some(tl).ok_or_else(|| "a compute precedes its input on its device".into())
}

/// Forward blocks print the micro-batch as `0-9A-Z`; backward blocks as
/// `a-z` (so forward and backward are distinguishable even for digit
/// indices); `*` beyond the drawable range. Public because it is the
/// shared visual language of every Gantt in the workspace — `hanayo-trace`
/// paints real (simulated-seconds and wall-clock) timelines with the same
/// alphabet.
pub fn block_char(mb: u32, backward: bool) -> char {
    if backward {
        match mb {
            0..=25 => (b'a' + mb as u8) as char,
            _ => '*',
        }
    } else {
        match mb {
            0..=9 => (b'0' + mb as u8) as char,
            10..=35 => (b'A' + (mb - 10) as u8) as char,
            _ => '*',
        }
    }
}

/// The span-agnostic painter behind every ASCII Gantt: one device per
/// row, `rows[d]` holding `(start_col, end_col, char)` cells to fill.
/// [`render`] instantiates it for abstract-tick timelines; `hanayo-trace`
/// instantiates it for real (measured or simulated) timelines scaled to a
/// column budget.
pub fn paint_rows(width: usize, rows: &[Vec<(usize, usize, char)>]) -> String {
    let mut out = String::with_capacity((width + 8) * rows.len());
    for (d, cells) in rows.iter().enumerate() {
        let mut row = vec!['.'; width];
        for &(start, end, ch) in cells {
            for cell in row.iter_mut().take(end.min(width)).skip(start) {
                *cell = ch;
            }
        }
        out.push_str(&format!("P{d:<2}|"));
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Render a timeline as text, one device per row.
pub fn render(tl: &Timeline) -> String {
    let rows: Vec<Vec<(usize, usize, char)>> = tl
        .spans
        .iter()
        .map(|spans| {
            spans
                .iter()
                .map(|span| {
                    (
                        span.start as usize,
                        span.end as usize,
                        block_char(span.op.mb.0, span.op.backward),
                    )
                })
                .collect()
        })
        .collect();
    paint_rows(tl.makespan as usize, &rows)
}

/// Convenience: replay with the paper's drawing costs (`T_B = 2 T_F`,
/// `T_C = 0`) and render.
pub fn render_paper_style(cs: &ComputeSchedule) -> String {
    render(&replay_timeline(cs, 1, 2, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::schedule::build_compute_schedule;

    fn timeline(p: u32, b: u32, scheme: Scheme) -> Timeline {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        replay_timeline(&build_compute_schedule(&cfg).unwrap(), 1, 2, 0)
    }

    #[test]
    fn gpipe_makespan_matches_closed_form() {
        // (B + P - 1) * (TF + TB) with TF=1, TB=2.
        let tl = timeline(4, 4, Scheme::GPipe);
        assert_eq!(tl.makespan, (4 + 4 - 1) * 3);
    }

    #[test]
    fn dapple_makespan_equals_gpipe_under_unit_costs() {
        // 1F1B does not shorten the critical path, it only moves memory.
        let g = timeline(4, 4, Scheme::GPipe);
        let d = timeline(4, 4, Scheme::Dapple);
        assert_eq!(g.makespan, d.makespan);
    }

    #[test]
    fn bubble_ratio_matches_gpipe_formula() {
        let tl = timeline(8, 8, Scheme::GPipe);
        let expect = 7.0 / 15.0; // (P-1)/(P-1+B)
        assert!((tl.bubble_ratio() - expect).abs() < 1e-9, "{}", tl.bubble_ratio());
    }

    #[test]
    fn hanayo_two_waves_beats_one_wave_beats_dapple() {
        let d = timeline(8, 8, Scheme::Dapple).bubble_ratio();
        let h1 = timeline(8, 8, Scheme::Hanayo { waves: 1 }).bubble_ratio();
        let h2 = timeline(8, 8, Scheme::Hanayo { waves: 2 }).bubble_ratio();
        assert!(h1 < d, "H-1 {h1} vs DAPPLE {d}");
        assert!(h2 < h1, "H-2 {h2} vs H-1 {h1}");
    }

    #[test]
    fn busy_time_is_conserved_across_schemes() {
        // Total busy ticks = 2S per mb per... each mb costs (1+2) per chunk,
        // S chunks: 3S per mb; B mbs → 3SB total, independent of schedule.
        for scheme in [Scheme::GPipe, Scheme::Dapple, Scheme::Hanayo { waves: 2 }] {
            let tl = timeline(4, 4, scheme);
            let busy: u64 = tl.busy_per_device().iter().sum();
            let s = match scheme {
                Scheme::Hanayo { .. } => 16,
                _ => 4,
            };
            assert_eq!(busy, 3 * s * 4, "{scheme}");
        }
    }

    #[test]
    fn render_shapes_are_consistent() {
        let cfg = PipelineConfig::new(4, 4, Scheme::GPipe).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let text = render_paper_style(&cs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows equal length
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        // device 0 starts immediately with mb 0 forward
        assert!(lines[0].starts_with("P0 |0"));
    }

    #[test]
    #[should_panic(expected = "a compute precedes its input on its device")]
    fn a_compute_before_its_same_device_input_panics() {
        // The turnaround F(mb0, S3) → B(mb0, S3) shares device 3, so no
        // message orders the swapped pair; the walk must still refuse it.
        let cfg = PipelineConfig::new(4, 4, Scheme::GPipe).unwrap();
        let mut cs = build_compute_schedule(&cfg).unwrap();
        let row = &mut cs.per_device[3];
        let fwd = row.iter().position(|op| *op == ComputeOp::fwd(0, 3)).unwrap();
        let bwd = row.iter().position(|op| *op == ComputeOp::bwd(0, 3)).unwrap();
        row.swap(fwd, bwd);
        replay_timeline(&cs, 1, 2, 0);
    }

    #[test]
    fn block_chars_cover_bases() {
        assert_eq!(block_char(0, false), '0');
        assert_eq!(block_char(0, true), 'a');
        assert_eq!(block_char(10, false), 'A');
        assert_eq!(block_char(10, true), 'k');
        assert_eq!(block_char(99, false), '*');
        assert_eq!(block_char(99, true), '*');
    }
}
