//! The tabular schedule IR: per-device rows of typed slots.
//!
//! A [`ScheduleTable`] is the matrix form of a pipeline schedule — one row
//! per device, one column per abstract time slot, every cell a typed
//! [`Slot`] (forward, backward or idle). It is the
//! representation the schedule-space search manipulates: moves are slot
//! swaps and shifts inside a row, and legality is decided by a standalone
//! checker ([`check_table`]) that admits *arbitrary* legal tables, not
//! just generator-produced ones.
//!
//! The IR round-trips losslessly with the list form: converting a
//! [`ComputeSchedule`] to a table ([`ScheduleTable::from_compute`]) places
//! each op at its unit-cost replay tick, and stripping the idle slots
//! ([`ScheduleTable::to_compute`]) recovers the original per-device op
//! order bit-exactly — pinned for all seven named schemes by the
//! round-trip tests and a property suite.

use crate::chain::{ComputeOp, ComputeSchedule};
use crate::config::PipelineConfig;
use crate::gantt::{block_char, replay_timeline};
use crate::ids::{DeviceId, MicroBatch, StageId};
use crate::stage_map::StageMap;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// One cell of a schedule table: what a device does in one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Slot {
    /// The device does nothing this slot.
    Idle,
    /// Forward of `mb` on `stage`.
    Fwd {
        /// Micro-batch.
        mb: MicroBatch,
        /// Global stage id.
        stage: StageId,
    },
    /// Backward of `mb` on `stage`.
    Bwd {
        /// Micro-batch.
        mb: MicroBatch,
        /// Global stage id.
        stage: StageId,
    },
}

impl Slot {
    /// The chain compute op this slot performs, if any (`Fwd`/`Bwd` only).
    #[inline]
    pub fn compute_op(&self) -> Option<ComputeOp> {
        match *self {
            Slot::Fwd { mb, stage } => Some(ComputeOp { mb, stage, backward: false }),
            Slot::Bwd { mb, stage } => Some(ComputeOp { mb, stage, backward: true }),
            Slot::Idle => None,
        }
    }

    /// Is this the idle slot?
    #[inline]
    pub fn is_idle(&self) -> bool {
        matches!(self, Slot::Idle)
    }

    /// One-character rendering: `.` idle, `0-9A-Z` forward, `a-z`
    /// backward (shared visual language with [`crate::gantt`]).
    pub(crate) fn glyph(&self) -> char {
        match *self {
            Slot::Idle => '.',
            Slot::Fwd { mb, .. } => block_char(mb.0, false),
            Slot::Bwd { mb, .. } => block_char(mb.0, true),
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Idle => write!(f, "idle"),
            Slot::Fwd { mb, stage } => write!(f, "F({mb},{stage})"),
            Slot::Bwd { mb, stage } => write!(f, "B({mb},{stage})"),
        }
    }
}

/// A pipeline schedule in tabular form: `rows[d][t]` is what device `d`
/// does in slot `t`. Rows are rectangular; one op per device per slot is
/// structural.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleTable {
    /// Generating configuration (`P`, `B`, scheme of the seed).
    pub config: PipelineConfig,
    /// Stage placement the table must respect.
    pub stage_map: StageMap,
    /// The slot matrix.
    pub rows: Vec<Vec<Slot>>,
}

/// A violated table invariant. The checker returns the first violation,
/// always naming the offending slot coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableError {
    /// The table has a different number of rows than the stage map has
    /// devices.
    DeviceCountMismatch {
        /// Rows in the table.
        rows: usize,
        /// Devices in the stage map.
        devices: u32,
    },
    /// A row is shorter or longer than row 0 (tables are rectangular).
    RaggedRow {
        /// Offending device.
        device: DeviceId,
        /// Its row length.
        len: usize,
        /// Expected length (row 0's).
        expected: usize,
    },
    /// An expected compute op appears nowhere in the table.
    MissingOp(ComputeOp),
    /// A compute op appears in more than one slot.
    DuplicateOp {
        /// The op.
        op: ComputeOp,
        /// Device of the second occurrence.
        device: DeviceId,
        /// Column of the second occurrence.
        column: usize,
    },
    /// A compute op sits on a device other than its placement.
    WrongDevice {
        /// The op.
        op: ComputeOp,
        /// Where the table put it.
        device: DeviceId,
        /// Where the stage map places it.
        expected: DeviceId,
    },
    /// An op is scheduled no later than its chain predecessor.
    DependencyViolation {
        /// The op.
        op: ComputeOp,
        /// Its column.
        column: usize,
        /// Its predecessor's column (must be strictly earlier).
        dep_column: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DeviceCountMismatch { rows, devices } => {
                write!(f, "table has {rows} rows for {devices} devices")
            }
            TableError::RaggedRow { device, len, expected } => {
                write!(f, "row {device} has {len} slots, expected {expected}")
            }
            TableError::MissingOp(op) => write!(f, "missing op {op}"),
            TableError::DuplicateOp { op, device, column } => {
                write!(f, "duplicate op {op} at {device} slot {column}")
            }
            TableError::WrongDevice { op, device, expected } => {
                write!(f, "{op} placed on {device}, stage map says {expected}")
            }
            TableError::DependencyViolation { op, column, dep_column } => {
                write!(f, "{op} at slot {column} no later than its dependency at slot {dep_column}")
            }
        }
    }
}

impl std::error::Error for TableError {}

impl ScheduleTable {
    /// Tabulate a compute schedule: each op is placed at its unit-cost
    /// replay tick (`T_F = T_B = 1`, `T_C = 0`), idle slots fill the
    /// gaps. The per-device op *order* is preserved exactly, so
    /// [`ScheduleTable::to_compute`] inverts this losslessly.
    pub fn from_compute(cs: &ComputeSchedule) -> ScheduleTable {
        let tl = replay_timeline(cs, 1, 1, 0);
        let width = tl.makespan as usize;
        let rows = tl
            .spans
            .iter()
            .map(|spans| {
                let mut row = vec![Slot::Idle; width];
                for span in spans {
                    row[span.start as usize] = if span.op.backward {
                        Slot::Bwd { mb: span.op.mb, stage: span.op.stage }
                    } else {
                        Slot::Fwd { mb: span.op.mb, stage: span.op.stage }
                    };
                }
                row
            })
            .collect();
        ScheduleTable { config: cs.config, stage_map: cs.stage_map.clone(), rows }
    }

    /// Strip the idle slots and recover the per-device
    /// compute order — the exact inverse of [`ScheduleTable::from_compute`].
    pub fn to_compute(&self) -> ComputeSchedule {
        let per_device =
            self.rows.iter().map(|row| row.iter().filter_map(Slot::compute_op).collect()).collect();
        ComputeSchedule { config: self.config, stage_map: self.stage_map.clone(), per_device }
    }

    /// Number of columns (0 for an empty table).
    pub fn width(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Non-idle slots in the table.
    pub fn occupied(&self) -> usize {
        self.rows.iter().flatten().filter(|s| !s.is_idle()).count()
    }

    /// Render one text line per device (`P0 |0123ab..`), the same visual
    /// language as the golden Gantt snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (d, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("P{d} |"));
            for slot in row {
                out.push(slot.glyph());
            }
            out.push('\n');
        }
        out
    }
}

/// Completeness, placement and uniqueness of the chain ops (rule 2 of
/// [`check_table`], which the lowered-schedule verifier
/// `hanayo_analyze::verify` shares). `ops` yields every forward and
/// backward with its device and slot — a table column, or an action
/// index — device by device. Returns each op's slot keyed by
/// `(micro-batch, chain position)`; the first violation in `ops` order
/// wins, and only then the first missing op in `(mb, pos)` order.
pub fn chain_slots(
    map: &StageMap,
    micro_batches: u32,
    ops: impl IntoIterator<Item = (DeviceId, usize, ComputeOp)>,
) -> Result<HashMap<(u32, u32), usize>, TableError> {
    let s = map.stages;
    let mut slot: HashMap<(u32, u32), usize> =
        HashMap::with_capacity((2 * s * micro_batches) as usize);
    for (device, t, op) in ops {
        let expected = map.device_of(op.mb, op.stage);
        if expected != device {
            return Err(TableError::WrongDevice { op, device, expected });
        }
        if slot.insert((op.mb.0, op.pos(s)), t).is_some() {
            return Err(TableError::DuplicateOp { op, device, column: t });
        }
    }
    for m in 0..micro_batches {
        for pos in 0..2 * s {
            if !slot.contains_key(&(m, pos)) {
                return Err(TableError::MissingOp(ComputeOp::from_pos(MicroBatch(m), pos, s)));
            }
        }
    }
    Ok(slot)
}

/// Validate an arbitrary schedule table. Rules:
///
/// 1. **Shape** — one row per device, all rows the same length (one op
///    per device per slot is structural in this representation).
/// 2. **Completeness & placement** — every `(micro-batch, stage)` forward
///    and backward appears exactly once, on the device the stage map
///    assigns.
/// 3. **Dependency order** — every op sits in a strictly later column
///    than its chain predecessor (communication takes at least one slot
///    boundary; same-device successors also cannot share a column).
///
/// Unlike `hanayo_analyze::verify`, which checks a lowered action list,
/// this checker admits *any* legal table — including ones no generator
/// produces — which is what makes the schedule space searchable.
pub fn check_table(table: &ScheduleTable) -> Result<(), TableError> {
    let map = &table.stage_map;
    if table.rows.len() != map.devices as usize {
        return Err(TableError::DeviceCountMismatch {
            rows: table.rows.len(),
            devices: map.devices,
        });
    }
    let width = table.width();
    for (d, row) in table.rows.iter().enumerate() {
        if row.len() != width {
            return Err(TableError::RaggedRow {
                device: DeviceId(d as u32),
                len: row.len(),
                expected: width,
            });
        }
    }

    let s = map.stages;
    let b = table.config.micro_batches;
    let ops = table.rows.iter().enumerate().flat_map(|(d, row)| {
        let device = DeviceId(d as u32);
        row.iter().enumerate().filter_map(move |(t, slot)| Some((device, t, slot.compute_op()?)))
    });
    let column = chain_slots(map, b, ops)?;

    // Dependency order: strict column increase along every chain.
    for m in 0..b {
        for pos in 1..2 * s {
            let t = column[&(m, pos)];
            let dep = column[&(m, pos - 1)];
            if t <= dep {
                return Err(TableError::DependencyViolation {
                    op: ComputeOp::from_pos(MicroBatch(m), pos, s),
                    column: t,
                    dep_column: dep,
                });
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::schedule::build_compute_schedule;

    /// The seven named schemes (Chimera only on even splits).
    pub fn seven_schemes() -> Vec<Scheme> {
        vec![
            Scheme::GPipe,
            Scheme::Dapple,
            Scheme::Interleaved { chunks: 2 },
            Scheme::Chimera,
            Scheme::Hanayo { waves: 1 },
            Scheme::Hanayo { waves: 2 },
            Scheme::AsyncPipeDream,
        ]
    }

    fn table_for(p: u32, b: u32, scheme: Scheme) -> ScheduleTable {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        ScheduleTable::from_compute(&build_compute_schedule(&cfg).unwrap())
    }

    #[test]
    fn all_seven_schemes_roundtrip_bit_exactly() {
        for p in [2u32, 4, 8] {
            for b in [p, 2 * p] {
                for scheme in seven_schemes() {
                    if matches!(scheme, Scheme::Chimera) && !p.is_multiple_of(2) {
                        continue;
                    }
                    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
                    let cs = build_compute_schedule(&cfg).unwrap();
                    let table = ScheduleTable::from_compute(&cs);
                    assert_eq!(table.to_compute(), cs, "{scheme} P={p} B={b}");
                }
            }
        }
    }

    #[test]
    fn generated_tables_pass_the_checker() {
        for scheme in seven_schemes() {
            let table = table_for(4, 8, scheme);
            check_table(&table).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        }
    }

    #[test]
    fn table_shape_matches_replay() {
        let table = table_for(4, 4, Scheme::GPipe);
        assert_eq!(table.rows.len(), 4);
        assert_eq!(table.occupied(), 2 * 4 * 4);
        // GPipe at unit costs: makespan = 2B + 2(P-1).
        assert_eq!(table.width(), 2 * 4 + 2 * 3);
    }

    #[test]
    fn checker_rejects_swapped_chain_order() {
        let mut table = table_for(2, 2, Scheme::GPipe);
        // Swap device 0's first two ops (F(0,0) and F(1,0)): mb0's chain
        // now starts after mb1 consumed... actually both are pos 0 of
        // different mbs — legal! Swap a forward with a backward of the
        // same mb instead: guaranteed chain violation.
        let row = &mut table.rows[0];
        let fwd =
            row.iter().position(|s| matches!(s, Slot::Fwd { mb: MicroBatch(0), .. })).unwrap();
        let bwd =
            row.iter().position(|s| matches!(s, Slot::Bwd { mb: MicroBatch(0), .. })).unwrap();
        row.swap(fwd, bwd);
        assert!(matches!(check_table(&table), Err(TableError::DependencyViolation { .. })));
    }

    #[test]
    fn checker_rejects_dropped_and_duplicated_slots() {
        let base = table_for(2, 2, Scheme::Dapple);
        let mut dropped = base.clone();
        let t = dropped.rows[1].iter().position(|s| !s.is_idle()).unwrap();
        dropped.rows[1][t] = Slot::Idle;
        assert!(matches!(check_table(&dropped), Err(TableError::MissingOp(_))));

        let mut duplicated = base.clone();
        let op = duplicated.rows[1][t];
        let idle = duplicated.rows[1].iter().position(Slot::is_idle).unwrap();
        duplicated.rows[1][idle] = op;
        assert!(matches!(
            check_table(&duplicated),
            Err(TableError::DuplicateOp { .. } | TableError::DependencyViolation { .. })
        ));
    }

    #[test]
    fn checker_rejects_misplaced_ops() {
        let mut table = table_for(2, 2, Scheme::GPipe);
        // Move a device-1 op onto device 0's idle slot.
        let t = table.rows[1].iter().position(|s| !s.is_idle()).unwrap();
        let op = table.rows[1][t];
        table.rows[1][t] = Slot::Idle;
        let idle = table.rows[0].iter().position(Slot::is_idle).unwrap();
        table.rows[0][idle] = op;
        assert!(matches!(check_table(&table), Err(TableError::WrongDevice { .. })));
    }

    #[test]
    fn checker_rejects_ragged_rows() {
        let mut table = table_for(2, 2, Scheme::GPipe);
        table.rows[1].push(Slot::Idle);
        assert!(matches!(check_table(&table), Err(TableError::RaggedRow { .. })));
    }

    #[test]
    fn render_uses_the_gantt_alphabet() {
        let table = table_for(2, 2, Scheme::GPipe);
        let text = table.render();
        assert!(text.starts_with("P0 |01"));
        assert!(text.contains('a') && text.contains('.'));
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let table = table_for(4, 4, Scheme::Hanayo { waves: 2 });
        let json = serde_json::to_string(&table).unwrap();
        let back: ScheduleTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
    }
}
