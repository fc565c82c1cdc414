//! Schedule-space local search over [`ScheduleTable`]s.
//!
//! The named generators are *points* in the space of legal schedules; the
//! tabular IR makes the rest of that space reachable. [`local_search`]
//! starts from a seed table (greedy: tabulate the best named scheme) and
//! hill-climbs with slot-level moves — swap two slots in a row, shift a
//! slot into an idle column, append an idle column for room — accepting
//! the first strictly-improving candidate each round. Every candidate is
//! gated by the standalone validity checker before it is scored, so the
//! search can never leave the legal region.
//!
//! Scoring is a caller-supplied closure (`&ScheduleTable -> Option<f64>`,
//! lower is better): `hanayo-core` stays independent of the simulator,
//! and `hanayo-sim` plugs in its compiled fast path as the cost model.
//! All randomness comes from a seeded `SearchRng`, and ties break by
//! deterministic move order, so a `(seed, table, scorer)` triple always
//! reproduces the same result.

use crate::chain::ComputeOp;
use crate::schedule::table::{check_table, ScheduleTable, Slot, TableError};
use serde::{Deserialize, Serialize};

/// A deterministic splitmix64 generator — the search's only randomness
/// source, so results are reproducible from the seed alone (no global
/// RNG, no platform dependence).
#[derive(Debug, Clone)]
pub(crate) struct SearchRng(u64);

impl SearchRng {
    /// Seeded constructor.
    pub(crate) fn new(seed: u64) -> Self {
        SearchRng(seed)
    }

    /// Next raw 64-bit value (splitmix64).
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One local move over a table's slot placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableMove {
    /// Swap the slots at columns `a` and `b` of `device`'s row.
    Swap {
        /// Row index.
        device: usize,
        /// First column.
        a: usize,
        /// Second column.
        b: usize,
    },
    /// Move the slot at column `from` into the *idle* column `to` of
    /// `device`'s row (crossing other ops reorders the row).
    Shift {
        /// Row index.
        device: usize,
        /// Source column (non-idle).
        from: usize,
        /// Destination column (must be idle).
        to: usize,
    },
    /// Append one idle column to every row — a no-op for scoring, but it
    /// gives `Shift` room at the table's trailing edge.
    InsertIdle,
}

/// Apply a move in place. Returns `false` (table untouched) if the move
/// is inapplicable: out-of-range columns, shifting an idle slot, or
/// shifting onto a non-idle slot.
pub fn apply_move(table: &mut ScheduleTable, mv: TableMove) -> bool {
    match mv {
        TableMove::Swap { device, a, b } => {
            let Some(row) = table.rows.get_mut(device) else { return false };
            if a == b || a >= row.len() || b >= row.len() {
                return false;
            }
            row.swap(a, b);
            true
        }
        TableMove::Shift { device, from, to } => {
            let Some(row) = table.rows.get_mut(device) else { return false };
            if from >= row.len() || to >= row.len() || from == to {
                return false;
            }
            if row[from].is_idle() || !row[to].is_idle() {
                return false;
            }
            row[to] = row[from];
            row[from] = Slot::Idle;
            true
        }
        TableMove::InsertIdle => {
            for row in &mut table.rows {
                row.push(Slot::Idle);
            }
            true
        }
    }
}

/// Column of `op` in the table, scanning only the row its stage map
/// places it on (ops never sit elsewhere in a valid table).
fn op_column(table: &ScheduleTable, op: ComputeOp) -> Option<usize> {
    let d = table.stage_map.device_of(op.mb, op.stage).idx();
    table.rows.get(d)?.iter().position(|s| s.compute_op() == Some(op))
}

/// Re-check the chain edges incident to the op at column `t`: its
/// predecessor must sit strictly earlier, its successor strictly later.
fn check_chain_neighbors(table: &ScheduleTable, op: ComputeOp, t: usize) -> Result<(), TableError> {
    let s = table.stage_map.stages;
    let pos = op.pos(s);
    if pos > 0 {
        let dep = ComputeOp::from_pos(op.mb, pos - 1, s);
        let dep_t = op_column(table, dep).ok_or(TableError::MissingOp(dep))?;
        if t <= dep_t {
            return Err(TableError::DependencyViolation { op, column: t, dep_column: dep_t });
        }
    }
    if pos + 1 < 2 * s {
        let succ = ComputeOp::from_pos(op.mb, pos + 1, s);
        let succ_t = op_column(table, succ).ok_or(TableError::MissingOp(succ))?;
        if succ_t <= t {
            return Err(TableError::DependencyViolation {
                op: succ,
                column: succ_t,
                dep_column: t,
            });
        }
    }
    Ok(())
}

/// Incremental validity of `candidate = valid table + mv`: instead of
/// re-running the full [`check_table`] pass, examine only what the move
/// can break. A `Swap`/`Shift` permutes slots within one row, so shape,
/// completeness and placement are untouched; what can change is the
/// chain edges incident to each moved op. `InsertIdle` is legal by
/// construction.
///
/// The *verdict* (`is_ok`) always equals the full checker's on such
/// candidates — pinned by a `debug_assert` in [`local_search`] and by the
/// `move_check_matches_full_checker` property test — though the specific
/// error may differ because the two passes scan in different orders.
pub fn check_move(candidate: &ScheduleTable, mv: TableMove) -> Result<(), TableError> {
    let (device, touched) = match mv {
        TableMove::Swap { device, a, b } => (device, [Some(a), Some(b)]),
        TableMove::Shift { device, to, .. } => (device, [Some(to), None]),
        TableMove::InsertIdle => return Ok(()),
    };
    let Some(row) = candidate.rows.get(device) else {
        return Err(TableError::DeviceCountMismatch {
            rows: candidate.rows.len(),
            devices: candidate.stage_map.devices,
        });
    };

    // Moved compute ops: their incident chain edges are the only
    // dependency constraints whose columns changed.
    for &t in touched.iter().flatten() {
        if let Some(op) = row[t].compute_op() {
            check_chain_neighbors(candidate, op, t)?;
        }
    }

    Ok(())
}

/// Knobs of the local search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// RNG seed; the whole search is a pure function of it.
    pub seed: u64,
    /// Maximum improvement rounds.
    pub max_rounds: usize,
    /// Candidate moves sampled per round.
    pub moves_per_round: usize,
    /// Stop after this many consecutive rounds with no improvement.
    pub patience: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            seed: 0x48414E41594F, // "HANAYO"
            max_rounds: 64,
            moves_per_round: 64,
            patience: 6,
        }
    }
}

/// What the search did, for reporting and reproducibility audits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Candidate moves sampled (including inapplicable/illegal ones).
    pub moves_tried: usize,
    /// Moves accepted into the incumbent.
    pub moves_applied: usize,
    /// Score of the seed table.
    pub initial_score: f64,
    /// Score of the returned table.
    pub final_score: f64,
}

/// Why a search could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The seed table fails the validity checker.
    InvalidSeed(TableError),
    /// The scorer rejected the seed table (returned `None`).
    UnscorableSeed,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::InvalidSeed(e) => write!(f, "seed table is invalid: {e}"),
            SearchError::UnscorableSeed => write!(f, "scorer rejected the seed table"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Sample one candidate move. Column picks are biased toward occupied
/// slots so most candidates actually reorder work.
fn sample_move(table: &ScheduleTable, rng: &mut SearchRng) -> TableMove {
    let devices = table.rows.len();
    let width = table.width();
    if devices == 0 || width == 0 {
        return TableMove::InsertIdle;
    }
    let device = rng.below(devices);
    let row = &table.rows[device];
    let occupied: Vec<usize> = (0..width).filter(|&t| !row[t].is_idle()).collect();
    let idle: Vec<usize> = (0..width).filter(|&t| row[t].is_idle()).collect();
    match rng.next_u64() % 10 {
        // Mostly swaps of two nearby occupied slots — the move that
        // actually permutes a device's op order.
        0..=5 => {
            if occupied.len() < 2 {
                return TableMove::InsertIdle;
            }
            let i = rng.below(occupied.len());
            // Nearby in op order: distance 1..=3 with wraparound clamp.
            let d = 1 + rng.below(3);
            let j = (i + d).min(occupied.len() - 1);
            if i == j {
                return TableMove::InsertIdle;
            }
            TableMove::Swap { device, a: occupied[i], b: occupied[j] }
        }
        // Shifts of an occupied slot into an idle column.
        6..=8 => {
            if occupied.is_empty() || idle.is_empty() {
                return TableMove::InsertIdle;
            }
            let from = occupied[rng.below(occupied.len())];
            let to = idle[rng.below(idle.len())];
            TableMove::Shift { device, from, to }
        }
        _ => TableMove::InsertIdle,
    }
}

/// Sample `n` candidate moves for `table` from a fresh `SearchRng`
/// seeded with `seed` — the same distribution [`local_search`] draws
/// from, exposed so tests and external drivers can random-walk the legal
/// region (gate each move with [`check_table`] before keeping it).
pub fn sample_legal_moves(table: &ScheduleTable, seed: u64, n: usize) -> Vec<TableMove> {
    let mut rng = SearchRng::new(seed);
    (0..n).map(|_| sample_move(table, &mut rng)).collect()
}

/// Hill-climb from `seed` under `score` (lower is better). Each round
/// samples `moves_per_round` candidates in seeded order and accepts the
/// first strictly-improving legal one (first-improvement with
/// deterministic tie-breaking: on equal scores the incumbent wins, and
/// candidate order is fixed by the seed). Stops after `max_rounds` rounds
/// or `patience` consecutive rounds without improvement.
pub fn local_search<F>(
    seed: &ScheduleTable,
    opts: &SearchOptions,
    mut score: F,
) -> Result<(ScheduleTable, SearchStats), SearchError>
where
    F: FnMut(&ScheduleTable) -> Option<f64>,
{
    check_table(seed).map_err(SearchError::InvalidSeed)?;
    let initial = score(seed).ok_or(SearchError::UnscorableSeed)?;

    let mut rng = SearchRng::new(opts.seed);
    let mut best = seed.clone();
    let mut best_order = best.to_compute();
    let mut best_score = initial;
    let mut stats = SearchStats {
        rounds: 0,
        moves_tried: 0,
        moves_applied: 0,
        initial_score: initial,
        final_score: initial,
    };

    let mut dry = 0usize;
    while stats.rounds < opts.max_rounds && dry < opts.patience {
        stats.rounds += 1;
        let mut improved = false;
        for _ in 0..opts.moves_per_round {
            stats.moves_tried += 1;
            let mv = sample_move(&best, &mut rng);
            let mut candidate = best.clone();
            if !apply_move(&mut candidate, mv) {
                continue;
            }
            // Moves that do not change the stripped op order (idle
            // shuffling) cannot change the score — skip the sim call.
            let order = candidate.to_compute();
            if !matches!(mv, TableMove::InsertIdle) && order == best_order {
                continue;
            }
            // The incumbent is valid, so one move only needs the
            // incremental check — O(moved ops × width) instead of a full
            // table pass per candidate.
            let valid = check_move(&candidate, mv);
            debug_assert_eq!(
                valid.is_ok(),
                check_table(&candidate).is_ok(),
                "incremental move check disagrees with the full checker on {mv:?}"
            );
            if valid.is_err() {
                continue;
            }
            if matches!(mv, TableMove::InsertIdle) {
                // Legal by construction and score-neutral: accept without
                // scoring so Shift gains trailing room, but it is not an
                // improvement.
                best = candidate;
                best_order = order;
                continue;
            }
            let Some(s) = score(&candidate) else { continue };
            if s < best_score {
                best = candidate;
                best_order = order;
                best_score = s;
                stats.moves_applied += 1;
                improved = true;
                break;
            }
        }
        if improved {
            dry = 0;
        } else {
            dry += 1;
        }
    }

    stats.final_score = best_score;
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::gantt::replay_timeline;
    use crate::schedule::build_compute_schedule;

    fn seed_table(p: u32, b: u32, scheme: Scheme) -> ScheduleTable {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        ScheduleTable::from_compute(&build_compute_schedule(&cfg).unwrap())
    }

    /// Abstract-cost scorer: replay makespan with T_B = 2 T_F, T_C = 1.
    fn makespan(t: &ScheduleTable) -> Option<f64> {
        Some(replay_timeline(&t.to_compute(), 1, 2, 1).makespan as f64)
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SearchRng::new(7);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SearchRng::new(7);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SearchRng::new(8);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn moves_preserve_or_refuse() {
        let mut t = seed_table(2, 2, Scheme::GPipe);
        let occupied = t.rows[0].iter().filter(|s| !s.is_idle()).count();
        // Swap applies.
        assert!(apply_move(&mut t, TableMove::Swap { device: 0, a: 0, b: 1 }));
        // Shift from an idle slot refuses.
        let idle = t.rows[0].iter().position(Slot::is_idle).unwrap();
        assert!(!apply_move(&mut t, TableMove::Shift { device: 0, from: idle, to: 0 }));
        // InsertIdle widens every row.
        let w = t.width();
        assert!(apply_move(&mut t, TableMove::InsertIdle));
        assert_eq!(t.width(), w + 1);
        assert!(t.rows.iter().all(|r| r.len() == w + 1));
        // Op population is untouched throughout.
        assert_eq!(t.rows[0].iter().filter(|s| !s.is_idle()).count(), occupied);
    }

    #[test]
    fn search_never_returns_worse_or_illegal() {
        let seed = seed_table(4, 4, Scheme::GPipe);
        let opts = SearchOptions { max_rounds: 16, moves_per_round: 16, ..Default::default() };
        let (found, stats) = local_search(&seed, &opts, makespan).unwrap();
        check_table(&found).unwrap();
        assert!(stats.final_score <= stats.initial_score);
        assert_eq!(makespan(&found).unwrap(), stats.final_score);
    }

    #[test]
    fn search_recovers_from_a_deliberately_bad_seed() {
        // Perturb GPipe into a legal-but-worse order (reverse device 0's
        // forward block: mb B-1 first starves the whole downstream pipe),
        // then check the search wins back a strictly better makespan.
        let cfg = PipelineConfig::new(4, 6, Scheme::GPipe).unwrap();
        let mut cs = build_compute_schedule(&cfg).unwrap();
        cs.per_device[0][..6].reverse();
        let seed = ScheduleTable::from_compute(&cs);
        check_table(&seed).unwrap();
        let baseline = makespan(&seed_table(4, 6, Scheme::GPipe)).unwrap();
        assert!(makespan(&seed).unwrap() > baseline, "perturbation must actually hurt");

        let opts = SearchOptions { max_rounds: 64, moves_per_round: 64, ..Default::default() };
        let (found, stats) = local_search(&seed, &opts, makespan).unwrap();
        check_table(&found).unwrap();
        assert!(
            stats.final_score < stats.initial_score,
            "search failed to improve a deliberately bad seed: {stats:?}"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let seed = seed_table(4, 4, Scheme::Dapple);
        let opts = SearchOptions { max_rounds: 12, moves_per_round: 24, ..Default::default() };
        let (a, sa) = local_search(&seed, &opts, makespan).unwrap();
        let (b, sb) = local_search(&seed, &opts, makespan).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // A different seed may find a different table but never a worse one.
        let opts2 = SearchOptions { seed: 1234, ..opts };
        let (_, s2) = local_search(&seed, &opts2, makespan).unwrap();
        assert!(s2.final_score <= s2.initial_score);
    }

    #[test]
    fn unscorable_seed_is_a_typed_error() {
        let seed = seed_table(2, 2, Scheme::GPipe);
        let err = local_search(&seed, &SearchOptions::default(), |_| None).unwrap_err();
        assert_eq!(err, SearchError::UnscorableSeed);
    }

    #[test]
    fn invalid_seed_is_a_typed_error() {
        let mut seed = seed_table(2, 2, Scheme::GPipe);
        let t = seed.rows[0].iter().position(|s| !s.is_idle()).unwrap();
        seed.rows[0][t] = Slot::Idle;
        let err = local_search(&seed, &SearchOptions::default(), makespan).unwrap_err();
        assert!(matches!(err, SearchError::InvalidSeed(TableError::MissingOp(_))));
    }
}
