//! The record a lookahead-1 run keeps, and the check that proves a deeper
//! `recv_lookahead` would reproduce its report.
//!
//! [`crate::engine`]'s module docs give the argument: every receive a
//! deeper lookahead posts earlier must be (a) not early, or (b) early,
//! arrived before its receiver reached it, and moved on its link cursor
//! without moving any other transfer. [`Record::proves`] checks exactly
//! that against a [`Record`] of the shallower run; a refused variant is
//! simply simulated.
//!
//! A *step* orders the recorded run's operations: the counter is bumped
//! at each send post, each transfer schedule and each prefetch-window end,
//! so a moved transfer's place among the others is the later of its send
//! post and the end of the window that now posts its receive.

use crate::engine::CompiledSchedule;
use hanayo_core::program::Program;

/// What one message key's rendezvous did in the recorded run.
#[derive(Debug, Clone, Copy, Default)]
struct KeyRecord {
    /// The send was posted before the receive, so the transfer was
    /// scheduled at the receive post.
    early: bool,
    /// The message had arrived when its receiver reached its `Recv` or
    /// `Batch`.
    arrived: bool,
    /// Step of the send post.
    send_step: u64,
    /// Time of the send post.
    send_time: f64,
    /// The FIFO cursor its transfer occupied: intra-node pairs, then node
    /// pairs.
    link: u32,
}

/// One scheduled transfer, in schedule order on its cursor.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    key: u32,
    step: u64,
    ready: f64,
    start: f64,
    occupancy: f64,
}

/// The engine's recording hooks. The engine is generic over its recorder,
/// and every hook sits behind [`ON`](Self::ON), so a run with `()` (every
/// run but a lookahead proof's) compiles them all away.
pub(crate) trait Recorder {
    /// False for a recorder whose hooks do nothing.
    const ON: bool;

    /// The send of `key` was posted at `now`.
    fn send_posted(&mut self, _key: u32, _now: f64) {}

    /// The receive of `key` was posted after its send.
    fn early(&mut self, _key: u32) {}

    /// The receiver reached the op waiting for `key`.
    fn reached(&mut self, _key: u32, _arrived: bool) {}

    /// The compute at `op` on `device`, started at `now`, has posted its
    /// prefetch window.
    fn window_posted(&mut self, _device: usize, _op: usize, _now: f64) {}

    /// The transfer of `key` was scheduled on cursor `link`.
    fn scheduled(&mut self, _key: u32, _link: u32, _ready: f64, _start: f64, _occupancy: f64) {}
}

impl Recorder for () {
    const ON: bool = false;
}

impl Recorder for Record {
    const ON: bool = true;

    fn send_posted(&mut self, key: u32, now: f64) {
        let step = self.bump();
        let record = &mut self.keys[key as usize];
        (record.send_step, record.send_time) = (step, now);
    }

    fn early(&mut self, key: u32) {
        self.keys[key as usize].early = true;
    }

    fn reached(&mut self, key: u32, arrived: bool) {
        self.keys[key as usize].arrived = arrived;
    }

    fn window_posted(&mut self, device: usize, op: usize, now: f64) {
        let step = self.bump();
        self.windows[self.offsets[device] + op] = (step, now);
    }

    fn scheduled(&mut self, key: u32, link: u32, ready: f64, start: f64, occupancy: f64) {
        let step = self.bump();
        self.keys[key as usize].link = link;
        let link = link as usize;
        if self.transfers.len() <= link {
            self.transfers.resize_with(link + 1, Vec::new);
        }
        self.transfers[link].push(Transfer { key, step, ready, start, occupancy });
    }
}

/// What a prefetching run records for [`Record::proves`]; see the module
/// docs.
#[derive(Debug, Default)]
pub(crate) struct Record {
    step: u64,
    keys: Vec<KeyRecord>,
    /// Index of each device's first op in `windows`.
    offsets: Vec<usize>,
    /// Per op, flattened device by device: the step and time once the
    /// compute's prefetch window was posted (compute ops only).
    windows: Vec<(u64, f64)>,
    /// Per link cursor, its transfers in schedule order (grown to the
    /// highest cursor used).
    transfers: Vec<Vec<Transfer>>,
}

impl Record {
    pub(crate) fn new(program: &Program) -> Record {
        let mut offsets = Vec::with_capacity(program.ops().len());
        let mut ops = 0;
        for device in program.ops() {
            offsets.push(ops);
            ops += device.len();
        }
        Record {
            step: 0,
            keys: vec![KeyRecord::default(); program.keys()],
            offsets,
            windows: vec![(0, 0.0); ops],
            transfers: Vec::new(),
        }
    }

    fn bump(&mut self) -> u64 {
        self.step += 1;
        self.step
    }

    /// True when simulating through `deeper` would return the report of
    /// the run this record was taken from, which ran with prefetching on
    /// through `shallow`. Both must be windows of the same program, and
    /// `deeper`'s lookahead the larger: its windows then extend
    /// `shallow`'s, so it posts every receive no later.
    pub(crate) fn proves(&self, shallow: &CompiledSchedule, deeper: &CompiledSchedule) -> bool {
        let Ok(program) = shallow.program() else { return false };
        if deeper.recv_lookahead() <= shallow.recv_lookahead()
            || self.keys.len() != shallow.first_post().len()
        {
            return false;
        }
        // Each advanced early key's new step and ready time, and the
        // cursors they sit on.
        let mut moved: Vec<Option<(u64, f64)>> = vec![None; self.keys.len()];
        let mut links = Vec::new();
        for (key, (&at, &was)) in deeper.first_post().iter().zip(shallow.first_post()).enumerate() {
            let record = self.keys[key];
            // Posted no earlier, or (a): the receive came first anyway, so
            // the send still schedules the transfer, ready at the send time.
            if at >= was || !record.early {
                continue;
            }
            // (b) needs the message to have been waiting for its receiver.
            let Some(message) = program.message(key as u32) else { return false };
            if !record.arrived {
                return false;
            }
            let (step, time) = self.windows[self.offsets[message.dst.idx()] + at as usize];
            moved[key] = Some((record.send_step.max(step), record.send_time.max(time)));
            links.push(record.link);
        }
        links.sort_unstable();
        links.dedup();
        links.into_iter().all(|link| self.cursor_holds(link, &moved))
    }

    /// Replay cursor `link` with the moved transfers at their new steps:
    /// a moved transfer may start no later than it did, every other one
    /// exactly when it did.
    fn cursor_holds(&self, link: u32, moved: &[Option<(u64, f64)>]) -> bool {
        let mut order: Vec<(u64, &Transfer)> = self.transfers[link as usize]
            .iter()
            .map(|t| (moved[t.key as usize].map_or(t.step, |(step, _)| step), t))
            .collect();
        order.sort_unstable_by_key(|&(step, _)| step);
        // Recorded steps are distinct, and a moved step is a send post or
        // a window end, never a recorded transfer's: only two transfers
        // moved to one window can tie, and their order is not checked.
        if order.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return false;
        }
        // Every ready time here is one both runs share, so the replayed
        // cursor is the deeper run's exactly, not a bound on it, for as
        // long as the check holds. The arithmetic is the engine's own.
        let mut cursor = 0.0f64;
        for (_, t) in order {
            let (start, keeps) = match moved[t.key as usize] {
                Some((_, ready)) => {
                    let start = cursor.max(ready);
                    (start, start <= t.start)
                }
                None => {
                    let start = cursor.max(t.ready);
                    (start, start == t.start)
                }
            };
            if !keeps {
                return false;
            }
            cursor = start + t.occupancy;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::{Record, Transfer};
    use crate::engine::{compile_schedule, try_simulate_recorded, try_simulate_scalars};
    use crate::search::named_schemes;
    use crate::{SimOptions, SimReport};
    use hanayo_cluster::topology::{lonestar6, paper_clusters, pc_partial_nvlink};
    use hanayo_cluster::ClusterSpec;
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::schedule::build_schedule;
    use hanayo_model::{CostTable, ModelConfig, Recompute};

    /// The lookahead-1 report, and for each deeper lookahead whether the
    /// check proved it and its full simulation.
    fn prove_and_simulate(
        scheme: Scheme,
        (p, b): (u32, u32),
        model: &ModelConfig,
        cluster: &ClusterSpec,
        recompute: Recompute,
        lookaheads: &[usize],
    ) -> Option<(SimReport, Vec<(bool, SimReport)>)> {
        let cfg = PipelineConfig::new(p, b, scheme).ok()?;
        let schedule = build_schedule(&cfg).ok()?;
        let cost = CostTable::build_with(model, cfg.stages(), 1, recompute);
        let one = SimOptions::default();
        let shallow = compile_schedule(&schedule, &one);
        let (report, record) =
            try_simulate_recorded(&shallow, &schedule, &cost, cluster, None, one).unwrap();
        let variants = lookaheads
            .iter()
            .map(|&recv_lookahead| {
                let opts = SimOptions { recv_lookahead, ..one };
                let deeper = compile_schedule(&schedule, &opts);
                let full =
                    try_simulate_scalars(&deeper, &schedule, &cost, cluster, None, opts).unwrap();
                (record.proves(&shallow, &deeper), full)
            })
            .collect();
        Some((report, variants))
    }

    #[test]
    fn every_proven_variant_equals_its_full_simulation() {
        let schemes = named_schemes()
            .into_iter()
            .chain([Scheme::Hanayo { waves: 4 }, Scheme::Hanayo { waves: 8 }]);
        let (mut proven, mut checked) = (0, 0);
        for scheme in schemes {
            for p in [2u32, 4, 8] {
                for b in [p, 2 * p] {
                    for cluster in paper_clusters(p as usize) {
                        for recompute in Recompute::ALL {
                            let Some((report, variants)) = prove_and_simulate(
                                scheme,
                                (p, b),
                                &ModelConfig::bert64(),
                                &cluster,
                                recompute,
                                &[2, 4],
                            ) else {
                                continue;
                            };
                            for (la, (ok, full)) in [2, 4].iter().zip(variants) {
                                checked += 1;
                                if ok {
                                    proven += 1;
                                    assert_eq!(
                                        full, report,
                                        "{scheme} P={p} B={b} {} {recompute:?} L={la}: \
                                         proven but not equal",
                                        cluster.name
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        // The check must be worth running, not just safe.
        assert!(checked > 500, "{checked} checks");
        assert!(proven * 10 >= checked * 9, "only {proven} of {checked} proven");
    }

    #[test]
    fn a_variant_that_moves_the_report_is_refused() {
        // Hanayo W=8 on 16 PC GPUs: lookahead 2 lands one transfer early
        // enough to shorten the iteration.
        let cluster = pc_partial_nvlink(16);
        let model = ModelConfig::gpt128();
        let (report, variants) = prove_and_simulate(
            Scheme::Hanayo { waves: 8 },
            (16, 16),
            &model,
            &cluster,
            Recompute::Full,
            &[2],
        )
        .unwrap();
        let (proven, full) = &variants[0];
        let seven_places = |r: &SimReport| (r.iteration_time * 1e7).round();
        assert_eq!(
            (seven_places(&report), seven_places(full)),
            (719_498.0, 719_438.0),
            "the case must differ"
        );
        assert!(!proven, "a variant whose report differs must be refused");
    }

    #[test]
    fn a_move_that_reorders_its_link_is_refused() {
        // Interleaved 1F1B on four TACC GPUs with links twice as fast: a
        // deeper lookahead moves transfers on a shared node-pair cursor,
        // and only the cursor replay tells the runs apart.
        let mut cluster = lonestar6(4);
        for link in cluster.links.iter_mut().flatten() {
            link.bandwidth *= 2.0;
        }
        let (report, variants) = prove_and_simulate(
            Scheme::Interleaved { chunks: 2 },
            (4, 8),
            &ModelConfig::bert64(),
            &cluster,
            Recompute::None,
            &[2, 4],
        )
        .unwrap();
        for (la, (proven, full)) in [2, 4].iter().zip(&variants) {
            assert_ne!(full, &report, "L={la}: the case must differ");
            assert!(!proven, "L={la}: a variant whose report differs must be refused");
        }
    }

    #[test]
    fn the_cursor_replay_moves_nothing_but_the_moved() {
        // One cursor; `(key, step, ready, start, occupancy)` per transfer.
        let record = |transfers: &[(u32, u64, f64, f64, f64)]| Record {
            transfers: vec![transfers
                .iter()
                .map(|&(key, step, ready, start, occupancy)| Transfer {
                    key,
                    step,
                    ready,
                    start,
                    occupancy,
                })
                .collect()],
            ..Record::default()
        };
        let holds = |transfers: &[_], moved: &[Option<(u64, f64)>]| {
            record(transfers).cursor_holds(0, moved)
        };
        // Key 1 moves ahead into an idle link and starts earlier.
        let idle = [(0, 1, 0.0, 0.0, 1.0), (1, 5, 4.0, 4.0, 1.0)];
        assert!(holds(&idle, &[None, Some((3, 2.0))]));
        // Key 0 moves earlier, so key 1, which queued behind it, would
        // start earlier too: its receiver could see that.
        let queued = [(0, 4, 3.0, 3.0, 2.0), (1, 6, 4.0, 5.0, 1.0)];
        assert!(!holds(&queued, &[Some((2, 0.0)), None]));
        // Two moved keys swap, and the one that ran first now waits.
        let swapped = [(1, 4, 4.0, 4.0, 1.0), (0, 10, 5.0, 5.0, 10.0)];
        assert!(!holds(&swapped, &[Some((2, 0.0)), Some((3, 3.5))]));
        // Two keys moved to one window end: their order is unknown.
        let tied = [(0, 4, 4.0, 4.0, 1.0), (1, 6, 6.0, 6.0, 1.0)];
        assert!(!holds(&tied, &[Some((2, 0.0)), Some((2, 0.0))]));
    }

    #[test]
    fn recording_leaves_the_report_bit_identical_and_prefetch_off_records_nothing() {
        for cluster in paper_clusters(8) {
            for scheme in named_schemes() {
                let cfg = PipelineConfig::new(8, 16, scheme).unwrap();
                let schedule = build_schedule(&cfg).unwrap();
                let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
                for opts in
                    [SimOptions::default(), SimOptions { prefetch: false, ..Default::default() }]
                {
                    let compiled = compile_schedule(&schedule, &opts);
                    let plain =
                        try_simulate_scalars(&compiled, &schedule, &cost, &cluster, None, opts)
                            .unwrap();
                    let (recorded, record) =
                        try_simulate_recorded(&compiled, &schedule, &cost, &cluster, None, opts)
                            .unwrap();
                    assert_eq!(recorded, plain, "{}/{scheme}/{opts:?}", cluster.name);
                    assert_eq!(record.keys.is_empty(), !opts.prefetch, "{scheme}/{opts:?}");
                    if !opts.prefetch {
                        let deeper = SimOptions { recv_lookahead: 2, ..opts };
                        assert!(!record.proves(&compiled, &compile_schedule(&schedule, &deeper)));
                    }
                }
            }
        }
    }
}
