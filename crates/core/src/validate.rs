//! Schedule well-formedness: the safety net under every generator.
//!
//! [`validate`] checks a lowered [`Schedule`] for:
//!
//! 1. **Completeness** — every `(micro-batch, stage)` forward and backward
//!    appears exactly once, on the device the [`StageMap`](crate::stage_map::StageMap) assigns.
//! 2. **Chain order** — per device, ops of one micro-batch appear in chain
//!    order.
//! 3. **Matched communication** — every send has exactly one matching
//!    receive on the right peer and vice versa.
//! 4. **Executability** — an abstract interpreter walks all action lists
//!    concurrently and proves the program runs to completion without
//!    deadlock under the engines' semantics (async sends, blocking recvs,
//!    atomically-posted batches).
//! 5. **Flush** — every device ends with `OptimizerStep`.

use crate::action::{Action, CommDir, MsgTag, Schedule};
use crate::chain::ComputeOp;
use crate::ids::{DeviceId, MicroBatch};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An expected compute op never appears.
    MissingOp(ComputeOp),
    /// A compute op appears more than once.
    DuplicateOp(ComputeOp),
    /// A compute op appears on a device other than its placement.
    WrongDevice(ComputeOp, DeviceId),
    /// Two ops of one micro-batch appear out of chain order on one device.
    OrderViolation(ComputeOp, ComputeOp),
    /// A send without a matching recv (or vice versa).
    UnmatchedComm(MsgTag),
    /// The abstract interpreter stalled before completion.
    Deadlock {
        /// Actions executed before the stall.
        executed: usize,
        /// Total actions in the schedule.
        total: usize,
    },
    /// A device's list does not end with the optimizer step.
    MissingFlush(DeviceId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingOp(op) => write!(f, "missing op {op}"),
            ValidationError::DuplicateOp(op) => write!(f, "duplicate op {op}"),
            ValidationError::WrongDevice(op, d) => write!(f, "{op} scheduled on wrong device {d}"),
            ValidationError::OrderViolation(a, b) => write!(f, "{b} listed before {a}"),
            ValidationError::UnmatchedComm(tag) => write!(f, "unmatched message {tag}"),
            ValidationError::Deadlock { executed, total } => {
                write!(f, "deadlock after {executed}/{total} actions")
            }
            ValidationError::MissingFlush(d) => write!(f, "device {d} missing optimizer step"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate a lowered schedule. Returns the first violated invariant.
pub fn validate(schedule: &Schedule) -> Result<(), ValidationError> {
    check_completeness(schedule)?;
    check_chain_order(schedule)?;
    check_comm_matching(schedule)?;
    check_executability(schedule)?;
    check_flush(schedule)?;
    Ok(())
}

fn check_completeness(schedule: &Schedule) -> Result<(), ValidationError> {
    let s = schedule.stage_map.stages;
    let b = schedule.config.micro_batches;
    let mut seen: HashSet<(u32, u32, bool)> = HashSet::with_capacity((2 * s * b) as usize);
    for (dev, action) in schedule.iter_actions() {
        let (mb, stage, backward) = match action {
            Action::Forward { mb, stage } => (*mb, *stage, false),
            Action::Backward { mb, stage } => (*mb, *stage, true),
            _ => continue,
        };
        let op = ComputeOp { mb, stage, backward };
        if !seen.insert((mb.0, stage.0, backward)) {
            return Err(ValidationError::DuplicateOp(op));
        }
        if schedule.stage_map.device_of(mb, stage) != dev {
            return Err(ValidationError::WrongDevice(op, dev));
        }
    }
    for m in 0..b {
        for st in 0..s {
            for backward in [false, true] {
                if !seen.contains(&(m, st, backward)) {
                    return Err(ValidationError::MissingOp(ComputeOp {
                        mb: MicroBatch(m),
                        stage: crate::ids::StageId(st),
                        backward,
                    }));
                }
            }
        }
    }
    Ok(())
}

fn check_chain_order(schedule: &Schedule) -> Result<(), ValidationError> {
    let s = schedule.stage_map.stages;
    for list in &schedule.lists {
        let mut last_pos: HashMap<u32, (u32, ComputeOp)> = HashMap::new();
        for action in &list.actions {
            let op = match action {
                Action::Forward { mb, stage } => {
                    ComputeOp { mb: *mb, stage: *stage, backward: false }
                }
                Action::Backward { mb, stage } => {
                    ComputeOp { mb: *mb, stage: *stage, backward: true }
                }
                _ => continue,
            };
            let pos = op.pos(s);
            if let Some(&(prev_pos, prev_op)) = last_pos.get(&op.mb.0) {
                if pos < prev_pos {
                    return Err(ValidationError::OrderViolation(op, prev_op));
                }
            }
            last_pos.insert(op.mb.0, (pos, op));
        }
    }
    Ok(())
}

fn check_comm_matching(schedule: &Schedule) -> Result<(), ValidationError> {
    // sends keyed by (destination, tag); recvs keyed by (executing device, tag).
    let mut sends: HashMap<(u32, MsgTag), i64> = HashMap::new();
    for (dev, action) in schedule.iter_actions() {
        for op in action.comm_ops() {
            match op.dir {
                CommDir::Send => *sends.entry((op.peer.0, op.tag)).or_default() += 1,
                CommDir::Recv => *sends.entry((dev.0, op.tag)).or_default() -= 1,
            }
        }
    }
    for ((_, tag), count) in sends {
        if count != 0 {
            return Err(ValidationError::UnmatchedComm(tag));
        }
    }
    Ok(())
}

/// Abstract interpretation under engine semantics.
fn check_executability(schedule: &Schedule) -> Result<(), ValidationError> {
    let s = schedule.stage_map.stages;
    let n_dev = schedule.lists.len();
    let total: usize = schedule.lists.iter().map(|l| l.actions.len()).sum();
    let mut pc = vec![0usize; n_dev];
    // messages in flight: (receiver, tag)
    let mut sent: HashSet<(u32, MsgTag)> = HashSet::new();
    // completed compute ops: (mb, pos)
    let mut done: HashSet<(u32, u32)> = HashSet::new();
    // batches whose sends are already posted: (device, pc)
    let mut posted: HashSet<(usize, usize)> = HashSet::new();
    let mut executed = 0usize;

    loop {
        let mut progress = false;
        for (d, list) in schedule.lists.iter().enumerate() {
            // Advance this device as far as possible.
            while pc[d] < list.actions.len() {
                let action = &list.actions[pc[d]];
                let can_run = match action {
                    Action::Forward { mb, stage } | Action::Backward { mb, stage } => {
                        let op = ComputeOp {
                            mb: *mb,
                            stage: *stage,
                            backward: matches!(action, Action::Backward { .. }),
                        };
                        let pos = op.pos(s);
                        pos == 0 || done.contains(&(mb.0, pos - 1))
                    }
                    Action::Comm(op) => match op.dir {
                        CommDir::Send => {
                            sent.insert((op.peer.0, op.tag));
                            true
                        }
                        CommDir::Recv => sent.contains(&(d as u32, op.tag)),
                    },
                    Action::BatchedComm(ops) => {
                        // Post all sends atomically the first time we reach
                        // the batch, then wait for every member recv.
                        if posted.insert((d, pc[d])) {
                            for op in ops {
                                if op.dir == CommDir::Send {
                                    sent.insert((op.peer.0, op.tag));
                                }
                            }
                        }
                        ops.iter()
                            .filter(|o| o.dir == CommDir::Recv)
                            .all(|o| sent.contains(&(d as u32, o.tag)))
                    }
                    Action::OptimizerStep => true,
                };
                if !can_run {
                    break;
                }
                if let Action::Forward { mb, stage } | Action::Backward { mb, stage } = action {
                    let op = ComputeOp {
                        mb: *mb,
                        stage: *stage,
                        backward: matches!(action, Action::Backward { .. }),
                    };
                    done.insert((mb.0, op.pos(s)));
                }
                pc[d] += 1;
                executed += 1;
                progress = true;
            }
        }
        if pc.iter().enumerate().all(|(d, &p)| p == schedule.lists[d].actions.len()) {
            return Ok(());
        }
        if !progress {
            return Err(ValidationError::Deadlock { executed, total });
        }
    }
}

fn check_flush(schedule: &Schedule) -> Result<(), ValidationError> {
    for list in &schedule.lists {
        if list.actions.last() != Some(&Action::OptimizerStep) {
            return Err(ValidationError::MissingFlush(list.device));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::schedule::build_schedule;

    fn schemes() -> Vec<Scheme> {
        vec![
            Scheme::GPipe,
            Scheme::Dapple,
            Scheme::Interleaved { chunks: 2 },
            Scheme::Chimera,
            Scheme::Hanayo { waves: 1 },
            Scheme::Hanayo { waves: 2 },
            Scheme::Hanayo { waves: 3 },
        ]
    }

    #[test]
    fn all_generated_schedules_validate() {
        for p in [2u32, 4, 6, 8] {
            for b in [p, 2 * p, 3 * p] {
                for scheme in schemes() {
                    if matches!(scheme, Scheme::Chimera) && (p % 2 != 0 || b % 2 != 0) {
                        continue;
                    }
                    let cfg = PipelineConfig::new(p, b, scheme).unwrap();
                    let s = build_schedule(&cfg).unwrap();
                    validate(&s).unwrap_or_else(|e| panic!("{scheme} P={p} B={b}: {e}"));
                }
            }
        }
    }

    #[test]
    fn detects_missing_flush() {
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut s = build_schedule(&cfg).unwrap();
        s.lists[0].actions.pop();
        assert!(matches!(validate(&s), Err(ValidationError::MissingFlush(_))));
    }

    #[test]
    fn detects_duplicate_op() {
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut s = build_schedule(&cfg).unwrap();
        let dup = s.lists[0].actions.iter().find(|a| a.is_compute()).cloned().unwrap();
        s.lists[0].actions.insert(0, dup);
        assert!(matches!(
            validate(&s),
            Err(ValidationError::DuplicateOp(_) | ValidationError::OrderViolation(_, _))
        ));
    }

    #[test]
    fn detects_missing_op() {
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut s = build_schedule(&cfg).unwrap();
        let idx =
            s.lists[1].actions.iter().position(|a| matches!(a, Action::Backward { .. })).unwrap();
        s.lists[1].actions.remove(idx);
        assert!(matches!(validate(&s), Err(ValidationError::MissingOp(_))));
    }

    #[test]
    fn detects_unmatched_comm() {
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut s = build_schedule(&cfg).unwrap();
        // Remove the first recv from device 1.
        let idx = s.lists[1]
            .actions
            .iter()
            .position(|a| a.comm_ops().iter().any(|o| o.dir == CommDir::Recv))
            .unwrap();
        s.lists[1].actions.remove(idx);
        assert!(matches!(validate(&s), Err(ValidationError::UnmatchedComm(_))));
    }

    #[test]
    fn detects_deadlock_from_reordered_recv() {
        // Swap a recv on device 1 to before the send it depends on cannot be
        // constructed directly (send is on device 0), so instead reorder
        // device 1's compute before its recv: the interpreter must stall.
        let cfg = PipelineConfig::new(2, 2, Scheme::GPipe).unwrap();
        let mut s = build_schedule(&cfg).unwrap();
        // Device 1 list starts: recv, F(...). Swap them: F needs the recv's
        // data (chain dep), so the abstract interpreter blocks forever on
        // the compute (its predecessor never "done" before... actually the
        // recv is what stalls; the compute stalls on chain dep).
        let acts = &mut s.lists[1].actions;
        acts.swap(0, 1);
        // Also strip device 0's sends so the message never arrives.
        s.lists[0].actions.retain(|a| !a.comm_ops().iter().any(|o| o.dir == CommDir::Send));
        let r = validate(&s);
        assert!(
            matches!(r, Err(ValidationError::Deadlock { .. } | ValidationError::UnmatchedComm(_))),
            "got {r:?}"
        );
    }
}
