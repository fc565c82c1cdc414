//! Key-matching point-to-point fabric.
//!
//! Each device owns one unbounded receiving channel; every peer holds a
//! cloned sender. Sends never block (buffered, like `isend` over NCCL with
//! ample buffers); receives block until the message with the requested
//! key — the message's tag as lowered by `hanayo_core::program` — arrives.
//! Because iterations reuse keys, a receive matches `(iteration, key)`.
//!
//! How a device waits: an empty mailbox spins for [`SPIN_BUDGET`] before it
//! parks — but only when the run has a core per device thread
//! ([`spin_budget`]) — because the op it waits for is shorter than a futex
//! sleep and wake. Abort is a message, not a timer: `Fabric::abort` queues
//! an abort packet on every endpoint, so a blocked device wakes the way it
//! wakes for data and there is nothing to poll.

use crossbeam_channel::{unbounded, Receiver, Sender};
use hanayo_tensor::Tensor;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

/// How long a device with an empty mailbox spins before it parks. A park
/// and wake costs ~10 µs where a micro-batch op can take 3–7 µs; swept on
/// the `train_orch` benchmark row, 6.5 / 26 / 65 / 260 µs gave 0.83 / 0.72
/// / 0.69 / 0.66 ms per iteration against 1.16 ms parking at once, so the
/// knee is past a few op lengths and well short of a scheduler slice.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// The spin budget for a run of `device_threads` (`P × D`) device threads:
/// [`SPIN_BUDGET`] when each can have a core of its own, zero otherwise —
/// on an oversubscribed machine a spinner burns the slice its sender
/// needs, so such runs park immediately.
pub fn spin_budget(device_threads: usize) -> Duration {
    // Asking costs a syscall and, under cgroups, file reads; the answer
    // does not change while the process runs.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    if device_threads <= cores {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    }
}

/// One in-flight tensor message.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Training iteration the message belongs to.
    pub iter: u32,
    /// Message identity within the iteration: its `Program` key.
    pub key: u32,
    /// Payload.
    pub tensor: Tensor,
}

/// What travels over a fabric link.
enum Packet {
    Data(Envelope),
    /// A worker of this run failed ([`Fabric::abort`]): nothing the
    /// receiver is waiting for will arrive.
    Abort,
}

/// The receiving half of a device's fabric endpoint, with key matching.
pub(crate) struct Mailbox {
    rx: Receiver<Packet>,
    /// Early arrivals waiting for their recv to be issued, sized once for
    /// an iteration's worth of keys.
    parked: HashMap<(u32, u32), Tensor>,
    /// High-water mark of `parked` over the mailbox's lifetime — the
    /// worker-imbalance signal [`crate::trainer::TrainOutput`] surfaces
    /// per device: a mailbox that parks deeply is a device whose consumer
    /// runs far behind its producers.
    parked_peak: usize,
    /// An abort packet was received; every later receive fails too.
    aborted: bool,
}

impl Mailbox {
    fn park(&mut self, env: Envelope) {
        self.parked.insert((env.iter, env.key), env.tensor);
        self.parked_peak = self.parked_peak.max(self.parked.len());
    }

    /// Blocking receive of a specific `(iter, key)` message. Returns
    /// `None` — now and on every later call — once the run is aborted
    /// ([`Fabric::abort`]; messages queued ahead of the abort packet are
    /// still delivered or parked first), and `None` if the fabric
    /// disconnects while the receive is pending: every sender is gone, so
    /// the message can never arrive.
    pub(crate) fn recv(&mut self, iter: u32, key: u32) -> Option<Tensor> {
        if self.aborted {
            return None;
        }
        if let Some(t) = self.parked.remove(&(iter, key)) {
            return Some(t);
        }
        loop {
            match self.rx.recv() {
                Ok(Packet::Data(env)) if env.iter == iter && env.key == key => {
                    return Some(env.tensor)
                }
                Ok(Packet::Data(env)) => self.park(env),
                Ok(Packet::Abort) => {
                    self.aborted = true;
                    return None;
                }
                Err(_) => return None,
            }
        }
    }

    /// High-water mark of the parked map over this mailbox's lifetime.
    pub(crate) fn parked_peak(&self) -> usize {
        self.parked_peak
    }
}

/// Sending endpoints to every device.
#[derive(Clone)]
pub(crate) struct Fabric {
    senders: Vec<Sender<Packet>>,
}

impl Fabric {
    /// Non-blocking send to `device`. A closed peer mailbox means that
    /// worker already exited (failure injection or abort); the message is
    /// dropped — the abort broadcast, not this send, reports such failures.
    pub(crate) fn send(&self, device: usize, env: Envelope) {
        let _ = self.senders[device].send(Packet::Data(env));
    }

    /// Tell every endpoint the run has failed: each mailbox's pending or
    /// next blocking receive returns `None` once it has drained what was
    /// queued before. Called by a worker that stops on an error, so peers
    /// blocked on a message it will never send unwind instead of
    /// deadlocking. Repeated broadcasts (cascades) are harmless.
    pub(crate) fn abort(&self) {
        for tx in &self.senders {
            let _ = tx.send(Packet::Abort);
        }
    }
}

/// Build a fabric of `n` endpoints: the shared sender table plus each
/// device's private mailbox, whose blocked receives spin for `spin` before
/// parking (see [`spin_budget`]) and whose early-arrival map has room for
/// `keys` messages (a program's key count) before it grows.
pub(crate) fn fabric(n: usize, spin: Duration, keys: usize) -> (Fabric, Vec<Mailbox>) {
    let mut senders = Vec::with_capacity(n);
    let mut boxes = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        boxes.push(Mailbox {
            rx: rx.spin_budget(spin),
            parked: HashMap::with_capacity(keys),
            parked_peak: 0,
            aborted: false,
        });
    }
    (Fabric { senders }, boxes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f32) -> Tensor {
        Tensor::from_vec(1, 1, vec![v])
    }

    #[test]
    fn in_order_delivery() {
        let (fab, mut boxes) = fabric(2, Duration::ZERO, 4);
        fab.send(1, Envelope { iter: 0, key: 1, tensor: t(7.0) });
        let got = boxes[1].recv(0, 1).unwrap();
        assert_eq!(got.data, vec![7.0]);
    }

    #[test]
    fn out_of_order_messages_park() {
        let (fab, mut boxes) = fabric(2, Duration::ZERO, 4);
        fab.send(1, Envelope { iter: 0, key: 11, tensor: t(2.0) });
        fab.send(1, Envelope { iter: 0, key: 1, tensor: t(1.0) });
        // Ask for key 1 first even though key 11 arrived first.
        assert_eq!(boxes[1].recv(0, 1).unwrap().data, vec![1.0]);
        assert_eq!(boxes[1].parked.len(), 1);
        assert_eq!(boxes[1].recv(0, 11).unwrap().data, vec![2.0]);
        assert_eq!(boxes[1].parked.len(), 0);
        // The high-water mark survives the drain.
        assert_eq!(boxes[1].parked_peak(), 1);
    }

    #[test]
    fn iterations_do_not_collide() {
        let (fab, mut boxes) = fabric(2, Duration::ZERO, 4);
        // Same key, two iterations, sent in reverse order.
        fab.send(1, Envelope { iter: 1, key: 1, tensor: t(11.0) });
        fab.send(1, Envelope { iter: 0, key: 1, tensor: t(10.0) });
        assert_eq!(boxes[1].recv(0, 1).unwrap().data, vec![10.0]);
        assert_eq!(boxes[1].recv(1, 1).unwrap().data, vec![11.0]);
    }

    #[test]
    fn out_of_order_keys_park_across_two_iterations() {
        let (fab, mut boxes) = fabric(2, Duration::ZERO, 4);
        // Two keys in each of two iterations, every one of them early: the
        // last message sent is the first one asked for.
        for (iter, key, v) in [(1, 3, 13.0), (1, 2, 12.0), (0, 3, 3.0), (0, 2, 2.0)] {
            fab.send(1, Envelope { iter, key, tensor: t(v) });
        }
        assert_eq!(boxes[1].recv(0, 2).unwrap().data, vec![2.0]);
        assert_eq!(boxes[1].parked.len(), 3, "everything ahead of (0, 2) parked");
        for (iter, key, v) in [(1, 2, 12.0), (0, 3, 3.0), (1, 3, 13.0)] {
            assert_eq!(boxes[1].recv(iter, key).unwrap().data, vec![v], "({iter}, {key})");
        }
        assert_eq!(boxes[1].parked.len(), 0);
        assert_eq!(boxes[1].parked_peak(), 3);
    }

    #[test]
    fn cross_thread_transfer() {
        for spin in [Duration::ZERO, SPIN_BUDGET] {
            let (fab, mut boxes) = fabric(2, spin, 4);
            let mut b1 = boxes.remove(1);
            let h = std::thread::spawn(move || b1.recv(0, 31).unwrap().data[0]);
            fab.send(1, Envelope { iter: 0, key: 31, tensor: t(42.0) });
            assert_eq!(h.join().unwrap(), 42.0);
        }
    }

    #[test]
    fn abort_behind_data_parks_the_data_then_fails_and_stays_failed() {
        let (fab, mut boxes) = fabric(2, Duration::ZERO, 4);
        fab.send(1, Envelope { iter: 0, key: 11, tensor: t(2.0) });
        fab.abort();
        fab.send(1, Envelope { iter: 0, key: 1, tensor: t(1.0) });
        // Key 1 sits behind the abort packet: the receive drains (parks)
        // key 11, then meets the abort.
        assert!(boxes[1].recv(0, 1).is_none());
        assert_eq!(boxes[1].parked.len(), 1, "data ahead of the abort is still parked");
        // Sticky: neither the parked key 11 nor the queued key 1 is handed
        // out.
        assert!(boxes[1].recv(0, 11).is_none());
        assert!(boxes[1].recv(0, 1).is_none());
        // Every endpoint got the broadcast.
        assert!(boxes[0].recv(0, 0).is_none());
    }

    #[test]
    fn data_ahead_of_the_abort_is_still_delivered() {
        let (fab, mut boxes) = fabric(1, Duration::ZERO, 4);
        fab.send(0, Envelope { iter: 0, key: 0, tensor: t(3.0) });
        fab.abort();
        assert_eq!(boxes[0].recv(0, 0).unwrap().data, vec![3.0]);
        assert!(boxes[0].recv(0, 10).is_none());
    }

    #[test]
    fn abort_wakes_a_blocked_receive_on_both_sides_of_the_gate() {
        // No timer anywhere in the wait path: if these receives return at
        // all, the abort packet woke them.
        for spin in [Duration::ZERO, SPIN_BUDGET] {
            let (fab, mut boxes) = fabric(2, spin, 4);
            let mut b1 = boxes.remove(1);
            let h = std::thread::spawn(move || b1.recv(0, 1));
            fab.abort();
            assert!(h.join().unwrap().is_none());
        }
    }

    #[test]
    fn disconnect_fails_a_pending_receive() {
        let (fab, mut boxes) = fabric(1, Duration::ZERO, 4);
        drop(fab);
        assert!(boxes[0].recv(0, 0).is_none());
    }
}
