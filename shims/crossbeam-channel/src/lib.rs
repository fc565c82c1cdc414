//! Offline stand-in for `crossbeam-channel`: an unbounded MPMC channel
//! over `Mutex<VecDeque>` + `Condvar`. Senders and receivers are `Clone`,
//! `Send` and `Sync`; `recv` blocks and errors once every sender is gone
//! and the queue is drained — the semantics the runtime's mailbox relies
//! on.
//!
//! A blocked `recv` spins on a lock-free mirror of the queue length for the
//! receiver's time budget ([`Receiver::spin_budget`], zero by default) and
//! only then parks; `send` wakes the condvar only when a receiver is parked.
//! There is deliberately no yield between spin and park: a yielding thread
//! hands its core to whatever else is runnable and waits out that slice.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// `2 × queue length + (every sender gone)`, written only under the
    /// `state` lock. Non-zero means a locked look will not block: there is
    /// a message to pop or a disconnect to report. `Relaxed` throughout:
    /// the word publishes no data — messages are only ever popped under
    /// the mutex, which orders the queue contents.
    signal: AtomicUsize,
    /// Condvar notifies issued by `send`, so tests can assert the gate.
    #[cfg(test)]
    notifies: AtomicUsize,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    /// Receivers parked on `ready` (or about to be: the count is raised
    /// under the lock `Condvar::wait` releases, so a sender that reads 0
    /// here is ordered before the receiver's last look at the queue).
    waiting: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Error returned by [`Receiver::recv`] when the channel is closed empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Channel closed and drained.
    Disconnected,
}

/// Error returned by [`Sender::send`] when all receivers are gone. The
/// shim never reports this (dropping receivers simply discards messages),
/// but the type keeps call sites source-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The sending half.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    spin: Duration,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, waiting: 0 }),
        ready: Condvar::new(),
        signal: AtomicUsize::new(0),
        #[cfg(test)]
        notifies: AtomicUsize::new(0),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared, spin: Duration::ZERO })
}

impl<T> Sender<T> {
    /// Enqueue a message; never blocks. Costs a condvar notify (a
    /// `futex_wake` syscall) only when a receiver is parked.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        state.queue.push_back(value);
        let parked = state.waiting > 0;
        // Last thing before the unlock: a spinner that sees it goes
        // straight for the lock.
        self.shared.signal.fetch_add(2, Ordering::Relaxed);
        drop(state);
        if parked {
            #[cfg(test)]
            self.shared.notifies.fetch_add(1, Ordering::Relaxed);
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let none_left = state.senders == 0;
        if none_left {
            // Ends a spin the same way a message does.
            self.shared.signal.fetch_or(1, Ordering::Relaxed);
        }
        drop(state);
        if none_left {
            self.shared.ready.notify_all();
        }
    }
}

/// Spins between clock reads: one `load` + `spin_loop` is ~13 ns on a
/// short-`PAUSE` part and ~10× that on a long one, a clock read ~35 ns, so
/// the budget is kept in time and the clock amortised over a batch.
const SPINS_PER_CLOCK_READ: u32 = 32;

impl<T> Receiver<T> {
    /// Set how long a blocked [`Receiver::recv`] on this handle spins
    /// before it parks. Zero (the default) parks immediately — right when
    /// the machine has more runnable threads than cores, where a spinner
    /// burns the time slice its sender needs.
    pub fn spin_budget(mut self, budget: Duration) -> Receiver<T> {
        self.spin = budget;
        self
    }

    /// Spin until the channel has a message or a disconnect to report, or
    /// the budget runs out. Takes no lock and, when something is already
    /// queued, no clock reading.
    fn spin_until_signalled(&self) {
        let signal = &self.shared.signal;
        if self.spin.is_zero() || signal.load(Ordering::Relaxed) != 0 {
            return;
        }
        let start = Instant::now();
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                std::hint::spin_loop();
                if signal.load(Ordering::Relaxed) != 0 {
                    return;
                }
            }
            if start.elapsed() >= self.spin {
                return;
            }
        }
    }

    /// Blocking receive; errors when the channel is closed and drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.spin_until_signalled();
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                self.shared.signal.fetch_sub(2, Ordering::Relaxed);
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.waiting += 1;
            state = self.shared.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(v) => {
                self.shared.signal.fetch_sub(2, Ordering::Relaxed);
                Ok(v)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Number of queued messages (a lock-free read of the mirror).
    pub fn len(&self) -> usize {
        self.shared.signal.load(Ordering::Relaxed) >> 1
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        Receiver { shared: Arc::clone(&self.shared), spin: self.spin }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Long enough that a receiver given it is still spinning whenever the
    /// test's other thread gets round to acting; a test that relied on it
    /// running out would trip the watchdog instead.
    const SPIN_FOREVER: Duration = Duration::from_secs(600);
    /// Only has to tell a hang from progress; a busy shared host stretches
    /// a park/wake round trip from ~10 µs to hundreds.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Run `f` on its own thread and fail — rather than hang the suite —
    /// if it has not finished by the deadline.
    fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let handle = thread::spawn(f);
        let deadline = Instant::now() + WATCHDOG;
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "channel operation hung");
            thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap()
    }

    fn notifies<T>(rx: &Receiver<T>) -> usize {
        rx.shared.notifies.load(Ordering::Relaxed)
    }

    /// Block until a receiver of `rx`'s channel is parked on the condvar
    /// (it holds the count under the lock `wait` releases, so once this
    /// returns the receiver can only be woken by a notify).
    fn until_parked<T>(rx: &Receiver<T>) {
        while rx.shared.lock().waiting == 0 {
            thread::sleep(Duration::from_micros(50));
        }
    }

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(rx.is_empty());
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.len(), 1, "the disconnect bit is not a message");
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(rx.is_empty());
    }

    #[test]
    fn queued_message_returns_without_spin_park_or_notify() {
        // A budget that would trip the watchdog if the spin were entered
        // and not ended by the queued message.
        let (tx, rx) = unbounded();
        let rx = rx.spin_budget(SPIN_FOREVER);
        tx.send(5).unwrap();
        let (got, rx) = watchdog(move || (rx.recv(), rx));
        assert_eq!(got, Ok(5));
        assert_eq!(notifies(&rx), 0, "nobody was parked: send must not notify");
    }

    #[test]
    fn message_arriving_during_the_spin_is_taken_without_parking() {
        let (tx, rx) = unbounded();
        let rx = rx.spin_budget(SPIN_FOREVER);
        let probe = rx.clone();
        let got = watchdog(move || {
            let receiver = thread::spawn(move || rx.recv());
            // The receiver cannot park inside the watchdog's deadline, so
            // whenever this send lands it lands during the spin.
            thread::sleep(Duration::from_millis(5));
            tx.send(9u32).unwrap();
            receiver.join().unwrap()
        });
        assert_eq!(got, Ok(9));
        assert_eq!(notifies(&probe), 0, "a spinning receiver needs no wake-up");
    }

    #[test]
    fn message_arriving_after_the_park_wakes_the_receiver() {
        for budget in [Duration::ZERO, Duration::from_micros(50)] {
            let (tx, rx) = unbounded();
            let rx = rx.spin_budget(budget);
            let probe = rx.clone();
            let got = watchdog(move || {
                let receiver = thread::spawn(move || rx.recv());
                until_parked(&probe);
                tx.send(42u32).unwrap();
                (receiver.join().unwrap(), notifies(&probe))
            });
            assert_eq!(got, (Ok(42), 1), "budget {budget:?}: exactly one wake-up");
        }
    }

    #[test]
    fn last_sender_dropped_during_the_spin_ends_it() {
        let (tx, rx) = unbounded::<u32>();
        let rx = rx.spin_budget(SPIN_FOREVER);
        let tx2 = tx.clone();
        let got = watchdog(move || {
            let receiver = thread::spawn(move || rx.recv());
            thread::sleep(Duration::from_millis(5));
            drop(tx);
            drop(tx2);
            receiver.join().unwrap()
        });
        assert_eq!(got, Err(RecvError));
    }

    #[test]
    fn last_sender_dropped_while_parked_wakes_the_receiver() {
        let (tx, rx) = unbounded::<u32>();
        let probe = rx.clone();
        let got = watchdog(move || {
            let receiver = thread::spawn(move || rx.recv());
            until_parked(&probe);
            drop(tx);
            receiver.join().unwrap()
        });
        assert_eq!(got, Err(RecvError));
    }

    /// The lost-wake-up tests for the gated notify: were a send ever to
    /// skip the notify a parked receiver needs, the run would stop dead
    /// and the watchdog would say so. Run on both sides of the spin gate.
    #[test]
    fn ping_pong_100k_messages_never_loses_a_wake_up() {
        for budget in [Duration::ZERO, Duration::from_micros(2)] {
            watchdog(move || {
                const ROUNDS: u32 = 50_000;
                let (ping_tx, ping_rx) = unbounded::<u32>();
                let (pong_tx, pong_rx) = unbounded::<u32>();
                let (ping_rx, pong_rx) = (ping_rx.spin_budget(budget), pong_rx.spin_budget(budget));
                let echo = thread::spawn(move || {
                    while let Ok(v) = ping_rx.recv() {
                        pong_tx.send(v).unwrap();
                    }
                });
                for i in 0..ROUNDS {
                    ping_tx.send(i).unwrap();
                    assert_eq!(pong_rx.recv(), Ok(i));
                }
                drop(ping_tx);
                echo.join().unwrap();
            });
        }
    }

    #[test]
    fn four_producers_one_consumer_deliver_everything_in_sender_order() {
        for budget in [Duration::ZERO, Duration::from_micros(2)] {
            watchdog(move || {
                const PER_PRODUCER: u32 = 25_000;
                let (tx, rx) = unbounded::<(u32, u32)>();
                let rx = rx.spin_budget(budget);
                let producers: Vec<_> = (0..4)
                    .map(|p| {
                        let tx = tx.clone();
                        thread::spawn(move || {
                            for i in 0..PER_PRODUCER {
                                tx.send((p, i)).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let mut next = [0u32; 4];
                while let Ok((p, i)) = rx.recv() {
                    assert_eq!(i, next[p as usize], "producer {p} reordered");
                    next[p as usize] += 1;
                }
                assert_eq!(next, [PER_PRODUCER; 4]);
                for p in producers {
                    p.join().unwrap();
                }
            });
        }
    }
}
