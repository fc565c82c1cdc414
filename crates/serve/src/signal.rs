//! SIGINT/SIGTERM → a self-pipe, with no libc crate: the four calls it
//! needs (`signal(2)`, `pipe(2)`, `read(2)`, `write(2)`) are stable POSIX
//! ABI, declared here directly. The handler's one act is a one-byte
//! `write` to the pipe — async-signal-safe — and [`wait`] blocks in `read`
//! on the other end, so a signal wakes its waiter at once, with no poll.

#[cfg(unix)]
mod unix {
    use std::io;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// The pipe's write end, stored before the handler is installed.
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);
    /// The pipe's read end, or the OS error `pipe(2)` failed with.
    static READ_FD: OnceLock<Result<i32, i32>> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        let byte = 1u8;
        // SAFETY: `write` is async-signal-safe; it reads one byte from a
        // live local. A full pipe already holds a wake-up, so a failed
        // write loses nothing.
        unsafe {
            write(WRITE_FD.load(Ordering::SeqCst), &byte, 1);
        }
    }

    /// Create the pipe and route SIGINT and SIGTERM to it. Idempotent.
    pub fn install() -> io::Result<()> {
        let read_fd = *READ_FD.get_or_init(|| {
            let mut fds = [-1i32; 2];
            // SAFETY: `pipe` writes two descriptors into the array.
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error().raw_os_error().unwrap_or(0));
            }
            WRITE_FD.store(fds[1], Ordering::SeqCst);
            let handler = on_signal as *const () as usize;
            // SAFETY: `signal` is the POSIX call of that name; the handler
            // only writes to the pipe created above.
            unsafe {
                signal(SIGINT, handler);
                signal(SIGTERM, handler);
            }
            Ok(fds[0])
        });
        read_fd.map(drop).map_err(io::Error::from_raw_os_error)
    }

    /// Block the calling thread until SIGINT or SIGTERM arrives. Never
    /// returns unless [`install`] has succeeded.
    pub fn wait() {
        if let Some(&Ok(fd)) = READ_FD.get() {
            let mut byte = 0u8;
            loop {
                // SAFETY: reads at most one byte into a live local.
                let n = unsafe { read(fd, &mut byte, 1) };
                if n == 1 {
                    return;
                }
                if n >= 0 || io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                    break;
                }
            }
        }
        // No pipe to read: no signal can be delivered here.
        loop {
            std::thread::park();
        }
    }
}

#[cfg(unix)]
pub use unix::{install, wait};

#[cfg(not(unix))]
mod fallback {
    /// No signal routing off unix; the server stops via `/shutdown` or
    /// [`crate::server::Server::stop`].
    pub fn install() -> std::io::Result<()> {
        Ok(())
    }

    /// Off unix no signal ever arrives: blocks forever.
    pub fn wait() {
        loop {
            std::thread::park();
        }
    }
}

#[cfg(not(unix))]
pub use fallback::{install, wait};
