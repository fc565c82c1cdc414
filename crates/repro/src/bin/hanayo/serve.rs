//! `hanayo serve` — the resident planning service: bind, answer until a
//! signal or `POST /shutdown`, drain, exit 0.
//!
//! Every response body is built by [`hanayo_serve::schema`], the code
//! `tune` and `analyze` print through; `crates/serve/tests/golden_wire.rs`
//! pins the served bytes, including under concurrent mixed traffic. Post
//! requests with `curl` or [`hanayo_serve::Client`].

use crate::cli::{flag, Command, Flag, Output};
use hanayo_serve::{serve, signal};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

pub(crate) struct Args {
    addr: String,
    drain_secs: u64,
}

impl Command for Args {
    const ABOUT: &'static str = "resident planning service";
    const USAGE: &'static str = "USAGE: hanayo serve [--addr HOST:PORT] [--drain-secs N]\n";

    fn defaults() -> Self {
        Args { addr: "127.0.0.1:7411".to_string(), drain_secs: 10 }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag(
                "--addr",
                "<HOST:PORT>",
                "bind address; port 0 picks a free port and prints it [127.0.0.1:7411]",
                |a| &mut a.addr,
            ),
            flag("--drain-secs", "<N>", "shutdown drain deadline [10]", |a| &mut a.drain_secs),
        ]
    }

    fn run(self, _: &Output) -> Result<(), String> {
        let server =
            Arc::new(serve(&self.addr).map_err(|e| format!("binding {}: {e}", self.addr))?);
        signal::install().map_err(|e| format!("installing the signal handler: {e}"))?;
        // The bound address on the first line of stdout, so wrappers (and
        // the shutdown regression test) can connect to a port-0 server.
        println!("listening http://{}", server.addr());
        eprintln!(
            "hanayo-serve: POST /v1/{{plan,tune,simulate,analyze}}, GET /metrics; ctrl-c drains"
        );
        // A signal wakes this thread, which starts the drain. A drain past
        // its deadline ends the process here; aborted sweeps hold nothing
        // worth waiting for. The thread is not joined: after a POST
        // /shutdown it is still blocked on the pipe, and ends with the
        // process.
        let drain_secs = self.drain_secs;
        let on_signal = Arc::clone(&server);
        thread::Builder::new()
            .name("hanayo-serve-signal".to_string())
            .spawn(move || {
                signal::wait();
                eprintln!("hanayo-serve: signal received, draining (deadline {drain_secs}s)");
                if !on_signal.stop_within(Duration::from_secs(drain_secs)) {
                    eprintln!("hanayo-serve: drain deadline passed with threads still closing");
                    std::process::exit(0);
                }
            })
            .map_err(|e| format!("spawning the signal thread: {e}"))?;
        // Drained after a signal or a POST /shutdown, whichever came first.
        server.wait_drained();
        server.stop();
        Ok(())
    }
}
