//! `serve` — the resident planning service as a binary: host mode and a
//! thin one-shot client.
//!
//! ```text
//! # Host (ctrl-c / SIGTERM drains and exits 0):
//! cargo run --release -p hanayo-repro --bin serve -- --addr 127.0.0.1:7411
//!
//! # One-shot client (reads the JSON request from a file or stdin):
//! cargo run --release -p hanayo-repro --bin serve -- \
//!     --mode client --addr 127.0.0.1:7411 --endpoint tune --body req.json
//! ```
//!
//! Every response body is built by [`hanayo_serve::schema`], the same code
//! the one-shot CLIs print through; `crates/serve/tests/golden_wire.rs`
//! pins the two byte-identical, including under concurrent mixed traffic.

use hanayo_serve::{serve, signal, Client};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const USAGE: &str = "\
serve — resident planning service (host, client)

USAGE: serve [--addr HOST:PORT] [--drain-secs N]
       serve --mode client --addr HOST:PORT --endpoint <plan|tune|simulate|analyze> [--body FILE]

FLAGS:
  --mode <serve|client>          what to run                    [serve]
  --addr <HOST:PORT>             bind (serve) / target (client)
                                 address; port 0 picks a free
                                 port and prints it             [127.0.0.1:7411]
  --drain-secs <N>               shutdown drain deadline        [10]
  --endpoint <NAME>              client: endpoint to POST to
  --body <FILE>                  client: JSON request body file
                                 (default: read stdin)
  --help                         this text
";

#[derive(Debug)]
struct Args {
    mode: String,
    addr: String,
    drain_secs: u64,
    endpoint: Option<String>,
    body: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            mode: "serve".to_string(),
            addr: "127.0.0.1:7411".to_string(),
            drain_secs: 10,
            endpoint: None,
            body: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--mode" => args.mode = value("--mode")?,
            "--addr" => args.addr = value("--addr")?,
            "--drain-secs" => {
                args.drain_secs =
                    value("--drain-secs")?.parse().map_err(|e| format!("--drain-secs: {e}"))?
            }
            "--endpoint" => args.endpoint = Some(value("--endpoint")?),
            "--body" => args.body = Some(value("--body")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

// ---------------------------------------------------------------------
// Host mode
// ---------------------------------------------------------------------

fn run_host(args: &Args) -> Result<(), String> {
    let server = Arc::new(serve(&args.addr).map_err(|e| format!("binding {}: {e}", args.addr))?);
    signal::install().map_err(|e| format!("installing the signal handler: {e}"))?;
    // The bound address on the first line of stdout, so wrappers (and the
    // shutdown regression test) can connect to a port-0 server.
    println!("listening http://{}", server.addr());
    eprintln!("hanayo-serve: POST /v1/{{plan,tune,simulate,analyze}}, GET /metrics; ctrl-c drains");
    // A signal wakes this thread, which starts the drain. A drain past its
    // deadline ends the process here; aborted sweeps hold nothing worth
    // waiting for. The thread is not joined: after a POST /shutdown it is
    // still blocked on the pipe, and ends with the process.
    let drain_secs = args.drain_secs;
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

// ---------------------------------------------------------------------
// Client mode
// ---------------------------------------------------------------------

fn run_client(args: &Args) -> Result<(), String> {
    let endpoint = args.endpoint.as_deref().ok_or("client mode needs --endpoint")?;
    let path = match endpoint {
        "plan" | "tune" | "simulate" | "analyze" => format!("/v1/{endpoint}"),
        other => return Err(format!("unknown endpoint {other}")),
    };
    let body = match &args.body {
        Some(file) => std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?,
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            text
        }
    };
    let addr = args
        .addr
        .parse()
        .map_err(|e| format!("--addr {}: {e} (client mode needs a concrete port)", args.addr))?;
    let client = Client::new(addr);
    match client.expect_ok("POST", &path, Some(&body)) {
        Ok(body) => {
            print!("{body}");
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.mode.as_str() {
        "serve" => run_host(&args),
        "client" => run_client(&args),
        other => Err(format!("unknown mode {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
