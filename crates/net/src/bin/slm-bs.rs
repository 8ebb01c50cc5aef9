//! **slm-bs** — the BS side of the networked split-learning runtime.
//!
//! Binds a TCP listener, serves UE sessions (one thread per connection,
//! model compute serialized behind a shared lock) and journals one
//! summary line per finished session. With `SLM_TELEMETRY=jsonl` the
//! journal also receives the server-side spans of traced sessions
//! (`SLM_TRACE=on` on the UE side), which `slm-trace` merges with the
//! UE journal into one Perfetto timeline.
//!
//! ```sh
//! cargo run --release -p sl-net --bin slm-bs -- \
//!     --addr 127.0.0.1:0 --sessions 5 --port-file results/bs.port
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; `--port-file` writes
//! the resolved address so a harness can point the UE side,
//! `fig3a --addr-file`, at it.
//! `--sessions N` exits after `N` sessions (default: serve forever).
//!
//! Sessions are journaled *as they finish*, each followed by a
//! telemetry flush, so a server killed mid-run has already persisted
//! every completed session's line and spans.

use std::process::ExitCode;

use sl_net::BsServer;
use sl_telemetry::Telemetry;

struct Args {
    addr: String,
    sessions: Option<usize>,
    port_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        sessions: None,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--sessions" => {
                args.sessions = Some(
                    value("--sessions")?
                        .parse()
                        .map_err(|e| format!("--sessions: {e}"))?,
                )
            }
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--help" | "-h" => {
                return Err(
                    "usage: slm-bs [--addr HOST:PORT] [--sessions N] [--port-file PATH]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut tele = Telemetry::from_env("slm_bs");
    let server = match BsServer::bind(&args.addr) {
        Ok(s) => s,
        Err(e) => {
            tele.warn(&format!("slm-bs: bind {}: {e}", args.addr));
            return ExitCode::FAILURE;
        }
    };
    let local = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            tele.warn(&format!("slm-bs: local_addr: {e}"));
            return ExitCode::FAILURE;
        }
    };
    tele.progress(&format!("slm-bs: listening on {local}"));
    if let Some(path) = &args.port_file {
        // The file is the readiness signal: write it only after the
        // listener is live so a polling harness can't race the bind.
        if let Err(e) = std::fs::write(path, local.to_string()) {
            tele.warn(&format!("slm-bs: write {path}: {e}"));
            return ExitCode::FAILURE;
        }
    }

    let mut failures = 0usize;
    server.serve(args.sessions, |id, peer, outcome| {
        match outcome {
            Ok(s) => {
                tele.progress(&format!(
                    "slm-bs: {peer} session {id} [{}] steps {} evals {} heartbeats {} \
                     nacks sent/recv {}/{} resends {} frames {} bytes {}{}",
                    if s.config.is_empty() {
                        "no handshake"
                    } else {
                        &s.config
                    },
                    s.steps,
                    s.evals,
                    s.heartbeats,
                    s.nacks_sent,
                    s.nacks_received,
                    s.resends,
                    s.frames_received,
                    s.bytes_received,
                    if s.clean_shutdown { "" } else { " (unclean)" },
                ));
                // Traced sessions carry their server-side spans; journal
                // them so `slm-trace` can stitch UE + BS timelines.
                for span in &s.spans {
                    tele.emit(span.to_event());
                }
            }
            Err(e) => {
                failures += 1;
                tele.warn(&format!("slm-bs: {peer}: session {id} failed: {e}"));
            }
        }
        // Persist after *every* session — a server killed mid-run has
        // already journaled everything that finished.
        tele.flush();
    });
    tele.flush();
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
