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
//! Sessions are journaled *as they finish*, and every finished session
//! triggers a telemetry flush plus a `slm_bs.snapshot.json` rewrite
//! next to the journal, so a server killed mid-fleet has already
//! persisted everything its completed sessions produced.

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

/// Rewrite `slm_bs.snapshot.json` next to the journal (jsonl mode
/// only). Called after every finished session and at shutdown so the
/// on-disk snapshot always reflects the latest fleet state.
fn write_live_snapshot(tele: &mut Telemetry) {
    let Some(dir) = tele.events_path().and_then(|p| p.parent()) else {
        return;
    };
    let path = dir.join("slm_bs.snapshot.json");
    let body = tele.snapshot().to_json() + "\n";
    if let Err(e) = std::fs::write(&path, body) {
        tele.warn(&format!("slm-bs: write {}: {e}", path.display()));
    }
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
                // Fold the session into the registry: per-session scope
                // plus the fleet-wide aggregate (counters sum, gauges
                // last-write, DESIGN.md §11).
                let mut scope = tele.scoped(&format!("net.session.{id}"));
                scope.add("steps", s.steps);
                scope.add("evals", s.evals);
                scope.add("heartbeats", s.heartbeats);
                scope.add("nacks.sent", s.nacks_sent);
                scope.add("nacks.received", s.nacks_received);
                scope.add("resends", s.resends);
                scope.add("frames.received", s.frames_received);
                scope.add("bytes.received", s.bytes_received);
                scope.gauge_set("clean_shutdown", if s.clean_shutdown { 1.0 } else { 0.0 });
                if s.loss_ema.is_finite() && s.steps > 0 {
                    scope.gauge_set("loss_ema", s.loss_ema);
                }
                tele.absorb(&scope, Some("net.fleet"));
            }
            Err(e) => {
                failures += 1;
                tele.warn(&format!("slm-bs: {peer}: session {id} failed: {e}"));
            }
        }
        // Persist after *every* session — a server killed mid-fleet has
        // already journaled and snapshotted everything that finished.
        write_live_snapshot(&mut tele);
        tele.flush();
    });
    write_live_snapshot(&mut tele);
    tele.flush();
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
