//! `slm-report` — render markdown run reports from `results/<exp>/`
//! directories, maintain the `BENCH_<exp>.json` trajectory, and gate on
//! regressions.
//!
//! ```sh
//! slm-report results/fig3a                 # report + trajectory append
//! slm-report --check results/fig3a         # regression gate (exit 1 on fail)
//! slm-report --diff results/a results/b    # side-by-side comparison
//! slm-report --kernels results             # latest compute-kernel batch
//! slm-report --kernels --check results     # gate kernel determinism
//! ```
//!
//! Flags: `--out FILE` (write markdown to a file), `--no-append` (skip
//! the trajectory append). `--kernels` shows the latest batch the
//! `kernels` bin appended to `BENCH_kernels.json`; every gate, its
//! tolerance, and `--diff`'s verdict come from the declared kinds in
//! `sl_bench::report`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use sl_bench::report::{
    append_trajectory, baseline, bench_path, check, entry_from_run, latest_batch, load_run,
    load_trajectory, render_diff, render_markdown, render_table, trajectory_path, KERNELS, RUN,
};

const USAGE: &str = "usage: slm-report [--check] [--diff A B] [--kernels] [--out FILE] \
                     [--no-append] <results-dir>...";

fn main() -> ExitCode {
    let mut check_mode = false;
    let mut diff_mode = false;
    let mut kernels_mode = false;
    let mut no_append = false;
    let mut out_path: Option<PathBuf> = None;
    let mut dirs: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_mode = true,
            "--diff" => diff_mode = true,
            "--kernels" => kernels_mode = true,
            "--no-append" => no_append = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => return usage_error("--out needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag {other:?}"));
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    if dirs.is_empty() {
        return usage_error("no results directory given");
    }

    // `--kernels` shows (and gates) the latest batch of its trajectory;
    // the gates are the kind's declared table.
    if kernels_mode {
        let kind = &KERNELS;
        if dirs.len() != 1 {
            let msg = format!("--{} needs exactly one results directory", kind.name);
            return usage_error(&msg);
        }
        let all = match load_trajectory(kind, &trajectory_path(&dirs[0], kind.name)) {
            Ok(t) => t,
            Err(e) => return load_error(&e),
        };
        let batch = latest_batch(&all);
        print!("{}", render_table(kind, batch));
        if !check_mode {
            return ExitCode::SUCCESS;
        }
        let failures = check(kind, batch, &all[..all.len() - batch.len()]);
        println!();
        if failures.is_empty() {
            println!(
                "PASS  {}  ({} entries in latest batch)",
                kind.name,
                batch.len()
            );
        }
        let failed = print_failures(kind.name, &failures);
        return ExitCode::from(u8::from(failed));
    }

    if diff_mode {
        if dirs.len() != 2 {
            return usage_error("--diff needs exactly two results directories");
        }
        let (a, b) = match (load_run(&dirs[0]), load_run(&dirs[1])) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return load_error(&e),
        };
        let (md, regressed) = render_diff(&a, &b);
        print!("{md}");
        return ExitCode::from(u8::from(regressed));
    }

    let now_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut failed = false;
    let mut rendered = String::new();
    for dir in &dirs {
        let run = match load_run(dir) {
            Ok(r) => r,
            Err(e) => return load_error(&e),
        };
        let entry = entry_from_run(&run, now_s);
        let traj = bench_path(&run);
        if check_mode {
            let history = match load_trajectory(&RUN, &traj) {
                Ok(h) => h,
                Err(e) => return load_error(&e),
            };
            let failures = check(&RUN, std::slice::from_ref(&entry), &history);
            match baseline(&RUN, &entry, &history) {
                _ if !failures.is_empty() => {}
                Some(base) => println!(
                    "PASS  {}  rmse {:.2} dB (baseline {:.2}), sim {:.2} s (baseline {:.2})",
                    run.name,
                    entry.get_num("val_rmse_db"),
                    base.get_num("val_rmse_db"),
                    entry.get_num("sim_elapsed_s"),
                    base.get_num("sim_elapsed_s")
                ),
                None => println!(
                    "PASS  {}  (no baseline for profile {} / config {})",
                    run.name,
                    entry.get_str("profile"),
                    entry.get_str("config_hash")
                ),
            }
            failed |= print_failures(&run.name, &failures);
            if failures.is_empty() && !no_append {
                if let Err(e) = append_trajectory(&RUN, &traj, &run.name, &[entry]) {
                    eprintln!("slm-report: {e}");
                }
            }
        } else {
            rendered.push_str(&render_markdown(&run));
            rendered.push('\n');
            if !no_append {
                match append_trajectory(&RUN, &traj, &run.name, &[entry]) {
                    Ok(n) => eprintln!("slm-report: appended entry #{n} to {}", traj.display()),
                    Err(e) => eprintln!("slm-report: {e}"),
                }
            }
        }
    }
    if !check_mode {
        match &out_path {
            Some(p) => {
                if let Err(e) = std::fs::write(p, &rendered) {
                    eprintln!("slm-report: {}: {e}", p.display());
                    return ExitCode::from(2);
                }
                eprintln!("slm-report: wrote {}", p.display());
            }
            None => print!("{rendered}"),
        }
    }
    ExitCode::from(u8::from(failed))
}

/// Prints a `FAIL` block for `name`, one line per failure, when there
/// is any; returns whether there was.
fn print_failures(name: &str, failures: &[String]) -> bool {
    if !failures.is_empty() {
        println!("FAIL  {name}");
    }
    for f in failures {
        println!("      - {f}");
    }
    !failures.is_empty()
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("slm-report: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn load_error(msg: &str) -> ExitCode {
    eprintln!("slm-report: {msg}");
    ExitCode::from(2)
}
