//! The repository benchmark: three workloads over the REAPER stack,
//! measured from outside through each crate's public functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path reaperbench/Cargo.toml -- \
//!     --workload characterize|profile_jobs|fleet_reads --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! records spans around the same calls and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Everything
//! runs in this one process; servers are started in-process.

mod awake;
mod characterize;
mod fleet_reads;
mod ledger;
mod profile_jobs;
mod report;
mod trace;

use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Whether `fleet_reads` runs its idle spinners (`--spinners 0|1`,
    /// default 1); `0` is for measuring what they cost.
    pub spinners: bool,
}

const WORKLOADS: [&str; 3] = ["characterize", "profile_jobs", "fleet_reads"];

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut spinners = true;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spinners" => {
                spinners = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--spinners takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spinners,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("reaperbench: {why}");
            eprintln!(
                "usage: reaperbench --workload <{}> --seed N [--seconds S] [--trace 0|1] [--spinners 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.workload);
    report.env(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    report.env(
        "REAPER_THREADS",
        std::env::var("REAPER_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    report.env("exec_threads", reaper_exec::thread_count());
    report.env("seed", args.seed);
    report.env("seconds", args.seconds);
    let (steal0, total0) = report::cpu_ticks();
    match args.workload {
        "characterize" => characterize::run(&args, &mut report),
        "profile_jobs" => profile_jobs::run(&args, &mut report),
        _ => fleet_reads::run(&args, &mut report),
    }
    let (steal1, total1) = report::cpu_ticks();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    report.env("host_steal_frac", format!("{steal:.4}"));
    report.e2e("peak_rss_mb", report::peak_rss_mb(), 1);
    report.print(args.trace);
    ExitCode::SUCCESS
}
