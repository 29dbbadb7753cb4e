//! Microbenchmark for the retention-trial hot path: the scalar reference
//! scan vs. routed trials served by a compiled plan vs. the bit-plane batch
//! kernel, at 1 and 4 worker threads.
//!
//! ```text
//! trial_bench [--smoke] [--json[=PATH]] [--rounds N] [--gate]
//! trial_bench                    # full-capacity run, writes BENCH_trial.json
//! trial_bench --smoke            # small chip, few rounds, equality check only
//! trial_bench --gate             # also fail if 4 threads < 1 thread for the
//!                                # compiled or batch row (best-of-2 timing)
//! ```
//!
//! Every configuration replays the *same* round script on a fresh chip
//! (warmup rounds, timed rounds, a mid-script `advance` that invalidates
//! compiled plans, then post-invalidation rounds), and the benchmark
//! asserts all transcripts are byte-identical before reporting any
//! number — a throughput figure from a diverging path would be
//! meaningless. The rows:
//!
//! * `scalar` — every round through `retention_trial_reference`;
//! * `compiled` — every round through `retention_trial`; the warmup rounds
//!   are the condition's first and second sightings, so every timed round
//!   is a compiled-plan hit (checked from `plan_stats`);
//! * `batch` — `retention_trial` warmup, then all timed rounds in one
//!   `retention_trial_rounds` call (64-round bit-plane passes).
//!
//! Timing covers only the steady-state timed rounds, so the one-time plan
//! compile (≈ one scalar trial) is excluded, matching how the plan cache
//! amortizes it across iteration loops.

// The terminal is this binary's output surface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use reaper_bench::util::dram_temp;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip};

/// Prints to stdout, ignoring a closed pipe (`trial_bench | head` must
/// not panic on EPIPE).
macro_rules! emit {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

/// The representative Vendor B chip (same seed the figure harnesses use).
const B_CHIP_SEED: u64 = 0xBC417;
/// Warmup rounds before the timer starts: the first and second sightings
/// of the condition, so its plan is compiled outside the timed region.
const WARMUP_ROUNDS: u64 = 2;
/// Rounds run after the mid-script `advance`, checking that invalidation
/// and recompile stay bit-identical (never timed).
const POST_ADVANCE_ROUNDS: u64 = 2;

struct Config {
    smoke: bool,
    json_path: Option<String>,
    rounds: u64,
    gate: bool,
}

/// One benchmark row: how the timed rounds are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    Scalar,
    Compiled,
    Batch,
}

impl Row {
    fn name(self) -> &'static str {
        match self {
            Row::Scalar => "scalar",
            Row::Compiled => "compiled",
            Row::Batch => "batch",
        }
    }
}

struct Measurement {
    row: Row,
    threads: usize,
    wall_ms: f64,
    rounds_per_sec: f64,
    transcript: Vec<Vec<u64>>,
    plans_compiled: u64,
    invalidations: u64,
    batch_rounds: u64,
    /// Timed rounds served by a compiled plan (single-round or batched).
    timed_plan_trials: u64,
}

/// Runs the full round script for one (row, threads) configuration on a
/// fresh chip and returns timing plus the complete outcome transcript.
fn run_config(cfg: &RetentionConfig, row: Row, threads: usize, rounds: u64) -> Measurement {
    let pattern = DataPattern::checkerboard();
    let interval = Ms::new(1024.0);
    let temp = dram_temp(Celsius::new(45.0));

    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), B_CHIP_SEED);
    let trial = if row == Row::Scalar {
        SimulatedChip::retention_trial_reference
    } else {
        SimulatedChip::retention_trial
    };
    let mut transcript = Vec::new();

    for _ in 0..WARMUP_ROUNDS {
        transcript.push(trial(&mut chip, pattern, interval, temp).into_vec());
    }
    let plan_trials_before = chip.plan_stats().plan_trials;
    let start = Instant::now();
    if row == Row::Batch {
        // The multi-round entry point: all timed rounds submitted at once,
        // evaluated in 64-round bit-plane passes. Outcomes land in the same
        // transcript and must match the scalar reference byte-for-byte.
        let n = reaper_exec::num::u64_to_u32(rounds);
        for outcome in chip.retention_trial_rounds(pattern, interval, temp, n) {
            transcript.push(outcome.into_vec());
        }
    } else {
        for _ in 0..rounds {
            transcript.push(trial(&mut chip, pattern, interval, temp).into_vec());
        }
    }
    let wall = start.elapsed();
    let timed_plan_trials = chip.plan_stats().plan_trials - plan_trials_before;
    // Exercise plan invalidation: advance device time (epoch roll + VRT
    // evolution + arrivals), then keep trialing. Untimed, but part of the
    // equality transcript.
    chip.advance(Ms::from_hours(1.0));
    for _ in 0..POST_ADVANCE_ROUNDS {
        transcript.push(trial(&mut chip, pattern, interval, temp).into_vec());
    }

    let wall_ms = wall.as_secs_f64() * 1e3;
    let stats = chip.plan_stats();
    Measurement {
        row,
        threads,
        wall_ms,
        rounds_per_sec: rounds as f64 / wall.as_secs_f64().max(1e-9),
        transcript,
        plans_compiled: stats.plans_compiled,
        invalidations: stats.invalidations,
        batch_rounds: stats.batch_rounds,
        timed_plan_trials,
    }
}

fn json_report(cfg_label: &str, window: usize, rounds: u64, runs: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"config\": \"{cfg_label}\",\n"));
    out.push_str("  \"pattern\": \"checkerboard\",\n");
    out.push_str("  \"interval_ms\": 1024.0,\n");
    out.push_str("  \"dram_temp_c\": 60.0,\n");
    out.push_str(&format!("  \"candidate_window_cells\": {window},\n"));
    out.push_str(&format!("  \"timed_rounds\": {rounds},\n"));
    let single = |row: Row| {
        runs.iter()
            .find(|m| m.row == row && m.threads == 1)
            .map_or(0.0, |m| m.rounds_per_sec)
    };
    let scalar = single(Row::Scalar);
    let compiled = single(Row::Compiled);
    let batch = single(Row::Batch);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.push_str(&format!(
        "  \"speedup_single_thread\": {:.2},\n",
        ratio(compiled, scalar)
    ));
    out.push_str(&format!(
        "  \"batch_speedup_vs_scalar\": {:.2},\n",
        ratio(batch, scalar)
    ));
    out.push_str(&format!(
        "  \"batch_speedup_vs_compiled\": {:.2},\n",
        ratio(batch, compiled)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"rounds_per_sec\": {:.2}, \"plans_compiled\": {}, \"invalidations\": {}, \"batch_rounds\": {}}}{sep}\n",
            m.row.name(),
            m.threads,
            m.wall_ms,
            m.rounds_per_sec,
            m.plans_compiled,
            m.invalidations,
            m.batch_rounds,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config { smoke: false, json_path: None, rounds: 0, gate: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            cfg.smoke = true;
        } else if arg == "--gate" {
            cfg.gate = true;
        } else if arg == "--json" {
            cfg.json_path = Some("BENCH_trial.json".to_string());
        } else if let Some(path) = arg.strip_prefix("--json=") {
            cfg.json_path = Some(path.to_string());
        } else if arg == "--rounds" {
            let n = args.next().ok_or("--rounds needs a value")?;
            cfg.rounds = n.parse().map_err(|_| format!("bad --rounds value: {n}"))?;
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    if cfg.rounds == 0 {
        // Full mode times four full 64-round batches: long enough that the
        // 4t-vs-1t gate ratio is not at the mercy of a ~3 ms timed region.
        cfg.rounds = if cfg.smoke { 12 } else { 256 };
    }
    if !cfg.smoke && cfg.json_path.is_none() {
        cfg.json_path = Some("BENCH_trial.json".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("trial_bench: {msg}");
            eprintln!("usage: trial_bench [--smoke] [--json[=PATH]] [--rounds N] [--gate]");
            return ExitCode::FAILURE;
        }
    };

    // Full mode uses the unscaled Vendor B chip (the acceptance target);
    // smoke keeps CI fast with a 1/8-capacity device.
    let (chip_cfg, cfg_label) = if cfg.smoke {
        (
            RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 8),
            "vendor B, 1/8 capacity (smoke)",
        )
    } else {
        (RetentionConfig::for_vendor(Vendor::B), "vendor B, full capacity")
    };

    let window = SimulatedChip::new(chip_cfg.clone(), B_CHIP_SEED)
        .candidate_window(Ms::new(1024.0), dram_temp(Celsius::new(45.0)));
    emit!(
        "trial_bench: {} — checkerboard @ 1024ms / 60°C, {} candidate cells, {} timed rounds",
        cfg_label,
        window,
        cfg.rounds
    );

    let mut runs = Vec::new();
    for row in [Row::Scalar, Row::Compiled, Row::Batch] {
        for threads in [1usize, 4] {
            let mut m = run_config(&chip_cfg, row, threads, cfg.rounds);
            if cfg.gate {
                // Best-of-2: gate mode compares thread counts, so shave
                // one-off noise (page faults, pool spin-up) off each
                // configuration. Transcripts are deterministic, so either
                // run's copy is the same — keep the faster timing.
                let again = run_config(&chip_cfg, row, threads, cfg.rounds);
                if again.rounds_per_sec > m.rounds_per_sec {
                    m = again;
                }
            }
            emit!(
                "  {:>8} path, {} thread(s): {:>9.1} rounds/sec  ({:.1} ms, {} plan(s) compiled, {} invalidation(s))",
                m.row.name(),
                m.threads,
                m.rounds_per_sec,
                m.wall_ms,
                m.plans_compiled,
                m.invalidations
            );
            runs.push(m);
        }
    }
    reaper_exec::set_thread_count(None);

    // Equality gate: every configuration must produce the exact transcript
    // the single-thread scalar reference did.
    let Some((reference_run, rest)) = runs.split_first() else {
        eprintln!("trial_bench: no configurations ran");
        return ExitCode::FAILURE;
    };
    for m in rest {
        if m.transcript != reference_run.transcript {
            eprintln!(
                "trial_bench: MISMATCH — {} path at {} thread(s) diverged from the scalar reference",
                m.row.name(),
                m.threads
            );
            return ExitCode::FAILURE;
        }
        if m.row != Row::Scalar && m.timed_plan_trials != cfg.rounds {
            eprintln!(
                "trial_bench: {} path at {} thread(s) served {} of {} timed rounds from a compiled plan",
                m.row.name(),
                m.threads,
                m.timed_plan_trials,
                cfg.rounds
            );
            return ExitCode::FAILURE;
        }
    }
    emit!(
        "  equality: all {} configurations byte-identical across {} rounds each",
        runs.len(),
        reference_run.transcript.len()
    );

    if cfg.gate {
        // Thread-scaling gate: regression guard for the per-call
        // thread::scope spawn storm that once made 4 compiled threads
        // ~3× *slower* than 1. The pool clamps its width to physical
        // parallelism, so on a single-core runner 4t runs the same inline
        // code as 1t; the tolerance absorbs residual timer noise.
        const GATE_TOLERANCE: f64 = 0.95;
        for row in [Row::Compiled, Row::Batch] {
            let at = |threads: usize| {
                runs.iter()
                    .find(|m| m.row == row && m.threads == threads)
                    .map_or(0.0, |m| m.rounds_per_sec)
            };
            let (one, four) = (at(1), at(4));
            if four < one * GATE_TOLERANCE {
                eprintln!(
                    "trial_bench: GATE FAILURE — {} path: 4 threads ({four:.1} rounds/sec) \
                     is below 1 thread ({one:.1} rounds/sec) × {GATE_TOLERANCE}",
                    row.name()
                );
                return ExitCode::FAILURE;
            }
            emit!(
                "  gate: {} path 4t/1t ratio {:.2} (>= {GATE_TOLERANCE})",
                row.name(),
                four / one.max(1e-9)
            );
        }
    }

    let report = json_report(cfg_label, window, cfg.rounds, &runs);
    if let Some(path) = &cfg.json_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("trial_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        emit!("  wrote {path}");
    }
    ExitCode::SUCCESS
}
