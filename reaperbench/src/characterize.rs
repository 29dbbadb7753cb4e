//! `characterize`: the Fig. 4 replica at Quick scale, driven by direct
//! calls to `SimulatedChip`.
//!
//! One pass builds four full-capacity Vendor B chips (seeds `0xF164+k`,
//! one per refresh interval) one at a time, runs 12 warm-up iterations
//! of the standard pattern set, then 12 measured iterations spread over
//! 96 simulated hours: 1,152 trials. Every pass must reproduce the four
//! rates of `goldens/fig04.tsv` exactly as printed. The seed only
//! permutes the order in which a pass visits the four chips.

use std::collections::BTreeSet;
use std::time::Instant;

use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::rng;
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip};
use reaper_softmc::thermal::DRAM_OFFSET;

use crate::report::{median, quantile, Report, Series, QUIET_TIME};
use crate::trace::{Trace, Tracer};
use crate::Args;

const INTERVALS_S: [f64; 4] = [1.024, 1.536, 2.048, 3.072];
const CHIP_SEED: u64 = 0xF164;
const AMBIENT_C: f64 = 45.0;
const WARMUP_ITERS: u64 = 12;
const MEASURE_ITERS: u64 = 12;
const MEASURE_HOURS: f64 = 96.0;
const GOLDEN: &str = include_str!("../../goldens/fig04.tsv");

/// The four rate cells of the golden table, in interval order.
fn golden_rates() -> Vec<String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .filter(|cols| cols.len() >= 3 && cols[1].ends_with('s') && !cols[2].is_empty())
        .map(|cols| cols[2].to_string())
        .collect()
}

/// The table's number format (`reaper_bench::table::fmt_f`).
fn fmt_rate(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// Which of the four buckets a trial call fell in, from the chip's plan
/// counters and arrival-cell count read before and after it: a call that
/// compiled a plan, else one that changed the set of VRT arrival cells
/// (drew new ones or retired expired ones), else one a compiled plan
/// served, else one the lowered or scalar path served.
fn bucket(before: (PlanStats, usize), after: (PlanStats, usize)) -> &'static str {
    if after.0.plans_compiled > before.0.plans_compiled {
        "retention.trial.compiling"
    } else if after.1 != before.1 {
        "retention.trial.with_arrivals"
    } else if after.0.plan_trials > before.0.plan_trials {
        "retention.trial.plan_hit"
    } else {
        "retention.trial.lowered_or_scalar"
    }
}

struct Pass {
    setup_s: f64,
    /// Host seconds of each chip's trials, by chip.
    chip_s: [f64; 4],
    trials: u64,
    rates: Vec<String>,
    stats: PlanStats,
    arrivals: u64,
}

/// Per-trial timings of a set of passes.
#[derive(Default)]
struct Timing {
    /// Host ms of each trial, keyed by pass.
    latencies: Series,
    /// Calls and host ms of the trials that ran while arrival cells were
    /// active, whatever bucket they fell in (traced passes only).
    carrying: (u64, f64),
}

fn trial(
    chip: &mut SimulatedChip,
    pattern: DataPattern,
    interval: Ms,
    temp: Celsius,
    tracer: &mut Tracer,
    timing: &mut Timing,
    request: u64,
) -> Vec<u64> {
    let before = (chip.plan_stats(), chip.arrival_count());
    let open = tracer.begin(request);
    let t0 = Instant::now();
    let outcome = chip.retention_trial(pattern, interval, temp);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    timing.latencies.push(request as f64, ms);
    if tracer.enabled() {
        let after = (chip.plan_stats(), chip.arrival_count());
        tracer.end(open, bucket(before, after));
        if after.1 > 0 {
            timing.carrying.0 += 1;
            timing.carrying.1 += ms;
        }
    }
    outcome.into_vec()
}

fn pass(order: &[usize], id: u64, tracer: &mut Tracer, timing: &mut Timing) -> Pass {
    let temp = Celsius::new(AMBIENT_C) + DRAM_OFFSET;
    let root = tracer.begin(id);
    let mut out = Pass {
        setup_s: 0.0,
        chip_s: [0.0; 4],
        trials: 0,
        rates: vec![String::new(); INTERVALS_S.len()],
        stats: PlanStats::default(),
        arrivals: 0,
    };
    for &k in order {
        let t0 = Instant::now();
        let mut chip = tracer.span("retention.chip_new", id, |_| {
            SimulatedChip::new(RetentionConfig::for_vendor(Vendor::B), CHIP_SEED + k as u64)
        });
        let t1 = Instant::now();
        out.setup_s += (t1 - t0).as_secs_f64();

        let interval = Ms::from_secs(INTERVALS_S[k]);
        let mut seen = BTreeSet::new();
        for it in 0..WARMUP_ITERS {
            for p in DataPattern::standard_set(it) {
                seen.extend(trial(&mut chip, p, interval, temp, tracer, timing, id));
                out.trials += 1;
            }
        }
        let step = Ms::from_hours(MEASURE_HOURS / MEASURE_ITERS as f64);
        let mut new_cells = 0u64;
        for it in 0..MEASURE_ITERS {
            tracer.span("retention.advance", id, |_| chip.advance(step));
            for p in DataPattern::standard_set(WARMUP_ITERS + it) {
                for cell in trial(&mut chip, p, interval, temp, tracer, timing, id) {
                    if seen.insert(cell) {
                        new_cells += 1;
                    }
                }
                out.trials += 1;
            }
        }
        out.chip_s[k] = t1.elapsed().as_secs_f64();
        out.rates[k] = fmt_rate(new_cells as f64 / MEASURE_HOURS);
        let s = chip.plan_stats();
        out.stats.scalar_trials += s.scalar_trials;
        out.stats.lowered_trials += s.lowered_trials;
        out.stats.plan_trials += s.plan_trials;
        out.stats.batch_rounds += s.batch_rounds;
        out.stats.lowerings_built += s.lowerings_built;
        out.stats.plans_compiled += s.plans_compiled;
        out.stats.invalidations += s.invalidations;
        out.arrivals += chip.arrival_count() as u64;
    }
    tracer.end(root, "characterize.pass");
    out
}

/// Trials per second of a pass whose every chip took its quiet-quartile
/// time over the passes.
fn trials_per_s(passes: &[&Pass]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let secs: f64 = (0..INTERVALS_S.len())
        .map(|k| {
            quantile(
                &passes.iter().map(|p| p.chip_s[k]).collect::<Vec<_>>(),
                QUIET_TIME,
            )
        })
        .sum();
    first.trials as f64 / secs
}

pub fn run(args: &Args, report: &mut Report) {
    let golden = golden_rates();
    let epoch = Instant::now();
    let mut untraced = Tracer::new(false, epoch);
    let mut traced = Tracer::new(true, epoch);
    let mut timing = Timing::default();
    let mut traced_timing = Timing::default();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut rng = rng::stream(&[args.seed, 0xC4A2]);
    let started = Instant::now();

    // Whole passes until the next one would mostly overrun the budget.
    // A traced run alternates untraced and traced passes so the two can
    // be compared for tracing overhead.
    loop {
        let n = passes.len();
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = if n == 0 { 0.0 } else { elapsed / n as f64 };
        let min_passes = if args.trace { 2 } else { 1 };
        if n >= min_passes && elapsed + per_pass / 2.0 > args.seconds as f64 {
            break;
        }
        let mut order = [0usize, 1, 2, 3];
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let with_trace = args.trace && n % 2 == 1;
        let result = if with_trace {
            pass(&order, n as u64, &mut traced, &mut traced_timing)
        } else {
            pass(&order, n as u64, &mut untraced, &mut timing)
        };
        let ok = if result.rates == golden {
            Ok(())
        } else {
            Err(format!(
                "pass {n}: fig04 rates {:?} != golden {:?}",
                result.rates, golden
            ))
        };
        report.check(ok);
        passes.push((with_trace, result));
    }

    report.env("chips", "4 x Vendor B full capacity, seeds 0xF164+k");
    report.env("intervals_s", "1.024/1.536/2.048/3.072");
    report.env("ambient_c", AMBIENT_C);
    report.env("passes", passes.len());

    // Each chip's time is its quiet quartile over the passes, and trial
    // percentiles are the quiet quartile of per-pass percentiles.
    let plain: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let setups: Vec<f64> = passes.iter().map(|(_, p)| p.setup_s).collect();
    let latencies = &timing.latencies;
    let trials = latencies.len();
    let rate = trials_per_s(&plain);
    let (p50, p90) = (latencies.quiet(1.0, 0.5, 1), latencies.quiet(1.0, 0.9, 1));

    report.e2e("setup_s", median(&setups), setups.len() as u64);
    report.e2e("ops_per_s", rate, plain.len() as u64);
    report.e2e("op_ms_p50", p50, trials);
    report.e2e("op_ms_p90", p90, trials);
    report.named("trials_per_s", rate, "1/s", plain.len() as u64);
    report.named("trial_ms_p50", p50, "ms", trials);
    report.named("trial_ms_p90", p90, "ms", trials);
    report.named(
        "trial_ms_p99 (diagnostic)",
        latencies.quiet(1.0, 0.99, 1),
        "ms",
        trials,
    );

    if args.trace {
        let traced_passes: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        let mut trace = Trace::default();
        trace.absorb(traced);
        crate::ledger::characterize(
            report,
            &trace,
            traced_passes.len() as u64,
            traced_timing.carrying,
        );
        let n = traced_passes.len() as f64;
        let sum = |f: fn(&Pass) -> u64| traced_passes.iter().map(|p| f(p)).sum::<u64>() as f64 / n;
        let samples = traced_passes.len() as u64;
        let trials = sum(|p| p.trials);
        let compiled = sum(|p| p.stats.plans_compiled);
        report.layer("retention.trials", trials, samples);
        report.layer("retention.arrivals", sum(|p| p.arrivals), samples);
        report.layer("retention.plans_compiled", compiled, samples);
        report.layer(
            "retention.invalidations",
            sum(|p| p.stats.invalidations),
            samples,
        );
        report.layer(
            "retention.lowerings_built",
            sum(|p| p.stats.lowerings_built),
            samples,
        );
        report.layer(
            "retention.batch_rounds",
            sum(|p| p.stats.batch_rounds),
            samples,
        );
        let plan_trials = sum(|p| p.stats.plan_trials);
        report.layer(
            "retention.plan_reuse",
            plan_trials / compiled.max(1.0),
            samples,
        );
        report.layer(
            "trace.overhead_frac",
            rate / trials_per_s(&traced_passes) - 1.0,
            samples,
        );
        report.notes.push(format!(
            "counts are per pass; routes per pass: scalar {} lowered {} plan {}",
            sum(|p| p.stats.scalar_trials),
            sum(|p| p.stats.lowered_trials),
            plan_trials
        ));
        crate::ledger::write_trace(report, &trace, args);
    }
}
