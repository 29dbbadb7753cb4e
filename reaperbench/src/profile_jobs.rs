//! `profile_jobs`: a closed loop of two clients over one in-process
//! `Server` with two workers.
//!
//! Each client submits a distinct seed-derived job, polls its status
//! every [`POLL`] until it is done, then fetches the RPF1 bytes. Job time
//! runs from submit to bytes in hand. Afterwards every profile is
//! checked byte for byte against a direct execution of the same request;
//! the traced run replays that execution step by step through public
//! calls, with a span around each. The bytes are compared by [`Digest`],
//! so that the run holds no profiles and its peak RSS does not grow with
//! the number of jobs a fast host completes.

use std::time::{Duration, Instant};

use reaper_core::{
    FailureProfile, ProfileMetrics, Profiler, ProfilingRequest, ReachConditions, TargetConditions,
    TRUTH_MIN_PROB,
};
use reaper_dram_model::{Celsius, Ms, Vendor};
use reaper_exec::rng;
use reaper_portfolio::{PortfolioRequest, PriorStore};
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip};
use reaper_serve::json::Value;
use reaper_serve::{Client, JobRequest, Server, ServerConfig};
use reaper_softmc::TestHarness;

use crate::ledger::{layer_p50, span_table};
use crate::report::{median, quantile, Report, Series, QUIET_RATE};
use crate::trace::{Trace, Tracer};
use crate::Args;

const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// Status poll interval: at most 1/20 of the job time median.
const POLL: Duration = Duration::from_micros(500);
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Width of the windows whose quiet quartile the latency metrics report.
const WINDOW_S: f64 = 1.5;
/// Consecutive completions per throughput sample.
const RATE_CHUNK: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// +250 ms refresh-interval reach (the headline operating point).
    ReachInterval,
    /// +5 °C thermal reach.
    ReachThermal,
    /// Brute force at the target conditions, 8 rounds.
    BruteForce,
    /// A portfolio race over the default candidates.
    Race,
}

/// One cycle of the mix: 10 interval-reach, 4 thermal-reach, 4
/// brute-force jobs and 2 races. Each client walks its own seeded
/// permutation of it, so every 20 jobs of a client hold exactly this mix.
const CYCLE: [Kind; 20] = {
    use Kind::*;
    [
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachInterval,
        ReachThermal,
        ReachThermal,
        ReachThermal,
        ReachThermal,
        BruteForce,
        BruteForce,
        BruteForce,
        BruteForce,
        Race,
        Race,
    ]
};

/// Job `index` of `client`: its kind from the client's permutation of
/// [`CYCLE`], its chip seed and vendor from the run seed.
fn job(seed: u64, client: u64, index: u64) -> JobRequest {
    let mut order: Vec<Kind> = CYCLE.to_vec();
    let mut shuffle = rng::stream(&[seed, 0x10B5, client, index / CYCLE.len() as u64]);
    for i in (1..order.len()).rev() {
        order.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut draw = rng::stream(&[seed, 0x10B6, client, index]);
    let chip_seed = draw.next_u64();
    let vendor = Vendor::ALL[(draw.next_u64() % 3) as usize];
    let kind = order[(index % CYCLE.len() as u64) as usize];
    let mut r = ProfilingRequest::example(chip_seed);
    r.vendor = vendor;
    match kind {
        Kind::ReachInterval => {}
        Kind::ReachThermal => {
            r.reach_delta_ms = 0.0;
            r.reach_delta_temp_c = 5.0;
        }
        Kind::BruteForce => {
            r.reach_delta_ms = 0.0;
            r.rounds = 8;
        }
        Kind::Race => {
            let mut p = PortfolioRequest::example(chip_seed);
            p.vendor = vendor;
            return JobRequest::Portfolio(p);
        }
    }
    JobRequest::Profiling(r)
}

/// Length and two independent 64-bit hashes of a profile's bytes.
type Digest = (usize, u64, u64);

fn digest(bytes: &[u8]) -> Digest {
    (
        bytes.len(),
        rng::hash_bytes(0xD16E_0001, bytes),
        rng::hash_bytes(0xD16E_0002, bytes),
    )
}

/// One finished job as the client saw it.
struct Done {
    request: JobRequest,
    digest: Digest,
    /// Submit and completion, in seconds since the loop started.
    at: f64,
    end_at: f64,
    job_ms: f64,
    polls: u64,
    traced: bool,
}

/// Submits `request`, polls until done and fetches the profile.
fn run_job(
    client: &mut Client,
    request: &JobRequest,
    tracer: &mut Tracer,
    rid: u64,
) -> Result<(Vec<u8>, u64), String> {
    let receipt = tracer
        .span("serve.submit", rid, |_| client.submit_job(request))
        .map_err(|e| format!("submit: {e}"))?;
    let mut polls = 0u64;
    loop {
        std::thread::sleep(POLL);
        polls += 1;
        let status = tracer
            .span("serve.status_poll", rid, |_| {
                client.job_status(&receipt.job_id)
            })
            .map_err(|e| format!("status of {}: {e}", receipt.job_id))?;
        match status.get("status").and_then(Value::as_str) {
            Some("done") => break,
            Some("queued" | "running") => {}
            other => return Err(format!("job {} ended as {other:?}", receipt.job_id)),
        }
    }
    let bytes = tracer
        .span("serve.fetch", rid, |_| {
            client.profile_bytes(&receipt.job_id)
        })
        .map_err(|e| format!("fetch {}: {e}", receipt.job_id))?
        .ok_or_else(|| format!("job {} done but its profile is pending", receipt.job_id))?;
    Ok((bytes, polls))
}

/// Starts a server and takes one job through it, so lazy start-up is
/// paid before timing.
fn start_server(seed: u64, rep: usize) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::new(server.local_addr());
    let warm = JobRequest::Profiling(ProfilingRequest::example(rng::mix64(
        seed ^ 0x3A7A ^ rep as u64,
    )));
    let mut off = Tracer::new(false, t0);
    run_job(&mut client, &warm, &mut off, 0)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Runs both clients for `seconds`; job indices start at `first`.
fn closed_loop(
    server: &Server,
    seed: u64,
    first: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Vec<Result<Done, String>>, Vec<Tracer>) {
    let addr = server.local_addr();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Result<Done, String>>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut tracer = Tracer::new(traced, epoch);
                    let mut out = Vec::new();
                    let mut index = first;
                    while Instant::now() < deadline {
                        let request = job(seed, c, index);
                        let rid = (c << 32) | index;
                        let open = tracer.begin(rid);
                        let t0 = Instant::now();
                        let result = run_job(&mut client, &request, &mut tracer, rid);
                        let last = Instant::now();
                        tracer.end(open, "profile_jobs.job");
                        out.push(result.map(|(bytes, polls)| Done {
                            request,
                            digest: digest(&bytes),
                            at: (t0 - started).as_secs_f64(),
                            end_at: (last - started).as_secs_f64(),
                            job_ms: (last - t0).as_secs_f64() * 1e3,
                            polls,
                            traced,
                        }));
                        index += 1;
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("invariant: client threads do not panic"))
            .collect()
    });
    let mut results = Vec::new();
    let mut tracers = Vec::new();
    for (r, t) in per_client {
        results.extend(r);
        tracers.push(t);
    }
    (results, tracers)
}

/// What a direct execution of a job produced.
struct Direct {
    digest: Digest,
    ms: f64,
    stats: Option<(PlanStats, u64)>,
    race: Option<(u64, f64, f64)>,
}

/// `ProfilingRequest::execute`, replayed step by step with a span
/// around each public call.
pub(crate) fn replay_profiling(
    r: &ProfilingRequest,
    tracer: &mut Tracer,
    rid: u64,
) -> (Vec<u8>, PlanStats, u64) {
    let cfg =
        RetentionConfig::for_vendor(r.vendor).with_capacity_scale(r.capacity_num, r.capacity_den);
    let chip = tracer.span("retention.chip_new", rid, |_| {
        SimulatedChip::new(cfg, r.seed)
    });
    let target = TargetConditions::new(
        Ms::new(r.target_interval_ms),
        Celsius::new(r.target_ambient_c),
    );
    let reach = ReachConditions::new(Ms::new(r.reach_delta_ms), r.reach_delta_temp_c);
    let mut harness = tracer.span("softmc.harness_new", rid, |_| {
        TestHarness::new(chip, target.ambient, r.seed)
    });
    let profiler = Profiler::reach(target, reach, r.rounds, r.patterns.to_pattern_set());
    let run = tracer.span("core.profiler_run", rid, |_| profiler.run(&mut harness));
    let truth = tracer.span("retention.truth", rid, |_| {
        FailureProfile::from_cells(harness.chip_mut().failing_set_worst_case(
            target.interval,
            target.dram_temp(),
            TRUTH_MIN_PROB,
        ))
    });
    tracer.span("core.metrics", rid, |_| {
        ProfileMetrics::evaluate(&run.profile, &truth)
    });
    let bytes = tracer.span("core.encode", rid, |_| run.profile.to_bytes());
    let chip = harness.chip();
    (bytes, chip.plan_stats(), chip.arrival_count() as u64)
}

/// `PortfolioRequest::execute`, replayed through its public steps.
fn replay_race(
    p: &PortfolioRequest,
    tracer: &mut Tracer,
    rid: u64,
) -> Result<(Vec<u8>, u64, f64, f64), String> {
    let portfolio = p.to_portfolio().map_err(|e| e.to_string())?;
    let order = PriorStore::new().launch_order(p.vendor, portfolio.candidates());
    let race = tracer.span("portfolio.race", rid, |_| portfolio.run_ordered(&order));
    tracer.span("portfolio.truth", rid, |_| portfolio.ground_truth());
    let bytes = tracer.span("core.encode", rid, |_| race.profile.to_bytes());
    let charged: f64 = race.lanes.iter().map(|l| l.charged.as_ms()).sum();
    Ok((
        bytes,
        race.cancelled_lanes() as u64,
        race.winner_cost.as_ms(),
        charged,
    ))
}

fn direct(request: &JobRequest, tracer: &mut Tracer, rid: u64) -> Result<Direct, String> {
    let t0 = Instant::now();
    let open = tracer.begin(rid);
    let mut out = match (request, tracer.enabled()) {
        (JobRequest::Profiling(r), false) => Direct {
            digest: digest(
                &r.execute()
                    .map_err(|e| e.to_string())?
                    .run
                    .profile
                    .to_bytes(),
            ),
            ms: 0.0,
            stats: None,
            race: None,
        },
        (JobRequest::Portfolio(p), false) => Direct {
            digest: digest(
                &p.execute()
                    .map_err(|e| e.to_string())?
                    .1
                    .run
                    .profile
                    .to_bytes(),
            ),
            ms: 0.0,
            stats: None,
            race: None,
        },
        (JobRequest::Profiling(r), true) => {
            let (bytes, stats, arrivals) = replay_profiling(r, tracer, rid);
            Direct {
                digest: digest(&bytes),
                ms: 0.0,
                stats: Some((stats, arrivals)),
                race: None,
            }
        }
        (JobRequest::Portfolio(p), true) => {
            let (bytes, cancelled, winner, charged) = replay_race(p, tracer, rid)?;
            Direct {
                digest: digest(&bytes),
                ms: 0.0,
                stats: None,
                race: Some((cancelled, winner, charged)),
            }
        }
    };
    tracer.end(open, "direct.execute");
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

pub fn run(args: &Args, report: &mut Report) {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUPS {
        match start_server(args.seed, rep) {
            Ok((s, secs)) => {
                setups.push(secs);
                if let Some(old) = server.replace(s) {
                    old.shutdown();
                }
            }
            Err(why) => report.check(Err(why)),
        }
    }
    let Some(server) = server else { return };

    // The traced run spends its first half untraced, for the overhead
    // comparison, and its second half traced.
    let seconds = args.seconds as f64;
    let before = server.metrics_snapshot();
    let phases: &[(u64, f64, bool)] = if args.trace {
        &[(0, seconds / 2.0, false), (1 << 20, seconds / 2.0, true)]
    } else {
        &[(0, seconds, false)]
    };
    let runs: Vec<_> = phases
        .iter()
        .map(|&(first, secs, traced)| closed_loop(&server, args.seed, first, secs, traced, epoch))
        .collect();
    let after = server.metrics_snapshot();
    server.shutdown();

    let mut trace = Trace::default();
    // Jobs per second: the quiet quartile of the completion rate over
    // runs of RATE_CHUNK consecutive completions.
    let chunk_rate = |ok: &[Done]| {
        let mut ends: Vec<f64> = ok.iter().map(|d| d.end_at).collect();
        ends.sort_by(f64::total_cmp);
        let rates: Vec<f64> = ends
            .chunks_exact(RATE_CHUNK)
            .map(|c| (RATE_CHUNK - 1) as f64 / (c[RATE_CHUNK - 1] - c[0]))
            .collect();
        quantile(&rates, QUIET_RATE)
    };
    let mut rates = Vec::new();
    let mut done = Vec::new();
    for (results, tracers) in runs {
        let ok: Vec<Done> = results
            .into_iter()
            .filter_map(|r| match r {
                Ok(d) => Some(d),
                Err(why) => {
                    report.check(Err(why));
                    None
                }
            })
            .collect();
        rates.push(chunk_rate(&ok));
        done.extend(ok);
        tracers.into_iter().for_each(|t| trace.absorb(t));
    }

    // Oracle: every profile equals a direct execution of its request,
    // checked on two threads. The traced run replays with spans.
    let traced = args.trace;
    let checked: Vec<(usize, Result<Direct, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|lane| {
                let done = &done;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch);
                    let out: Vec<_> = (lane..done.len())
                        .step_by(2)
                        .map(|i| (i, direct(&done[i].request, &mut tracer, i as u64)))
                        .collect();
                    (out, tracer)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            let (out, tracer) = h.join().expect("invariant: oracle threads do not panic");
            all.extend(out);
            trace.absorb(tracer);
        }
        all
    });

    let mut jobs = Series::default();
    let mut overheads = Vec::new();
    let mut polls = 0u64;
    let mut traced_jobs = Series::default();
    let mut profiling = Vec::new();
    let mut races = Vec::new();
    for (i, res) in checked {
        let d = &done[i];
        let verdict = match &res {
            Ok(direct) if direct.digest == d.digest => Ok(()),
            Ok(_) => Err(format!(
                "job {i}: served profile differs from direct execute()"
            )),
            Err(why) => Err(format!("job {i}: direct execute failed: {why}")),
        };
        report.check(verdict);
        if d.traced {
            traced_jobs.push(d.at, d.job_ms);
            polls += d.polls;
        } else {
            jobs.push(d.at, d.job_ms);
        }
        if let Ok(direct) = res {
            if d.traced {
                overheads.push(d.job_ms - direct.ms);
            }
            if let Some(s) = direct.stats {
                profiling.push(s);
            }
            if let Some(r) = direct.race {
                races.push(r);
            }
        }
    }

    report.env("server_workers", WORKERS);
    report.env("clients", CLIENTS);
    report.env("poll_interval_ms", POLL.as_secs_f64() * 1e3);
    report.env(
        "mix_per_20",
        "10 reach+250ms(A/B/C) 4 reach+5C 4 brute-force(8 rounds) 2 portfolio",
    );
    report.e2e("setup_s", median(&setups), setups.len() as u64);
    report.e2e("ops_per_s", rates[0], jobs.len());
    let (p50, p90) = (jobs.quiet(WINDOW_S, 0.5, 20), jobs.quiet(WINDOW_S, 0.9, 20));
    report.e2e("op_ms_p50", p50, jobs.len());
    report.e2e("op_ms_p90", p90, jobs.len());
    report.named("jobs_per_s", rates[0], "1/s", jobs.len());
    report.named("job_ms_p50", p50, "ms", jobs.len());
    report.named("job_ms_p90", p90, "ms", jobs.len());
    report.named("job_ms_p99 (diagnostic)", jobs.pct(0.99), "ms", jobs.len());
    if POLL.as_secs_f64() * 1e3 > p50 / 20.0 {
        report.notes.push(format!(
            "poll interval {:?} exceeds 1/20 of job_ms_p50 {p50:.3} ms",
            POLL
        ));
    }

    if traced {
        let s = trace.summarize();
        layer_p50(
            report,
            &s,
            "retention.chip_new_ms",
            "retention.chip_new",
            1.0,
        );
        layer_p50(report, &s, "retention.truth_ms", "retention.truth", 1.0);
        layer_p50(report, &s, "core.profiler_run_ms", "core.profiler_run", 1.0);
        layer_p50(report, &s, "core.encode_us", "core.encode", 1e3);
        layer_p50(report, &s, "portfolio.race_ms", "portfolio.race", 1.0);
        layer_p50(report, &s, "serve.submit_us_p50", "serve.submit", 1e3);
        layer_p50(report, &s, "serve.fetch_us_p50", "serve.fetch", 1e3);
        let n = traced_jobs.len();
        report.layer("serve.status_polls", polls as f64 / n.max(1) as f64, n);
        report.layer(
            "serve.overhead_ms_p50",
            median(&overheads),
            overheads.len() as u64,
        );
        let per_job = |f: &dyn Fn(&(PlanStats, u64)) -> u64| {
            profiling.iter().map(f).sum::<u64>() as f64 / profiling.len().max(1) as f64
        };
        let m = profiling.len() as u64;
        let compiled = per_job(&|(s, _)| s.plans_compiled);
        report.layer(
            "retention.trials",
            per_job(&|(s, _)| s.scalar_trials + s.lowered_trials + s.plan_trials),
            m,
        );
        report.layer("retention.arrivals", per_job(&|(_, a)| *a), m);
        report.layer("retention.plans_compiled", compiled, m);
        report.layer(
            "retention.invalidations",
            per_job(&|(s, _)| s.invalidations),
            m,
        );
        report.layer(
            "retention.lowerings_built",
            per_job(&|(s, _)| s.lowerings_built),
            m,
        );
        report.layer(
            "retention.batch_rounds",
            per_job(&|(s, _)| s.batch_rounds),
            m,
        );
        report.layer(
            "retention.plan_reuse",
            per_job(&|(s, _)| s.plan_trials) / compiled.max(1.0),
            m,
        );
        let r = races.len() as u64;
        let cancelled: u64 = races.iter().map(|x| x.0).sum();
        let winner: f64 = races.iter().map(|x| x.1).sum();
        let charged: f64 = races.iter().map(|x| x.2).sum();
        report.layer(
            "portfolio.lanes_cancelled",
            cancelled as f64 / r.max(1) as f64,
            r,
        );
        report.layer(
            "portfolio.useful_cost_ratio",
            if charged > 0.0 { winner / charged } else { 0.0 },
            r,
        );
        let all = done.len() as u64;
        report.layer(
            "serve.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
            all,
        );
        report.layer(
            "serve.not_modified",
            (after.not_modified - before.not_modified) as f64,
            all,
        );
        report.layer(
            "serve.delta_chains",
            (after.delta_chains - before.delta_chains) as f64,
            all,
        );
        report.layer(
            "serve.delta_full_fallbacks",
            (after.delta_full_fallbacks - before.delta_full_fallbacks) as f64,
            all,
        );
        report.layer("trace.overhead_frac", rates[0] / rates[1] - 1.0, n);
        report.notes.push(format!(
            "retention counts are per profiling job ({m} jobs); portfolio per race ({r}); serve counters over the whole run; jobs_per_s untraced {:.3} traced {:.3}",
            rates[0], rates[1]
        ));
        span_table(report, &s);
        crate::ledger::write_trace(report, &trace, args);
    }
}
