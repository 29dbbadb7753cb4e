//! `fleet_reads`: an open loop at a fixed offered rate through the
//! router of an in-process 4-shard `Fleet`, over a resident set of
//! 1/64-capacity profiles computed during set-up.
//!
//! Keys are Zipf-skewed. Reads come as conditional reads (answered 304),
//! full reads and `delta?since=` reads; beside them run `push_epoch`
//! writes at 1% churn and re-submissions that must dedup. A second
//! thread calls `Fleet::replicate_once` on a fixed tick. Every request is
//! timed from the moment it was due. Every 200 body is hash-checked, a
//! 304 counts only with the held ETag, and every delta chain must apply
//! to the held base through `FailureProfile::apply_delta`.
//!
//! The open loop completes the offered rate whatever the program's
//! speed, so `ops_per_s` here is the rate the router path would sustain
//! back to back: requests per second of the generator's busy time, from
//! sending each request to holding its answer.
//!
//! The traced run sends half of its requests straight to the owning
//! shard instead of the router, so the router hop can be read off as the
//! difference of the two medians.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use reaper_core::{FailureProfile, ProfileDelta, ProfilingRequest};
use reaper_exec::rng::{self, SplitMix64};
use reaper_fleet::{Fleet, FleetConfig, ReplicationStats};
use reaper_serve::{Client, DeltaFetch, ProfileFetch, ServerConfig};

use crate::awake::KeepAwake;
use crate::ledger::{layer_p50, span_table};
use crate::report::{median, quantile, Report, Series, QUIET_RATE};
use crate::trace::{Trace, Tracer};
use crate::Args;

const SHARDS: usize = 4;
/// Resident profiles: 8 a shard, as many as the whole resident set of
/// the `fleet_loadgen` example. The count is a choice, not a measurement.
const RESIDENT: usize = 32;
/// Offered request rate of the open loop: about a quarter to a third of
/// what the router path sustains back to back (`ops_per_s`, 7,900 to
/// 12,500 a second on a 2-vCPU KVM guest), so that requests seldom queue
/// behind each other. Each run reports the share it measured.
const RATE_PER_S: f64 = 2500.0;
const REPLICATION_TICK: Duration = Duration::from_millis(250);
/// Fleet start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Epochs of each profile the reader keeps as delta bases.
const HISTORY: usize = 4;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;
/// Width of the windows whose medians the end-to-end metrics report.
const WINDOW_S: f64 = 0.5;
/// Hash domain for body checks.
const BODY_HASH: u64 = 0xB0D1;

/// A resident profile job (the `fleet_loadgen` quick job).
fn resident_request(seed: u64, k: usize) -> ProfilingRequest {
    let mut r = ProfilingRequest::example(rng::stream(&[seed, 0xF1EE7, k as u64]).next_u64());
    r.capacity_den = 64;
    r.rounds = 2;
    r.target_interval_ms = 512.0;
    r.reach_delta_ms = 128.0;
    r
}

/// The next epoch: about 1% of the cells replaced by fresh ones.
fn churn(profile: &FailureProfile, draw: &mut SplitMix64) -> FailureProfile {
    let mut cells: Vec<u64> = profile.iter().collect();
    let n = (cells.len() / 100).max(2);
    let bound = cells
        .iter()
        .max()
        .copied()
        .unwrap_or(0)
        .saturating_mul(2)
        .max(1024);
    for _ in 0..n / 2 {
        let victim = (draw.next_u64() % cells.len().max(1) as u64) as usize;
        if victim < cells.len() {
            cells.swap_remove(victim);
        }
    }
    let mut next = FailureProfile::from_cells(cells);
    let mut added = 0;
    while added < n - n / 2 {
        let cell = draw.next_u64() % bound;
        if !profile.contains(cell) && next.insert(cell) {
            added += 1;
        }
    }
    next
}

/// What the reader holds for one resident profile.
struct Key {
    request: ProfilingRequest,
    id: u64,
    job_id: String,
    epoch: u64,
    etag: String,
    head_hash: u64,
    /// `(epoch, profile)`, oldest first, head last.
    history: VecDeque<(u64, FailureProfile)>,
}

impl Key {
    fn head(&self) -> &FailureProfile {
        &self
            .history
            .back()
            .expect("invariant: history holds the head")
            .1
    }

    fn advance(&mut self, profile: FailureProfile, epoch: u64, etag: String) {
        self.head_hash = rng::hash_bytes(BODY_HASH, &profile.to_bytes());
        self.epoch = epoch;
        self.etag = etag;
        self.history.push_back((epoch, profile));
        if self.history.len() > HISTORY {
            self.history.pop_front();
        }
    }

    fn check_body(&self, body: &[u8]) -> Result<(), String> {
        if rng::hash_bytes(BODY_HASH, body) == self.head_hash {
            Ok(())
        } else {
            Err(format!(
                "{}: body hash differs from epoch {}",
                self.job_id, self.epoch
            ))
        }
    }
}

/// Polls until every resident job is done and returns its bytes.
fn wait_profile(client: &mut Client, job_id: &str) -> Result<Vec<u8>, String> {
    client
        .wait_for_profile(job_id, Duration::from_millis(1), 20_000)
        .map_err(|e| format!("resident {job_id}: {e}"))
}

/// Starts the fleet and makes every resident profile current at epoch
/// 1, replicated. Returns the fleet, the reader state and the time taken.
fn set_up(
    seed: u64,
    truth: &[Vec<u8>],
    report: &mut Report,
) -> Result<(Fleet, Vec<Key>, f64), String> {
    let t0 = Instant::now();
    let mut config = FleetConfig {
        shards: SHARDS,
        ..FleetConfig::default()
    };
    config.shard_template = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let fleet = Fleet::start(config).map_err(|e| format!("fleet start: {e}"))?;
    let addr = fleet.router_addr().ok_or("fleet has no router")?;
    let mut client = Client::new(addr);
    let requests: Vec<ProfilingRequest> =
        (0..RESIDENT).map(|k| resident_request(seed, k)).collect();
    for r in &requests {
        client
            .submit(r)
            .map_err(|e| format!("resident submit: {e}"))?;
    }
    let mut keys = Vec::new();
    let mut draw = rng::stream(&[seed, 0x5E7]);
    for (k, request) in requests.into_iter().enumerate() {
        let id = request.job_id();
        let job_id = ProfilingRequest::format_job_id(id);
        let bytes = wait_profile(&mut client, &job_id)?;
        report.check(if bytes == truth[k] {
            Ok(())
        } else {
            Err(format!(
                "resident {job_id}: served profile differs from direct execute()"
            ))
        });
        let base =
            FailureProfile::from_bytes(&bytes).map_err(|e| format!("decode {job_id}: {e}"))?;
        let next = churn(&base, &mut draw);
        let receipt = client
            .push_epoch(&job_id, &next.to_bytes())
            .map_err(|e| format!("push {job_id}: {e}"))?;
        let mut key = Key {
            request,
            id,
            job_id,
            epoch: 0,
            etag: String::new(),
            head_hash: 0,
            history: VecDeque::new(),
        };
        key.advance(base, 0, String::new());
        key.advance(next, receipt.epoch, receipt.etag);
        keys.push(key);
    }
    fleet.replicate_once();
    Ok((fleet, keys, t0.elapsed().as_secs_f64()))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Conditional,
    Full,
    Delta,
    Push,
    Submit,
}

impl Op {
    /// Per mille. Pushes take the 5% the workload calls for. The other
    /// 95% keep the 2 : 4 : 25 ratio of re-submissions, delta reads and
    /// profile reads of the `fleet_loadgen` example (whose watch slot is
    /// left out). How the profile reads split into conditional and full
    /// reads has no measured basis; they are split evenly.
    fn draw(x: u64) -> Self {
        match x % 1000 {
            0..=382 => Op::Conditional,
            383..=765 => Op::Full,
            766..=888 => Op::Delta,
            889..=938 => Op::Push,
            _ => Op::Submit,
        }
    }

    fn span(self, direct: bool) -> &'static str {
        match (self, direct) {
            (Op::Conditional, false) => "fleet.read.conditional",
            (Op::Full, false) => "fleet.read.full",
            (Op::Delta, false) => "fleet.read.delta",
            (Op::Push, false) => "fleet.push",
            (Op::Submit, false) => "fleet.submit",
            (Op::Conditional, true) => "serve.read.conditional.direct",
            (Op::Full, true) => "serve.read.full.direct",
            (Op::Delta, true) => "serve.read.delta.direct",
            (Op::Push, true) => "serve.push.direct",
            (Op::Submit, true) => "serve.submit.direct",
        }
    }
}

/// Sends one request and checks its answer against the held state.
fn send(op: Op, key: &mut Key, client: &mut Client, draw: &mut SplitMix64) -> Result<(), String> {
    let job_id = key.job_id.clone();
    match op {
        Op::Conditional => match client.profile_conditional(&job_id, Some(&key.etag)) {
            Ok(ProfileFetch::NotModified { etag }) if etag == key.etag => Ok(()),
            Ok(ProfileFetch::NotModified { etag }) => {
                Err(format!("{job_id}: 304 with etag {etag}, held {}", key.etag))
            }
            Ok(ProfileFetch::Fresh { bytes, .. }) => key.check_body(&bytes),
            Ok(ProfileFetch::Pending) => Err(format!("{job_id}: resident profile pending")),
            Err(e) => Err(format!("{job_id}: conditional read: {e}")),
        },
        Op::Full => match client.profile_bytes(&job_id) {
            Ok(Some(bytes)) => key.check_body(&bytes),
            Ok(None) => Err(format!("{job_id}: resident profile pending")),
            Err(e) => Err(format!("{job_id}: read: {e}")),
        },
        Op::Delta => {
            let back = (draw.next_u64() % (key.history.len() as u64 - 1)) as usize + 1;
            let (since, base) = key.history[key.history.len() - 1 - back].clone();
            match client.delta_since(&job_id, since) {
                Ok(DeltaFetch::Chain { bytes, epoch, etag }) => {
                    let chain = ProfileDelta::decode_chain(&bytes)
                        .map_err(|e| format!("{job_id}: chain: {e}"))?;
                    let mut held = base;
                    for d in &chain {
                        held = held
                            .apply_delta(d)
                            .map_err(|e| format!("{job_id}: apply: {e}"))?;
                    }
                    if epoch != key.epoch || etag != key.etag {
                        return Err(format!(
                            "{job_id}: chain ends at epoch {epoch}, head {}",
                            key.epoch
                        ));
                    }
                    key.check_body(&held.to_bytes())
                }
                Ok(DeltaFetch::Full { bytes, .. }) => key.check_body(&bytes),
                Ok(DeltaFetch::NotModified { .. }) => Err(format!(
                    "{job_id}: 304 for since={since} < head {}",
                    key.epoch
                )),
                Err(e) => Err(format!("{job_id}: delta read: {e}")),
            }
        }
        Op::Push => {
            let next = churn(key.head(), draw);
            match client.push_epoch(&job_id, &next.to_bytes()) {
                Ok(r) if r.changed && r.epoch == key.epoch + 1 => {
                    key.advance(next, r.epoch, r.etag);
                    Ok(())
                }
                Ok(r) => Err(format!(
                    "{job_id}: push answered epoch {} changed {}",
                    r.epoch, r.changed
                )),
                Err(e) => Err(format!("{job_id}: push: {e}")),
            }
        }
        Op::Submit => match client.submit(&key.request) {
            Ok(r) if r.deduped && r.job_id == job_id => Ok(()),
            Ok(r) => Err(format!(
                "{job_id}: re-submission not deduped ({} {})",
                r.job_id, r.deduped
            )),
            Err(e) => Err(format!("{job_id}: submit: {e}")),
        },
    }
}

/// Cumulative Zipf weights over key ranks, the ranks permuted by seed.
fn zipf_table(seed: u64) -> (Vec<f64>, Vec<usize>) {
    let mut cdf = Vec::with_capacity(RESIDENT);
    let mut acc = 0.0;
    for rank in 0..RESIDENT {
        acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut order: Vec<usize> = (0..RESIDENT).collect();
    let mut r = rng::stream(&[seed, 0x21BF]);
    for i in (1..order.len()).rev() {
        order.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
    }
    (cdf, order)
}

#[derive(Default)]
struct Loop {
    /// Latency from due time in ms, keyed by due time, per class: reads
    /// (all three forms), pushes and re-submissions; via the router and
    /// direct. `all` holds every request via the router.
    read: Series,
    push: Series,
    submit: Series,
    read_direct: Series,
    push_direct: Series,
    all: Series,
    /// Host ms from sending each request via the router to its answer,
    /// keyed by due time: the time the generator was busy with it.
    service: Series,
    late_us: Series,
    completed: u64,
    elapsed: f64,
    results: Vec<Result<(), String>>,
}

/// Sleeps until `due`. The generator never spins, so it takes no CPU
/// time from the servers it measures.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// The open loop: one request due every `1/RATE_PER_S` for `seconds`.
/// With `split_direct`, half of them go straight to the owning shard.
fn open_loop(
    fleet: &Fleet,
    keys: &mut [Key],
    seed: u64,
    phase: u64,
    seconds: f64,
    split_direct: bool,
    tracer: &mut Tracer,
) -> Loop {
    let router = fleet
        .router_addr()
        .expect("invariant: the fleet runs a router");
    let mut via = Client::new(router);
    let mut shards: Vec<(SocketAddr, Client)> = Vec::new();
    let (cdf, order) = zipf_table(seed);
    let total = *cdf.last().expect("invariant: RESIDENT > 0");
    let mut draw = rng::stream(&[seed, 0x0BE7, phase]);
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let count = (seconds * RATE_PER_S) as u32;
    let mut out = Loop::default();
    let start = Instant::now() + Duration::from_millis(5);
    let mut last = start;
    for k in 0..count {
        let due = start + period * k;
        let u = draw.next_f64() * total;
        let key = &mut keys[order[cdf.partition_point(|&c| c < u).min(RESIDENT - 1)]];
        let op = Op::draw(draw.next_u64());
        let direct = split_direct && draw.next_u64() % 2 == 1;
        wait_until(due);
        let at = (due - start).as_secs_f64();
        let sent = Instant::now();
        out.late_us.push(at, (sent - due).as_secs_f64() * 1e6);
        let client = if direct {
            let owner = fleet.owner_of(key.id).and_then(|i| fleet.shard_addr(i));
            let Some(addr) = owner else {
                out.results
                    .push(Err(format!("{}: no live owner", key.job_id)));
                continue;
            };
            let slot = match shards.iter().position(|(a, _)| *a == addr) {
                Some(i) => i,
                None => {
                    shards.push((addr, Client::new(addr)));
                    shards.len() - 1
                }
            };
            &mut shards[slot].1
        } else {
            &mut via
        };
        let result = tracer.span(op.span(direct), u64::from(k), |_| {
            send(op, key, client, &mut draw)
        });
        last = Instant::now();
        let ms = (last - due).as_secs_f64() * 1e3;
        let class = match (op, direct) {
            (Op::Push, false) => &mut out.push,
            (Op::Push, true) => &mut out.push_direct,
            (Op::Submit, _) => &mut out.submit,
            (_, false) => &mut out.read,
            (_, true) => &mut out.read_direct,
        };
        class.push(at, ms);
        if !direct {
            out.all.push(at, ms);
            out.service.push(at, (last - sent).as_secs_f64() * 1e3);
        }
        out.completed += 1;
        out.results.push(result);
    }
    out.elapsed = (last - start).as_secs_f64();
    out
}

/// Sums `names` over every shard's `/metrics` page.
fn shard_counters(fleet: &Fleet, names: &[&str]) -> Vec<f64> {
    let mut sums = vec![0.0; names.len()];
    for i in 0..fleet.shard_count() {
        let Some(addr) = fleet.shard_addr(i) else {
            continue;
        };
        let Ok(text) = Client::new(addr).metrics_text() else {
            continue;
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            if let Some(j) = names.iter().position(|n| *n == name) {
                sums[j] += value.parse::<f64>().unwrap_or(0.0);
            }
        }
    }
    sums
}

pub fn run(args: &Args, report: &mut Report) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch);
    // Ground truth for the resident set; the traced run replays each
    // execution with spans.
    let truth: Vec<Vec<u8>> = (0..RESIDENT)
        .map(|k| {
            let r = resident_request(args.seed, k);
            if args.trace {
                tracer.span("direct.execute", k as u64, |t| {
                    crate::profile_jobs::replay_profiling(&r, t, k as u64).0
                })
            } else {
                r.execute()
                    .map(|o| o.run.profile.to_bytes())
                    .unwrap_or_default()
            }
        })
        .collect();

    let awake = KeepAwake::start(args.spinners);
    let slack = crate::awake::tight_timer_slack();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        match set_up(args.seed, &truth, report) {
            Ok((fleet, keys, secs)) => {
                setups.push(secs);
                if let Some((old, _)) = live.replace((fleet, keys)) {
                    old.shutdown();
                }
            }
            Err(why) => report.check(Err(why)),
        }
    }
    let Some((fleet, mut keys)) = live else {
        awake.stop();
        return;
    };

    const COUNTERS: [&str; 4] = [
        "reaper_not_modified_total",
        "reaper_delta_chains_total",
        "reaper_delta_full_fallbacks_total",
        "reaper_cache_hits_total",
    ];
    let before = shard_counters(&fleet, &COUNTERS);
    let stop = AtomicBool::new(false);
    let seconds = args.seconds as f64;
    let (mut loops, (ticks, replication_trace)) = std::thread::scope(|scope| {
        let traced = args.trace;
        let stop = &stop;
        let fleet = &fleet;
        let replicator = scope.spawn(move || {
            let mut tracer = Tracer::new(traced, epoch);
            let mut ticks: Vec<(f64, ReplicationStats)> = Vec::new();
            let mut next = Instant::now() + REPLICATION_TICK;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(
                    next.saturating_duration_since(Instant::now())
                        .min(Duration::from_millis(10)),
                );
                if Instant::now() < next {
                    continue;
                }
                next += REPLICATION_TICK;
                let t0 = Instant::now();
                let stats = tracer.span("fleet.replicate", ticks.len() as u64, |_| {
                    fleet.replicate_once()
                });
                ticks.push((t0.elapsed().as_secs_f64() * 1e3, stats));
            }
            (ticks, tracer)
        });
        // A traced run spends its first half untraced, for the overhead
        // comparison, and its second half traced.
        let mut off = Tracer::new(false, epoch);
        let mut loops = Vec::new();
        if args.trace {
            loops.push(open_loop(
                fleet,
                &mut keys,
                args.seed,
                0,
                seconds / 2.0,
                false,
                &mut off,
            ));
            loops.push(open_loop(
                fleet,
                &mut keys,
                args.seed,
                1,
                seconds / 2.0,
                true,
                &mut tracer,
            ));
        } else {
            loops.push(open_loop(
                fleet, &mut keys, args.seed, 0, seconds, false, &mut off,
            ));
        }
        stop.store(true, Ordering::SeqCst);
        (
            loops,
            replicator
                .join()
                .expect("invariant: the replication thread does not panic"),
        )
    });
    let spinners = awake.stop();
    let after = shard_counters(&fleet, &COUNTERS);

    // After the load: one more tick, then every profile through the
    // router must be the held head.
    fleet.replicate_once();
    let mut client = Client::new(
        fleet
            .router_addr()
            .expect("invariant: the fleet runs a router"),
    );
    for key in &keys {
        report.check(match client.profile_bytes(&key.job_id) {
            Ok(Some(bytes)) => key.check_body(&bytes),
            Ok(None) => Err(format!("{}: pending after the run", key.job_id)),
            Err(e) => Err(format!("{}: final read: {e}", key.job_id)),
        });
    }
    fleet.shutdown();

    for l in &mut loops {
        l.results.drain(..).for_each(|r| report.check(r));
    }
    let traced = if args.trace { loops.pop() } else { None };
    let untraced = &loops[0];

    report.env("idle_spinners", spinners);
    report.env("loadgen_timer_slack_1ns", slack);
    report.env("shards", SHARDS);
    report.env("shard_workers", 1);
    report.env("resident_profiles", RESIDENT);
    report.env("offered_rate_per_s", RATE_PER_S);
    report.env("replication_tick_ms", REPLICATION_TICK.as_millis());
    report.env(
        "mix_per_mille",
        "383 conditional, 383 full, 123 delta, 50 push (1% churn), 61 re-submit",
    );
    report.e2e("setup_s", median(&setups), setups.len() as u64);
    // The open loop completes the offered rate whatever the program's
    // speed, so `ops_per_s` is the rate the router path would sustain
    // back to back: requests per second of generator busy time.
    let capacity = quantile(&untraced.service.per_window_rate(WINDOW_S, 50), QUIET_RATE);
    report.env(
        "offered_share_of_capacity",
        format!("{:.3}", RATE_PER_S / capacity),
    );
    report.e2e("ops_per_s", capacity, untraced.service.len());
    report.named(
        "completed_per_s (offered rate, diagnostic)",
        untraced.completed as f64 / untraced.elapsed,
        "1/s",
        untraced.completed,
    );
    report.e2e(
        "op_ms_p50",
        untraced.all.quiet(WINDOW_S, 0.50, 50),
        untraced.all.len(),
    );
    report.e2e(
        "op_ms_p90",
        untraced.all.quiet(WINDOW_S, 0.90, 50),
        untraced.all.len(),
    );
    for (name, s) in [
        ("read_us", &untraced.read),
        ("push_us", &untraced.push),
        ("submit_us", &untraced.submit),
    ] {
        let n = s.len();
        report.named(
            format!("{name}_p50"),
            s.quiet(WINDOW_S, 0.50, 20) * 1e3,
            "us",
            n,
        );
        report.named(
            format!("{name}_p90"),
            s.quiet(WINDOW_S, 0.90, 20) * 1e3,
            "us",
            n,
        );
        report.named(
            format!("{name}_p99 (diagnostic)"),
            s.pct(0.99) * 1e3,
            "us",
            n,
        );
    }
    for p in [0.5, 0.9] {
        let w: Vec<String> = untraced
            .all
            .per_window(WINDOW_S, p, 50)
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect();
        report.notes.push(format!(
            "op_ms p{} per {WINDOW_S} s window: {}",
            (p * 100.0) as u32,
            w.join(" ")
        ));
    }
    report.named(
        "loadgen.late_us_p99",
        untraced.late_us.pct(0.99),
        "us",
        untraced.late_us.len(),
    );

    if let Some(traced) = traced {
        let mut trace = Trace::default();
        trace.absorb(tracer);
        trace.absorb(replication_trace);
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
        let via = traced.read.pct(0.5) * 1e3;
        let direct = traced.read_direct.pct(0.5) * 1e3;
        report.layer("serve.read_us_p50.direct", direct, traced.read_direct.len());
        report.layer(
            "serve.push_us_p50.direct",
            traced.push_direct.pct(0.5) * 1e3,
            traced.push_direct.len(),
        );
        report.layer(
            "fleet.router_hop_us_p50",
            via - direct,
            traced.read.len().min(traced.read_direct.len()),
        );
        let n = ticks.len() as u64;
        report.layer(
            "fleet.replicate_ms",
            median(&ticks.iter().map(|t| t.0).collect::<Vec<_>>()),
            n,
        );
        let sum =
            |f: fn(&ReplicationStats) -> u64| ticks.iter().map(|t| f(&t.1)).sum::<u64>() as f64;
        report.layer(
            "fleet.replication.applied_chains",
            sum(|s| s.applied_chains),
            n,
        );
        report.layer(
            "fleet.replication.installed_full",
            sum(|s| s.installed_full),
            n,
        );
        report.layer("fleet.replication.failed", sum(|s| s.failed), n);
        let requests = untraced.completed + traced.completed;
        for (i, name) in [
            "serve.not_modified",
            "serve.delta_chains",
            "serve.delta_full_fallbacks",
            "serve.cache_hits",
        ]
        .into_iter()
        .enumerate()
        {
            report.layer(name, after[i] - before[i], requests);
        }
        report.layer(
            "loadgen.late_us_p99",
            traced.late_us.pct(0.99),
            traced.late_us.len(),
        );
        let untraced_p50 = untraced.read.pct(0.5);
        report.layer(
            "trace.overhead_frac",
            traced.read.pct(0.5) / untraced_p50 - 1.0,
            traced.read.len(),
        );
        report.notes.push(format!(
            "via router p50 {via:.1} us, direct p50 {direct:.1} us; replication and shard counters are totals over the run ({n} ticks, {requests} requests)"
        ));
        span_table(report, &s);
        crate::ledger::write_trace(report, &trace, args);
    }
}
