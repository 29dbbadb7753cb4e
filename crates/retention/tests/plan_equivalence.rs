//! Property test: routed retention trials are bit-identical to the scalar
//! reference.
//!
//! Random (vendor, seed, trial script) triples are replayed on fresh chips
//! through `retention_trial` and `retention_trial_reference` at 1 and 4
//! worker threads, and the full outcome transcripts must be byte-equal to
//! the single-thread reference. The same scripts are then replayed through
//! the multi-round batch entry point at batch caps 1, 7, and 64 — covering
//! single-round batches, partial planes, and full 64-bit planes — and must
//! match the same reference byte for byte. Scripts include repeated
//! conditions (so routing promotes through scalar → compile → cache-hit
//! within one run), occasional 60–70-round repeat bursts (so batched replays
//! cross the 64-round plane boundary mid-step), time advances (plan
//! invalidation + VRT chain evolution + Poisson arrival merges), and
//! condition changes (multiple live plans per chip).
//!
//! `reaper_exec::set_thread_count` mutates process-global state, so — per
//! the workspace convention — exactly one test in this binary touches it.
//! The schedule-equivalence test below runs at the default thread count.

use proptest::prelude::*;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_retention::{RetentionConfig, SimulatedChip, TrialOutcome};

const VENDORS: [Vendor; 3] = [Vendor::A, Vendor::B, Vendor::C];
const INTERVALS_MS: [f64; 4] = [512.0, 1024.0, 2048.0, 3000.0];
const TEMPS_C: [f64; 3] = [45.0, 60.0, 70.0];
/// Hours advanced before a step: 0 keeps plans live, the others roll the
/// epoch and let VRT chains and arrivals evolve.
const ADVANCES_H: [f64; 3] = [0.0, 0.5, 2.0];
/// Batch caps replayed against the scalar reference: single-round
/// batches, a partial plane, and the full 64-bit plane.
const BATCH_CAPS: [usize; 3] = [1, 7, 64];

/// One trial-script step: indices into the tables above, plus a repeat
/// code (see [`repeats_of`]).
type Step = (u64, usize, usize, usize, u64);

/// A single-trial entry point: `retention_trial` or its reference.
type Trial = fn(&mut SimulatedChip, DataPattern, Ms, Celsius) -> TrialOutcome;

fn pattern_of(code: u64) -> DataPattern {
    match code % 6 {
        0 => DataPattern::solid0(),
        1 => DataPattern::checkerboard(),
        2 => DataPattern::row_stripe(),
        3 => DataPattern::col_stripe(),
        4 => DataPattern::walking1((code / 6) % 8),
        _ => DataPattern::random(code),
    }
}

/// Maps a repeat code to a repeat count: mostly 1–2 (cheap, exercises
/// plan promotion), occasionally 60 or 66 — a near-full plane, and one
/// that forces a 64-cap batched replay to split the step across two
/// bit-planes.
fn repeats_of(code: u64) -> u64 {
    if code >= 10 {
        code * 6
    } else {
        1 + code % 2
    }
}

/// Decodes one step into its trial parameters, advancing the chip clock
/// first when the step asks for it.
fn apply_step(
    chip: &mut SimulatedChip,
    step: &Step,
) -> (DataPattern, Ms, Celsius, u64) {
    let &(pattern_code, interval_i, temp_i, advance_i, repeat_code) = step;
    // The generators bound every index, so the fallbacks never fire;
    // they just keep this helper panic-free outside a #[test] body.
    let hours = ADVANCES_H.get(advance_i).copied().unwrap_or(0.0);
    if hours > 0.0 {
        chip.advance(Ms::from_hours(hours));
    }
    let pattern = pattern_of(pattern_code);
    let interval = Ms::new(INTERVALS_MS.get(interval_i).copied().unwrap_or(1024.0));
    let temp = Celsius::new(TEMPS_C.get(temp_i).copied().unwrap_or(60.0));
    (pattern, interval, temp, repeats_of(repeat_code))
}

/// Replays `steps` on a fresh chip through `trial` at the given thread
/// count, returning the concatenated failure transcripts.
fn run_script(
    cfg: &RetentionConfig,
    seed: u64,
    trial: Trial,
    threads: usize,
    steps: &[Step],
) -> Vec<Vec<u64>> {
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), seed);
    let mut transcript = Vec::new();
    for step in steps {
        let (pattern, interval, temp, repeats) = apply_step(&mut chip, step);
        for _ in 0..repeats {
            transcript.push(trial(&mut chip, pattern, interval, temp).into_vec());
        }
    }
    transcript
}

/// Replays `steps` on a fresh chip through the multi-round batch entry
/// point: each step's repeats are submitted as one
/// `retention_trial_batches` call with the given per-pass cap.
fn run_script_batched(
    cfg: &RetentionConfig,
    seed: u64,
    threads: usize,
    max_batch: usize,
    steps: &[Step],
) -> Vec<Vec<u64>> {
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), seed);
    let mut transcript = Vec::new();
    for step in steps {
        let (pattern, interval, temp, repeats) = apply_step(&mut chip, step);
        let rounds = u32::try_from(repeats).unwrap_or(u32::MAX);
        let cancel = CancelToken::new();
        let run = chip.retention_trial_batches(pattern, interval, temp, rounds, max_batch, &cancel);
        for outcome in run.outcomes {
            transcript.push(outcome.into_vec());
        }
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn routed_trials_match_the_reference_bit_for_bit(
        seed in 0u64..10_000,
        vendor_i in 0usize..3,
        steps in proptest::collection::vec(
            (0u64..24, 0usize..4, 0usize..3, 0usize..3, 0u64..12),
            3..8,
        ),
    ) {
        let cfg = RetentionConfig::for_vendor(VENDORS[vendor_i]).with_capacity_scale(1, 64);
        let reference = run_script(&cfg, seed, SimulatedChip::retention_trial_reference, 1, &steps);
        prop_assert!(
            reference.iter().any(|t| !t.is_empty()),
            "degenerate script: no step produced failures"
        );
        let replays: [(&str, Trial, usize); 3] = [
            ("reference", SimulatedChip::retention_trial_reference, 4),
            ("routed", SimulatedChip::retention_trial, 1),
            ("routed", SimulatedChip::retention_trial, 4),
        ];
        for (name, trial, threads) in replays {
            let got = run_script(&cfg, seed, trial, threads, &steps);
            prop_assert_eq!(
                &got, &reference,
                "transcript diverged: {} trials, {} thread(s), vendor {:?}, seed {}",
                name, threads, VENDORS[vendor_i], seed
            );
        }
        for max_batch in BATCH_CAPS {
            for threads in [1usize, 4] {
                let got = run_script_batched(&cfg, seed, threads, max_batch, &steps);
                prop_assert_eq!(
                    &got, &reference,
                    "batched transcript diverged: cap {}, {} thread(s), vendor {:?}, seed {}",
                    max_batch, threads, VENDORS[vendor_i], seed
                );
            }
        }
        reaper_exec::set_thread_count(None);
    }
}

/// The heterogeneous-schedule entry point must match a sequential
/// `retention_trial` loop over the same entries, at every batch cap.
/// Runs at the default thread count (the proptest above owns this
/// binary's one `set_thread_count` slot).
#[test]
fn schedule_matches_sequential_loop() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
    let mut schedule = Vec::new();
    for rep in 0..3u64 {
        schedule.push((DataPattern::checkerboard(), Ms::new(1024.0), Celsius::new(60.0)));
        schedule.push((DataPattern::solid0(), Ms::new(2048.0), Celsius::new(60.0)));
        schedule.push((DataPattern::row_stripe(), Ms::new(1024.0), Celsius::new(75.0)));
        schedule.push((DataPattern::random(rep), Ms::new(1536.0), Celsius::new(60.0)));
        schedule.push((DataPattern::checkerboard(), Ms::new(1024.0), Celsius::new(60.0)));
    }

    let mut reference_chip = SimulatedChip::new(cfg.clone(), 4242);
    reference_chip.advance(Ms::from_hours(1.0));
    let reference: Vec<Vec<u64>> = schedule
        .iter()
        .map(|&(p, i, t)| reference_chip.retention_trial(p, i, t).into_vec())
        .collect();
    assert!(
        reference.iter().any(|t| !t.is_empty()),
        "degenerate schedule: no entry produced failures"
    );

    for max_batch in BATCH_CAPS {
        let mut chip = SimulatedChip::new(cfg.clone(), 4242);
        chip.advance(Ms::from_hours(1.0));
        let got: Vec<Vec<u64>> = chip
            .retention_trial_schedule(&schedule, max_batch, &CancelToken::new())
            .outcomes
            .into_iter()
            .map(|o| o.into_vec())
            .collect();
        assert_eq!(got, reference, "schedule diverged at cap {max_batch}");
    }
}
