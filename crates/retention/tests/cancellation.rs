//! Prefix bit-identity of the batched trial entry points under a
//! [`CancelToken`]: whatever a cancelled run returns must be an exact
//! prefix of the uncancelled run's outcomes, and a pre-cancelled token
//! must stop the run before any kernel batch executes.

use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_retention::{RetentionConfig, SimulatedChip};

fn small_chip(seed: u64) -> SimulatedChip {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 64);
    SimulatedChip::new(cfg, seed)
}

#[test]
fn pre_cancelled_rounds_run_produces_nothing() {
    let mut chip = small_chip(7);
    let token = CancelToken::new();
    token.cancel();
    let run = chip.retention_trial_batches(
        DataPattern::checkerboard(),
        Ms::new(2048.0),
        Celsius::new(45.0),
        12,
        4,
        &token,
    );
    assert!(run.cancelled);
    assert!(run.outcomes.is_empty(), "no batch may run after a pre-cancel");
}

#[test]
fn mid_run_cancellation_returns_a_bit_identical_rounds_prefix() {
    // Reference: the full uncancelled run.
    let mut reference = small_chip(7);
    let full = reference.retention_trial_rounds(
        DataPattern::checkerboard(),
        Ms::new(2048.0),
        Celsius::new(45.0),
        16,
    );
    assert_eq!(full.len(), 16);

    // Cancelled run: a helper thread races the kernel; wherever the stop
    // lands, the result must be an exact prefix, in whole batches of 4.
    let mut chip = small_chip(7);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || token.cancel())
    };
    let run = chip.retention_trial_batches(
        DataPattern::checkerboard(),
        Ms::new(2048.0),
        Celsius::new(45.0),
        16,
        4,
        &token,
    );
    canceller.join().expect("canceller thread");
    assert_eq!(run.outcomes.len() % 4, 0, "cancellation lands on batch boundaries");
    assert_eq!(
        run.outcomes.as_slice(),
        &full[..run.outcomes.len()],
        "cancelled outcomes must be a bit-identical prefix"
    );
    assert_eq!(run.cancelled, run.outcomes.len() < 16);
}

#[test]
fn schedule_cancellation_returns_a_bit_identical_schedule_prefix() {
    let schedule: Vec<_> = (0..12)
        .map(|i| {
            let pattern = if i % 2 == 0 {
                DataPattern::checkerboard()
            } else {
                DataPattern::solid1()
            };
            (pattern, Ms::new(2048.0), Celsius::new(45.0))
        })
        .collect();

    let mut reference = small_chip(11);
    let full = reference.retention_trial_schedule(&schedule, 3, &CancelToken::new()).outcomes;
    assert_eq!(full.len(), 12);

    let mut chip = small_chip(11);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || token.cancel())
    };
    let run = chip.retention_trial_schedule(&schedule, 3, &token);
    canceller.join().expect("canceller thread");
    assert_eq!(
        run.outcomes.as_slice(),
        &full[..run.outcomes.len()],
        "cancelled schedule outcomes must be a bit-identical prefix"
    );
    assert_eq!(run.cancelled, run.outcomes.len() < 12);
}

#[test]
fn uncancelled_schedule_matches_the_rounds_entry_point() {
    let schedule: Vec<_> = (0..8)
        .map(|_| (DataPattern::checkerboard(), Ms::new(1024.0), Celsius::new(45.0)))
        .collect();
    let mut a = small_chip(3);
    let mut b = small_chip(3);
    let (pattern, interval, temp) = schedule[0];
    let rounds = a.retention_trial_rounds(pattern, interval, temp, 8);
    let run = b.retention_trial_schedule(&schedule, 5, &CancelToken::new());
    assert!(!run.cancelled);
    assert_eq!(run.outcomes, rounds);
}
