//! Monte-Carlo DRAM retention-failure physics simulator.
//!
//! This crate is the substitution for the paper's 368 real LPDDR4 chips
//! (see `DESIGN.md` §2). It synthesizes per-chip *weak-cell populations*
//! whose statistics are calibrated to what the paper measures:
//!
//! * every cell's failure probability vs. refresh interval is a **normal
//!   CDF** `Φ((t − μ)/σ)` (paper §5.5, Fig. 6a),
//! * the per-cell spreads σ follow a **lognormal** distribution, mostly
//!   under 200 ms (Fig. 6b),
//! * per-chip bit-error rate vs. refresh interval follows the measured
//!   power-law tail (Fig. 2), calibrated to ≈2464 failures per 2 GB at
//!   1024 ms / 45 °C (§6.2.3),
//! * temperature scales failure rates exponentially with the per-vendor
//!   coefficients of Eq. 1 (`R ∝ e^{kΔT}`), implemented as an exponential
//!   shift of every cell's μ and σ (Fig. 7),
//! * **data-pattern dependence**: each cell leaks only when storing its
//!   vulnerable value (true-cell/anti-cell) and carries a random 4-neighbor
//!   aggressor signature that modulates μ (§2.3.2, Fig. 5),
//! * **variable retention time**: a fraction of weak cells toggle between
//!   two retention states with memoryless dwell times, and brand-new failing
//!   cells arrive as a Poisson process whose rate follows the measured
//!   power law `A = a·t^b` (§5.3, Figs. 3–4).
//!
//! The simulator is deterministic given a seed, so every experiment in the
//! workspace is reproducible.
//!
//! # Example
//!
//! ```
//! use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
//! use reaper_retention::{RetentionConfig, SimulatedChip};
//!
//! let cfg = RetentionConfig::for_vendor(Vendor::B);
//! let mut chip = SimulatedChip::new(cfg, 42);
//!
//! // One retention trial: write checkerboard, pause refresh for 2048ms.
//! let fails = chip.retention_trial(
//!     DataPattern::checkerboard(),
//!     Ms::new(2048.0),
//!     Celsius::new(45.0),
//! );
//! // Longer intervals can only fail more cells (statistically).
//! assert!(!fails.is_empty());
//! ```

// Deny-wall escapes (DESIGN.md §"Static analysis & determinism
// invariants"): `reaper-lint` enforces the finer-grained forms of these
// lints — P1 requires `invariant: `-prefixed expect messages and audits
// indexing in the hot-path crates, C1 bans bare casts there — with
// per-site `// lint: allow` markers. Clippy's blanket versions are
// allowed at the crate root so `-D warnings` stays green without
// annotating every audited site twice.
#![allow(clippy::expect_used, clippy::indexing_slicing)]
// Tests additionally assert exact float equality on purpose — bit-identical
// outputs are the determinism contract, and clippy.toml has no in-tests
// knob for these lints.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod batch;
pub mod cell;
pub mod chip;
pub mod config;
pub mod delta;
pub mod plan;
pub mod population;
pub mod spd;
pub mod vrt;

pub use batch::MAX_BATCH_ROUNDS;
pub use cell::WeakCell;
pub use chip::{PartialTrials, SimulatedChip, TrialOutcome};
pub use delta::{DeltaApplyError, DeltaCodecError, ProfileDelta};
pub use plan::PlanStats;
pub use config::RetentionConfig;
pub use population::ChipPopulation;
pub use spd::SpdRecord;
