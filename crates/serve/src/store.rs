//! The streaming profile store: one append-then-compact epoch log per
//! profile, with content-addressed delta-chunk dedup and LRU byte-budget
//! eviction.
//!
//! ## Epoch-log lifecycle
//!
//! A profile enters the store when its job completes
//! ([`ProfileStore::insert_full`], epoch 0). Re-profiling pushes later
//! snapshots ([`ProfileStore::append_full`]); each push that changed
//! cells appends one `RPD1` delta record to the log and moves the head.
//! When the chain grows past the epoch budget (`compact_max_deltas`
//! records) or the byte budget (`compact_max_chain_bytes` of payload),
//! the log **compacts**: the head snapshot becomes the new base, the
//! chain drops, and its chunk references are released. Decoding
//! `base + deltas[..k]` is byte-identical to the directly encoded
//! profile at epoch `base_epoch + k` — the compaction-equivalence
//! property test in `tests/epoch_log.rs` holds every prefix to that.
//!
//! ## Chunk dedup
//!
//! Delta payloads are stored once per distinct content
//! ([`reaper_retention::delta::chunk_id_of`]); per-profile records keep
//! only the small header. Two same-vendor DIMMs whose re-profiling
//! epochs churned the same cells therefore share payload bytes, which is
//! the fleet-scale dedup the delta codec's header/payload split exists
//! for.
//!
//! ## Eviction
//!
//! Under byte pressure the least-recently-used profile's bytes are
//! evicted: base and head snapshots drop, the chain drops, chunk refs
//! release — but the log's *metadata* (head epoch and content hash)
//! survives. That is what lets a conditional `GET` with a current ETag
//! revalidate to `304 Not Modified` with zero bytes resident and zero
//! recomputation. Deterministic jobs reattach on recompute when the
//! bytes still hash to the recorded head; profiles whose head had moved
//! past the job's epoch-0 result via pushes re-enter through a fresh
//! full push (re-base) instead.
//!
//! Recency is a logical tick counter, not a clock (lint rule D2), and
//! every map is a `BTreeMap` (lint rule D1).

use std::collections::BTreeMap;
use std::sync::Arc;

use reaper_core::FailureProfile;
use reaper_retention::delta::{self, ProfileDelta};

/// Epoch/byte budgets and the overall byte budget of the store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Total byte budget over snapshots and delta chunks.
    pub budget_bytes: usize,
    /// Compact a log once its chain holds this many delta records.
    pub compact_max_deltas: usize,
    /// Compact a log once its chain's payload bytes exceed this.
    pub compact_max_chain_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 16 * 1024 * 1024,
            compact_max_deltas: 8,
            compact_max_chain_bytes: 256 * 1024,
        }
    }
}

/// One delta record: the `RPD1` header bound to a shared payload chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Epoch the delta applies on top of.
    pub base_epoch: u64,
    /// Epoch after applying.
    pub new_epoch: u64,
    /// Content hash of the pre-apply full encoding.
    pub base_hash: u64,
    /// Content hash of the post-apply full encoding.
    pub result_hash: u64,
    /// Content address of the payload in the chunk store.
    pub chunk_id: u64,
}

/// One profile's epoch log.
struct ProfileEntry {
    /// Epoch of the oldest reconstructable snapshot.
    base_epoch: u64,
    /// Content hash of the base encoding (kept across eviction).
    base_hash: u64,
    /// Base snapshot bytes; `None` after eviction.
    base: Option<Arc<Vec<u8>>>,
    /// Current epoch.
    head_epoch: u64,
    /// Content hash of the head encoding (kept across eviction).
    head_hash: u64,
    /// Head snapshot bytes; `None` after eviction. Shares the base Arc
    /// while the chain is empty.
    head: Option<Arc<Vec<u8>>>,
    /// Consecutive delta records from `base_epoch` to `head_epoch`.
    deltas: Vec<DeltaRecord>,
    /// Recency tick while resident (absent from the LRU ring otherwise).
    tick: Option<u64>,
}

impl ProfileEntry {
    /// Bytes this entry's snapshots pin (chunks are accounted globally).
    fn snapshot_bytes(&self) -> usize {
        let base_len = self.base.as_ref().map_or(0, |b| b.len());
        let head_len = match (&self.base, &self.head) {
            (Some(b), Some(h)) if Arc::ptr_eq(b, h) => 0,
            (_, Some(h)) => h.len(),
            (_, None) => 0,
        };
        base_len + head_len
    }
}

/// A reference-counted delta payload shared across logs.
struct ChunkEntry {
    payload: Arc<Vec<u8>>,
    refs: u64,
}

/// Result of publishing a job's (deterministic, epoch-0) result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// First sighting: a fresh log at epoch 0.
    Created,
    /// The log already had resident bytes; nothing changed.
    AlreadyResident,
    /// Evicted log whose recorded head hash matches these bytes: the
    /// snapshot reattached (no epoch change).
    Reattached,
    /// Evicted log whose head had moved past this result via pushed
    /// epochs; the recompute is stale and was not stored. A fresh full
    /// push re-bases the log.
    StaleRecompute,
}

/// Result of appending a pushed re-profiling snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Epoch of the log head after the push.
    pub epoch: u64,
    /// Content hash of the head encoding after the push.
    pub head_hash: u64,
    /// False when the snapshot equaled the head (no epoch consumed).
    pub changed: bool,
    /// Encoded `RPD1` message size, when a delta was appended.
    pub delta_bytes: usize,
    /// Chunk ID of the appended delta payload, when one was appended.
    pub chunk_id: Option<u64>,
    /// True when the payload already existed in the chunk store.
    pub chunk_deduped: bool,
    /// True when this push triggered compaction.
    pub compacted: bool,
    /// True when the log had been evicted and this snapshot re-based it.
    pub rebased: bool,
}

/// Why a push could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// No log under that ID (the job never completed).
    UnknownProfile,
}

/// Answer to a full-profile read.
pub enum FullQuery {
    /// No log under that ID.
    Unknown,
    /// The head snapshot.
    Bytes(Arc<Vec<u8>>),
    /// The log exists but its bytes were evicted.
    Evicted,
}

/// Answer to a delta-chain read (`?since=` / watch).
pub enum DeltaQuery {
    /// No log under that ID.
    Unknown,
    /// `since` is already the head epoch.
    NotModified,
    /// `since` is beyond the head (client from the future).
    AheadOfHead,
    /// The minimal chain of `RPD1` messages, one per epoch after
    /// `since`, in epoch order, ending at `head_epoch`.
    Chain {
        /// Epoch after applying the whole chain.
        head_epoch: u64,
        /// One encoded `RPD1` message per epoch.
        messages: Vec<Vec<u8>>,
    },
    /// `since` predates the base (compacted away): the full head
    /// snapshot instead.
    FullFallback {
        /// Epoch of the snapshot.
        head_epoch: u64,
        /// The `RPF1` head encoding.
        bytes: Arc<Vec<u8>>,
    },
    /// A fallback was needed but the bytes were evicted.
    Evicted,
}

/// Outcome of a replication install or delta apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncApply {
    /// The local log advanced to the peer's state.
    Applied {
        /// Head epoch after the apply (the peer's epoch, verbatim).
        epoch: u64,
        /// Head content hash after the apply.
        hash: u64,
    },
    /// The local log was already at or past the peer's state.
    NoOp,
    /// The delta (or snapshot) cannot apply here — missing log,
    /// non-resident head, or a base/hash mismatch; the caller should
    /// pull the full snapshot instead.
    NeedFull,
}

/// The raw epoch log as [`ProfileStore::log_snapshot`] exposes it:
/// `(base_epoch, base snapshot bytes if resident, encoded chain)`.
pub type LogSnapshot = (u64, Option<Arc<Vec<u8>>>, Vec<Vec<u8>>);

/// Head metadata that survives eviction (the ETag source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadInfo {
    /// Current epoch.
    pub epoch: u64,
    /// Content hash of the head encoding.
    pub hash: u64,
    /// Whether the head snapshot bytes are resident.
    pub resident: bool,
}

/// The streaming profile store. See the module docs for the lifecycle.
pub struct ProfileStore {
    profiles: BTreeMap<u64, ProfileEntry>,
    chunks: BTreeMap<u64, ChunkEntry>,
    /// tick → id ring ordering resident entries cold-to-hot; ticks are
    /// unique (monotonic counter), so this is a faithful LRU order.
    by_tick: BTreeMap<u64, u64>,
    used_bytes: usize,
    config: StoreConfig,
    next_tick: u64,
    evictions: u64,
    chunk_dedup_hits: u64,
}

impl ProfileStore {
    /// An empty store under the given budgets.
    pub fn new(config: StoreConfig) -> Self {
        Self {
            profiles: BTreeMap::new(),
            chunks: BTreeMap::new(),
            by_tick: BTreeMap::new(),
            used_bytes: 0,
            config,
            next_tick: 0,
            evictions: 0,
            chunk_dedup_hits: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        let t = self.next_tick;
        self.next_tick += 1;
        t
    }

    /// Refreshes `id`'s recency (resident entries only).
    fn touch(&mut self, id: u64) {
        let tick = self.bump();
        if let Some(entry) = self.profiles.get_mut(&id) {
            if entry.base.is_none() && entry.head.is_none() {
                return;
            }
            if let Some(old) = entry.tick.replace(tick) {
                self.by_tick.remove(&old);
            }
            self.by_tick.insert(tick, id);
        }
    }

    /// Takes one reference on `payload`'s chunk, inserting it on first
    /// sight. Returns (chunk id, whether it already existed).
    fn retain_chunk(&mut self, payload: Vec<u8>) -> (u64, bool) {
        let id = delta::chunk_id_of(&payload);
        if let Some(chunk) = self.chunks.get_mut(&id) {
            chunk.refs += 1;
            self.chunk_dedup_hits += 1;
            return (id, true);
        }
        self.used_bytes += payload.len();
        self.chunks.insert(
            id,
            ChunkEntry {
                payload: Arc::new(payload),
                refs: 1,
            },
        );
        (id, false)
    }

    /// Releases one reference on a chunk, dropping it at zero.
    fn release_chunk(&mut self, id: u64) {
        let Some(chunk) = self.chunks.get_mut(&id) else {
            return;
        };
        chunk.refs = chunk.refs.saturating_sub(1);
        if chunk.refs == 0 {
            let len = chunk.payload.len();
            self.chunks.remove(&id);
            self.used_bytes -= len;
        }
    }

    /// Evicts cold resident entries until the budget holds, never
    /// touching `protect` (the entry being written).
    fn enforce_budget(&mut self, protect: u64) {
        while self.used_bytes > self.config.budget_bytes {
            let Some((&tick, &cold_id)) = self
                .by_tick
                .iter()
                .find(|&(_, &id)| id != protect)
            else {
                break;
            };
            self.by_tick.remove(&tick);
            self.evict_entry(cold_id);
            self.evictions += 1;
        }
    }

    /// Drops an entry's bytes and chain, keeping head metadata.
    fn evict_entry(&mut self, id: u64) {
        let Some(entry) = self.profiles.get_mut(&id) else {
            return;
        };
        self.used_bytes -= entry.snapshot_bytes();
        entry.base = None;
        entry.head = None;
        entry.tick = None;
        // The chain is useless without its base; promote the metadata to
        // the head so a matching recompute or a fresh push can re-enter.
        entry.base_epoch = entry.head_epoch;
        entry.base_hash = entry.head_hash;
        let released: Vec<u64> = entry.deltas.drain(..).map(|d| d.chunk_id).collect();
        for chunk_id in released {
            self.release_chunk(chunk_id);
        }
    }

    /// Publishes a job's deterministic result as the log's epoch 0 (or
    /// reattaches it after eviction). Oversized snapshots (larger than
    /// the whole budget) keep their metadata but stay non-resident.
    pub fn insert_full(&mut self, id: u64, bytes: Arc<Vec<u8>>) -> InsertOutcome {
        let hash = delta::content_hash(&bytes);
        let fits = bytes.len() <= self.config.budget_bytes;
        let outcome = match self.profiles.get_mut(&id) {
            None => {
                let entry = ProfileEntry {
                    base_epoch: 0,
                    base_hash: hash,
                    base: fits.then(|| Arc::clone(&bytes)),
                    head_epoch: 0,
                    head_hash: hash,
                    head: fits.then(|| Arc::clone(&bytes)),
                    deltas: Vec::new(),
                    tick: None,
                };
                self.used_bytes += entry.snapshot_bytes();
                self.profiles.insert(id, entry);
                InsertOutcome::Created
            }
            Some(entry) if entry.head.is_some() => InsertOutcome::AlreadyResident,
            Some(entry) => {
                if entry.head_hash != hash {
                    return InsertOutcome::StaleRecompute;
                }
                if fits {
                    entry.base = Some(Arc::clone(&bytes));
                    entry.head = Some(Arc::clone(&bytes));
                    let grown = entry.snapshot_bytes();
                    self.used_bytes += grown;
                }
                InsertOutcome::Reattached
            }
        };
        self.touch(id);
        self.enforce_budget(id);
        outcome
    }

    /// Appends a pushed re-profiling snapshot to `id`'s log: computes
    /// the delta against the head, stores it (chunk-deduped), moves the
    /// head, and compacts when the chain exceeds its budgets. On an
    /// evicted log the snapshot re-bases it at the next epoch.
    ///
    /// # Errors
    /// [`AppendError::UnknownProfile`] when no log exists under `id`.
    pub fn append_full(
        &mut self,
        id: u64,
        profile: &FailureProfile,
    ) -> Result<AppendOutcome, AppendError> {
        let new_bytes = profile.to_bytes();
        let new_hash = delta::content_hash(&new_bytes);
        let Some(entry) = self.profiles.get_mut(&id) else {
            return Err(AppendError::UnknownProfile);
        };

        if new_hash == entry.head_hash {
            let outcome = AppendOutcome {
                epoch: entry.head_epoch,
                head_hash: entry.head_hash,
                changed: false,
                delta_bytes: 0,
                chunk_id: None,
                chunk_deduped: false,
                compacted: false,
                rebased: false,
            };
            self.touch(id);
            return Ok(outcome);
        }

        let head_profile = entry
            .head
            .as_ref()
            .and_then(|bytes| FailureProfile::from_bytes(bytes).ok());
        let Some(head_profile) = head_profile else {
            // Evicted (or, unreachably, undecodable) head: re-base the
            // log on this snapshot at the next epoch.
            let old = entry.snapshot_bytes();
            let epoch = entry.head_epoch + 1;
            let fits = new_bytes.len() <= self.config.budget_bytes;
            let arc = Arc::new(new_bytes);
            entry.base_epoch = epoch;
            entry.base_hash = new_hash;
            entry.base = fits.then(|| Arc::clone(&arc));
            entry.head_epoch = epoch;
            entry.head_hash = new_hash;
            entry.head = fits.then_some(arc);
            self.used_bytes += entry.snapshot_bytes();
            self.used_bytes -= old;
            self.touch(id);
            self.enforce_budget(id);
            return Ok(AppendOutcome {
                epoch,
                head_hash: new_hash,
                changed: true,
                delta_bytes: 0,
                chunk_id: None,
                chunk_deduped: false,
                compacted: false,
                rebased: true,
            });
        };

        let new_epoch = entry.head_epoch + 1;
        let d = ProfileDelta::compute(
            head_profile.iter(),
            profile.iter(),
            entry.head_epoch,
            new_epoch,
            entry.head_hash,
            new_hash,
        );
        let record = DeltaRecord {
            base_epoch: entry.head_epoch,
            new_epoch,
            base_hash: entry.head_hash,
            result_hash: new_hash,
            chunk_id: d.chunk_id(),
        };
        let payload = d.payload_bytes();
        let delta_bytes =
            delta::encode_message(0, 1, 0, 0, 0, &payload).len();

        let old = entry.snapshot_bytes();
        entry.deltas.push(record);
        entry.head_epoch = new_epoch;
        entry.head_hash = new_hash;
        let fits = new_bytes.len() <= self.config.budget_bytes;
        entry.head = fits.then(|| Arc::new(new_bytes));
        let grown = entry.snapshot_bytes();
        self.used_bytes += grown;
        self.used_bytes -= old;

        let (chunk_id, chunk_deduped) = self.retain_chunk(payload);

        let compacted = self.maybe_compact(id);
        self.touch(id);
        self.enforce_budget(id);
        Ok(AppendOutcome {
            epoch: new_epoch,
            head_hash: new_hash,
            changed: true,
            delta_bytes,
            chunk_id: Some(chunk_id),
            chunk_deduped,
            compacted,
            rebased: false,
        })
    }

    /// Sum of the chain's payload bytes for `id`.
    fn chain_payload_bytes(&self, entry: &ProfileEntry) -> usize {
        entry
            .deltas
            .iter()
            .filter_map(|d| self.chunks.get(&d.chunk_id))
            .map(|c| c.payload.len())
            .sum()
    }

    /// Folds the chain into a new base when it exceeds the epoch or
    /// byte budget. Returns whether compaction ran.
    fn maybe_compact(&mut self, id: u64) -> bool {
        let Some(entry) = self.profiles.get(&id) else {
            return false;
        };
        let over_epochs = entry.deltas.len() >= self.config.compact_max_deltas;
        let over_bytes = self.chain_payload_bytes(entry) > self.config.compact_max_chain_bytes;
        if !(over_epochs || over_bytes) {
            return false;
        }
        let Some(entry) = self.profiles.get_mut(&id) else {
            return false;
        };
        let old = entry.snapshot_bytes();
        entry.base = entry.head.as_ref().map(Arc::clone);
        entry.base_epoch = entry.head_epoch;
        entry.base_hash = entry.head_hash;
        let released: Vec<u64> = entry.deltas.drain(..).map(|d| d.chunk_id).collect();
        let grown = entry.snapshot_bytes();
        self.used_bytes += grown;
        self.used_bytes -= old;
        for chunk_id in released {
            self.release_chunk(chunk_id);
        }
        true
    }

    /// Installs a peer's full head snapshot at the peer's *exact* epoch
    /// — the replication entry point. Unlike [`ProfileStore::insert_full`]
    /// (which always seeds epoch 0) and [`ProfileStore::append_full`]
    /// (which assigns the next local epoch), this preserves the primary's
    /// epoch numbering, so a replica's ETag (`"<hash>-<epoch>"`) is
    /// byte-identical to the primary's and failover revalidation costs
    /// nothing.
    ///
    /// The snapshot re-bases the log: any local chain is dropped (its
    /// chunks released) because replication only moves *forward* to the
    /// primary's state.
    pub fn sync_install_full(&mut self, id: u64, epoch: u64, bytes: Arc<Vec<u8>>) -> SyncApply {
        let hash = delta::content_hash(&bytes);
        let fits = bytes.len() <= self.config.budget_bytes;
        let applied = match self.profiles.get_mut(&id) {
            None => {
                let entry = ProfileEntry {
                    base_epoch: epoch,
                    base_hash: hash,
                    base: fits.then(|| Arc::clone(&bytes)),
                    head_epoch: epoch,
                    head_hash: hash,
                    head: fits.then(|| Arc::clone(&bytes)),
                    deltas: Vec::new(),
                    tick: None,
                };
                self.used_bytes += entry.snapshot_bytes();
                self.profiles.insert(id, entry);
                true
            }
            Some(entry) => {
                if entry.head_epoch > epoch
                    || (entry.head_epoch == epoch && entry.head.is_some())
                {
                    // Local state is already at (or past) the peer's.
                    false
                } else if entry.head_epoch == epoch {
                    if entry.head_hash != hash {
                        // Divergence at the same epoch cannot happen for
                        // deterministic logs; refuse rather than corrupt.
                        return SyncApply::NeedFull;
                    }
                    // Evicted local copy of the same head: reattach.
                    if fits {
                        entry.base = Some(Arc::clone(&bytes));
                        entry.head = Some(Arc::clone(&bytes));
                        entry.base_epoch = epoch;
                        entry.base_hash = hash;
                        let grown = entry.snapshot_bytes();
                        self.used_bytes += grown;
                    }
                    true
                } else {
                    // Peer is ahead: re-base the log on its snapshot.
                    let old = entry.snapshot_bytes();
                    entry.base_epoch = epoch;
                    entry.base_hash = hash;
                    entry.base = fits.then(|| Arc::clone(&bytes));
                    entry.head_epoch = epoch;
                    entry.head_hash = hash;
                    entry.head = fits.then(|| Arc::clone(&bytes));
                    let released: Vec<u64> = entry.deltas.drain(..).map(|d| d.chunk_id).collect();
                    let grown = entry.snapshot_bytes();
                    self.used_bytes += grown;
                    self.used_bytes -= old;
                    for chunk_id in released {
                        self.release_chunk(chunk_id);
                    }
                    true
                }
            }
        };
        if !applied {
            return SyncApply::NoOp;
        }
        self.touch(id);
        self.enforce_budget(id);
        SyncApply::Applied {
            epoch,
            hash,
        }
    }

    /// Applies one peer `RPD1` delta on top of the local head — the
    /// cheap replication path. The apply is fully verified
    /// ([`FailureProfile::apply_delta`] checks the base hash, the set
    /// constraints, and the result hash), and the record keeps the
    /// wire's exact epochs, so the replica's chain and ETags match the
    /// primary's byte for byte.
    pub fn sync_apply_delta(&mut self, id: u64, d: &ProfileDelta) -> SyncApply {
        let Some(entry) = self.profiles.get(&id) else {
            return SyncApply::NeedFull;
        };
        if d.new_epoch <= entry.head_epoch {
            return SyncApply::NoOp;
        }
        if d.base_epoch != entry.head_epoch || d.base_hash != entry.head_hash {
            return SyncApply::NeedFull;
        }
        let head_profile = entry
            .head
            .as_ref()
            .and_then(|bytes| FailureProfile::from_bytes(bytes).ok());
        let Some(head_profile) = head_profile else {
            return SyncApply::NeedFull;
        };
        let Ok(applied) = head_profile.apply_delta(d) else {
            return SyncApply::NeedFull;
        };
        let new_bytes = applied.to_bytes();
        let fits = new_bytes.len() <= self.config.budget_bytes;
        let record = DeltaRecord {
            base_epoch: d.base_epoch,
            new_epoch: d.new_epoch,
            base_hash: d.base_hash,
            result_hash: d.result_hash,
            chunk_id: d.chunk_id(),
        };
        let Some(entry) = self.profiles.get_mut(&id) else {
            return SyncApply::NeedFull;
        };
        let old = entry.snapshot_bytes();
        entry.deltas.push(record);
        entry.head_epoch = d.new_epoch;
        entry.head_hash = d.result_hash;
        entry.head = fits.then(|| Arc::new(new_bytes));
        let grown = entry.snapshot_bytes();
        self.used_bytes += grown;
        self.used_bytes -= old;
        self.retain_chunk(d.payload_bytes());
        self.maybe_compact(id);
        self.touch(id);
        self.enforce_budget(id);
        SyncApply::Applied {
            epoch: d.new_epoch,
            hash: d.result_hash,
        }
    }

    /// Sum of every log's head epoch: a monotone logical clock over the
    /// whole store, exported as `reaper_fleet_store_epoch`.
    pub fn epoch_total(&self) -> u64 {
        self.profiles.values().map(|e| e.head_epoch).sum()
    }

    /// Head metadata for `id` (survives eviction; does not touch
    /// recency — ETag revalidation must not keep cold entries warm).
    pub fn head_info(&self, id: u64) -> Option<HeadInfo> {
        self.profiles.get(&id).map(|e| HeadInfo {
            epoch: e.head_epoch,
            hash: e.head_hash,
            resident: e.head.is_some(),
        })
    }

    /// True when `id`'s head snapshot bytes are resident.
    pub fn is_resident(&self, id: u64) -> bool {
        self.profiles.get(&id).is_some_and(|e| e.head.is_some())
    }

    /// The head snapshot bytes.
    pub fn full_bytes(&mut self, id: u64) -> FullQuery {
        let Some(entry) = self.profiles.get(&id) else {
            return FullQuery::Unknown;
        };
        let Some(bytes) = entry.head.as_ref().map(Arc::clone) else {
            return FullQuery::Evicted;
        };
        self.touch(id);
        FullQuery::Bytes(bytes)
    }

    /// The minimal update from `since` to the head: per-epoch `RPD1`
    /// messages when the chain still covers `since`, the full snapshot
    /// when compaction folded it away.
    pub fn updates_since(&mut self, id: u64, since: u64) -> DeltaQuery {
        let Some(entry) = self.profiles.get(&id) else {
            return DeltaQuery::Unknown;
        };
        if since == entry.head_epoch {
            return DeltaQuery::NotModified;
        }
        if since > entry.head_epoch {
            return DeltaQuery::AheadOfHead;
        }
        let head_epoch = entry.head_epoch;
        if since >= entry.base_epoch {
            let mut messages = Vec::new();
            for record in &entry.deltas {
                if record.new_epoch <= since {
                    continue;
                }
                let Some(chunk) = self.chunks.get(&record.chunk_id) else {
                    messages.clear();
                    break;
                };
                messages.push(delta::encode_message(
                    record.base_epoch,
                    record.new_epoch,
                    record.base_hash,
                    record.result_hash,
                    record.chunk_id,
                    &chunk.payload,
                ));
            }
            if !messages.is_empty() {
                self.touch(id);
                return DeltaQuery::Chain {
                    head_epoch,
                    messages,
                };
            }
        }
        // Compacted past `since` (or the chain was unreadable): fall
        // back to the full head snapshot.
        match entry.head.as_ref().map(Arc::clone) {
            Some(bytes) => {
                self.touch(id);
                DeltaQuery::FullFallback { head_epoch, bytes }
            }
            None => DeltaQuery::Evicted,
        }
    }

    /// The raw log for equivalence testing: base epoch, base snapshot
    /// bytes, and the chain as encoded `RPD1` messages.
    pub fn log_snapshot(&self, id: u64) -> Option<LogSnapshot> {
        let entry = self.profiles.get(&id)?;
        let chain = entry
            .deltas
            .iter()
            .filter_map(|record| {
                let chunk = self.chunks.get(&record.chunk_id)?;
                Some(delta::encode_message(
                    record.base_epoch,
                    record.new_epoch,
                    record.base_hash,
                    record.result_hash,
                    record.chunk_id,
                    &chunk.payload,
                ))
            })
            .collect();
        Some((entry.base_epoch, entry.base.as_ref().map(Arc::clone), chain))
    }

    /// Number of logs (resident or metadata-only).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Number of logs whose head snapshot bytes are resident.
    pub fn resident_count(&self) -> usize {
        self.profiles.values().filter(|e| e.head.is_some()).count()
    }

    /// True when the store holds no logs at all.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Bytes pinned by snapshots and chunks together.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.config.budget_bytes
    }

    /// Cumulative budget-pressure evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct delta payloads currently stored.
    pub fn chunk_entries(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes held by delta payload chunks.
    pub fn chunk_bytes(&self) -> usize {
        self.chunks.values().map(|c| c.payload.len()).sum()
    }

    /// Cumulative pushes whose payload already existed in the chunk
    /// store (cross-profile dedup hits).
    pub fn chunk_dedup_hits(&self) -> u64 {
        self.chunk_dedup_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(cells: &[u64]) -> FailureProfile {
        FailureProfile::from_cells(cells.iter().copied())
    }

    fn arc_bytes(p: &FailureProfile) -> Arc<Vec<u8>> {
        Arc::new(p.to_bytes())
    }

    fn store() -> ProfileStore {
        ProfileStore::new(StoreConfig {
            budget_bytes: 1 << 20,
            compact_max_deltas: 4,
            compact_max_chain_bytes: 1 << 16,
        })
    }

    /// Reconstructs the head by decoding base + chain with full hash
    /// verification, asserting byte identity with `expected`.
    fn assert_log_reconstructs(s: &ProfileStore, id: u64, expected: &FailureProfile) {
        let (_, base, chain) = s.log_snapshot(id).expect("log exists");
        let base = base.expect("resident");
        let mut current = FailureProfile::from_bytes(&base).expect("base decodes");
        for message in &chain {
            let d = ProfileDelta::from_bytes(message).expect("record decodes");
            current = current.apply_delta(&d).expect("chain applies in order");
        }
        assert_eq!(current.to_bytes(), expected.to_bytes());
    }

    #[test]
    fn insert_then_append_moves_head_and_keeps_equivalence() {
        let mut s = store();
        let e0 = profile(&[1, 2, 3]);
        assert_eq!(s.insert_full(7, arc_bytes(&e0)), InsertOutcome::Created);
        assert_eq!(s.insert_full(7, arc_bytes(&e0)), InsertOutcome::AlreadyResident);
        let h = s.head_info(7).expect("known");
        assert_eq!((h.epoch, h.resident), (0, true));

        let e1 = profile(&[1, 3, 4]);
        let out = s.append_full(7, &e1).expect("append");
        assert!(out.changed && !out.compacted && !out.rebased);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.head_hash, e1.content_hash());
        assert!(out.delta_bytes > 0);
        assert_log_reconstructs(&s, 7, &e1);

        // Unchanged push consumes no epoch.
        let out = s.append_full(7, &e1).expect("append");
        assert!(!out.changed);
        assert_eq!(out.epoch, 1);

        match s.full_bytes(7) {
            FullQuery::Bytes(b) => assert_eq!(*b, e1.to_bytes()),
            _ => panic!("head must be resident"),
        }
        assert!(matches!(s.full_bytes(99), FullQuery::Unknown));
        assert_eq!(s.append_full(99, &e1), Err(AppendError::UnknownProfile));
    }

    #[test]
    fn compaction_folds_the_chain_at_the_epoch_budget() {
        let mut s = store();
        let mut current = profile(&[10, 20, 30]);
        s.insert_full(1, arc_bytes(&current));
        let mut compactions = 0;
        for epoch in 1..=9u64 {
            let mut cells: Vec<u64> = current.iter().collect();
            cells.push(1000 + epoch);
            current = profile(&cells);
            let out = s.append_full(1, &current).expect("append");
            assert_eq!(out.epoch, epoch);
            if out.compacted {
                compactions += 1;
                let (base_epoch, _, chain) = s.log_snapshot(1).expect("log");
                assert_eq!(base_epoch, epoch);
                assert!(chain.is_empty(), "compaction must drop the chain");
            }
            assert_log_reconstructs(&s, 1, &current);
        }
        assert!(compactions >= 2, "4-delta budget over 9 epochs must compact");
    }

    #[test]
    fn identical_churn_across_profiles_dedups_chunks() {
        let mut s = store();
        let a0 = profile(&[1, 2]);
        let b0 = profile(&[50, 60]);
        s.insert_full(1, arc_bytes(&a0));
        s.insert_full(2, arc_bytes(&b0));
        // Same churn (add 7000, remove nothing... must be same payload:
        // added=[7000], removed=[]) on both profiles.
        let a1 = profile(&[1, 2, 7000]);
        let b1 = profile(&[50, 60, 7000]);
        let oa = s.append_full(1, &a1).expect("append");
        let ob = s.append_full(2, &b1).expect("append");
        assert_eq!(oa.chunk_id, ob.chunk_id, "equal payloads share a chunk");
        assert!(!oa.chunk_deduped);
        assert!(ob.chunk_deduped, "second sighting hits the chunk store");
        assert_eq!(s.chunk_entries(), 1);
        assert_eq!(s.chunk_dedup_hits(), 1);
    }

    #[test]
    fn updates_since_serves_minimal_chains_and_falls_back_after_compaction() {
        let mut s = store();
        let mut history = vec![profile(&[5, 6])];
        s.insert_full(3, arc_bytes(&history[0]));
        for epoch in 1..=3u64 {
            let mut cells: Vec<u64> = history.last().expect("nonempty").iter().collect();
            cells.push(epoch * 100);
            history.push(profile(&cells));
            s.append_full(3, history.last().expect("nonempty")).expect("append");
        }
        // since == head → NotModified; since > head → AheadOfHead.
        assert!(matches!(s.updates_since(3, 3), DeltaQuery::NotModified));
        assert!(matches!(s.updates_since(3, 9), DeltaQuery::AheadOfHead));
        // since = 1 → exactly the records for epochs 2 and 3.
        match s.updates_since(3, 1) {
            DeltaQuery::Chain {
                head_epoch,
                messages,
            } => {
                assert_eq!(head_epoch, 3);
                assert_eq!(messages.len(), 2);
                let mut current = FailureProfile::from_bytes(
                    &history.get(1).expect("epoch 1").to_bytes(),
                )
                .expect("decodes");
                for message in &messages {
                    let d = ProfileDelta::from_bytes(message).expect("decodes");
                    current = current.apply_delta(&d).expect("applies");
                }
                assert_eq!(current, *history.last().expect("nonempty"));
            }
            _ => panic!("expected a chain"),
        }
        // Force compaction (4th delta hits the budget), then since=1 is
        // older than the base → full fallback.
        let mut cells: Vec<u64> = history.last().expect("nonempty").iter().collect();
        cells.push(9999);
        let e4 = profile(&cells);
        let out = s.append_full(3, &e4).expect("append");
        assert!(out.compacted);
        match s.updates_since(3, 1) {
            DeltaQuery::FullFallback { head_epoch, bytes } => {
                assert_eq!(head_epoch, 4);
                assert_eq!(*bytes, e4.to_bytes());
            }
            _ => panic!("expected full fallback after compaction"),
        }
        assert!(matches!(s.updates_since(42, 0), DeltaQuery::Unknown));
    }

    #[test]
    fn eviction_keeps_metadata_and_reattaches_matching_recomputes() {
        let mut s = ProfileStore::new(StoreConfig {
            budget_bytes: 64,
            compact_max_deltas: 8,
            compact_max_chain_bytes: 1 << 16,
        });
        let a = profile(&(0..40u64).collect::<Vec<_>>());
        let b = profile(&(100..140u64).collect::<Vec<_>>());
        s.insert_full(1, arc_bytes(&a));
        assert!(s.is_resident(1));
        // Inserting a second log overflows the 64-byte budget → LRU
        // evicts log 1's bytes but keeps its head metadata.
        s.insert_full(2, arc_bytes(&b));
        assert!(!s.is_resident(1), "cold log must be evicted");
        assert!(s.is_resident(2));
        assert_eq!(s.evictions(), 1);
        let h = s.head_info(1).expect("metadata survives eviction");
        assert_eq!(h.hash, a.content_hash());
        assert!(!h.resident);
        assert!(matches!(s.full_bytes(1), FullQuery::Evicted));

        // A matching recompute reattaches; a stale one is refused.
        s.insert_full(2, arc_bytes(&b)); // touch 2 so 1 stays evictable
        assert_eq!(s.insert_full(1, arc_bytes(&b)), InsertOutcome::StaleRecompute);
        assert_eq!(s.insert_full(1, arc_bytes(&a)), InsertOutcome::Reattached);
        assert!(s.is_resident(1));
        match s.full_bytes(1) {
            FullQuery::Bytes(bytes) => assert_eq!(*bytes, a.to_bytes()),
            _ => panic!("reattached bytes must serve"),
        }
    }

    #[test]
    fn evicted_log_rebases_on_the_next_push() {
        let mut s = ProfileStore::new(StoreConfig {
            budget_bytes: 64,
            compact_max_deltas: 8,
            compact_max_chain_bytes: 1 << 16,
        });
        let a0 = profile(&(0..40u64).collect::<Vec<_>>());
        s.insert_full(1, arc_bytes(&a0));
        let a1 = profile(&(1..41u64).collect::<Vec<_>>());
        s.append_full(1, &a1).expect("append");
        let h = s.head_info(1).expect("known");
        assert_eq!(h.epoch, 1);
        // Evict by inserting a hot competitor.
        let b = profile(&(100..140u64).collect::<Vec<_>>());
        s.insert_full(2, arc_bytes(&b));
        assert!(!s.is_resident(1));
        // Pushing a fresh snapshot re-bases at epoch 2.
        let a2 = profile(&(2..42u64).collect::<Vec<_>>());
        let out = s.append_full(1, &a2).expect("push after eviction");
        assert!(out.rebased && out.changed);
        assert_eq!(out.epoch, 2);
        let (base_epoch, _, chain) = s.log_snapshot(1).expect("log");
        assert_eq!(base_epoch, 2);
        assert!(chain.is_empty());
    }

    #[test]
    fn sync_install_preserves_peer_epochs_and_advances_monotonically() {
        let mut primary = store();
        let mut replica = store();
        let e0 = profile(&[1, 2, 3]);
        primary.insert_full(5, arc_bytes(&e0));
        let e1 = profile(&[1, 2, 3, 4]);
        primary.append_full(5, &e1).expect("append");
        let head = primary.head_info(5).expect("known");
        assert_eq!(head.epoch, 1);

        // Replica installs the primary's head at the primary's epoch —
        // identical HeadInfo means identical ETags.
        let bytes = match primary.full_bytes(5) {
            FullQuery::Bytes(b) => b,
            _ => panic!("resident"),
        };
        assert_eq!(
            replica.sync_install_full(5, head.epoch, Arc::clone(&bytes)),
            SyncApply::Applied {
                epoch: head.epoch,
                hash: head.hash
            }
        );
        assert_eq!(replica.head_info(5), primary.head_info(5));
        assert_eq!(replica.epoch_total(), 1);

        // Re-installing the same state is a no-op; an older snapshot
        // cannot rewind the log.
        assert_eq!(
            replica.sync_install_full(5, head.epoch, bytes),
            SyncApply::NoOp
        );
        assert_eq!(
            replica.sync_install_full(5, 0, arc_bytes(&e0)),
            SyncApply::NoOp
        );
        match replica.full_bytes(5) {
            FullQuery::Bytes(b) => assert_eq!(*b, e1.to_bytes()),
            _ => panic!("replica head must serve"),
        }
    }

    #[test]
    fn sync_apply_delta_is_hash_verified_and_chain_faithful() {
        let mut primary = store();
        let mut replica = store();
        let e0 = profile(&[10, 20]);
        primary.insert_full(8, arc_bytes(&e0));
        replica.sync_install_full(8, 0, arc_bytes(&e0));

        let e1 = profile(&[10, 20, 30]);
        primary.append_full(8, &e1).expect("append");
        // Pull the chain off the primary exactly like the replication
        // agent does and apply it.
        let messages = match primary.updates_since(8, 0) {
            DeltaQuery::Chain { messages, .. } => messages,
            _ => panic!("chain expected"),
        };
        for message in &messages {
            let d = ProfileDelta::from_bytes(message).expect("decodes");
            assert!(matches!(
                replica.sync_apply_delta(8, &d),
                SyncApply::Applied { epoch: 1, .. }
            ));
        }
        assert_eq!(replica.head_info(8), primary.head_info(8));
        match replica.full_bytes(8) {
            FullQuery::Bytes(b) => assert_eq!(*b, e1.to_bytes()),
            _ => panic!("replica head must serve"),
        }

        // Replaying the same delta is a no-op; a delta whose base does
        // not match the local head demands a full pull; an unknown log
        // demands a full pull.
        let d1 = ProfileDelta::from_bytes(messages.first().expect("one message"))
            .expect("decodes");
        assert_eq!(replica.sync_apply_delta(8, &d1), SyncApply::NoOp);
        let bogus = ProfileDelta::compute(
            profile(&[1]).iter(),
            profile(&[1, 2]).iter(),
            1,
            2,
            0xdead,
            0xbeef,
        );
        assert_eq!(replica.sync_apply_delta(8, &bogus), SyncApply::NeedFull);
        assert_eq!(replica.sync_apply_delta(99, &d1), SyncApply::NeedFull);
    }

    #[test]
    fn byte_accounting_stays_consistent() {
        let mut s = store();
        let mut current = profile(&(0..64u64).map(|i| i * 3).collect::<Vec<_>>());
        s.insert_full(9, arc_bytes(&current));
        for epoch in 1..=10u64 {
            let mut cells: Vec<u64> = current.iter().collect();
            cells.push(100_000 + epoch);
            cells.retain(|&c| c != (epoch - 1) * 3);
            current = profile(&cells);
            s.append_full(9, &current).expect("append");
            // Recompute ground-truth accounting from scratch.
            let snapshots: usize = {
                let (_, base, _) = s.log_snapshot(9).expect("log");
                let head = match s.full_bytes(9) {
                    FullQuery::Bytes(b) => b,
                    _ => panic!("resident"),
                };
                let base = base.expect("resident");
                if Arc::ptr_eq(&base, &head) {
                    base.len()
                } else {
                    base.len() + head.len()
                }
            };
            assert_eq!(
                s.used_bytes(),
                snapshots + s.chunk_bytes(),
                "epoch {epoch}: accounting drifted"
            );
        }
        assert!(s.used_bytes() <= s.budget_bytes());
    }
}
