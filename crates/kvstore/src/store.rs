//! The store core: a sharded namespace of transactional tables.
//!
//! A [`Store`] owns `shards` independent nonblocking maps (Michael hash
//! table, skiplist, elastic split-ordered table, or transactional cache per
//! shard, transient Medley or durable txMontage backend) plus the
//! [`medley::TxManager`] they all share.  Keys route to shards by one of two
//! fixed formulas, so a multi-key command routinely spans several
//! *distinct* nonblocking structures — and because every structure is an
//! NBTC `Composable` on the same manager, the store simply runs the whole
//! command under one [`medley::ThreadHandle::run_with`] and gets
//! multi-structure atomicity for free.  That is the paper's composition
//! claim turned into the product feature: `TRANSFER` debits one map and
//! credits another in a single M-compare-N-swap commit, `MGETB` is one
//! descriptor-free atomic snapshot across shards, a [`Cmd::Batch`] is a
//! small transaction IR executed failure-atomically, and a [`Cmd::Scan`]
//! walks per-shard ordered cursors inside one transaction and returns an
//! atomically-consistent ordered page.
//!
//! # Partitioning
//!
//! A key's shard is a pure function of the key, the shard count and the
//! store's [`PartitionScheme`] — the enum `STATS` reports on the wire.
//! `Hash` is the stable Fibonacci shard hash every release has shipped
//! (wire-compatible — existing clients' keys keep landing on the same
//! shards); `Range` splits the key space into contiguous ranges over
//! ordered shards, which is what lets `SCAN` answer a *global* range query
//! by visiting only the overlapping shards in key order.  The scheme follows
//! from the [`TableKind`]: `Skip` namespaces are range-partitioned,
//! everything else hashes.  Invalid knob combinations are rejected with a
//! typed [`ConfigError`] instead of silently ignored.
//!
//! # What runs standalone
//!
//! One rule: single-key reads and writes run standalone; whatever composes
//! is a transaction.  `GETB`/`CONTAINS`/`PUTB`/`DELB` are finished when the
//! table operation returns, so they go through [`medley::NonTx`], which
//! monomorphizes the instrumentation away — the service's hot path pays for
//! transactions only when a command needs one.  `CASB` reads and then
//! writes, and the multi-key commands compose, so each of those is one
//! transaction.  On [`TableKind::Cache`] every command is: a cache *op* is
//! itself a composition (lookup + recency record, insert + eviction; see
//! [`crate::cache::TxCache`]).  Either way a command's logic is written
//! once, generic over [`medley::Ctx`], and runs unchanged in both modes.

use crate::cache::TxCache;
use crate::proto::{CacheStats, PartitionScheme, ShardKind, ShardStats, StatsReply, TableStats};
use medley::{AbortReason, RunConfig, ThreadHandle, TxError, TxManager, Txn};
use nbds::{MichaelHashMap, SkipList, SplitOrderedMap};
use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use txmontage::{Durable, DurableHashMap, DurableSkipList, DurableSplitOrderedMap};

/// A typed store command (the request IR; see [`crate::proto`] for the wire
/// encoding).
///
/// Every value is a [`Value`]: `0..=`[`pmem::MAX_VALUE_BYTES`] bytes, where an
/// 8-byte value is canonically a word (see [`pmem::value`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// Membership test (never clones the value).
    Contains(u64),
    /// Move `amount` from one account to another, failure-atomically.
    Transfer {
        /// Debited key.
        from: u64,
        /// Credited key.
        to: u64,
        /// Units to move.
        amount: u64,
    },
    /// A list of single-key commands run as one transaction.
    Batch(Vec<Cmd>),
    /// Look up a key.
    GetB(u64),
    /// Insert or replace a key.
    PutB(u64, Value),
    /// Remove a key.
    DelB(u64),
    /// Compare-and-swap a key's value, byte-exact (fails if absent or
    /// mismatched).
    CasB {
        /// Key to update.
        key: u64,
        /// Value the key must currently hold.
        expected: Value,
        /// Replacement value.
        desired: Value,
    },
    /// Atomic multi-key read: one consistent (read-only transactional)
    /// snapshot of all the keys, across shards.
    MGetB(Vec<u64>),
    /// Atomic multi-key write: all puts commit together or not at all.
    MSetB(Vec<(u64, Value)>),
    /// Ordered range read: up to `limit` `(key, value)` pairs with
    /// `lo <= key < hi`, ascending, as one atomic snapshot (the per-shard
    /// cursors run under a single transaction, so a committed page is a
    /// consistent cut — concurrent transfers can never show through).
    /// Requires a range-partitioned (ordered) namespace, i.e.
    /// [`TableKind::Skip`]; other table kinds report
    /// [`ErrCode::Malformed`].
    Scan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Exclusive upper key bound.
        hi: u64,
        /// Maximum entries in the page (server-clamped to
        /// [`MAX_SCAN_LIMIT`]).
        limit: u32,
    },
}

/// The result of a committed [`Cmd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdOut {
    /// `CONTAINS` outcome.
    Present(bool),
    /// `MSETB` acknowledgement.
    Done,
    /// `TRANSFER`: both post-transfer balances.
    Transferred {
        /// Debited account's balance after the transfer.
        from_after: u64,
        /// Credited account's balance after the transfer.
        to_after: u64,
    },
    /// `BATCH`: one result per command, in order.
    Batch(Vec<CmdOut>),
    /// `GETB`: the value, if present.
    ValueB(Option<Value>),
    /// `PUTB`: the previous value, if any.
    PrevB(Option<Value>),
    /// `DELB`: the removed value, if any.
    RemovedB(Option<Value>),
    /// `CASB` outcome; `current` is the post-operation value.
    CasB {
        /// Whether the swap happened.
        success: bool,
        /// The key's value after the operation (`None` if absent).
        current: Option<Value>,
    },
    /// `MGETB`: one entry per requested key, in request order.
    ValuesB(Vec<Option<Value>>),
    /// `SCAN`: the ordered page, ascending by key.  May be shorter than the
    /// requested limit when the range runs dry or the page hits the byte
    /// budget; either way it is a consistent prefix of the range.
    Page(Vec<(u64, Value)>),
}

/// How a command failed (mapped onto the wire's status byte; see the
/// [`crate::proto`] table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Conflict-aborted past the server's retry budget; safe to resend.
    Retry,
    /// Transaction exceeded descriptor capacity; shrink the batch.
    Capacity,
    /// A `TRANSFER` account does not exist.
    NotFound,
    /// `TRANSFER` source balance below the requested amount, or the credit
    /// would overflow the destination balance (nothing changed either way).
    Insufficient,
    /// Load-shed at admission: the server refused to start the command
    /// because it is over its backlog watermark.  Nothing was executed, so
    /// resending (after a jittered delay) is always safe.
    Overload,
    /// Undecodable request (a retired or unknown opcode included), illegal
    /// `BATCH` member, value over [`pmem::MAX_VALUE_BYTES`], `SCAN` on a
    /// hash-partitioned store, or a `TRANSFER` account whose value is not
    /// a word (nothing changed in any case).
    Malformed,
}

/// Which map implements each shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TableKind {
    /// Michael hash table per shard (O(1) point ops; the default).
    #[default]
    Hash,
    /// Skiplist per shard.  The namespace is **range-partitioned**
    /// (contiguous key ranges over ordered shards), which is what makes
    /// [`Cmd::Scan`] a global ordered query instead of a per-shard one.
    Skip,
    /// Alternate hash/skiplist per shard — every cross-shard command then
    /// composes operations on *different* structure types in one
    /// transaction, the paper's headline trick.  Hash-partitioned (not all
    /// shards are ordered), so `SCAN` is unavailable.
    Mixed,
    /// Split-ordered elastic hash table per shard: each shard boots at
    /// [`ELASTIC_BOOT_BUCKETS`] buckets and doubles its directory on-line as
    /// committed inserts accumulate, so setting
    /// [`StoreConfig::buckets_per_shard`] is a [`ConfigError`] — there is
    /// nothing to tune.  Resizing is infrastructure work that never joins a
    /// command transaction's footprint (see [`nbds::SplitOrderedMap`]).
    Elastic,
    /// Transactional second-chance cache per shard ([`TxCache`]): a hash
    /// map and an MS queue composed so lookup + recency record and insert +
    /// eviction are each ONE transaction.  `capacity` bounds *live entries
    /// across the whole store* (split evenly over shards) and holds in
    /// every committed state.  Transient backend only.
    Cache {
        /// Store-wide live-entry bound (must be ≥ `shards`, so every shard
        /// gets at least one slot).
        capacity: u64,
    },
}

/// Initial bucket count of each [`TableKind::Elastic`] shard.  Deliberately
/// tiny relative to real key counts: the point of the elastic table is that
/// the directory finds its own size under load.
pub const ELASTIC_BOOT_BUCKETS: usize = 256;

/// Bucket count per hash/cache shard when [`StoreConfig::buckets_per_shard`]
/// is left unset.
pub const DEFAULT_BUCKETS_PER_SHARD: usize = 1 << 10;

/// Hard cap on one `SCAN` page's entry count.  Keeps the largest
/// word-valued response comfortably under the 1 MiB frame cap; the byte
/// budget below covers blob-valued pages.  A page is further bounded by the
/// transaction descriptor's read-set capacity (two counted reads per
/// returned entry — the node's link and its value word — in a read set of
/// `2 * medley::MAX_ENTRIES`, so about `MAX_ENTRIES` = 4096 keys): a window
/// too wide to fit atomically reports [`ErrCode::Capacity`] — shrink it and
/// page through.
pub const MAX_SCAN_LIMIT: u32 = 32_768;

/// Byte budget of one `SCAN` page: assembly stops after the entry that
/// crosses it, so a page with maximum-size blob values still fits a frame.
/// The page stays a *prefix* of the range — truncation never costs
/// atomicity.
const MAX_SCAN_BYTES: usize = 512 << 10;

/// Why [`Store::new`] rejected a [`StoreConfig`].
///
/// Meaningless knob combinations are errors, not silently ignored
/// defaults: a config that sets `buckets_per_shard` on an elastic store
/// *believes* it tuned something, and the honest response is to say no.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards == 0`: there is nothing to route keys to.
    NoShards,
    /// `buckets_per_shard == Some(0)`: a hash table needs a bucket.
    ZeroBuckets,
    /// `buckets_per_shard` set for a table kind with no fixed bucket
    /// directory (elastic tables size themselves; skiplists have no
    /// buckets at all).  Carries the kind's name.
    BucketsNotApplicable(&'static str),
    /// [`TableKind::Cache`] with `capacity == 0`: a cache that can hold
    /// nothing.
    CacheNeedsCapacity,
    /// [`TableKind::Cache`] with fewer capacity slots than shards: the
    /// capacity splits across shards and some shard would get zero.
    CacheCapacityBelowShards {
        /// The configured capacity.
        capacity: u64,
        /// The configured shard count.
        shards: usize,
    },
    /// [`TableKind::Cache`] on the durable backend: a cache is
    /// definitionally reconstructible, so persisting one buys nothing and
    /// the combination is almost certainly a mistake.
    DurableCache,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoShards => f.write_str("store needs at least one shard"),
            ConfigError::ZeroBuckets => f.write_str("buckets_per_shard must be nonzero"),
            ConfigError::BucketsNotApplicable(kind) => {
                write!(f, "buckets_per_shard is meaningless for {kind} tables")
            }
            ConfigError::CacheNeedsCapacity => f.write_str("cache tables need a nonzero capacity"),
            ConfigError::CacheCapacityBelowShards { capacity, shards } => write!(
                f,
                "cache capacity {capacity} is below the shard count {shards}"
            ),
            ConfigError::DurableCache => {
                f.write_str("cache tables are transient-only (a cache is reconstructible)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which runtime backs the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// Transient Medley maps (DRAM only).
    #[default]
    Transient,
    /// Durable txMontage maps: every update allocates/retires payload
    /// records in a [`PersistenceDomain`]; `SYNC` takes a durability cut and
    /// recovery returns the last cut's state.
    Durable,
}

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards (tables) the key space hashes over.
    pub shards: usize,
    /// Map type per shard.
    pub tables: TableKind,
    /// Buckets per hash/cache shard, or `None` for
    /// [`DEFAULT_BUCKETS_PER_SHARD`].  Setting it for a kind with no fixed
    /// bucket directory (`Skip`, `Elastic`) is a [`ConfigError`].
    pub buckets_per_shard: Option<usize>,
    /// Transient or durable tables.
    pub backend: StoreBackend,
    /// Conflict-retry budget per command before reporting
    /// [`ErrCode::Retry`] to the client.
    pub max_retries: u64,
    /// Durable mode: period of the background epoch advancer, or `None` to
    /// leave the epoch clock manual (only [`Store::sync`] advances it —
    /// used by restart tests that need a deterministic durability cut).
    pub advancer_period: Option<Duration>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            tables: TableKind::Hash,
            buckets_per_shard: None,
            backend: StoreBackend::Transient,
            max_retries: 256,
            advancer_period: Some(Duration::from_micros(200)),
        }
    }
}

/// One shard's table.  Every variant stores [`Value`]s and operates over the
/// same `TxManager`, which is what lets a single transaction span any mix of
/// them.
enum Table {
    Hash(MichaelHashMap<Value>),
    Skip(SkipList<Value>),
    Elastic(SplitOrderedMap<Value>),
    Cache(TxCache),
    DurableHash(DurableHashMap<Value>),
    DurableSkip(DurableSkipList<Value>),
    DurableElastic(DurableSplitOrderedMap<Value>),
}

macro_rules! on_table {
    ($table:expr, $m:ident => $body:expr) => {
        match $table {
            Table::Hash($m) => $body,
            Table::Skip($m) => $body,
            Table::Elastic($m) => $body,
            Table::Cache($m) => $body,
            Table::DurableHash($m) => $body,
            Table::DurableSkip($m) => $body,
            Table::DurableElastic($m) => $body,
        }
    };
}

impl Table {
    fn get<C: medley::Ctx>(&self, cx: &mut C, key: u64) -> Option<Value> {
        on_table!(self, m => m.get(cx, key))
    }
    fn insert_or_replace<C: medley::Ctx>(&self, cx: &mut C, key: u64, val: Value) -> Option<Value> {
        on_table!(self, m => m.put(cx, key, val))
    }
    fn remove<C: medley::Ctx>(&self, cx: &mut C, key: u64) -> Option<Value> {
        on_table!(self, m => m.remove(cx, key))
    }
    fn contains<C: medley::Ctx>(&self, cx: &mut C, key: u64) -> bool {
        on_table!(self, m => m.contains(cx, key))
    }
    /// Ordered cursor over `bounds` (ordered shards only).  Routing
    /// guarantees only range-partitioned stores get here, and those are
    /// all-skiplist by construction.
    fn range<C: medley::Ctx>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
    ) -> Vec<(u64, Value)> {
        match self {
            Table::Skip(m) => m.range(cx, bounds, limit),
            Table::DurableSkip(m) => m.range(cx, bounds, limit),
            _ => unreachable!("SCAN routed to an unordered shard"),
        }
    }
    /// The shard's entry in the `STATS` table section.  Counts are relaxed
    /// snapshots — consistent enough for capacity monitoring, not a
    /// linearizable size.
    fn shard_stats(&self) -> ShardStats {
        match self {
            Table::Hash(m) => ShardStats {
                kind: ShardKind::Hash,
                items: Some(m.len()),
                buckets: m.bucket_count() as u64,
            },
            Table::DurableHash(m) => ShardStats {
                kind: ShardKind::Hash,
                items: Some(m.inner().len()),
                buckets: m.inner().bucket_count() as u64,
            },
            Table::Skip(_) | Table::DurableSkip(_) => ShardStats {
                kind: ShardKind::Skip,
                items: None,
                buckets: 0,
            },
            Table::Cache(c) => ShardStats {
                kind: ShardKind::Cache,
                items: Some(c.occupancy()),
                buckets: c.bucket_count() as u64,
            },
            Table::Elastic(m) => ShardStats {
                kind: ShardKind::Elastic,
                items: Some(m.len()),
                buckets: m.buckets(),
            },
            Table::DurableElastic(m) => ShardStats {
                kind: ShardKind::Elastic,
                items: Some(m.inner().len()),
                buckets: m.inner().buckets(),
            },
        }
    }
    /// Directory doublings so far (elastic shards; `0` otherwise).
    fn grow_events(&self) -> u64 {
        match self {
            Table::Elastic(m) => m.grow_events(),
            Table::DurableElastic(m) => m.inner().grow_events(),
            _ => 0,
        }
    }
}

impl Cmd {
    /// Whether the command is one single-key read or write, finished when
    /// the table operation returns: such a command runs standalone (except
    /// on cache tables) and is never shed, while every other one is a
    /// transaction (see the module docs).
    pub(crate) fn standalone(&self) -> bool {
        matches!(
            self,
            Cmd::GetB(_) | Cmd::Contains(_) | Cmd::PutB(..) | Cmd::DelB(_)
        )
    }
}

/// The sharded transactional store (see the module docs).
pub struct Store {
    mgr: Arc<TxManager>,
    tables: Vec<Table>,
    scheme: PartitionScheme,
    /// Whether even standalone-eligible commands must run transactionally
    /// (cache stores; see the module docs).
    point_tx: bool,
    domain: Option<Arc<PersistenceDomain>>,
    run_cfg: RunConfig,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shards", &self.tables.len())
            .field("durable", &self.domain.is_some())
            .finish()
    }
}

impl Store {
    /// Builds a store on `mgr`.  Returns the store and, in durable mode with
    /// an [`StoreConfig::advancer_period`], the running [`EpochAdvancer`]
    /// (the caller owns its shutdown so drain order is explicit).  A
    /// meaningless knob combination is a typed [`ConfigError`], never a
    /// silently ignored setting.
    pub fn new(
        mgr: Arc<TxManager>,
        cfg: &StoreConfig,
    ) -> Result<(Self, Option<EpochAdvancer>), ConfigError> {
        Self::validate(cfg)?;
        let buckets = cfg.buckets_per_shard.unwrap_or(DEFAULT_BUCKETS_PER_SHARD);
        let domain = match cfg.backend {
            StoreBackend::Transient => None,
            // Count-only NVM model: the service measures runtime
            // bookkeeping, not simulated Optane stalls.
            StoreBackend::Durable => {
                Some(PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO))
            }
        };
        let tables = (0..cfg.shards)
            .map(|i| {
                let kind = match cfg.tables {
                    TableKind::Hash => ShardKind::Hash,
                    TableKind::Skip => ShardKind::Skip,
                    TableKind::Mixed => {
                        if i % 2 == 1 {
                            ShardKind::Skip
                        } else {
                            ShardKind::Hash
                        }
                    }
                    TableKind::Elastic => ShardKind::Elastic,
                    TableKind::Cache { .. } => ShardKind::Cache,
                };
                match (&domain, kind) {
                    (None, ShardKind::Hash) => Table::Hash(MichaelHashMap::with_buckets(buckets)),
                    (None, ShardKind::Skip) => Table::Skip(SkipList::new()),
                    (None, ShardKind::Elastic) => {
                        Table::Elastic(SplitOrderedMap::with_buckets(ELASTIC_BOOT_BUCKETS))
                    }
                    (None, ShardKind::Cache) => {
                        let TableKind::Cache { capacity } = cfg.tables else {
                            unreachable!("kind chosen from cfg.tables above")
                        };
                        // Split the store-wide capacity exactly: the first
                        // `capacity % shards` shards carry the remainder,
                        // so per-shard bounds sum to `capacity`.
                        let n = cfg.shards as u64;
                        let per_shard = capacity / n + u64::from((i as u64) < capacity % n);
                        Table::Cache(TxCache::new(buckets, per_shard))
                    }
                    (Some(d), ShardKind::Hash) => Table::DurableHash(Durable::new(
                        MichaelHashMap::with_buckets(buckets),
                        Arc::clone(d),
                    )),
                    (Some(d), ShardKind::Skip) => {
                        Table::DurableSkip(Durable::new(SkipList::new(), Arc::clone(d)))
                    }
                    (Some(d), ShardKind::Elastic) => Table::DurableElastic(
                        DurableSplitOrderedMap::split_ordered(ELASTIC_BOOT_BUCKETS, Arc::clone(d)),
                    ),
                    (Some(_), ShardKind::Cache) => {
                        unreachable!("validate rejects durable cache configs")
                    }
                }
            })
            .collect();
        let advancer = match (&domain, cfg.advancer_period) {
            (Some(d), Some(period)) => Some(EpochAdvancer::spawn(Arc::clone(d), period)),
            _ => None,
        };
        Ok((
            Self {
                mgr,
                tables,
                scheme: match cfg.tables {
                    TableKind::Skip => PartitionScheme::Range,
                    _ => PartitionScheme::Hash,
                },
                point_tx: matches!(cfg.tables, TableKind::Cache { .. }),
                domain,
                run_cfg: RunConfig::new()
                    .max_retries(cfg.max_retries)
                    .backoff_limit(8),
            },
            advancer,
        ))
    }

    /// The knob-combination rules behind every [`ConfigError`] variant.
    fn validate(cfg: &StoreConfig) -> Result<(), ConfigError> {
        if cfg.shards == 0 {
            return Err(ConfigError::NoShards);
        }
        match cfg.buckets_per_shard {
            Some(0) => return Err(ConfigError::ZeroBuckets),
            Some(_) => match cfg.tables {
                TableKind::Elastic => return Err(ConfigError::BucketsNotApplicable("elastic")),
                TableKind::Skip => return Err(ConfigError::BucketsNotApplicable("skiplist")),
                TableKind::Hash | TableKind::Mixed | TableKind::Cache { .. } => {}
            },
            None => {}
        }
        if let TableKind::Cache { capacity } = cfg.tables {
            if capacity == 0 {
                return Err(ConfigError::CacheNeedsCapacity);
            }
            if capacity < cfg.shards as u64 {
                return Err(ConfigError::CacheCapacityBelowShards {
                    capacity,
                    shards: cfg.shards,
                });
            }
            if cfg.backend == StoreBackend::Durable {
                return Err(ConfigError::DurableCache);
            }
        }
        Ok(())
    }

    /// The transaction manager all shards share.
    pub fn manager(&self) -> &Arc<TxManager> {
        &self.mgr
    }

    /// The persistence domain (durable stores only).
    pub fn domain(&self) -> Option<&Arc<PersistenceDomain>> {
        self.domain.as_ref()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.tables.len()
    }

    /// The shard `key` routes to (always `< shards`) — the single routing
    /// decision every command (point, multi-key and range) goes through.
    /// Both formulas are a compatibility contract: changing one would
    /// silently re-home existing clients' keys.
    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        let shards = self.tables.len();
        match self.scheme {
            // Fibonacci hash, so dense *and* strided key patterns both
            // spread (a plain `key % shards` would pin every client that
            // strides by the shard count onto one table).
            PartitionScheme::Hash => {
                let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                (h % shards as u64) as usize
            }
            // Shard `i` owns keys `k` with `i·2⁶⁴ ≤ k·n < (i+1)·2⁶⁴` for `n`
            // shards: a division-free split of the full `u64` space that is
            // monotone in `k`, so shard order *is* key order and a range
            // query touches only the shards its window overlaps.
            PartitionScheme::Range => ((key as u128 * shards as u128) >> 64) as usize,
        }
    }

    #[inline]
    fn table(&self, key: u64) -> &Table {
        &self.tables[self.shard_of(key)]
    }

    /// Runs `body` as one transaction under the store's retry budget.  An
    /// `Err` from the body aborts it explicitly, so nothing it wrote
    /// commits, and comes back as the command's error; a lost conflict is
    /// retried here and only the budget running out reaches the client.
    fn tx(
        &self,
        h: &mut ThreadHandle,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<CmdOut, ErrCode>,
    ) -> Result<CmdOut, ErrCode> {
        let mut why = ErrCode::Retry;
        h.run_with(&self.run_cfg, |t| {
            body(t).map_err(|e| {
                why = e;
                t.abort(AbortReason::Explicit)
            })
        })
        .map_err(|e| match e {
            TxError::Explicit => why,
            TxError::CapacityExceeded => ErrCode::Capacity,
            // `RetriesExhausted`; `Conflict` never leaves the retry loop.
            _ => ErrCode::Retry,
        })
    }

    /// One single-key command in whichever context the caller is in: the
    /// only definition of `GETB`/`PUTB`/`DELB`/`CASB`/`CONTAINS`.
    fn single<C: medley::Ctx>(&self, cx: &mut C, cmd: &Cmd) -> Result<CmdOut, ErrCode> {
        match cmd {
            Cmd::GetB(k) => Ok(CmdOut::ValueB(self.table(*k).get(cx, *k))),
            Cmd::PutB(k, v) => {
                Self::check_len(v)?;
                let prev = self.table(*k).insert_or_replace(cx, *k, v.clone());
                Ok(CmdOut::PrevB(prev))
            }
            Cmd::DelB(k) => Ok(CmdOut::RemovedB(self.table(*k).remove(cx, *k))),
            Cmd::Contains(k) => Ok(CmdOut::Present(self.table(*k).contains(cx, *k))),
            Cmd::CasB {
                key,
                expected,
                desired,
            } => {
                Self::check_len(desired)?;
                let table = self.table(*key);
                let mut current = table.get(cx, *key);
                let success = current.as_ref() == Some(expected);
                if success {
                    table.insert_or_replace(cx, *key, desired.clone());
                    current = Some(desired.clone());
                }
                Ok(CmdOut::CasB { success, current })
            }
            // Not a single-key command, so an illegal `BATCH` member (the
            // codec refuses these on the wire; in-process callers hear it here).
            _ => Err(ErrCode::Malformed),
        }
    }

    /// Executes one command through `h` (see the module docs for which
    /// commands run standalone and which as one transaction).
    pub fn exec(&self, h: &mut ThreadHandle, cmd: &Cmd) -> Result<CmdOut, ErrCode> {
        match cmd {
            _ if cmd.standalone() && !self.point_tx => self.single(&mut h.nontx(), cmd),
            Cmd::Batch(cmds) => self.tx(h, |t| {
                let outs = cmds.iter().map(|c| self.single(t, c));
                Ok(CmdOut::Batch(outs.collect::<Result<_, _>>()?))
            }),
            Cmd::MGetB(keys) => self.tx(h, |t| {
                let vals = keys.iter().map(|&k| self.table(k).get(t, k));
                Ok(CmdOut::ValuesB(vals.collect()))
            }),
            Cmd::MSetB(pairs) => self.tx(h, |t| {
                for (k, v) in pairs {
                    Self::check_len(v)?;
                    self.table(*k).insert_or_replace(t, *k, v.clone());
                }
                Ok(CmdOut::Done)
            }),
            Cmd::Transfer { from, to, amount } => self.tx(h, |t| {
                // A balance is a word; an account holding any other value
                // is `Malformed`.
                let mut balance = |k: u64| {
                    let v = self.table(k).get(t, k).ok_or(ErrCode::NotFound)?;
                    v.as_u64().ok_or(ErrCode::Malformed)
                };
                let (a, b) = (balance(*from)?, balance(*to)?);
                let debited = a.checked_sub(*amount).ok_or(ErrCode::Insufficient)?;
                let (from_after, to_after) = if from == to {
                    // A self-transfer is a (possibly failing) balance probe.
                    (a, a)
                } else {
                    // The credit side must be guarded too: an unchecked
                    // `b + amount` is wire-reachable overflow (worker panic
                    // under debug overflow checks, silently wrapped — i.e.
                    // destroyed — balance in release).
                    let credited = b.checked_add(*amount).ok_or(ErrCode::Insufficient)?;
                    self.table(*from)
                        .insert_or_replace(t, *from, Value::U64(debited));
                    self.table(*to)
                        .insert_or_replace(t, *to, Value::U64(credited));
                    (debited, credited)
                };
                Ok(CmdOut::Transferred {
                    from_after,
                    to_after,
                })
            }),
            Cmd::Scan { lo, hi, limit } => {
                if self.scheme != PartitionScheme::Range {
                    // A hash-partitioned namespace scatters the window over
                    // every shard with no order to merge by; only ordered,
                    // range-partitioned stores answer global range queries.
                    return Err(ErrCode::Malformed);
                }
                let limit = (*limit).min(MAX_SCAN_LIMIT) as usize;
                if *lo >= *hi || limit == 0 {
                    return Ok(CmdOut::Page(Vec::new()));
                }
                // Contiguous ranges: only the shards the window overlaps,
                // visited in ascending order, so concatenation IS the sort.
                let shards = &self.tables[self.shard_of(*lo)..=self.shard_of(*hi - 1)];
                self.tx(h, |t| {
                    let mut page: Vec<(u64, Value)> = Vec::new();
                    let mut bytes = 0usize;
                    'shards: for table in shards {
                        if page.len() >= limit {
                            break;
                        }
                        for (k, v) in table.range(t, *lo..*hi, limit - page.len()) {
                            bytes += 16 + v.byte_len();
                            page.push((k, v));
                            if bytes > MAX_SCAN_BYTES {
                                break 'shards;
                            }
                        }
                    }
                    Ok(CmdOut::Page(page))
                })
            }
            // `CASB` (a read, then a write), and every single-key command on
            // cache tables.
            _ => self.tx(h, |t| self.single(t, cmd)),
        }
    }

    /// Rejects over-limit blob values before any table is touched.
    #[inline]
    fn check_len(v: &Value) -> Result<(), ErrCode> {
        if v.byte_len() > pmem::MAX_VALUE_BYTES {
            Err(ErrCode::Malformed)
        } else {
            Ok(())
        }
    }

    /// Aggregated statistics (the `STATS` admin command).  `h` is the
    /// calling worker's handle: its local tallies are flushed first so the
    /// snapshot includes at least everything this worker completed.
    pub fn stats(&self, h: &mut ThreadHandle) -> StatsReply {
        h.flush_stats();
        // Aggregate cache tallies over the cache shards (absent section for
        // stores without cache tables, like the other optional sections).
        let mut cache: Option<CacheStats> = None;
        for t in &self.tables {
            if let Table::Cache(c) = t {
                let (hits, misses, evictions) = c.counters().snapshot();
                let agg = cache.get_or_insert_with(CacheStats::default);
                agg.hits += hits;
                agg.misses += misses;
                agg.evictions += evictions;
            }
        }
        StatsReply {
            // A bare store has no start instant; the server stamps uptime
            // when it answers `STATS`.
            uptime_secs: 0,
            tx: self.mgr.stats_snapshot(),
            domain: self.domain.as_ref().map(|d| d.stats()),
            // Admission control and the event loop live in the server; a
            // bare store has neither.
            load: None,
            events: None,
            tables: Some(TableStats {
                grow_events: self.tables.iter().map(Table::grow_events).sum(),
                partition: self.scheme,
                cache,
                shards: self.tables.iter().map(Table::shard_stats).collect(),
            }),
        }
    }

    /// Durability cut (the `SYNC` admin command): on a durable store, every
    /// operation completed before the call is recoverable afterwards
    /// (nbMontage's wait-free sync — epoch advances plus write-back, never
    /// blocking concurrent updaters).  Returns the persisted epoch of the
    /// cut; a transient store is a no-op reporting epoch 0.
    pub fn sync(&self) -> u64 {
        match &self.domain {
            Some(d) => {
                d.sync();
                d.stats().persisted_epoch
            }
            None => 0,
        }
    }

    /// Simulated post-crash recovery of a durable store: the key/value map
    /// as of the last durability horizon (union over all shards, which
    /// share one domain).  Transient stores recover empty.
    pub fn recover(&self) -> HashMap<u64, Value> {
        match &self.domain {
            Some(d) => d.recover(),
            None => HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cfg: &StoreConfig) -> (Arc<TxManager>, Store, Option<EpochAdvancer>) {
        let mgr = TxManager::with_max_threads(16);
        let (s, adv) = Store::new(Arc::clone(&mgr), cfg).expect("valid test config");
        (mgr, s, adv)
    }

    /// Routing is a compatibility contract: a client's keys must keep
    /// landing on the same shards, so both formulas are pinned to literals.
    #[test]
    fn routing_is_pinned_for_both_schemes() {
        let s = u64::MAX / 5;
        #[rustfmt::skip]
        let keys = [
            0, 1, u64::MAX,             // the ends of the key space
            8, 16, 24, 32,              // strided by a shard count
            s, 2 * s, 3 * s, 4 * s,     // strided across the whole space
            1000, 1001, 1002, 1003,     // dense
        ];
        #[rustfmt::skip]
        let pinned: [(TableKind, usize, [usize; 15]); 6] = [
            (TableKind::Hash, 1, [0; 15]),
            (TableKind::Skip, 1, [0; 15]),
            (TableKind::Hash, 3, [0, 0, 0, 2, 1, 0, 2, 2, 0, 1, 2, 2, 2, 2, 2]),
            (TableKind::Skip, 3, [0, 0, 2, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, 0]),
            (TableKind::Hash, 8, [0, 1, 6, 3, 7, 3, 7, 6, 4, 2, 0, 1, 2, 4, 5]),
            (TableKind::Skip, 8, [0, 0, 7, 0, 0, 0, 0, 1, 3, 4, 6, 0, 0, 0, 0]),
        ];
        for (tables, shards, want) in pinned {
            let cfg = StoreConfig {
                tables,
                shards,
                ..Default::default()
            };
            let (_mgr, s, _adv) = store(&cfg);
            let got = keys.map(|k| {
                let routed = s.table(k);
                s.tables.iter().position(|t| std::ptr::eq(t, routed))
            });
            assert_eq!(got, want.map(Some), "{:?} x {shards}", cfg.tables);
        }
    }

    #[test]
    fn single_key_commands_roundtrip() {
        for tables in [
            TableKind::Hash,
            TableKind::Skip,
            TableKind::Mixed,
            TableKind::Elastic,
        ] {
            let cfg = StoreConfig {
                tables,
                shards: 4,
                ..Default::default()
            };
            let (mgr, s, _adv) = store(&cfg);
            let mut h = mgr.register();
            let put = |v| Cmd::PutB(1, Value::U64(v));
            let had = |v| Ok(CmdOut::PrevB(Some(Value::U64(v))));
            assert_eq!(s.exec(&mut h, &Cmd::GetB(1)), Ok(CmdOut::ValueB(None)));
            assert_eq!(s.exec(&mut h, &put(10)), Ok(CmdOut::PrevB(None)));
            assert_eq!(s.exec(&mut h, &put(11)), had(10));
            assert_eq!(
                s.exec(&mut h, &Cmd::GetB(1)),
                Ok(CmdOut::ValueB(Some(Value::U64(11))))
            );
            assert_eq!(s.exec(&mut h, &Cmd::Contains(1)), Ok(CmdOut::Present(true)));
            assert_eq!(
                s.exec(&mut h, &Cmd::DelB(1)),
                Ok(CmdOut::RemovedB(Some(Value::U64(11))))
            );
            assert_eq!(
                s.exec(&mut h, &Cmd::Contains(1)),
                Ok(CmdOut::Present(false))
            );
        }
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let (mgr, s, _adv) = store(&StoreConfig::default());
        let mut h = mgr.register();
        let cas = |expected, desired| Cmd::CasB {
            key: 5,
            expected: Value::U64(expected),
            desired: Value::U64(desired),
        };
        let miss = s.exec(&mut h, &cas(0, 1));
        assert_eq!(
            miss,
            Ok(CmdOut::CasB {
                success: false,
                current: None
            })
        );
        s.exec(&mut h, &Cmd::PutB(5, Value::U64(50))).unwrap();
        let hit = s.exec(&mut h, &cas(50, 51));
        assert_eq!(
            hit,
            Ok(CmdOut::CasB {
                success: true,
                current: Some(Value::U64(51))
            })
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::GetB(5)),
            Ok(CmdOut::ValueB(Some(Value::U64(51))))
        );
    }

    #[test]
    fn multikey_commands_span_shards_atomically() {
        // Mixed tables: keys land on hash *and* skiplist shards, so these
        // transactions compose different structure types.
        let cfg = StoreConfig {
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        let pairs: Vec<(u64, Value)> = (0..32).map(|k| (k, Value::U64(1000))).collect();
        assert_eq!(s.exec(&mut h, &Cmd::MSetB(pairs.clone())), Ok(CmdOut::Done));
        let keys: Vec<u64> = pairs.iter().map(|(k, _)| *k).collect();
        let got = s.exec(&mut h, &Cmd::MGetB(keys)).unwrap();
        assert_eq!(got, CmdOut::ValuesB(vec![Some(Value::U64(1000)); 32]));

        let t = s
            .exec(
                &mut h,
                &Cmd::Transfer {
                    from: 0,
                    to: 1,
                    amount: 400,
                },
            )
            .unwrap();
        assert_eq!(
            t,
            CmdOut::Transferred {
                from_after: 600,
                to_after: 1400
            }
        );
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::Transfer {
                    from: 0,
                    to: 1,
                    amount: 601,
                },
            ),
            Err(ErrCode::Insufficient)
        );
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::Transfer {
                    from: 999,
                    to: 1,
                    amount: 1,
                },
            ),
            Err(ErrCode::NotFound)
        );
        // A self-transfer is a balance probe under the same rules.
        let probe = |amount| Cmd::Transfer {
            from: 0,
            to: 0,
            amount,
        };
        assert_eq!(
            s.exec(&mut h, &probe(600)),
            Ok(CmdOut::Transferred {
                from_after: 600,
                to_after: 600
            })
        );
        assert_eq!(s.exec(&mut h, &probe(601)), Err(ErrCode::Insufficient));
        // Failed transfers and probes changed nothing.
        let got = s.exec(&mut h, &Cmd::MGetB(vec![0, 1])).unwrap();
        let want = [600, 1400].map(|v| Some(Value::U64(v)));
        assert_eq!(got, CmdOut::ValuesB(want.to_vec()));
    }

    #[test]
    fn batch_runs_as_one_transaction() {
        let (mgr, s, _adv) = store(&StoreConfig::default());
        let mut h = mgr.register();
        s.exec(&mut h, &Cmd::PutB(1, Value::U64(10))).unwrap();
        let out = s
            .exec(
                &mut h,
                &Cmd::Batch(vec![
                    Cmd::GetB(1),
                    Cmd::PutB(2, Value::U64(20)),
                    Cmd::CasB {
                        key: 1,
                        expected: Value::U64(10),
                        desired: Value::U64(12),
                    },
                    Cmd::DelB(1),
                ]),
            )
            .unwrap();
        assert_eq!(
            out,
            CmdOut::Batch(vec![
                CmdOut::ValueB(Some(Value::U64(10))),
                CmdOut::PrevB(None),
                CmdOut::CasB {
                    success: true,
                    current: Some(Value::U64(12))
                },
                CmdOut::RemovedB(Some(Value::U64(12))),
            ])
        );
        // Multi-key commands are rejected inside a batch.
        assert_eq!(
            s.exec(&mut h, &Cmd::Batch(vec![Cmd::MGetB(vec![1])])),
            Err(ErrCode::Malformed)
        );
        h.flush_stats();
        assert!(mgr.stats_snapshot().general_commits >= 1);
    }

    #[test]
    fn elastic_store_grows_under_load_and_reports_it() {
        let cfg = StoreConfig {
            tables: TableKind::Elastic,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        // Enough keys to push every shard's load factor over the threshold
        // several times over (4 shards × 256 boot buckets × factor 4).
        let n: u64 = 40_000;
        for chunk in (0..n).collect::<Vec<_>>().chunks(512) {
            let pairs = chunk.iter().map(|&k| (k, Value::U64(k + 1))).collect();
            assert_eq!(s.exec(&mut h, &Cmd::MSetB(pairs)), Ok(CmdOut::Done));
        }
        for k in [0, 1, n / 2, n - 1] {
            assert_eq!(
                s.exec(&mut h, &Cmd::GetB(k)),
                Ok(CmdOut::ValueB(Some(Value::U64(k + 1))))
            );
        }
        let stats = s.stats(&mut h);
        let tables = stats.tables.expect("store stats always carry tables");
        assert_eq!(tables.shards.len(), 4);
        assert!(
            tables.grow_events > 0,
            "40k inserts into 4×256 boot buckets must double directories"
        );
        let mut items_total = 0;
        for sh in &tables.shards {
            assert_eq!(sh.kind, ShardKind::Elastic);
            assert!(
                sh.buckets > ELASTIC_BOOT_BUCKETS as u64,
                "shard still at boot size: {} buckets",
                sh.buckets
            );
            items_total += sh.items.expect("elastic shards maintain a counter");
        }
        assert_eq!(items_total, n, "per-shard counters must sum to key count");
    }

    #[test]
    fn stats_tables_section_reflects_table_kinds() {
        let cfg = StoreConfig {
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        s.exec(
            &mut h,
            &Cmd::MSetB((0..64).map(|k| (k, Value::U64(k))).collect()),
        )
        .unwrap();
        let tables = s.stats(&mut h).tables.unwrap();
        assert_eq!(tables.grow_events, 0, "fixed tables never grow");
        assert_eq!(tables.shards.len(), 4);
        let hash_items: u64 = tables
            .shards
            .iter()
            .filter(|sh| sh.kind == ShardKind::Hash)
            .map(|sh| {
                assert!(sh.buckets > 0);
                sh.items.expect("hash shards maintain a counter")
            })
            .sum();
        assert!(hash_items > 0, "some keys must land on hash shards");
        for sh in tables.shards.iter().filter(|sh| sh.kind == ShardKind::Skip) {
            assert_eq!(sh.items, None);
            assert_eq!(sh.buckets, 0);
        }
    }

    #[test]
    fn durable_elastic_store_syncs_and_recovers() {
        let cfg = StoreConfig {
            backend: StoreBackend::Durable,
            advancer_period: None,
            tables: TableKind::Elastic,
            shards: 2,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        let n: u64 = 8_192;
        for chunk in (0..n).collect::<Vec<_>>().chunks(512) {
            let pairs = chunk.iter().map(|&k| (k, Value::U64(k * 2))).collect();
            s.exec(&mut h, &Cmd::MSetB(pairs)).unwrap();
        }
        let tables = s.stats(&mut h).tables.unwrap();
        assert!(
            tables.grow_events > 0,
            "durable elastic shards must grow too"
        );
        s.sync();
        let rec = s.recover();
        assert_eq!(rec.len(), n as usize);
        assert_eq!(rec.get(&100), Some(&Value::U64(200)));
    }

    #[test]
    fn blob_commands_roundtrip_and_interoperate_with_words() {
        let (mgr, s, _adv) = store(&StoreConfig::default());
        let mut h = mgr.register();
        let blob = Value::from_bytes(b"hello, variable-length world");
        let big = Value::from_bytes(&vec![0xAB; 4096]);
        // Blob roundtrip.
        assert_eq!(
            s.exec(&mut h, &Cmd::PutB(1, blob.clone())),
            Ok(CmdOut::PrevB(None))
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::GetB(1)),
            Ok(CmdOut::ValueB(Some(blob.clone())))
        );
        // Word/blob interop: an exactly-8-byte blob IS the word.
        s.exec(&mut h, &Cmd::PutB(2, Value::U64(42))).unwrap();
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::PutB(2, Value::from_bytes(&43u64.to_le_bytes()))
            ),
            Ok(CmdOut::PrevB(Some(Value::U64(42))))
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::GetB(2)),
            Ok(CmdOut::ValueB(Some(Value::U64(43))))
        );
        // A transfer balance is a word: over a blob it is Malformed.
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::Transfer {
                    from: 1,
                    to: 2,
                    amount: 1
                }
            ),
            Err(ErrCode::Malformed)
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::GetB(1)),
            Ok(CmdOut::ValueB(Some(blob.clone())))
        );
        // Blob CAS is byte-exact.
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::CasB {
                    key: 1,
                    expected: Value::from_bytes(b"wrong"),
                    desired: big.clone(),
                }
            ),
            Ok(CmdOut::CasB {
                success: false,
                current: Some(blob.clone())
            })
        );
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::CasB {
                    key: 1,
                    expected: blob.clone(),
                    desired: big.clone(),
                }
            ),
            Ok(CmdOut::CasB {
                success: true,
                current: Some(big.clone())
            })
        );
        // Multi-key blob ops and mixed batches.
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::MSetB(vec![(10, Value::from_bytes(b"abc")), (11, Value::U64(7))])
            ),
            Ok(CmdOut::Done)
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::MGetB(vec![10, 11, 12])),
            Ok(CmdOut::ValuesB(vec![
                Some(Value::from_bytes(b"abc")),
                Some(Value::U64(7)),
                None
            ]))
        );
        let out = s
            .exec(
                &mut h,
                &Cmd::Batch(vec![
                    Cmd::GetB(10),
                    Cmd::PutB(12, Value::from_bytes(b"xyz")),
                    Cmd::DelB(11),
                    Cmd::DelB(10),
                ]),
            )
            .unwrap();
        assert_eq!(
            out,
            CmdOut::Batch(vec![
                CmdOut::ValueB(Some(Value::from_bytes(b"abc"))),
                CmdOut::PrevB(None),
                CmdOut::RemovedB(Some(Value::U64(7))),
                CmdOut::RemovedB(Some(Value::from_bytes(b"abc"))),
            ])
        );
        // A member that fails inside a batch aborts the whole batch.
        let oversized = Value::Bytes(vec![0u8; pmem::MAX_VALUE_BYTES + 1].into());
        let batch = vec![
            Cmd::PutB(20, Value::U64(1)),
            Cmd::PutB(21, oversized.clone()),
        ];
        assert_eq!(s.exec(&mut h, &Cmd::Batch(batch)), Err(ErrCode::Malformed));
        assert_eq!(
            s.exec(&mut h, &Cmd::Contains(20)),
            Ok(CmdOut::Present(false))
        );
        // Over-limit values are rejected up front.
        assert_eq!(
            s.exec(&mut h, &Cmd::PutB(30, oversized)),
            Err(ErrCode::Malformed)
        );
    }

    #[test]
    fn durable_blob_store_syncs_and_recovers() {
        let cfg = StoreConfig {
            backend: StoreBackend::Durable,
            advancer_period: None,
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        let blob = Value::from_bytes(&vec![9u8; 1000]);
        s.exec(&mut h, &Cmd::PutB(1, blob.clone())).unwrap();
        s.exec(&mut h, &Cmd::PutB(2, Value::U64(22))).unwrap();
        s.sync();
        let rec = s.recover();
        assert_eq!(rec.get(&1), Some(&blob));
        assert_eq!(rec.get(&2), Some(&Value::U64(22)));
    }

    #[test]
    fn durable_store_survives_via_sync_and_recover() {
        let cfg = StoreConfig {
            backend: StoreBackend::Durable,
            advancer_period: None,
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, adv) = store(&cfg);
        assert!(
            adv.is_none(),
            "manual epoch mode must not spawn an advancer"
        );
        let mut h = mgr.register();
        let pairs = [(1, 10), (2, 20), (3, 30)].map(|(k, v)| (k, Value::U64(v)));
        s.exec(&mut h, &Cmd::MSetB(pairs.to_vec())).unwrap();
        assert!(s.recover().is_empty(), "nothing durable before the sync");
        let epoch = s.sync();
        assert!(epoch >= 1, "sync must move the durability horizon: {epoch}");
        let rec = s.recover();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.get(&2), Some(&Value::U64(20)));
        // Un-synced later writes are not in the cut.
        s.exec(&mut h, &Cmd::PutB(4, Value::U64(40))).unwrap();
        assert_eq!(s.recover().len(), 3);
    }

    #[test]
    fn config_validation_is_typed_and_total() {
        fn reject(cfg: StoreConfig) -> ConfigError {
            let mgr = TxManager::with_max_threads(2);
            Store::new(mgr, &cfg)
                .err()
                .expect("config must be rejected")
        }
        assert_eq!(
            reject(StoreConfig {
                shards: 0,
                ..Default::default()
            }),
            ConfigError::NoShards
        );
        assert_eq!(
            reject(StoreConfig {
                buckets_per_shard: Some(0),
                ..Default::default()
            }),
            ConfigError::ZeroBuckets
        );
        // The knob elastic stores used to silently ignore is now refused.
        assert_eq!(
            reject(StoreConfig {
                tables: TableKind::Elastic,
                buckets_per_shard: Some(1),
                ..Default::default()
            }),
            ConfigError::BucketsNotApplicable("elastic")
        );
        assert_eq!(
            reject(StoreConfig {
                tables: TableKind::Skip,
                buckets_per_shard: Some(8),
                ..Default::default()
            }),
            ConfigError::BucketsNotApplicable("skiplist")
        );
        assert_eq!(
            reject(StoreConfig {
                tables: TableKind::Cache { capacity: 0 },
                ..Default::default()
            }),
            ConfigError::CacheNeedsCapacity
        );
        assert_eq!(
            reject(StoreConfig {
                tables: TableKind::Cache { capacity: 4 },
                shards: 8,
                ..Default::default()
            }),
            ConfigError::CacheCapacityBelowShards {
                capacity: 4,
                shards: 8
            }
        );
        assert_eq!(
            reject(StoreConfig {
                tables: TableKind::Cache { capacity: 64 },
                backend: StoreBackend::Durable,
                ..Default::default()
            }),
            ConfigError::DurableCache
        );
        // The knob still works where it applies.
        let mgr = TxManager::with_max_threads(2);
        assert!(Store::new(
            mgr,
            &StoreConfig {
                buckets_per_shard: Some(32),
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn scan_returns_ordered_pages_matching_a_model() {
        let cfg = StoreConfig {
            tables: TableKind::Skip,
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        // Stride keys across the whole u64 space so the range partition
        // spreads them over every shard.
        let stride = u64::MAX / 256;
        let mut model = std::collections::BTreeMap::new();
        for i in 0..256u64 {
            let k = i.wrapping_mul(stride);
            s.exec(&mut h, &Cmd::PutB(k, Value::U64(i))).unwrap();
            model.insert(k, i);
        }
        let page = |s: &Store, h: &mut ThreadHandle, lo, hi, limit| match s
            .exec(h, &Cmd::Scan { lo, hi, limit })
            .unwrap()
        {
            CmdOut::Page(p) => p,
            other => panic!("scan returned {other:?}"),
        };
        // Full-space window.
        let got = page(&s, &mut h, 0, u64::MAX, 1000);
        let want: Vec<(u64, Value)> = model.iter().map(|(&k, &v)| (k, Value::U64(v))).collect();
        assert_eq!(got, want);
        // A window crossing shard boundaries, with limit truncation.
        let (lo, hi) = (60 * stride, 200 * stride);
        let got = page(&s, &mut h, lo, hi, 17);
        let want: Vec<(u64, Value)> = model
            .range(lo..hi)
            .take(17)
            .map(|(&k, &v)| (k, Value::U64(v)))
            .collect();
        assert_eq!(got.len(), 17);
        assert_eq!(got, want);
        // Empty, inverted, and zero-limit windows are empty pages.
        assert!(page(&s, &mut h, 5, 5, 10).is_empty());
        assert!(page(&s, &mut h, 10, 5, 10).is_empty());
        assert!(page(&s, &mut h, 0, u64::MAX, 0).is_empty());
        // Hash-partitioned namespaces cannot answer a global range query.
        let (mgr2, s2, _adv2) = store(&StoreConfig::default());
        let mut h2 = mgr2.register();
        assert_eq!(
            s2.exec(
                &mut h2,
                &Cmd::Scan {
                    lo: 0,
                    hi: 100,
                    limit: 10
                }
            ),
            Err(ErrCode::Malformed)
        );
        // And SCAN is not a legal batch member.
        assert_eq!(
            s.exec(
                &mut h,
                &Cmd::Batch(vec![Cmd::Scan {
                    lo: 0,
                    hi: 1,
                    limit: 1
                }])
            ),
            Err(ErrCode::Malformed)
        );
    }

    #[test]
    fn scan_works_on_the_durable_backend() {
        let cfg = StoreConfig {
            tables: TableKind::Skip,
            backend: StoreBackend::Durable,
            advancer_period: None,
            shards: 2,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        let stride = u64::MAX / 64;
        for i in 0..64u64 {
            s.exec(&mut h, &Cmd::PutB(i * stride, Value::U64(i)))
                .unwrap();
        }
        match s
            .exec(
                &mut h,
                &Cmd::Scan {
                    lo: 10 * stride,
                    hi: 20 * stride,
                    limit: 100,
                },
            )
            .unwrap()
        {
            CmdOut::Page(p) => {
                let want: Vec<(u64, Value)> =
                    (10..20).map(|i| (i * stride, Value::U64(i))).collect();
                assert_eq!(p, want);
            }
            other => panic!("scan returned {other:?}"),
        }
        assert_eq!(
            s.stats(&mut h).tables.unwrap().partition,
            PartitionScheme::Range
        );
    }

    #[test]
    fn oversized_mset_and_scan_report_capacity_and_store_nothing() {
        // Two more distinct keys than a descriptor has entries.
        let n = medley::MAX_ENTRIES as u64 + 2;
        let pairs: Vec<(u64, Value)> = (0..n).map(|k| (k, Value::U64(k))).collect();
        let (mgr, s, _adv) = store(&StoreConfig::default());
        let mut h = mgr.register();
        assert_eq!(
            s.exec(&mut h, &Cmd::MSetB(pairs.clone())),
            Err(ErrCode::Capacity)
        );
        assert_eq!(
            s.exec(&mut h, &Cmd::MGetB((0..64).collect())),
            Ok(CmdOut::ValuesB(vec![None; 64])),
            "an MSETB that cannot commit leaves no key behind"
        );
        let stats = s.stats(&mut h);
        assert_eq!(stats.tx.capacity_aborts, 1);
        assert_eq!(stats.tables.unwrap().shards[0].items, Some(0));

        // Stored one by one the same keys fit; a page of all of them needs
        // two counted reads each, of twice `MAX_ENTRIES`.
        let cfg = StoreConfig {
            tables: TableKind::Skip,
            shards: 2,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        for (k, v) in &pairs {
            s.exec(&mut h, &Cmd::PutB(*k, v.clone())).unwrap();
        }
        let scan = |limit| Cmd::Scan {
            lo: 0,
            hi: u64::MAX,
            limit,
        };
        assert_eq!(
            s.exec(&mut h, &scan(MAX_SCAN_LIMIT)),
            Err(ErrCode::Capacity)
        );
        assert_eq!(
            s.exec(&mut h, &scan(8)),
            Ok(CmdOut::Page(pairs[..8].to_vec()))
        );
        assert_eq!(s.stats(&mut h).tx.capacity_aborts, 1);
    }

    #[test]
    fn cache_store_holds_capacity_and_tallies_hits() {
        let cfg = StoreConfig {
            tables: TableKind::Cache { capacity: 64 },
            shards: 4,
            ..Default::default()
        };
        let (mgr, s, _adv) = store(&cfg);
        let mut h = mgr.register();
        for k in 0..500u64 {
            s.exec(&mut h, &Cmd::PutB(k, Value::U64(k))).unwrap();
        }
        // The most recent key is still cached; the first admitted is long
        // evicted (no hits so far, so eviction ran pure FIFO).
        assert_eq!(
            s.exec(&mut h, &Cmd::GetB(499)),
            Ok(CmdOut::ValueB(Some(Value::U64(499))))
        );
        assert_eq!(s.exec(&mut h, &Cmd::GetB(0)), Ok(CmdOut::ValueB(None)));
        let tables = s.stats(&mut h).tables.unwrap();
        assert_eq!(tables.partition, PartitionScheme::Hash);
        let cache = tables.cache.expect("cache stores report cache tallies");
        assert!(cache.evictions >= 500 - 64);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        let live: u64 = tables
            .shards
            .iter()
            .map(|sh| {
                assert_eq!(sh.kind, ShardKind::Cache);
                assert!(sh.buckets > 0);
                sh.items.expect("cache shards track occupancy")
            })
            .sum();
        assert!(live <= 64, "live entries {live} exceed the capacity");
        // Multi-key and batch commands compose over cache shards too.
        assert_eq!(
            s.exec(&mut h, &Cmd::MGetB(vec![499, 0])),
            Ok(CmdOut::ValuesB(vec![Some(Value::U64(499)), None]))
        );
        let batch = vec![Cmd::PutB(1000, Value::U64(1)), Cmd::GetB(1000)];
        assert_eq!(
            s.exec(&mut h, &Cmd::Batch(batch)),
            Ok(CmdOut::Batch(vec![
                CmdOut::PrevB(None),
                CmdOut::ValueB(Some(Value::U64(1)))
            ]))
        );
    }
}
