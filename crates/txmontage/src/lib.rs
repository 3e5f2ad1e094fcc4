//! # txMontage — persistent ACID transactions = Medley ⊕ nbMontage
//!
//! txMontage (paper Sec. 4) grafts the nbMontage epoch system onto Medley:
//! the persistence epoch is read at `begin` and validated as part of the
//! M-compare-N-swap commit, so all operations of a transaction linearize in
//! the same epoch and are therefore recovered — or lost — together.  On top
//! of the isolation and consistency Medley already provides, this yields
//! failure atomicity and (buffered) durability: full ACID transactions with
//! *buffered durable strict serializability*.
//!
//! This crate provides [`Durable`], a wrapper that turns any Medley map from
//! `nbds` into its persistent counterpart by pairing every live key with a
//! payload record in a [`pmem::PersistenceDomain`]:
//!
//! * the transient index (hash table / skiplist) stays in DRAM, exactly as
//!   nbMontage keeps indices transient;
//! * every update allocates or retires payload records in the calling
//!   thread's arena, tagged with the operation's epoch;
//! * payload bookkeeping for committed updates runs in the post-commit
//!   cleanup phase, and payloads of aborted transactions are abandoned via
//!   Medley's abort actions.  Each captures the domain, a payload id and at
//!   most an epoch — three words, which Medley keeps inline — so the payload
//!   bookkeeping of an update allocates nothing;
//! * a payload replaced or removed in the epoch it was born in is recycled
//!   on the spot by the thread that retires it, unless its owner has
//!   already moved on to a later epoch: no recovery cut can contain it, so
//!   it is never written back and the drain never sees it, and the
//!   write-back an epoch costs follows the updates that outlive it;
//! * **a hot-path payload slot read is re-checked against the index word
//!   that named it**: a word-valued map (`V = u64`) binds each key in its
//!   index to the payload id alone, an inline value word, so a `put`
//!   allocates nothing beside its payload slot.  `get` and `range` read the
//!   value from the slot ([`pmem::PersistenceDomain::payload_word`]) inside
//!   the index's lookup, which re-loads the value word afterwards and keeps
//!   the value only if the word still holds the same id and counter
//!   (`nbds`'s re-checked read, [`TxMap::get_with`]).  That is what makes
//!   the on-the-spot reuse above safe: a payload is retired only after its
//!   binding has left the word, so an unchanged word proves the slot was
//!   not recycled during the read, and slots are never freed while the
//!   domain lives, so a read of a recycled one is only stale.  `put` and
//!   `remove` read the old value before they register its retirement,
//!   because a standalone cleanup runs at once.  In a transaction their
//!   index CAS is buffered, so the old payload is safe from recycling only
//!   until a concurrent update takes the key: an attempt that lost its key
//!   that way cannot commit, but its `put` or `remove` may return what the
//!   recycled slot holds by then (Medley gives a body no opacity; after a
//!   `get` of the key, `Txn::validate_reads` reports the loss).  A
//!   [`pmem::Value`] map keeps a boxed `(value, payload id)` instead:
//!   reading a blob from its slot would copy its bytes out on every `get`;
//! * [`Durable::recover`] rebuilds the key/value mapping as of the nbMontage
//!   recovery point (end of epoch `e − 2`).
//!
//! In production the epoch clock is driven by a background
//! [`pmem::EpochAdvancer`], which periodically advances the epoch and writes
//! back the dirty payloads of the epochs crossing the durability horizon —
//! without it, nothing ever becomes durable on its own and only explicit
//! [`Durable::sync`] calls move the horizon:
//!
//! ## Known simulation limitation: pre-linearization payload visibility
//!
//! A payload record is allocated in the domain *before* the index update
//! that publishes it linearizes (both standalone and transactional
//! paths).  If the updating thread stalls for two or more epoch advances inside that
//! microseconds-wide window, a concurrent [`Durable::recover`] can include
//! the pending key/value even though the operation has not happened (and may
//! yet fail or abort, abandoning the payload).  Real nbMontage closes this
//! with its epoch-participation protocol — the advancer waits for the
//! operations of an epoch to retire before persisting it — which this
//! simulation does not model.  The post-linearization tag race, by
//! contrast, *is* handled: standalone operations re-read the epoch after
//! their update, retire the old payload with it and re-tag the new one.
//!
//! ```
//! use medley::TxManager;
//! use nbds::MichaelHashMap;
//! use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain};
//! use std::time::Duration;
//! use txmontage::Durable;
//!
//! let mgr = TxManager::new();
//! let domain = PersistenceDomain::new(mgr.clone(), NvmCostModel::ZERO);
//! let map = Durable::new(MichaelHashMap::with_buckets(64), domain.clone());
//! // The advancer ticks the epoch clock in the background, like
//! // nbMontage's; completed operations become durable within two periods.
//! let advancer = EpochAdvancer::spawn(domain.clone(), Duration::from_millis(1));
//! let mut h = mgr.register();
//!
//! // Standalone (uninstrumented) update through the NonTx context...
//! map.put(&mut h.nontx(), 1, 100u64);
//! // ...or a failure-atomic transactional one through the Txn context.
//! let _ = h.run(|t| {
//!     map.put(t, 2, 200);
//!     map.put(t, 3, 300);
//!     Ok(())
//! });
//! domain.sync();                       // force durability now (don't wait)
//! assert_eq!(map.recover().get(&1), Some(&100));
//! assert_eq!(map.recover().get(&2), Some(&200));
//! drop(advancer);                      // stops and joins the ticker
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use medley::Ctx;
use nbds::{MichaelHashMap, SkipList, SplitOrderedMap, TxMap, TxOrderedMap};
use pmem::{PayloadId, PersistenceDomain, Value};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// A user value type that can flow through a [`Durable`] map: it converts
/// to/from the payload store's [`pmem::Value`] representation, and names
/// what the transient index keeps for it.
///
/// `u64` is the historical fixed-width value (and the default type
/// parameter of every alias below); [`pmem::Value`] itself is the
/// variable-length value the KV service stores.
pub trait DurableValue: Clone + Send + Sync + 'static {
    /// What the transient index binds a key to: at least the payload id.
    type Kept: Clone + Send + Sync + 'static;
    /// The payload-store representation of this value.
    fn to_value(&self) -> Value;
    /// Rebuilds the value from its payload-store representation (recovery
    /// path).
    fn from_value(v: Value) -> Self;
    /// What the index keeps for this value, stored as payload `id`.
    fn keep(self, id: PayloadId) -> Self::Kept;
    /// The payload an index entry names.
    fn payload(kept: &Self::Kept) -> PayloadId;
    /// The value of the index entry `kept`, which a lookup of the index has
    /// just read, or which an update of the index has just taken out.
    fn read(kept: &Self::Kept, domain: &PersistenceDomain) -> Self;
}

/// A word keeps only its payload id, an inline index word, so a `put`
/// allocates nothing beside its payload slot; a read takes the value from
/// the slot (crate docs).
impl DurableValue for u64 {
    type Kept = u64;
    fn to_value(&self) -> Value {
        Value::U64(*self)
    }
    fn from_value(v: Value) -> Self {
        v.as_u64()
            .expect("u64-typed durable map recovered a blob value")
    }
    fn keep(self, id: PayloadId) -> u64 {
        id.0
    }
    fn payload(kept: &u64) -> PayloadId {
        PayloadId(*kept)
    }
    fn read(kept: &u64, domain: &PersistenceDomain) -> Self {
        domain.payload_word(PayloadId(*kept))
    }
}

/// A blob keeps a boxed copy of itself beside its payload id: reading it
/// from its slot would copy its bytes out on every `get`.
impl DurableValue for Value {
    type Kept = (Value, u64);
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn from_value(v: Value) -> Self {
        v
    }
    fn keep(self, id: PayloadId) -> (Value, u64) {
        (self, id.0)
    }
    fn payload(kept: &(Value, u64)) -> PayloadId {
        PayloadId(kept.1)
    }
    fn read(kept: &(Value, u64), _: &PersistenceDomain) -> Self {
        kept.0.clone()
    }
}

/// A persistent (buffered-durably strictly serializable) map built from a
/// transient Medley map `M` and an nbMontage persistence domain.  The
/// transient index binds every key to [`DurableValue::Kept`]; `V` defaults
/// to the historical fixed-width `u64` and may be [`pmem::Value`] for
/// variable-length values.
pub struct Durable<M, V = u64> {
    inner: M,
    domain: Arc<PersistenceDomain>,
    _marker: PhantomData<V>,
}

/// What the index of a [`Durable`] map of `V`s keeps.
type Kept<V> = <V as DurableValue>::Kept;

/// Persistent hash map (txMontage counterpart of the paper's Michael hash
/// table experiments, Fig. 7).
pub type DurableHashMap<V = u64> = Durable<MichaelHashMap<Kept<V>>, V>;
/// Persistent skiplist (txMontage counterpart of the skiplist experiments,
/// Figs. 8–10).
pub type DurableSkipList<V = u64> = Durable<SkipList<Kept<V>>, V>;
/// Persistent **elastic** hash map: a split-ordered-list index whose bucket
/// directory grows on-line, wrapped with the same payload discipline as
/// [`DurableHashMap`].  Directory doubling is transient-index infrastructure
/// — it touches no payloads and plays no part in recovery.
pub type DurableSplitOrderedMap<V = u64> = Durable<SplitOrderedMap<Kept<V>>, V>;

impl<V: DurableValue> DurableHashMap<V> {
    /// Creates a persistent hash map with `buckets` buckets.
    pub fn hash_map(buckets: usize, domain: Arc<PersistenceDomain>) -> Self {
        Durable::new(MichaelHashMap::with_buckets(buckets), domain)
    }
}

impl<V: DurableValue> DurableSkipList<V> {
    /// Creates a persistent skiplist.
    pub fn skip_list(domain: Arc<PersistenceDomain>) -> Self {
        Durable::new(SkipList::new(), domain)
    }
}

impl<V: DurableValue> DurableSplitOrderedMap<V> {
    /// Creates a persistent elastic hash map starting at `buckets` buckets
    /// (a warm-start hint; the directory grows on its own).
    pub fn split_ordered(buckets: usize, domain: Arc<PersistenceDomain>) -> Self {
        Durable::new(SplitOrderedMap::with_buckets(buckets), domain)
    }
}

impl<M, V> Durable<M, V>
where
    M: TxMap<Kept<V>>,
    V: DurableValue,
{
    /// Wraps a transient Medley map.  The domain must be bound to the same
    /// `TxManager` as the handles that will operate on the map (payload
    /// arenas are indexed by the manager's thread slots).
    pub fn new(inner: M, domain: Arc<PersistenceDomain>) -> Self {
        Self {
            inner,
            domain,
            _marker: PhantomData,
        }
    }

    /// The persistence domain backing this map.
    pub fn domain(&self) -> &Arc<PersistenceDomain> {
        &self.domain
    }

    /// The transient index, for structure-level introspection (bucket
    /// counts, item counters, grow events) that the payload layer does not
    /// see.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The epoch to tag payloads of the current operation with: inside a
    /// transaction, the epoch validated by the MCNS commit; outside, the
    /// current epoch.
    fn op_epoch<C: Ctx>(&self, cx: &C) -> u64 {
        cx.snapshot_epoch()
            .unwrap_or_else(|| self.domain.current_epoch())
    }

    /// The epoch to retire an update's replaced or removed payload with,
    /// once its index change is done.  Closes the
    /// standalone-update epoch race: a `NonTx` operation reads the epoch
    /// once *before* its index update, so the clock may advance before the
    /// update linearizes — the payload would then be tagged one epoch early
    /// and claimed durable (recovered) at a horizon the operation is not
    /// part of, losing or resurrecting it across a crash.  Transactions are
    /// immune (the MCNS commit validates the snapshot epoch), so for
    /// standalone operations the epoch is re-read *after* the update: the
    /// retirement is tagged with it, and on a change the new payload's birth
    /// is re-tagged to it.  The operation linearized no later than the
    /// re-read, so the later tag can delay durability by one horizon but
    /// never claim it early.  The retirement is made once, with its final
    /// tag, because the domain may recycle its slot on the spot.
    fn settle_epoch<C: Ctx>(&self, cx: &C, tagged: u64, birth: Option<PayloadId>) -> u64 {
        if cx.is_transactional() {
            return tagged;
        }
        medley::failpoint!("txmontage::reread");
        let now = self.domain.current_epoch();
        if now != tagged {
            if let Some(id) = birth {
                self.domain.retag_birth(id, tagged, now);
            }
        }
        now
    }

    /// The value of the index entry `kept`, read by a lookup: for a word,
    /// from the payload slot `kept` names, which the lookup's re-checked
    /// read proves was not recycled during the read.
    fn read(&self, kept: &Kept<V>) -> V {
        medley::failpoint!("txmontage::read");
        V::read(kept, &self.domain)
    }

    /// Looks up `key`.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        self.inner.get_with(cx, key, |kept| self.read(kept))
    }

    /// Whether `key` is present (no payload or value is read).
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.inner.contains(cx, key)
    }

    /// Inserts `key -> val` if absent; returns `true` on success.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        let epoch = self.op_epoch(cx);
        let payload = self
            .domain
            .alloc_value(cx.tid(), key, &val.to_value(), epoch);
        if self.inner.insert(cx, key, val.keep(payload)) {
            let domain = Arc::clone(&self.domain);
            cx.add_abort_action(move |_| domain.abandon_payload(payload));
            self.settle_epoch(cx, epoch, Some(payload));
            true
        } else {
            self.domain.abandon_payload(payload);
            false
        }
    }

    /// The value of the entry `old`, which an update has just taken out of
    /// the index, and the retirement of its payload, tagged `tag`.  The
    /// value is read first: a standalone cleanup runs at once, and may
    /// recycle the slot on the spot.
    fn retire<C: Ctx>(&self, cx: &mut C, old: Kept<V>, tag: u64) -> V {
        let val = V::read(&old, &self.domain);
        let (domain, id) = (Arc::clone(&self.domain), V::payload(&old));
        cx.add_cleanup(move |_| domain.retire_payload(id, tag));
        val
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        let epoch = self.op_epoch(cx);
        let payload = self
            .domain
            .alloc_value(cx.tid(), key, &val.to_value(), epoch);
        let prev = self.inner.put(cx, key, val.keep(payload));
        let domain = Arc::clone(&self.domain);
        cx.add_abort_action(move |_| domain.abandon_payload(payload));
        let tag = self.settle_epoch(cx, epoch, Some(payload));
        prev.map(|old| self.retire(cx, old, tag))
    }

    /// Removes `key`; returns its value if present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        let epoch = self.op_epoch(cx);
        let old = self.inner.remove(cx, key)?;
        let tag = self.settle_epoch(cx, epoch, None);
        Some(self.retire(cx, old, tag))
    }

    /// Ordered range cursor over the durable map (available when the
    /// transient index is ordered, i.e. for [`DurableSkipList`]).
    ///
    /// The cursor runs against the transient index, each value read as
    /// [`Durable::get`] reads it, so it inherits the index's
    /// atomic-snapshot guarantee: under a transactional context the
    /// linearizing loads join the read set and a committed scan is an
    /// atomic ordered page.  Durability is untouched (a scan writes
    /// nothing), and because recovery rebuilds the same index from the
    /// payload records, a scan after [`Durable::recover`]-driven reload
    /// sees exactly the recovered cut.
    pub fn range<C: Ctx>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
    ) -> Vec<(u64, V)>
    where
        M: TxOrderedMap<Kept<V>>,
    {
        self.inner
            .range_with(cx, bounds, limit, |kept| self.read(kept))
    }

    /// Makes all completed operations durable (nbMontage `sync`).
    pub fn sync(&self) {
        self.domain.sync();
    }

    /// Simulated post-crash recovery: the key/value mapping as of the
    /// nbMontage recovery point (end of epoch `current − 2`).
    pub fn recover(&self) -> HashMap<u64, V> {
        self.recover_with_horizon().0
    }

    /// Recovery that also reports the epoch horizon of the returned cut (see
    /// [`PersistenceDomain::recover_with_horizon`]).
    pub fn recover_with_horizon(&self) -> (HashMap<u64, V>, u64) {
        let (rec, horizon) = self.domain.recover_with_horizon();
        (
            rec.into_iter()
                .map(|(k, v)| (k, V::from_value(v)))
                .collect(),
            horizon,
        )
    }
}

impl<M, V> TxMap<V> for Durable<M, V>
where
    M: TxMap<Kept<V>>,
    V: DurableValue,
{
    fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, mut f: impl FnMut(&V) -> R) -> Option<R> {
        self.inner.get_with(cx, key, |kept| f(&self.read(kept)))
    }
    fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        Durable::insert(self, cx, key, val)
    }
    fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        Durable::put(self, cx, key, val)
    }
    fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        Durable::remove(self, cx, key)
    }
    fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        Durable::contains(self, cx, key)
    }
}

impl<M, V> TxOrderedMap<V> for Durable<M, V>
where
    M: TxOrderedMap<Kept<V>>,
    V: DurableValue,
{
    fn range_with<C: Ctx, R>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
        mut f: impl FnMut(&V) -> R,
    ) -> Vec<(u64, R)> {
        self.inner
            .range_with(cx, bounds, limit, |kept| f(&self.read(kept)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{failpoint, AbortReason, ThreadHandle, TxManager, TxResult};
    use pmem::{EpochAdvancer, NvmCostModel};

    fn setup() -> (Arc<TxManager>, Arc<PersistenceDomain>, DurableHashMap) {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map = DurableHashMap::hash_map(64, Arc::clone(&domain));
        (mgr, domain, map)
    }

    #[test]
    fn basic_persistence_roundtrip() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        assert!(map.insert(&mut h.nontx(), 1, 10));
        assert_eq!(map.get(&mut h.nontx(), 1), Some(10));
        // Not yet durable.
        assert!(map.recover().is_empty());
        domain.sync();
        assert_eq!(map.recover().get(&1), Some(&10));
        // Remove, then make the removal durable.
        assert_eq!(map.remove(&mut h.nontx(), 1), Some(10));
        domain.sync();
        assert!(!map.recover().contains_key(&1));
    }

    #[test]
    fn replace_retires_old_payload() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        assert_eq!(map.put(&mut h.nontx(), 5, 50), None);
        assert_eq!(map.put(&mut h.nontx(), 5, 51), Some(50));
        domain.sync();
        let rec = map.recover();
        assert_eq!(rec.get(&5), Some(&51));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn transactional_updates_recover_atomically() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        // Two keys updated in one transaction are recovered together.
        let res: TxResult<()> = h.run(|h| {
            map.put(h, 1, 100);
            map.put(h, 2, 200);
            Ok(())
        });
        assert!(res.is_ok());
        domain.sync();
        let rec = map.recover();
        assert_eq!(rec.get(&1), Some(&100));
        assert_eq!(rec.get(&2), Some(&200));
    }

    #[test]
    fn aborted_transactions_leave_no_payloads() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        let res: TxResult<()> = h.run(|h| {
            map.put(h, 7, 70);
            map.put(h, 8, 80);
            Err(h.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        domain.sync();
        let rec = map.recover();
        assert!(
            rec.is_empty(),
            "aborted transaction must not be recovered: {rec:?}"
        );
        assert_eq!(domain.stats().live_payloads, 0);
    }

    #[test]
    fn cross_epoch_transactions_are_aborted_and_retried() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        let mut first_attempt = true;
        let res: TxResult<()> = h.run(|h| {
            map.put(h, 3, 30);
            if first_attempt {
                first_attempt = false;
                // The epoch advances mid-transaction; the MCNS epoch check
                // must abort and the retry must succeed in the new epoch.
                domain.advance_epoch();
            }
            Ok(())
        });
        assert!(res.is_ok());
        assert!(!first_attempt);
        domain.sync();
        assert_eq!(map.recover().get(&3), Some(&30));
    }

    #[test]
    fn skiplist_variant_works_too() {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map = DurableSkipList::skip_list(Arc::clone(&domain));
        let mut h = mgr.register();
        for k in 0..50u64 {
            assert!(map.insert(&mut h.nontx(), k, k * 2));
        }
        for k in (0..50u64).step_by(2) {
            assert_eq!(map.remove(&mut h.nontx(), k), Some(k * 2));
        }
        domain.sync();
        let rec = map.recover();
        assert_eq!(rec.len(), 25);
        for k in (1..50u64).step_by(2) {
            assert_eq!(rec.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn durable_skiplist_range_scans_and_survives_recovery() {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map = DurableSkipList::skip_list(Arc::clone(&domain));
        let mut h = mgr.register();
        for k in 0..100u64 {
            assert!(map.insert(&mut h.nontx(), k * 2, k));
        }
        // Transactional ordered page, payload ids stripped.
        let res: TxResult<Vec<(u64, u64)>> = h.run(|t| Ok(map.range(t, 10..30, usize::MAX)));
        let page = res.unwrap();
        assert_eq!(
            page,
            (5..15).map(|k| (k * 2, k)).collect::<Vec<_>>(),
            "ordered page over the durable index"
        );
        // A scan after recovery-driven reload sees exactly the cut.
        domain.sync();
        let rec = map.recover();
        let domain2 = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map2 = DurableSkipList::skip_list(Arc::clone(&domain2));
        for (k, v) in rec {
            assert!(map2.insert(&mut h.nontx(), k, v));
        }
        assert_eq!(
            map2.range(&mut h.nontx(), 10..30, usize::MAX),
            page,
            "scan over the reloaded cut must reproduce the page"
        );
        assert_eq!(map2.range(&mut h.nontx(), 10..30, 3).len(), 3);
    }

    #[test]
    fn split_ordered_variant_grows_and_recovers() {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map = DurableSplitOrderedMap::split_ordered(2, Arc::clone(&domain));
        let mut h = mgr.register();
        const N: u64 = 2_000;
        for k in 0..N {
            assert!(map.insert(&mut h.nontx(), k, k * 2));
        }
        assert!(
            map.inner().grow_events() > 0,
            "the durable index must grow like the transient one"
        );
        for k in (0..N).step_by(2) {
            assert_eq!(map.remove(&mut h.nontx(), k), Some(k * 2));
        }
        // Transactional move across the grown table.
        let res: TxResult<()> = h.run(|h| {
            let v = map.remove(h, 1).unwrap();
            assert!(map.insert(h, N + 1, v));
            Ok(())
        });
        assert!(res.is_ok());
        domain.sync();
        let rec = map.recover();
        assert_eq!(rec.len() as u64, N / 2);
        assert_eq!(rec.get(&(N + 1)), Some(&2));
        assert!(!rec.contains_key(&1));
        for k in (3..N).step_by(2) {
            assert_eq!(rec.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn blob_values_flow_through_transactions_and_recovery() {
        use pmem::Value;
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map: DurableHashMap<Value> = DurableHashMap::hash_map(64, Arc::clone(&domain));
        let mut h = mgr.register();
        let small = Value::from_bytes(b"hello");
        let big = Value::from_bytes(&vec![7u8; 4096]);
        assert!(map.insert(&mut h.nontx(), 1, small.clone()));
        let res: TxResult<()> = h.run(|t| {
            map.put(t, 2, big.clone());
            map.put(t, 3, Value::U64(33));
            Ok(())
        });
        assert!(res.is_ok());
        domain.sync();
        let rec = map.recover();
        assert_eq!(rec.get(&1), Some(&small));
        assert_eq!(rec.get(&2), Some(&big));
        assert_eq!(rec.get(&3), Some(&Value::U64(33)));
        // Replacement retires the old blob's payload (and, in the arena
        // store, its overflow chain).
        assert_eq!(map.put(&mut h.nontx(), 2, Value::U64(2)), Some(big));
        domain.sync();
        assert_eq!(map.recover().get(&2), Some(&Value::U64(2)));
        assert_eq!(domain.stats().live_payloads, 3);
    }

    #[test]
    fn recovery_is_prefix_consistent_across_epochs() {
        // Operations in later epochs may be lost, but never operations from
        // an epoch at or before the recovery horizon.
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        map.put(&mut h.nontx(), 1, 11);
        domain.advance_epoch(); // epoch 1
        map.put(&mut h.nontx(), 2, 22);
        domain.advance_epoch(); // epoch 2: epoch-0 work durable
        map.put(&mut h.nontx(), 3, 33);
        let rec = map.recover();
        assert_eq!(rec.get(&1), Some(&11), "epoch-0 update must be durable");
        assert!(!rec.contains_key(&3), "current-epoch update may be lost");
    }

    #[test]
    fn standalone_ops_under_microsecond_advancer_recover_exactly() {
        // Satellite-2 regression: 8 threads of standalone (NonTx) puts and
        // removes race a ~µs-period advancer, so the epoch clock routinely
        // moves between an operation's epoch read and its index update —
        // the window in which payloads used to keep a one-epoch-early tag.
        // Each thread owns a disjoint key range with monotonically
        // increasing values; concurrent recoveries must always be
        // consistent cuts (monotone per key), and the final recovery after
        // a quiescent sync must equal the live contents exactly.
        const THREADS: usize = 8;
        const KEYS_PER_THREAD: u64 = 16;
        const ROUNDS: u64 = 400;
        let mgr = TxManager::with_max_threads(THREADS + 1);
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        let map = Arc::new(DurableHashMap::hash_map(256, Arc::clone(&domain)));
        let advancer =
            EpochAdvancer::spawn(Arc::clone(&domain), std::time::Duration::from_micros(1));
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let mgr = Arc::clone(&mgr);
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut h = mgr.register();
                    for i in 1..=ROUNDS {
                        let k = t * KEYS_PER_THREAD + (i % KEYS_PER_THREAD);
                        if i % 7 == 0 {
                            map.remove(&mut h.nontx(), k);
                        } else {
                            map.put(&mut h.nontx(), k, i);
                        }
                    }
                });
            }
            // Concurrent recoveries: every cut must be per-key monotone
            // (values only grow within a thread's range).
            let mut floors: HashMap<u64, u64> = HashMap::new();
            for _ in 0..200 {
                let (rec, _) = map.recover_with_horizon();
                for (k, v) in rec {
                    let f = floors.entry(k).or_insert(0);
                    assert!(v >= *f, "key {k} went backwards: recovered {v} after {f}");
                    *f = v;
                }
            }
        });
        drop(advancer);
        // Quiesce: after two syncs everything completed is durable, so the
        // recovery must equal the live map exactly — a stale early tag (or a
        // lost retirement) would surface as a missing/resurrected key here.
        domain.sync();
        domain.sync();
        let rec = map.recover();
        let mut h = mgr.register();
        let mut cx = h.nontx();
        let mut live = 0;
        for t in 0..THREADS as u64 {
            for j in 0..KEYS_PER_THREAD {
                let k = t * KEYS_PER_THREAD + j;
                let in_map = map.get(&mut cx, k);
                assert_eq!(
                    rec.get(&k).copied(),
                    in_map,
                    "recovery and live map disagree on key {k}"
                );
                if in_map.is_some() {
                    live += 1;
                }
            }
        }
        assert_eq!(rec.len(), live);
        assert_eq!(domain.stats().live_payloads, live);
    }

    /// Runs `op` with one advance of `domain` between its index update and
    /// its epoch re-read.
    fn with_a_tick_before_the_reread<R>(
        domain: &Arc<PersistenceDomain>,
        op: impl FnOnce() -> R,
    ) -> R {
        let d = Arc::clone(domain);
        let armed = failpoint::arm("txmontage::reread", move |_| {
            d.advance_epoch();
        });
        let out = op();
        assert_ne!(armed.hits(), 0, "the hook ran");
        out
    }

    #[test]
    fn a_standalone_remove_overtaken_by_a_tick_retires_in_the_later_epoch() {
        // The payload is born in `e` and the removal's index update lands
        // in `e`, but the clock ticks before the re-read: the retirement is
        // tagged `e + 1`, so the payload is not recycled on the spot and
        // the owner's next payload takes a fresh slot.
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        domain.sync();
        let e = domain.current_epoch();
        assert!(map.insert(&mut h.nontx(), 1, 10));
        let free = domain.stats().free_slots;
        let removed = with_a_tick_before_the_reread(&domain, || map.remove(&mut h.nontx(), 1));
        assert_eq!(removed, Some(10));
        assert_eq!(domain.current_epoch(), e + 1);
        assert_eq!(domain.stats().free_slots, free, "not recycled on the spot");
        assert!(map.insert(&mut h.nontx(), 2, 20));
        domain.advance_epoch();
        let (rec, horizon) = map.recover_with_horizon();
        assert_eq!(horizon, e + 1);
        assert_eq!(rec, HashMap::from([(1, 10)]));
        domain.advance_epoch();
        let (rec, horizon) = map.recover_with_horizon();
        assert_eq!(horizon, e + 2);
        assert_eq!(rec, HashMap::from([(2, 20)]));
    }

    #[test]
    fn a_standalone_replace_overtaken_by_a_tick_moves_both_tags() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        domain.sync();
        let e = domain.current_epoch();
        assert!(map.insert(&mut h.nontx(), 1, 10));
        let old = with_a_tick_before_the_reread(&domain, || map.put(&mut h.nontx(), 1, 11));
        assert_eq!(old, Some(10));
        domain.advance_epoch();
        assert_eq!(
            map.recover_with_horizon(),
            (HashMap::from([(1, 10)]), e + 1)
        );
        domain.advance_epoch();
        assert_eq!(
            map.recover_with_horizon(),
            (HashMap::from([(1, 11)]), e + 2)
        );
        assert_eq!(domain.stats().live_payloads, 1);
    }

    #[test]
    fn a_standalone_remove_in_the_birth_epoch_recycles_on_the_spot() {
        let (mgr, domain, map) = setup();
        let mut h = mgr.register();
        domain.sync();
        assert!(map.insert(&mut h.nontx(), 1, 10));
        let free = domain.stats().free_slots;
        assert_eq!(map.remove(&mut h.nontx(), 1), Some(10));
        assert_eq!(domain.stats().free_slots, free + 1);
        domain.sync();
        assert!(map.recover().is_empty());
    }

    /// The key a read races, and the key whose payload takes its slot.
    const KEY: u64 = 1;
    const SQUATTER: u64 = 100;
    /// The squatter's value, which no read of `KEY` may return.
    const SQUAT: u64 = 0x5A7;

    /// A map made by `make` over a fresh domain and two handles, the reader
    /// and the other, which has inserted `KEY -> 10` and its neighbours
    /// `KEY + 1 -> 20` and `KEY + 2 -> 30` in its own arena.
    fn racing<M: TxMap<u64>>(
        make: impl FnOnce(Arc<PersistenceDomain>) -> Durable<M>,
    ) -> (Arc<Durable<M>>, ThreadHandle, ThreadHandle) {
        let mgr = TxManager::new();
        let map = Arc::new(make(PersistenceDomain::new(
            Arc::clone(&mgr),
            NvmCostModel::ZERO,
        )));
        let (reader, mut other) = (mgr.register(), mgr.register());
        for k in 0..3 {
            assert!(map.insert(&mut other.nontx(), KEY + k, 10 * (k + 1)));
        }
        (map, reader, other)
    }

    /// Arms the read step: `other` binds `KEY` to `to` (`None`: removes
    /// it) in the current epoch, so that its payload's slot is recycled on
    /// the spot, and inserts `SQUATTER -> SQUAT`, whose payload takes that
    /// slot.  Once, at the first read.
    fn recycle_under_the_read<M: TxMap<u64> + 'static>(
        map: &Arc<Durable<M>>,
        other: ThreadHandle,
        to: Option<u64>,
    ) -> failpoint::Armed {
        let map = Arc::clone(map);
        let mut other = Some(other);
        failpoint::arm("txmontage::read", move |_| {
            let Some(mut other) = other.take() else {
                return;
            };
            let slots = map.domain().stats().allocated_slots;
            let cx = &mut other.nontx();
            match to {
                Some(v) => assert_eq!(map.put(cx, KEY, v), Some(10)),
                None => assert_eq!(map.remove(cx, KEY), Some(10)),
            }
            assert!(map.insert(cx, SQUATTER, SQUAT));
            let grown = map.domain().stats().allocated_slots - slots;
            assert_eq!(
                grown,
                usize::from(to.is_some()),
                "the squatter reuses the slot"
            );
        })
    }

    fn hash(domain: Arc<PersistenceDomain>) -> DurableHashMap {
        DurableHashMap::hash_map(8, domain)
    }

    /// What the gets of `KEY` of one transaction body saw, with the slot of
    /// the key's payload recycled during the first read; the transaction
    /// commits.
    fn seen_in_a_transaction(to: Option<u64>) -> Vec<Option<u64>> {
        let (map, mut reader, other) = racing(hash);
        let armed = recycle_under_the_read(&map, other, to);
        let mut seen = Vec::new();
        let res = reader.run(|t| {
            seen.push(map.get(t, KEY));
            Ok(())
        });
        assert_eq!(res, Ok(()));
        assert_ne!(armed.hits(), 0, "the hook ran");
        seen
    }

    #[test]
    fn a_standalone_get_never_returns_the_value_of_a_key_that_took_its_slot() {
        let (map, mut reader, other) = racing(hash);
        let armed = recycle_under_the_read(&map, other, Some(11));
        assert_eq!(map.get(&mut reader.nontx(), KEY), Some(11));
        assert_ne!(armed.hits(), 0, "the hook ran");
        assert_eq!(map.get(&mut reader.nontx(), SQUATTER), Some(SQUAT));
    }

    #[test]
    fn a_transactional_get_never_hands_its_body_the_value_of_a_key_that_took_its_slot() {
        assert_eq!(seen_in_a_transaction(Some(11)), [Some(11)]);
    }

    #[test]
    fn a_get_whose_word_dies_during_the_read_finds_the_key_absent() {
        let (map, mut reader, other) = racing(hash);
        let armed = recycle_under_the_read(&map, other, None);
        assert_eq!(map.get(&mut reader.nontx(), KEY), None);
        assert_ne!(armed.hits(), 0, "the hook ran");
        assert_eq!(seen_in_a_transaction(None), [None]);
    }

    #[test]
    fn a_standalone_range_never_returns_the_value_of_a_key_that_took_its_slot() {
        let (map, mut reader, other) = racing(DurableSkipList::skip_list);
        let armed = recycle_under_the_read(&map, other, Some(11));
        let page = map.range(&mut reader.nontx(), 0..SQUATTER, 8);
        assert_ne!(armed.hits(), 0, "the hook ran");
        assert_eq!(page, [(KEY, 11), (KEY + 1, 20), (KEY + 2, 30)]);
    }

    #[test]
    fn a_get_after_the_transactions_own_put_reads_the_own_payload() {
        let (map, mut reader, _other) = racing(hash);
        let mut seen = Vec::new();
        let res = reader.run(|t| {
            assert_eq!(map.put(t, KEY, 11), Some(10));
            seen.push(map.get(t, KEY));
            assert_eq!(map.put(t, KEY, 12), Some(11));
            seen.push(map.get(t, KEY));
            Ok(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!(seen, [Some(11), Some(12)]);
        assert_eq!(map.get(&mut reader.nontx(), KEY), Some(12));
    }
}
