//! Microbenchmark adapters for the baseline systems (OneFile, POneFile,
//! TDSL, LFTT) and constructors for the Medley / txMontage configurations.

use crate::{MedleyMicro, MicroOp, MicroSession, MicroSystem};
use medley::TxManager;
use nbds::TxMap;
use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain};
use std::sync::Arc;
use std::time::Duration;
use txmontage::{Durable, DurableHashMap, DurableSkipList};

// ---------------------------------------------------------------------------
// txMontage
// ---------------------------------------------------------------------------

/// The txMontage configuration of the figure benchmarks: a durable Medley
/// map over a fresh manager and persistence domain, with a live epoch
/// advancer that is stopped when the setup is dropped.
pub struct TxMontageMicro<M> {
    inner: MedleyMicro<Durable<M>>,
    domain: Arc<PersistenceDomain>,
    _advancer: EpochAdvancer,
}

impl TxMontageMicro<nbds::MichaelHashMap<u64>> {
    /// Durable hash map (Fig. 7's txMontage series).
    pub fn hash_map(buckets: usize, advancer_period: Duration) -> Self {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
        let map = Arc::new(DurableHashMap::hash_map(buckets, Arc::clone(&domain)));
        let advancer = EpochAdvancer::spawn(Arc::clone(&domain), advancer_period);
        Self {
            inner: MedleyMicro::new("txMontage", mgr, map),
            domain,
            _advancer: advancer,
        }
    }
}

impl TxMontageMicro<nbds::SkipList<u64>> {
    /// Durable skiplist (Fig. 8's txMontage series).
    pub fn skip_list(advancer_period: Duration) -> Self {
        let mgr = TxManager::new();
        let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
        let map = Arc::new(DurableSkipList::skip_list(Arc::clone(&domain)));
        let advancer = EpochAdvancer::spawn(Arc::clone(&domain), advancer_period);
        Self {
            inner: MedleyMicro::new("txMontage", mgr, map),
            domain,
            _advancer: advancer,
        }
    }
}

impl<M> TxMontageMicro<M> {
    /// The persistence domain (for flush/fence accounting).
    pub fn domain(&self) -> &Arc<PersistenceDomain> {
        &self.domain
    }
}

impl<M: TxMap<u64> + 'static> MicroSystem for TxMontageMicro<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        self.inner.make_session()
    }
}

// ---------------------------------------------------------------------------
// OneFile / POneFile
// ---------------------------------------------------------------------------

/// OneFile-style STM hash map under the microbenchmark interface.
pub struct OneFileMicro {
    name: &'static str,
    stm: Arc<onefile::OneFileStm>,
    map: Arc<onefile::OneFileMap>,
}

impl OneFileMicro {
    /// Transient OneFile.
    pub fn transient(buckets: usize) -> Self {
        let stm = onefile::OneFileStm::new();
        let map = Arc::new(onefile::OneFileMap::new(Arc::clone(&stm), buckets));
        Self {
            name: "OneFile",
            stm,
            map,
        }
    }

    /// Persistent OneFile (eager flushes through simulated NVM).
    pub fn persistent(buckets: usize, nvm: Arc<pmem::SimNvm>) -> Self {
        let stm = onefile::OneFileStm::new_persistent(nvm);
        let map = Arc::new(onefile::OneFileMap::new(Arc::clone(&stm), buckets));
        Self {
            name: "POneFile",
            stm,
            map,
        }
    }
}

struct OneFileSession<'a> {
    stm: &'a onefile::OneFileStm,
    map: &'a onefile::OneFileMap,
}

impl<'a> MicroSession for OneFileSession<'a> {
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool {
        let read_only = ops.iter().all(|o| matches!(o, MicroOp::Get(_)));
        if read_only {
            // OneFile's headline optimization: read-only transactions need no
            // read set, only sequence validation.
            self.stm.read_tx(|tx| {
                for op in ops {
                    if let MicroOp::Get(k) = op {
                        self.map.get_r(tx, *k);
                    }
                }
            });
            return true;
        }
        self.stm
            .write_tx(|tx| {
                for op in ops {
                    match *op {
                        MicroOp::Get(k) => {
                            self.map.get_w(tx, k);
                        }
                        MicroOp::Insert(k) => {
                            self.map.insert_w(tx, k, k);
                        }
                        MicroOp::Remove(k) => {
                            self.map.remove_w(tx, k);
                        }
                    }
                }
                Ok(())
            })
            .is_ok()
    }
}

impl MicroSystem for OneFileMicro {
    fn name(&self) -> &'static str {
        self.name
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        Box::new(OneFileSession {
            stm: &self.stm,
            map: &self.map,
        })
    }
}

// ---------------------------------------------------------------------------
// TDSL
// ---------------------------------------------------------------------------

/// TDSL-style blocking transactional map under the microbenchmark interface.
pub struct TdslMicro {
    map: Arc<tdsl::TdslMap>,
}

impl TdslMicro {
    /// Creates the adapter.
    pub fn new() -> Self {
        Self {
            map: Arc::new(tdsl::TdslMap::new()),
        }
    }
}

impl Default for TdslMicro {
    fn default() -> Self {
        Self::new()
    }
}

struct TdslSession<'a> {
    map: &'a tdsl::TdslMap,
}

impl<'a> MicroSession for TdslSession<'a> {
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool {
        self.map
            .run(|tx| {
                for op in ops {
                    match *op {
                        MicroOp::Get(k) => {
                            self.map.get_tx(tx, k);
                        }
                        MicroOp::Insert(k) => {
                            self.map.insert_tx(tx, k, k);
                        }
                        MicroOp::Remove(k) => {
                            self.map.remove_tx(tx, k);
                        }
                    }
                }
                Ok(())
            })
            .is_ok()
    }
}

impl MicroSystem for TdslMicro {
    fn name(&self) -> &'static str {
        "TDSL"
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        Box::new(TdslSession { map: &self.map })
    }
}

// ---------------------------------------------------------------------------
// LFTT
// ---------------------------------------------------------------------------

/// LFTT-style static-transaction map under the microbenchmark interface.
pub struct LfttMicro {
    map: Arc<lftt::LfttMap>,
}

impl LfttMicro {
    /// Creates the adapter with `buckets` hash buckets.
    pub fn new(buckets: usize) -> Self {
        Self {
            map: Arc::new(lftt::LfttMap::new(buckets)),
        }
    }
}

struct LfttSession<'a> {
    map: &'a lftt::LfttMap,
}

impl<'a> MicroSession for LfttSession<'a> {
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool {
        let static_ops: Vec<lftt::LfttOp> = ops
            .iter()
            .map(|op| match *op {
                MicroOp::Get(k) => lftt::LfttOp::Get(k),
                MicroOp::Insert(k) => lftt::LfttOp::Insert(k, k),
                MicroOp::Remove(k) => lftt::LfttOp::Remove(k),
            })
            .collect();
        self.map.execute(&static_ops).is_some()
    }
}

impl MicroSystem for LfttMicro {
    fn name(&self) -> &'static str {
        "LFTT"
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        Box::new(LfttSession { map: &self.map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_micro, MicroConfig};
    use std::time::Duration;

    fn tiny_cfg() -> MicroConfig {
        MicroConfig {
            ratio: (2, 1, 1),
            key_space: 1 << 10,
            preload: 1 << 8,
            max_ops_per_tx: 5,
            duration: Duration::from_millis(40),
        }
    }

    #[test]
    fn all_baseline_adapters_run() {
        let cfg = tiny_cfg();
        assert!(run_micro(&OneFileMicro::transient(1 << 10), &cfg, 2) > 0.0);
        assert!(run_micro(&TdslMicro::new(), &cfg, 2) > 0.0);
        assert!(run_micro(&LfttMicro::new(1 << 10), &cfg, 2) > 0.0);
        let nvm = Arc::new(pmem::SimNvm::new(pmem::NvmCostModel::ZERO));
        assert!(run_micro(&OneFileMicro::persistent(1 << 10, nvm), &cfg, 2) > 0.0);
    }

    #[test]
    fn txmontage_adapter_runs_and_writes_back() {
        let cfg = tiny_cfg();
        let sys = TxMontageMicro::hash_map(1 << 10, Duration::from_millis(2));
        assert!(run_micro(&sys, &cfg, 2) > 0.0);
        let (flushes, fences) = sys.domain().nvm().stats().snapshot();
        assert!(
            flushes > 0 && fences > 0,
            "advancer must write payloads back"
        );
    }
}
