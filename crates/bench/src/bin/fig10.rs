//! Fig. 10: average per-transaction latency on skiplists at a fixed thread
//! count, comparing:
//!
//! * `TxOff`  — the NBTC-transformed skiplist with transactions disabled
//!   (instrumentation elided; each operation runs standalone);
//! * `TxOn`   — the same skiplist with 1–10-operation transactions;
//! * the same two configurations with simulated-NVM write-back costs charged
//!   on payload updates (`*-NVM`), and the fully persistent txMontage
//!   configuration (`txMontage`).
//!
//! The paper's "Original" series (the untransformed Fraser skiplist) is
//! approximated by `TxOff`; see EXPERIMENTS.md for the discussion of the
//! residual difference (the cost of the 128-bit `CasWord`).

use bench::{CommonArgs, MedleyMicro, MedleyTxOff};
use medley::TxManager;
use nbds::SkipList;
use pmem::{NvmCostModel, PersistenceDomain};
use std::sync::Arc;
use txmontage::DurableSkipList;

fn main() {
    let args = CommonArgs::parse();
    let threads = *args.threads.last().unwrap_or(&4);
    println!("figure,system,ratio,threads,latency_ns_per_txn");
    for ratio in [(0, 1, 1), (2, 1, 1), (18, 1, 1)] {
        let cfg = args.micro_config(ratio);
        // (a) DRAM: TxOff vs TxOn.
        {
            let mgr = TxManager::new();
            let map = Arc::new(SkipList::<u64>::new());
            let sys = MedleyTxOff::new("TxOff", mgr, map);
            let lat = bench::run_micro_latency(&sys, &cfg, threads);
            bench::emit("fig10a", "TxOff", ratio, threads, lat);
        }
        {
            let mgr = TxManager::new();
            let map = Arc::new(SkipList::<u64>::new());
            let sys = MedleyMicro::new("TxOn", mgr, map);
            let lat = bench::run_micro_latency(&sys, &cfg, threads);
            bench::emit("fig10a", "TxOn", ratio, threads, lat);
        }
        // (b) simulated NVM (payloads charged write-back costs, persistence off).
        {
            let mgr = TxManager::new();
            let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
            let map = Arc::new(DurableSkipList::skip_list(domain));
            let sys = MedleyTxOff::new("TxOff-NVM", mgr, map);
            let lat = bench::run_micro_latency(&sys, &cfg, threads);
            bench::emit("fig10b", "TxOff-NVM", ratio, threads, lat);
        }
        {
            let mgr = TxManager::new();
            let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
            let map = Arc::new(DurableSkipList::skip_list(domain));
            let sys = MedleyMicro::new("TxOn-NVM", mgr, map);
            let lat = bench::run_micro_latency(&sys, &cfg, threads);
            bench::emit("fig10b", "TxOn-NVM", ratio, threads, lat);
        }
        // (c) fully persistent txMontage (periodic persistence running).
        {
            let mgr = TxManager::new();
            let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
            let map = Arc::new(DurableSkipList::skip_list(Arc::clone(&domain)));
            let _advancer = pmem::EpochAdvancer::spawn(
                Arc::clone(&domain),
                std::time::Duration::from_millis(10),
            );
            let sys = MedleyMicro::new("txMontage", mgr, map);
            let lat = bench::run_micro_latency(&sys, &cfg, threads);
            bench::emit("fig10c", "txMontage", ratio, threads, lat);
        }
    }
}
