//! Fig. 7: throughput of transactional hash tables (Medley, txMontage,
//! OneFile, POneFile) for get:insert:remove ratios 0:1:1, 2:1:1, 18:1:1.

use bench::systems::{OneFileMicro, TxMontageMicro};
use bench::{emit, CommonArgs, MedleyMicro};
use medley::TxManager;
use nbds::MichaelHashMap;
use pmem::{NvmCostModel, SimNvm};
use std::sync::Arc;

fn main() {
    let args = CommonArgs::parse();
    let buckets = (args.keys as usize).next_power_of_two();
    println!("figure,system,ratio,threads,throughput_txn_per_s");
    for ratio in [(0, 1, 1), (2, 1, 1), (18, 1, 1)] {
        let cfg = args.micro_config(ratio);
        for &threads in &args.threads {
            // Medley (transient hash table).
            {
                let mgr = TxManager::new();
                let map = Arc::new(MichaelHashMap::<u64>::with_buckets(buckets));
                let sys = MedleyMicro::new("Medley", mgr, map);
                emit(
                    "fig7",
                    "Medley",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            // txMontage (persistent hash table, periodic persistence).
            {
                let sys = TxMontageMicro::hash_map(buckets, std::time::Duration::from_millis(10));
                emit(
                    "fig7",
                    "txMontage",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            // OneFile (transient STM).
            {
                let sys = OneFileMicro::transient(buckets);
                emit(
                    "fig7",
                    "OneFile",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            // POneFile (eager persistence).
            {
                let nvm = Arc::new(SimNvm::new(NvmCostModel::OPTANE_LIKE));
                let sys = OneFileMicro::persistent(buckets, nvm);
                emit(
                    "fig7",
                    "POneFile",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
        }
    }
}
