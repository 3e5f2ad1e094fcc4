//! Fig. 8: throughput of transactional skiplists (Medley, txMontage, OneFile,
//! POneFile, TDSL, LFTT) for get:insert:remove ratios 0:1:1, 2:1:1, 18:1:1.

use bench::systems::{LfttMicro, OneFileMicro, TdslMicro, TxMontageMicro};
use bench::{emit, CommonArgs, MedleyMicro};
use medley::TxManager;
use nbds::SkipList;
use pmem::{NvmCostModel, SimNvm};
use std::sync::Arc;

fn main() {
    let args = CommonArgs::parse();
    let buckets = (args.keys as usize).next_power_of_two();
    println!("figure,system,ratio,threads,throughput_txn_per_s");
    for ratio in [(0, 1, 1), (2, 1, 1), (18, 1, 1)] {
        let cfg = args.micro_config(ratio);
        for &threads in &args.threads {
            {
                let mgr = TxManager::new();
                let map = Arc::new(SkipList::<u64>::new());
                let sys = MedleyMicro::new("Medley", mgr, map);
                emit(
                    "fig8",
                    "Medley",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            {
                let sys = TxMontageMicro::skip_list(std::time::Duration::from_millis(10));
                emit(
                    "fig8",
                    "txMontage",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            {
                let sys = OneFileMicro::transient(buckets);
                emit(
                    "fig8",
                    "OneFile",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            {
                let nvm = Arc::new(SimNvm::new(NvmCostModel::OPTANE_LIKE));
                let sys = OneFileMicro::persistent(buckets, nvm);
                emit(
                    "fig8",
                    "POneFile",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            {
                let sys = TdslMicro::new();
                emit(
                    "fig8",
                    "TDSL",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
            {
                let sys = LfttMicro::new(buckets);
                emit(
                    "fig8",
                    "LFTT",
                    ratio,
                    threads,
                    bench::run_micro(&sys, &cfg, threads),
                );
            }
        }
    }
}
