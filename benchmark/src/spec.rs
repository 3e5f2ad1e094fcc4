//! Names, units and bounds of everything the benchmark reports. The driver
//! reads the same lists from `BENCHMARK.json`; a unit test keeps the two equal
//! in both directions.

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse before
    /// a change is rejected; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// How long the driver measures one run (`--seconds`).
pub const RUN_SECONDS: u64 = 30;

/// The workloads the driver runs. The two wire mixes (`wire::WIRE_POINT`,
/// `wire::WIRE_TXN`) are not among them: a single busy thread's speed on the
/// shared host this was defined on wanders by 10-20% over minutes, the
/// driver measured 20-38% between the quartiles of ten runs of one build on
/// both mixes, and no bound the contract allows is that wide. Every traced
/// run measures them as a per-layer section instead (README.md, "The wire
/// section").
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "lib-read",
        why: "in-process read-only transactions of 4 gets on a hash map and a skiplist that fit L2: medley read-set bookkeeping and nbds traversal are the work, pmem and kvstore do none",
    },
    WorkloadSpec {
        name: "lib-txn",
        why: "zipf 0.9 cross-structure transfers (2 get + 2 put) on the same two structures: general commit, node allocation, EBR and real conflicts, so a read-path gain that taxes writers shows",
    },
    WorkloadSpec {
        name: "lib-durable",
        why: "the lib-txn transaction over durable maps with a 10 ms epoch advancer and Optane-like flush cost: txmontage payloads and pmem write-back are the work, pricing persistence with all else fixed",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every timing has the widest bound the contract allows: on the shared
/// two-vCPU host this was defined on, ten runs of one build spread by 4-17% of
/// their median (quartile distance, `AGREEMENT.md`), so a tighter bound would
/// reject unchanged code. See README.md, "Noise".
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

pub const PER_LAYER: &[MetricSpec] = &[
    // medley: fixed-input commit paths, then the workload's own counters.
    layer("medley.commit_ro_ns", "ns", "lower"),
    layer("medley.commit_fast_ns", "ns", "lower"),
    layer("medley.commit_general_ns", "ns", "lower"),
    layer("medley.ro_commits", "count", "higher"),
    layer("medley.fast_commits", "count", "higher"),
    layer("medley.general_commits", "count", "higher"),
    layer("medley.helps", "count", "lower"),
    layer("medley.cm_waits", "count", "lower"),
    layer("medley.attempts_per_commit", "ratio", "lower"),
    // nbds: the composition-tax table, standalone against transactional.
    layer("nbds.hash_get_nontx_ns", "ns", "lower"),
    layer("nbds.hash_get_txn_ns", "ns", "lower"),
    layer("nbds.hash_put_nontx_ns", "ns", "lower"),
    layer("nbds.hash_put_txn_ns", "ns", "lower"),
    layer("nbds.skip_get_nontx_ns", "ns", "lower"),
    layer("nbds.skip_get_txn_ns", "ns", "lower"),
    layer("nbds.skip_put_nontx_ns", "ns", "lower"),
    layer("nbds.skip_put_txn_ns", "ns", "lower"),
    layer("nbds.torn_audits", "count", "lower"),
    layer("nbds.audits", "count", "higher"),
    // txmontage: a single-op transaction on a durable hash map.
    layer("txmontage.get_txn_ns", "ns", "lower"),
    layer("txmontage.put_txn_ns", "ns", "lower"),
    // pmem
    layer("pmem.alloc_retire_ns", "ns", "lower"),
    layer("pmem.advance_epoch_us", "us", "lower"),
    layer("pmem.sync_us", "us", "lower"),
    layer("pmem.recover_ms", "ms", "lower"),
    layer("pmem.flushes_per_op", "ratio", "lower"),
    layer("pmem.fences_per_op", "ratio", "lower"),
    layer("pmem.epoch_lag_max", "count", "lower"),
    layer("pmem.slots_per_live", "ratio", "lower"),
    // kvstore.proto: one request's full codec path, both directions.
    layer("kvstore.proto.getb_ns", "ns", "lower"),
    layer("kvstore.proto.mgetb8_ns", "ns", "lower"),
    layer("kvstore.proto.msetb4_ns", "ns", "lower"),
    // kvstore.store: Store::exec without a socket.
    layer("kvstore.store.exec_getb_ns", "ns", "lower"),
    layer("kvstore.store.exec_putb_ns", "ns", "lower"),
    layer("kvstore.store.exec_mgetb8_ns", "ns", "lower"),
    layer("kvstore.store.exec_msetb4_ns", "ns", "lower"),
    layer("kvstore.store.exec_transfer_ns", "ns", "lower"),
    layer("kvstore.store.exec_msetb4_durable_ns", "ns", "lower"),
    layer("kvstore.store.exec_transfer_durable_ns", "ns", "lower"),
    // kvstore.server: depth-1 round trips, then the `wire-point` server's
    // counters over that mix's reference windows.
    layer("kvstore.server.rtt1_getb_p50_us", "us", "lower"),
    layer("kvstore.server.rtt1_contains_miss_p50_us", "us", "lower"),
    layer("kvstore.server.loop_overhead_us", "us", "lower"),
    layer("kvstore.server.ops_per_epoll_wait", "ratio", "higher"),
    layer("kvstore.server.spurious_wakeup_share", "ratio", "lower"),
    layer("kvstore.server.writev_saved_per_op", "ratio", "higher"),
    layer("kvstore.server.phase_epoll_wait_share", "ratio", "lower"),
    layer("kvstore.server.phase_decode_share", "ratio", "lower"),
    layer("kvstore.server.phase_execute_share", "ratio", "lower"),
    layer("kvstore.server.phase_flush_share", "ratio", "lower"),
    layer("kvstore.server.exec_getb_p50_ns", "ns", "lower"),
    layer("kvstore.server.shed", "count", "lower"),
    // obs
    layer("obs.hist_record_ns", "ns", "lower"),
    // Layer shares of one operation, from the traced windows.
    layer("trace.medley_share", "ratio", "lower"),
    layer("trace.nbds_share", "ratio", "lower"),
    layer("trace.txmontage_pmem_share", "ratio", "lower"),
    // The wire section: each mix end to end at the client, whether it
    // measured the server (`client_cpu_share` below a half), and the shares
    // of one request from the socket-free replay of the same stream.
    layer("wire-point.ops_per_s", "1/s", "higher"),
    layer("wire-point.cpu_us_per_op", "us", "lower"),
    layer("wire-point.p50_us", "us", "lower"),
    layer("wire-point.p99_us", "us", "lower"),
    layer("wire-point.client_cpu_share", "ratio", "lower"),
    layer("wire-point.codec_share", "ratio", "lower"),
    layer("wire-point.exec_share", "ratio", "lower"),
    layer("wire-point.loop_share", "ratio", "lower"),
    layer("wire-txn.ops_per_s", "1/s", "higher"),
    layer("wire-txn.cpu_us_per_op", "us", "lower"),
    layer("wire-txn.p50_us", "us", "lower"),
    layer("wire-txn.p99_us", "us", "lower"),
    layer("wire-txn.client_cpu_share", "ratio", "lower"),
    layer("wire-txn.codec_share", "ratio", "lower"),
    layer("wire-txn.exec_share", "ratio", "lower"),
    layer("wire-txn.loop_share", "ratio", "lower"),
    // The harness itself: how noisy the host was during this run.
    // Median latency is not end to end: in a closed loop it is the clients in
    // flight over `ops_per_s`, and it was the one timing whose spread over ten
    // runs of one build (up to 23%) left no margin under the 25% bound.
    layer("bench.p50_us", "us", "lower"),
    layer("bench.p99_us", "us", "lower"),
    layer("bench.p99_samples", "count", "higher"),
    layer("bench.window_iqr_share", "ratio", "lower"),
    layer("bench.loadavg_1m", "count", "lower"),
    layer("bench.trace_overhead_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("string field {key}"))
    }

    fn same_metrics(section: &str, ours: &[MetricSpec]) {
        let file = benchmark_json();
        let listed = file.get(section).and_then(Json::as_arr).expect(section);
        let names = |it: &mut dyn Iterator<Item = &str>| it.map(String::from).collect::<Vec<_>>();
        assert_eq!(
            names(&mut listed.iter().map(|m| field(m, "name"))),
            names(&mut ours.iter().map(|m| m.name)),
            "{section}: the same names in the same order"
        );
        for (theirs, ours) in listed.iter().zip(ours) {
            assert_eq!(field(theirs, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(field(theirs, "better"), ours.better, "{}", ours.name);
            assert_eq!(
                theirs.get("bound").and_then(Json::as_f64),
                ours.bound,
                "{}",
                ours.name
            );
            let keys = theirs.as_obj().unwrap().len();
            assert_eq!(
                keys,
                if ours.bound.is_some() { 4 } else { 3 },
                "{}",
                ours.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names_and_units() {
        same_metrics("end_to_end", END_TO_END);
        same_metrics("per_layer", PER_LAYER);
        let file = benchmark_json();
        let listed = file.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (theirs, ours) in listed.iter().zip(WORKLOADS) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "why"), ours.why);
        }
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let keys: Vec<&str> = file
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn the_contract_limits_hold() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up time has the largest bound"
        );
    }
}
