//! The repo benchmark. See README.md next to this crate for the workloads,
//! the metrics and what each is expected to move.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark check            # every workload and wire mix, two windows, output checks only
//! benchmark trace            # every workload traced; spans to out/trace-*.json
//! benchmark agree [N]        # two sets of N runs of this build; AGREEMENT.md
//! ```
//!
//! `--workload` also takes `wire-point` and `wire-txn`, the two wire mixes
//! that `BENCHMARK.json` does not list (see `spec::WORKLOADS`).

mod agree;
mod gen;
mod harness;
mod json;
mod libwl;
mod micro;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;

use run::{Options, Outcome};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       benchmark check | trace | agree [N]",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn print_outcome(opts: &Options, out: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} cores={} loadavg_1m={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        sys::cores(),
        sys::loadavg_1m()
    );
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == opts.workload) {
        println!("# why: {}", w.why);
    }
    for (m, v) in &out.metrics {
        println!("{:<44} {:>16.4} {}", m.name, v, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "info {}",
        json::Json::Obj(vec![
            (
                "window_iqr_share".into(),
                json::Json::Num(stats::iqr_share(&out.window_rates)),
            ),
            (
                "window_ops_per_s".into(),
                json::Json::Arr(
                    out.window_rates
                        .iter()
                        .map(|r| json::Json::Num(r.round()))
                        .collect()
                ),
            ),
            ("loadavg_1m".into(), json::Json::Num(sys::loadavg_1m())),
        ])
        .to_line()
    );
}

/// The driver's contract: one workload, the result as the last line.
fn driver_run(args: &[String]) -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| opts.seconds = v)
                .is_ok_and(|()| opts.seconds > 0.0 && opts.seconds <= 60.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.traced = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(out) = run::run(&opts) else {
        return usage();
    };
    print_outcome(&opts, &out);
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {}: {} of {} operations or checks failed",
            opts.workload, out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

/// `check` (smoke, the wire mixes too) and `trace`: every workload in this
/// process.
fn all_workloads(traced: bool, smoke: bool, seconds: f64) -> ExitCode {
    let mut failed = false;
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    if smoke {
        names.extend(wire::MIXES.iter().map(|m| m.name));
    }
    for name in names {
        let opts = Options {
            workload: name.to_string(),
            seed: 1,
            seconds,
            traced,
            smoke,
        };
        let out = run::run(&opts).expect("a listed workload");
        if smoke {
            println!(
                "{:<12} {} ({} attempted, {} failed)",
                name,
                if out.correct() { "ok" } else { "FAILED" },
                out.attempted,
                out.failed
            );
        } else {
            print_outcome(&opts, &out);
        }
        failed |= !out.correct();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // Counted now, before any thread pins itself (see `sys::cores`).
    sys::cores();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") if args.len() == 1 => all_workloads(false, true, 1.0),
        Some("trace") if args.len() == 1 => all_workloads(true, false, spec::RUN_SECONDS as f64),
        Some("agree") if args.len() <= 2 => match args.get(1).map(|n| n.parse::<usize>()) {
            None => agree::agree(5),
            Some(Ok(n)) if n >= 2 => agree::agree(n),
            Some(_) => usage(),
        },
        Some(flag) if flag.starts_with("--") => driver_run(&args),
        _ => usage(),
    }
}
