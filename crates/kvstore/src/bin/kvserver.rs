//! Standalone kvstore server.
//!
//! ```text
//! cargo run --release -p kvstore --bin kvserver -- \
//!     --addr 127.0.0.1:7878 --workers 4 --shards 8 \
//!     --tables mixed --backend durable --advancer-us 200 \
//!     --metrics-addr 127.0.0.1:9187 --slow-us 1000 --trace-cap 256
//! ```
//!
//! Flags are `--flag VALUE`; anything else on the command line (an unknown
//! flag, `--flag=value`, a flag missing its value) prints the usage and
//! exits with status 2.
//!
//! Telemetry is on by default; `--no-telemetry` turns off its clock reads
//! (latency histograms, phase time and slow-request traces stay empty; the
//! counts are kept).  `--metrics-addr HOST:PORT` additionally serves the
//! Prometheus text exposition at `/metrics` on a dedicated thread.  `--slow-us` sets the
//! slow-request trace threshold (0 traces everything) and `--trace-cap`
//! the per-worker ring capacity.
//!
//! Prints the bound address on stdout, then serves until stdin reaches EOF
//! or a line is entered (so `kvserver < /dev/null` in scripts still drains
//! gracefully via the `--seconds` limit, and an interactive Enter stops it).
//! `--seconds N` serves for N seconds and then drains — handy for smoke
//! runs.

use kvstore::{
    OverloadConfig, Server, ServerConfig, StoreBackend, StoreConfig, TableKind, TelemetryConfig,
};
use std::collections::HashMap;
use std::time::Duration;

/// Flags that take a value, as `--flag VALUE`.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--shards",
    "--tables",
    "--cache-capacity",
    "--backend",
    "--advancer-us",
    "--retries",
    "--seconds",
    "--shed-high",
    "--shed-low",
    "--metrics-addr",
    "--slow-us",
    "--trace-cap",
];
/// Flags that take none.
const SWITCHES: &[&str] = &["--no-telemetry"];

/// The command line, checked against the two lists above: an argument that
/// is neither (a misspelt flag, `--flag=value`, a stray word) and a value
/// flag in last position are errors, so `--worker 8` cannot quietly serve
/// with the default four workers.
struct Args(HashMap<&'static str, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut seen = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = SWITCHES.iter().find(|f| *f == arg) {
                seen.insert(*name, String::new());
            } else if let Some(name) = VALUE_FLAGS.iter().find(|f| *f == arg) {
                let value = it.next().ok_or(format!("{name} requires a value"))?;
                seen.insert(*name, value.clone());
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(Self(seen))
    }

    fn has(&self, name: &str) -> bool {
        debug_assert!(SWITCHES.contains(&name), "{name} is not a listed switch");
        self.0.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        debug_assert!(VALUE_FLAGS.contains(&name), "{name} is not a listed flag");
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {name}")),
        }
    }
}

/// The server configuration and `--seconds` the arguments (without the
/// program name) ask for.
fn configure(args: &[String]) -> Result<(ServerConfig, f64), String> {
    let args = Args::parse(args)?;
    let tables = match args.get("--tables", "hash".to_string())?.as_str() {
        "hash" => TableKind::Hash,
        "skip" => TableKind::Skip,
        "mixed" => TableKind::Mixed,
        "elastic" => TableKind::Elastic,
        "cache" => TableKind::Cache {
            capacity: args.get("--cache-capacity", 1 << 16)?,
        },
        other => {
            return Err(format!(
                "unknown --tables {other:?} (hash|skip|mixed|elastic|cache)"
            ))
        }
    };
    let backend = match args.get("--backend", "transient".to_string())?.as_str() {
        "transient" => StoreBackend::Transient,
        "durable" => StoreBackend::Durable,
        other => return Err(format!("unknown --backend {other:?} (transient|durable)")),
    };
    let advancer_us: u64 = args.get("--advancer-us", 200)?;
    let metrics_addr: String = args.get("--metrics-addr", String::new())?;
    let telemetry = TelemetryConfig {
        enabled: !args.has("--no-telemetry"),
        slow_threshold: Duration::from_micros(args.get(
            "--slow-us",
            TelemetryConfig::default().slow_threshold.as_micros() as u64,
        )?),
        trace_capacity: args.get("--trace-cap", TelemetryConfig::default().trace_capacity)?,
        metrics_addr: (!metrics_addr.is_empty()).then_some(metrics_addr),
    };
    let cfg = ServerConfig {
        addr: args.get("--addr", "127.0.0.1:7878".to_string())?,
        workers: args.get("--workers", 4)?,
        store: StoreConfig {
            shards: args.get("--shards", 8)?,
            tables,
            backend,
            max_retries: args.get("--retries", 256)?,
            advancer_period: (advancer_us > 0).then(|| Duration::from_micros(advancer_us)),
            ..Default::default()
        },
        overload: OverloadConfig {
            shed_high: args.get("--shed-high", OverloadConfig::default().shed_high)?,
            shed_low: args.get("--shed-low", OverloadConfig::default().shed_low)?,
            ..Default::default()
        },
        telemetry,
        ..Default::default()
    };
    Ok((cfg, args.get("--seconds", 0.0)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, seconds) = configure(&args).unwrap_or_else(|e| {
        eprintln!("kvserver: {e}");
        eprintln!(
            "usage: kvserver [{}] [{} VALUE]...",
            SWITCHES.join("|"),
            VALUE_FLAGS.join("|")
        );
        std::process::exit(2);
    });
    // Every connection is a file descriptor; lift the soft cap to the hard
    // cap up front so a connection-heavy benchmark doesn't die on EMFILE.
    match kvstore::sys::raise_nofile_limit() {
        Ok((prev, now)) if prev != now => println!("RLIMIT_NOFILE raised: {prev} -> {now}"),
        Ok((_, now)) => println!("RLIMIT_NOFILE already at hard limit: {now}"),
        Err(e) => eprintln!("warning: could not raise RLIMIT_NOFILE: {e}"),
    }

    let server = Server::start(&cfg).expect("bind kvstore server");
    println!("kvserver listening on {}", server.local_addr());
    println!(
        "  workers={} shards={} tables={:?} backend={:?}",
        cfg.workers, cfg.store.shards, cfg.store.tables, cfg.store.backend
    );
    if let Some(addr) = server.metrics_local_addr() {
        println!("  metrics exposition on http://{addr}/metrics");
    }

    if seconds > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(seconds));
    } else {
        // Serve until stdin closes or a line arrives.
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
    }
    println!("draining...");
    let load = server.load_stats();
    let events = server.event_stats();
    // Telemetry summary before shutdown consumes the server: the busiest
    // opcode's quantiles plus total slow-trace records — enough to see at a
    // glance whether the run was healthy.
    if let Some(tel) = server.telemetry() {
        let m = tel.metrics_reply();
        let timed = m.ops.iter().filter(|o| o.hist.total() > 0);
        if let Some(top) = timed.max_by_key(|o| o.hist.total()) {
            let (p50, p90, p99) = top.hist.percentiles_ns();
            println!(
                "telemetry: busiest opcode 0x{:02x}: {} reqs, p50/p90/p99 = {}/{}/{} ns, {} retries",
                top.opcode,
                top.hist.total(),
                p50,
                p90,
                p99,
                top.retries
            );
        }
        let t = tel.trace_reply();
        println!(
            "telemetry: {} slow-trace records held ({} evicted)",
            t.records.len(),
            t.evicted
        );
    }
    let store = server.shutdown();
    let snap = store.manager().stats_snapshot();
    println!(
        "served: {} commits ({} fast / {} ro / {} general), {} aborts ({} conflict)",
        snap.commits,
        snap.fast_commits,
        snap.ro_commits,
        snap.general_commits,
        snap.aborts,
        snap.conflict_aborts
    );
    println!(
        "load: {} shed, peak backlog {} B, {} accept retries, {} cm waits",
        load.shed_requests, load.peak_inflight_bytes, load.accept_retries, snap.cm_waits
    );
    println!(
        "events: {} epoll_waits, {} dispatched, {} spurious, {} writes saved by writev",
        events.epoll_waits, events.events_dispatched, events.spurious_wakeups, events.writev_saved
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configure_strs(args: &[&str]) -> Result<(ServerConfig, f64), String> {
        configure(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_strictly() {
        let (cfg, seconds) = configure_strs(&[
            "--workers",
            "8",
            "--no-telemetry",
            "--seconds",
            "0.5",
            "--tables",
            "cache",
        ])
        .expect("valid arguments");
        assert_eq!((cfg.workers, seconds), (8, 0.5));
        assert!(!cfg.telemetry.enabled);
        assert_eq!(cfg.store.shards, 8, "absent = default");
        assert!(matches!(
            cfg.store.tables,
            TableKind::Cache { capacity: 65536 }
        ));
        for (bad, why) in [
            (&["--worker", "8"][..], "unknown argument \"--worker\""),
            (&["--workers=8"][..], "unknown argument \"--workers=8\""),
            (
                &["--workers", "8x"][..],
                "invalid value \"8x\" for --workers",
            ),
            (
                &["--shards", "4", "--workers"][..],
                "--workers requires a value",
            ),
        ] {
            let err = configure_strs(bad).err();
            assert_eq!(err.as_deref(), Some(why), "{bad:?}");
        }
    }
}
