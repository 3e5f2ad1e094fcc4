//! One run of one workload: set-up (several times, for a median), the
//! measured windows, the output checks, and the metrics by name.

use crate::harness::{Measured, Watchdog, WindowPlan};
use crate::json::Json;
use crate::libwl::{self, LibCounters, LibEnv};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::trace::{self, Layer, Name, NoTrace, Recorder, TraceSummary};
use crate::wire::{self, ServerCounters, WireConfig};
use crate::{micro, sys};
use nbds::TxMap;
use std::time::{Duration, Instant};

/// Short enough that a run has more than a hundred of them, so that its
/// better half is well populated whatever the host does meanwhile; long enough
/// for a hundred ops of the slowest workload.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `check`: one set-up, two windows, output checks only.
    pub smoke: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The run's metrics in the order of their list in `spec`.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// `ops_per_s` of each untraced window: their spread says how noisy the
    /// host was during the run (`agree` records it).
    pub window_rates: Vec<f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(*v)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_line()
    }
}

/// Values by metric name, emitted in the order of a `spec` list with every
/// name present: a layer that does no work on this workload reports 0.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn extend(&mut self, more: Vec<(&'static str, f64)>) {
        self.0.extend(more);
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn in_order_of(self, list: &'static [MetricSpec]) -> Vec<(&'static MetricSpec, f64)> {
        for (name, _) in &self.0 {
            assert!(
                list.iter().any(|m| m.name == *name),
                "metric {name} is not in the spec"
            );
        }
        list.iter().map(|m| (m, self.get(m.name))).collect()
    }
}

/// Windows per phase. A traced run takes as long as an untraced one: its
/// time is split between the workload (untraced for the counters and the
/// reference rate, then traced) and the layers the workload does not reach
/// (the fixed-input timings and the wire section).
struct Plans {
    measure: usize,
    reference: usize,
    traced: usize,
    /// Per wire mix.
    wire_reference: usize,
    wire_traced: usize,
}

fn plans(opts: &Options) -> Plans {
    let n = ((opts.seconds / WINDOW.as_secs_f64()).round() as usize).max(2);
    let share = |percent: usize| {
        if opts.smoke {
            2
        } else {
            (n * percent / 100).max(2)
        }
    };
    Plans {
        measure: share(100),
        reference: share(40),
        traced: share(20),
        wire_reference: share(8),
        wire_traced: share(4),
    }
}

/// Builds the workload `SETUP_REPS` times (once for a smoke or traced run,
/// which do not report it) and keeps the last; returns the median time.
fn repeated_setup<E>(opts: &Options, mut build: impl FnMut() -> E) -> (E, f64) {
    let reps = if opts.smoke || opts.traced {
        1
    } else {
        SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    let mut env = None;
    for _ in 0..reps {
        // One built workload in memory at a time.
        drop(env.take());
        let t = Instant::now();
        env = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), median(&times))
}

fn end_to_end(setup_s: f64, m: &Measured) -> Vec<(&'static MetricSpec, f64)> {
    let mut v = Values(Vec::new());
    v.set("setup_s", setup_s);
    v.set("ops_per_s", m.ops_per_s());
    v.set("cpu_us_per_op", m.cpu_us_per_op());
    v.set("peak_rss_mb", sys::peak_rss_mib());
    v.in_order_of(END_TO_END)
}

fn tx_counters(v: &mut Values, tx: &medley::TxStatsSnapshot) {
    v.set("medley.ro_commits", tx.ro_commits as f64);
    v.set("medley.fast_commits", tx.fast_commits as f64);
    v.set("medley.general_commits", tx.general_commits as f64);
    v.set("medley.helps", tx.helps as f64);
    v.set("medley.cm_waits", tx.cm_waits as f64);
    v.set(
        "medley.attempts_per_commit",
        (tx.commits + tx.aborts) as f64 / tx.commits.max(1) as f64,
    );
}

fn harness_values(v: &mut Values, reference: &Measured, traced_rate: f64) {
    v.set("bench.p50_us", reference.p50_us());
    v.set("bench.p99_samples", reference.hist.total() as f64);
    v.set("bench.window_iqr_share", iqr_share(&reference.rate));
    v.set("bench.loadavg_1m", sys::loadavg_1m());
    v.set(
        "bench.trace_overhead_share",
        1.0 - traced_rate / reference.ops_per_s(),
    );
}

/// Depth-1 round trips on a `wire-point` server and what they leave for the
/// event loop once the fixed-input codec and executor timings are taken out.
fn round_trips(v: &mut Values, env: &mut wire::WireEnv) {
    let (getb, miss) = env.depth1_round_trips(4096);
    let rtt = getb.quantile(0.5) / 1e3;
    v.set("kvstore.server.rtt1_getb_p50_us", rtt);
    v.set(
        "kvstore.server.rtt1_contains_miss_p50_us",
        miss.quantile(0.5) / 1e3,
    );
    // By construction: round trip = codec + execute + everything else.
    let inside = v.get("kvstore.proto.getb_ns") + v.get("kvstore.store.exec_getb_ns");
    v.set("kvstore.server.loop_overhead_us", rtt - inside / 1e3);
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Writes `summary` to `out/trace-<workload>.json` with the layer shares
/// (the metrics whose names end in `_share` under `prefix`).
fn write_trace(
    workload: &str,
    prefix: &str,
    seed: u64,
    summary: &TraceSummary,
    v: &Values,
    notes: &mut Vec<String>,
) {
    let shares =
        v.0.iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with("_share"))
            .map(|(n, x)| (n.to_string(), Json::Num(*x)))
            .collect();
    let path = trace_path(workload);
    let extra = vec![("shares".to_string(), Json::Obj(shares))];
    match summary.write_file(&path, &sys::fingerprint(), workload, seed, extra) {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        // The spans are a by-product; the metrics still stand.
        Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
    }
}

fn run_lib<H: TxMap<u64>, S: TxMap<u64>>(
    opts: &Options,
    build: impl FnMut() -> LibEnv<H, S>,
) -> Outcome {
    let (env, setup_s) = repeated_setup(opts, build);
    let plan = plans(opts);
    let mut notes = Vec::new();
    // Every committed `run` is one commit: ops the threads counted and
    // commits the runtime counted must be the same number.
    let commits_off =
        |m: &Measured, c: &LibCounters| u64::from(c.tx.commits != m.attempted + c.audits);

    if !opts.traced {
        let phase = env.measure(WindowPlan::starting_now(WINDOW, plan.measure));
        let m = &phase.measured;
        let failed = m.failed + commits_off(m, &phase.counters) + env.verify();
        return Outcome {
            attempted: m.attempted,
            failed,
            metrics: end_to_end(setup_s, m),
            window_rates: m.rate.clone(),
            notes,
        };
    }

    let reference = env.measure(WindowPlan::starting_now(WINDOW, plan.reference));
    let (traced, summary) = env.measure_traced(
        WindowPlan::starting_now(WINDOW, plan.traced),
        trace::clock_read_ns(),
    );
    let (rm, rc) = (&reference.measured, &reference.counters);
    let mut v = Values(Vec::new());
    tx_counters(&mut v, &rc.tx);
    v.set("nbds.audits", traced.counters.audits as f64);
    v.set("nbds.torn_audits", traced.counters.torn_audits as f64);
    if let Some(domain) = env.domain() {
        let ops = rm.ops.max(1) as f64;
        v.set("pmem.flushes_per_op", rc.nvm.flushes as f64 / ops);
        v.set("pmem.fences_per_op", rc.nvm.fences as f64 / ops);
        v.set("pmem.epoch_lag_max", rc.epoch_lag_max as f64);
        let st = domain.stats();
        v.set(
            "pmem.slots_per_live",
            st.allocated_slots as f64 / st.live_payloads.max(1) as f64,
        );
    }
    let by_layer =
        [Layer::Medley, Layer::Nbds, Layer::TxmontagePmem].map(|l| summary.layer_self_ns(l));
    let total = by_layer.iter().sum::<u64>().max(1) as f64;
    v.set("trace.medley_share", by_layer[0] as f64 / total);
    v.set("trace.nbds_share", by_layer[1] as f64 / total);
    v.set("trace.txmontage_pmem_share", by_layer[2] as f64 / total);
    v.set("bench.p99_us", rm.hist.tail(0.99) / 1e3);
    harness_values(&mut v, rm, traced.measured.ops_per_s());
    write_trace(
        &opts.workload,
        "trace.",
        opts.seed,
        &summary,
        &v,
        &mut notes,
    );
    notes.push(format!(
        "{} traced transactions, {} spans",
        summary.calls(Name::Txn),
        Name::ALL.iter().map(|n| summary.calls(*n)).sum::<u64>()
    ));
    let mut attempted = rm.attempted + traced.measured.attempted;
    let mut failed = rm.failed
        + traced.measured.failed
        + commits_off(rm, rc)
        + commits_off(&traced.measured, &traced.counters)
        + env.verify();
    // The workload is done and dropped; now the layers it does not reach.
    drop(env);
    if !opts.smoke {
        v.extend(micro::all());
    }
    for cfg in wire::MIXES {
        let section = wire_section(opts, cfg, &mut v, &mut notes);
        attempted += section.attempted;
        failed += section.failed;
    }
    Outcome {
        attempted,
        failed,
        metrics: v.in_order_of(PER_LAYER),
        window_rates: rm.rate.clone(),
        notes,
    }
}

/// The `wire-point` server's own counters over the reference windows.
fn server_values(v: &mut Values, before: &ServerCounters, after: &ServerCounters, m: &Measured) {
    let ops = m.ops.max(1) as f64;
    let d = |a: u64, b: u64| (a - b) as f64;
    let (ea, eb) = (&after.events, &before.events);
    let waits = d(ea.epoll_waits, eb.epoll_waits).max(1.0);
    let dispatched = d(ea.events_dispatched, eb.events_dispatched).max(1.0);
    v.set("kvstore.server.ops_per_epoll_wait", ops / waits);
    v.set(
        "kvstore.server.spurious_wakeup_share",
        d(ea.spurious_wakeups, eb.spurious_wakeups) / dispatched,
    );
    v.set(
        "kvstore.server.writev_saved_per_op",
        d(ea.writev_saved, eb.writev_saved) / ops,
    );
    let phases: Vec<f64> = after
        .phases
        .iter()
        .zip(&before.phases)
        .map(|(a, b)| d(*a, *b))
        .collect();
    let all = phases.iter().sum::<f64>().max(1.0);
    for (name, ns) in [
        "kvstore.server.phase_epoll_wait_share",
        "kvstore.server.phase_decode_share",
        "kvstore.server.phase_execute_share",
        "kvstore.server.phase_flush_share",
    ]
    .into_iter()
    .zip(&phases)
    {
        v.set(name, ns / all);
    }
    let mut counts = *after.getb.counts();
    for (a, b) in counts.iter_mut().zip(before.getb.counts()) {
        *a -= b;
    }
    let getb = obs::LatencyHistogram::from_parts(counts, after.getb.max_ns());
    v.set(
        "kvstore.server.exec_getb_p50_ns",
        getb.quantile_ns(0.5) as f64,
    );
    v.set("kvstore.server.shed", d(after.shed, before.shed));
}

/// What a wire mix's section of a traced run leaves besides its metrics.
struct WireSection {
    reference: Measured,
    traced_rate: f64,
    attempted: u64,
    failed: u64,
}

/// The names one wire mix reports under.
struct WireNames {
    ops_per_s: &'static str,
    cpu_us_per_op: &'static str,
    p50_us: &'static str,
    p99_us: &'static str,
    client_cpu_share: &'static str,
    codec_share: &'static str,
    exec_share: &'static str,
    loop_share: &'static str,
}

fn wire_names(mix: wire::Mix) -> WireNames {
    match mix {
        wire::Mix::Point => WireNames {
            ops_per_s: "wire-point.ops_per_s",
            cpu_us_per_op: "wire-point.cpu_us_per_op",
            p50_us: "wire-point.p50_us",
            p99_us: "wire-point.p99_us",
            client_cpu_share: "wire-point.client_cpu_share",
            codec_share: "wire-point.codec_share",
            exec_share: "wire-point.exec_share",
            loop_share: "wire-point.loop_share",
        },
        wire::Mix::Txn => WireNames {
            ops_per_s: "wire-txn.ops_per_s",
            cpu_us_per_op: "wire-txn.cpu_us_per_op",
            p50_us: "wire-txn.p50_us",
            p99_us: "wire-txn.p99_us",
            client_cpu_share: "wire-txn.client_cpu_share",
            codec_share: "wire-txn.codec_share",
            exec_share: "wire-txn.exec_share",
            loop_share: "wire-txn.loop_share",
        },
    }
}

/// One wire mix, traced: untraced reference windows (the mix end to end and,
/// on `wire-point`, the server's counters and the depth-1 round trips), then
/// traced windows, then the same request stream replayed without the socket,
/// then the output checks.
fn wire_section(
    opts: &Options,
    cfg: WireConfig,
    v: &mut Values,
    notes: &mut Vec<String>,
) -> WireSection {
    let plan = plans(opts);
    let names = wire_names(cfg.mix);
    let mut env = wire::setup(cfg, opts.seed);
    let before = env.counters();
    let out = env.run_phase(
        WindowPlan::starting_now(WINDOW, plan.wire_reference),
        u64::MAX,
        &mut NoTrace,
    );
    let after = env.counters();
    let rm = Measured::merge(vec![out]);
    let clock_ns = trace::clock_read_ns();
    let traced_plan = WindowPlan::starting_now(WINDOW, plan.wire_traced);
    let mut rec = Recorder::new(traced_plan.t0, clock_ns, 0);
    let tm = Measured::merge(vec![env.run_phase(traced_plan, u64::MAX, &mut rec)]);
    let mut summary = TraceSummary::default();
    summary.add(rec);

    // The same request stream without the socket, on its own thread id.
    let replayed: u64 = if opts.smoke { 2_000 } else { 40_000 };
    let mut inline = Recorder::new(traced_plan.t0, clock_ns, 1);
    let inline_failed = wire::inline_replay(cfg, opts.seed, replayed, &mut inline);
    summary.add(inline);

    v.set(names.ops_per_s, rm.ops_per_s());
    v.set(names.cpu_us_per_op, rm.cpu_us_per_op());
    v.set(names.p50_us, rm.p50_us());
    v.set(names.p99_us, rm.hist.tail(0.99) / 1e3);
    v.set(
        names.client_cpu_share,
        rm.thread_cpu_ns[0] as f64 / rm.process_cpu_ns.max(1) as f64,
    );
    // One saturated worker: the wall time per request is what the server
    // spends on it. The replay prices the codec and the executor for the
    // same requests; the rest is the event loop, the syscalls, the loopback
    // and any wait for the client.
    let wall = 1e9 / rm.ops_per_s();
    let codec = summary.layer_self_ns(Layer::Codec) as f64 / replayed as f64;
    let exec = summary.layer_self_ns(Layer::Exec) as f64 / replayed as f64;
    v.set(names.codec_share, codec / wall);
    v.set(names.exec_share, exec / wall);
    v.set(names.loop_share, (wall - codec - exec).max(0.0) / wall);
    if cfg.mix == wire::Mix::Point {
        server_values(v, &before, &after, &rm);
        if !opts.smoke {
            round_trips(v, &mut env);
        }
    }
    write_trace(cfg.name, cfg.name, opts.seed, &summary, v, notes);
    notes.push(format!(
        "{}: {} traced requests, {replayed} replayed inline: codec {codec:.0} ns, exec {exec:.0} ns, wall {wall:.0} ns per request",
        cfg.name,
        summary.calls(Name::Request)
    ));
    let (bad, recover) = env.verify();
    if let Some(t) = recover {
        notes.push(format!(
            "{}: Store::recover after shutdown took {t:?}",
            cfg.name
        ));
    }
    WireSection {
        attempted: rm.attempted + tm.attempted + replayed,
        failed: rm.failed + tm.failed + inline_failed + bad,
        traced_rate: tm.ops_per_s(),
        reference: rm,
    }
}

/// A wire mix run as if it were a workload (`--workload wire-point`): the
/// driver does not, `check` does for the output checks.
fn run_wire(opts: &Options, cfg: WireConfig) -> Outcome {
    let mut notes = Vec::new();
    if opts.traced {
        let mut v = Values(Vec::new());
        if !opts.smoke {
            v.extend(micro::all());
        }
        let section = wire_section(opts, cfg, &mut v, &mut notes);
        harness_values(&mut v, &section.reference, section.traced_rate);
        return Outcome {
            attempted: section.attempted,
            failed: section.failed,
            metrics: v.in_order_of(PER_LAYER),
            window_rates: section.reference.rate,
            notes,
        };
    }
    let (mut env, setup_s) = repeated_setup(opts, || wire::setup(cfg, opts.seed));
    let out = env.run_phase(
        WindowPlan::starting_now(WINDOW, plans(opts).measure),
        u64::MAX,
        &mut NoTrace,
    );
    let m = Measured::merge(vec![out]);
    let (bad, _) = env.verify();
    Outcome {
        attempted: m.attempted,
        failed: m.failed + bad,
        metrics: end_to_end(setup_s, &m),
        window_rates: m.rate.clone(),
        notes,
    }
}

/// Runs one workload under a watchdog; `None` for a name that is not one.
pub fn run(opts: &Options) -> Option<Outcome> {
    // Five set-ups of up to ~3 s, the measured time, the checks.
    let budget = Duration::from_secs_f64(opts.seconds + 30.0);
    let _watchdog = Watchdog::arm(&opts.workload, "run", budget);
    let seed = opts.seed;
    Some(match opts.workload.as_str() {
        "lib-read" => run_lib(opts, || libwl::setup_transient(libwl::LIB_READ, seed)),
        "lib-txn" => run_lib(opts, || libwl::setup_transient(libwl::LIB_TXN, seed)),
        "lib-durable" => run_lib(opts, || libwl::setup_durable(libwl::LIB_DURABLE, seed)),
        "wire-point" => run_wire(opts, wire::WIRE_POINT),
        "wire-txn" => run_wire(opts, wire::WIRE_TXN),
        _ => return None,
    })
}
