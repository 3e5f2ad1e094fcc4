//! Prometheus-style text exposition.
//!
//! Renders a [`MetricsSnapshot`] as the plain-text
//! format every scraper understands (`# TYPE` headers, `name{label="v"} N`
//! samples), so a registry can be served off a bare `TcpListener` with no
//! HTTP framework.  Latency appears twice per operation: as a cumulative
//! `le`-labelled bucket family (the raw log buckets, for scrapers that
//! aggregate server-side) and as pre-computed quantile gauges (for humans
//! and smoke tests).  Inactive operations are omitted — a scrape reflects
//! the traffic the server actually saw.  Per-worker phase time and
//! per-worker counters are emitted for every worker, zeros included.

use crate::registry::{MetricsSnapshot, RegistrySpec};
use std::fmt::Write as _;

/// Renders the full exposition.  `prefix` namespaces every family (e.g.
/// `"kv"` yields `kv_op_latency_ns_bucket`), `uptime_secs` is the
/// process uptime reported as `<prefix>_uptime_seconds`.
pub fn render(
    spec: &RegistrySpec,
    snap: &MetricsSnapshot,
    uptime_secs: f64,
    prefix: &str,
) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# TYPE {prefix}_uptime_seconds gauge");
    let _ = writeln!(out, "{prefix}_uptime_seconds {uptime_secs:.3}");

    let active: Vec<_> = snap.ops.iter().filter(|o| o.is_active()).collect();

    let _ = writeln!(out, "# TYPE {prefix}_op_latency_ns histogram");
    for o in &active {
        let op = spec.ops[o.op];
        let mut cum = 0u64;
        for (i, &c) in o.hist.counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            // Bucket i holds samples in [2^i, 2^(i+1)): the upper bound is
            // the next power of two.
            let le = 1u128 << (i + 1);
            let _ = writeln!(
                out,
                "{prefix}_op_latency_ns_bucket{{op=\"{op}\",le=\"{le}\"}} {cum}"
            );
        }
        let _ = writeln!(
            out,
            "{prefix}_op_latency_ns_bucket{{op=\"{op}\",le=\"+Inf\"}} {cum}"
        );
        let _ = writeln!(
            out,
            "{prefix}_op_latency_ns_count{{op=\"{op}\"}} {}",
            o.hist.total()
        );
        let _ = writeln!(
            out,
            "{prefix}_op_latency_ns_max{{op=\"{op}\"}} {}",
            o.hist.max_ns()
        );
    }

    let _ = writeln!(out, "# TYPE {prefix}_op_latency_quantile_ns gauge");
    for o in &active {
        let op = spec.ops[o.op];
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
            let _ = writeln!(
                out,
                "{prefix}_op_latency_quantile_ns{{op=\"{op}\",quantile=\"{label}\"}} {}",
                o.hist.quantile_ns(q)
            );
        }
    }

    let _ = writeln!(out, "# TYPE {prefix}_op_aborts_total counter");
    for o in &active {
        let op = spec.ops[o.op];
        for (e, &n) in o.errors.iter().enumerate() {
            if n > 0 {
                let reason = spec.errors[e];
                let _ = writeln!(
                    out,
                    "{prefix}_op_aborts_total{{op=\"{op}\",reason=\"{reason}\"}} {n}"
                );
            }
        }
    }

    let _ = writeln!(out, "# TYPE {prefix}_op_retries_total counter");
    for o in &active {
        if o.retries > 0 {
            let op = spec.ops[o.op];
            let _ = writeln!(
                out,
                "{prefix}_op_retries_total{{op=\"{op}\"}} {}",
                o.retries
            );
        }
    }

    let family = format!("{prefix}_worker_phase_ns_total");
    per_worker(&mut out, &family, "phase", spec.phases, &snap.phase_ns);
    let family = format!("{prefix}_worker_events_total");
    per_worker(&mut out, &family, "event", spec.counters, &snap.counters);
    out
}

/// One counter family with a sample per worker × label, zeros included.
fn per_worker(out: &mut String, family: &str, key: &str, labels: &[&str], rows: &[Vec<u64>]) {
    let _ = writeln!(out, "# TYPE {family} counter");
    for (w, row) in rows.iter().enumerate() {
        for (label, n) in labels.iter().zip(row) {
            let _ = writeln!(out, "{family}{{worker=\"{w}\",{key}=\"{label}\"}} {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    const SPEC: RegistrySpec = RegistrySpec {
        ops: &["get", "put"],
        errors: &["retry"],
        phases: &["wait"],
        counters: &["wakes"],
    };

    #[test]
    fn exposition_contains_every_active_family() {
        let reg = MetricsRegistry::new(SPEC, 1);
        reg.worker(0).record_op(0, 2_000, 3);
        reg.worker(0).record_op(0, 9_000, 0);
        reg.worker(0).record_error(0, 0);
        reg.worker(0).add_phase_ns(0, 12_345);
        reg.worker(0).add(0, 6);
        let text = render(reg.spec(), &reg.snapshot(), 4.5, "kv");

        assert!(text.contains("kv_uptime_seconds 4.500"));
        assert!(text.contains("kv_op_latency_ns_count{op=\"get\"} 2"));
        assert!(text.contains("kv_op_latency_ns_bucket{op=\"get\",le=\"+Inf\"} 2"));
        assert!(text.contains("kv_op_latency_quantile_ns{op=\"get\",quantile=\"0.99\"}"));
        assert!(text.contains("kv_op_aborts_total{op=\"get\",reason=\"retry\"} 1"));
        assert!(text.contains("kv_op_retries_total{op=\"get\"} 3"));
        assert!(text.contains("kv_worker_phase_ns_total{worker=\"0\",phase=\"wait\"} 12345"));
        assert!(text.contains("# TYPE kv_worker_events_total counter"));
        assert!(text.contains("kv_worker_events_total{worker=\"0\",event=\"wakes\"} 6"));
        // Inactive op omitted entirely.
        assert!(!text.contains("op=\"put\""));
    }

    #[test]
    fn bucket_counts_are_cumulative() {
        let reg = MetricsRegistry::new(SPEC, 1);
        // Two samples in bucket 1 ([2,4)), one in bucket 3 ([8,16)).
        reg.worker(0).record_op(1, 2, 0);
        reg.worker(0).record_op(1, 3, 0);
        reg.worker(0).record_op(1, 9, 0);
        let text = render(reg.spec(), &reg.snapshot(), 0.0, "kv");
        assert!(text.contains("kv_op_latency_ns_bucket{op=\"put\",le=\"4\"} 2"));
        assert!(text.contains("kv_op_latency_ns_bucket{op=\"put\",le=\"16\"} 3"));
        assert!(text.contains("kv_op_latency_ns_bucket{op=\"put\",le=\"+Inf\"} 3"));
    }
}
