//! `benchmark agree [N]`: does the benchmark agree with itself? Two sets of N
//! runs of this very build, each run its own process (peak RSS is per
//! process) with its own seed, compared the way the driver compares a change
//! with its parent: per workload and end-to-end metric, the second set's
//! median may not be worse than the first's by more than the metric's bound,
//! and the spread inside a set (quartile distance over median) must stay
//! within the bound too, set-up time excepted.

use crate::json::{self, Json};
use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::sys;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

struct RunValues {
    /// In `END_TO_END` order.
    metrics: Vec<f64>,
    window_iqr_share: f64,
    loadavg_1m: f64,
}

fn one_run(workload: &str, seed: u64) -> Result<RunValues, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let result = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(result)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: not correct"));
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|entry| entry.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: no value for {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| json::parse(l).ok());
    let info_value = |key: &str| {
        info.as_ref()
            .and_then(|i| i.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(RunValues {
        metrics,
        window_iqr_share: info_value("window_iqr_share"),
        loadavg_1m: info_value("loadavg_1m"),
    })
}

/// By how much of `a` is `b` worse, in the metric's own direction.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "lower" {
        change
    } else {
        -change
    }
}

pub fn agree(n: usize) -> ExitCode {
    let mut md = String::new();
    let _ = writeln!(md, "Machine: `{}`\n", sys::fingerprint());
    let _ = writeln!(md, "# Agreement of the benchmark with itself\n");
    let _ = writeln!(
        md,
        "`benchmark agree {n}`: two sets of {n} runs of one build, {RUN_SECONDS} s measured per run, a new seed per run. \
         `worse by` is the second set's median against the first's in the metric's own direction; \
         `spread` is the distance between a set's quartiles over its median. A row is `ok` when \
         `worse by` and both spreads are within the bound (`setup_s`: `worse by` only).\n"
    );
    let mut violations = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let mut sets: Vec<Vec<RunValues>> = Vec::new();
        for set in 0..2u64 {
            let mut runs = Vec::new();
            for i in 0..n as u64 {
                let seed = 1000 * (set + 1) + 10 * wi as u64 + i;
                eprintln!(
                    "agree: {} set {} run {}/{n} (seed {seed})",
                    w.name,
                    set + 1,
                    i + 1
                );
                match one_run(w.name, seed) {
                    Ok(r) => runs.push(r),
                    Err(e) => {
                        eprintln!("agree: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            sets.push(runs);
        }
        let noise = |f: fn(&RunValues) -> f64| {
            let all: Vec<f64> = sets.iter().flatten().map(f).collect();
            median(&all)
        };
        let _ = writeln!(
            md,
            "## {}\n\nmedian `bench.window_iqr_share` {:.4}, median `bench.loadavg_1m` {:.2} over the {} runs\n",
            w.name,
            noise(|r| r.window_iqr_share),
            noise(|r| r.loadavg_1m),
            2 * n
        );
        let _ = writeln!(
            md,
            "| metric | unit | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | |\n|---|---|---|---|---|---|---|---|---|"
        );
        for (mi, m) in END_TO_END.iter().enumerate() {
            let col = |set: &Vec<RunValues>| set.iter().map(|r| r.metrics[mi]).collect::<Vec<_>>();
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let worse = worse_by(median(&a), median(&b), m.better);
            let (sa, sb) = (iqr_share(&a), iqr_share(&b));
            let spread_ok = m.name == "setup_s" || (sa <= bound && sb <= bound);
            let ok = worse <= bound && spread_ok;
            violations += usize::from(!ok);
            let _ = writeln!(
                md,
                "| `{}` | {} | {:.4} | {:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                m.name,
                m.unit,
                median(&a),
                median(&b),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "VIOLATION" }
            );
        }
        md.push('\n');
    }
    let _ = writeln!(
        md,
        "{}",
        if violations == 0 {
            "Every end-to-end metric of every workload agrees within its bound.".to_string()
        } else {
            format!("{violations} rows violate their bound.")
        }
    );
    print!("{md}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("AGREEMENT.md");
    if let Err(e) = std::fs::write(&path, &md) {
        eprintln!("agree: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
