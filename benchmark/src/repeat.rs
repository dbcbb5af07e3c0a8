//! `spread`: the repeatability table. Runs a workload several times, each
//! run a fresh process as the driver would start it, and prints for every
//! end-to-end metric and every time-valued diagnostic its values, median and
//! spreads. `REPEATABILITY.md` is made of these tables.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::stats;

/// Diagnostics worth a row: the demoted end-to-end candidates.
const TABLED_DIAGNOSTICS: [&str; 6] = [
    "p50_us",
    "p90_us",
    "p99_us",
    "cpu_us_per_req",
    "visible_ms",
    "sched_lag_p99_us",
];

/// Runs `workload` once and returns its result file.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    let path = crate::report::out_dir().join(format!("result.{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("unreadable result file: {e}"))
}

/// The largest bound the benchmark contract allows.
const MAX_BOUND: f64 = 0.25;

/// The regression bound a measured spread earns: three times the
/// interquartile spread (so the spread stays below a third of the bound),
/// rounded up to the next 0.05, at least 0.05; `None` — demote — when that
/// exceeds the contract's 0.25.
pub fn derived_bound(iqr_spread: f64) -> Option<f64> {
    let bound = ((3.0 * iqr_spread / 0.05 - 1e-9).ceil() * 0.05).max(0.05);
    (bound <= MAX_BOUND + 1e-9).then_some(bound)
}

/// Prints the markdown table of `seeds.len()` runs of one workload.
pub fn table(workload: &str, seeds: &[u64], seconds: u64) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for &seed in seeds {
        let result = run_once(workload, seed, seconds)?;
        let gated = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("no metrics")?;
        let diagnostics = result
            .get("diagnostics")
            .and_then(Value::as_object)
            .ok_or("no diagnostics")?;
        let rows: Vec<(String, &Value)> = gated
            .iter()
            .map(|(name, m)| (name.clone(), m))
            .chain(
                diagnostics
                    .iter()
                    .filter(|(name, _)| TABLED_DIAGNOSTICS.contains(&name.as_str()))
                    .map(|(name, m)| (format!("{name} (diagnostic)"), m)),
            )
            .collect();
        if names.is_empty() {
            names = rows.iter().map(|(name, _)| name.clone()).collect();
            columns = vec![Vec::new(); names.len()];
        }
        for (column, (_, metric)) in columns.iter_mut().zip(&rows) {
            column.push(
                metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a value")?,
            );
        }
    }
    println!(
        "### {workload} — {} runs, seeds {seeds:?}, {seconds} s\n",
        seeds.len()
    );
    println!("| metric | values | median | (max−min)/median | IQR/median | bound this run alone would earn |");
    println!("|---|---|---|---|---|---|");
    for (name, values) in names.iter().zip(&columns) {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        let range = stats::range_spread(values).unwrap_or(f64::NAN);
        let iqr = stats::iqr_spread(values).unwrap_or(f64::NAN);
        let bound = derived_bound(iqr).map_or(String::from("demote"), |b| format!("{b:.2}"));
        println!(
            "| `{name}` | {} | {:.4} | {range:.4} | {iqr:.4} | {bound} |",
            shown.join(" "),
            stats::median(values).unwrap_or(f64::NAN)
        );
    }
    println!();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_measured_spread() {
        let close = |bound: Option<f64>, to: f64| bound.is_some_and(|b| (b - to).abs() < 1e-9);
        assert!(close(derived_bound(0.0), 0.05));
        assert!(close(derived_bound(0.01), 0.05));
        assert!(close(derived_bound(0.04), 0.15));
        assert!(close(derived_bound(0.05), 0.15));
        assert!(close(derived_bound(0.08), 0.25));
        assert_eq!(
            derived_bound(0.09),
            None,
            "three times 0.09 is beyond the contract's 0.25"
        );
    }
}
