//! Results: the host fingerprint, the human-readable report, the result
//! file under `benchmark/out/`, and the one-line contract result on stdout.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises, where that means something.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// The result of running one workload once.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run (end-to-end
    /// for an untraced run, per-layer for a traced one).
    pub metrics: Vec<Metric>,
    /// Printed and written to the result file, never gated.
    pub diagnostics: Vec<Metric>,
    /// Anything a reader of the numbers must know (first failure, an
    /// invalid generator, a noisy host).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The directory of the benchmark package in this checkout.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// A machine busier than this before a run starts is stamped noisy.
const NOISY_BUSY_SHARE: f64 = 0.2;

/// Where and on what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub kernel: String,
    pub governor: String,
    /// 1-minute load average when the run started. It counts this
    /// benchmark's own keep-awake threads of the run before, so it is
    /// recorded, not judged.
    pub load_1m: f64,
    /// Share of all cores' time that was not idle over the 100 ms before
    /// the run started, when nothing of this run was running yet.
    pub busy_at_start: f64,
}

/// `(busy, total)` clock ticks of all cores since boot, from `/proc/stat`.
fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …
    let total: f64 = ticks.iter().take(8).sum();
    let idle = ticks.get(3)? + ticks.get(4)?;
    Some((total - idle, total))
}

/// Busy share of the machine over a short window, before the run starts.
fn busy_share() -> f64 {
    let before = cpu_ticks();
    std::thread::sleep(std::time::Duration::from_millis(100));
    match (before, cpu_ticks()) {
        (Some((b0, t0)), Some((b1, t1))) if t1 > t0 => (b1 - b0) / (t1 - t0),
        _ => 0.0,
    }
}

fn first_line(output: std::io::Result<std::process::Output>) -> Option<String> {
    let output = output.ok().filter(|o| o.status.success())?;
    String::from_utf8(output.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

impl Fingerprint {
    pub fn take() -> Self {
        let unknown = || String::from("unknown");
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line(Command::new("rustc").arg("-V").output()).unwrap_or_else(unknown),
            // The driver's checkout is not a git repository; the commit is
            // then unknown, not an error.
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(benchmark_dir())
                    .stderr(std::process::Stdio::null())
                    .output(),
            )
            .unwrap_or_else(unknown),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            governor: read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(|| String::from("unreadable")),
            load_1m: read_trimmed("/proc/loadavg")
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
            busy_at_start: busy_share(),
        }
    }

    /// Something else was using the machine when the run started: still
    /// run, but stamp the result.
    pub fn noisy_host(&self) -> bool {
        self.busy_at_start > NOISY_BUSY_SHARE
    }

    fn to_json(&self) -> String {
        format!(
            r#"{{"nproc":{},"rustc":{},"commit":{},"kernel":{},"governor":{},"load_1m":{},"busy_at_start":{}}}"#,
            self.nproc,
            json::quote(&self.rustc),
            json::quote(&self.commit),
            json::quote(&self.kernel),
            json::quote(&self.governor),
            self.load_1m,
            self.busy_at_start
        )
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match m.samples {
                Some(n) if with_samples => format!(r#","samples":{n}"#),
                _ => String::new(),
            };
            format!(
                r#"{}:{{"value":{},"unit":{}{samples}}}"#,
                json::quote(m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one JSON object the benchmark contract asks for as the last line of
/// stdout: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(outcome: &Outcome) -> String {
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    )
}

/// What kind of run produced an outcome.
#[derive(Debug, Clone, Copy)]
pub struct RunLabel<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Smoke numbers are taken on the tiny dataset and are never comparable.
    pub smoke: bool,
}

/// The full result, fingerprint included, as written to
/// `out/result.<workload>[.trace].json`.
pub fn result_json(label: RunLabel, fingerprint: &Fingerprint, outcome: &Outcome) -> String {
    let notes: Vec<String> = outcome.notes.iter().map(|n| json::quote(n)).collect();
    format!(
        concat!(
            r#"{{"workload":{},"seed":{},"seconds":{},"traced":{},"mode":{},"#,
            r#""fingerprint":{},"noisy_host":{},"correct":{},"attempted":{},"failed":{},"#,
            r#""metrics":{},"diagnostics":{},"notes":[{}]}}"#
        ),
        json::quote(label.workload),
        label.seed,
        label.seconds,
        label.traced,
        json::quote(if label.smoke { "smoke" } else { "full" }),
        fingerprint.to_json(),
        fingerprint.noisy_host(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, true),
        metrics_json(&outcome.diagnostics, true),
        notes.join(",")
    )
}

pub fn write_result(
    label: RunLabel,
    fingerprint: &Fingerprint,
    outcome: &Outcome,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let suffix = if label.traced { ".trace" } else { "" };
    let path = dir.join(format!("result.{}{suffix}.json", label.workload));
    std::fs::write(&path, result_json(label, fingerprint, outcome) + "\n")?;
    Ok(path)
}

/// Every metric by name with its unit, for people.
pub fn human(label: RunLabel, fingerprint: &Fingerprint, outcome: &Outcome) -> String {
    let mut out = String::new();
    let mode = if label.smoke {
        " [smoke: tiny dataset, numbers never comparable]"
    } else {
        ""
    };
    let kind = if label.traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    let _ = writeln!(
        out,
        "== {} seed={} seconds={} {kind}{mode}",
        label.workload, label.seed, label.seconds
    );
    let _ = writeln!(
        out,
        "   host: nproc={} load_1m={} busy_at_start={:.2} kernel={} governor={} {} commit={}",
        fingerprint.nproc,
        fingerprint.load_1m,
        fingerprint.busy_at_start,
        fingerprint.kernel,
        fingerprint.governor,
        fingerprint.rustc,
        fingerprint.commit
    );
    if fingerprint.noisy_host() {
        let _ = writeln!(
            out,
            "   NOISY HOST: the machine was busy before the run started; result stamped noisy_host"
        );
    }
    let mut row = |m: &Metric, tag: &str| {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        let _ = writeln!(
            out,
            "   {:<28} {:>14.4} {:<6}{tag}{samples}",
            m.name, m.value, m.unit
        );
    };
    for m in &outcome.metrics {
        row(m, "");
    }
    for m in &outcome.diagnostics {
        row(m, "  [diagnostic]");
    }
    let _ = writeln!(
        out,
        "   attempted={} failed={} correct={}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "   note: {note}");
    }
    out
}

/// The workload and metric names `BENCHMARK.json` declares.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
    pub run_seconds: u64,
}

pub fn read_declared() -> Result<Declared, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let names = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|entry| {
                let name = entry.get("name").and_then(Value::as_str);
                let second = entry.get(field).and_then(Value::as_str);
                match (name, second) {
                    (Some(n), Some(s)) => Ok((n.to_owned(), s.to_owned())),
                    _ => Err(format!(
                        "BENCHMARK.json: an entry of {key} lacks name or {field}"
                    )),
                }
            })
            .collect()
    };
    Ok(Declared {
        workloads: names("workloads", "why")?
            .into_iter()
            .map(|(name, _)| name)
            .collect(),
        end_to_end: names("end_to_end", "unit")?,
        per_layer: names("per_layer", "unit")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    })
}

/// Checks a contract line against what `BENCHMARK.json` declares for this
/// kind of run: exactly the four keys, exactly the declared metrics, each
/// with its declared unit.
pub fn validate_contract_line(line: &str, declared: &[(String, String)]) -> Result<(), String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if doc.get("attempted").and_then(Value::as_u64).unwrap_or(0) < 1 {
        return Err(String::from(
            "attempted is not a whole number of at least 1",
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics is not an object")?;
    for (name, unit) in declared {
        let metric = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("declared metric {name} is not reported"))?;
        if metric.get("unit").and_then(Value::as_str) != Some(unit) {
            return Err(format!("metric {name} is not reported in {unit}"));
        }
        if metric.get("value").and_then(Value::as_f64).is_none() {
            return Err(format!("metric {name} has no numeric value"));
        }
    }
    if let Some((extra, _)) = metrics
        .iter()
        .find(|(k, _)| !declared.iter().any(|(n, _)| n == k))
    {
        return Err(format!("reported metric {extra} is not declared"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("p50_us", 12.5, "us").with_samples(10)],
            diagnostics: vec![Metric::new("hidden", 1.0, "count")],
            notes: vec![],
        };
        let line = contract_line(&outcome);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_us":{"value":12.5,"unit":"us"}}}"#
        );
        let declared = vec![(String::from("p50_us"), String::from("us"))];
        validate_contract_line(&line, &declared).unwrap();
        let other_unit = vec![(String::from("p50_us"), String::from("ms"))];
        assert!(validate_contract_line(&line, &other_unit).is_err());
        let more = vec![
            declared[0].clone(),
            (String::from("p90_us"), String::from("us")),
        ];
        assert!(validate_contract_line(&line, &more).is_err());
        assert!(
            validate_contract_line(&line, &[]).is_err(),
            "undeclared metric reported"
        );
    }

    #[test]
    fn a_run_with_failures_or_no_work_is_not_correct() {
        assert!(!Outcome {
            attempted: 5,
            failed: 1,
            ..Outcome::default()
        }
        .correct());
        assert!(!Outcome::default().correct());
    }
}
