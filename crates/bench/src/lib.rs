//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/`; see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured results. This library holds the pieces they share:
//! dataset preparation, CLI-ish argument handling (`--scale`, `--events`)
//! and fixed-width table printing, plus [`absim`], the A/B-test simulator
//! behind Figure 3(c).

#![warn(missing_docs)]

pub mod absim;

use serenade_core::{Click, SessionIndex};
use serenade_dataset::{generate, split_last_days, Dataset, EvaluationSplit, SyntheticConfig};

/// Command-line options common to all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Multiplier on the preset dataset sizes.
    pub scale: f64,
    /// Cap on prediction events per evaluation.
    pub max_events: usize,
    /// Shorten everything (CI smoke mode).
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self { scale: 1.0, max_events: 5_000, quick: false }
    }
}

impl BenchArgs {
    /// Parses `--scale X`, `--events N` and `--quick` from `std::env::args`.
    pub fn from_env() -> Self {
        let mut out = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        out.scale = v;
                    }
                    i += 2;
                }
                "--events" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        out.max_events = v;
                    }
                    i += 2;
                }
                "--quick" => {
                    out.quick = true;
                    out.scale *= 0.1;
                    out.max_events = out.max_events.min(300);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        out
    }
}

/// The six Table 1 datasets as laptop-scale synthetic analogues.
pub fn dataset_suite(scale: f64) -> Vec<SyntheticConfig> {
    vec![
        SyntheticConfig::retailrocket().scaled(scale),
        SyntheticConfig::rsc15().scaled(scale),
        SyntheticConfig::ecom_1m().scaled(scale),
        SyntheticConfig::ecom_60m().scaled(scale),
        SyntheticConfig::ecom_90m().scaled(scale),
        SyntheticConfig::ecom_180m().scaled(scale),
    ]
}

/// Generates a dataset and performs the paper's last-day holdout split.
pub fn prepare(config: &SyntheticConfig) -> (Dataset, EvaluationSplit) {
    let dataset = generate(config);
    let split = split_last_days(&dataset.clicks, 1);
    (dataset, split)
}

/// Builds an index over the training clicks.
pub fn build_index(train: &[Click], m_max: usize) -> SessionIndex {
    SessionIndex::build(train, m_max).expect("non-empty training data")
}

/// Prints a fixed-width table with a header row and a rule.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        line(row);
    }
}

/// Formats microseconds human-readably.
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_datasets() {
        let suite = dataset_suite(0.01);
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[0].name, "retailrocket");
        assert_eq!(suite[5].name, "ecom-180m");
    }

    #[test]
    fn prepare_produces_nonempty_split() {
        let cfg = SyntheticConfig::tiny();
        let (dataset, split) = prepare(&cfg);
        assert!(!dataset.clicks.is_empty());
        assert!(!split.train.is_empty());
        assert!(!split.test.is_empty());
    }

    #[test]
    fn fmt_us_switches_units() {
        assert_eq!(fmt_us(900), "900us");
        assert_eq!(fmt_us(12_300), "12.3ms");
    }

    #[test]
    fn default_args() {
        let a = BenchArgs::default();
        assert_eq!(a.scale, 1.0);
        assert!(!a.quick);
    }
}
