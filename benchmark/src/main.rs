//! The one trusted benchmark of the Serenade reproduction.
//!
//! ```text
//! serenade-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                        [--smoke] [--ladder]
//! ```
//!
//! `run --workload W --seed N --seconds S --trace T` is the form the
//! benchmark contract drives: it prints every metric by name with its unit
//! and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` every workload
//! runs, untraced and traced unless `--trace` picks one. See `README.md`.
//!
//! `spread [--workload W] [--runs N] [--seed K] [--seconds S]` runs a
//! workload N times, seeds K.., and prints the repeatability table.

mod awake;
mod client;
mod driver;
mod inputs;
mod json;
mod oracle;
mod procs;
mod repeat;
mod report;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{Fingerprint, RunLabel};
use workloads::{RunConfig, Workload};

const USAGE: &str = "usage: serenade-benchmark run [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--ladder]\n       \
                     serenade-benchmark spread [--workload W] [--runs N] [--seed K] [--seconds S]";

/// Length of a smoke phase, in seconds.
const SMOKE_SECONDS: u64 = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    ladder: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        ladder: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| String::from("bad --seed"))?,
            "--seconds" => {
                let seconds: u64 = value()?
                    .parse()
                    .map_err(|_| String::from("bad --seconds"))?;
                if seconds == 0 {
                    return Err(String::from("--seconds must be at least 1"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => parsed.smoke = true,
            "--ladder" => parsed.ladder = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// Processes whose parent is this process. After a run there must be none.
fn live_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
                stat.rsplit_once(')')
                    .and_then(|(_, rest)| rest.split_whitespace().nth(1))
                    == Some(me.as_str())
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let declared = report::read_declared()?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared.workloads != names {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the code has {names:?}",
            declared.workloads
        ));
    }
    let seconds = match (args.seconds, args.smoke) {
        (Some(seconds), _) => seconds,
        (None, true) => SMOKE_SECONDS,
        (None, false) => declared.run_seconds,
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    for &workload in &workloads {
        for &traced in &modes {
            let fingerprint = Fingerprint::take();
            let config = RunConfig {
                workload,
                seed: args.seed,
                seconds,
                smoke: args.smoke,
                ladder: args.ladder,
            };
            let mut outcome = if traced {
                trace::run(&config)?
            } else {
                workloads::run(&config)?
            };
            let orphans = live_children();
            if !orphans.is_empty() {
                outcome.failed += orphans.len() as u64;
                outcome
                    .notes
                    .push(format!("child processes outlived the run: {orphans:?}"));
            }
            let label = RunLabel {
                workload: workload.name(),
                seed: args.seed,
                seconds,
                traced,
                smoke: args.smoke,
            };
            print!("{}", report::human(label, &fingerprint, &outcome));
            match report::write_result(label, &fingerprint, &outcome) {
                Ok(path) => println!("   result file: {}", path.display()),
                Err(e) => return Err(format!("writing the result file: {e}")),
            }
            let last_line = report::contract_line(&outcome);
            let declared_metrics = if traced {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            report::validate_contract_line(&last_line, declared_metrics).map_err(|e| {
                format!(
                    "{} result does not match BENCHMARK.json: {e}",
                    workload.name()
                )
            })?;
            all_correct &= outcome.correct();
            // In a single run this is the last line of stdout, as the
            // contract wants it.
            println!("{last_line}");
        }
    }
    if workloads.len() * modes.len() > 1 {
        println!("all runs correct: {all_correct}");
    }
    Ok(all_correct)
}

/// `spread`: `--seed` is the first seed, `--runs` how many seeds are run.
fn spread(args: &[String]) -> Result<(), String> {
    let (mut runs, mut rest) = (5u64, Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 2)
                    .ok_or("bad --runs")?;
            }
            other => rest.push(other.to_owned()),
        }
    }
    let parsed = parse_args(&rest)?;
    let seconds = match parsed.seconds {
        Some(seconds) => seconds,
        None => report::read_declared()?.run_seconds,
    };
    let seeds: Vec<u64> = (parsed.seed..parsed.seed + runs).collect();
    for workload in parsed.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        repeat::table(workload.name(), &seeds, seconds)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--role") => match args.get(1) {
            Some(role) => procs::role_main(role, &args[2..]),
            None => {
                eprintln!("--role needs a value");
                ExitCode::from(2)
            }
        },
        Some("run") => match parse_args(&args[1..]) {
            Ok(parsed) => match run(&parsed) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("serenade-benchmark: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("serenade-benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("spread") => match spread(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serenade-benchmark: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
