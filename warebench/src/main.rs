//! `warebench --workload <lookup|explore|refresh> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a metadata line, then (last) one
//! JSON result line. Exits 1 when any answer was wrong or any operation
//! failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use warebench::{run, stats, Options, Workload};

const USAGE: &str = "usage: warebench --workload <lookup|explore|refresh> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        small: false,
        inject_wrong: false,
        out_dir: PathBuf::from("warebench/out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    for p in outcome.problems.iter().take(20) {
        eprintln!("FAILED: {p}");
    }
    if outcome.problems.len() > 20 {
        eprintln!("… and {} more", outcome.problems.len() - 20);
    }
    println!("{{\"meta\": {}}}", outcome.meta);
    println!(
        "{}",
        stats::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
