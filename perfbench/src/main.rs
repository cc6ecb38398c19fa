//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload frozen_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a host line, then as the last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when an answer check fails or the run cannot complete.

use rps_perfbench::{run, Options, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: rps-perfbench --workload <frozen_mix|federated_tcp|live_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut opts = Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
    );
    opts.trace = trace;
    if let Some(s) = seconds {
        opts.seconds = s;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--calibrate"] {
        // Used by the launcher before it pins the run to one CPU.
        println!("{}", rps_perfbench::host::calibrate());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.mismatches {
        eprintln!("answer check failed: {m}");
    }
    println!("{}", outcome.host_json(&opts));
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
