//! `perfbench`: closed-loop wall-clock benchmark of the DFI reproduction.
//! See `perfbench/README.md` for the workloads, metrics and how to run.
//!
//! ```text
//! perfbench --workload <fleet_flows|fleet_churn|testbed_day> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one provenance line and then the result line; exits non-zero,
//! without a result line, when the output check finds a failed operation
//! or a percentile lacks samples.

mod fleet;
mod harness;
mod report;
mod testbed;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: dfi_wiregate::CountingAlloc = dfi_wiregate::CountingAlloc;

/// Where traced runs write their spans, relative to the checkout root.
pub const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "fleet_flows" => fleet::flows(seed, seconds, trace, process_start),
        "fleet_churn" => fleet::churn(seed, seconds, trace, process_start),
        "testbed_day" => testbed::day(seed, seconds, trace, process_start),
        w => Err(format!("unknown workload {w}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let detail = report::detail_line(&args.workload, seed, seconds, trace, &outcome);
    if outcome.checks.failed() > 0 {
        eprintln!("{detail}");
        eprintln!(
            "perfbench: {} of {} operations failed the output check; no result written",
            outcome.checks.failed(),
            outcome.checks.attempted
        );
        return ExitCode::FAILURE;
    }
    println!("{detail}");
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}
