//! The repository's benchmark: three workloads, end to end and per layer.
//!
//! ```text
//! perfbench --workload <engine-churn|engine-racks|serve-ingest>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|small]
//! ```
//!
//! Every input is generated from `--seed`. The run measures for
//! `--seconds`, checks the program's outputs outside the timed region,
//! and prints two lines: a detail line (seed, host, sample counts,
//! failed checks) and, last, the result `{"correct", "attempted",
//! "failed", "metrics"}`. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` is a separate run that times each layer from outside and
//! prints the per-layer metrics. `--scale small` shrinks the graphs for
//! the self-test (`perfbench/selftest.py`). A failed check exits 1.

mod alloc;
mod engine;
mod measure;
mod serve;

use measure::{per_layer, RunInfo, END_TO_END};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <engine-churn|engine-racks|serve-ingest> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|small]";

#[derive(Clone, Copy)]
enum Workload {
    EngineChurn,
    EngineRacks,
    ServeIngest,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::EngineChurn => "engine-churn",
            Workload::EngineRacks => "engine-racks",
            Workload::ServeIngest => "serve-ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    small: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut small = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "engine-churn" => Workload::EngineChurn,
                    "engine-racks" => Workload::EngineRacks,
                    "serve-ingest" => Workload::ServeIngest,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                small = match value.as_str() {
                    "full" => false,
                    "small" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let (engine_n, serve_n) = if args.small {
        (20_000, 20_000)
    } else {
        (1_000_000, 200_000)
    };
    let mut report = match args.workload {
        Workload::EngineChurn => engine::run(
            engine::Adversary::Churn,
            engine_n,
            args.seed,
            budget,
            args.trace,
        ),
        Workload::EngineRacks => engine::run(
            engine::Adversary::Racks,
            engine_n,
            args.seed,
            budget,
            args.trace,
        ),
        Workload::ServeIngest => serve::run(serve_n, args.seed, budget, args.trace),
    };
    let catalogue: Vec<(String, &str)> = if args.trace {
        let all = per_layer();
        // Layers a workload does not call report zero calls.
        report.fill_missing(&all);
        all
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let info = RunInfo {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.small { "small" } else { "full" },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: RunInfo::host_cpu(),
    };
    let (text, correct) = report.render(&info, &catalogue);
    println!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
