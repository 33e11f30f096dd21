//! `perf` — the repository's benchmark (see `BENCHMARK.json` and
//! `perf/README.md`).
//!
//! ```text
//! perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! perf repeat [--seed S] [--seconds N]
//! perf manifest
//! ```
//!
//! `run` drives one workload (all four when none is named) through the
//! public API of `eos-core`, verifies every byte it reads, prints every
//! metric by name with its unit, and ends with one JSON line. `repeat`
//! runs the four workloads twice and fails if any end-to-end metric
//! moved by more than its bound. `manifest` prints `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod api;
mod commit;
mod durability;
mod edit;
mod ingest;
mod layers;
mod metrics;
mod plan;
mod probes;
mod runner;
mod section;
mod snapshot;
mod substrate;
mod trace;
mod util;
mod volumes;

use std::process::ExitCode;

use metrics::{Better, DEFAULT_SEED, END_TO_END, RUN_SECONDS};
use plan::Workload;
use runner::{RunArgs, RunResult};
use substrate::Scratch;

/// Parsed command line.
struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().unwrap_or_else(|| "run".to_string()),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                cli.seed = parse_u64(&v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = parse_u64(&v)
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad seconds {v} (1 to 60)"))?;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v} (0 or 1)")),
                };
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Run one workload and print its report; the JSON line comes last.
fn run_one(cli: &Cli, workload: Workload, scratch: &Scratch) -> Result<RunResult, String> {
    let result = runner::run(
        RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            traced: cli.traced,
            smoke: cli.smoke,
        },
        scratch,
    )?;
    for (name, value, unit) in &result.metrics {
        let detail = result
            .details
            .iter()
            .find(|(d, _)| d == name)
            .map_or(String::new(), |(_, d)| format!("  ({d})"));
        println!("  {name:<40} {value:>16.4} {unit}{detail}");
    }
    for note in &result.notes {
        println!("  FAILED: {note}");
    }
    println!(
        "  operations attempted {} failed {}",
        result.attempted, result.failed
    );
    println!(
        "{}",
        metrics::result_json(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(result)
}

/// `perf run`.
fn run(cli: &Cli, scratch: &Scratch) -> Result<bool, String> {
    let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in workloads {
        ok &= run_one(cli, w, scratch)?.correct;
    }
    Ok(ok)
}

/// `perf repeat`: every workload twice; an end-to-end metric whose
/// second value is worse than the first by more than its bound fails.
fn repeat(cli: &Cli, scratch: &Scratch) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let first = run_one(cli, w, scratch)?;
        let second = run_one(cli, w, scratch)?;
        ok &= first.correct && second.correct;
        for (m, ((_, a, _), (_, b, _))) in END_TO_END
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let worse = match m.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let held = worse <= m.bound;
            ok &= held;
            rows.push(format!(
                "  {:<18} {:<18} {a:>14.4} {b:>14.4} {:>+8.2}% bound {:>4.0}% {}",
                w.name(),
                m.name,
                100.0 * (b - a) / a,
                100.0 * m.bound,
                if held { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!("\nrepeat: workload, metric, first, second, change, bound");
    for r in rows {
        println!("{r}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.command == "manifest" {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", substrate::fingerprint(&scratch));
    let outcome = match cli.command.as_str() {
        "run" => run(&cli, &scratch),
        "repeat" => repeat(&cli, &scratch),
        other => Err(format!("unknown command {other} (run, repeat, manifest)")),
    };
    drop(scratch);
    match outcome {
        // A run with failed operations still printed its result line;
        // the failures are in it.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if cli.command == "run" => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
