//! `scorecard` — the repo's benchmark. One run drives one closed-loop
//! client through `Proxy` over the wire transport against two real
//! `memnoded` processes with the WAL on, checks every result against a
//! model, and prints every metric by name and unit. See README.md.
//!
//! ```text
//! scorecard --workload <get_hot|rw_cold|htap_scan> --seed <n> --seconds <s> --trace <0|1>
//!           [--log-dir <dir>]
//! scorecard --steadiness | --compare <a.json> <b.json> | --smoke | --self-test
//! ```

mod alloc;
mod cluster;
mod host;
mod json;
mod ledger;
mod run;
mod selftest;
mod stats;
mod steadiness;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
scorecard --workload <name> --seed <n> --seconds <s> --trace <0|1> [--log-dir <dir>]
scorecard --steadiness            two sets of ten seeds per workload through the
                                  BENCHMARK.json command, judged by its bounds;
                                  writes scorecard/results/BENCH_12.*
scorecard --compare <a> <b>       the same judgement on two result files
scorecard --smoke                 every workload, both --trace values, small and
                                  short; checks the printed names against
                                  BENCHMARK.json
scorecard --self-test             the runner's own arithmetic, no daemons

  --workload   get_hot | rw_cold | htap_scan
  --seed       seeds the records and the op stream
  --seconds    length of the measured window, at least 1
  --trace      0: the end-to-end metrics; 1: the per-layer ledger
  --log-dir    put the daemons' WAL under this directory instead of the run
               directory in the checkout (a real disk, or /dev/shm)";

enum Mode {
    Run(run::RunArgs),
    Steadiness,
    Compare(PathBuf, PathBuf),
    Smoke,
    SelfTest,
}

fn parse_args() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut log_dir) =
        (None, None, None, None, None);
    let mut mode = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v}: not a number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seconds {v}: not a whole number"))?;
                if s < 1 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: use 0 or 1")),
                })
            }
            "--log-dir" => log_dir = Some(PathBuf::from(value()?)),
            "--steadiness" => mode = Some(Mode::Steadiness),
            "--compare" => mode = Some(Mode::Compare(value()?.into(), value()?.into())),
            "--smoke" => mode = Some(Mode::Smoke),
            "--self-test" => mode = Some(Mode::SelfTest),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    if let Some(mode) = mode {
        return Ok(mode);
    }
    let need = |name: &str| format!("{name} is required\n\n{USAGE}");
    Ok(Mode::Run(run::RunArgs {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        log_dir,
        records: workloads::RECORDS,
    }))
}

/// The result line of the contract: exactly these four keys.
fn result_line(out: &run::RunOutput) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

fn run_once(args: &run::RunArgs) -> Result<(), String> {
    // A misspelt workload fails before the build, not after it.
    workloads::Spec::new(&args.workload, args.records)?;
    let host = run::prepare()?;
    let out = run::run(&host, args)?;
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!("env {}", out.env.compact());
    // A violated check never gets here: it is an `Err`, a non-zero exit
    // and no result line.
    println!("{}", result_line(&out));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = match parse_args() {
        Ok(Mode::Run(args)) => run_once(&args),
        Ok(Mode::Steadiness) => steadiness::steadiness(),
        Ok(Mode::Compare(a, b)) => steadiness::compare_files(&a, &b),
        Ok(Mode::Smoke) => steadiness::smoke(),
        Ok(Mode::SelfTest) => selftest::run(),
        Err(msg) => Err(msg),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("scorecard: {msg}");
            ExitCode::FAILURE
        }
    }
}
