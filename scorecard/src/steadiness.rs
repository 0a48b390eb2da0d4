//! `--steadiness`, `--compare` and `--smoke`: the benchmark judged by
//! its own rule, the way the benchmark check judges it.

use crate::cluster;
use crate::json::Json;
use crate::run;
use crate::stats::{judge, Better, Summary, Verdict};
use crate::workloads;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const PR: u32 = 12;
/// The contract's budget: every run the check makes, with set-up and two
/// builds, inside this many seconds; this benchmark keeps a tenth spare.
const CAP_S: f64 = 3420.0;
const SEEDS_PER_SET: u64 = 10;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

pub struct Bench {
    command: Vec<String>,
    run_seconds: u64,
    workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<String>,
}

fn field<'a>(v: &'a Json, key: &str, file: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{file}: no {key:?}"))
}

pub fn parse_benchmark(text: &str) -> Result<Bench, String> {
    let file = "BENCHMARK.json";
    let v = Json::parse(text)?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        field(&v, key, file)?
            .as_arr()
            .ok_or_else(|| format!("{file}: {key} is not a list"))?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{file}: a {key} entry has no name"))
            })
            .collect()
    };
    let end_to_end = field(&v, "end_to_end", file)?
        .as_arr()
        .ok_or_else(|| format!("{file}: end_to_end is not a list"))?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{file}: an end_to_end entry has no {k:?}"))
            };
            Ok(MetricDef {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                better: Better::parse(s("better")?)
                    .ok_or_else(|| format!("{file}: better is neither higher nor lower"))?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{file}: an end_to_end entry has no bound"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Bench {
        command: field(&v, "command", file)?
            .as_arr()
            .ok_or_else(|| format!("{file}: command is not a list"))?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("{file}: command holds a non-string"))?,
        run_seconds: field(&v, "run_seconds", file)?
            .as_f64()
            .ok_or_else(|| format!("{file}: run_seconds is not a number"))?
            as u64,
        workloads: names("workloads")?,
        end_to_end,
        per_layer: names("per_layer")?,
    })
}

fn load_benchmark(root: &Path) -> Result<Bench, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_benchmark(&text)
}

struct ChildRun {
    seed: u64,
    wall_s: f64,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    env: Json,
}

/// One run exactly as the check makes it: the `BENCHMARK.json` command
/// plus the four flags, from the repository root.
fn run_child(
    bench: &Bench,
    root: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<ChildRun, String> {
    let (program, rest) = bench
        .command
        .split_first()
        .ok_or("BENCHMARK.json: empty command")?;
    let t0 = Instant::now();
    let out = Command::new(program)
        .args(rest)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {program}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: {}\n{stdout}",
            trace as u8, out.status
        ));
    }
    let what = format!("{workload} seed {seed}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: no output"))?;
    let result = Json::parse(last).map_err(|e| format!("{what}: result line: {e}"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{what}: the run does not report correct: {last}"));
    }
    let num = |k: &str| {
        result
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{what}: result line has no {k}"))
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{what}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("{what}: metric {name} has no value or unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let env = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("env "))
        .and_then(|e| Json::parse(e).ok())
        .unwrap_or(Json::Null);
    Ok(ChildRun {
        seed,
        wall_s,
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        env,
    })
}

fn nums(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::Num).collect())
}

/// One set of runs as a result file.
fn set_json(
    bench: &Bench,
    set: &str,
    runs: &[(String, Vec<ChildRun>)],
    traces: &[(String, ChildRun)],
) -> Json {
    let env = runs
        .first()
        .and_then(|(_, r)| r.first())
        .map_or(Json::Null, |r| r.env.clone());
    let workloads = runs
        .iter()
        .map(|(workload, rs)| {
            let metrics = bench
                .end_to_end
                .iter()
                .map(|def| {
                    let values: Vec<f64> = rs
                        .iter()
                        .filter_map(|r| r.metrics.iter().find(|m| m.0 == def.name).map(|m| m.1))
                        .collect();
                    let s = Summary::of(&values);
                    let stat =
                        |f: fn(&Summary) -> f64| s.as_ref().map_or(Json::Null, |s| Json::Num(f(s)));
                    (
                        def.name.clone(),
                        Json::obj(vec![
                            ("unit", Json::str(&def.unit)),
                            ("values", nums(values.iter().copied())),
                            ("median", stat(|s| s.median)),
                            ("q1", stat(|s| s.q1)),
                            ("q3", stat(|s| s.q3)),
                            ("spread", stat(Summary::spread)),
                        ]),
                    )
                })
                .collect();
            let mut entry = vec![
                ("seeds", nums(rs.iter().map(|r| r.seed as f64))),
                ("wall_s", nums(rs.iter().map(|r| r.wall_s))),
                ("attempted", nums(rs.iter().map(|r| r.attempted))),
                ("failed", nums(rs.iter().map(|r| r.failed))),
                ("metrics", Json::Obj(metrics)),
            ];
            if let Some((_, t)) = traces.iter().find(|(w, _)| w == workload) {
                entry.push((
                    "per_layer",
                    Json::Obj(
                        t.metrics
                            .iter()
                            .map(|(name, value, unit)| {
                                (
                                    name.clone(),
                                    Json::obj(vec![
                                        ("value", Json::Num(*value)),
                                        ("unit", Json::str(unit)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ));
                entry.push(("per_layer_wall_s", Json::Num(t.wall_s)));
            }
            (workload.clone(), Json::obj(entry))
        })
        .collect();
    Json::obj(vec![
        ("pr", Json::Num(PR as f64)),
        ("set", Json::str(set)),
        (
            "command",
            Json::Arr(bench.command.iter().map(Json::str).collect()),
        ),
        ("run_seconds", Json::Num(bench.run_seconds as f64)),
        ("env", env),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn values_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Applies the rule to every (workload, metric) both files hold. Returns
/// the table and whether every row is `ok`.
pub fn compare(bench: &Bench, a: &Json, b: &Json) -> (String, bool) {
    let mut text = String::new();
    let mut all_ok = true;
    writeln!(
        text,
        "{:<10} {:<22} {:>13} {:>7} {:>13} {:>7} {:>9} {:>6}  verdict",
        "workload", "metric", "median a", "iqr/med", "median b", "iqr/med", "b worse", "bound"
    )
    .expect("write to String");
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    for workload in workloads {
        for def in &bench.end_to_end {
            let (Some(va), Some(vb)) = (
                values_of(a, workload, &def.name),
                values_of(b, workload, &def.name),
            ) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) else {
                continue;
            };
            // The check does not hold set-up time to a spread, only to
            // the second median staying within the bound of the first.
            let verdict = if def.name == "setup_s" {
                if def.better.worse_by(sa.median, sb.median) > def.bound {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                }
            } else {
                judge(&sa, &sb, def.better, def.bound)
            };
            all_ok &= verdict == Verdict::Ok;
            writeln!(
                text,
                "{:<10} {:<22} {:>13.4} {:>7.4} {:>13.4} {:>7.4} {:>+9.4} {:>6.2}  {}",
                workload,
                format!("{} ({})", def.name, def.unit),
                sa.median,
                sa.spread(),
                sb.median,
                sb.spread(),
                def.better.worse_by(sa.median, sb.median),
                def.bound,
                verdict.name()
            )
            .expect("write to String");
        }
    }
    text.push_str(
        "iqr/med: distance between the quartiles of the set's values over their median.\n\
         b worse: by how much of median a (the base) median b is worse; negative is better.\n\
         unresolved: a spread exceeds the bound, so a difference of that size cannot be told.\n",
    );
    (text, all_ok)
}

/// Wall seconds of every run a result file records: `--trace 0` runs,
/// then `--trace 1` runs.
fn walls_of(file: &Json) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (_, w) in file.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
        let runs = w.get("wall_s").and_then(Json::as_arr).unwrap_or(&[]);
        plain.extend(runs.iter().filter_map(Json::as_f64));
        traced.extend(w.get("per_layer_wall_s").and_then(Json::as_f64));
    }
    (plain, traced)
}

/// The full report on two result files: the compare table, the wall
/// time of the runs against the contract's cap, and the verdict.
fn report(bench: &Bench, a: &Json, b: &Json) -> (String, bool) {
    let (table, ok) = compare(bench, a, b);
    let (mut plain, mut traced) = walls_of(a);
    let (plain_b, traced_b) = walls_of(b);
    plain.extend(plain_b);
    traced.extend(traced_b);
    let total: f64 = plain.iter().sum();
    let mean = total / plain.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let check_runs = 4.0 + 22.0 * bench.workloads.len() as f64;
    let mut text = format!(
        "scorecard (PR {PR}): two sets of runs through {:?}\n\n{table}\n",
        bench.command.join(" ")
    );
    writeln!(
        text,
        "wall time: {total:.0} s for {} runs of --trace 0 (mean {mean:.1} s, max {:.1} s); \
         {} runs of --trace 1 (max {:.1} s).\n\
         the check makes {check_runs:.0} runs: {:.0} s at this mean, which leaves {:.0} s of the \
         {CAP_S:.0} s cap for two builds; with a tenth of the cap kept spare, {:.0} s.",
        plain.len(),
        max(&plain),
        traced.len(),
        max(&traced),
        check_runs * mean,
        CAP_S - check_runs * mean,
        0.9 * CAP_S - check_runs * mean,
    )
    .expect("write to String");
    writeln!(
        text,
        "verdict: {}",
        if ok {
            "every spread is within its bound and every second median within the bound of the first"
        } else {
            "NOT STEADY: see the rows above"
        }
    )
    .expect("write to String");
    (text, ok)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<(), String> {
    let bench = load_benchmark(&cluster::repo_root()?)?;
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (text, ok) = report(&bench, &read(a)?, &read(b)?);
    print!("{text}");
    if ok {
        Ok(())
    } else {
        Err("a metric regressed or is unresolved".into())
    }
}

pub fn steadiness() -> Result<(), String> {
    let root = cluster::repo_root()?;
    let bench = load_benchmark(&root)?;
    let results = root.join("scorecard/results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let mut files = Vec::new();

    // One traced run per workload rides with set a.
    let mut traces = Vec::new();
    for (set, first_seed) in [("a", 1u64), ("b", 1 + SEEDS_PER_SET)] {
        let mut runs = Vec::new();
        for workload in &bench.workloads {
            let mut rs = Vec::new();
            for seed in first_seed..first_seed + SEEDS_PER_SET {
                let r = run_child(&bench, &root, workload, seed, false)?;
                eprintln!(
                    "steadiness: set {set} {workload} seed {seed}: {:.1} s",
                    r.wall_s
                );
                rs.push(r);
            }
            runs.push((workload.clone(), rs));
            if set == "a" {
                let t = run_child(&bench, &root, workload, first_seed, true)?;
                eprintln!("steadiness: {workload} --trace 1: {:.1} s", t.wall_s);
                traces.push((workload.clone(), t));
            }
        }
        let json = set_json(&bench, set, &runs, if set == "a" { &traces } else { &[] });
        let path = results.join(format!("BENCH_{PR}.{set}.json"));
        std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(json);
    }

    let (text, ok) = report(&bench, &files[0], &files[1]);
    print!("{text}");
    let path = results.join(format!("BENCH_{PR}.steadiness.txt"));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    if ok {
        Ok(())
    } else {
        Err("the benchmark is not steady by its own bounds".into())
    }
}

/// Every workload with both `--trace` values, small (20 k records) and
/// short (2 s), in this process; the names printed must be exactly the
/// names `BENCHMARK.json` lists.
pub fn smoke() -> Result<(), String> {
    let bench = load_benchmark(&cluster::repo_root()?)?;
    let host = run::prepare()?;
    let mut problems = Vec::new();
    for workload in workloads::NAMES {
        if !bench.workloads.iter().any(|w| w == workload) {
            problems.push(format!("BENCHMARK.json does not list workload {workload}"));
        }
        for trace in [false, true] {
            let out = run::run(
                &host,
                &run::RunArgs {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 2,
                    trace,
                    log_dir: None,
                    records: 20_000,
                },
            )?;
            let listed: Vec<&str> = if trace {
                bench.per_layer.iter().map(String::as_str).collect()
            } else {
                bench.end_to_end.iter().map(|d| d.name.as_str()).collect()
            };
            for name in &listed {
                match out.metrics.iter().find(|m| m.0 == *name) {
                    None => problems.push(format!(
                        "{workload} trace {}: {name} is not printed",
                        trace as u8
                    )),
                    Some(m) if !m.1.is_finite() => {
                        problems.push(format!("{workload}: {name} is not finite"))
                    }
                    // An end-to-end metric is never 0; a per-layer one
                    // may be (a count of something that must not happen).
                    Some(m) if !trace && m.1 == 0.0 => {
                        problems.push(format!("{workload}: {name} is 0"))
                    }
                    Some(_) => {}
                }
            }
            for m in &out.metrics {
                if !listed.contains(&m.0) {
                    problems.push(format!(
                        "{workload} trace {}: {} is printed but not in BENCHMARK.json",
                        trace as u8, m.0
                    ));
                }
            }
            if out.failed > 0 {
                problems.push(format!("{workload}: {} ops failed", out.failed));
            }
            println!(
                "smoke: {workload} --trace {}: {} metrics, {} ops, {} failed",
                trace as u8,
                out.metrics.len(),
                out.attempted,
                out.failed
            );
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(format!("smoke failed:\n  {}", problems.join("\n  ")))
    }
}
