//! `--self-test`: the runner's own arithmetic against known answers.
//! Needs no daemons and no build of the repository.

use crate::cluster::parse_stats;
use crate::json::Json;
use crate::ledger::self_time_by_kind;
use crate::stats::{better_rank, judge, percentile, quartiles, Better, Summary, Verdict};
use crate::steadiness::{compare, parse_benchmark};
use minuet::obs::{SpanKind, SpanRecord};

struct Checks {
    passed: usize,
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what.to_string());
        }
    }

    fn close(&mut self, what: &str, got: f64, want: f64) {
        self.check(
            &format!("{what}: got {got}, want {want}"),
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        );
    }
}

const STATS_CAPTURE: &str = "\
== unix:/tmp/m0.sock ==
  ops: single_commits=120 prepares=7 commits=7 aborts=1 busy=0 fastpath=90/100 in_doubt=0
  wal: appends=130 bytes=540000 fsyncs=127 retained=540000 checkpoints=0 durable=true
  counters:
    memnode.read_fastpath        90
    memnode.read_fastpath_misses 10
    wal.fsyncs                   127
  histograms:
    wal.fsync_ns                 n=127       p50=     31.0 p95=     55.1 p99=     80.2 max=    120.9  (µs)
  breaker (client-side):
    wire.breaker.open            3
== 1@unix:/tmp/m1.sock ==
  ops: single_commits=80 prepares=7 commits=7 aborts=0 busy=2 fastpath=10/10 in_doubt=0
  wal: appends=87 bytes=360000 fsyncs=85 retained=360000 checkpoints=0 durable=true
  counters:
    memnode.read_fastpath        10
    wal.fsyncs                   85
    a.counter.added.later        5
";

const BENCHMARK_SAMPLE: &str = r#"{
  "command": ["cargo", "run"], "paths": ["scorecard"], "run_seconds": 30,
  "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
  "end_to_end": [
    {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
  "per_layer": [{"name": "core.x", "unit": "us", "better": "lower"}]
}"#;

fn set_file(ops: &[f64], lat: &[f64], setup: &[f64]) -> Json {
    let values = |v: &[f64]| {
        Json::obj(vec![(
            "values",
            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
        )])
    };
    Json::obj(vec![(
        "workloads",
        Json::obj(vec![(
            "w1",
            Json::obj(vec![(
                "metrics",
                Json::obj(vec![
                    ("ops_s", values(ops)),
                    ("lat_us", values(lat)),
                    ("setup_s", values(setup)),
                ]),
            )]),
        )]),
    )])
}

/// Rows of a compare table that carry `verdict`.
fn rows(table: &str, verdict: &str) -> usize {
    table.lines().filter(|l| l.ends_with(verdict)).count()
}

fn span(kind: SpanKind, depth: u8, dur_ns: u64) -> SpanRecord {
    SpanRecord {
        kind: kind as u8,
        tag: 0,
        depth,
        start_ns: 0,
        dur_ns,
    }
}

pub fn run() -> Result<(), String> {
    let mut c = Checks {
        passed: 0,
        failed: Vec::new(),
    };

    // Percentiles: nearest rank.
    let v: Vec<u32> = (1..=100).collect();
    c.check("p50 of 1..=100", percentile(&v, 50.0) == Some(50));
    c.check("p95 of 1..=100", percentile(&v, 95.0) == Some(95));
    c.check("p100 of 1..=100", percentile(&v, 100.0) == Some(100));
    c.check("p0 clamps to the first", percentile(&v, 0.0) == Some(1));
    c.check(
        "p99.9 of 3 values",
        percentile(&[1u32, 2, 3], 99.9) == Some(3),
    );
    c.check(
        "percentile of nothing",
        percentile::<u32>(&[], 50.0).is_none(),
    );

    // The slice rule: 3rd best of 60 both ways, 2nd of 25, best of 4.
    let sixty: Vec<f64> = (1..=60).map(f64::from).collect();
    c.check(
        "3rd best of 60, higher is better",
        better_rank(&sixty, Better::Higher) == Some(58.0),
    );
    c.check(
        "3rd best of 60, lower is better",
        better_rank(&sixty, Better::Lower) == Some(3.0),
    );
    let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
    c.check(
        "2nd best of 25",
        better_rank(&twenty_five, Better::Higher) == Some(24.0),
    );
    c.check(
        "best of 4",
        better_rank(&[3.0, 9.0, 1.0, 4.0], Better::Higher) == Some(9.0)
            && better_rank(&[3.0, 9.0, 1.0, 4.0], Better::Lower) == Some(1.0),
    );
    c.check("rank of nothing", better_rank(&[], Better::Lower).is_none());

    // Quartiles as Python's statistics.quantiles(values, n=4) gives them.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    match quartiles(&ten) {
        Some((q1, q2, q3)) => {
            c.close("q1 of 1..=10", q1, 2.75);
            c.close("q2 of 1..=10", q2, 5.5);
            c.close("q3 of 1..=10", q3, 8.25);
        }
        None => c.check("quartiles of ten values", false),
    }
    match quartiles(&[20.0, 2.0, 15.0, 4.0, 12.0, 4.0, 11.0, 5.0, 9.0, 7.0]) {
        Some((q1, q2, q3)) => {
            c.close("q1 of an unsorted ten", q1, 4.0);
            c.close("q2 of an unsorted ten", q2, 8.0);
            c.close("q3 of an unsorted ten", q3, 12.75);
        }
        None => c.check("quartiles of an unsorted ten", false),
    }
    match quartiles(&[1.0, 2.0]) {
        // Python: [0.75, 1.5, 2.25].
        Some((q1, _, q3)) => {
            c.close("q1 of two values", q1, 0.75);
            c.close("q3 of two values", q3, 2.25);
        }
        None => c.check("quartiles of two values", false),
    }
    c.check("quartiles of one value", quartiles(&[1.0]).is_none());
    if let Some(s) = Summary::of(&ten) {
        c.close("spread of 1..=10", s.spread(), 1.0);
    }

    // The steadiness rule on canned sets.
    let tight = |m: f64| Summary {
        median: m,
        q1: m * 0.99,
        q3: m * 1.01,
    };
    let wide = Summary {
        median: 100.0,
        q1: 80.0,
        q3: 120.0,
    };
    c.check(
        "same medians are ok",
        judge(&tight(100.0), &tight(101.0), Better::Lower, 0.15) == Verdict::Ok,
    );
    c.check(
        "a lower-is-better metric 20 % up regressed",
        judge(&tight(100.0), &tight(120.0), Better::Lower, 0.15) == Verdict::Regressed,
    );
    c.check(
        "a higher-is-better metric 20 % up is ok",
        judge(&tight(100.0), &tight(120.0), Better::Higher, 0.15) == Verdict::Ok,
    );
    c.check(
        "a higher-is-better metric 20 % down regressed",
        judge(&tight(100.0), &tight(80.0), Better::Higher, 0.15) == Verdict::Regressed,
    );
    c.check(
        "a spread wider than the bound is unresolved",
        judge(&tight(100.0), &wide, Better::Lower, 0.15) == Verdict::Unresolved,
    );

    // BENCHMARK.json reader and the compare table on canned files:
    // one ok, one regressed, one unresolved, and set-up judged by its
    // medians only.
    match parse_benchmark(BENCHMARK_SAMPLE) {
        Ok(bench) => {
            c.check(
                "BENCHMARK.json: names",
                bench.end_to_end.len() == 3 && bench.per_layer == ["core.x"],
            );
            let steady = [
                100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
            ];
            let slower: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
            let noisy = [
                60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
            ];
            let a = set_file(&steady, &steady, &noisy);
            let (table, ok) = compare(&bench, &a, &a);
            c.check("a set against itself is ok", ok && rows(&table, " ok") == 3);
            let (table, ok) = compare(&bench, &a, &set_file(&slower, &steady, &noisy));
            c.check(
                "30 % fewer ops/s regressed",
                !ok && rows(&table, "regressed") == 1 && rows(&table, "unresolved") == 0,
            );
            let (table, ok) = compare(&bench, &a, &set_file(&steady, &noisy, &noisy));
            c.check(
                "a noisy latency is unresolved",
                !ok && rows(&table, "unresolved") == 1 && rows(&table, "regressed") == 0,
            );
        }
        Err(e) => c.check(&format!("BENCHMARK.json sample parses: {e}"), false),
    }
    c.check(
        "BENCHMARK.json without end_to_end is refused",
        parse_benchmark(r#"{"command": ["x"]}"#).is_err(),
    );

    // The minuet-stats text parser, summed over both daemons.
    let s = parse_stats(STATS_CAPTURE);
    let get = |k: &str| s.get(k).copied();
    c.check("stats: counters sum", get("wal.fsyncs") == Some(212));
    c.check(
        "stats: a counter of one daemon",
        get("memnode.read_fastpath_misses") == Some(10),
    );
    c.check("stats: ops line", get("ops.prepares") == Some(14));
    c.check(
        "stats: a/b values",
        get("ops.fastpath") == Some(100) && get("ops.fastpath.of") == Some(110),
    );
    c.check("stats: wal line", get("wal_line.retained") == Some(900_000));
    c.check(
        "stats: a new counter still parses",
        get("a.counter.added.later") == Some(5),
    );
    c.check(
        "stats: histograms and the client-side section are skipped",
        get("wal.fsync_ns").is_none() && get("wire.breaker.open").is_none(),
    );

    // Span-ledger self time on a hand-built trace (completion order):
    //   route 100 ⊃ fetch 80 ⊃ { framing 5, rtt 60, [srv: exec 30 ⊃ wal 10; fsync 12], framing 5 }
    //   commit 50 ⊃ { framing 4, rtt 40, [srv: exec 8], framing 3 }
    let spans = [
        span(SpanKind::Framing, 3, 5),
        span(SpanKind::Rtt, 3, 60),
        span(SpanKind::SrvWalAppend, 4, 10),
        span(SpanKind::SrvExec, 3, 30),
        span(SpanKind::SrvFsync, 3, 12),
        span(SpanKind::Framing, 3, 5),
        span(SpanKind::Fetch, 2, 80),
        span(SpanKind::Route, 1, 100),
        span(SpanKind::Framing, 2, 4),
        span(SpanKind::Rtt, 2, 40),
        span(SpanKind::SrvExec, 2, 8),
        span(SpanKind::Framing, 2, 3),
        span(SpanKind::Commit, 1, 50),
    ];
    let t = self_time_by_kind(&spans);
    let at = |k: SpanKind| t[k as usize];
    c.check(
        "self time: route = 100 - fetch 80",
        at(SpanKind::Route) == 20,
    );
    c.check(
        "self time: fetch = 80 - framing 10 - rtt 60, server spans not charged",
        at(SpanKind::Fetch) == 10,
    );
    c.check("self time: commit = 50 - 7 - 40", at(SpanKind::Commit) == 3);
    c.check("self time: rtt has no children", at(SpanKind::Rtt) == 100);
    c.check("self time: framing sums", at(SpanKind::Framing) == 17);
    c.check(
        "self time: srv.exec = (30 - wal 10) + 8",
        at(SpanKind::SrvExec) == 28,
    );
    c.check(
        "self time: srv.wal_append and srv.fsync",
        at(SpanKind::SrvWalAppend) == 10 && at(SpanKind::SrvFsync) == 12,
    );
    let client_total: u64 = [
        SpanKind::Route,
        SpanKind::Fetch,
        SpanKind::Commit,
        SpanKind::Rtt,
        SpanKind::Framing,
    ]
    .iter()
    .map(|k| at(*k))
    .sum();
    c.check(
        "self time: client self times add up to the top-level spans",
        client_total == 150,
    );

    // JSON: writer and reader agree, numbers keep all their digits.
    let doc = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(1000.0)),
        ("value", Json::Num(1.2034567890123)),
        ("tiny", Json::Num(3.5e-7)),
        (
            "text",
            Json::str("a \"quoted\" line\nwith \\ and \t and µs"),
        ),
        (
            "list",
            Json::Arr(vec![Json::Null, Json::Num(-2.5), Json::Arr(vec![])]),
        ),
        ("empty", Json::Obj(vec![])),
    ]);
    c.check(
        "JSON: compact round trip",
        Json::parse(&doc.compact()).as_ref() == Ok(&doc),
    );
    c.check(
        "JSON: pretty round trip",
        Json::parse(&doc.pretty()).as_ref() == Ok(&doc),
    );
    c.check(
        "JSON: whole numbers print without a fraction",
        doc.compact().contains("\"attempted\":1000,"),
    );
    c.check(
        "JSON: \\u escapes",
        Json::parse(r#""µs""#) == Ok(Json::str("µs")),
    );
    for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "nul", "\"open"] {
        c.check(
            &format!("JSON: {bad:?} is refused"),
            Json::parse(bad).is_err(),
        );
    }
    c.check(
        "JSON: NaN is written as null",
        Json::Num(f64::NAN).compact() == "null",
    );

    if c.failed.is_empty() {
        println!("self-test: {} checks passed", c.passed);
        Ok(())
    } else {
        Err(format!(
            "self-test: {} of {} checks failed:\n  {}",
            c.failed.len(),
            c.failed.len() + c.passed,
            c.failed.join("\n  ")
        ))
    }
}
