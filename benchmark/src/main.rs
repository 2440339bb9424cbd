//! The repo benchmark. One binary, five workloads, each run in its own
//! process:
//!
//! ```text
//! benchmark --workload <name> [--seed 7] [--seconds 20] [--trace 0|1] [--record <file>]
//! benchmark --workload all ...      # each workload in a child process
//! benchmark --check <a> <b>         # b's medians within the bounds of a's
//! benchmark --spread <a>            # run-to-run spread of each metric
//! benchmark --manifest              # BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result: one strict-JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Everything else — the readable table, the DES digest,
//! validity warnings — goes to standard error. README.md explains what
//! each workload and metric is for.

#![forbid(unsafe_code)]

mod check;
mod des;
mod gw;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Where a traced run leaves its spans (relative to the directory the
/// command is run from, which is the root of the checkout).
const TRACE_DIR: &str = "benchmark/out";

/// What a workload hands back: counts for the result's top level, and
/// every metric it measured by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated invariants, in words. Empty means `correct: true`.
    pub problems: Vec<String>,
    /// (name, value, samples behind the value).
    pub values: Vec<(&'static str, f64, u64)>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "{name} put twice"
        );
        self.values.push((name, value, samples as u64));
    }

    fn get(&self, name: &str) -> Option<(f64, u64)> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, n)| (v, n))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    record: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n       benchmark --check A B | --spread A | --manifest",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 7,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                // The first second of every workload is warm-up.
                if !(2.0..=60.0).contains(&a.seconds) {
                    return Err("--seconds must be between 2 and 60".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => a.record = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && spec::workload(&a.workload).is_none() {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// The result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`; every metric of the mode's table, by name, with its unit.
fn result_line(o: &Outcome, traced: bool) -> Result<String, String> {
    let table = spec::table(traced);
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit, _) in table {
        let value = match o.get(name) {
            Some((v, _)) => v,
            // A layer this workload does not exercise reads 0; an
            // end-to-end metric must always be measured.
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let value = json::num(value).map_err(|e| format!("{name}: {e}"))?;
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

/// Re-read the line about to be printed with the strict parser and
/// check its shape, so a malformed result can never exit 0.
fn validate(line: &str, traced: bool) -> Result<(), String> {
    let v = json::parse(line)?;
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let whole = |k: &str| {
        v.get(k)
            .and_then(json::Json::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or(format!("{k} is not a whole number"))
    };
    if whole("attempted")? < 1.0 {
        return Err("attempted is 0".into());
    }
    whole("failed")?;
    let metrics = v
        .get("metrics")
        .and_then(json::Json::as_obj)
        .ok_or("no metrics")?;
    let expect = spec::table(traced).len();
    if metrics.len() != expect {
        return Err(format!("{} metrics, expected {expect}", metrics.len()));
    }
    for (name, m) in metrics {
        m.get("value")
            .and_then(json::Json::as_f64)
            .ok_or(format!("{name}: no numeric value"))?;
        m.get("unit")
            .and_then(json::Json::as_str)
            .ok_or(format!("{name}: no unit"))?;
    }
    Ok(())
}

/// The readable table on standard error: name, value, unit, direction,
/// sample count.
fn print_table(o: &Outcome, traced: bool) {
    for (name, unit, better) in spec::table(traced) {
        if let Some((v, n)) = o.get(name) {
            eprintln!("  {name:<36} {v:>16.4} {unit:<6} better={better:<6} n={n}");
        }
    }
}

fn append_record(path: &str, a: &Args, line: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{path}: {e}");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(err)?;
    writeln!(
        f,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}",
        json::quote(&a.workload),
        a.seed,
        json::num(a.seconds)?,
        a.traced as u8
    )
    .map_err(err)
}

fn run_one(a: &Args, process_start: Instant) -> Result<(), String> {
    let w = spec::workload(&a.workload).expect("validated by parse_args");
    eprintln!(
        "== {} seed={} seconds={} trace={} nproc={}\n   {}",
        w.name,
        a.seed,
        a.seconds,
        a.traced as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.why
    );
    let mut o = workloads::run(w.name, a.seed, a.seconds, a.traced, process_start);
    if !a.traced {
        o.put("peak_rss_mb", stats::peak_rss_mb()?, 1);
    }
    print_table(&o, a.traced);
    for p in &o.problems {
        eprintln!("INCORRECT: {p}");
    }
    if a.traced {
        let path = PathBuf::from(TRACE_DIR).join(format!("trace-{}.jsonl", w.name));
        trace::write_jsonl(&path, &o.spans)?;
        eprintln!("   {} spans written to {}", o.spans.len(), path.display());
    }
    let line = result_line(&o, a.traced)?;
    validate(&line, a.traced).map_err(|e| format!("own output failed validation: {e}"))?;
    if let Some(path) = &a.record {
        append_record(path, a, &line)?;
    }
    // Whether the run was correct is in the result, not the exit code.
    println!("{line}");
    Ok(())
}

/// `--workload all`: every workload in its own child process, one
/// result line each, prefixed by the workload's name.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }]);
        if let Some(r) = &a.record {
            cmd.args(["--record", r]);
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        println!("{} {line}", w.name);
        all_correct &= out.status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match argv.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some("--check") if argv.len() == 3 => check::check(&argv[1], &argv[2]).map(|bad| {
            for b in &bad {
                eprintln!("REGRESSION: {b}");
            }
            bad.is_empty()
        }),
        Some("--spread") if argv.len() == 2 => check::spread(&argv[1]).map(|bad| {
            for b in &bad {
                eprintln!("UNSTEADY: {b}");
            }
            bad.is_empty()
        }),
        _ => parse_args(&argv)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|a| {
                if a.workload == "all" {
                    run_all(&a)
                } else {
                    run_one(&a, process_start).map(|()| true)
                }
            }),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
