//! The tree's structural rules: each names patterns that one place
//! alone may hold. So a fourth bench binary (every DES study is a row
//! of `paper`, every gateway scenario one of `live`, every micro-probe
//! one of `perf_trajectory`), a second DES driver, lease vocabulary or
//! outcome vocabulary, a second lease-plan compiler, a latency jitter
//! drawn anywhere but the one definition the FaaS model's tables are
//! built from, or a test-oracle reference scan on the scheduler's
//! production path fails `cargo test` by file and line.

use std::path::Path;

/// One rule a line, `name ; roots ; patterns ; allowed files`, each
/// list `|`-separated: under `roots`, a line holding any of `patterns`
/// (`-`: any file at all) may appear only in an allowed file. A pattern
/// ending in `\b` must end on a word boundary. This file names every
/// pattern, so it is exempt.
const RULES: &str = r"
Three bench binaries ; crates/bench/src/bin ; - ; crates/bench/src/bin/paper.rs|crates/bench/src/bin/live.rs|crates/bench/src/bin/perf_trajectory.rs
One DES driver ; crates/core/src|crates/bench/src ; Engine< ; crates/core/src/driver.rs
One lease vocabulary ; crates|src|tests|examples ; enum CapacityEventKind|enum LeaseEventKind|type SimLease|struct CapacityLog ; crates/cluster/src/capacity.rs
One outcome vocabulary ; crates|src|tests|examples ; enum Outcome\b|enum Shed\b|enum InvokeResult\b|fn shed_code|struct Totals ; crates/metrics/src/outcome.rs
One lease-plan compiler ; crates|src|tests|examples ; fn synthetic_churn|struct ChurnCfg|capped_grants: ; crates/gateway/src/lease.rs
One latency jitter ; crates|src|tests|examples ; range_f64(0.85, 1.15) ; crates/whisk/src/config.rs
Oracle stays off the production path ; crates/cluster/src/sched ; _reference(|handle_reference|reference_mode ; crates/cluster/src/sched/oracle.rs
";

fn rules() -> impl Iterator<Item = Vec<&'static str>> {
    RULES.trim().lines().map(|l| l.split(" ; ").collect())
}

fn holds(line: &str, pattern: &str) -> bool {
    let needle = pattern.trim_end_matches("\\b");
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let ends = |i: usize| needle == pattern || !line[i + needle.len()..].starts_with(word);
    line.match_indices(needle).any(|(i, _)| ends(i))
}

/// Where `files` (`(path from the facade crate, text)`) break `rule`.
fn breaches(rule: &[&str], files: &[(String, String)]) -> Vec<String> {
    let [name, roots, patterns, allowed] = rule else {
        panic!("a rule has four fields: {rule:?}")
    };
    let mut found = Vec::new();
    for (path, text) in files {
        let under = |root: &str| path.starts_with(&format!("{root}/"));
        let allowed = allowed.split('|').any(|a| a == path) || path == "tests/structure.rs";
        if allowed || !roots.split('|').any(under) {
            continue;
        }
        if *patterns == "-" {
            found.push(format!("{name}: {path}"));
        }
        for (n, line) in text.lines().enumerate() {
            if *patterns != "-" && patterns.split('|').any(|p| holds(line, p)) {
                found.push(format!("{name}: {path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

/// Every file under `crates`, `src`, `tests` and `examples` but build
/// output, with its text (empty when it is not UTF-8).
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = Vec::from(["crates", "src", "tests", "examples"].map(|d| root.join(d)));
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for path in entries.map(|e| e.expect("a directory entry").path()) {
            if !path.is_dir() {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                files.push((rel.to_string_lossy().replace('\\', "/"), text));
            } else if !path.ends_with("target") {
                dirs.push(path);
            }
        }
    }
    files
}

#[test]
fn the_tree_keeps_every_structural_rule() {
    let files = tree();
    assert!(files.iter().any(|(p, _)| p == "crates/core/src/driver.rs"));
    let broken: Vec<String> = rules().flat_map(|r| breaches(&r, &files)).collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// Whether the rule `name` fires on `line` planted in `path`.
fn fires(name: &str, path: &str, line: &str) -> bool {
    let rule = rules().find(|r| r[0] == name).expect("a rule");
    !breaches(&rule, &[(path.into(), line.into())]).is_empty()
}

#[test]
fn a_fourth_bench_binary_fires() {
    let fires = |path| fires("Three bench binaries", path, "fn main() {}");
    assert!(fires("crates/bench/src/bin/x.rs") && !fires("crates/bench/src/bin/live.rs"));
}

#[test]
fn a_second_event_engine_fires() {
    let fires = |path| fires("One DES driver", path, "engine: Engine<Ev>,");
    assert!(fires("crates/bench/src/lib.rs") && !fires("crates/core/src/driver.rs"));
}

#[test]
fn a_second_lease_event_fires() {
    let fires = |line| fires("One lease vocabulary", "src/lib.rs", line);
    assert!(fires("type SimLease = (u32, u64);") && fires("enum LeaseEventKind {"));
}

#[test]
fn a_second_outcome_fires() {
    let fires = |line| fires("One outcome vocabulary", "src/lib.rs", line);
    assert!(fires("pub enum Shed {") && fires("enum Outcome<T> {"));
    assert!(!fires("enum OutcomeKind {"));
}

#[test]
fn a_second_plan_compiler_fires() {
    let rule = "One lease-plan compiler";
    let fires_in = |path| fires(rule, path, "pub struct ChurnCfg {");
    assert!(fires_in("crates/gateway/tests/x.rs") && !fires_in("crates/gateway/src/lease.rs"));
    let fires = |line| fires(rule, "crates/bench/src/bin/live.rs", line);
    assert!(fires("pub fn synthetic_churn(c: &Cfg) -> LeasePlan {"));
    assert!(fires("LeasePlan { capped_grants: 0, ..plan }"));
}

#[test]
fn a_second_latency_jitter_fires() {
    let line = "let f = rng.range_f64(0.85, 1.15);";
    let fires = |path| fires("One latency jitter", path, line);
    assert!(fires("crates/whisk/src/system.rs") && !fires("crates/whisk/src/config.rs"));
}

#[test]
fn a_reference_scan_on_the_production_path_fires() {
    let rule = "Oracle stays off the production path";
    let fires = |path| fires(rule, path, "x_reference(j)");
    assert!(fires("crates/cluster/src/sched/pass.rs") && !fires("crates/cluster/src/lib.rs"));
}
