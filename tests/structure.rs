//! The tree's structural rules: each names patterns that one place
//! alone may hold. So a fourth bench binary (every DES study is a row
//! of `paper`, every gateway scenario one of `live`, every micro-probe
//! one of `perf_trajectory`), a second DES driver, lease vocabulary or
//! outcome vocabulary, a second lease-plan compiler, a latency jitter
//! drawn anywhere but the one definition the FaaS model's tables are
//! built from, or a test-oracle reference scan on the scheduler's
//! production path fails `cargo test` by file and line. So does a
//! public item of a library or binary that nothing but its own tests
//! reads.

use std::collections::HashMap;
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

/// Every file under `crates`, `src`, `tests`, `examples` and
/// `benchmark/src` but build output, with its text (empty when it is
/// not UTF-8).
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = ["crates", "src", "tests", "examples", "benchmark/src"];
    let mut dirs = Vec::from(roots.map(|d| root.join(d)));
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

/// `line` without its comment: empty for a `//` line, the code before a
/// trailing `//` outside a string literal.
fn code_of(line: &str) -> &str {
    let mut quotes = 0;
    for (i, c) in line.char_indices() {
        if c == '"' {
            quotes += 1;
        } else if quotes % 2 == 0 && line[i..].starts_with("//") {
            return &line[..i];
        }
    }
    line
}

/// The name a `pub` or `pub(crate)` `fn`, `struct`, `enum`, `trait`,
/// `type` or `const` declaration on `code` declares.
fn declared(code: &str) -> Option<&str> {
    let mut words = code.split_whitespace().peekable();
    if !matches!(words.next(), Some("pub" | "pub(crate)")) {
        return None;
    }
    let mut word = words.next()?;
    if word == "const" && words.peek() == Some(&"fn") {
        word = words.next()?;
    }
    if !matches!(word, "fn" | "struct" | "enum" | "trait" | "type" | "const") {
        return None;
    }
    let name = words.next()?;
    let end = name.find(|c: char| !(c.is_alphanumeric() || c == '_'));
    Some(&name[..end.unwrap_or(name.len())]).filter(|n| !n.is_empty())
}

/// Which of `lines` belong to a `#[cfg(test)]` item: from the attribute
/// to the first line at its indent that ends in `;` or `}` (the tree is
/// rustfmt-formatted, so that line ends the item).
fn test_lines(lines: &[&str]) -> Vec<bool> {
    let mut test = vec![false; lines.len()];
    let mut n = 0;
    while n < lines.len() {
        if lines[n].trim() != "#[cfg(test)]" {
            n += 1;
            continue;
        }
        let indent = &lines[n][..lines[n].len() - lines[n].trim_start().len()];
        while n < lines.len() {
            test[n] = true;
            let line = lines[n].trim_end();
            n += 1;
            let own = line
                .strip_prefix(indent)
                .filter(|l| !l.starts_with(char::is_whitespace));
            if own.is_some_and(|l| l.ends_with(';') || l.ends_with('}')) {
                break;
            }
        }
    }
    test
}

/// Where a word occurs in the tree: its file and line, whether the line
/// belongs to a `#[cfg(test)]` item, and the top-level item (an index
/// into the items `unread` checks) whose declaration or `impl` block
/// holds the line.
struct Occurrence {
    file: usize,
    line: usize,
    test: bool,
    owner: Option<usize>,
}

/// The type an `impl` header on `code` implements for.
fn impl_of(code: &str) -> Option<&str> {
    let rest = code
        .strip_prefix("unsafe ")
        .unwrap_or(code)
        .strip_prefix("impl")?;
    let mut depth = 0;
    let generics_end = rest.find(|c: char| {
        depth += (c == '<') as i32 - (c == '>') as i32;
        depth == 0 && c.is_whitespace()
    })?;
    let header = &rest[generics_end..];
    let ty = header.rsplit(" for ").next()?.trim_start();
    let ty = &ty[..ty.find(['<', ' ', '{', '(']).unwrap_or(ty.len())];
    ty.rsplit("::").next()
}

/// Every `pub`/`pub(crate)` `fn`, `struct`, `enum`, `trait`, `type` or
/// `const` declared under `crates/*/src` that has no reader: no
/// word-boundary occurrence of its name on a line of a `.rs` file of
/// `files` that is not its declaration, an `impl` header, a comment, a
/// `#[cfg(test)]` item of its own file (its `mod tests`), or a line of
/// its own top-level item or `impl` block, or of one of an unread item.
/// Items marked `#[cfg(test)]` are exempt. The tree is tokenised once.
fn unread(files: &[(String, String)]) -> Vec<String> {
    // Each item: (file, line, name).
    let mut items: Vec<(usize, usize, &str)> = Vec::new();
    let mut seen: HashMap<&str, Vec<Occurrence>> = HashMap::new();
    for (f, (path, text)) in files.iter().enumerate() {
        if !path.ends_with(".rs") {
            continue;
        }
        let lines: Vec<&str> = text.lines().map(code_of).collect();
        let test = test_lines(&lines);
        let first = items.len();
        if path.starts_with("crates/") && path.split('/').nth(2) == Some("src") {
            let decls = lines.iter().enumerate().filter(|&(n, _)| !test[n]);
            items.extend(decls.filter_map(|(n, l)| Some((f, n, declared(l.trim_start())?))));
        }
        let mut owner = None;
        for (n, code) in lines.iter().enumerate() {
            if !code.is_empty() && !code.starts_with([' ', '}', '#']) {
                let name = impl_of(code).or_else(|| declared(code));
                let top =
                    |&i: &usize| items[i].2 == name.unwrap() && !lines[items[i].1].starts_with(' ');
                owner = name.and_then(|_| (first..items.len()).find(top));
            }
            if impl_of(code.trim_start()).is_some() {
                continue;
            }
            let words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            for word in words.filter(|w| !w.is_empty()) {
                let at = Occurrence {
                    file: f,
                    line: n,
                    test: test[n],
                    owner,
                };
                seen.entry(word).or_default().push(at);
            }
        }
    }
    // An item read only from unread items is unread too: iterate until
    // the set stops growing.
    let mut unread = vec![false; items.len()];
    loop {
        let read = |i: usize| {
            let (f, n, name) = items[i];
            let own_file = |o: &Occurrence| o.file == f && (o.line == n || o.test);
            let own_item = |o: &Occurrence| o.owner.is_some_and(|w| w == i || unread[w]);
            seen[name].iter().any(|o| !own_file(o) && !own_item(o))
        };
        let next: Vec<bool> = (0..items.len()).map(|i| !read(i)).collect();
        if next == unread {
            break;
        }
        unread = next;
    }
    let unread = items.iter().zip(&unread).filter(|(_, &u)| u);
    unread
        .map(|(&(f, n, name), _)| format!("{}:{}: {name}", files[f].0, n + 1))
        .collect()
}

#[test]
fn every_public_item_has_a_reader() {
    let unread = unread(&tree());
    assert!(
        unread.is_empty(),
        "read by nothing but their own tests:\n{}",
        unread.join("\n")
    );
}

#[test]
fn an_unread_public_item_fires() {
    let lib = "pub fn lonely() {}
pub(crate) struct Used;
pub const fn by_tests() {}
#[cfg(test)]
pub fn oracle() {}
pub type Part = u8;
pub struct Whole(Part);
impl Whole {
    pub fn new() -> Whole {
        Whole(0)
    }
}

#[cfg(test)]
mod tests {
    pub fn helper() {
        lonely();
        by_tests();
        oracle();
    }
}
";
    let user = "impl lonely for X {}\n// by_tests\nfn f() -> Used { Used } // lonely\n";
    let files = [
        ("crates/x/src/lib.rs", lib),
        ("src/main.rs", user),
        ("crates/x/README.md", "lonely"),
    ];
    let files = files.map(|(p, t)| (p.to_string(), t.to_string()));
    let want = [
        ":1: lonely",
        ":3: by_tests",
        ":6: Part",
        ":7: Whole",
        ":9: new",
    ];
    assert_eq!(
        unread(&files),
        want.map(|w| format!("crates/x/src/lib.rs{w}"))
    );
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
