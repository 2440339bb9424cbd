//! `--check <a> <b>` and `--spread <a>`: read result files written with
//! `--record` and judge them by the bounds in [`crate::spec`].
//!
//! A result file holds one JSON object per line:
//! `{"workload": .., "seed": .., "seconds": .., "trace": 0|1, "result": <the run's last line>}`.
//! Only untraced runs are compared; end-to-end numbers never come from a
//! traced run.

use crate::json::{parse, Json};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;

/// (workload, metric) → the metric's value in each untraced run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let rec = parse(line).map_err(|e| at(&e))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no result.metrics"))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no untraced runs"));
    }
    Ok(runs)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
/// (the exclusive method), so spreads read the same as the driver's.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    [1, 2, 3].map(|i| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        if n == 1 {
            s[0]
        } else {
            s[j - 1] + (s[j] - s[j - 1]) * frac
        }
    })
}

/// Every (workload, metric) pair of the contract, in table order.
fn pairs() -> impl Iterator<Item = (&'static str, &'static crate::spec::EndToEnd)> {
    WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w.name, m)))
}

/// Compare result set `b` against `a` (the parent): for every pair the
/// median of `b` may be worse than the median of `a` by at most the
/// metric's bound. Returns the violations, each naming metric and
/// workload.
pub fn check(a: &str, b: &str) -> Result<Vec<String>, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut violations = Vec::new();
    let mut compared = 0;
    for (workload, m) in pairs() {
        let key = (workload.to_string(), m.name.to_string());
        let (Some(va), Some(vb)) = (ra.get(&key), rb.get(&key)) else {
            continue;
        };
        compared += 1;
        let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
        let worse = match m.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        };
        println!(
            "{workload:<18} {:<18} {ma:>14.4} -> {mb:>14.4} {}  ({:+.2}% worse, bound {:.0}%, n={}/{})",
            m.name,
            m.unit,
            worse * 100.0,
            m.bound * 100.0,
            va.len(),
            vb.len()
        );
        if worse > m.bound {
            violations.push(format!(
                "{} on {workload}: median {mb} is {:.2}% worse than {ma} (bound {:.0}%)",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(violations)
}

/// Print, for every pair in the file, the interquartile distance as a
/// share of the median, and return the pairs whose spread exceeds their
/// bound (`setup_s` excepted: it only has to agree between sets).
pub fn spread(path: &str) -> Result<Vec<String>, String> {
    let runs = load(path)?;
    let mut over = Vec::new();
    for (workload, m) in pairs() {
        let Some(v) = runs.get(&(workload.to_string(), m.name.to_string())) else {
            continue;
        };
        let [q1, q2, q3] = quartiles(v);
        let spread = (q3 - q1) / q2.abs();
        let mark = if spread > m.bound {
            "OVER BOUND"
        } else if spread > m.bound / 3.0 {
            "over a third"
        } else {
            ""
        };
        println!(
            "{workload:<18} {:<18} median {q2:>14.4} {:<6} iqr/median {:>6.2}%  bound {:>4.0}%  n={} {mark}",
            m.name,
            m.unit,
            spread * 100.0,
            m.bound * 100.0,
            v.len()
        );
        if spread > m.bound && m.name != "setup_s" {
            over.push(format!(
                "{} on {workload}: spread {:.2}% exceeds bound {:.0}%",
                m.name,
                spread * 100.0,
                m.bound * 100.0
            ));
        }
    }
    Ok(over)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
