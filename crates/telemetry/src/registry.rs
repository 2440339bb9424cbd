//! Metric families, epoch-stamped snapshots with
//! delta-since-last-scrape, and the Prometheus text exposition.
//!
//! The registry is deliberately *cold*: hot paths hold `Arc`s to their
//! own atomics (counters, histogram shards) and never touch the
//! registry. Families are registered once as [`Collect`] closures that
//! read those atomics at scrape time — merging per-invoker shards,
//! labelling per-action rows — so a scrape is the only place string
//! labels or allocation appear.

use crate::hist::HistSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Label set for one series: `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// What kind of family this is (drives exposition `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// One collected series value.
#[derive(Debug, Clone)]
pub enum Collected {
    Counter(u64),
    Gauge(i64),
    Hist(HistSnapshot),
}

/// A scrape-time reader for one family: returns every live series.
pub trait Collect: Send + Sync {
    fn collect(&self) -> Vec<(Labels, Collected)>;
}

impl<F> Collect for F
where
    F: Fn() -> Vec<(Labels, Collected)> + Send + Sync,
{
    fn collect(&self) -> Vec<(Labels, Collected)> {
        self()
    }
}

/// Convenience constructor for an unlabelled series list.
pub fn one_series(v: Collected) -> Vec<(Labels, Collected)> {
    vec![(Vec::new(), v)]
}

/// Build a label set from `&[(&str, &str)]`.
pub fn labels(kv: &[(&str, &str)]) -> Labels {
    kv.iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

struct FamilyReg {
    name: String,
    help: String,
    kind: MetricKind,
    collector: Box<dyn Collect>,
    /// Previous scrape's value per series (keyed by rendered labels),
    /// for delta-since-last-scrape.
    last: HashMap<String, f64>,
}

/// A set of named metric families. Scrapes are serialized internally;
/// registration is cold-path only.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<FamilyReg>>,
    epoch: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a family. Family names must be unique; re-registering a
    /// name replaces the collector (useful in tests).
    pub fn register(&self, name: &str, help: &str, kind: MetricKind, collector: Box<dyn Collect>) {
        let mut fams = self.families.lock().unwrap();
        if let Some(f) = fams.iter_mut().find(|f| f.name == name) {
            f.collector = collector;
            f.help = help.to_string();
            f.kind = kind;
            f.last.clear();
        } else {
            fams.push(FamilyReg {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                collector,
                last: HashMap::new(),
            });
        }
    }

    /// Epoch-stamped, delta-carrying snapshot of every family.
    ///
    /// The epoch is a monotone scrape counter; each series carries
    /// `delta` = value change since the *previous* scrape of this
    /// registry (counters and histogram counts are monotone, so the
    /// delta is the traffic between the two scrapes).
    pub fn snapshot(&self) -> Snapshot {
        let epoch = self.epoch.fetch_add(1, Relaxed) + 1;
        let mut fams = self.families.lock().unwrap();
        let mut out = Vec::with_capacity(fams.len());
        for f in fams.iter_mut() {
            let mut series = Vec::new();
            for (lbls, value) in f.collector.collect() {
                let key = label_key(&lbls);
                let now = match &value {
                    Collected::Counter(v) => *v as f64,
                    Collected::Gauge(v) => *v as f64,
                    Collected::Hist(h) => h.count as f64,
                };
                let prev = f.last.insert(key, now).unwrap_or(0.0);
                series.push(SeriesSnapshot {
                    labels: lbls,
                    value,
                    delta: now - prev,
                });
            }
            out.push(FamilySnapshot {
                name: f.name.clone(),
                help: f.help.clone(),
                kind: f.kind,
                series,
            });
        }
        Snapshot {
            epoch,
            families: out,
        }
    }
}

fn label_key(lbls: &Labels) -> String {
    let mut s = String::new();
    for (k, v) in lbls {
        s.push_str(k);
        s.push('=');
        s.push_str(v);
        s.push(',');
    }
    s
}

/// One series at scrape time.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    pub labels: Labels,
    pub value: Collected,
    /// Change since the previous scrape (counter/gauge value, or
    /// histogram sample count).
    pub delta: f64,
}

/// One family at scrape time.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: Vec<SeriesSnapshot>,
}

/// A consistent scrape: every family read under one registry lock,
/// stamped with a monotone epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub epoch: u64,
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    fn find(&self, family: &str, lbls: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        let fam = self.families.iter().find(|f| f.name == family)?;
        fam.series.iter().find(|s| {
            lbls.len() == s.labels.len()
                && lbls
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// Counter value for an exact label match.
    pub fn counter(&self, family: &str, lbls: &[(&str, &str)]) -> Option<u64> {
        match self.find(family, lbls)?.value {
            Collected::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Counter delta-since-last-scrape for an exact label match (the
    /// tests' oracle of `delta`).
    #[cfg(test)]
    pub fn counter_delta(&self, family: &str, lbls: &[(&str, &str)]) -> Option<u64> {
        match self.find(family, lbls)?.value {
            Collected::Counter(_) => Some(self.find(family, lbls)?.delta.max(0.0) as u64),
            _ => None,
        }
    }

    /// Gauge value for an exact label match.
    pub fn gauge(&self, family: &str, lbls: &[(&str, &str)]) -> Option<i64> {
        match self.find(family, lbls)?.value {
            Collected::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram state for an exact label match.
    pub fn histogram(&self, family: &str, lbls: &[(&str, &str)]) -> Option<&HistSnapshot> {
        match &self.find(family, lbls)?.value {
            Collected::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of counter series in a family whose labels include `filter`.
    pub fn counter_sum(&self, family: &str, filter: &[(&str, &str)]) -> u64 {
        let Some(fam) = self.families.iter().find(|f| f.name == family) else {
            return 0;
        };
        fam.series
            .iter()
            .filter(|s| {
                filter
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| match s.value {
                Collected::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket{le=...}` lines for non-empty
/// buckets plus `le="+Inf"`, `_sum` (midpoint-approximated) and
/// `_count`. A trailing `telemetry_scrape_epoch` gauge carries the
/// snapshot epoch so scrapers can detect missed scrapes.
pub fn render_prometheus(snap: &Snapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for fam in &snap.families {
        let kind = match fam.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
        let _ = writeln!(out, "# TYPE {} {}", fam.name, kind);
        for s in &fam.series {
            match &s.value {
                Collected::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", fam.name, render_labels(&s.labels, &[]), v);
                }
                Collected::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", fam.name, render_labels(&s.labels, &[]), v);
                }
                Collected::Hist(h) => {
                    let mut cum = 0u64;
                    for &(i, c) in &h.buckets {
                        cum += c;
                        let le = crate::hist::bucket_upper(i as usize).to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            fam.name,
                            render_labels(&s.labels, &[("le", &le)]),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        fam.name,
                        render_labels(&s.labels, &[("le", "+Inf")]),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        fam.name,
                        render_labels(&s.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        fam.name,
                        render_labels(&s.labels, &[]),
                        h.count
                    );
                }
            }
        }
    }
    let _ = writeln!(out, "# HELP telemetry_scrape_epoch Monotone scrape counter");
    let _ = writeln!(out, "# TYPE telemetry_scrape_epoch gauge");
    let _ = writeln!(out, "telemetry_scrape_epoch {}", snap.epoch);
    out
}

fn render_labels(lbls: &Labels, extra: &[(&str, &str)]) -> String {
    if lbls.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in lbls
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Histogram};
    use std::sync::Arc;

    #[test]
    fn snapshot_carries_deltas_across_epochs() {
        let reg = Registry::new();
        let c = Arc::new(Counter::new());
        let cc = c.clone();
        reg.register(
            "test_total",
            "a test counter",
            MetricKind::Counter,
            Box::new(move || one_series(Collected::Counter(cc.get()))),
        );
        c.add(5);
        let s1 = reg.snapshot();
        assert_eq!(s1.counter("test_total", &[]), Some(5));
        assert_eq!(s1.counter_delta("test_total", &[]), Some(5));
        c.add(3);
        let s2 = reg.snapshot();
        assert_eq!(s2.epoch, s1.epoch + 1);
        assert_eq!(s2.counter("test_total", &[]), Some(8));
        assert_eq!(s2.counter_delta("test_total", &[]), Some(3));
    }

    #[test]
    fn prometheus_rendering_has_families_and_epoch() {
        let reg = Registry::new();
        let h = Arc::new(Histogram::new());
        h.record(1000);
        h.record(2000);
        let hh = h.clone();
        reg.register(
            "lat_ns",
            "latency",
            MetricKind::Histogram,
            Box::new(move || vec![(labels(&[("kind", "total")]), Collected::Hist(hh.snapshot()))]),
        );
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{kind=\"total\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_count{kind=\"total\"} 2"));
        assert!(text.contains("telemetry_scrape_epoch 1"));
    }
}
