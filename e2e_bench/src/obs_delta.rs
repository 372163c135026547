//! Deltas of the system's own metrics over a measurement window: the
//! in-process `crp_obs::global()` registry (the daemon runs inside the
//! benchmark process) and the fleet rollup lines of a `stats` report
//! (the workers' registries, shipped to the daemon).

use std::collections::BTreeMap;

use crp_obs::{HistogramSnapshot, MetricsSnapshot};

/// Counter growth between two snapshots of one registry.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// `(total, sum, bucket index -> count)` of histogram `name`, read from
/// the snapshot's canonical wire text (the only public view of its
/// buckets).
fn histogram_buckets(snapshot: &MetricsSnapshot, name: &str) -> (u64, u64, BTreeMap<usize, u64>) {
    let text = snapshot.encode();
    let head = format!("histogram {name} ");
    let mut lines = text.lines().skip_while(|line| !line.starts_with(&head));
    let Some(line) = lines.next() else {
        return (0, 0, BTreeMap::new());
    };
    let fields: Vec<&str> = line.split(' ').collect();
    let hex = |index: usize| {
        fields
            .get(index)
            .and_then(|token| u64::from_str_radix(token, 16).ok())
            .unwrap_or(0)
    };
    let buckets = lines
        .map_while(|line| {
            let mut tokens = line.strip_prefix("bucket ")?.split(' ');
            Some((tokens.next()?.parse().ok()?, tokens.next()?.parse().ok()?))
        })
        .collect();
    (hex(2), hex(3), buckets)
}

/// The samples histogram `name` gained between two snapshots of one
/// registry, as a histogram of its own (quantiles, count and sum are
/// those of the new samples only; min and max are not tracked).
pub fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let (total_before, sum_before, buckets_before) = histogram_buckets(before, name);
    let (total_after, sum_after, buckets_after) = histogram_buckets(after, name);
    let grown: Vec<(usize, u64)> = buckets_after
        .into_iter()
        .map(|(index, count)| {
            let old = buckets_before.get(&index).copied().unwrap_or(0);
            (index, count.saturating_sub(old))
        })
        .filter(|&(_, count)| count > 0)
        .collect();
    let mut text = format!(
        "crp-metrics-snapshot v1\ncounters 0\ngauges 0\nhistograms 1\n\
         histogram {name} {:016x} {:016x} {:016x} {:016x} buckets {}\n",
        total_after.saturating_sub(total_before),
        sum_after.wrapping_sub(sum_before),
        0,
        0,
        grown.len()
    );
    for (index, count) in grown {
        text.push_str(&format!("bucket {index} {count}\n"));
    }
    text.push_str("end\n");
    MetricsSnapshot::decode(&text)
        .ok()
        .and_then(|snapshot| snapshot.histogram(name).cloned())
        .unwrap_or_default()
}

/// `(count, sum)` of histogram `name` in the fleet rollup section of a
/// daemon `stats` report (`rollup histogram <name> count=.. sum=..`);
/// `None` when no worker has reported it.
pub fn rollup_histogram(report: &str, name: &str) -> Option<(u64, u64)> {
    let head = format!("rollup histogram {name} ");
    let line = report.lines().find(|line| line.starts_with(&head))?;
    let field = |key: &str| -> Option<u64> {
        line.split(' ')
            .find_map(|token| token.strip_prefix(key))
            .and_then(|value| value.parse().ok())
    };
    Some((field("count=")?, field("sum=").unwrap_or(0)))
}
