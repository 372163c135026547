//! Self-tests of the benchmark's helpers: tail-percentile selection,
//! span self-time subtraction, `crp-obs` deltas and `/proc` parsing.
//!
//! Run with `cargo test --manifest-path e2e_bench/Cargo.toml`.

use crp_e2e_bench::obs_delta::{counter_delta, histogram_delta, rollup_histogram};
use crp_e2e_bench::procfs::{parse_name, parse_ppid, parse_vm_hwm_kib};
use crp_e2e_bench::spans::{layer_times, self_times_ns, Span, SpanLog};
use crp_e2e_bench::summary::{mean, median, nearest_rank, tail, TAIL_MIN_BEYOND};

fn samples(n: usize) -> Vec<f64> {
    // 1..=n in a scrambled order: the helpers must sort for themselves.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
    // 19 samples: even the median has only 9 beyond it.
    assert_eq!(tail(&samples(19)), None);
    // 20 samples: p50 (rank 10) has exactly 10 beyond.
    let t = tail(&samples(20)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 10.0, 10, 20));
    // 40 samples: p75 (rank 30) has 10 beyond; p95 would have 2.
    let t = tail(&samples(40)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
    // 199 samples: still p75; p95 (rank 190) would have 9 beyond.
    let t = tail(&samples(199)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (75.0, 150.0, 49));
    // 200 samples: p95 (rank 190) has 10 beyond; p99 would have 2.
    let t = tail(&samples(200)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    // 1000 samples: p99 (rank 990); 10 000: p99.9 (rank 9990).
    assert_eq!(tail(&samples(1000)).unwrap().pct, 99.0);
    let t = tail(&samples(10_000)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    // Every chosen tail honours the minimum.
    for n in 20..300 {
        assert!(
            tail(&samples(n)).unwrap().beyond >= TAIL_MIN_BEYOND,
            "n = {n}"
        );
    }
}

#[test]
fn medians_means_and_ranks() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(nearest_rank(10, 50.0), 5);
    assert_eq!(nearest_rank(10, 99.9), 10);
    assert_eq!(nearest_rank(10, 0.0), 1);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        // 0: root [0, 100)
        span("submit", None, 0, 100),
        // 1, 2: overlapping children covering [10, 50) together.
        span("client.compile", Some(0), 10, 30),
        span("client.submit", Some(0), 20, 50),
        // 3: grandchild inside child 1; only child 1 loses it.
        span("serve.canonicalize", Some(1), 12, 15),
        // 4: a child sticking out past its parent is clipped to it.
        span("client.results", Some(0), 90, 120),
    ];
    let own = self_times_ns(&spans);
    // Root: 100 - |[10,50) ∪ [90,100)| = 100 - 50.
    assert_eq!(own, vec![50, 17, 30, 3, 30]);

    let layers = layer_times(&spans);
    assert_eq!(layers["client.compile"].self_ns, 17);
    assert_eq!(layers["client.compile"].total_ns, 20);
    assert_eq!(layers["submit"].count, 1);

    // A span that was never closed has no duration and no self time.
    assert_eq!(self_times_ns(&[span("submit", None, 40, 40)]), vec![0]);
}

#[test]
fn span_log_records_only_while_enabled_and_nests_parents() {
    let log = SpanLog::new();
    assert_eq!(log.begin("submit", None), None);
    log.set_enabled(true);
    let root = log.begin("submit", None);
    let value = log.time("client.compile", root, || 42);
    log.end(root);
    log.set_enabled(false);
    log.time("client.results", root, || ());
    assert_eq!(value, 42);
    let spans = log.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

#[test]
fn vm_hwm_ppid_and_name_parse_from_proc_status() {
    let status = "Name:\tcrp_experiments\nUmask:\t0022\nState:\tS (sleeping)\n\
                  Tgid:\t4242\nPid:\t4242\nPPid:\t4100\nVmPeak:\t  20480 kB\n\
                  VmHWM:\t    6144 kB\nVmRSS:\t    5120 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(6144));
    assert_eq!(parse_ppid(status), Some(4100));
    assert_eq!(parse_name(status), Some("crp_experiments"));
    // Kernel threads have no VmHWM line.
    assert_eq!(parse_vm_hwm_kib("Name:\tkthreadd\nPPid:\t0\n"), None);
    // A key must match whole, not as a prefix of another key.
    assert_eq!(parse_vm_hwm_kib("VmHWMx:\t1 kB\n"), None);
    // This process can read its own status.
    let own = std::fs::read_to_string("/proc/self/status").unwrap();
    assert!(parse_vm_hwm_kib(&own).unwrap() > 0);
}

#[test]
fn histogram_deltas_cover_only_the_new_samples() {
    let registry = crp_obs::MetricsRegistry::new();
    for value in [5_000u64, 6_000, 7_000] {
        registry.observe("fleet.job_micros", value);
    }
    registry.add("fleet.dispatch", 3);
    let before = registry.snapshot();
    let fresh = crp_obs::MetricsRegistry::new();
    for value in (1..=100u64).map(|i| i * 100) {
        registry.observe("fleet.job_micros", value);
        fresh.observe("fleet.job_micros", value);
    }
    registry.add("fleet.dispatch", 100);
    let after = registry.snapshot();

    let delta = histogram_delta(&before, &after, "fleet.job_micros");
    let only_new = fresh.snapshot();
    let expected = only_new.histogram("fleet.job_micros").unwrap();
    assert_eq!(delta.total, 100);
    assert_eq!(delta.sum, expected.sum);
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(delta.quantile(q), expected.quantile(q), "q = {q}");
    }
    assert_eq!(counter_delta(&before, &after, "fleet.dispatch"), 100);
    // An absent histogram yields an empty delta.
    assert_eq!(histogram_delta(&before, &after, "missing").total, 0);
}

#[test]
fn rollup_histograms_parse_from_a_stats_report() {
    let report = "submit: 0/0 job cache hits (100%), 0 computed on the fleet\n\
                  histogram sim.shard_micros count=1 sum=9 min=9 max=9 p50=9 p90=9 p99=9\n\
                  fleet metrics: 2 reporting, 0 unavailable\n\
                  rollup counter sim.shard.execute 1000\n\
                  rollup histogram sim.shard_micros count=1000 sum=5598685 min=0 max=67374 \
                  p50=360 p90=21695 p99=41599\n";
    assert_eq!(
        rollup_histogram(report, "sim.shard_micros"),
        Some((1000, 5_598_685))
    );
    assert_eq!(rollup_histogram(report, "sim.shard"), None);
}
