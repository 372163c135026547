//! Bench T2-DET: regenerates the deterministic rows of Table 2.
//!
//! Sweeps the advice budget `b` and, for an adversarial participant
//! placement, measures the deterministic scan (no collision detection,
//! theory `n / 2^b`) and the deterministic tree descent (collision
//! detection, theory `log n − b + 1`).  The measurement is the table2
//! experiment module's own `det_rounds` helper, so bench and experiment
//! cannot drift apart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_sim::experiments::table2::det_rounds;

const UNIVERSE: usize = 1 << 12;

fn active_set() -> Vec<usize> {
    vec![255, 256, 900, 901, 2047, 3000, 4000]
}

fn rounds(name: &str, b: usize) -> f64 {
    det_rounds(name, UNIVERSE, &active_set(), b)
        .expect("deterministic advice protocols always resolve within their budget")
}

fn table2_deterministic(c: &mut Criterion) {
    let log_n = (UNIVERSE as f64).log2();
    println!("\n=== Table 2 / deterministic (n = {UNIVERSE}) ===");
    println!(
        "{:>2} {:>10} {:>12} {:>13} {:>12}",
        "b", "n/2^b", "scan rounds", "log n - b + 1", "descent rnds"
    );
    for b in 0..=(log_n as usize) {
        println!(
            "{b:>2} {:>10.0} {:>12} {:>13.1} {:>12}",
            UNIVERSE as f64 / 2f64.powi(b as i32),
            rounds("det-advice-no-cd", b),
            log_n - b as f64 + 1.0,
            rounds("det-advice-cd", b)
        );
    }

    let mut group = c.benchmark_group("table2_deterministic");
    group.sample_size(10);
    for b in [0usize, 4, 8, 12] {
        group.bench_with_input(BenchmarkId::new("scan", b), &b, |bencher, &b| {
            bencher.iter(|| rounds("det-advice-no-cd", b));
        });
        group.bench_with_input(BenchmarkId::new("descent", b), &b, |bencher, &b| {
            bencher.iter(|| rounds("det-advice-cd", b));
        });
    }
    group.finish();
}

criterion_group!(benches, table2_deterministic);
criterion_main!(benches);
