//! E7 — Tables 1–4 head-to-head on the classic ring (plus the asymmetric
//! ordered-forks baseline), where all algorithms are correct: throughput,
//! first-meal latency and fairness, for several ring sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdp_adversary::AdversaryKind;
use gdp_algorithms::AlgorithmKind;
use gdp_bench::{print_header, run_and_print, simulate_meals};
use gdp_topology::builders::classic_ring;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_tables(c: &mut Criterion) {
    print_header("E7 | Tables 1-4 on the classic ring: all algorithms, throughput and fairness");
    for n in [6usize, 12, 24] {
        println!("--- ring size {n} ---");
        let ring = classic_ring(n).expect("valid ring");
        for algorithm in AlgorithmKind::all() {
            run_and_print(
                &format!("classic-ring-{n}"),
                &ring,
                algorithm,
                AdversaryKind::UniformRandom,
            );
        }
    }

    let mut group = c.benchmark_group("tables_classic_ring");
    for n in [6usize, 12, 24, 48] {
        let ring = classic_ring(n).expect("valid ring");
        for algorithm in [AlgorithmKind::Lr1, AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}_20k_steps", algorithm.name()), n),
                &n,
                |b, _| {
                    b.iter(|| simulate_meals(&ring, algorithm, 20_000, 11));
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_tables
}
criterion_main!(benches);
