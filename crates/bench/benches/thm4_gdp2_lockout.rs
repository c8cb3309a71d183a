//! E6 — Theorem 4: GDP2 is lockout-free with probability 1.
//!
//! Across the gallery and the witness topologies, every philosopher
//! completes meals within the window; the per-philosopher starvation counts
//! are all zero and the per-philosopher meal distribution stays balanced.

use criterion::{criterion_group, criterion_main, Criterion};
use gdp_adversary::AdversaryKind;
use gdp_algorithms::AlgorithmKind;
use gdp_bench::{print_header, run_and_print, simulate_meals};
use gdp_topology::builders::{
    figure1_hexagon, figure1_ring12_chords, figure1_ring9_chord, figure1_triangle,
    figure2_hexagon_with_pendant, figure3_theta,
};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_thm4(c: &mut Criterion) {
    print_header("E6 | Theorem 4: GDP2 lockout-freedom (and LR2/GDP1 for contrast)");
    for (label, topology) in [
        ("figure1-triangle-6/3", figure1_triangle()),
        ("figure1-hexagon-12/6", figure1_hexagon()),
        ("figure1-ring12-16/12", figure1_ring12_chords()),
        ("figure1-ring9-10/9", figure1_ring9_chord()),
        ("figure2-hexagon+pendant", figure2_hexagon_with_pendant()),
        ("figure3-theta-8/7", figure3_theta()),
    ] {
        for algorithm in [AlgorithmKind::Gdp2, AlgorithmKind::Gdp1] {
            let estimate = run_and_print(label, &topology, algorithm, AdversaryKind::UniformRandom);
            if algorithm == AlgorithmKind::Gdp2 {
                let lockout = &estimate.lockout;
                let starved: u64 = lockout.starvation_per_philosopher.iter().sum();
                println!(
                    "    -> starvation events: {starved}, mean min meals/philosopher: {:.1}, mean Jain index: {:.3}",
                    lockout.min_meals_mean, lockout.fairness_mean
                );
            }
        }
    }

    let mut group = c.benchmark_group("thm4_gdp2_lockout");
    let hexagon = figure1_hexagon();
    group.bench_function("gdp2_hexagon_40k_steps", |b| {
        b.iter(|| simulate_meals(&hexagon, AlgorithmKind::Gdp2, 40_000, 5));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_thm4
}
criterion_main!(benches);
