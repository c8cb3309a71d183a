//! E5 — Theorem 3: GDP1 makes progress with probability 1 on every topology
//! under every fair adversary.
//!
//! The sweep covers the Figure 1 gallery, the Theorem 1/2 witness
//! topologies, random connected multigraphs, and three scheduler classes
//! (round-robin, uniform random, the generic blocking adversary).  Reported:
//! the progress fraction (expected: 1.00 everywhere) and the first-meal
//! distribution.

use criterion::{criterion_group, criterion_main, Criterion};
use gdp_adversary::AdversaryKind;
use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::estimate_progress;
use gdp_analysis::TrialConfig;
use gdp_bench::{print_header, run_and_print, simulate_meals};
use gdp_topology::builders::{
    complete_conflict, figure1_hexagon, figure1_ring12_chords, figure1_ring9_chord,
    figure1_triangle, figure2_hexagon_with_pendant, figure3_theta, random_connected,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_thm3(c: &mut Criterion) {
    print_header("E5 | Theorem 3: GDP1 progress probability across topologies and schedulers");
    for (label, topology) in [
        ("figure1-triangle-6/3", figure1_triangle()),
        ("figure1-hexagon-12/6", figure1_hexagon()),
        ("figure1-ring12-16/12", figure1_ring12_chords()),
        ("figure1-ring9-10/9", figure1_ring9_chord()),
        ("figure2-hexagon+pendant", figure2_hexagon_with_pendant()),
        ("figure3-theta-8/7", figure3_theta()),
        ("complete-5", complete_conflict(5).unwrap()),
    ] {
        for adversary in [
            AdversaryKind::RoundRobin,
            AdversaryKind::UniformRandom,
            AdversaryKind::Blocking,
        ] {
            run_and_print(label, &topology, AlgorithmKind::Gdp1, adversary);
        }
    }

    println!("random connected multigraphs (8 forks, 12 philosophers), uniform random scheduler:");
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for i in 0..4 {
        let topology = random_connected(8, 4, &mut rng).expect("random topology");
        let estimate = estimate_progress(
            &topology,
            &AlgorithmKind::Gdp1.program(),
            |trial| gdp_sim::UniformRandomAdversary::new(trial + 500),
            &TrialConfig::new(gdp_bench::TRIALS, gdp_bench::MAX_STEPS),
        );
        println!(
            "  random#{i} {:<28} progress={:.2} first_meal_p50={:.0} p95={:.0}",
            topology.summary(),
            estimate.progress_fraction,
            estimate.first_meal_p50,
            estimate.first_meal_p95
        );
    }

    let mut group = c.benchmark_group("thm3_gdp1_progress");
    let theta = figure3_theta();
    group.bench_function("gdp1_theta_40k_steps", |b| {
        b.iter(|| simulate_meals(&theta, AlgorithmKind::Gdp1, 40_000, 3));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_thm3
}
criterion_main!(benches);
