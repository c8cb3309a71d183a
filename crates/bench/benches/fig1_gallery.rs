//! E1 — Figure 1 gallery.
//!
//! Reproduces the role of Figure 1 in the paper: the four example
//! generalized systems are well formed, and the paper's algorithms GDP1 /
//! GDP2 make progress (resp. are lockout-free) on each of them.  The timed
//! kernel is a fixed-length GDP1 simulation on every gallery topology.

use criterion::{criterion_group, criterion_main, Criterion};
use gdp_adversary::AdversaryKind;
use gdp_algorithms::AlgorithmKind;
use gdp_bench::{print_header, run_and_print, simulate_meals};
use gdp_topology::builders::{
    figure1_gallery, figure1_hexagon, figure1_ring12_chords, figure1_ring9_chord, figure1_triangle,
};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_fig1_gallery(c: &mut Criterion) {
    print_header("E1 | Figure 1 gallery: GDP1/GDP2 on the paper's four generalized systems");
    for (label, topology) in [
        ("figure1-triangle-6/3", figure1_triangle()),
        ("figure1-hexagon-12/6", figure1_hexagon()),
        ("figure1-ring12-16/12", figure1_ring12_chords()),
        ("figure1-ring9-10/9", figure1_ring9_chord()),
    ] {
        for algorithm in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
            run_and_print(label, &topology, algorithm, AdversaryKind::UniformRandom);
        }
    }

    let mut group = c.benchmark_group("fig1_gallery");
    for (name, topology) in figure1_gallery() {
        group.bench_function(format!("gdp1_20k_steps/{name}"), |b| {
            b.iter(|| simulate_meals(&topology, AlgorithmKind::Gdp1, 20_000, 7));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fig1_gallery
}
criterion_main!(benches);
