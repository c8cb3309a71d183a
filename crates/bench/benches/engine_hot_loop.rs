//! The engine hot loop: steps/sec of adversary-driven stepping for classic
//! rings of increasing size, and allocations/step over the same loop.
//!
//! `cargo run -p gdp-bench --bin report --release -- --perf-only` records
//! the same figures, with the host they came from, into
//! `BENCH_results.json`; `tests/hot_loop_allocations.rs` asserts the
//! allocation figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdp_algorithms::AlgorithmKind;
use gdp_bench::{perf, print_header};
use gdp_sim::{Adversary, Engine, SimConfig, UniformRandomAdversary};
use gdp_topology::builders::classic_ring;
use std::time::Duration;

#[global_allocator]
static ALLOC: gdp_bench::alloc_counter::CountingAllocator =
    gdp_bench::alloc_counter::CountingAllocator;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_engine_hot_loop(c: &mut Criterion) {
    print_header("engine_hot_loop | GDP1 stepping throughput and allocations/step");

    // Headline numbers, printed before the timed benches so the log always
    // carries absolute figures.
    for n in [5usize, 50, 500] {
        let sample = perf::measure_hot_loop(n, 200_000);
        println!(
            "classic-ring-{:<4} {:>12.0} steps/sec   allocations/step: {}",
            sample.n,
            sample.steps_per_sec,
            sample
                .allocations_per_step
                .map_or("untracked".to_string(), |a| format!("{a:.4}")),
        );
    }

    let mut group = c.benchmark_group("engine_hot_loop");
    for n in [5usize, 50, 500] {
        // Construct once, outside the timed closure: the kernel measures
        // steady-state stepping, not engine construction.
        let mut engine = Engine::new(
            classic_ring(n).expect("bench ring size is valid"),
            AlgorithmKind::Gdp1.program(),
            SimConfig::default().with_seed(3),
        );
        let mut adversary = UniformRandomAdversary::new(3 ^ 0xBEEF);
        group.bench_with_input(BenchmarkId::new("gdp1_10k_steps", n), &n, move |b, _| {
            b.iter(|| {
                engine.reset_with_seed(3);
                adversary.reset();
                for _ in 0..10_000 {
                    engine.step_with(&mut adversary);
                }
                engine.total_meals()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine_hot_loop
}
criterion_main!(benches);
