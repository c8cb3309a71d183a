//! Regenerates every experiment summary table (E1–E10) in one run, then
//! records the hot-loop contrasts into `BENCH_results.json`:
//!
//! ```bash
//! cargo run -p gdp-bench --bin report --release                  # everything
//! cargo run -p gdp-bench --bin report --release -- --perf-only   # just BENCH_results.json
//! cargo run -p gdp-bench --bin report --release -- --skip-perf   # just the tables
//! ```
//!
//! Any other flag, or both flags together, exits 2 with a one-line reason.
//! The table output is the canonical source of the reproduced experiment
//! numbers; the perf output (steps/sec, allocations/step, tracing cost,
//! real-thread stress) is described in `docs/PERFORMANCE.md`.

use gdp_adversary::{
    AdversaryKind, BlockingAdversary, BlockingPolicy, StubbornnessSchedule, TargetStarver,
};
use gdp_algorithms::AlgorithmKind;
use gdp_analysis::symmetry::{distinct_probability_lower_bound, empirical_distinct_probability};
use gdp_bench::{print_header, run_and_print, wave_summary, MAX_STEPS, TRIALS};
use gdp_picalc::{ChannelId, ChoiceRound, Guard};
use gdp_runtime::run_for_meals;
use gdp_sim::{Engine, SimConfig, StopCondition};
use gdp_topology::builders::{
    classic_ring, complete_conflict, figure1_gallery, figure1_hexagon, figure1_ring12_chords,
    figure1_ring9_chord, figure1_triangle, figure2_hexagon_with_pendant, figure3_theta,
    ring_with_chord, ChordTarget,
};
use gdp_topology::PhilosopherId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: gdp_bench::alloc_counter::CountingAllocator =
    gdp_bench::alloc_counter::CountingAllocator;

/// Runs the perf suite and writes `BENCH_results.json` into the working
/// directory.
fn run_perf() {
    print_header("PERF | engine hot loop, tracing cost and thread stress -> BENCH_results.json");
    let report = gdp_bench::perf::run_perf_suite();
    assert!(
        report.runtime_stress.everyone_ate,
        "the GDP2 stress run must feed every philosopher"
    );
    report
        .write_json("BENCH_results.json")
        .expect("writing BENCH_results.json");
}

/// Exits 2 with a one-line reason on stderr.
fn usage_error(reason: &str) -> ! {
    eprintln!("report: {reason}");
    std::process::exit(2)
}

fn main() {
    let mut perf_only = false;
    let mut skip_perf = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--perf-only" => perf_only = true,
            "--skip-perf" => skip_perf = true,
            other => usage_error(&format!(
                "unknown flag `{other}` (expected --perf-only or --skip-perf)"
            )),
        }
    }
    if perf_only && skip_perf {
        usage_error("--perf-only and --skip-perf exclude each other");
    }
    if perf_only {
        run_perf();
        return;
    }

    println!(
        "gdp reproduction report — {TRIALS} trials x {MAX_STEPS} steps unless stated otherwise"
    );

    // ---------------------------------------------------------------- E1
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

    // ---------------------------------------------------------------- E2
    print_header(
        "E2 | Section 3: wave scheduler vs all four algorithms on the triangle (50k-step windows)",
    );
    println!(
        "{:<10} {:>16} {:>16} {:>24}",
        "algorithm", "P(no progress)", "mean meals/run", "mean fairness bound"
    );
    for algorithm in AlgorithmKind::paper_algorithms() {
        let summary = wave_summary(algorithm, TRIALS, 50_000);
        println!(
            "{:<10} {:>16.2} {:>16.1} {:>24.0}",
            algorithm.name(),
            summary.blocked_fraction,
            summary.mean_meals,
            summary.mean_fairness_bound
        );
    }

    // ---------------------------------------------------------------- E3
    print_header(
        "E3 | Theorem 1 (Figure 2): ring + pendant, targeted blocking adversary (40k-step windows)",
    );
    let figure2 = ring_with_chord(6, ChordTarget::ExternalFork).unwrap();
    let ring: Vec<PhilosopherId> = (0..6).map(PhilosopherId::new).collect();
    println!(
        "{:<10} {:>24} {:>18} {:>20}",
        "algorithm", "P(ring fully starved)", "mean ring meals", "mean pendant meals"
    );
    for algorithm in [AlgorithmKind::Lr1, AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
        let mut starved = 0u64;
        let mut ring_meals = 0u64;
        let mut pendant_meals = 0u64;
        for seed in 0..TRIALS {
            let mut engine = Engine::new(
                figure2.clone(),
                algorithm.program(),
                SimConfig::default().with_seed(seed),
            );
            let schedule = if algorithm == AlgorithmKind::Lr1 {
                StubbornnessSchedule::constant(50_000)
            } else {
                StubbornnessSchedule::default()
            };
            let mut adversary =
                BlockingAdversary::with_schedule(BlockingPolicy::starving(ring.clone()), schedule);
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(40_000));
            let r: u64 = ring
                .iter()
                .map(|p| outcome.meals_per_philosopher[p.index()])
                .sum();
            if r == 0 {
                starved += 1;
            }
            ring_meals += r;
            pendant_meals += outcome.meals_per_philosopher[6];
        }
        println!(
            "{:<10} {:>24.2} {:>18.1} {:>20.1}",
            algorithm.name(),
            starved as f64 / TRIALS as f64,
            ring_meals as f64 / TRIALS as f64,
            pendant_meals as f64 / TRIALS as f64
        );
    }

    // ---------------------------------------------------------------- E4
    print_header("E4 | Theorem 2: LR2 vs GDP2 on theta-containing topologies");
    for algorithm in [AlgorithmKind::Lr2, AlgorithmKind::Gdp2] {
        let summary = wave_summary(algorithm, TRIALS, 50_000);
        println!(
            "triangle + wave scheduler      {:<6} P(no progress) = {:.2}  mean meals = {:.1}",
            algorithm.name(),
            summary.blocked_fraction,
            summary.mean_meals
        );
    }
    for algorithm in [AlgorithmKind::Lr2, AlgorithmKind::Gdp2] {
        let theta = figure3_theta();
        let mut blocked = 0u64;
        for seed in 0..TRIALS {
            let mut engine = Engine::new(
                theta.clone(),
                algorithm.program(),
                SimConfig::default().with_seed(seed),
            );
            let schedule = if algorithm == AlgorithmKind::Lr2 {
                StubbornnessSchedule::constant(50_000)
            } else {
                StubbornnessSchedule::default()
            };
            let mut adversary =
                BlockingAdversary::with_schedule(BlockingPolicy::global(), schedule);
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(40_000));
            if !outcome.made_progress() {
                blocked += 1;
            }
        }
        println!(
            "theta + blocking adversary     {:<6} P(no progress in window) = {:.2}",
            algorithm.name(),
            blocked as f64 / TRIALS as f64
        );
    }

    // ---------------------------------------------------------------- E5
    print_header("E5 | Theorem 3: GDP1 progress probability across topologies and schedulers");
    for (label, topology) in [
        ("figure1-triangle-6/3", figure1_triangle()),
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

    // ---------------------------------------------------------------- E6
    print_header("E6 | Theorem 4: GDP2 lockout-freedom across the gallery");
    for (label, topology) in [
        ("figure1-triangle-6/3", figure1_triangle()),
        ("figure1-hexagon-12/6", figure1_hexagon()),
        ("figure1-ring12-16/12", figure1_ring12_chords()),
        ("figure1-ring9-10/9", figure1_ring9_chord()),
        ("figure2-hexagon+pendant", figure2_hexagon_with_pendant()),
        ("figure3-theta-8/7", figure3_theta()),
    ] {
        let estimate = run_and_print(
            label,
            &topology,
            AlgorithmKind::Gdp2,
            AdversaryKind::UniformRandom,
        );
        let lockout = &estimate.lockout;
        let starved: u64 = lockout.starvation_per_philosopher.iter().sum();
        println!(
            "    -> starvation events: {starved}, mean min meals: {:.1}, mean Jain: {:.3}",
            lockout.min_meals_mean, lockout.fairness_mean
        );
    }

    // ---------------------------------------------------------------- E7
    print_header("E7 | Tables 1-4 on the classic ring: all algorithms");
    for n in [6usize, 12, 24] {
        println!("--- ring size {n} ---");
        let ring = classic_ring(n).unwrap();
        for algorithm in AlgorithmKind::all() {
            run_and_print(
                &format!("classic-ring-{n}"),
                &ring,
                algorithm,
                AdversaryKind::UniformRandom,
            );
        }
    }

    // ---------------------------------------------------------------- E8
    print_header("E8 | Section 4: symmetry-breaking probability vs the paper's lower bound");
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    println!(
        "{:<30} {:>4} {:>6} {:>18} {:>18}",
        "topology", "k", "m", "paper lower bound", "measured (adjacent)"
    );
    let mut topologies = figure1_gallery();
    topologies.push(("classic-ring-8", classic_ring(8).unwrap()));
    for (name, topology) in &topologies {
        let k = topology.num_forks() as u32;
        for m in [k, 2 * k] {
            let bound = distinct_probability_lower_bound(k, m);
            let measured = empirical_distinct_probability(topology, m, 50_000, &mut rng);
            println!("{name:<30} {k:>4} {m:>6} {bound:>18.6} {measured:>18.6}");
        }
    }

    // ---------------------------------------------------------------- E9
    print_header("E9 | Section 5: starvation scheduler vs GDP1 / GDP2 (victim = P0, triangle, 60k-step windows)");
    println!(
        "{:<10} {:>20} {:>20} {:>20}",
        "algorithm", "P(victim starved)", "mean victim meals", "mean system meals"
    );
    for algorithm in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
        let victim = PhilosopherId::new(0);
        let mut starved = 0u64;
        let mut victim_meals = 0u64;
        let mut system_meals = 0u64;
        for seed in 0..TRIALS {
            let mut engine = Engine::new(
                figure1_triangle(),
                algorithm.program(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = TargetStarver::new(victim);
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(60_000));
            let v = outcome.meals_per_philosopher[victim.index()];
            if v == 0 {
                starved += 1;
            }
            victim_meals += v;
            system_meals += outcome.total_meals;
        }
        println!(
            "{:<10} {:>20.2} {:>20.1} {:>20.1}",
            algorithm.name(),
            starved as f64 / TRIALS as f64,
            victim_meals as f64 / TRIALS as f64,
            system_meals as f64 / TRIALS as f64
        );
    }

    // ---------------------------------------------------------------- E10
    print_header("E10 | Threaded GDP2 runtime and guarded choice");
    for (name, topology) in [
        ("classic-ring-8", classic_ring(8).unwrap()),
        ("classic-ring-32", classic_ring(32).unwrap()),
        ("figure1-triangle", figure1_triangle()),
        ("figure3-theta", figure3_theta()),
    ] {
        let report = run_for_meals(topology, 200, std::hint::spin_loop);
        println!(
            "{:<18} threads={:<3} meals={:<6} throughput={:>10.0} meals/s  everyone_ate={}",
            name,
            report.philosophers,
            report.total_meals(),
            report.throughput_meals_per_sec().unwrap_or(0.0),
            report.everyone_ate()
        );
    }
    let mut committed = 0usize;
    for _ in 0..20 {
        let mut round = ChoiceRound::new();
        let _server = round.add_process(vec![
            Guard::recv(ChannelId::new(0)),
            Guard::send(ChannelId::new(1), 1),
        ]);
        for i in 0..6 {
            round.add_process(vec![Guard::send(ChannelId::new(0), i)]);
            round.add_process(vec![Guard::recv(ChannelId::new(1))]);
        }
        committed += round.resolve().synchronizations().len();
    }
    println!("guarded choice: 20 rounds with a mixed-choice server and 12 clients -> {committed} synchronizations committed");

    if !skip_perf {
        run_perf();
    }
    println!();
    println!("done.");
}
