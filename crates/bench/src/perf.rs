//! The `BENCH_results.json` emitter: the same-binary contrasts of the
//! engine hot loop that the layered benchmark (`perfbench/`) does not
//! measure.
//!
//! `report --perf-only` writes three samples, each a contrast between two
//! ways of running the same work:
//!
//! * **steps/sec and allocations/step** of the adversary-driven hot loop
//!   (`step_with`) for GDP1 on classic rings of increasing size, against
//!   the same loop with the views rebuilt from scratch every step.
//!   Allocations are counted by [`crate::alloc_counter`] when the binary
//!   installs the counting allocator;
//! * **tracing overhead** of the gdp-observe event layer: the hot loop
//!   with the sink detached vs attached to a counting sink;
//! * **real-thread stress** of the runtime, plus the padded-vs-packed
//!   counter-layout ratio that guards the false-sharing fix.
//!
//! The checker, sweep, Monte-Carlo, store and serve paths are measured by
//! `perfbench/` (see `perfbench/README.md`). Every report carries a
//! [`Host`] block, so its wall-clock figures are trajectory markers for
//! that machine; the deterministic claims (allocations per step, event
//! counts, everyone fed) are asserted by tests. See `docs/PERFORMANCE.md`.

use crate::alloc_counter;
use gdp_algorithms::AlgorithmKind;
use gdp_observe::jsonl::escape_json;
use gdp_observe::{CountingSink, SharedSink};
use gdp_sim::{Engine, SimConfig, UniformRandomAdversary};
use gdp_topology::builders::classic_ring;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Hot-loop measurement for one ring size.
#[derive(Clone, Copy, Debug)]
pub struct HotLoopSample {
    /// Number of philosophers (= forks) in the ring.
    pub n: usize,
    /// Steps executed in the timed region.
    pub steps: u64,
    /// Steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Allocation events per step (`None` when the binary did not install
    /// the counting allocator).
    pub allocations_per_step: Option<f64>,
}

/// The machine a report was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Threads available to the process (`available_parallelism`).
    pub nproc: usize,
    /// The `model name` line of `/proc/cpuinfo`, or `"unknown"`.
    pub cpu: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Build profile of the measuring binary: `release` or `debug`.
    pub profile: &'static str,
}

impl Host {
    /// Describes the machine and build this process runs on.
    #[must_use]
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            });
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: cpu.unwrap_or_else(|| "unknown".to_string()),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Real-thread stress measurement: the algorithm-generic runtime driving
/// one contending OS thread per philosopher, plus the padded-vs-packed
/// counter-layout comparison guarding the false-sharing fix.
#[derive(Clone, Debug)]
pub struct RuntimeStressSample {
    /// Ring size (philosophers = forks = threads).
    pub n: usize,
    /// Algorithm interpreted by the seats.
    pub algorithm: &'static str,
    /// Meal budget per seat.
    pub meals_per_seat: u64,
    /// Total meals completed.
    pub total_meals: u64,
    /// Meals per wall-clock second across the table.
    pub meals_per_sec: f64,
    /// Jain fairness index of the meal distribution (1.0 on a completed
    /// meal-budget run).
    pub jain_fairness: f64,
    /// Whether every philosopher fed (must be `true`).
    pub everyone_ate: bool,
    /// Counter bumps per second with the runtime's cache-line-padded
    /// per-philosopher layout ([`gdp_runtime::SeatCounters`]).
    pub padded_bumps_per_sec: f64,
    /// Counter bumps per second with adjacent unpadded `AtomicU64`s (the
    /// false-sharing layout the fix replaced).
    pub packed_bumps_per_sec: f64,
    /// `padded / packed` throughput ratio.  ≈1 on one core; grows with
    /// cores as false sharing starts to bite.
    pub padding_speedup: f64,
}

/// Tracing-overhead measurement: the adversary-driven hot loop with the
/// event sink detached vs attached to a [`CountingSink`].  The detached
/// figure is the price everyone pays (a `None` branch per step, budgeted
/// at ≲2% vs `engine_hot_loop`); the attached figure is the floor cost of
/// tracing itself.
#[derive(Clone, Copy, Debug)]
pub struct TraceOverheadSample {
    /// Ring size.
    pub n: usize,
    /// Steps executed in each timed region.
    pub steps: u64,
    /// Steps per second with no sink installed.
    pub off_steps_per_sec: f64,
    /// Steps per second with the counting sink attached.
    pub on_steps_per_sec: f64,
    /// `off / on` throughput ratio (≥ 1; how much tracing costs when on).
    pub tracing_cost_ratio: f64,
    /// Events the sink counted during the traced region (> steps: one
    /// schedule event per step plus the protocol events).
    pub events: u64,
}

/// Everything `BENCH_results.json` records.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// The machine the samples were measured on.
    pub host: Host,
    /// Hot-loop samples, one per ring size.
    pub hot_loop: Vec<HotLoopSample>,
    /// The same loop with views rebuilt from scratch each step (the
    /// pre-refactor behaviour), for comparison.
    pub hot_loop_rebuild: Vec<HotLoopSample>,
    /// The real-thread runtime stress sample.
    pub runtime_stress: RuntimeStressSample,
    /// The tracing-overhead sample (sink detached vs attached).
    pub trace_overhead: TraceOverheadSample,
}

/// Shared skeleton of the hot-loop measurements: construct engine and
/// adversary *outside* the timed-and-counted region, warm up for a quarter
/// of the step budget (so per-meal bookkeeping buffers reach steady-state
/// capacity), attach `sink`, then time and allocation-count `steps`
/// iterations of `step_body`.
fn measure_stepping<B>(
    n: usize,
    steps: u64,
    sink: Option<SharedSink>,
    mut step_body: B,
) -> HotLoopSample
where
    B: FnMut(&mut Engine<gdp_algorithms::AnyProgram>, &mut UniformRandomAdversary),
{
    let mut engine = Engine::new(
        classic_ring(n).expect("bench ring size is valid"),
        AlgorithmKind::Gdp1.program(),
        SimConfig::default().with_seed(42),
    );
    let mut adversary = UniformRandomAdversary::new(7);
    for _ in 0..steps / 4 {
        engine.step_with(&mut adversary);
    }
    engine.set_event_sink(sink);
    let tracking = alloc_counter::tracking_active();
    let started = Instant::now();
    let (events, ()) = alloc_counter::count_allocations(|| {
        for _ in 0..steps {
            step_body(&mut engine, &mut adversary);
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    HotLoopSample {
        n,
        steps,
        steps_per_sec: steps as f64 / elapsed,
        allocations_per_step: tracking.then(|| events as f64 / steps as f64),
    }
}

/// Measures steps/sec and allocations/step of the steady-state stepping
/// loop for one ring size.
#[must_use]
pub fn measure_hot_loop(n: usize, steps: u64) -> HotLoopSample {
    measure_stepping(n, steps, None, |engine, adversary| {
        engine.step_with(adversary);
    })
}

/// Measures the same loop with the views additionally rebuilt from scratch
/// on every step — the work the engine performed *before* the incremental
/// view buffer existed.  Kept as a same-binary comparison point for the
/// steps/sec and allocations/step figures.
#[must_use]
pub fn measure_hot_loop_rebuild_every_step(n: usize, steps: u64) -> HotLoopSample {
    measure_stepping(n, steps, None, |engine, adversary| {
        let views = engine.rebuilt_views();
        std::hint::black_box(&views);
        engine.step_with(adversary);
    })
}

/// Measures the tracing overhead: the [`measure_hot_loop`] skeleton run
/// twice on the same ring, once with the engine's event sink detached
/// (the default `None` — one untaken branch per step) and once with a
/// [`CountingSink`] attached (the cheapest possible real sink: one
/// relaxed atomic bump per event, no buffering).
#[must_use]
pub fn measure_trace_overhead(n: usize, steps: u64) -> TraceOverheadSample {
    let off = measure_hot_loop(n, steps);
    let sink = Arc::new(CountingSink::new());
    let on = measure_stepping(n, steps, Some(sink.clone()), |engine, adversary| {
        engine.step_with(adversary);
    });
    TraceOverheadSample {
        n,
        steps,
        off_steps_per_sec: off.steps_per_sec,
        on_steps_per_sec: on.steps_per_sec,
        tracing_cost_ratio: off.steps_per_sec / on.steps_per_sec,
        events: sink.count(),
    }
}

/// Threads used by the counter-bump comparison and bumps per thread.
const BUMP_THREADS: usize = 4;
const BUMPS_PER_THREAD: u64 = 2_000_000;

/// Times one thread per counter in `counters`, each bumping its own
/// counter `BUMPS_PER_THREAD` times via `bump`.  Returns total bumps per
/// second.
fn timed_bumps<T: Sync>(counters: &[T], bump: impl Fn(&T) + Sync) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for counter in counters {
            let bump = &bump;
            scope.spawn(move || {
                for _ in 0..BUMPS_PER_THREAD {
                    bump(counter);
                }
            });
        }
    });
    (counters.len() as u64 * BUMPS_PER_THREAD) as f64 / started.elapsed().as_secs_f64()
}

/// Measures the real-thread runtime: a GDP2 meal-budget stress run on the
/// classic `n`-ring (one contending OS thread per philosopher), plus the
/// padded-vs-packed counter-layout comparison that guards the
/// `DiningTable` false-sharing fix.
#[must_use]
pub fn measure_runtime_stress(n: usize, meals_per_seat: u64) -> RuntimeStressSample {
    use gdp_scenarios::{run_stress, StressLoad, StressSpec, TopologyFamily};
    let spec = StressSpec {
        load: StressLoad::MealsPerSeat(meals_per_seat),
        ..StressSpec::new(TopologyFamily::Ring, n, AlgorithmKind::Gdp2)
    };
    let report = run_stress(&spec, true).expect("perf stress cell builds");
    let timing = report.timing.as_ref().expect("timing requested");

    // The layout comparison: each thread hammers its own counter, exactly
    // the runtime's per-philosopher access pattern.  Padded = the layout
    // DiningTable uses (one cache line per philosopher, alignment
    // test-enforced in gdp-runtime); packed = adjacent atomics sharing
    // lines.
    let padded: Vec<gdp_runtime::SeatCounters> = (0..BUMP_THREADS)
        .map(|_| gdp_runtime::SeatCounters::new())
        .collect();
    let padded_bumps_per_sec = timed_bumps(&padded, |c| c.record_meal());
    let packed: Vec<std::sync::atomic::AtomicU64> = (0..BUMP_THREADS)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let packed_bumps_per_sec = timed_bumps(&packed, |c| {
        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });

    RuntimeStressSample {
        n,
        algorithm: "GDP2",
        meals_per_seat,
        total_meals: report.total_meals,
        meals_per_sec: timing.meals_per_sec,
        jain_fairness: report.jain_fairness,
        everyone_ate: report.everyone_ate,
        padded_bumps_per_sec,
        packed_bumps_per_sec,
        padding_speedup: padded_bumps_per_sec / packed_bumps_per_sec,
    }
}

/// Runs the full perf suite with the default sizes used by
/// `BENCH_results.json`.
#[must_use]
pub fn run_perf_suite() -> PerfReport {
    let sizes = [5usize, 50, 500];
    let hot_loop = sizes
        .into_iter()
        .map(|n| measure_hot_loop(n, 400_000))
        .collect();
    let hot_loop_rebuild = sizes
        .into_iter()
        .map(|n| measure_hot_loop_rebuild_every_step(n, 100_000))
        .collect();
    PerfReport {
        host: Host::current(),
        hot_loop,
        hot_loop_rebuild,
        runtime_stress: measure_runtime_stress(8, 400),
        trace_overhead: measure_trace_overhead(50, 400_000),
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

impl PerfReport {
    fn write_samples(out: &mut String, samples: &[HotLoopSample]) {
        for (i, sample) in samples.iter().enumerate() {
            let allocations = match sample.allocations_per_step {
                Some(a) => format!("{a:.4}"),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"topology\": \"classic-ring-{}\", \"algorithm\": \"GDP1\", \
                 \"steps\": {}, \"steps_per_sec\": {}, \"allocations_per_step\": {}}}{}",
                sample.n,
                sample.steps,
                json_f64(sample.steps_per_sec),
                allocations,
                if i + 1 < samples.len() { "," } else { "" },
            );
        }
    }

    /// Renders the report as the `BENCH_results.json` document (stable,
    /// hand-written JSON — this workspace is fully offline and carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let host = &self.host;
        let mut out = format!(
            "{{\n  \"schema\": 2,\n  \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \
             \"os\": \"{}\", \"arch\": \"{}\", \"profile\": \"{}\"}},\n  \
             \"engine_hot_loop\": [\n",
            host.nproc,
            escape_json(&host.cpu),
            escape_json(host.os),
            escape_json(host.arch),
            host.profile,
        );
        Self::write_samples(&mut out, &self.hot_loop);
        out.push_str("  ],\n  \"engine_hot_loop_rebuild_every_step\": [\n");
        Self::write_samples(&mut out, &self.hot_loop_rebuild);
        let stress = &self.runtime_stress;
        let _ = write!(
            out,
            "  ],\n  \"runtime_stress\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"{}\",\n    \"threads\": {},\n    \"meals_per_seat\": {},\n    \
             \"total_meals\": {},\n    \"meals_per_sec\": {},\n    \
             \"jain_fairness\": {},\n    \"everyone_ate\": {},\n    \
             \"padded_bumps_per_sec\": {},\n    \"packed_bumps_per_sec\": {},\n    \
             \"padding_speedup\": {}\n  }},\n",
            stress.n,
            stress.algorithm,
            stress.n,
            stress.meals_per_seat,
            stress.total_meals,
            json_f64(stress.meals_per_sec),
            json_f64(stress.jain_fairness),
            stress.everyone_ate,
            json_f64(stress.padded_bumps_per_sec),
            json_f64(stress.packed_bumps_per_sec),
            json_f64(stress.padding_speedup),
        );
        let trace = &self.trace_overhead;
        let _ = write!(
            out,
            "  \"trace_overhead\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"steps\": {},\n    \
             \"off_steps_per_sec\": {},\n    \"on_steps_per_sec\": {},\n    \
             \"tracing_cost_ratio\": {},\n    \"events\": {}\n  }}\n}}\n",
            trace.n,
            trace.steps,
            json_f64(trace.off_steps_per_sec),
            json_f64(trace.on_steps_per_sec),
            json_f64(trace.tracing_cost_ratio),
            trace.events,
        );
        out
    }

    /// Writes [`Self::to_json`] to `path` and prints a human summary.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from writing the file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())?;
        println!("perf: wrote {path}");
        let host = &self.host;
        println!(
            "perf: host {} x {} ({} {}, {} build)",
            host.nproc, host.cpu, host.os, host.arch, host.profile,
        );
        let print_samples = |label: &str, samples: &[HotLoopSample]| {
            for sample in samples {
                println!(
                    "perf: {label} ring-{:<4} {:>12.0} steps/sec  allocations/step: {}",
                    sample.n,
                    sample.steps_per_sec,
                    sample
                        .allocations_per_step
                        .map_or("untracked".to_string(), |a| format!("{a:.4}")),
                );
            }
        };
        print_samples("engine_hot_loop", &self.hot_loop);
        print_samples("rebuild-every-step", &self.hot_loop_rebuild);
        let stress = &self.runtime_stress;
        println!(
            "perf: runtime_stress ring-{} GDP2 x {} real threads, {} meals/seat: \
             {:.0} meals/s, jain={:.4}, everyone_ate={}; counter bumps \
             padded {:.1}M/s vs packed {:.1}M/s ({:.2}x)",
            stress.n,
            stress.n,
            stress.meals_per_seat,
            stress.meals_per_sec,
            stress.jain_fairness,
            stress.everyone_ate,
            stress.padded_bumps_per_sec / 1e6,
            stress.packed_bumps_per_sec / 1e6,
            stress.padding_speedup,
        );
        let trace = &self.trace_overhead;
        println!(
            "perf: trace_overhead ring-{} sink off {:.0} steps/s vs counting sink \
             {:.0} steps/s ({:.3}x cost when on, {} events)",
            trace.n,
            trace.off_steps_per_sec,
            trace.on_steps_per_sec,
            trace.tracing_cost_ratio,
            trace.events,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_json_is_well_formed_enough() {
        // Tiny sizes: this is a shape test, not a measurement.
        let report = PerfReport {
            host: Host {
                cpu: "a \"quoted\" cpu".to_string(),
                ..Host::current()
            },
            hot_loop: vec![measure_hot_loop(5, 2_000)],
            hot_loop_rebuild: vec![measure_hot_loop_rebuild_every_step(5, 2_000)],
            runtime_stress: measure_runtime_stress(4, 10),
            trace_overhead: measure_trace_overhead(5, 2_000),
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": 2,\n  \"host\": {\"nproc\": "));
        assert!(json.contains("\"cpu\": \"a \\\"quoted\\\" cpu\""));
        assert!(
            json.contains("\"profile\": \"debug\"") || json.contains("\"profile\": \"release\"")
        );
        for key in [
            "\"engine_hot_loop\"",
            "\"engine_hot_loop_rebuild_every_step\"",
            "\"runtime_stress\"",
            "\"padding_speedup\"",
            "\"trace_overhead\"",
            "\"tracing_cost_ratio\"",
        ] {
            assert!(json.contains(key), "{key} missing");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(Host::current().nproc >= 1);
    }

    #[test]
    fn hot_loop_kernel_makes_progress() {
        let sample = measure_hot_loop(5, 20_000);
        assert_eq!(sample.steps, 20_000);
        assert!(sample.steps_per_sec > 0.0);
        // The unit-test binary installs no counting allocator; the tier-1
        // allocation figures come from `tests/hot_loop_allocations.rs`.
        assert_eq!(sample.allocations_per_step, None);
    }

    /// The acceptance contract of the stress sample: every philosopher fed,
    /// fairness exactly 1 on a completed meal-budget run, and both counter
    /// layouts measured with finite throughput.  (The padded-vs-packed
    /// *ratio* is recorded in BENCH_results.json, not asserted: it depends
    /// on the host's cores; the structural guard is the alignment test in
    /// gdp-runtime.)
    #[test]
    fn runtime_stress_sample_feeds_everyone_and_measures_both_layouts() {
        let sample = measure_runtime_stress(4, 30);
        assert!(sample.everyone_ate);
        assert_eq!(sample.total_meals, 120);
        assert_eq!(sample.jain_fairness, 1.0);
        assert!(sample.meals_per_sec > 0.0);
        assert!(sample.padded_bumps_per_sec.is_finite() && sample.padded_bumps_per_sec > 0.0);
        assert!(sample.packed_bumps_per_sec.is_finite() && sample.packed_bumps_per_sec > 0.0);
        assert!(sample.padding_speedup.is_finite());
    }

    /// The overhead sample sees the exact event stream of its seeded run:
    /// every step emits a schedule event and eaters add protocol events,
    /// so the count is deterministic and larger than the step count.  (The
    /// throughput *ratio* is recorded in BENCH_results.json, not asserted
    /// here — timing inside a parallel test suite is load-sensitive.)
    #[test]
    fn trace_overhead_sample_counts_events_and_measures_both_modes() {
        let sample = measure_trace_overhead(5, 10_000);
        assert_eq!(sample.events, 14_664);
        assert!(sample.off_steps_per_sec > 0.0);
        assert!(sample.on_steps_per_sec > 0.0);
        assert!(sample.tracing_cost_ratio.is_finite());
    }

    // The tests below keep the names of samples this suite no longer
    // records: `perfbench/` measures those paths with host provenance.
    // Each checks its sample's claim directly against the library code
    // that perfbench drives.

    /// A small cut of the grid the sweep samples measured: four families
    /// at two sizes under GDP1.
    fn sweep_grid() -> gdp_scenarios::ScenarioSpec {
        gdp_scenarios::ScenarioSpec::new("perf")
            .with_families_str("ring,torus,complete,random-regular:3")
            .unwrap()
            .with_sizes([8, 16])
            .with_algorithms_str("gdp1")
            .unwrap()
            .with_trials(4)
            .with_max_steps(5_000)
    }

    #[test]
    fn scenario_sweep_sample_is_identical_and_counts_cells() {
        use gdp_scenarios::{run_sweep, SweepOptions};
        let quiet = SweepOptions::quiet();
        let serial = run_sweep(&sweep_grid().with_threads(1), &quiet).unwrap();
        let parallel = run_sweep(&sweep_grid().with_threads(0), &quiet).unwrap();
        assert_eq!(serial, parallel, "sweep must be thread-count independent");
        assert_eq!(parallel.cells.len(), 8);
    }

    #[test]
    fn sweep_resume_sample_hits_the_whole_store_and_is_identical() {
        use gdp_scenarios::{run_sweep_durable, CellStore, SweepOptions};
        let spec = sweep_grid();
        let dir = std::env::temp_dir().join(format!("gdp_bench_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::open(&dir, &spec, None).unwrap();
        let quiet = SweepOptions::quiet();
        let run = || run_sweep_durable(&spec, &quiet, Some(&store), true, None, |_| {}).unwrap();
        let (cold, cold_stats) = run();
        let (warm, warm_stats) = run();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((cold_stats.reused, cold_stats.computed), (0, 8));
        assert_eq!((warm_stats.reused, warm_stats.computed), (8, 0));
        assert_eq!(cold, warm, "warm resume must reproduce the cold report");
    }

    #[test]
    fn check_cache_sample_hits_the_store_and_is_bitwise_identical() {
        use gdp_scenarios::{run_check_cached, CellStore, CheckSpec, TopologyFamily};
        let spec = CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1);
        let dir = std::env::temp_dir().join(format!("gdp_bench_checkcache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::open_bare(&dir).unwrap();
        let (cold, cold_stats) = run_check_cached(&spec, &store, true).unwrap();
        let (warm, warm_stats) = run_check_cached(&spec, &store, true).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((cold_stats.reused, cold_stats.computed), (0, 1));
        assert_eq!((warm_stats.reused, warm_stats.computed), (1, 0));
        assert_eq!(warm.render(), cold.render(), "warm render is bitwise cold");
        assert_eq!(spec.cert_key(), "ring/n3/GDP1@s0");
    }

    /// GDP1 progress certifies on the 4-ring, whose MDP has exactly the
    /// state and transition counts perfbench's check gates expect, and a
    /// replay-per-expansion walk of its seeded space would execute ≥10×
    /// the snapshot walk's engine steps (the exact counts are pinned in
    /// `gdp_mcheck::seeded`'s tests).
    #[test]
    fn mcheck_sample_certifies_and_snapshot_exploration_beats_replay_10x() {
        use gdp_mcheck::{
            build_mdp, explore_realization_with_work, solve, BuildOptions, CheckTarget,
            SolveOptions,
        };
        let ring = classic_ring(4).unwrap();
        let program = AlgorithmKind::Gdp1.program();
        let mdp = build_mdp(
            &ring,
            &program,
            CheckTarget::Progress,
            &BuildOptions::default(),
        );
        assert_eq!((mdp.num_states, mdp.num_transitions()), (62_914, 164_442));
        assert!(solve(&mdp, &SolveOptions::default()).holds_with_probability_one());
        let (_, work) = explore_realization_with_work(&ring, &program, 0, 200_000, 400);
        assert!(work.step_ratio() >= 10.0, "got {:.1}x", work.step_ratio());
    }
}
