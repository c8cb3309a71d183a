//! Traced layer harness for the perfbench benchmark.
//!
//! Each mode repeats one user path of the `gdp` CLI by calling the public
//! functions of the workspace crates directly, recording a span around
//! every call into a layer, and writes the same output bytes the CLI would
//! write so the benchmark can compare the two.  Spans are kept in memory
//! and printed as one JSON document on stdout when the mode ends:
//!
//! ```text
//! {"spans": [["name", parent, start_ns, end_ns], ...], "counters": {...}}
//! ```
//!
//! `parent` is the index of the enclosing span, or -1 for a root.  Spans
//! whose name starts with `baseline.` are extra work run after the traced
//! path (single-thread or all-core reference timings); they are roots of
//! their own and never lie on the path.
//!
//! Modes:
//!
//! * `check --size N --adversary fair|crash:F --threads T --out FILE`
//! * `sweep --families F --sizes S --algorithms A --trials N --steps N
//!   --seed N --threads T --store DIR --json FILE --csv FILE`
//! * `serve-layers --store DIR --hits FILE --misses FILE --out FILE`
//! * `stress --size N --threads T --meals M --seed N --json FILE --csv FILE`

use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::estimate_liveness;
use gdp_analysis::TrialConfig;
use gdp_mcheck::{
    build_mdp, build_restricted_mdp, solve, BuildOptions, Certificate, CheckTarget, SolveOptions,
};
use gdp_scenarios::{
    cell_json, run_stress, CellResult, CellStore, CheckAdversarySpec, ScenarioCell, ScenarioSpec,
    SeedPolicy, StoreLookup, StressLoad, StressSpec, SweepReport, TopologyFamily,
};
use gdp_sim::SimConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<(String, i64, u128, u128)>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = self.open.last().map_or(-1, |&i| i as i64);
        let index = self.spans.len();
        let start = self.origin.elapsed().as_nanos();
        self.spans.push((name.to_string(), parent, start, start));
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].3 = self.origin.elapsed().as_nanos();
        out
    }

    fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, (name, parent, start, end)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{name}\", {parent}, {start}, {end}]");
        }
        out.push_str("], \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push_str("}}");
        out
    }
}

/// `--flag value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for pair in argv.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    map.insert(flag[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(key)?
            .parse()
            .map_err(|e| format!("invalid --{key}: {e}"))
    }
}

fn list<T: std::str::FromStr>(text: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    text.split(',')
        .map(|item| item.parse().map_err(|e| format!("invalid {item:?}: {e}")))
        .collect()
}

/// Resident set size of this process in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

fn write_file(path: &str, bytes: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
}

/// `gdp check` decomposed: topology → MDP build → solve → certificate →
/// rendered report, then the same build at one thread as the speed-up
/// baseline.
fn mode_check(t: &mut Tracer, args: &Args) -> Result<(), String> {
    let family = TopologyFamily::Ring;
    let size: usize = args.num("size")?;
    let threads: usize = args.num("threads")?;
    let adversary: CheckAdversarySpec = args
        .get("adversary")?
        .parse()
        .map_err(|e| format!("invalid --adversary: {e}"))?;
    let algorithm = AlgorithmKind::Gdp1;
    let restriction = adversary.restriction();
    let target = CheckTarget::Progress;
    let options = |threads| {
        BuildOptions::default()
            .with_max_states(6_000_000)
            .with_symmetry(algorithm.is_relabelling_invariant())
            .with_threads(threads)
    };
    let program = algorithm.program();
    let build = |topology: &_, threads| match restriction {
        None => build_mdp(topology, &program, target, &options(threads)),
        Some(r) => build_restricted_mdp(topology, &program, target, r, &options(threads)),
    };

    let topology = t.span("check", |t| -> Result<_, String> {
        let topology = t
            .span("topology.build", |_| family.build(size, 0))
            .map_err(|e| e.to_string())?;
        let rss_before = rss_bytes();
        let mdp = t.span("mcheck.build", |_| build(&topology, threads));
        let rss_growth = rss_bytes().saturating_sub(rss_before);
        let solution = t.span("mcheck.solve", |_| solve(&mdp, &SolveOptions::default()));
        let certificate = t.span("mcheck.cert", |_| {
            let mut certificate = Certificate::new(
                &topology,
                algorithm.name(),
                target,
                &options(threads).sim,
                &mdp,
                &solution,
                None,
            );
            if let Some(r) = restriction {
                certificate = certificate.with_adversary_class(r.describe());
            }
            black_box(certificate.encode());
            certificate
        });
        t.count("mcheck.states", mdp.num_states as f64);
        t.count("mcheck.transitions", mdp.num_transitions() as f64);
        t.count("mcheck.rss_growth_bytes", rss_growth as f64);
        t.span("report.render", |_| {
            let text = format!(
                "cell:              {}/n{size}/{}\n{}overall verdict:   {}\n",
                family.name(),
                algorithm.name(),
                certificate.render(),
                certificate.verdict().name(),
            );
            write_file(args.get("out")?, &text)
        })?;
        Ok(topology)
    })?;
    let mdp = t.span("baseline.mcheck.build_1t", |_| build(&topology, 1));
    black_box(mdp.num_states);
    Ok(())
}

/// The body of `compute_cell`, one public call per layer.
fn traced_cell(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    cell: &ScenarioCell,
) -> Result<CellResult, String> {
    t.span("scenarios.cell", |t| {
        let topology = t
            .span("topology.build", |_| {
                cell.family.build(cell.size, cell.seed)
            })
            .map_err(|e| format!("cell {}: {e}", cell.key))?;
        let program = cell.algorithm.program();
        let config = trial_config(spec, cell, spec.threads);
        let estimate = t.span("analysis.liveness", |_| {
            estimate_liveness(
                &topology,
                &program,
                |trial| spec.adversary.build(cell.seed, trial),
                &config,
            )
        });
        t.count("sim.steps", (spec.trials * spec.max_steps) as f64);
        let (progress, lockout) = (&estimate.progress, &estimate.lockout);
        Ok(CellResult {
            cell: cell.key.clone(),
            family: cell.family.name(),
            size: cell.size,
            philosophers: topology.num_philosophers(),
            forks: topology.num_forks(),
            algorithm: cell.algorithm.name().to_string(),
            adversary: spec.adversary.name(),
            trials: spec.trials,
            max_steps: spec.max_steps,
            seed: cell.seed,
            deadlock_rate: 1.0 - progress.progress_fraction,
            lockout_rate: 1.0 - lockout.lockout_free_fraction,
            mean_hunger: progress.first_meal_mean,
            first_meal_p50: progress.first_meal_p50,
            first_meal_p90: progress.first_meal_p90,
            first_meal_p99: progress.first_meal_p99,
            min_meals_mean: lockout.min_meals_mean,
            fairness_mean: lockout.fairness_mean,
            steps_per_sec: None,
            stuck_trials: estimate.violations.stuck_trials,
            unsafe_trials: estimate.violations.unsafe_trials,
            exact: None,
        })
    })
}

fn trial_config(spec: &ScenarioSpec, cell: &ScenarioCell, threads: usize) -> TrialConfig {
    TrialConfig {
        trials: spec.trials,
        max_steps: spec.max_steps,
        base_seed: cell.seed,
        threads,
        sim: SimConfig::default(),
    }
}

/// Re-runs every cell's trial batch at `threads` (`0` = all cores) as a
/// reference timing off the traced path.
fn baseline_liveness(
    t: &mut Tracer,
    name: &str,
    threads: usize,
    spec: &ScenarioSpec,
    cells: &[ScenarioCell],
) {
    for cell in cells {
        let Ok(topology) = cell.family.build(cell.size, cell.seed) else {
            continue;
        };
        let program = cell.algorithm.program();
        let config = trial_config(spec, cell, threads);
        t.span(name, |_| {
            black_box(estimate_liveness(
                &topology,
                &program,
                |trial| spec.adversary.build(cell.seed, trial),
                &config,
            ))
        });
    }
}

fn record_store_size(t: &mut Tracer, dir: &Path) {
    let mut records = 0.0;
    let mut bytes = 0.0;
    if let Ok(entries) = std::fs::read_dir(dir.join("cells")) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".cell") {
                records += 1.0;
                bytes += entry.metadata().map_or(0, |m| m.len()) as f64;
            }
        }
    }
    t.count("store.records", records);
    t.count("store.record_bytes", bytes);
}

fn lookup(t: &mut Tracer, store: &CellStore, key: &str) -> Option<CellResult> {
    let found = t.span("store.lookup", |_| store.lookup(key));
    t.count("store.lookups", 1.0);
    match found {
        StoreLookup::Hit(result) => {
            t.count("store.hits", 1.0);
            Some(*result)
        }
        _ => None,
    }
}

/// A store-backed cold `gdp sweep` decomposed: store open, then per cell
/// the compute layers and the save, then the artifacts; afterwards the
/// warm-resume lookups and a single-thread trial baseline.
fn mode_sweep(t: &mut Tracer, args: &Args) -> Result<(), String> {
    let spec = ScenarioSpec::new("sweep")
        .with_families_str(args.get("families")?)
        .map_err(|e| e.to_string())?
        .with_sizes(list::<usize>(args.get("sizes")?)?)
        .with_algorithms(list::<AlgorithmKind>(args.get("algorithms")?)?)
        .with_trials(args.num("trials")?)
        .with_max_steps(args.num("steps")?)
        .with_seed_policy(SeedPolicy::PerCell(args.num("seed")?))
        .with_threads(args.num("threads")?);
    let dir = Path::new(args.get("store")?);
    let cells = spec.expand();
    let results = t.span("sweep", |t| -> Result<_, String> {
        let store = t
            .span("store.open", |_| CellStore::open(dir, &spec, None))
            .map_err(|e| e.to_string())?;
        let mut results = Vec::with_capacity(cells.len());
        for cell in &cells {
            let result = traced_cell(t, &spec, cell)?;
            t.span("report.cell_json", |_| black_box(cell_json(&result)));
            t.span("store.save", |_| store.save(&result))
                .map_err(|e| e.to_string())?;
            results.push(result);
        }
        t.span("report.write", |_| {
            let report = SweepReport::new(&spec, results.clone());
            let (json, csv) = (args.get("json")?, args.get("csv")?);
            report
                .write_json(json)
                .and_then(|()| report.write_csv(csv))
                .map_err(|e| e.to_string())
        })?;
        Ok(results)
    })?;
    let store = CellStore::open(dir, &spec, None).map_err(|e| e.to_string())?;
    for result in &results {
        if lookup(t, &store, &result.cell).as_ref() != Some(result) {
            return Err(format!("warm lookup of {} disagrees", result.cell));
        }
    }
    record_store_size(t, dir);
    baseline_liveness(t, "baseline.liveness_1t", 1, &spec, &cells);
    Ok(())
}

/// The layers under a `gdp serve` request, on the server's own store:
/// store opens, hit lookups, and each miss cell computed at one thread,
/// rendered and saved (a save converges only on byte-identical records).
/// Hit and miss lines both read `families sizes algorithms trials steps
/// seed`, as in a sweep request.
fn mode_serve_layers(t: &mut Tracer, args: &Args) -> Result<(), String> {
    let dir = Path::new(args.get("store")?);
    let hits = std::fs::read_to_string(args.get("hits")?).map_err(|e| e.to_string())?;
    for line in hits.lines() {
        let spec = request_spec(line)?;
        let store = t
            .span("store.open", |_| CellStore::open(dir, &spec, None))
            .map_err(|e| e.to_string())?;
        for cell in spec.expand() {
            if lookup(t, &store, &cell.key).is_none() {
                return Err(format!("pre-warmed cell {} is not a store hit", cell.key));
            }
        }
    }
    let misses = std::fs::read_to_string(args.get("misses")?).map_err(|e| e.to_string())?;
    let mut lines = String::new();
    for line in misses.lines() {
        let spec = request_spec(line)?;
        let cells = spec.expand();
        let store = t
            .span("store.open", |_| CellStore::open(dir, &spec, None))
            .map_err(|e| e.to_string())?;
        let result = traced_cell(t, &spec, &cells[0])?;
        let json = t.span("report.cell_json", |_| cell_json(&result));
        t.span("store.save", |_| store.save(&result))
            .map_err(|e| format!("saving {}: {e}", result.cell))?;
        lines.push_str(&json);
        lines.push('\n');
        baseline_liveness(t, "baseline.liveness_nproc", 0, &spec, &cells);
    }
    record_store_size(t, dir);
    write_file(args.get("out")?, &lines)
}

/// The sweep spec of one serve request line (served cells run at one
/// thread).
fn request_spec(line: &str) -> Result<ScenarioSpec, String> {
    let [families, sizes, algorithms, trials, steps, seed] =
        line.split_whitespace().collect::<Vec<_>>()[..]
    else {
        return Err(format!("bad request line {line:?}"));
    };
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
    Ok(ScenarioSpec::new("serve")
        .with_families_str(families)
        .map_err(|e| e.to_string())?
        .with_sizes(list::<usize>(sizes)?)
        .with_algorithms(list::<AlgorithmKind>(algorithms)?)
        .with_trials(num(trials)?)
        .with_max_steps(num(steps)?)
        .with_seed_policy(SeedPolicy::PerCell(num(seed)?))
        .with_threads(1))
}

/// `gdp stress` decomposed: topology, the real-thread run, the artifacts.
/// The JSON artifact is written without its wall-clock fields so it can
/// be compared with the CLI's.
fn mode_stress(t: &mut Tracer, args: &Args) -> Result<(), String> {
    let spec = StressSpec {
        threads: args.num("threads")?,
        load: StressLoad::MealsPerSeat(args.num("meals")?),
        seed: args.num("seed")?,
        ..StressSpec::new(TopologyFamily::Ring, args.num("size")?, AlgorithmKind::Gdp2)
    };
    t.span("stress", |t| -> Result<(), String> {
        t.span("topology.build", |_| {
            spec.family.build(spec.size, spec.seed)
        })
        .map_err(|e| e.to_string())?;
        let mut report = t.span("runtime.run", |_| run_stress(&spec, true))?;
        let timing = report.timing.take().ok_or("the run recorded no timing")?;
        t.count("runtime.meals", report.total_meals as f64);
        t.count(
            "runtime.everyone_ate",
            f64::from(u8::from(report.everyone_ate)),
        );
        t.count("runtime.elapsed_s", timing.elapsed_secs);
        t.count(
            "runtime.wait_s",
            timing.mean_wait_micros * report.total_meals as f64 / 1e6,
        );
        t.count("runtime.seats", report.threads as f64);
        for (bucket, &count) in timing.wait_histogram.iter().enumerate() {
            if count > 0 {
                t.count(&format!("runtime.wait_bucket.{bucket}"), count as f64);
            }
        }
        t.span("report.write", |_| {
            write_file(args.get("json")?, &report.to_json())?;
            write_file(args.get("csv")?, &report.to_csv())
        })
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness <check|sweep|serve-layers|stress> [--flag value]...");
        return ExitCode::from(2);
    };
    let mut tracer = Tracer::new();
    let result = Args::parse(rest).and_then(|args| match mode.as_str() {
        "check" => mode_check(&mut tracer, &args),
        "sweep" => mode_sweep(&mut tracer, &args),
        "serve-layers" => mode_serve_layers(&mut tracer, &args),
        "stress" => mode_stress(&mut tracer, &args),
        other => Err(format!("unknown mode {other:?}")),
    });
    match result {
        Ok(()) => {
            println!("{}", tracer.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}
