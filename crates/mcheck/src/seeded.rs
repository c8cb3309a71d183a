//! Bounded exploration of one *coin-flip realization* of the automaton.
//!
//! The exact checker ([`crate::model`]) branches over every random outcome;
//! this module keeps the randomness **fixed by a seed** and explores all
//! *scheduling* nondeterminism only.  Running several seeds samples the
//! probabilistic branching as well ([`merge_reports`]).
//!
//! The walk is a breadth-first search over engine snapshots: each queued
//! state carries its [`EngineState`](gdp_sim::EngineState), and expanding a
//! state is one `restore` plus one step — `O(n + k)` — instead of replaying
//! the whole decision prefix (`O(depth)` engine steps per expansion; the
//! `gdp-bench` perf suite records the ratio).  Visit order, dedup and
//! therefore reports are identical to a replay-based walk, which this
//! module's tests keep as the reference oracle.

use crate::model::{state_is_safe, KeyMap, KeySet};
use gdp_sim::{Engine, Program, SimConfig};
use gdp_topology::{PhilosopherId, Topology};
use std::collections::VecDeque;

/// Result of an exhaustive per-realization exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplorationReport {
    /// Number of distinct states visited (including the initial state).
    pub states_visited: usize,
    /// Whether the exploration was truncated by the state budget.
    pub truncated: bool,
    /// Number of visited states from which no meal is reachable within the
    /// explored fragment (0 means the explored fragment is deadlock-free).
    pub dead_states: usize,
    /// Whether every visited state satisfied the safety invariants.
    pub safety_holds: bool,
    /// Number of visited states in which some philosopher is eating.
    pub eating_states: usize,
}

impl ExplorationReport {
    /// Returns `true` if no reachable state (within the explored fragment)
    /// is a dead end.
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.dead_states == 0
    }
}

/// Exact engine-step accounting of one exploration, for both expansion
/// schemes.
///
/// The replay figure is not a measurement but a *derivation*: the
/// replay-based reference walk deterministically executes, for a parent at BFS
/// depth `d`, one `d`-step replay (to recompute the parent fingerprint)
/// plus one `(d + 1)`-step replay per scheduling choice — so its total
/// step count follows exactly from the depth of every expanded state,
/// which the snapshot walk knows for free.  The ratio is the
/// machine-independent core of the snapshot/restore payoff: wall-clock
/// gains are smaller (both explorers share the per-state fingerprinting
/// and safety analysis) and grow with the depth of the explored fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplorationWork {
    /// Engine steps the snapshot walk executes (one per expansion).
    pub snapshot_engine_steps: u64,
    /// Engine steps the replay-based reference executes on the same walk.
    pub replay_engine_steps: u64,
}

impl ExplorationWork {
    /// `replay / snapshot` engine-step ratio (≈ mean BFS depth + 1).
    #[must_use]
    pub fn step_ratio(&self) -> f64 {
        self.replay_engine_steps as f64 / self.snapshot_engine_steps.max(1) as f64
    }
}

/// Exhaustively explores the states `program` reaches on `topology` under
/// every scheduling, for the single realization of the random draws fixed
/// by `seed`, up to `max_states` distinct states and `max_depth` steps from
/// the initial state.
#[must_use]
pub fn explore_realization<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    max_states: usize,
    max_depth: usize,
) -> ExplorationReport {
    explore_realization_with_work(topology, program, seed, max_states, max_depth).0
}

/// [`explore_realization`] plus the exact [`ExplorationWork`] accounting.
#[must_use]
pub fn explore_realization_with_work<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    max_states: usize,
    max_depth: usize,
) -> (ExplorationReport, ExplorationWork) {
    let n = topology.num_philosophers() as u32;
    let mut engine = Engine::new(
        topology.clone(),
        program.clone(),
        SimConfig::default().with_seed(seed),
    );
    // Distinct state fingerprints visited.
    let mut seen: KeySet = KeySet::default();
    // Fingerprints of states from which a meal has been observed downstream.
    let mut can_eat: KeySet = KeySet::default();
    let mut parents: KeyMap<Vec<u64>> = KeyMap::default();
    let mut queue: VecDeque<(usize, u64, gdp_sim::EngineState<P>)> = VecDeque::new();
    let mut truncated = false;
    let mut safety_holds = true;
    let mut eating_states = 0usize;
    let mut work = ExplorationWork {
        snapshot_engine_steps: 0,
        replay_engine_steps: 0,
    };

    let initial_fp = engine.state_fingerprint();
    seen.insert(initial_fp);
    queue.push_back((0, initial_fp, engine.snapshot()));

    while let Some((depth, here_fp, snapshot)) = queue.pop_front() {
        if depth >= max_depth {
            truncated = true;
            continue;
        }
        // The replay reference re-simulates the parent prefix once for the
        // parent fingerprint and once per child (see `ExplorationWork`).
        work.replay_engine_steps += depth as u64 + u64::from(n) * (depth as u64 + 1);
        for p in 0..n {
            work.snapshot_engine_steps += 1;
            engine.restore(&snapshot);
            engine.step_philosopher(PhilosopherId::new(p));
            let fp = engine.state_fingerprint();
            if !state_is_safe(&engine) {
                safety_holds = false;
            }
            let eating = engine.with_view(|view| view.someone_eating());
            parents.entry(fp).or_default().push(here_fp);
            if eating {
                can_eat.insert(fp);
            }
            if seen.contains(&fp) {
                continue;
            }
            if seen.len() >= max_states {
                truncated = true;
                continue;
            }
            if eating {
                eating_states += 1;
            }
            seen.insert(fp);
            queue.push_back((depth + 1, fp, engine.snapshot()));
        }
    }

    // Backward propagation of "a meal is reachable from here".
    let mut frontier: Vec<u64> = can_eat.iter().copied().collect();
    while let Some(fp) = frontier.pop() {
        if let Some(ps) = parents.get(&fp) {
            for &parent in ps {
                if can_eat.insert(parent) {
                    frontier.push(parent);
                }
            }
        }
    }
    let dead_states = seen.iter().filter(|fp| !can_eat.contains(fp)).count();

    (
        ExplorationReport {
            states_visited: seen.len(),
            truncated,
            dead_states,
            safety_holds,
            eating_states,
        },
        work,
    )
}

/// Merges per-seed reports: state and dead-state counts add up, safety must
/// hold for every seed, truncation for *any* seed counts.
#[must_use]
pub fn merge_reports(reports: impl IntoIterator<Item = ExplorationReport>) -> ExplorationReport {
    let mut merged = ExplorationReport {
        states_visited: 0,
        truncated: false,
        dead_states: 0,
        safety_holds: true,
        eating_states: 0,
    };
    for report in reports {
        merged.states_visited += report.states_visited;
        merged.truncated |= report.truncated;
        merged.dead_states += report.dead_states;
        merged.safety_holds &= report.safety_holds;
        merged.eating_states += report.eating_states;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{AlgorithmKind, Gdp1, Lr1};
    use gdp_topology::builders::{classic_ring, figure1_triangle};
    use gdp_topology::Topology;
    use std::collections::{HashMap, HashSet};

    /// Replays `decisions` (a sequence of philosopher indices) from the
    /// initial state on a fresh engine with the given seed, adding the
    /// executed engine steps to `steps`.
    fn replay<P: Program + Clone>(
        topology: &Topology,
        program: &P,
        seed: u64,
        decisions: &[u32],
        steps: &mut u64,
    ) -> Engine<P> {
        let mut engine = Engine::new(
            topology.clone(),
            program.clone(),
            SimConfig::default().with_seed(seed),
        );
        for &p in decisions {
            engine.step_philosopher(PhilosopherId::new(p));
        }
        *steps += decisions.len() as u64;
        engine
    }

    /// The SipHash-based state digest of the replay-era explorer (`std`'s
    /// `DefaultHasher`), so the oracle shares no hashing code with the
    /// walk it checks.
    fn legacy_fingerprint<P: Program>(engine: &Engine<P>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        engine.with_view(|view| (view.forks()).hash(&mut hasher));
        engine.state_fingerprint().hash(&mut hasher);
        hasher.finish()
    }

    /// The reference implementation of [`explore_realization`]: every
    /// expansion replays the full decision prefix on a fresh engine, with
    /// std-hashed digests and maps.  Same traversal order, same dedup
    /// semantics, same report; also returns the engine steps it executed.
    fn replay_reference<P: Program + Clone>(
        topology: &Topology,
        program: &P,
        seed: u64,
        max_states: usize,
        max_depth: usize,
    ) -> (ExplorationReport, u64) {
        let n = topology.num_philosophers() as u32;
        let mut steps = 0u64;
        // state fingerprint -> shortest decision sequence reaching it
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
        // fingerprints of states from which a meal has been observed downstream
        let mut can_eat: HashSet<u64> = HashSet::new();
        let mut parents: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
        let mut truncated = false;
        let mut safety_holds = true;
        let mut eating_states = 0usize;

        let initial = replay(topology, program, seed, &[], &mut steps);
        seen.insert(legacy_fingerprint(&initial), Vec::new());
        queue.push_back(Vec::new());

        while let Some(decisions) = queue.pop_front() {
            if decisions.len() >= max_depth {
                truncated = true;
                continue;
            }
            let here_fp =
                legacy_fingerprint(&replay(topology, program, seed, &decisions, &mut steps));
            for p in 0..n {
                let mut next = decisions.clone();
                next.push(p);
                let engine = replay(topology, program, seed, &next, &mut steps);
                let fp = legacy_fingerprint(&engine);
                if !state_is_safe(&engine) {
                    safety_holds = false;
                }
                let eating = engine.with_view(|view| view.someone_eating());
                parents.entry(fp).or_default().push(here_fp);
                if eating {
                    can_eat.insert(fp);
                }
                if seen.contains_key(&fp) {
                    continue;
                }
                if seen.len() >= max_states {
                    truncated = true;
                    continue;
                }
                if eating {
                    eating_states += 1;
                }
                seen.insert(fp, next.clone());
                queue.push_back(next);
            }
        }

        // Backward propagation of "a meal is reachable from here".
        let mut frontier: Vec<u64> = can_eat.iter().copied().collect();
        while let Some(fp) = frontier.pop() {
            if let Some(ps) = parents.get(&fp) {
                for &parent in ps {
                    if can_eat.insert(parent) {
                        frontier.push(parent);
                    }
                }
            }
        }
        let dead_states = seen.keys().filter(|fp| !can_eat.contains(fp)).count();

        let report = ExplorationReport {
            states_visited: seen.len(),
            truncated,
            dead_states,
            safety_holds,
            eating_states,
        };
        (report, steps)
    }

    #[test]
    fn lr1_two_ring_realizations_are_deadlock_free_and_safe() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let report = merge_reports(
            [0u64, 1, 2]
                .iter()
                .map(|&seed| explore_realization(&two_ring, &Lr1::new(), seed, 20_000, 400)),
        );
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
        assert!(report.eating_states > 0);
        assert!(report.states_visited > 10);
    }

    #[test]
    fn truncation_is_reported() {
        let ring = classic_ring(4).unwrap();
        let report = explore_realization(&ring, &Gdp1::new(), 0, 50, 6);
        assert!(report.truncated);
        assert!(report.states_visited <= 50);
    }

    /// The snapshot walk must reproduce the replay reference exactly — state
    /// counts, dead states, truncation, safety and eating-state counts —
    /// across seeds, budgets, programs and topologies, and its analytic
    /// [`ExplorationWork::replay_engine_steps`] must equal the engine steps
    /// the reference actually executes.  The ring-4 GDP1 case is the perf
    /// suite's `mcheck_state_space` exploration at its budget.
    #[test]
    fn snapshot_explorer_matches_replay_reference_reports() {
        let ring3 = classic_ring(3).unwrap();
        let ring4 = classic_ring(4).unwrap();
        let triangle = figure1_triangle();
        let lr1 = AlgorithmKind::Lr1.program();
        let naive = AlgorithmKind::Naive.program();
        let gdp1 = AlgorithmKind::Gdp1.program();
        let mut cases = vec![(&ring4, &gdp1, 0u64, 200_000, 400)];
        for seed in [0u64, 1, 7] {
            for (max_states, max_depth) in [(600, 12), (20_000, 60)] {
                cases.push((&ring3, &lr1, seed, max_states, max_depth));
                cases.push((&triangle, &lr1, seed, max_states, max_depth));
                cases.push((&ring3, &naive, seed, max_states, max_depth));
            }
        }
        for (topology, program, seed, max_states, max_depth) in cases {
            let (report, work) =
                explore_realization_with_work(topology, program, seed, max_states, max_depth);
            let (reference, replay_steps) =
                replay_reference(topology, program, seed, max_states, max_depth);
            let label = format!(
                "{} seed {seed} budget {max_states}/{max_depth} on {topology}",
                program.name()
            );
            assert_eq!(report, reference, "{label}");
            assert_eq!(work.replay_engine_steps, replay_steps, "{label}");
        }
    }
}
