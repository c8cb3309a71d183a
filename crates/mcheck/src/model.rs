//! Exact MDP construction for a (topology, algorithm) pair.
//!
//! The paper phrases its theorems over the **probabilistic automaton** of
//! the system: from every state the *adversary* nondeterministically picks
//! which philosopher executes the next atomic step, and the step itself
//! branches *probabilistically* over the philosopher's random draws.  For a
//! finite system that automaton is a finite Markov decision process, and
//! this module builds it explicitly:
//!
//! * **states** are [`EngineState`]s (fork cells + private program states),
//!   deduplicated by [`fingerprint64`](gdp_sim::fingerprint64) — and, when
//!   symmetry reduction is on, by the *minimum* fingerprint over a set of
//!   orientation-preserving topology automorphisms (states related by a
//!   relabelling are bisimilar, so one canonical representative suffices);
//! * **choices** are the `n` schedulable philosophers;
//! * **branches** of a choice are the outcomes of the scheduled step's
//!   random draws, enumerated exhaustively through the engine's scripted
//!   [`DrawTape`](gdp_sim::DrawTape) protocol with their exact
//!   probabilities.
//!
//! States satisfying the [`CheckTarget`] are absorbing (they are the "good"
//! states of the reachability objective and are never expanded), which also
//! keeps otherwise-unbounded bookkeeping — e.g. LR2/GDP2 guest-book stamps —
//! out of a progress check: no meal ever completes inside the explored
//! fragment.
//!
//! Frontier expansion fans out over `std::thread::scope` workers, each with
//! its own engine; results are merged on one thread **in frontier order**,
//! so state numbering, transition order and every probability are
//! bitwise-identical for every thread count — the same determinism contract
//! the Monte-Carlo trial runner enforces (test-enforced here too).

use gdp_sim::{Engine, EngineState, Phase, Program, RelabelScratch, SimConfig};
use gdp_topology::{symmetry, Automorphism, PhilosopherId, Topology};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for maps keyed by state fingerprints: the keys are
/// already 64-bit digests, re-hashing them through SipHash would double
/// the hot-path hashing cost for nothing.
#[derive(Clone, Default)]
pub struct KeyIdentityHasher(u64);

impl Hasher for KeyIdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint maps only hash u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

/// A hash map keyed by state fingerprints.
pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyIdentityHasher>>;

/// A hash set of state fingerprints.
pub type KeySet = std::collections::HashSet<u64, BuildHasherDefault<KeyIdentityHasher>>;

/// The reachability objective of a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckTarget {
    /// **Progress** (Theorem 3): some philosopher starts eating.
    Progress,
    /// **Individual liveness** (the lockout-freedom obligation of
    /// Theorem 4, one philosopher at a time): the given philosopher starts
    /// eating.
    PhilosopherEats(PhilosopherId),
}

impl CheckTarget {
    /// Stable human-readable description used in certificates.
    #[must_use]
    pub fn describe(self) -> String {
        match self {
            CheckTarget::Progress => "progress (some philosopher eats)".to_string(),
            CheckTarget::PhilosopherEats(p) => format!("philosopher {p} eats"),
        }
    }
}

/// Options controlling MDP construction.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Maximum number of (canonical) states to discover before the build is
    /// truncated.  A truncated model can still *refute* (a counterexample
    /// inside the fragment is real) but can never certify.
    pub max_states: usize,
    /// Quotient symmetric states through orientation-preserving topology
    /// automorphisms.
    ///
    /// Sound only when the program is relabelling-invariant: the same code
    /// for every philosopher, private state free of absolute fork or
    /// philosopher identifiers.  All four paper algorithms (and the naive
    /// left-right baseline) qualify; the asymmetric ordered-forks baseline
    /// does **not** (it branches on global fork identifiers) — disable
    /// symmetry for such programs.
    pub symmetry: bool,
    /// Cap on the number of automorphisms used by the quotient.
    pub automorphism_limit: usize,
    /// Worker threads for frontier expansion (`0` = all cores, `1` =
    /// serial).  The model is bitwise-identical for every value.
    pub threads: usize,
    /// Simulation configuration: the hunger model, left bias and `nr` range
    /// determine the automaton (the seed is irrelevant — every draw is
    /// enumerated, not sampled).
    pub sim: SimConfig,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            max_states: 2_000_000,
            symmetry: true,
            automorphism_limit: 64,
            threads: 0,
            sim: SimConfig::default(),
        }
    }
}

impl BuildOptions {
    /// Default options with the given state budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Enables or disables the symmetry quotient.
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the worker thread count (`0` = all cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the simulation configuration.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    fn effective_threads(&self, work_items: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        requested.max(1).min(work_items.max(1))
    }
}

/// Marks a transition that leaves the explored fragment (only present when
/// the build was truncated by the state budget).
pub const UNEXPLORED: u32 = u32::MAX;

/// The explicit MDP of one (topology, algorithm, target) triple.
///
/// Transitions are stored in compressed sparse rows: state-major,
/// choice-minor, outcomes in draw-lexicographic order — the deterministic
/// layout every solver pass iterates over.
#[derive(Clone, Debug)]
pub struct Mdp {
    /// Number of discovered (canonical) states.
    pub num_states: usize,
    /// Choices per state (= number of philosophers).
    pub num_choices: usize,
    /// Index of the initial state (always 0).
    pub initial: u32,
    /// Per-state: does the state satisfy the target?
    pub target: Vec<bool>,
    /// Per-state: were its outgoing transitions computed?  Target states
    /// are absorbing and never expanded; non-target states are unexpanded
    /// only when the build was truncated.
    pub expanded: Vec<bool>,
    /// Whether the state budget truncated the build.
    pub truncated: bool,
    /// Number of discovered states violating the safety invariants (mutual
    /// exclusion, eating-implies-both-forks).
    pub safety_violations: usize,
    /// The target objective the model was built for.
    pub target_kind: CheckTarget,
    /// The automorphisms the symmetry quotient used (always at least the
    /// identity).
    pub automorphisms: Vec<Automorphism>,
    /// Canonical fingerprint → state index (the dedup map, retained so
    /// extracted strategies can be replayed against a live engine).
    pub index_of_key: KeyMap<u32>,
    /// Per-state bitmask of the choices a fair adversary must keep taking
    /// infinitely often while confined to an end component containing the
    /// state.  `None` means "every choice" — the paper's unrestricted fair
    /// adversary, where every choice schedules one philosopher.  Restricted
    /// models ([`crate::restricted`]) narrow it: under k-bounded fairness
    /// the product structure already enforces fairness (`mask = 0`), and
    /// under crash-stop faults only the *surviving* philosophers'
    /// schedule-choices are required.
    pub fairness_requirement: Option<Vec<u64>>,
    row_offsets: Vec<u32>,
    succs: Vec<u32>,
    probs: Vec<f64>,
}

impl Mdp {
    /// The `(successor, probability)` outcomes of scheduling philosopher
    /// `choice` in `state`, in deterministic draw order.  Empty for target,
    /// unexpanded and (vacuously) absorbing rows.
    pub fn outcomes(&self, state: u32, choice: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let row = state as usize * self.num_choices + choice;
        let (start, end) = (
            self.row_offsets[row] as usize,
            self.row_offsets[row + 1] as usize,
        );
        self.succs[start..end]
            .iter()
            .copied()
            .zip(self.probs[start..end].iter().copied())
    }

    /// The raw compressed sparse rows: `row_offsets` (one entry per
    /// (state, choice) row plus a terminator), then the parallel `succs`
    /// and `probs` arrays the offsets index.  Row `s * num_choices + c`
    /// holds exactly [`outcomes(s, c)`](Self::outcomes); hot solver loops
    /// slice a whole state's row group at once instead.
    pub(crate) fn csr(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.row_offsets, &self.succs, &self.probs)
    }

    /// Total number of stored transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.succs.len()
    }

    /// Number of expanded, non-target states from which *every* available
    /// choice and *every* random outcome loops back to the state itself —
    /// true deadlocks (e.g. the classic all-hold-left state of the naive
    /// algorithm).  Choices a restricted model disallows (empty rows) are
    /// vacuous; at least one available choice is required.
    #[must_use]
    pub fn deadlock_states(&self) -> usize {
        (0..self.num_states as u32)
            .filter(|&s| {
                if !self.expanded[s as usize] || self.target[s as usize] {
                    return false;
                }
                let mut any_choice = false;
                let all_self = (0..self.num_choices).all(|c| {
                    let mut any = false;
                    let self_looping = self.outcomes(s, c).all(|(succ, _)| {
                        any = true;
                        succ == s
                    });
                    if any {
                        any_choice = true;
                        self_looping
                    } else {
                        true
                    }
                });
                any_choice && all_self
            })
            .count()
    }

    /// The canonical dedup key of an engine state under this model's
    /// automorphism set (the minimum relabelled fingerprint).
    #[must_use]
    pub fn canonical_key<P: Program>(
        &self,
        state: &EngineState<P>,
        scratch: &mut RelabelScratch<P>,
    ) -> u64 {
        canonical_key(state, &self.automorphisms, scratch)
    }
}

fn canonical_key<P: Program>(
    state: &EngineState<P>,
    automorphisms: &[Automorphism],
    scratch: &mut RelabelScratch<P>,
) -> u64 {
    canonical_key_with_witness(state, automorphisms, scratch).0
}

/// The canonical key plus the index of an automorphism achieving it, so a
/// strategy stored on the canonical representative can be translated back
/// to the live labelling (see `crate::strategy`).
pub(crate) fn canonical_key_with_witness<P: Program>(
    state: &EngineState<P>,
    automorphisms: &[Automorphism],
    scratch: &mut RelabelScratch<P>,
) -> (u64, usize) {
    let mut best = state.fingerprint();
    let mut witness = 0usize;
    for (i, auto) in automorphisms.iter().enumerate() {
        if auto.is_identity() {
            continue;
        }
        let fp = state.relabelled_fingerprint(&auto.phil_map, &auto.fork_map, scratch);
        if fp < best {
            best = fp;
            witness = i;
        }
    }
    (best, witness)
}

pub(crate) fn is_target<P: Program>(engine: &Engine<P>, target: CheckTarget) -> bool {
    engine.with_view(|view| match target {
        CheckTarget::Progress => view.someone_eating(),
        CheckTarget::PhilosopherEats(p) => view.philosopher(p).phase == Phase::Eating,
    })
}

/// Returns `true` if the engine's current state satisfies the safety
/// invariants: every held fork is held by an adjacent philosopher, and
/// eating implies holding both forks.
///
/// The single source of truth for the predicate the checker counts as
/// `safety_violations`, the bounded explorer reports as `safety_holds`,
/// and the Monte-Carlo estimators surface as `unsafe_trials`
/// (`gdp_analysis::state_is_safe` re-exports it).
#[must_use]
pub fn state_is_safe<P: Program>(engine: &Engine<P>) -> bool {
    engine.with_view(|view| {
        for fork in view.topology().fork_ids() {
            if let Some(holder) = view.holder_of(fork) {
                if !view.topology().forks_of(holder).contains(fork) {
                    return false;
                }
            }
        }
        for p in view.philosophers() {
            if p.phase == Phase::Eating && p.holding.len() != 2 {
                return false;
            }
        }
        true
    })
}

/// A successor reference produced by a worker before global merge.
#[derive(Clone, Copy)]
enum SuccRef {
    /// Already in the global map when the layer started.
    Known(u32),
    /// Index into the worker's `new_states`.
    New(u32),
}

struct NewState<P: Program> {
    key: u64,
    state: EngineState<P>,
    target: bool,
    safe: bool,
}

/// Expansion of one contiguous frontier slice: edges in parent-major,
/// choice-minor, draw-lexicographic order, plus the locally new states in
/// discovery order.
struct SliceExpansion<P: Program> {
    edges: Vec<(f64, SuccRef)>,
    /// One length per (parent, choice), parent-major.
    group_lens: Vec<u32>,
    new_states: Vec<NewState<P>>,
}

fn expand_slice<P>(
    topology: &Topology,
    program: &P,
    sim: &SimConfig,
    target: CheckTarget,
    automorphisms: &[Automorphism],
    frozen: &KeyMap<u32>,
    slice: &[EngineState<P>],
) -> SliceExpansion<P>
where
    P: Program + Clone,
{
    let n = topology.num_philosophers();
    let mut engine = Engine::new(topology.clone(), program.clone(), sim.clone());
    let mut scratch = RelabelScratch::new();
    let mut succ_buf = engine.snapshot();
    let mut local: KeyMap<u32> = KeyMap::default();
    let mut out = SliceExpansion {
        edges: Vec::new(),
        group_lens: Vec::with_capacity(slice.len() * n),
        new_states: Vec::new(),
    };
    for parent in slice {
        for choice in 0..n {
            let before = out.edges.len();
            engine.for_each_step_outcome_from(
                parent,
                PhilosopherId::new(choice as u32),
                |prob, post, _| {
                    post.snapshot_into(&mut succ_buf);
                    let key = canonical_key(&succ_buf, automorphisms, &mut scratch);
                    let succ = if let Some(&idx) = frozen.get(&key) {
                        SuccRef::Known(idx)
                    } else {
                        match local.entry(key) {
                            Entry::Occupied(e) => SuccRef::New(*e.get()),
                            Entry::Vacant(e) => {
                                let local_idx = out.new_states.len() as u32;
                                e.insert(local_idx);
                                out.new_states.push(NewState {
                                    key,
                                    state: succ_buf.clone(),
                                    target: is_target(post, target),
                                    safe: state_is_safe(post),
                                });
                                SuccRef::New(local_idx)
                            }
                        }
                    };
                    out.edges.push((prob, succ));
                },
            );
            out.group_lens.push((out.edges.len() - before) as u32);
        }
    }
    out
}

/// Builds the exact MDP of `program` on `topology` for `target`.
///
/// See the [module docs](self) for the construction and its determinism
/// guarantee.  The symmetry quotient is applied per
/// [`BuildOptions::symmetry`]; for [`CheckTarget::PhilosopherEats`] only
/// automorphisms *stabilising* the watched philosopher are used (the target
/// set must be invariant under every relabelling the quotient identifies).
#[must_use]
pub fn build_mdp<P>(
    topology: &Topology,
    program: &P,
    target: CheckTarget,
    options: &BuildOptions,
) -> Mdp
where
    P: Program + Clone + Send + Sync,
    P::State: Send + Sync,
{
    let n = topology.num_philosophers();
    let automorphisms: Vec<Automorphism> = if options.symmetry {
        symmetry::automorphisms(topology, options.automorphism_limit)
            .into_iter()
            .filter(|a| match target {
                CheckTarget::Progress => true,
                CheckTarget::PhilosopherEats(p) => a.phil_map[p.index()] == p,
            })
            .collect()
    } else {
        vec![Automorphism::identity(
            topology.num_forks(),
            topology.num_philosophers(),
        )]
    };

    let engine = Engine::new(topology.clone(), program.clone(), options.sim.clone());
    let mut scratch = RelabelScratch::new();
    let initial_state = engine.snapshot();
    let initial_key = canonical_key(&initial_state, &automorphisms, &mut scratch);

    let mut index_of_key: KeyMap<u32> = KeyMap::default();
    index_of_key.insert(initial_key, 0);
    let mut target_flags = vec![is_target(&engine, target)];
    let mut expanded = vec![false];
    let mut safety_violations = usize::from(!state_is_safe(&engine));
    let mut truncated = false;

    let mut row_offsets: Vec<u32> = vec![0];
    let mut succs: Vec<u32> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    let mut rows_emitted: usize = 0; // states whose row groups are in the CSR

    let mut frontier_indices: Vec<u32> = Vec::new();
    let mut frontier_states: Vec<EngineState<P>> = Vec::new();
    if !target_flags[0] {
        frontier_indices.push(0);
        frontier_states.push(initial_state);
    }

    while !frontier_states.is_empty() && !truncated {
        let threads = options.effective_threads(frontier_states.len());
        let chunk_len = frontier_states.len().div_ceil(threads);
        let chunks: Vec<&[EngineState<P>]> = frontier_states.chunks(chunk_len).collect();
        let mut results: Vec<Option<SliceExpansion<P>>> = Vec::new();
        results.resize_with(chunks.len(), || None);
        if threads <= 1 {
            results[0] = Some(expand_slice(
                topology,
                program,
                &options.sim,
                target,
                &automorphisms,
                &index_of_key,
                chunks[0],
            ));
        } else {
            let frozen = &index_of_key;
            let automorphisms = &automorphisms;
            std::thread::scope(|scope| {
                for (chunk, slot) in chunks.iter().zip(results.iter_mut()) {
                    scope.spawn(move || {
                        *slot = Some(expand_slice(
                            topology,
                            program,
                            &options.sim,
                            target,
                            automorphisms,
                            frozen,
                            chunk,
                        ));
                    });
                }
            });
        }

        // Deterministic merge: workers in frontier order, new states in
        // discovery order — identical numbering for every thread count.
        let mut next_indices: Vec<u32> = Vec::new();
        let mut next_states: Vec<EngineState<P>> = Vec::new();
        let mut parent_cursor = 0usize;
        for result in results.into_iter().map(Option::unwrap) {
            let mut local_to_global: Vec<u32> = Vec::with_capacity(result.new_states.len());
            for new_state in result.new_states {
                let global = match index_of_key.entry(new_state.key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        if target_flags.len() >= options.max_states {
                            truncated = true;
                            UNEXPLORED
                        } else {
                            let idx = target_flags.len() as u32;
                            e.insert(idx);
                            target_flags.push(new_state.target);
                            expanded.push(false);
                            safety_violations += usize::from(!new_state.safe);
                            if !new_state.target {
                                next_indices.push(idx);
                                next_states.push(new_state.state);
                            }
                            idx
                        }
                    }
                };
                local_to_global.push(global);
            }
            // Append this slice's rows, padding empty row groups for the
            // interleaved states that are not being expanded (targets,
            // budget-capped discoveries).
            let parents_in_slice = result.group_lens.len() / n;
            let mut edge_cursor = 0usize;
            for local_parent in 0..parents_in_slice {
                let parent_index = frontier_indices[parent_cursor + local_parent] as usize;
                while rows_emitted < parent_index {
                    for _ in 0..n {
                        row_offsets.push(succs.len() as u32);
                    }
                    rows_emitted += 1;
                }
                for choice in 0..n {
                    let len = result.group_lens[local_parent * n + choice] as usize;
                    for &(prob, succ) in &result.edges[edge_cursor..edge_cursor + len] {
                        let global = match succ {
                            SuccRef::Known(idx) => idx,
                            SuccRef::New(local) => local_to_global[local as usize],
                        };
                        succs.push(global);
                        probs.push(prob);
                    }
                    edge_cursor += len;
                    row_offsets.push(succs.len() as u32);
                }
                expanded[parent_index] = true;
                rows_emitted = parent_index + 1;
            }
            parent_cursor += parents_in_slice;
        }
        frontier_indices = next_indices;
        frontier_states = next_states;
    }

    // Empty row groups for every remaining (target or unexpanded) state.
    while rows_emitted < target_flags.len() {
        for _ in 0..n {
            row_offsets.push(succs.len() as u32);
        }
        rows_emitted += 1;
    }
    assert!(
        succs.len() < UNEXPLORED as usize,
        "transition count overflows the CSR index type"
    );

    Mdp {
        num_states: target_flags.len(),
        num_choices: n,
        initial: 0,
        target: target_flags,
        expanded,
        truncated,
        safety_violations,
        target_kind: target,
        automorphisms,
        index_of_key,
        fairness_requirement: None,
        row_offsets,
        succs,
        probs,
    }
}

/// Assembles an [`Mdp`] from raw compressed-sparse-row parts — the
/// constructor used by the restricted-adversary product builder
/// ([`crate::restricted`]), which lays out its rows with the same
/// state-major, choice-minor, draw-lexicographic discipline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mdp_from_parts(
    num_choices: usize,
    target: Vec<bool>,
    expanded: Vec<bool>,
    truncated: bool,
    safety_violations: usize,
    target_kind: CheckTarget,
    automorphisms: Vec<Automorphism>,
    index_of_key: KeyMap<u32>,
    fairness_requirement: Option<Vec<u64>>,
    row_offsets: Vec<u32>,
    succs: Vec<u32>,
    probs: Vec<f64>,
) -> Mdp {
    assert_eq!(row_offsets.len(), target.len() * num_choices + 1);
    Mdp {
        num_states: target.len(),
        num_choices,
        initial: 0,
        target,
        expanded,
        truncated,
        safety_violations,
        target_kind,
        automorphisms,
        index_of_key,
        fairness_requirement,
        row_offsets,
        succs,
        probs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;

    fn options(symmetry: bool) -> BuildOptions {
        BuildOptions::default()
            .with_symmetry(symmetry)
            .with_threads(1)
            .with_max_states(200_000)
    }

    #[test]
    fn two_ring_lr1_model_is_small_finite_and_stochastic() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mdp = build_mdp(
            &two_ring,
            &Lr1::new(),
            CheckTarget::Progress,
            &options(false),
        );
        assert!(!mdp.truncated);
        assert_eq!(mdp.safety_violations, 0);
        assert!(mdp.num_states > 4);
        assert!(mdp.target.iter().any(|&t| t), "some eating state exists");
        // Probabilities of every expanded row sum to 1.
        for s in 0..mdp.num_states as u32 {
            if !mdp.expanded[s as usize] {
                continue;
            }
            for c in 0..mdp.num_choices {
                let total: f64 = mdp.outcomes(s, c).map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "state {s} choice {c}");
            }
        }
    }

    #[test]
    fn symmetry_reduces_ring_state_count() {
        let ring = classic_ring(3).unwrap();
        let full = build_mdp(&ring, &Gdp1::new(), CheckTarget::Progress, &options(false));
        let reduced = build_mdp(&ring, &Gdp1::new(), CheckTarget::Progress, &options(true));
        assert!(!full.truncated && !reduced.truncated);
        assert!(
            reduced.num_states < full.num_states,
            "quotient must shrink the space: {} vs {}",
            reduced.num_states,
            full.num_states
        );
        // The 3-ring has 3 rotations.
        assert_eq!(reduced.automorphisms.len(), 3);
    }

    #[test]
    fn models_are_bitwise_identical_across_thread_counts() {
        let ring = classic_ring(3).unwrap();
        let serial = build_mdp(&ring, &Lr1::new(), CheckTarget::Progress, &options(true));
        for threads in [2usize, 4, 7] {
            let parallel = build_mdp(
                &ring,
                &Lr1::new(),
                CheckTarget::Progress,
                &options(true).with_threads(threads),
            );
            assert_eq!(serial.num_states, parallel.num_states);
            assert_eq!(serial.target, parallel.target);
            assert_eq!(serial.expanded, parallel.expanded);
            assert_eq!(serial.row_offsets, parallel.row_offsets);
            assert_eq!(serial.succs, parallel.succs);
            assert_eq!(serial.probs, parallel.probs, "{threads} threads");
        }
    }

    #[test]
    fn truncation_is_reported_and_deterministic() {
        let ring = classic_ring(4).unwrap();
        let tiny = BuildOptions::default()
            .with_symmetry(false)
            .with_threads(1)
            .with_max_states(40);
        let a = build_mdp(&ring, &Lr1::new(), CheckTarget::Progress, &tiny);
        let b = build_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::Progress,
            &tiny.clone().with_threads(3),
        );
        assert!(a.truncated);
        assert_eq!(a.num_states, 40);
        assert_eq!(a.num_states, b.num_states);
        assert_eq!(a.succs, b.succs);
        assert!(a.expanded.iter().any(|&e| !e), "some states unexpanded");
    }

    #[test]
    fn philosopher_target_uses_stabilising_automorphisms_only() {
        let ring = classic_ring(4).unwrap();
        let mdp = build_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(1)),
            &options(true),
        );
        for auto in &mdp.automorphisms {
            assert_eq!(auto.phil_map[1], PhilosopherId::new(1));
        }
    }
}
