//! Exact checking under **restricted adversary classes**: k-bounded
//! fairness and crash-stop faults.
//!
//! The standard model ([`build_mdp`](crate::build_mdp)) quantifies over
//! *all* fair adversaries — the paper's notion.  Two families of the
//! adversary catalog (`gdp-adversary`) carve out strictly different
//! classes, and where those classes stay finite they can be checked
//! exactly by building the **product** of the system automaton with the
//! scheduler's bookkeeping:
//!
//! * [`ScheduleRestriction::KBounded`] — only schedules in which no
//!   philosopher's scheduling gap ever grows past a bound are allowed.
//!   The product state carries one wait counter per philosopher; while
//!   every counter is below `k` the adversary chooses freely, and once a
//!   counter reaches `k` the longest-waiting philosophers are *forced*
//!   (so the realized gap is below `k + n`).  Every infinite play of the
//!   product is bounded-fair **by construction**, so the end-component
//!   analysis needs no fairness side condition at all
//!   ([`Mdp::fairness_requirement`] is the zero mask).  Restricting the
//!   adversary can only help the algorithm: worst-case probabilities under
//!   k-bounded fairness are ≥ the unrestricted ones (test-enforced), and
//!   strict gaps — e.g. LR1's sure starvation on the 3-ring evaporating
//!   under small `k` — measure exactly how much scheduling freedom a
//!   negative result needs.
//! * [`ScheduleRestriction::CrashStop`] — the adversary gains, beyond
//!   scheduling, up to `max_crashes` **crash actions**: choice `n + p`
//!   permanently removes philosopher `p` (mid-protocol, wherever it
//!   stands, forks in hand).  The product state carries the crashed set;
//!   crashed philosophers' schedule-choices are disallowed, and fairness
//!   is required only of the *survivors* (the per-state requirement
//!   mask).  This class is *larger* than the paper's: worst-case
//!   probabilities can only drop, and the checker finds exactly when —
//!   e.g. GDP1's certified progress on the 3-ring is already defeated by
//!   a *single* well-timed crash (the adversary kills a fork holder and
//!   starves both survivors fairly), proving Theorem 3's guarantee relies
//!   on fairness to every philosopher, crashed ones included.
//!
//! The product construction is **serial** and deterministic: states are
//! discovered in BFS order and expanded in discovery order, so state
//! numbering, transition layout and every probability are identical
//! across runs.  The product multiplies the state count by the
//! scheduler-bookkeeping range (which is why this module insists on
//! *finite* classes), so memory matters: discovered states wait in a FIFO
//! queue and each engine snapshot is dropped once its state is expanded.
//! Peak memory is the BFS frontier's snapshots plus the per-state flags,
//! the dedup map and the CSR transitions — on ring-4 GDP1 under `crash:1`
//! (1.15 M states) about 150 bytes per state rather than the ~600 a live
//! snapshot costs.  Symmetry reduction is off: the scheduler bookkeeping
//! (wait counters, crashed sets) is not invariant under topology
//! relabellings, and soundness beats the constant factor.

use crate::model::{
    is_target, mdp_from_parts, state_is_safe, BuildOptions, CheckTarget, KeyMap, Mdp, UNEXPLORED,
};
use crate::solve::MAX_CHOICES;
use gdp_sim::{fingerprint64, Engine, EngineState, Program};
use gdp_topology::{Automorphism, PhilosopherId, Topology};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// The adversary class a restricted check quantifies over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScheduleRestriction {
    /// Only k-bounded-fair schedules: free scheduling while every
    /// philosopher's wait is below `k`; once a wait reaches `k`, the
    /// longest-waiting philosophers are forced.  Realized gaps stay below
    /// `k + n`.
    KBounded {
        /// The wait bound that triggers forcing (≥ 1).
        k: u32,
    },
    /// Fair scheduling of the survivors plus up to `max_crashes`
    /// crash-stop actions: a crashed philosopher is never scheduled again
    /// and keeps whatever forks it holds forever.
    CrashStop {
        /// Maximum number of crash actions (capped at `n − 1`: somebody
        /// always survives).
        max_crashes: u32,
    },
}

impl ScheduleRestriction {
    /// Stable human-readable description used in certificates.
    #[must_use]
    pub fn describe(self) -> String {
        match self {
            ScheduleRestriction::KBounded { k } => {
                format!("k-bounded-fair schedulers (k={k})")
            }
            ScheduleRestriction::CrashStop { max_crashes } => {
                format!("fair schedulers with up to {max_crashes} crash-stop fault(s)")
            }
        }
    }

    /// The largest philosopher count the product supports: a k-bounded
    /// product's full-schedule mask `(1 << n) - 1` needs `n < 64`, and a
    /// crash-stop product spends two of the solver's [`MAX_CHOICES`]
    /// choices on each philosopher (schedule it, crash it).
    #[must_use]
    pub fn max_philosophers(self) -> usize {
        match self {
            ScheduleRestriction::KBounded { .. } => MAX_CHOICES - 1,
            ScheduleRestriction::CrashStop { .. } => MAX_CHOICES / 2,
        }
    }
}

/// Scheduler bookkeeping carried in the product state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SchedTag {
    /// Per-philosopher steps since last scheduled.
    Waits(Vec<u32>),
    /// Crashed-set bitmask plus the number of crash actions spent.
    Crashed { mask: u32, used: u32 },
}

impl SchedTag {
    fn key<P: Program>(&self, state: &EngineState<P>) -> u64 {
        fingerprint64(&(state.fingerprint(), self))
    }
}

/// One discovered-but-not-yet-expanded product state.
struct Pending<P: Program> {
    state: EngineState<P>,
    tag: SchedTag,
}

/// The schedule-choices allowed by `tag` (bits `0..n`), per the
/// restriction's forcing rule.
fn allowed_schedules(restriction: ScheduleRestriction, tag: &SchedTag, n: usize) -> u64 {
    match (restriction, tag) {
        (ScheduleRestriction::KBounded { k }, SchedTag::Waits(waits)) => {
            let max = *waits.iter().max().expect("at least one philosopher");
            if max < k {
                (1u64 << n) - 1
            } else {
                waits
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w == max)
                    .fold(0u64, |mask, (p, _)| mask | (1 << p))
            }
        }
        (ScheduleRestriction::CrashStop { .. }, SchedTag::Crashed { mask, .. }) => {
            ((1u64 << n) - 1) & !u64::from(*mask)
        }
        _ => unreachable!("tag kind always matches the restriction"),
    }
}

/// Builds the exact product MDP of `program` on `topology` for `target`
/// under `restriction`.  See the [module docs](self) for the construction;
/// [`BuildOptions::max_states`] bounds the product (`symmetry` and
/// `threads` are ignored — the build is serial and quotient-free by
/// design).
///
/// # Panics
///
/// Panics when the philosopher count exceeds
/// [`ScheduleRestriction::max_philosophers`] (63 for k-bounded, 32 for
/// crash-stop) or when a k-bounded restriction is built with `k = 0`.
/// Callers facing untrusted input check the count first, as `gdp check`
/// does.
#[must_use]
pub fn build_restricted_mdp<P>(
    topology: &Topology,
    program: &P,
    target: CheckTarget,
    restriction: ScheduleRestriction,
    options: &BuildOptions,
) -> Mdp
where
    P: Program + Clone,
{
    let n = topology.num_philosophers();
    let max_philosophers = restriction.max_philosophers();
    assert!(
        n <= max_philosophers,
        "{} support up to {max_philosophers} philosophers",
        restriction.describe()
    );
    let (num_choices, initial_tag) = match restriction {
        ScheduleRestriction::KBounded { k } => {
            assert!(k >= 1, "k-bounded fairness needs k >= 1");
            (n, SchedTag::Waits(vec![0; n]))
        }
        ScheduleRestriction::CrashStop { .. } => (2 * n, SchedTag::Crashed { mask: 0, used: 0 }),
    };

    let mut engine = Engine::new(topology.clone(), program.clone(), options.sim.clone());
    let mut succ_buf = engine.snapshot();
    let initial_state = engine.snapshot();
    let initial_target = is_target(&engine, target);

    let mut index_of_key: KeyMap<u32> = KeyMap::default();
    index_of_key.insert(initial_tag.key(&initial_state), 0);
    let mut targets = vec![initial_target];
    // Per product state (a crash successor inherits its parent's flag —
    // the engine state is unchanged), folded into `safety_violations` at
    // the end so the tally is path-independent.
    let mut safe = vec![state_is_safe(&engine)];
    let mut requirements: Vec<u64> = Vec::new();
    // FIFO of discovered-but-unexpanded states.  A state leaves the queue
    // when it is expanded, so the engine snapshots held at any moment are
    // the BFS frontier, not the whole product.
    let mut pending: VecDeque<Pending<P>> = VecDeque::from([Pending {
        state: initial_state,
        tag: initial_tag,
    }]);
    let mut truncated = false;

    let mut row_offsets: Vec<u32> = vec![0];
    let mut succs: Vec<u32> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();

    // BFS discovery doubles as expansion order: state `cursor`'s row group
    // is appended before state `cursor + 1` is popped, so the CSR comes out
    // state-major with no reordering pass.
    let mut cursor = 0usize;
    while let Some(Pending { state, tag }) = pending.pop_front() {
        let full_schedules = (1u64 << n) - 1;
        let (allowed, requirement) = if targets[cursor] {
            (0u64, full_schedules)
        } else {
            let allowed = allowed_schedules(restriction, &tag, n);
            let requirement = match restriction {
                // The wait counters force fairness structurally: every
                // infinite play of the product is bounded-fair, so no
                // choice needs to recur by fiat.
                ScheduleRestriction::KBounded { .. } => 0u64,
                // Only survivors must keep being scheduled.
                ScheduleRestriction::CrashStop { .. } => allowed,
            };
            (allowed, requirement)
        };
        requirements.push(requirement);
        if targets[cursor] {
            // Targets are absorbing: empty row groups.
            for _ in 0..num_choices {
                row_offsets.push(succs.len() as u32);
            }
            cursor += 1;
            continue;
        }

        for choice in 0..num_choices {
            if choice < n {
                // Schedule philosopher `choice`.
                if allowed & (1 << choice) == 0 {
                    row_offsets.push(succs.len() as u32);
                    continue;
                }
                let succ_tag = match &tag {
                    SchedTag::Waits(waits) => {
                        // The forcing rule keeps every counter below
                        // `k + n`, so the product stays finite.
                        let mut next = waits.clone();
                        for (p, w) in next.iter_mut().enumerate() {
                            *w = if p == choice { 0 } else { *w + 1 };
                        }
                        SchedTag::Waits(next)
                    }
                    crashed @ SchedTag::Crashed { .. } => crashed.clone(),
                };
                engine.for_each_step_outcome_from(
                    &state,
                    PhilosopherId::new(choice as u32),
                    |prob, post, _| {
                        post.snapshot_into(&mut succ_buf);
                        let key = succ_tag.key(&succ_buf);
                        let succ = match index_of_key.entry(key) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                if targets.len() >= options.max_states {
                                    truncated = true;
                                    UNEXPLORED
                                } else {
                                    let idx = targets.len() as u32;
                                    e.insert(idx);
                                    targets.push(is_target(post, target));
                                    safe.push(state_is_safe(post));
                                    pending.push_back(Pending {
                                        state: succ_buf.clone(),
                                        tag: succ_tag.clone(),
                                    });
                                    idx
                                }
                            }
                        };
                        succs.push(succ);
                        probs.push(prob);
                    },
                );
                row_offsets.push(succs.len() as u32);
            } else {
                // Crash philosopher `choice - n` (crash-stop only).
                let victim = choice - n;
                let (mask, used, max_crashes) = match (&tag, restriction) {
                    (
                        SchedTag::Crashed { mask, used },
                        ScheduleRestriction::CrashStop { max_crashes },
                    ) => (*mask, *used, max_crashes),
                    _ => unreachable!("crash choices exist only in crash-stop products"),
                };
                let already_crashed = mask & (1 << victim) != 0;
                let survivors_after = n as u32 - used - 1;
                if already_crashed || used >= max_crashes || survivors_after == 0 {
                    row_offsets.push(succs.len() as u32);
                    continue;
                }
                let succ_tag = SchedTag::Crashed {
                    mask: mask | (1 << victim),
                    used: used + 1,
                };
                let key = succ_tag.key(&state);
                let succ = match index_of_key.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        if targets.len() >= options.max_states {
                            truncated = true;
                            UNEXPLORED
                        } else {
                            let idx = targets.len() as u32;
                            e.insert(idx);
                            // The engine state is unchanged by a crash:
                            // target/safety flags carry over from the parent.
                            targets.push(targets[cursor]);
                            safe.push(safe[cursor]);
                            pending.push_back(Pending {
                                state: state.clone(),
                                tag: succ_tag,
                            });
                            idx
                        }
                    }
                };
                succs.push(succ);
                probs.push(1.0);
                row_offsets.push(succs.len() as u32);
            }
        }
        cursor += 1;
    }

    let expanded: Vec<bool> = targets.iter().map(|&t| !t).collect();
    let safety_violations = safe.iter().filter(|&&s| !s).count();
    mdp_from_parts(
        num_choices,
        targets,
        expanded,
        truncated,
        safety_violations,
        target,
        vec![Automorphism::identity(
            topology.num_forks(),
            topology.num_philosophers(),
        )],
        index_of_key,
        Some(requirements),
        row_offsets,
        succs,
        probs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve, SolveOptions};
    use gdp_algorithms::baselines::NaiveLeftRight;
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_topology::builders::classic_ring;

    fn options(max_states: usize) -> BuildOptions {
        BuildOptions::default().with_max_states(max_states)
    }

    #[test]
    fn kbounded_product_is_finite_and_rows_are_stochastic() {
        let ring = classic_ring(3).unwrap();
        let mdp = build_restricted_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::Progress,
            ScheduleRestriction::KBounded { k: 2 },
            &options(400_000),
        );
        assert!(!mdp.truncated);
        assert!(mdp.num_states > 10);
        assert_eq!(mdp.safety_violations, 0);
        assert!(mdp.fairness_requirement.is_some());
        for s in 0..mdp.num_states as u32 {
            if !mdp.expanded[s as usize] {
                continue;
            }
            let mut any_choice = false;
            for c in 0..mdp.num_choices {
                let total: f64 = mdp.outcomes(s, c).map(|(_, p)| p).sum();
                if total > 0.0 {
                    any_choice = true;
                    assert!((total - 1.0).abs() < 1e-12, "state {s} choice {c}");
                }
            }
            assert!(any_choice, "state {s} must keep an allowed choice");
        }
    }

    #[test]
    fn restricting_the_adversary_never_hurts_a_certified_property() {
        // GDP1 progress on the 3-ring is certified 1 over *all* fair
        // adversaries; over the k-bounded subclass it must stay 1.
        let ring = classic_ring(3).unwrap();
        for k in [1u32, 3] {
            let mdp = build_restricted_mdp(
                &ring,
                &Gdp1::new(),
                CheckTarget::Progress,
                ScheduleRestriction::KBounded { k },
                &options(2_000_000),
            );
            assert!(!mdp.truncated, "k={k}");
            let solution = solve(&mdp, &SolveOptions::default());
            assert!(solution.holds_with_probability_one(), "k={k}: {solution:?}");
        }
    }

    #[test]
    fn tight_bounds_defeat_lr1_starvation_on_the_three_ring() {
        // Over all fair adversaries a chosen LR1 philosopher starves surely
        // (probability 0 of eating).  Under 1-bounded fairness the
        // adversary degenerates to round-robin-like forced rotations and
        // loses: the worst-case probability climbs strictly above 0.
        let ring = classic_ring(3).unwrap();
        let target = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        let tight = build_restricted_mdp(
            &ring,
            &Lr1::new(),
            target,
            ScheduleRestriction::KBounded { k: 1 },
            &options(2_000_000),
        );
        assert!(!tight.truncated);
        let tight_solution = solve(&tight, &SolveOptions::default());
        assert!(
            tight_solution.probability > 0.0,
            "1-bounded fairness must break the sure-starvation strategy: {tight_solution:?}"
        );

        // With generous k the starvation strategy fits inside the class
        // again: the probability drops back to exactly 0.
        let loose = build_restricted_mdp(
            &ring,
            &Lr1::new(),
            target,
            ScheduleRestriction::KBounded { k: 6 },
            &options(4_000_000),
        );
        assert!(!loose.truncated);
        let loose_solution = solve(&loose, &SolveOptions::default());
        assert!(
            loose_solution.probability < tight_solution.probability,
            "more scheduling freedom can only help the adversary: {} vs {}",
            loose_solution.probability,
            tight_solution.probability
        );
    }

    #[test]
    fn a_single_crash_defeats_gdp1_progress_on_the_three_ring() {
        // With a zero crash budget the product degenerates to the
        // unrestricted model: GDP1 progress on the 3-ring stays certified 1
        // (Theorem 3 on a witness topology).
        let ring = classic_ring(3).unwrap();
        let zero = build_restricted_mdp(
            &ring,
            &Gdp1::new(),
            CheckTarget::Progress,
            ScheduleRestriction::CrashStop { max_crashes: 0 },
            &options(2_000_000),
        );
        assert!(!zero.truncated);
        let no_crash = solve(&zero, &SolveOptions::default());
        assert!(
            no_crash.holds_with_probability_one(),
            "crash:0 must reproduce the unrestricted certification: {no_crash:?}"
        );

        // One crash already breaks it — a result the Monte-Carlo layer
        // cannot see sharply: the adversary crashes a philosopher while it
        // holds a fork, the neighbour that shares that fork cycles
        // take/fail/release forever, and the third philosopher is scheduled
        // only while its first fork is transiently held, busy-waiting.
        // Every survivor is scheduled infinitely often, nobody ever eats:
        // Theorem 3's progress guarantee genuinely relies on fairness *to
        // the crashed philosopher*.
        let one = build_restricted_mdp(
            &ring,
            &Gdp1::new(),
            CheckTarget::Progress,
            ScheduleRestriction::CrashStop { max_crashes: 1 },
            &options(2_000_000),
        );
        assert!(!one.truncated);
        let one_crash = solve(&one, &SolveOptions::default());
        assert_eq!(
            one_crash.probability, 0.0,
            "one well-timed crash starves the survivors surely: {one_crash:?}"
        );
        assert!(one_crash.certified);
        assert!(one_crash.fair_core_states > 0);
    }

    #[test]
    fn crash_stop_refutes_individual_liveness_trivially() {
        // Against `philosopher 0 eats`, the adversary just crashes P0
        // before it ever eats: worst-case probability exactly 0.
        let ring = classic_ring(3).unwrap();
        let mdp = build_restricted_mdp(
            &ring,
            &Gdp1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
            ScheduleRestriction::CrashStop { max_crashes: 1 },
            &options(2_000_000),
        );
        assert!(!mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        assert_eq!(solution.probability, 0.0, "{solution:?}");
        assert!(solution.certified);
    }

    #[test]
    fn naive_deadlock_survives_the_kbounded_restriction() {
        // The all-hold-left deadlock needs no adversarial patience at all:
        // it is reachable under 1-bounded fairness too.
        let ring = classic_ring(3).unwrap();
        let mdp = build_restricted_mdp(
            &ring,
            &NaiveLeftRight::new(),
            CheckTarget::Progress,
            ScheduleRestriction::KBounded { k: 1 },
            &options(1_000_000),
        );
        assert!(!mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        // In the product the deadlocked engine state cycles through its
        // wait-counter tags instead of self-looping, so it shows up as a
        // (trivially fair) avoid core rather than in `deadlock_states`.
        assert!(solution.fair_core_states > 0);
        assert!(!solution.holds_with_probability_one());
        assert_eq!(solution.probability, 0.0, "{solution:?}");
    }

    #[test]
    fn restricted_builds_are_deterministic() {
        let ring = classic_ring(3).unwrap();
        let build = || {
            build_restricted_mdp(
                &ring,
                &Lr1::new(),
                CheckTarget::Progress,
                ScheduleRestriction::CrashStop { max_crashes: 1 },
                &options(500_000),
            )
        };
        let a = build();
        let b = build();
        assert_eq!(a.num_states, b.num_states);
        assert_eq!(a.target, b.target);
        assert_eq!(a.fairness_requirement, b.fairness_requirement);
        assert_eq!(a.num_transitions(), b.num_transitions());
        for s in 0..a.num_states as u32 {
            for c in 0..a.num_choices {
                assert!(a.outcomes(s, c).eq(b.outcomes(s, c)));
            }
        }
    }

    #[test]
    fn truncation_is_reported() {
        let ring = classic_ring(3).unwrap();
        let mdp = build_restricted_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::Progress,
            ScheduleRestriction::KBounded { k: 3 },
            &options(50),
        );
        assert!(mdp.truncated);
        assert_eq!(mdp.num_states, 50);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(!solution.holds_with_probability_one());
        assert!(!solution.certified);
    }
}
