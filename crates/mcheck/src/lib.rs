//! # gdp-mcheck
//!
//! Exact model checking for the generalized dining philosophers problem.
//!
//! Monte-Carlo sweeps (`gdp-analysis`, `gdp-scenarios`) *estimate* the
//! paper's liveness properties under concrete schedulers; this crate
//! *decides* them, in the probabilistic-automaton sense the paper actually
//! uses — worst case over all adversaries, exact over the philosophers'
//! random draws:
//!
//! * [`model`] — explicit construction of the finite MDP of a (topology,
//!   algorithm) pair: adversary choices as nondeterministic branches,
//!   random draws as exhaustively enumerated probabilistic branches, states
//!   deduplicated up to orientation-preserving topology automorphisms
//!   (`gdp_topology::symmetry`), frontier expansion parallelised with the
//!   workspace's bitwise-determinism contract;
//! * [`mod@solve`] — qualitative certification (avoid-region emptiness ⇒
//!   worst-case probability exactly 1, membership of the initial state ⇒
//!   exactly 0) plus value iteration for the quantitative remainder and
//!   for worst-case expected steps-to-first-meal;
//! * [`certificate`] — a byte-reproducible textual verdict combining model
//!   and solution, the artifact emitted by `gdp check`;
//! * [`strategy`] — extraction of the optimal starving adversary as a
//!   replayable schedule plus a DOT dump of the counterexample lasso;
//! * [`restricted`] — exact checking under **restricted adversary
//!   classes** where they stay finite: k-bounded fairness as a product-MDP
//!   restriction and crash-stop faults as enumerated crash branches (the
//!   exact counterparts of the `gdp-adversary` catalog's `kbounded:<k>`
//!   and `crash:<f>` families, see `docs/ADVERSARIES.md`);
//! * [`seeded`] — the bounded per-seed-realization explorer (all
//!   scheduling nondeterminism, one realization of the coin flips), built
//!   on the same snapshot/restore machinery.
//!
//! The checker certifies, for example, that GDP1's worst-case progress
//! probability on the 5-ring is exactly 1 (Theorem 3 on a witness
//! topology), finds the sure starvation strategies against LR1 that the
//! blocking adversary only approximates, and proves the naive left-right
//! program's deadlock rather than sampling it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
#[cfg(test)]
mod explore;
pub mod model;
pub mod restricted;
pub mod seeded;
pub mod solve;
pub mod strategy;

pub use certificate::Certificate;
pub use model::{build_mdp, state_is_safe, BuildOptions, CheckTarget, Mdp, UNEXPLORED};
pub use restricted::{build_restricted_mdp, ScheduleRestriction};
pub use seeded::{
    explore_realization, explore_realization_with_work, merge_reports, ExplorationReport,
    ExplorationWork,
};
pub use solve::{solve, Solution, SolveOptions};
pub use strategy::{extract_counterexample, CounterexampleSchedule};
