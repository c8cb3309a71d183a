//! # gdp — generalized dining philosophers
//!
//! A reproduction of Herescu & Palamidessi, *On the generalized dining
//! philosophers problem* (PODC 2001): randomized, symmetric, fully
//! distributed resource allocation on arbitrary conflict topologies.
//!
//! This umbrella crate is the workspace's one facade: [`prelude`]
//! re-exports the commonly used items of every member crate, and the
//! crate ships the `gdp` CLI binary (`gdp list`, `gdp run`, `gdp sweep`,
//! `gdp merge`, `gdp check`, `gdp stress`, `gdp serve`).  The scenarios
//! catalog is the one naming layer for run-time selection
//! (`TopologyFamily`, [`AlgorithmKind`](prelude::AlgorithmKind),
//! [`AdversaryKind`](prelude::AdversaryKind)), and the paper's experiment
//! tables run on the same `estimate_liveness` batch as `gdp sweep`.  See
//! `README.md` for a tour, `docs/ARCHITECTURE.md` for
//! the crate-by-crate data flow, `docs/SCENARIOS.md` for the
//! scenario-sweep reference, `docs/VERIFICATION.md` for the exact model
//! checker behind `gdp check`, `docs/RUNTIME.md` for the real-thread
//! runtime behind `gdp stress`, and `docs/SERVE.md` for the
//! cache-answering service behind `gdp serve`; the reproduced experiment
//! tables are regenerated by
//! `cargo run -p gdp-bench --bin report --release`.
//!
//! ```
//! use gdp::prelude::*;
//!
//! // GDP2 on the paper's Figure 3 theta graph: everyone eventually eats.
//! let mut engine = Engine::new(builders::figure3_theta(), Gdp2::new(), SimConfig::default());
//! let outcome = engine.run(
//!     &mut UniformRandomAdversary::new(7),
//!     StopCondition::EveryoneEats { times: 1, max_steps: 500_000 },
//! );
//! assert!(outcome.everyone_ate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The scenario-sweep subsystem (see [`gdp_scenarios`] and
/// `docs/SCENARIOS.md`): declarative *family × size × algorithm* grids over
/// the Monte-Carlo machinery, as driven by `gdp sweep`.
pub use gdp_scenarios as scenarios;

/// The cache-answering sweep service (see [`gdp_serve`] and
/// `docs/SERVE.md`): the long-running TCP front over the cell store, as
/// driven by `gdp serve`.
pub use gdp_serve as serve;

/// Convenience re-exports of the whole `gdp` crate family.
///
/// ```
/// use gdp::prelude::*;
///
/// let topology = builders::classic_ring(5).unwrap();
/// let mut engine = Engine::new(topology, Gdp1::new(), SimConfig::default());
/// let outcome = engine.run(
///     &mut RoundRobinAdversary::new(),
///     StopCondition::FirstMeal { max_steps: 10_000 },
/// );
/// assert!(outcome.made_progress());
/// ```
pub mod prelude {
    pub use gdp_topology::{
        analysis as topology_analysis, builders, dot, ForkEnds, ForkId, PhilosopherId, Side,
        Topology, TopologyBuilder, TopologyError,
    };

    pub use gdp_sim::{
        Action, Adversary, DrawTape, Engine, EngineState, ForkCell, HungerModel, Phase,
        PhilosopherView, Program, ProgramObservation, RoundRobinAdversary, RunOutcome, SimConfig,
        StepCtx, StepRecord, StopCondition, StopReason, SystemView, UniformRandomAdversary,
    };

    pub use gdp_algorithms::{
        baselines, AlgorithmKind, AnyProgram, AnyState, Gdp1, Gdp2, Lr1, Lr2,
    };

    pub use gdp_adversary::{
        AdversaryKind, BlockingAdversary, BlockingPolicy, FairDriver, FairnessGuard,
        ReplayAdversary, SchedulingPolicy, StubbornnessSchedule, TargetStarver,
        TriangleWaveAdversary,
    };

    pub use gdp_analysis::{
        metrics, montecarlo, montecarlo::estimate_liveness, state_is_safe, stats, symmetry,
        LivenessEstimate, LockoutEstimate, ProgressEstimate, RunMetrics, TrialConfig,
    };

    pub use gdp_runtime::{run_for_meals, DiningTable, RunReport, Seat, SharedFork, TableStats};

    pub use gdp_picalc::{ChannelId, ChoiceRound, Guard, ProcessId, RoundOutcome, Synchronization};
}
