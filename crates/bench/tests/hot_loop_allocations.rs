//! The allocation-free hot loop, asserted: with the counting allocator
//! installed, the steady-state `step_with` loop allocates on fewer than 1%
//! of its steps, while rebuilding the views every step allocates at least
//! once per step.
//!
//! The allocation counter is process-global, so this binary holds a single
//! test: a second test running beside it would add its allocations to the
//! count.

use gdp_bench::alloc_counter::CountingAllocator;
use gdp_bench::perf::{measure_hot_loop, measure_hot_loop_rebuild_every_step};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn the_hot_loop_allocates_on_under_one_percent_of_steps() {
    for n in [5, 50, 500] {
        let incremental = measure_hot_loop(n, 400_000)
            .allocations_per_step
            .expect("the counting allocator is installed");
        assert!(
            incremental < 0.01,
            "ring-{n}: {incremental:.4} allocations/step"
        );
        let rebuilt = measure_hot_loop_rebuild_every_step(n, 10_000)
            .allocations_per_step
            .expect("the counting allocator is installed");
        assert!(rebuilt >= 1.0, "ring-{n}: {rebuilt:.4} allocations/step");
    }
}
