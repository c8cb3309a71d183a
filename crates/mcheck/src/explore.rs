//! Whole-state-space checks of single programs with the seeded explorer
//! ([`crate::seeded`]): a complete (untruncated) realization decides
//! deadlock-freedom, so the textbook deadlock must be found and the
//! deadlock-free programs must show no dead state.

#[cfg(test)]
mod tests {
    use crate::seeded::{explore_realization, merge_reports};
    use gdp_algorithms::baselines::{NaiveLeftRight, OrderedForks};
    use gdp_algorithms::Gdp1;
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;

    #[test]
    fn naive_left_right_deadlocks_on_the_ring() {
        // The textbook deadlock: every philosopher holds its left fork.
        let ring = classic_ring(3).unwrap();
        let report = explore_realization(&ring, &NaiveLeftRight::new(), 0, 20_000, 200);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(
            report.dead_states > 0,
            "the naive algorithm must have reachable dead states: {report:?}"
        );
    }

    #[test]
    fn gdp1_full_state_space_is_deadlock_free_and_safe() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let report = merge_reports(
            [3u64, 4]
                .iter()
                .map(|&seed| explore_realization(&two_ring, &Gdp1::new(), seed, 20_000, 400)),
        );
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
        assert!(report.eating_states > 0);
    }

    #[test]
    fn ordered_forks_is_deadlock_free_on_the_small_ring() {
        let ring = classic_ring(3).unwrap();
        let report = explore_realization(&ring, &OrderedForks::new(), 0, 20_000, 200);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
    }
}
