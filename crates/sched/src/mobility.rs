//! Mobility (slack window) analysis.

use pchls_cdfg::{Cdfg, NodeId};

use crate::alap::alap;
use crate::asap::asap;
use crate::budget::PowerBudget;
use crate::error::ScheduleError;
use crate::pasap::{palap, pasap};
use crate::schedule::Schedule;
use crate::timing::TimingMap;

/// Earliest/latest start windows of every operation under a latency bound
/// — classic mobility, or its power-aware variant where the window ends
/// come from [`pasap`]/[`palap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mobility {
    early: Schedule,
    late: Schedule,
}

impl Mobility {
    /// Classical mobility: ASAP/ALAP windows under `latency`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::LatencyExceeded`] if the critical path
    /// does not fit.
    pub fn compute(
        graph: &Cdfg,
        timing: &TimingMap,
        latency: u32,
    ) -> Result<Mobility, ScheduleError> {
        Ok(Mobility {
            early: asap(graph, timing),
            late: alap(graph, timing, latency)?,
        })
    }

    /// Power-aware mobility: `pasap`/`palap` windows under `budget`.
    /// When the reversed heuristic fails where the forward one succeeds,
    /// the window degrades to zero mobility at the `pasap` position (both
    /// heuristics are greedy; see the `pasap` module docs).
    ///
    /// # Errors
    ///
    /// Propagates `pasap`'s infeasibility.
    pub fn power_aware(
        graph: &Cdfg,
        timing: &TimingMap,
        latency: u32,
        budget: &PowerBudget,
    ) -> Result<Mobility, ScheduleError> {
        let early = pasap(graph, timing, budget, latency)?;
        let late = palap(graph, timing, budget, latency).unwrap_or_else(|_| early.clone());
        Ok(Mobility { early, late })
    }

    /// The `[earliest, latest]` start window of `id`. The window can be
    /// inverted (`latest < earliest`) only in the power-aware variant,
    /// where both ends are heuristic; callers should clamp.
    #[must_use]
    pub fn window(&self, id: NodeId) -> (u32, u32) {
        (self.early.start(id), self.late.start(id))
    }

    /// Slack of `id`: how many cycles it can slide (`0` when critical).
    #[must_use]
    pub fn slack(&self, id: NodeId) -> u32 {
        let (e, l) = self.window(id);
        l.saturating_sub(e)
    }

    /// Whether `id` has zero slack.
    #[must_use]
    pub fn is_critical(&self, id: NodeId) -> bool {
        self.slack(id) == 0
    }

    /// All zero-slack operations, in id order.
    #[must_use]
    pub fn critical_ops(&self, graph: &Cdfg) -> Vec<NodeId> {
        graph
            .node_ids()
            .filter(|&id| self.is_critical(id))
            .collect()
    }

    /// The earliest-start schedule backing the windows.
    #[must_use]
    pub fn earliest(&self) -> &Schedule {
        &self.early
    }

    /// The latest-start schedule backing the windows.
    #[must_use]
    pub fn latest(&self) -> &Schedule {
        &self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks::hal;
    use pchls_fulib::{paper_library, SelectionPolicy};

    fn setup() -> (Cdfg, TimingMap) {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        (g, t)
    }

    #[test]
    fn critical_path_ops_have_zero_slack_at_tight_bound() {
        let (g, t) = setup();
        let m = Mobility::compute(&g, &t, 8).unwrap(); // critical path = 8
        let critical = m.critical_ops(&g);
        assert!(!critical.is_empty());
        // The u -> t2 -> t3 -> s1 -> u1 -> out chain is critical.
        for &id in &critical {
            assert_eq!(m.slack(id), 0);
        }
    }

    #[test]
    fn slack_grows_with_the_latency_bound() {
        let (g, t) = setup();
        let tight = Mobility::compute(&g, &t, 8).unwrap();
        let loose = Mobility::compute(&g, &t, 14).unwrap();
        for id in g.node_ids() {
            assert_eq!(loose.slack(id), tight.slack(id) + 6, "{id}");
        }
    }

    #[test]
    fn infeasible_bound_is_an_error() {
        let (g, t) = setup();
        assert!(Mobility::compute(&g, &t, 5).is_err());
    }

    #[test]
    fn power_aware_windows_shrink_under_pressure() {
        let (g, t) = setup();
        let free = Mobility::power_aware(&g, &t, 20, &PowerBudget::unbounded()).unwrap();
        let tight = Mobility::power_aware(&g, &t, 20, &PowerBudget::constant(12.0)).unwrap();
        let total_free: u32 = g.node_ids().map(|id| free.slack(id)).sum();
        let total_tight: u32 = g.node_ids().map(|id| tight.slack(id)).sum();
        assert!(
            total_tight <= total_free,
            "power pressure must not create slack: {total_tight} > {total_free}"
        );
    }

    #[test]
    fn power_aware_budget_matches_scalar_for_constant_budgets() {
        let (g, t) = setup();
        let scalar = Mobility::power_aware(&g, &t, 20, &PowerBudget::constant(12.0)).unwrap();
        let steps = PowerBudget::steps(vec![(0, 12.0), (9, 12.0)]);
        let budget = Mobility::power_aware(&g, &t, 20, &steps).unwrap();
        assert_eq!(budget, scalar);
    }

    #[test]
    fn power_aware_budget_windows_respect_the_envelope() {
        let (g, t) = setup();
        let budget = PowerBudget::steps(vec![(0, 40.0), (10, 9.0)]);
        let m = Mobility::power_aware(&g, &t, 20, &budget).unwrap();
        // Both window ends are genuine schedules under the envelope.
        m.earliest().validate(&g, &t, None, Some(&budget)).unwrap();
        m.latest()
            .validate(&g, &t, Some(20), Some(&budget))
            .unwrap();
        // An infeasible envelope propagates pasap's error.
        let hopeless = PowerBudget::constant(1.0);
        assert!(Mobility::power_aware(&g, &t, 20, &hopeless).is_err());
    }

    #[test]
    fn windows_expose_backing_schedules() {
        let (g, t) = setup();
        let m = Mobility::compute(&g, &t, 10).unwrap();
        for id in g.node_ids() {
            let (e, l) = m.window(id);
            assert_eq!(e, m.earliest().start(id));
            assert_eq!(l, m.latest().start(id));
            assert!(e <= l);
        }
    }
}
