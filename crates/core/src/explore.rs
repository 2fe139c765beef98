//! Design-space exploration: the sweeps behind Figure 2.
//!
//! Sweeps run through [`Session::sweep`](crate::Session::sweep) and
//! [`Engine::sweep_batch`](crate::Engine::sweep_batch); this module
//! holds the point type, the monotone-envelope pass they share, and
//! the one-at-a-time serial references they are tested against.

use serde::{Deserialize, Serialize};

use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;

use crate::constraints::SynthesisConstraints;
use crate::engine::{CompiledGraph, Engine};
use crate::options::SynthesisOptions;
use crate::synthesis::synthesize_session;

/// One point of a constraint sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Latency constraint `T`.
    pub latency_bound: u32,
    /// Power constraint `P<`.
    pub power_bound: f64,
    /// Synthesized functional-unit area, if the point was feasible.
    pub area: Option<u64>,
    /// Achieved latency, if feasible.
    pub latency: Option<u32>,
    /// Achieved peak power, if feasible.
    pub peak_power: Option<f64>,
    /// Number of functional-unit instances, if feasible.
    pub units: Option<usize>,
}

impl SweepPoint {
    /// Whether synthesis succeeded at this point.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.area.is_some()
    }
}

/// Which constraint axis a sweep varies (and therefore which field the
/// monotone-envelope pass rewrites when it carries a better design
/// forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepAxis {
    Power,
    Latency,
}

/// Synthesizes `graph` at a fixed latency for every power bound in
/// `powers`, one point at a time: the serial reference for
/// [`Session::sweep`](crate::Session::sweep) over a
/// [`SweepSpec::power`](crate::SweepSpec::power) grid, which must match
/// it byte for byte.
///
/// Any design feasible under a tight power bound remains feasible under
/// every looser one, so each point reports the best design found at any
/// bound `≤ P` — the monotone envelope of the greedy's raw output. (A
/// greedy heuristic can otherwise produce occasional upward blips where
/// *less* pressure sends it down a worse path; the envelope is what a
/// designer sweeping the constraint would actually keep.)
#[must_use]
pub fn power_sweep_serial(
    graph: &Cdfg,
    library: &ModuleLibrary,
    latency: u32,
    powers: &[f64],
    options: &SynthesisOptions,
) -> Vec<SweepPoint> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    let raw = powers
        .iter()
        .map(|&p| {
            run_point(
                &engine,
                &compiled,
                SynthesisConstraints::new(latency, p),
                options,
            )
        })
        .collect();
    envelope(raw, &power_order(powers), SweepAxis::Power)
}

/// Synthesizes `graph` at a fixed power bound for every latency in
/// `latencies` (the orthogonal cut through the constraint space), one
/// point at a time: the serial reference for a
/// [`SweepSpec::latency`](crate::SweepSpec::latency) sweep.
///
/// As with [`power_sweep_serial`], each point reports the best design
/// found at any latency `≤ T` — a design meeting a tighter deadline
/// meets every looser one.
#[must_use]
pub fn latency_sweep_serial(
    graph: &Cdfg,
    library: &ModuleLibrary,
    power: f64,
    latencies: &[u32],
    options: &SynthesisOptions,
) -> Vec<SweepPoint> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    let raw = latencies
        .iter()
        .map(|&t| {
            run_point(
                &engine,
                &compiled,
                SynthesisConstraints::new(t, power),
                options,
            )
        })
        .collect();
    envelope(raw, &latency_order(latencies), SweepAxis::Latency)
}

/// Ascending visit order over a float grid.
pub(crate) fn power_order(powers: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..powers.len()).collect();
    order.sort_by(|&a, &b| powers[a].partial_cmp(&powers[b]).expect("finite bounds"));
    order
}

/// Ascending visit order over a latency grid.
pub(crate) fn latency_order(latencies: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..latencies.len()).collect();
    order.sort_by_key(|&i| latencies[i]);
    order
}

/// The sequential monotone-envelope pass: visiting raw points in
/// ascending-constraint `order`, replaces any point worse than the best
/// seen so far with that best design (re-labelled to the point's own
/// bound). Points are moved, not cloned; only an actual carry copies the
/// best design into the slot.
pub(crate) fn envelope(raw: Vec<SweepPoint>, order: &[usize], axis: SweepAxis) -> Vec<SweepPoint> {
    let mut points = raw;
    let mut best: Option<usize> = None;
    for &i in order {
        if let Some(b) = best {
            let best_area = points[b].area.expect("best is feasible");
            if best_area < points[i].area.unwrap_or(u64::MAX) {
                let mut carried = points[b].clone();
                match axis {
                    SweepAxis::Power => carried.power_bound = points[i].power_bound,
                    SweepAxis::Latency => carried.latency_bound = points[i].latency_bound,
                }
                points[i] = carried;
            }
        }
        if points[i].is_feasible() {
            best = Some(i);
        }
    }
    points
}

/// Filters sweep points down to the pareto front over
/// `(power bound, latency bound, area)`: points for which no other
/// feasible point is at least as good on all three axes and strictly
/// better on one. Infeasible points never appear.
#[must_use]
pub fn pareto_front(points: &[SweepPoint]) -> Vec<SweepPoint> {
    // Index-based dominance: the O(n²) comparison loop touches only
    // borrowed points; the single clone per point happens for survivors
    // at collection time.
    let feasible: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_feasible())
        .map(|(i, _)| i)
        .collect();
    let dominates = |b: &SweepPoint, a: &SweepPoint| {
        let (b_area, a_area) = (b.area.expect("feasible"), a.area.expect("feasible"));
        let no_worse = b.power_bound <= a.power_bound
            && b.latency_bound <= a.latency_bound
            && b_area <= a_area;
        let better =
            b.power_bound < a.power_bound || b.latency_bound < a.latency_bound || b_area < a_area;
        no_worse && better
    };
    feasible
        .iter()
        .filter(|&&i| {
            !feasible
                .iter()
                .any(|&j| j != i && dominates(&points[j], &points[i]))
        })
        .map(|&i| points[i].clone())
        .collect()
}

/// One grid point through the session kernel, summarized for a sweep
/// (the one `Result` → [`SweepPoint`] construction site, shared with
/// [`crate::SynthesisResult::to_point`]).
pub(crate) fn run_point(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: SynthesisConstraints,
    options: &SynthesisOptions,
) -> SweepPoint {
    use crate::engine::{SynthesisRequest, SynthesisResult};
    let outcome = synthesize_session(engine, compiled, &constraints, options, None);
    SynthesisResult {
        request: SynthesisRequest::new(constraints).with_options(*options),
        outcome,
    }
    .to_point(compiled.name())
}

/// A sensible power grid for sweeping `graph`: `steps` evenly spaced
/// bounds from just under the cheapest single operation's power up to
/// the peak of the power-oblivious ASAP design (beyond which the
/// constraint stops binding) plus one step of headroom.
#[must_use]
pub fn auto_power_grid(graph: &Cdfg, library: &ModuleLibrary, steps: usize) -> Vec<f64> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    engine.session(&compiled).auto_power_grid(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepSpec;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    /// `spec` swept over a fresh compile of `g`.
    fn sweep(g: &Cdfg, spec: SweepSpec) -> Vec<SweepPoint> {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(g);
        engine
            .session(&compiled)
            .sweep(&spec, &SynthesisOptions::default())
            .into_points()
    }

    #[test]
    fn power_sweep_area_is_monotone_nonincreasing_on_hal() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 8);
        let points = sweep(&g, SweepSpec::power(17, grid));
        let areas: Vec<u64> = points.iter().filter_map(|p| p.area).collect();
        assert!(areas.len() >= 4, "most of the grid is feasible");
        for w in areas.windows(2) {
            assert!(w[1] <= w[0], "area must not grow with power: {areas:?}");
        }
    }

    #[test]
    fn infeasible_points_are_marked() {
        let points = sweep(&benchmarks::hal(), SweepSpec::power(10, vec![0.5, 1e6]));
        assert!(!points[0].is_feasible());
        assert!(points[1].is_feasible());
    }

    #[test]
    fn tighter_latency_curve_dominates() {
        // Figure 2: the T=10 hal curve lies above the T=17 curve.
        let g = benchmarks::hal();
        let grid = vec![30.0, 60.0, 120.0];
        let tight = sweep(&g, SweepSpec::power(10, grid.clone()));
        let loose = sweep(&g, SweepSpec::power(17, grid));
        for (a, b) in tight.iter().zip(&loose) {
            if let (Some(at), Some(bt)) = (a.area, b.area) {
                assert!(at >= bt, "T=10 area {at} < T=17 area {bt}");
            }
        }
    }

    #[test]
    fn auto_grid_brackets_the_interesting_region() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 10);
        assert_eq!(grid.len(), 10);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!((grid[0] - 8.1).abs() < 1e-9, "starts at mult_par power");
    }

    #[test]
    fn latency_sweep_runs_and_is_monotone() {
        let pts = sweep(
            &benchmarks::hal(),
            SweepSpec::latency(25.0, vec![8, 12, 17, 25]),
        );
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().skip(1).all(SweepPoint::is_feasible));
        let areas: Vec<u64> = pts.iter().filter_map(|p| p.area).collect();
        for w in areas.windows(2) {
            assert!(w[1] <= w[0], "{areas:?}");
        }
    }

    #[test]
    fn parallel_power_sweep_equals_serial() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 12);
        for t in [10, 17] {
            let par = sweep(&g, SweepSpec::power(t, grid.clone()));
            let ser = power_sweep_serial(&g, &lib, t, &grid, &SynthesisOptions::default());
            assert_eq!(par, ser, "T={t}");
        }
    }

    #[test]
    fn parallel_latency_sweep_equals_serial() {
        let g = benchmarks::cosine();
        let lib = paper_library();
        let lats = [10, 12, 15, 19, 25];
        let par = sweep(&g, SweepSpec::latency(30.0, lats.to_vec()));
        let ser = latency_sweep_serial(&g, &lib, 30.0, &lats, &SynthesisOptions::default());
        assert_eq!(par, ser);
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let g = benchmarks::hal();
        let mut all = Vec::new();
        for t in [10, 17] {
            all.extend(sweep(&g, SweepSpec::power(t, vec![10.0, 20.0, 40.0])));
        }
        let front = pareto_front(&all);
        assert!(!front.is_empty());
        assert!(front.len() <= all.iter().filter(|p| p.is_feasible()).count());
        // No point on the front dominates another front point.
        for a in &front {
            for b in &front {
                if a == b {
                    continue;
                }
                let dominates = b.power_bound <= a.power_bound
                    && b.latency_bound <= a.latency_bound
                    && b.area <= a.area
                    && (b.power_bound < a.power_bound
                        || b.latency_bound < a.latency_bound
                        || b.area < a.area);
                assert!(!dominates, "{b:?} dominates {a:?}");
            }
        }
    }
}
