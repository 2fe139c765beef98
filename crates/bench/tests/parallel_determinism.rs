//! The tentpole guarantee of the parallel exploration layer: fanning
//! grid points across cores must not change a single byte of the output.
//! Every Figure 2 curve is swept both ways (whole-figure
//! `Engine::sweep_batch` fan-out vs. the serial reference) over a
//! thinned power grid and compared for exact equality.

use pchls_bench::{figure2_curves, figure2_power_grid};
use pchls_core::{power_sweep_serial, Engine, SweepJob, SweepSpec, SynthesisOptions};
use pchls_fulib::paper_library;

/// Every 5th point of the Figure 2 grid: spans the whole axis (including
/// the infeasible low-power edge and the flat high-power tail) at a cost
/// debug-mode CI can afford.
fn thinned_grid() -> Vec<f64> {
    figure2_power_grid().into_iter().step_by(5).collect()
}

#[test]
fn sweep_batch_equals_serial_on_all_figure2_curves() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let curves = figure2_curves();
    let grid = thinned_grid();
    let compiled: Vec<_> = curves.iter().map(|(g, _)| engine.compile(g)).collect();
    let jobs: Vec<SweepJob<'_>> = curves
        .iter()
        .zip(&compiled)
        .map(|((_, latency), c)| SweepJob {
            compiled: c,
            spec: SweepSpec::power(*latency, grid.clone()),
        })
        .collect();
    let parallel = engine.sweep_batch(&jobs, &SynthesisOptions::default());
    assert_eq!(parallel.len(), curves.len());
    for ((graph, latency), curve) in curves.iter().zip(&parallel) {
        let serial = power_sweep_serial(graph, &lib, *latency, &grid, &SynthesisOptions::default());
        assert_eq!(
            curve.points,
            serial,
            "{} T={latency} diverged",
            graph.name()
        );
    }
}

#[test]
fn per_curve_parallel_sweep_equals_serial_on_all_figure2_curves() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let grid = thinned_grid();
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let parallel = engine.session(&compiled).sweep(
            &SweepSpec::power(latency, grid.clone()),
            &SynthesisOptions::default(),
        );
        let serial = power_sweep_serial(&graph, &lib, latency, &grid, &SynthesisOptions::default());
        assert_eq!(
            parallel.points,
            serial,
            "{} T={latency} diverged",
            graph.name()
        );
    }
}

#[test]
fn parallel_sweeps_are_reproducible_across_runs() {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&pchls_cdfg::benchmarks::elliptic());
    let spec = SweepSpec::power(22, thinned_grid());
    let a = engine
        .session(&compiled)
        .sweep(&spec, &SynthesisOptions::default());
    let b = engine
        .session(&compiled)
        .sweep(&spec, &SynthesisOptions::default());
    assert_eq!(a, b);
}

/// The kernel-level guarantee: `synthesize` at the host's thread count
/// must reproduce the one-thread decision trace — designs *and* effort
/// counters — on every Figure 2 curve, across the whole power axis
/// (feasible and infeasible points alike).
#[test]
fn kernel_parallel_scoring_reproduces_serial_trace_on_figure2_curves() {
    let engine = Engine::new(paper_library());
    let opts = SynthesisOptions::default();
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        for power in thinned_grid() {
            let constraints = pchls_core::SynthesisConstraints::new(latency, power);
            let serial =
                pchls_par::with_thread_count(1, || session.synthesize(constraints.clone(), &opts));
            let parallel = session.synthesize(constraints, &opts);
            match (serial, parallel) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{} T={latency} P={power} design", graph.name());
                    assert_eq!(
                        a.stats,
                        b.stats,
                        "{} T={latency} P={power} trace",
                        graph.name()
                    );
                }
                (Err(_), Err(_)) => {}
                (s, p) => panic!(
                    "{} T={latency} P={power}: feasibility diverged (serial ok: {}, parallel ok: {})",
                    graph.name(),
                    s.is_ok(),
                    p.is_ok()
                ),
            }
        }
    }
}

/// Larger-than-paper graphs (60 ops, wide iterations from the start)
/// must reproduce the one-thread trace too.
#[test]
fn kernel_parallel_scoring_reproduces_serial_trace_on_large_random_graphs() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    for seed in [11, 12] {
        let graph = pchls_cdfg::random_dag(&pchls_cdfg::RandomDagConfig {
            ops: 60,
            inputs: 6,
            outputs: 3,
            mul_permille: 300,
            depth_bias: 2,
            seed,
        });
        let timing = pchls_sched::TimingMap::from_policy(
            &graph,
            &lib,
            pchls_fulib::SelectionPolicy::Fastest,
        );
        let latency = pchls_sched::asap(&graph, &timing).latency(&timing) * 2;
        let constraints = pchls_core::SynthesisConstraints::new(latency, 60.0);
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        let serial =
            pchls_par::with_thread_count(1, || session.synthesize(constraints.clone(), &opts))
                .expect("feasible");
        let parallel = session.synthesize(constraints, &opts).expect("feasible");
        assert_eq!(serial, parallel, "seed {seed} design");
        assert_eq!(serial.stats, parallel.stats, "seed {seed} trace");
    }
}
