//! API-equivalence guarantees of the session API: a shared `Engine`
//! must produce **identical** designs — and identical `figure2.json`
//! bytes — to the "shim path" of a fresh `Engine` and compile per call
//! (what one-shot callers pay), on all paper benchmarks, and
//! `Session::batch` must match one-at-a-time synthesis on arbitrary
//! request lists.

use proptest::prelude::*;

use pchls::cdfg::{benchmarks, Cdfg};
use pchls::core::{
    Engine, Session, SweepJob, SweepResult, SweepSpec, SynthesisConstraints, SynthesisOptions,
    SynthesisRequest,
};
use pchls::fulib::paper_library;

/// Runs `f` on a session over a fresh engine and a fresh compile of
/// `g`: the one-shot shim path the shared engine is compared against.
fn fresh<R>(g: &Cdfg, f: impl FnOnce(&Session<'_>) -> R) -> R {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(g);
    f(&engine.session(&compiled))
}

/// The Figure 2 curves, `(graph, T)`, in legend order.
fn figure2_curves() -> Vec<(pchls::cdfg::Cdfg, u32)> {
    vec![
        (benchmarks::hal(), 10),
        (benchmarks::hal(), 17),
        (benchmarks::cosine(), 12),
        (benchmarks::cosine(), 15),
        (benchmarks::cosine(), 19),
        (benchmarks::elliptic(), 22),
    ]
}

/// Every 5th point of the Figure 2 power grid — spans the axis at
/// debug-build cost.
fn thinned_grid() -> Vec<f64> {
    (1..=60).map(|i| f64::from(i) * 2.5).step_by(5).collect()
}

#[test]
fn shim_and_session_designs_are_identical_on_paper_benchmarks() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    for g in benchmarks::paper_set() {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        for (t, p) in [(10u32, 40.0), (17, 25.0), (22, 12.0), (30, 60.0)] {
            let c = SynthesisConstraints::new(t, p);
            let old = fresh(&g, |s| s.synthesize(c.clone(), &opts));
            let new = session.synthesize(c, &opts);
            match (old, new) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{} T={t} P={p}", g.name());
                    assert_eq!(a.stats, b.stats, "{} T={t} P={p} trace", g.name());
                }
                (Err(_), Err(_)) => {}
                (o, n) => panic!(
                    "{} T={t} P={p}: feasibility diverged (old ok: {}, new ok: {})",
                    g.name(),
                    o.is_ok(),
                    n.is_ok()
                ),
            }
        }
    }
}

#[test]
fn shim_and_session_refined_and_portfolio_are_identical() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    for g in benchmarks::paper_set() {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let c = SynthesisConstraints::new(25, 40.0);
        assert_eq!(
            fresh(&g, |s| s.synthesize_refined(c.clone(), &opts)).ok(),
            session.synthesize_refined(c.clone(), &opts).ok(),
            "{} refined",
            g.name()
        );
        assert_eq!(
            fresh(&g, |s| s.synthesize_portfolio(c.clone(), &opts)).ok(),
            session.synthesize_portfolio(c, &opts).ok(),
            "{} portfolio",
            g.name()
        );
    }
}

#[test]
fn figure2_json_bytes_are_identical_between_shim_and_session_paths() {
    // The exact serialization pipeline behind results/figure2.json, both
    // ways, on every paper curve (thinned grid — the byte-equality
    // guarantee is per point, so grid density changes nothing).
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    let grid = thinned_grid();

    let mut old_points = Vec::new();
    let mut new_points = Vec::new();
    for (g, t) in figure2_curves() {
        old_points.extend(fresh(&g, |s| {
            s.sweep(&SweepSpec::power(t, grid.clone()), &opts)
                .into_points()
        }));
        let compiled = engine.compile(&g);
        new_points.extend(
            engine
                .session(&compiled)
                .sweep(&SweepSpec::power(t, grid.clone()), &opts)
                .into_points(),
        );
    }
    let old_json = serde_json::to_vec(&old_points).unwrap();
    let new_json = serde_json::to_vec(&new_points).unwrap();
    assert_eq!(old_json, new_json, "figure2.json bytes diverged");

    // The whole-figure fan-outs agree too.
    let curves = figure2_curves();
    let batch_engine = Engine::new(lib.clone());
    let compiled: Vec<_> = curves
        .iter()
        .map(|(g, _)| batch_engine.compile(g))
        .collect();
    let jobs: Vec<SweepJob<'_>> = curves
        .iter()
        .zip(&compiled)
        .map(|((_, t), compiled)| SweepJob {
            compiled,
            spec: SweepSpec::power(*t, grid.clone()),
        })
        .collect();
    let many: Vec<_> = batch_engine
        .sweep_batch(&jobs, &opts)
        .into_iter()
        .flat_map(SweepResult::into_points)
        .collect();
    let many_json = serde_json::to_vec(&many).unwrap();
    assert_eq!(many_json, new_json, "sweep_many bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random `(T, P<)` request batches through `Session::batch` match
    /// one-at-a-time `synthesize` — same designs, same feasibility, in
    /// request order.
    #[test]
    fn random_request_batches_match_one_at_a_time_synthesis(
        points in proptest::collection::vec((5u32..40, 4.0f64..120.0), 1..12),
        pick_cosine in any::<bool>(),
    ) {
        let g = if pick_cosine { benchmarks::cosine() } else { benchmarks::hal() };
        let lib = paper_library();
        let engine = Engine::new(lib.clone());
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();

        let requests: Vec<SynthesisRequest> = points
            .iter()
            .map(|&(t, p)| SynthesisRequest::new(SynthesisConstraints::new(t, p)))
            .collect();
        let results = session.batch(requests.clone());
        prop_assert_eq!(results.len(), requests.len());
        for (r, &(t, p)) in results.iter().zip(&points) {
            let c = SynthesisConstraints::new(t, p);
            prop_assert_eq!(r.request.constraints.clone(), c.clone());
            let single = session.synthesize(c.clone(), &opts);
            let old = fresh(&g, |s| s.synthesize(c.clone(), &opts));
            match (&r.outcome, single, old) {
                (Ok(b), Ok(s), Ok(o)) => {
                    prop_assert_eq!(b, &s, "batch vs single at T={} P={}", t, p);
                    prop_assert_eq!(b, &o, "batch vs shim at T={} P={}", t, p);
                }
                (Err(_), Err(_), Err(_)) => {}
                (b, s, o) => prop_assert!(
                    false,
                    "feasibility diverged at T={} P={}: batch {}, single {}, shim {}",
                    t, p, b.is_ok(), s.is_ok(), o.is_ok()
                ),
            }
        }
    }
}
