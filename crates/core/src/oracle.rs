//! The exhaustive candidate selection, kept only as a test oracle for
//! the kernel's bounded one.
//!
//! The kernel's `select_candidates` skips every candidate whose best
//! possible key cannot beat the worst kept entry, and claims its top
//! list equals building *every* feasible decision and ranking them all.
//! This module builds every decision — in the canonical enumeration
//! order, through the same scoring functions with their bounds turned
//! off — sorts them with a stable full sort, and asserts the claim at
//! every iteration of a synthesis run
//! ([`Session::synthesize_against_oracle`]).
//!
//! Compiled only under `cfg(test)`; release builds carry no exhaustive
//! path. The differential tests below run in release in CI with
//! `cargo test --release -p pchls-core --lib oracle`.

use pchls_cdfg::{iter_and_above, NodeId};

use crate::constraints::SynthesisConstraints;
use crate::design::SynthesizedDesign;
use crate::engine::Session;
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::synthesis::{
    existing_decision, fresh_decision, pair_decision, synthesize_session_mode, Context, Decision,
    KernelMode, Selection, MAX_ATTEMPTS,
};

/// What one oracle-checked synthesis observed, one entry per checked
/// (cold) iteration, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OracleReport {
    /// Feasible decisions the oracle enumerated.
    pub(crate) candidates: Vec<usize>,
    /// Candidates and pair rows the bounded selection skipped.
    pub(crate) skipped: Vec<usize>,
    /// Whether the bounded selection called its list complete.
    pub(crate) complete: Vec<bool>,
}

impl OracleReport {
    /// Iterations checked.
    pub(crate) fn iterations(&self) -> usize {
        self.candidates.len()
    }

    /// Asserts the bounded selection's top list equals the exhaustive
    /// one, element for element and bit for bit, and records the
    /// iteration.
    pub(crate) fn check(
        &mut self,
        ctx: &Context<'_>,
        unbound_vec: &[NodeId],
        unbound_words: &[u64],
        selection: &mut Selection,
    ) {
        let (expected, total) = exhaustive_top(ctx, unbound_vec, unbound_words);
        self.skipped.push(selection.skipped);
        self.complete.push(selection.complete());
        let got: Vec<Decision> = selection.sorted().iter().map(|r| r.decision).collect();
        let bits = |ds: &[Decision]| -> Vec<u64> { ds.iter().map(|d| d.score.to_bits()).collect() };
        assert!(
            got == expected && bits(&got) == bits(&expected),
            "iteration {}: bounded selection diverged from the exhaustive oracle \
             ({total} candidates)\n bounded: {got:?}\n  oracle: {expected:?}",
            self.candidates.len()
        );
        assert_eq!(
            selection.complete(),
            total <= MAX_ATTEMPTS && selection.skipped == 0,
            "completeness flag"
        );
        self.candidates.push(total);
    }
}

/// Every feasible decision in the canonical enumeration order (each
/// op's singles, then every pair), ranked by a stable full sort on
/// `(score desc, start, op)` — stability supplies the enumeration-index
/// tie-break — and truncated to the attempt cap. Returns the list and
/// the number of decisions built.
fn exhaustive_top(
    ctx: &Context<'_>,
    unbound_vec: &[NodeId],
    unbound_words: &[u64],
) -> (Vec<Decision>, usize) {
    let mut all = Vec::new();
    for &u in unbound_vec {
        for &m in ctx.modules_for(u) {
            for &iid in &ctx.by_module[m.index()] {
                all.extend(existing_decision(ctx, u, m, iid, |_, _| true));
            }
            all.extend(fresh_decision(ctx, u, m));
        }
    }
    for &u in unbound_vec {
        for v in iter_and_above(unbound_words, ctx.compat_row(u), u.index()) {
            let (first, second) = ctx.dependence_order(u, v);
            for &m in ctx.modules_for(first) {
                all.extend(pair_decision(ctx, first, second, m, |_, _| true));
            }
        }
    }
    let total = all.len();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.start.cmp(&b.start))
            .then(a.op.cmp(&b.op))
    });
    all.truncate(MAX_ATTEMPTS);
    (all, total)
}

impl Session<'_> {
    /// [`synthesize`](Session::synthesize), checking at every cold
    /// iteration that the bounded candidate selection returns exactly
    /// the exhaustive oracle's ordered top list.
    ///
    /// # Panics
    ///
    /// At the first iteration whose lists differ.
    pub(crate) fn synthesize_against_oracle(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> (Result<SynthesizedDesign, SynthesisError>, OracleReport) {
        let mut report = OracleReport::default();
        let design = synthesize_session_mode(
            self.engine(),
            self.compiled(),
            &constraints,
            options,
            None,
            KernelMode::Oracle(&mut report),
        );
        (design, report)
    }
}

/// Differential tests: bounded selection against the oracle across
/// random graphs, constraint points and cost weights, including
/// negative and zero weights and both ablation switches.
mod tests {
    use proptest::prelude::*;

    use pchls_bind::CostWeights;
    use pchls_cdfg::{random_dag, RandomDagConfig};
    use pchls_fulib::paper_library;

    use crate::{Engine, SynthesisConstraints, SynthesisOptions};

    const AREA: [f64; 5] = [1.0, 0.0, -1.0, 2.5, 0.25];
    const INTERCONNECT: [f64; 5] = [0.1, 0.0, -0.1, 3.0, -2.0];
    const DISPLACEMENT: [f64; 5] = [0.0, 0.5, -0.5, 4.0, -3.0];

    /// Synthesizes under the oracle, checks the oracle run returns the plain
    /// run's exact outcome, and returns the number of iterations checked and
    /// how many of them skipped something.
    fn check(
        ops: usize,
        graph_seed: u64,
        mul_permille: u32,
        slack: u32,
        power_scale: f64,
        options: &SynthesisOptions,
    ) -> (usize, usize) {
        let graph = random_dag(&RandomDagConfig {
            ops,
            seed: graph_seed,
            mul_permille,
            ..RandomDagConfig::default()
        });
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        let latency = compiled.min_latency() + slack;
        let power = compiled.asap_peak_power() * power_scale;
        let constraints = SynthesisConstraints::new(latency, power);
        let (checked, report) = session.synthesize_against_oracle(constraints.clone(), options);
        let plain = session.synthesize(constraints, options);
        match (&checked, &plain) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "oracle mode perturbed the design");
                assert_eq!(
                    a.stats, b.stats,
                    "oracle mode perturbed the effort counters"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("oracle mode changed feasibility: {checked:?} vs {plain:?}"),
        }
        let pruned = report.skipped.iter().filter(|&&s| s > 0).count();
        (report.iterations(), pruned)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded top list equals the exhaustive ranking's at every
        /// iteration, for any sign of any cost weight.
        #[test]
        fn bounded_selection_equals_the_exhaustive_oracle(
            ops in 10usize..64,
            graph_seed in any::<u64>(),
            mul_permille in 0u32..800,
            slack in 0u32..12,
            power_step in 0u32..4,
            area in 0usize..5,
            interconnect in 0usize..5,
            displacement in 0usize..5,
            interconnect_scoring in any::<bool>(),
            module_selection in any::<bool>(),
        ) {
            let options = SynthesisOptions::builder()
                .weights(CostWeights {
                    area: AREA[area],
                    interconnect: INTERCONNECT[interconnect],
                    displacement: DISPLACEMENT[displacement],
                })
                .interconnect_scoring(interconnect_scoring)
                .module_selection(module_selection)
                .build();
            // From a quarter of the ASAP peak (often infeasible or
            // backtracking) to unconstrained.
            let power_scale = [0.25, 0.5, 1.0, 1e3][power_step as usize];
            check(ops, graph_seed, mul_permille, slack, power_scale, &options);
        }
    }

    /// The default weights on graphs large enough that most iterations have
    /// far more than 64 candidates: the bounds must actually skip work, and
    /// the lists must still match.
    #[test]
    fn default_weights_prune_and_still_match() {
        let options = SynthesisOptions::default();
        let mut pruned = 0;
        for (ops, seed, slack) in [(70, 3, 4), (90, 11, 20)] {
            let (iterations, p) = check(ops, seed, 300, slack, 1.0, &options);
            assert!(
                iterations > 10,
                "{ops} ops: only {iterations} iterations checked"
            );
            pruned += p;
        }
        assert!(
            pruned > 0,
            "no iteration skipped anything: the bounds are inert"
        );
    }

    /// Negative displacement rewards late starts, so the displacement
    /// ceiling is the only thing standing between a skipped candidate and
    /// the top list.
    #[test]
    fn negative_displacement_keeps_late_starts() {
        let options = SynthesisOptions::builder()
            .weights(CostWeights {
                area: 1.0,
                interconnect: 0.1,
                displacement: -2.0,
            })
            .build();
        let (iterations, _) = check(60, 29, 400, 16, 1e3, &options);
        assert!(iterations > 10);
    }

    /// A heavy interconnect weight on multiplier-rich graphs: merges onto
    /// existing instances then rank on their shared connections, so the
    /// merge bound must take the interconnect term at its ceiling.
    #[test]
    fn heavy_interconnect_keeps_merges() {
        let options = SynthesisOptions::builder()
            .weights(CostWeights {
                area: 1.0,
                interconnect: 3.0,
                displacement: 0.0,
            })
            .build();
        for (ops, seed, slack) in [(40, 7, 20), (80, 1, 0)] {
            let (iterations, _) = check(ops, seed, 600, slack, 1e3, &options);
            assert!(iterations > 10);
        }
    }
}
