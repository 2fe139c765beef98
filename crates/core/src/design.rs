//! The result of synthesis: a fully scheduled, allocated and bound
//! design.

use serde::{Deserialize, Serialize};

use pchls_bind::{Binding, InterconnectEstimate, RegisterAllocation};
use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;
use pchls_sched::{PowerProfile, Schedule, TimingMap};

use crate::constraints::SynthesisConstraints;
use crate::error::SynthesisError;

/// Counters describing how hard the greedy loop had to work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SynthesisStats {
    /// Binding decisions committed (one per operation).
    pub decisions: usize,
    /// Paper-style backtracks (undo last decision + lock all unscheduled
    /// operations to the last valid `pasap` schedule).
    pub backtracks: usize,
    /// Candidate decisions rejected by the per-decision feasibility
    /// check before commitment.
    pub rejected_candidates: usize,
    /// Commits whose feasibility was proven without re-running the
    /// scheduler (the decision locked operations exactly at their
    /// provisional starts with unchanged timing).
    #[serde(default)]
    pub fast_commits: usize,
}

/// A complete synthesized datapath: schedule, module timing, binding and
/// the derived metrics the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesizedDesign {
    /// Start cycle of every operation.
    pub schedule: Schedule,
    /// Final per-operation delay/power (consistent with the binding).
    pub timing: TimingMap,
    /// Functional-unit instances and the operation → instance map.
    pub binding: Binding,
    /// Total functional-unit area (the paper's y-axis in Figure 2).
    pub area: u64,
    /// Achieved latency in cycles.
    pub latency: u32,
    /// Peak per-cycle power of the design.
    pub peak_power: f64,
    /// The constraints the design was synthesized under.
    pub constraints: SynthesisConstraints,
    /// Effort counters from the synthesis loop (zero for baselines).
    #[serde(default)]
    pub stats: SynthesisStats,
}

impl SynthesizedDesign {
    /// Assembles a design from its parts, computing the metrics.
    #[must_use]
    pub fn assemble(
        schedule: Schedule,
        timing: TimingMap,
        binding: Binding,
        library: &ModuleLibrary,
        constraints: SynthesisConstraints,
    ) -> SynthesizedDesign {
        let area = binding.area(library);
        let latency = schedule.latency(&timing);
        let peak_power = PowerProfile::of(&schedule, &timing).peak();
        SynthesizedDesign {
            schedule,
            timing,
            binding,
            area,
            latency,
            peak_power,
            constraints,
            stats: SynthesisStats::default(),
        }
    }

    /// The design's per-cycle power profile.
    #[must_use]
    pub fn power_profile(&self) -> PowerProfile {
        PowerProfile::of(&self.schedule, &self.timing)
    }

    /// Per-cycle power profile including the static (idle) draw of every
    /// allocated unit in the cycles it executes nothing.
    ///
    /// With the paper's idle-free library this equals
    /// [`power_profile`](Self::power_profile); with
    /// [`ModuleSpec::with_idle_power`](pchls_fulib::ModuleSpec::with_idle_power)
    /// it exposes the leakage trade-off sharing creates: fewer units mean
    /// a lower idle floor.
    #[must_use]
    pub fn power_profile_with_idle(&self, library: &ModuleLibrary) -> PowerProfile {
        let latency = self.latency as usize;
        let mut per_cycle = vec![0.0f64; latency];
        for inst in self.binding.instances() {
            let module = library.module(inst.module());
            let mut busy = vec![false; latency];
            for &op in inst.ops() {
                for c in self.schedule.start(op)..self.schedule.finish(op, &self.timing) {
                    busy[c as usize] = true;
                }
            }
            // Active draw is accounted per-op below; idle cycles leak.
            for (c, cell) in per_cycle.iter_mut().enumerate() {
                if !busy[c] {
                    *cell += module.idle_power();
                }
            }
        }
        let active = PowerProfile::of(&self.schedule, &self.timing);
        for (cell, &a) in per_cycle.iter_mut().zip(active.per_cycle()) {
            *cell += a;
        }
        PowerProfile::from_cycles(per_cycle)
    }

    /// Left-edge register allocation for the design.
    #[must_use]
    pub fn registers(&self, graph: &Cdfg) -> RegisterAllocation {
        RegisterAllocation::left_edge(graph, &self.schedule, &self.timing)
    }

    /// Multiplexer fan-in estimate for the design.
    #[must_use]
    pub fn interconnect(&self, graph: &Cdfg) -> InterconnectEstimate {
        InterconnectEstimate::of(graph, &self.binding, &self.registers(graph))
    }

    /// Re-validates every invariant: dependences, the latency and power
    /// bounds, binding completeness, kind/timing consistency and
    /// non-overlap on shared units.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, graph: &Cdfg, library: &ModuleLibrary) -> Result<(), SynthesisError> {
        self.schedule
            .validate(
                graph,
                &self.timing,
                Some(self.constraints.latency),
                Some(&self.constraints.budget),
            )
            .map_err(SynthesisError::Schedule)?;
        self.binding
            .validate(graph, library, &self.schedule, &self.timing)?;
        Ok(())
    }

    /// One-line human summary (`area`, `latency`, `peak`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "area={} latency={} peak_power={:.1} units={}",
            self.area,
            self.latency,
            self.peak_power,
            self.binding.instances().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_bind::CostWeights;
    use pchls_cdfg::benchmarks::hal;
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::asap;

    fn sample() -> (Cdfg, ModuleLibrary, SynthesizedDesign) {
        let g = hal();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = pchls_bind::bind_schedule(&g, &lib, &s, &t, &CostWeights::default()).unwrap();
        let c = SynthesisConstraints::latency_only(20);
        let d = SynthesizedDesign::assemble(s, t, b, &lib, c);
        (g, lib, d)
    }

    #[test]
    fn assemble_computes_consistent_metrics() {
        let (g, lib, d) = sample();
        assert_eq!(d.area, d.binding.area(&lib));
        assert_eq!(d.latency, d.schedule.latency(&d.timing));
        assert!((d.peak_power - d.power_profile().peak()).abs() < 1e-12);
        d.validate(&g, &lib).unwrap();
    }

    #[test]
    fn validate_rejects_violated_power_bound() {
        let (g, lib, mut d) = sample();
        d.constraints = SynthesisConstraints::new(20, d.peak_power / 2.0);
        assert!(matches!(
            d.validate(&g, &lib),
            Err(SynthesisError::Schedule(_))
        ));
    }

    #[test]
    fn summary_mentions_area() {
        let (_, _, d) = sample();
        assert!(d.summary().contains(&format!("area={}", d.area)));
    }

    #[test]
    fn registers_and_interconnect_are_available() {
        let (g, _, d) = sample();
        assert!(d.registers(&g).count() > 0);
        let _ = d.interconnect(&g);
    }

    #[test]
    fn idle_free_library_gives_identical_profiles() {
        let (_, lib, d) = sample();
        let plain = d.power_profile();
        let with_idle = d.power_profile_with_idle(&lib);
        for (a, b) in plain.per_cycle().iter().zip(with_idle.per_cycle()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn idle_power_raises_the_floor() {
        use pchls_fulib::{ModuleLibrary, ModuleSpec, OpKind};
        let (g, _, d) = sample();
        // Same library shape, but every module leaks 0.2 per idle cycle.
        let leaky = ModuleLibrary::new([
            ModuleSpec::new("add", [OpKind::Add], 87, 1, 2.5).with_idle_power(0.2),
            ModuleSpec::new("sub", [OpKind::Sub], 87, 1, 2.5).with_idle_power(0.2),
            ModuleSpec::new("comp", [OpKind::Comp], 8, 1, 2.5).with_idle_power(0.2),
            ModuleSpec::new("ALU", [OpKind::Add, OpKind::Sub, OpKind::Comp], 97, 1, 2.5)
                .with_idle_power(0.2),
            ModuleSpec::new("mult_ser", [OpKind::Mul], 103, 4, 2.7).with_idle_power(0.2),
            ModuleSpec::new("mult_par", [OpKind::Mul], 339, 2, 8.1).with_idle_power(0.2),
            ModuleSpec::new("input", [OpKind::Input], 16, 1, 0.2).with_idle_power(0.2),
            ModuleSpec::new("output", [OpKind::Output], 16, 1, 1.7).with_idle_power(0.2),
        ])
        .unwrap();
        let plain = d.power_profile();
        let leaked = d.power_profile_with_idle(&leaky);
        let mut strictly_higher_somewhere = false;
        for (a, b) in plain.per_cycle().iter().zip(leaked.per_cycle()) {
            assert!(b + 1e-12 >= *a);
            if *b > a + 1e-12 {
                strictly_higher_somewhere = true;
            }
        }
        assert!(strictly_higher_somewhere);
        assert!(leaked.energy() > plain.energy());
        let _ = g;
    }
}
