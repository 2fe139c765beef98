//! Independent checks of the program's outputs. A design is checked
//! against its constraints from its schedule, its binding and the
//! module library alone: the design's own `latency`, `peak_power` and
//! timing map are not trusted.

use pchls_cdfg::{parse_cdfg, Cdfg};
use pchls_core::{
    Engine, SweepPoint, SynthesisConstraints, SynthesisError, SynthesisOptions, SynthesisRequest,
    SynthesisResult, SynthesizedDesign,
};
use pchls_fulib::ModuleLibrary;

/// Tolerance of the per-cycle power comparison (sums of table powers).
const POWER_EPS: f64 = 1e-9;

/// Checks `design` for `graph` under `constraints`: every op bound to a
/// module implementing it, data dependencies respected, no two ops
/// overlapping on one instance, finished by `T`, the per-cycle power of
/// the schedule within the budget at every cycle, and the reported area
/// equal to the bound modules' area.
pub fn check_design(
    graph: &Cdfg,
    library: &ModuleLibrary,
    design: &SynthesizedDesign,
    constraints: &SynthesisConstraints,
) -> Result<(), String> {
    let starts = design.schedule.starts();
    if starts.len() != graph.len() {
        return Err(format!(
            "schedule covers {} of {} ops",
            starts.len(),
            graph.len()
        ));
    }
    let mut finish = vec![0u32; graph.len()];
    let mut power_of = vec![0.0f64; graph.len()];
    for id in graph.node_ids() {
        let i = id.index();
        let instance = design
            .binding
            .instance_of(id)
            .ok_or_else(|| format!("op {id} is unbound"))?;
        let module = library.module(design.binding.instance(instance).module());
        if !module.implements(graph.node(id).kind()) {
            return Err(format!(
                "op {id} bound to {} which cannot run it",
                module.name()
            ));
        }
        finish[i] = starts[i] + module.latency();
        power_of[i] = module.power();
    }
    for id in graph.node_ids() {
        for src in graph.operands(id) {
            if finish[src.index()] > starts[id.index()] {
                return Err(format!("op {id} starts before its operand {src} finishes"));
            }
        }
    }
    let mut area = 0u64;
    for instance in design.binding.instances() {
        area += u64::from(library.module(instance.module()).area());
        let mut ops: Vec<usize> = instance.ops().iter().map(|o| o.index()).collect();
        ops.sort_by_key(|&o| starts[o]);
        for pair in ops.windows(2) {
            if finish[pair[0]] > starts[pair[1]] {
                return Err(format!(
                    "ops n{} and n{} overlap on one unit",
                    pair[0], pair[1]
                ));
            }
        }
    }
    if area != design.area {
        return Err(format!(
            "reported area {} but bound modules sum to {area}",
            design.area
        ));
    }
    let latency = finish.iter().copied().max().unwrap_or(0);
    if latency > constraints.latency {
        return Err(format!(
            "latency {latency} exceeds T = {}",
            constraints.latency
        ));
    }
    let mut per_cycle = vec![0.0f64; latency as usize];
    for (i, &s) in starts.iter().enumerate() {
        for c in s..finish[i] {
            per_cycle[c as usize] += power_of[i];
        }
    }
    for (c, &p) in per_cycle.iter().enumerate() {
        let bound = constraints.budget.bound_at(c as u32);
        if p > bound + POWER_EPS {
            return Err(format!("cycle {c} draws {p} over the bound {bound}"));
        }
    }
    Ok(())
}

/// A direct serial synthesis of one point: the reference every served
/// and resumed answer must equal byte for byte.
pub struct Reference {
    /// The point, serialized exactly as the wire and the sweeps emit it.
    pub point_json: String,
    /// The design's area, when the point is feasible.
    pub area: Option<u64>,
    /// The design's effort counters: decisions, backtracks, rejected
    /// candidates, fast commits (zero when infeasible).
    pub stats: [usize; 4],
    /// Why the reference itself failed its checks, if it did.
    pub violation: Option<String>,
}

/// Synthesizes `constraints` on `text` serially (one thread, no
/// fan-out) and checks the design.
pub fn reference(engine: &Engine, text: &str, constraints: &SynthesisConstraints) -> Reference {
    let graph = match parse_cdfg(text) {
        Ok(g) => g,
        Err(e) => {
            return Reference {
                point_json: String::new(),
                area: None,
                stats: [0; 4],
                violation: Some(format!("reference parse: {e}")),
            }
        }
    };
    let compiled = engine.compile(&graph);
    let outcome = pchls_par::with_thread_count(1, || {
        engine
            .session(&compiled)
            .synthesize(constraints.clone(), &SynthesisOptions::default())
    });
    let violation = outcome_violation(&graph, engine.library(), &outcome, constraints);
    let area = outcome.as_ref().ok().map(|d| d.area);
    let stats = outcome.as_ref().map_or([0; 4], |d| {
        let s = d.stats;
        [
            s.decisions,
            s.backtracks,
            s.rejected_candidates,
            s.fast_commits,
        ]
    });
    let point = SynthesisResult {
        request: SynthesisRequest::new(constraints.clone()),
        outcome,
    }
    .to_point(compiled.name());
    Reference {
        point_json: point_json(&point),
        area,
        stats,
        violation,
    }
}

/// Why a synthesis outcome is wrong, if it is: an infeasible verdict is
/// a valid answer; any other error, or a design that breaks its
/// constraints, is not.
pub fn outcome_violation(
    graph: &Cdfg,
    library: &ModuleLibrary,
    outcome: &Result<SynthesizedDesign, SynthesisError>,
    constraints: &SynthesisConstraints,
) -> Option<String> {
    match outcome {
        Ok(design) => check_design(graph, library, design, constraints).err(),
        Err(SynthesisError::Infeasible { .. }) => None,
        Err(e) => Some(format!("synthesis error: {e}")),
    }
}

/// The canonical serialized form of a point.
pub fn point_json(point: &SweepPoint) -> String {
    serde_json::to_string(point).expect("points serialize")
}

/// Runs `f` over `items` on every available core, each call serial
/// inside (the checks must not depend on the fan-out under test).
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break local;
                        };
                        local.push((i, pchls_par::with_thread_count(1, || f(item))));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}
