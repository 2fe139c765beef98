//! `synth-cold`: each graph synthesized once, as `pchls synth` does it —
//! parse the `.dfg` text, fingerprint, compile, synthesize at one
//! `(T, P<)` point. The kernel and its in-kernel fan-out do almost all
//! the work; the store, the service and the network stay idle.
//!
//! The set is synthesized in rounds, each from a fresh engine (the
//! engine caches nothing across `compile` calls, so every design is
//! cold), and each figure is the median over the rounds: a burst of
//! interference from the host moves one round, not the result.

use std::fmt::Write as _;
use std::time::Instant;

use pchls_cdfg::{graph_fingerprint, parse_cdfg};
use pchls_core::{
    Engine, SynthesisConstraints, SynthesisError, SynthesisOptions, SynthesizedDesign,
};
use pchls_fulib::paper_library;

use crate::check::outcome_violation;
use crate::gen::{self, SynthJob, PAPER_GRAPHS};
use crate::layers::Layers;
use crate::{digest, quantile, timed_setup, Outcome, Settings};

/// The design set: the three paper graphs and two full blocks of the
/// 21-step size ladder (40 to 240 ops).
const DESIGNS: usize = 3 + 2 * 21;

/// Fewest rounds of an untraced run (more while `--seconds` lasts).
const MIN_ROUNDS: usize = 1;

/// Untraced rounds of a traced run, before its traced and one-thread
/// rounds.
const TRACED_RUN_ROUNDS: usize = 1;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 15;

/// One round over the design set.
struct Round {
    /// Per design: seconds from text to design.
    secs: Vec<f64>,
    /// Summed per-design seconds (the checks between designs and the
    /// tracer drains are outside it).
    busy_s: f64,
    /// Per design: digest of the serialized outcome.
    digests: Vec<u64>,
    layers: Layers,
}

type SynthOutcome = Result<SynthesizedDesign, SynthesisError>;

/// Synthesizes every job with a fresh engine; `inspect` sees each
/// outcome outside the timed region.
fn round(jobs: &[SynthJob], traced: bool, inspect: &mut dyn FnMut(usize, &SynthOutcome)) -> Round {
    let engine = Engine::new(paper_library());
    let mut layers = Layers::new(traced);
    let (mut secs, mut digests, mut busy_s) = (Vec::new(), Vec::new(), 0.0);
    for (i, job) in jobs.iter().enumerate() {
        pchls_obs::set_enabled(traced);
        let t0 = Instant::now();
        let graph = layers
            .call("call:cdfg.parse", || parse_cdfg(&job.text))
            .expect("generated graphs parse");
        std::hint::black_box(layers.call("call:cdfg.fingerprint", || graph_fingerprint(&graph)));
        let compiled = layers
            .call("call:core.compile", || engine.try_compile(&graph))
            .expect("generated graphs compile");
        let outcome = layers.call("call:core.synthesize", || {
            engine.session(&compiled).synthesize(
                SynthesisConstraints::new(job.latency, job.power),
                &SynthesisOptions::default(),
            )
        });
        let s = t0.elapsed().as_secs_f64();
        layers.drain();
        busy_s += s;
        secs.push(s);
        digests.push(match &outcome {
            Ok(d) => digest(
                serde_json::to_string(d)
                    .expect("designs serialize")
                    .as_bytes(),
            ),
            Err(e) => digest(e.to_string().as_bytes()),
        });
        inspect(i, &outcome);
    }
    pchls_obs::set_enabled(false);
    Round {
        secs,
        busy_s,
        digests,
        layers,
    }
}

/// What the first round's checks found.
#[derive(Default)]
struct Quality {
    area: u64,
    feasible: usize,
    /// Summed effort counters: decisions, backtracks, rejected
    /// candidates, fast commits.
    stats: [usize; 4],
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let jobs = gen::synth_cold_jobs(s.seed, s.part, DESIGNS);
    let (setup_s, engine) = timed_setup(
        SETUP_REPS,
        || {
            let engine = Engine::new(paper_library());
            for ((_, text), (latency, power)) in
                PAPER_GRAPHS
                    .iter()
                    .zip([(20, 40.0), (20, 60.0), (25, 40.0)])
            {
                let graph = parse_cdfg(text).expect("paper graphs parse");
                let compiled = engine.compile(&graph);
                let warm = engine.session(&compiled).synthesize(
                    SynthesisConstraints::new(latency, power),
                    &SynthesisOptions::default(),
                );
                std::hint::black_box(warm.ok());
            }
            engine
        },
        drop,
    );
    let lib = engine.library();

    // Round one checks every design against its constraints, from its
    // schedule and the library; later rounds must repeat it byte for byte.
    let mut quality = Quality::default();
    let first = round(&jobs, false, &mut |i, outcome| {
        let job = &jobs[i];
        let graph = parse_cdfg(&job.text).expect("generated graphs parse");
        let constraints = SynthesisConstraints::new(job.latency, job.power);
        let violation = outcome_violation(&graph, lib, outcome, &constraints);
        out.check(
            || format!("{}: {}", job.name, violation.clone().unwrap_or_default()),
            violation.is_none(),
        );
        if let Ok(d) = outcome {
            quality.area += d.area;
            quality.feasible += 1;
            let st = d.stats;
            for (sum, v) in quality.stats.iter_mut().zip([
                st.decisions,
                st.backtracks,
                st.rejected_candidates,
                st.fast_commits,
            ]) {
                *sum += v;
            }
        }
    });
    let mut rounds = vec![first];
    let want = if s.traced {
        TRACED_RUN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    while rounds.len() < want
        || (!s.traced && rounds.iter().map(|r| r.busy_s).sum::<f64>() < s.seconds)
    {
        rounds.push(round(&jobs, false, &mut |_, _| {}));
    }
    for (r, round) in rounds.iter().enumerate().skip(1) {
        compare(
            &mut out,
            &jobs,
            &rounds[0].digests,
            &round.digests,
            &format!("round {}", r + 1),
        );
    }

    let busy: Vec<f64> = rounds.iter().map(|r| r.busy_s).collect();
    let busy_s = quantile(&busy, 0.5);
    let per_design: Vec<f64> = (0..jobs.len())
        .map(|i| quantile(&rounds.iter().map(|r| r.secs[i]).collect::<Vec<_>>(), 0.5))
        .collect();
    let rate = jobs.len() as f64 / busy_s;
    let (p50, p90) = (
        quantile(&per_design, 0.5) * 1e3,
        quantile(&per_design, 0.9) * 1e3,
    );
    out.set("setup_s", setup_s);
    out.set("designs_per_s", rate);
    out.set("latency_p50_ms", p50);
    out.set("area_total", quality.area as f64);
    out.set("feasible_designs", quality.feasible as f64);
    let _ = writeln!(
        out.report,
        "# synth-cold: {} designs x {} rounds over {} thread(s), median round {busy_s:.3} s; {} feasible, area {}",
        jobs.len(),
        rounds.len(),
        pchls_par::thread_count(),
        quality.feasible,
        quality.area
    );
    let _ = writeln!(
        out.report,
        "# synth-cold: round seconds {}",
        busy.iter()
            .map(|b| format!("{b:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out.report,
        "# synth-cold: designs_per_s {rate:.3}  design_p50_ms {p50:.3}  design_p90_ms {p90:.3}  setup_s {setup_s:.4}"
    );
    if s.traced {
        traced(s, &jobs, &rounds, &quality, &mut out);
    }
    out
}

fn compare(out: &mut Outcome, jobs: &[SynthJob], want: &[u64], got: &[u64], what: &str) {
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        out.check(
            || format!("{}: {what} differs from round 1", jobs[i].name),
            a == b,
        );
    }
}

/// The traced run: one round with tracing on and one pinned to one
/// thread, each compared byte for byte with round one.
fn traced(s: &Settings, jobs: &[SynthJob], rounds: &[Round], quality: &Quality, out: &mut Outcome) {
    let busy = quantile(&rounds.iter().map(|r| r.busy_s).collect::<Vec<_>>(), 0.5);
    let traced = round(jobs, true, &mut |_, _| {});
    let serial = pchls_par::with_thread_count(1, || round(jobs, false, &mut |_, _| {}));
    compare(
        out,
        jobs,
        &rounds[0].digests,
        &traced.digests,
        "traced round",
    );
    compare(
        out,
        jobs,
        &rounds[0].digests,
        &serial.digests,
        "one-thread round",
    );
    let l = &traced.layers;
    let synth = l.span("call:core.synthesize").total_ns.max(1) as f64;
    let share = |name: &str| 100.0 * l.span(name).total_ns as f64 / synth;
    out.set("cdfg.parse_us", l.mean_s("call:cdfg.parse") * 1e6);
    out.set(
        "cdfg.fingerprint_us",
        l.mean_s("call:cdfg.fingerprint") * 1e6,
    );
    out.set("core.compile_ms", l.mean_s("call:core.compile") * 1e3);
    out.set("core.synthesize_ms", l.mean_s("call:core.synthesize") * 1e3);
    for (name, v) in [
        "core.decisions",
        "core.backtracks",
        "core.rejected_candidates",
        "core.fast_commits",
    ]
    .iter()
    .zip(quality.stats)
    {
        out.set(name, v as f64);
    }
    for (metric, span) in [
        ("kernel.score_pct", "kernel.score"),
        ("kernel.topk_pct", "kernel.topk"),
        ("kernel.commit_pct", "kernel.commit"),
        ("fds.palap_pct", "fds.palap"),
        ("fds.refit_pct", "fds.refit"),
    ] {
        out.set(metric, share(span));
    }
    out.set("par.kernel_speedup", serial.busy_s / busy);
    out.set("trace.overhead_pct", 100.0 * (traced.busy_s / busy - 1.0));
    out.set(
        "trace.residual_pct",
        100.0 * (1.0 - l.covered_s() / traced.busy_s),
    );
    out.report.push_str(&l.report("synth-cold", traced.busy_s));
    if let Some(path) = &s.trace_out {
        if let Err(e) = std::fs::write(path, l.chrome()) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
}
