//! `explore`: Figure-2-style design-space exploration, run as
//! `pchls sweep --store` runs it. Each graph is compiled once and every
//! curve over it goes through `Session::sweep_resumable`; fresh points
//! are appended to a `pchls-store` file and flushed. Then the store is
//! reopened and the whole grid answered again from it (the resume
//! pass). The fan-out works across points here, not inside the kernel;
//! the service and the network stay idle.
//!
//! The set is swept in rounds, each into a fresh store, and each
//! figure is the median over the rounds.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use pchls_battery::{budget_from_model, RateCapacityBattery};
use pchls_cdfg::{graph_fingerprint, parse_cdfg};
use pchls_core::{Engine, SweepPoint, SweepSpec, SynthesisOptions};
use pchls_fulib::paper_library;
use pchls_store::{Store, StoreKey, StoreRecord};

use crate::check::{parallel_map, point_json, reference as reference_point};
use crate::gen::{self, CurveSpec, ExploreGraph};
use crate::layers::Layers;
use crate::{digest, quantile, timed_setup, Outcome, Settings};

/// The graph set: the three paper graphs (six Figure 2 curves and the
/// envelope sweep, 376 points) and 90 random graphs (1440 points).
const GRAPHS: usize = 3 + 90;

/// Fewest cold rounds of an untraced run (more while `--seconds`
/// lasts). Each round sweeps the whole set into a fresh store; the
/// figures are medians over rounds.
const MIN_ROUNDS: usize = 2;

/// Untraced rounds of a traced run, before its traced and one-thread
/// rounds.
const TRACED_RUN_ROUNDS: usize = 1;

/// Resume passes over the last round's store (latencies are pooled).
const RESUME_REPS: usize = 7;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 21;

/// The sweep a curve stands for. The envelope of a battery curve comes
/// from `pchls_battery::budget_from_model` over a low-quality cell.
fn sweep_spec(curve: &CurveSpec) -> SweepSpec {
    match curve {
        CurveSpec::Power { latency, powers } => SweepSpec::power(*latency, powers.clone()),
        CurveSpec::Battery {
            latency,
            capacity,
            peak,
            floor,
            scales,
        } => {
            let cell = RateCapacityBattery::low_quality(*capacity);
            let budget = budget_from_model(&cell, *latency, *peak, *floor);
            SweepSpec::budget_scale(*latency, budget, scales.clone())
        }
    }
}

/// One graph's sweeps as a pass produced them.
struct GraphOut {
    /// Per curve: the enveloped result, serialized.
    results: Vec<String>,
    /// Points synthesized fresh (not read from the store).
    fresh: usize,
    /// Seconds for the whole graph (parse to last flush).
    secs: f64,
}

/// One pass over the graph set.
struct Pass {
    graphs: Vec<GraphOut>,
    /// Summed per-graph seconds (tracer drains are outside it).
    busy_s: f64,
    layers: Layers,
}

impl Pass {
    fn fresh(&self) -> usize {
        self.graphs.iter().map(|g| g.fresh).sum()
    }

    /// Digest of every enveloped curve, in order.
    fn digest(&self) -> u64 {
        let all: String = self
            .graphs
            .iter()
            .flat_map(|g| g.results.iter().map(String::as_str))
            .collect();
        digest(all.as_bytes())
    }
}

/// Sweeps every graph against `store`. Points already in the store are
/// read, not synthesized, so the same function is the cold pass and the
/// resume pass.
fn pass(
    engine: &Engine,
    store: &mut Store,
    graphs: &[ExploreGraph],
    specs: &[Vec<SweepSpec>],
    mut layers: Layers,
) -> Pass {
    let traced = layers.traced;
    let mut out = Vec::new();
    let mut busy_s = 0.0;
    let options = SynthesisOptions::default();
    for (g, specs) in graphs.iter().zip(specs) {
        pchls_obs::set_enabled(traced);
        let t0 = Instant::now();
        let graph = layers
            .call("call:cdfg.parse", || parse_cdfg(&g.text))
            .expect("generated graphs parse");
        let fp = layers.call("call:cdfg.fingerprint", || graph_fingerprint(&graph));
        let compiled = layers
            .call("call:core.compile", || engine.try_compile(&graph))
            .expect("generated graphs compile");
        let session = engine.session(&compiled);
        let mut results = Vec::new();
        let mut fresh_points = 0;
        for spec in specs {
            let keys: Vec<StoreKey> = (0..spec.len())
                .map(|i| StoreKey::new(fp, &spec.constraints(i)))
                .collect();
            let cached: Vec<Option<SweepPoint>> = keys
                .iter()
                .map(|k| {
                    layers
                        .call("call:store.get", || store.get(k))
                        .expect("store reads succeed")
                        .map(|r| r.to_point(compiled.name()))
                })
                .collect();
            // Kernel spans would land on the sweep's freshly spawned
            // threads, whose trace rings the tracer keeps for the life
            // of the process; record only the call itself.
            let (result, fresh) = layers.call("call:core.sweep", || {
                pchls_obs::set_enabled(false);
                let r = session.sweep_resumable(spec, &options, &cached);
                pchls_obs::set_enabled(traced);
                r
            });
            if !fresh.is_empty() {
                let records: Vec<StoreRecord> = fresh
                    .iter()
                    .map(|(i, p)| StoreRecord::from_point(keys[*i], p, Vec::new()))
                    .collect();
                layers
                    .call("call:store.append", || store.append(&records))
                    .expect("store appends succeed");
                layers
                    .call("call:store.flush", || store.flush())
                    .expect("store flushes succeed");
            }
            fresh_points += fresh.len();
            results.push(serde_json::to_string(&result.points).expect("points serialize"));
        }
        let secs = t0.elapsed().as_secs_f64();
        layers.drain();
        busy_s += secs;
        out.push(GraphOut {
            results,
            fresh: fresh_points,
            secs,
        });
    }
    pchls_obs::set_enabled(false);
    Pass {
        graphs: out,
        busy_s,
        layers,
    }
}

fn fresh_store(dir: &Path) -> Store {
    let _ = std::fs::remove_dir_all(dir);
    Store::open(dir).expect("a fresh store opens")
}

/// A cold pass into `store`; returns it with the store file's size and
/// record count.
fn cold_round(
    engine: &Engine,
    mut store: Store,
    graphs: &[ExploreGraph],
    specs: &[Vec<SweepSpec>],
    traced: bool,
) -> (Pass, u64, usize) {
    let pass = pass(engine, &mut store, graphs, specs, Layers::new(traced));
    let records = store.len();
    let bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
    (pass, bytes, records)
}

/// Reopens the store in `dir` and answers the whole grid from it.
fn resume_round(
    engine: &Engine,
    dir: &Path,
    graphs: &[ExploreGraph],
    specs: &[Vec<SweepSpec>],
    traced: bool,
) -> (Pass, f64) {
    let mut layers = Layers::new(traced);
    pchls_obs::set_enabled(traced);
    let mut store = layers
        .call("call:store.open", || Store::open(dir))
        .expect("the store reopens");
    let open_s = layers.total_s("call:store.open");
    (pass(engine, &mut store, graphs, specs, layers), open_s)
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let graphs = gen::explore_graphs(s.seed, s.part, GRAPHS);
    let specs: Vec<Vec<SweepSpec>> = graphs
        .iter()
        .map(|g| g.curves.iter().map(sweep_spec).collect())
        .collect();
    let dir = |r: usize| s.tmp.join(format!("explore-{r}"));
    let (setup_s, (engine, store)) = timed_setup(
        SETUP_REPS,
        || {
            let engine = Engine::new(paper_library());
            let store = fresh_store(&dir(0));
            for (_, text) in gen::PAPER_GRAPHS {
                let graph = parse_cdfg(text).expect("paper graphs parse");
                std::hint::black_box(engine.compile(&graph));
            }
            // A short sweep warms the fan-out and the allocator.
            let hal =
                engine.compile(&parse_cdfg(gen::paper_text("hal")).expect("paper graphs parse"));
            let grid = (1..=12).map(|i| 5.0 * f64::from(i)).collect();
            std::hint::black_box(
                engine
                    .session(&hal)
                    .sweep(&SweepSpec::power(17, grid), &SynthesisOptions::default()),
            );
            (engine, store)
        },
        drop,
    );

    let (first, bytes, records) = cold_round(&engine, store, &graphs, &specs, false);
    let mut rounds = vec![first];
    let want = if s.traced {
        TRACED_RUN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    while rounds.len() < want
        || (!s.traced && rounds.iter().map(|r| r.busy_s).sum::<f64>() < s.seconds)
    {
        let store = fresh_store(&dir(rounds.len()));
        rounds.push(cold_round(&engine, store, &graphs, &specs, false).0);
    }
    let last = dir(rounds.len() - 1);
    let points = rounds[0].fresh();
    let reference = rounds[0].digest();
    for (r, round) in rounds.iter().enumerate() {
        out.check(
            || {
                format!(
                    "cold round {} synthesized {} of {points} points or differs from round 1",
                    r + 1,
                    round.fresh()
                )
            },
            round.fresh() == points && round.digest() == reference,
        );
    }
    let mut resumes = Vec::new();
    for _ in 0..RESUME_REPS {
        let (pass, open_s) = resume_round(&engine, &last, &graphs, &specs, false);
        out.check(
            || {
                format!(
                    "a resume pass synthesized {} point(s) or differs from the cold pass",
                    pass.fresh()
                )
            },
            pass.fresh() == 0 && pass.digest() == reference,
        );
        resumes.push((pass, open_s));
    }

    // Every resumed point against a direct serial synthesis.
    let mut store = Store::open(&last).expect("the store reopens");
    let mut items = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let fp = graph_fingerprint(&parse_cdfg(&g.text).expect("generated graphs parse"));
        for spec in &specs[gi] {
            for i in 0..spec.len() {
                let c = spec.constraints(i);
                let stored = store
                    .get(&StoreKey::new(fp, &c))
                    .expect("store reads succeed")
                    .map(|r| point_json(&r.to_point(&g.name)));
                items.push((gi, c, stored));
            }
        }
    }
    drop(store);
    let refs = parallel_map(&items, |(gi, c, _)| {
        reference_point(&engine, &graphs[*gi].text, c)
    });
    let mut area = 0u64;
    let mut feasible = 0usize;
    let mut stats = [0usize; 4];
    for ((gi, c, stored), r) in items.iter().zip(&refs) {
        let ok = r.violation.is_none() && stored.as_deref() == Some(r.point_json.as_str());
        out.check(
            || {
                format!(
                    "{} T={} P={}: {}",
                    graphs[*gi].name,
                    c.latency,
                    c.max_power(),
                    r.violation
                        .clone()
                        .unwrap_or_else(|| "stored point differs from the reference".into())
                )
            },
            ok,
        );
        if let Some(a) = r.area {
            area += a;
            feasible += 1;
        }
        for (sum, v) in stats.iter_mut().zip(r.stats) {
            *sum += v;
        }
    }

    let busy = quantile(&rounds.iter().map(|r| r.busy_s).collect::<Vec<_>>(), 0.5);
    let rate = points as f64 / busy;
    // A user waits on one graph's sweeps: its median over the rounds.
    let per_graph: Vec<f64> = (0..graphs.len())
        .map(|i| {
            quantile(
                &rounds.iter().map(|r| r.graphs[i].secs).collect::<Vec<_>>(),
                0.5,
            )
        })
        .collect();
    let (p50, p90) = (
        quantile(&per_graph, 0.5) * 1e3,
        quantile(&per_graph, 0.9) * 1e3,
    );
    let resumed: Vec<f64> = resumes
        .iter()
        .flat_map(|(p, _)| p.graphs.iter().map(|g| g.secs))
        .collect();
    let (r50, r90) = (quantile(&resumed, 0.5) * 1e3, quantile(&resumed, 0.9) * 1e3);
    let resume_ms = quantile(
        &resumes
            .iter()
            .map(|(p, open)| p.busy_s + open)
            .collect::<Vec<_>>(),
        0.5,
    ) * 1e3;
    out.set("setup_s", setup_s);
    out.set("designs_per_s", rate);
    out.set("latency_p50_ms", p50);
    out.set("area_total", area as f64);
    out.set("feasible_designs", feasible as f64);
    let _ = writeln!(
        out.report,
        "# explore: {} graphs, {points} points x {} rounds over {} thread(s), median round {busy:.3} s; {feasible} feasible, area {area}",
        graphs.len(),
        rounds.len(),
        pchls_par::thread_count(),
    );
    let _ = writeln!(
        out.report,
        "# explore: round seconds {}",
        rounds
            .iter()
            .map(|r| format!("{:.3}", r.busy_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out.report,
        "# explore: designs_per_s {rate:.3}  graph_p50_ms {p50:.3}  graph_p90_ms {p90:.3}  resume_ms {resume_ms:.3}  resume_graph_p50_ms {r50:.4}  resume_graph_p90_ms {r90:.4}  setup_s {setup_s:.4}"
    );

    if s.traced {
        for (name, v) in [
            "core.decisions",
            "core.backtracks",
            "core.rejected_candidates",
            "core.fast_commits",
        ]
        .iter()
        .zip(stats)
        {
            out.set(name, v as f64);
        }
        out.set(
            "store.bytes_per_record",
            bytes as f64 / records.max(1) as f64,
        );
        traced(s, &engine, &graphs, &specs, (busy, reference), &mut out);
    }
    out
}

/// The traced run: one cold round and one resume with tracing on, and
/// one cold round pinned to one thread, each compared with round one.
fn traced(
    s: &Settings,
    engine: &Engine,
    graphs: &[ExploreGraph],
    specs: &[Vec<SweepSpec>],
    (busy, reference): (f64, u64),
    out: &mut Outcome,
) {
    let dir = s.tmp.join("explore-traced");
    let (cold, _, _) = cold_round(engine, fresh_store(&dir), graphs, specs, true);
    let (resume, open_s) = resume_round(engine, &dir, graphs, specs, true);
    let serial_dir = s.tmp.join("explore-serial");
    let (serial, _, _) = pchls_par::with_thread_count(1, || {
        cold_round(engine, fresh_store(&serial_dir), graphs, specs, false)
    });
    for (what, pass) in [
        ("traced cold", &cold),
        ("traced resume", &resume),
        ("one-thread cold", &serial),
    ] {
        out.check(
            || format!("{what} pass differs from round 1"),
            pass.digest() == reference,
        );
    }
    let (c, r) = (&cold.layers, &resume.layers);
    out.set("cdfg.parse_us", c.mean_s("call:cdfg.parse") * 1e6);
    out.set(
        "cdfg.fingerprint_us",
        c.mean_s("call:cdfg.fingerprint") * 1e6,
    );
    out.set("core.compile_ms", c.mean_s("call:core.compile") * 1e3);
    out.set("core.sweep_ms", c.mean_s("call:core.sweep") * 1e3);
    out.set("par.sweep_speedup", serial.busy_s / busy);
    out.set("store.append_ms", c.mean_s("call:store.append") * 1e3);
    out.set("store.flush_ms", c.mean_s("call:store.flush") * 1e3);
    out.set("store.open_ms", open_s * 1e3);
    out.set("store.get_us", r.mean_s("call:store.get") * 1e6);
    out.set("trace.overhead_pct", 100.0 * (cold.busy_s / busy - 1.0));
    let covered = c.covered_s() + r.covered_s();
    let traced_s = cold.busy_s + resume.busy_s + open_s;
    out.set("trace.residual_pct", 100.0 * (1.0 - covered / traced_s));
    out.report
        .push_str(&c.report("explore cold round", cold.busy_s));
    out.report
        .push_str(&r.report("explore resume", resume.busy_s + open_s));
    if let Some(path) = &s.trace_out {
        if let Err(e) = std::fs::write(path, c.chrome()) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
}
