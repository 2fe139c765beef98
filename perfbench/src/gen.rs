//! The seeded input generator. Every input of every workload — `.dfg`
//! texts, constraint points, request lines, edit choices and the
//! near-miss pairing — is a pure function of the one `--seed`. The
//! generator writes text itself (it calls nothing in the workspace), so
//! a change to the program cannot change the inputs it is measured on.

use std::fmt::Write as _;

/// The three graphs of the paper, as `.dfg` text (`pchls dump <name>`).
pub const PAPER_GRAPHS: [(&str, &str); 3] = [
    ("hal", include_str!("../graphs/hal.dfg")),
    ("cosine", include_str!("../graphs/cosine.dfg")),
    ("elliptic", include_str!("../graphs/elliptic.dfg")),
];

/// The `.dfg` text of a paper graph.
pub fn paper_text(name: &str) -> &'static str {
    PAPER_GRAPHS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .expect("a paper graph name")
}

/// splitmix64: small, fast and fully specified, so inputs never depend
/// on a library's RNG version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one part of a seed's inputs:
    /// `stream` and `part` separate the streams, so adding one never
    /// shifts another.
    pub fn new(seed: u64, stream: u64, part: u64) -> Rng {
        let mut r = Rng(seed
            ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ part.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on the quarter grid within `[lo, hi]`. Quarters are
    /// exact in binary, so the bound means the same double in the
    /// request text, in every parser, and in the reference run.
    pub fn quarter(&mut self, lo: f64, hi: f64) -> f64 {
        let (lo, hi) = ((lo * 4.0).ceil() as u64, (hi * 4.0).floor() as u64);
        self.range(lo, hi.max(lo)) as f64 / 4.0
    }
}

/// Stratified draws in `[0, 1)`: every block of `steps` draws visits
/// each of `steps` equal strata once, in a seeded order, at a seeded
/// offset inside the stratum. Sizes and bounds drawn this way cover
/// their range evenly in every run, whatever the seed, so aggregate
/// figures move little from seed to seed while the graphs still differ.
pub struct Ladder {
    steps: usize,
    left: Vec<usize>,
}

impl Ladder {
    pub fn new(steps: usize) -> Ladder {
        Ladder {
            steps,
            left: Vec::new(),
        }
    }

    pub fn next(&mut self, rng: &mut Rng) -> f64 {
        if self.left.is_empty() {
            self.left = (0..self.steps).collect();
            shuffle(rng, &mut self.left);
        }
        let k = self.left.pop().expect("refilled above");
        (k as f64 + rng.unit()) / self.steps as f64
    }
}

/// Fastest delay per op kind, from Table 1 of the paper (`mult_par`
/// for `mul`; every other kind has one delay).
fn fastest(kind: &str) -> u32 {
    if kind == "mul" {
        2
    } else {
        1
    }
}

/// Lowest-energy module per op kind (`mult_ser` for `mul`).
fn frugal_energy(kind: &str) -> f64 {
    match kind {
        "mul" => 4.0 * 2.7,
        "input" => 0.2,
        "output" => 1.7,
        _ => 2.5,
    }
}

/// One generated graph: its text plus what the generator knows about it.
#[derive(Debug, Clone, PartialEq)]
pub struct GenGraph {
    pub name: String,
    pub text: String,
    /// Node count (ids are `0..nodes`; the first `WIDTH` are the
    /// primary inputs).
    pub nodes: usize,
    /// Critical path in cycles with the fastest modules.
    pub min_latency: u32,
    /// Energy of the graph with the lowest-energy modules.
    pub energy: f64,
}

/// Ops per level of a generated graph.
const WIDTH: usize = 6;

/// A random layered dataflow graph of `ops` computation ops, six per
/// level: each op reads one value of the level just above it (the
/// primary inputs for the first) and one value from anywhere above;
/// 30% are multiplies. Every value nobody consumes becomes a primary
/// output. The levels tie the critical path to the size, so graphs of
/// one size differ in wiring, not in depth.
pub fn random_graph(rng: &mut Rng, name: &str, ops: usize) -> GenGraph {
    let n_inputs = WIDTH;
    let mut kinds: Vec<&'static str> = vec!["input"; n_inputs];
    let mut operands: Vec<Vec<usize>> = vec![Vec::new(); n_inputs];
    let mut consumed = vec![false; n_inputs + ops];
    for j in 0..ops {
        let kind = if rng.below(10) < 3 {
            "mul"
        } else {
            ["add", "sub", "comp"][rng.below(3) as usize]
        };
        // This op's level starts at `level`; the level above (the
        // inputs, for the first) is the `WIDTH` producers before it.
        let level = n_inputs + (j / WIDTH) * WIDTH;
        let a = level - WIDTH + rng.below(WIDTH as u64) as usize;
        let b = rng.below(level as u64) as usize;
        consumed[a] = true;
        consumed[b] = true;
        kinds.push(kind);
        operands.push(vec![a, b]);
    }
    let sinks: Vec<usize> = (n_inputs..n_inputs + ops)
        .filter(|&i| !consumed[i])
        .collect();
    for &src in &sinks {
        kinds.push("output");
        operands.push(vec![src]);
    }

    let mut text = format!("cdfg {name}\n");
    let mut finish = vec![0u32; kinds.len()];
    let mut energy = 0.0;
    let mut outputs = 0;
    for (id, (kind, ins)) in kinds.iter().zip(&operands).enumerate() {
        let _ = write!(text, "n{id} {kind}");
        match *kind {
            "input" => {
                let _ = write!(text, " i{id}");
            }
            "output" => {
                let _ = write!(text, " o{outputs}");
                outputs += 1;
            }
            _ => {}
        }
        for src in ins {
            let _ = write!(text, " n{src}");
        }
        text.push('\n');
        let ready = ins.iter().map(|&s| finish[s]).max().unwrap_or(0);
        finish[id] = ready + fastest(kind);
        energy += frugal_energy(kind);
    }
    GenGraph {
        name: name.to_owned(),
        text,
        nodes: kinds.len(),
        min_latency: finish.iter().copied().max().unwrap_or(1),
        energy,
    }
}

/// A single-op edit of `base`: one new operation over two primary
/// inputs, appended as the last node (ids stay dense), the textual twin
/// of `GraphEdit::add_op`. Same name, so a served answer labels both
/// alike.
pub fn near_miss(rng: &mut Rng, base: &GenGraph) -> GenGraph {
    let kind = ["add", "sub", "comp", "mul"][rng.below(4) as usize];
    let a = rng.below(WIDTH as u64);
    let b = rng.below(WIDTH as u64);
    let mut text = base.text.clone();
    let _ = writeln!(text, "n{} {kind} n{a} n{b}", base.nodes);
    GenGraph {
        text,
        nodes: base.nodes + 1,
        min_latency: base.min_latency.max(1 + fastest(kind)),
        energy: base.energy + frugal_energy(kind),
        ..base.clone()
    }
}

/// A constraint point for a random graph: twice the fastest critical
/// path (room for power-driven stretching, as the `scale` bench
/// chooses), and a power bound at `frac` of the way from 1.5 to 3 times
/// the average draw the lowest-energy modules need over that latency,
/// on the quarter grid.
pub fn random_point(g: &GenGraph, frac: f64) -> (u32, f64) {
    let latency = 2 * g.min_latency;
    let average = g.energy / f64::from(latency);
    let lo = (1.5 * average).max(9.0);
    let hi = lo.max(3.0 * average);
    (latency, quarter(lo + (hi - lo) * frac))
}

/// `x` rounded to the quarter grid.
fn quarter(x: f64) -> f64 {
    (x * 4.0).round() / 4.0
}

/// One synthesis job of `synth-cold`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthJob {
    pub name: String,
    pub text: String,
    pub latency: u32,
    pub power: f64,
}

/// The paper graphs at one Figure 2 point each, then distinct random
/// graphs of 40 to 240 ops whose sizes and power bounds are drawn from
/// 21-step ladders, so every block of 21 graphs has the same size and
/// tightness mix.
pub fn synth_cold_jobs(seed: u64, part: u64, count: usize) -> Vec<SynthJob> {
    let mut jobs: Vec<SynthJob> = [
        ("hal", 17, 25.0),
        ("cosine", 15, 40.0),
        ("elliptic", 22, 30.0),
    ]
    .iter()
    .map(|&(name, latency, power)| SynthJob {
        name: name.to_owned(),
        text: paper_text(name).to_owned(),
        latency,
        power,
    })
    .collect();
    let mut rng = Rng::new(seed, 1, part);
    let (mut sizes, mut bounds) = (Ladder::new(21), Ladder::new(21));
    let mut i = 0;
    while jobs.len() < count {
        let ops = 40 + (200.0 * sizes.next(&mut rng)) as usize;
        let g = random_graph(&mut rng, &format!("rand{seed}p{part}x{i}"), ops);
        let (latency, power) = random_point(&g, bounds.next(&mut rng));
        jobs.push(SynthJob {
            name: g.name,
            text: g.text,
            latency,
            power,
        });
        i += 1;
    }
    jobs.truncate(count);
    jobs
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// One curve of `explore`.
#[derive(Debug, Clone, PartialEq)]
pub enum CurveSpec {
    /// Fixed latency, a scalar power grid.
    Power { latency: u32, powers: Vec<f64> },
    /// Fixed latency, a battery envelope scaled over `scales`.
    Battery {
        latency: u32,
        capacity: f64,
        peak: f64,
        floor: f64,
        scales: Vec<f64>,
    },
}

/// One graph of `explore` with every curve swept over it (the graph is
/// compiled once for all of them).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreGraph {
    pub name: String,
    pub text: String,
    pub curves: Vec<CurveSpec>,
}

/// The six Figure 2 curves (60-point grid, 2.5 to 150), one envelope
/// sweep over a low-quality cell's `budget_from_model` envelope, then
/// seeded random graphs of 30–80 ops with one 16-point power curve each.
pub fn explore_graphs(seed: u64, part: u64, count: usize) -> Vec<ExploreGraph> {
    let figure2: Vec<f64> = (1..=60).map(|i| f64::from(i) * 2.5).collect();
    let power = |latency: u32| CurveSpec::Power {
        latency,
        powers: figure2.clone(),
    };
    let mut rng = Rng::new(seed, 2, part);
    let battery = CurveSpec::Battery {
        latency: 19,
        capacity: rng.quarter(1500.0, 3000.0),
        peak: rng.quarter(30.0, 45.0),
        floor: rng.quarter(5.0, 10.0),
        scales: (0..16).map(|i| 0.25 + 1.25 * f64::from(i) / 15.0).collect(),
    };
    let mut graphs = vec![
        ExploreGraph {
            name: "hal".into(),
            text: paper_text("hal").into(),
            curves: vec![power(10), power(17)],
        },
        ExploreGraph {
            name: "cosine".into(),
            text: paper_text("cosine").into(),
            curves: vec![power(12), power(15), power(19), battery],
        },
        ExploreGraph {
            name: "elliptic".into(),
            text: paper_text("elliptic").into(),
            curves: vec![power(22)],
        },
    ];
    let mut sizes = Ladder::new(15);
    let mut i = 0;
    while graphs.len() < count {
        let ops = 30 + (50.0 * sizes.next(&mut rng)) as usize;
        let g = random_graph(&mut rng, &format!("rand{seed}p{part}y{i}"), ops);
        let latency = 2 * g.min_latency;
        let average = g.energy / f64::from(latency);
        let (lo, hi) = ((0.75 * average).max(9.0), 4.0 * average);
        let powers = (0..16)
            .map(|k| (4.0 * (lo + (hi - lo) * f64::from(k) / 15.0)).round() / 4.0)
            .collect();
        graphs.push(ExploreGraph {
            name: g.name,
            text: g.text,
            curves: vec![CurveSpec::Power { latency, powers }],
        });
        i += 1;
    }
    graphs.truncate(count);
    graphs
}

/// What one `serve-mix` request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// A built-in graph by name.
    Named(&'static str),
    /// An inline `.dfg` document: index into [`ServeInputs::inline`].
    Inline(usize),
}

/// One `serve-mix` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub id: u64,
    pub ask: Ask,
    pub latency: u32,
    pub power: f64,
    /// Result-tier hit (a prewarmed point) or a fresh one.
    pub hit: bool,
    /// A single-op edit of an earlier inline graph at its constraints.
    pub near_miss: bool,
    /// The JSON request line, newline-terminated.
    pub line: String,
}

/// Everything `serve-mix` sends.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// The prewarmed points: `(graph, T, P)` over the paper graphs.
    pub warm: Vec<ServeRequest>,
    /// The request stream (open loop first, saturation after).
    pub stream: Vec<ServeRequest>,
    /// Inline graphs referenced by [`Ask::Inline`].
    pub inline: Vec<GenGraph>,
}

/// Requests per block of the serve-mix stream (see [`serve_inputs`]).
pub const DECK: usize = 200;

/// Requests between an inline graph and its near-miss edit, so the base
/// has finished (and left its replay seed) before the edit arrives.
const NEAR_MISS_GAP: usize = 40;

/// Warm points and a request stream of `count` requests. Every block of
/// [`DECK`] requests holds exactly 3 cold named points, 3 cold inline
/// graphs (40–60 ops) and 2 near-miss edits (1.5%, 1.5%, 1%) at seeded
/// positions; the rest are result-tier hits, cycling through the warm
/// points in a seeded order. Warm points and inline graphs are drawn
/// from ladders over their ranges.
pub fn serve_inputs(seed: u64, part: u64, warm_per_graph: usize, count: usize) -> ServeInputs {
    let mut rng = Rng::new(seed, 3, part);
    let ranges: [(&'static str, u32, u32, f64, f64); 3] = [
        ("hal", 10, 20, 12.0, 40.0),
        ("cosine", 12, 22, 20.0, 60.0),
        ("elliptic", 16, 26, 15.0, 50.0),
    ];
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };
    let mut warm = Vec::new();
    for &(graph, t_lo, t_hi, p_lo, p_hi) in &ranges {
        let (mut ts, mut ps) = (Ladder::new(warm_per_graph), Ladder::new(warm_per_graph));
        for _ in 0..warm_per_graph {
            let latency = t_lo + (f64::from(t_hi - t_lo + 1) * ts.next(&mut rng)) as u32;
            let power = quarter(p_lo + (p_hi - p_lo) * ps.next(&mut rng));
            warm.push(request(
                next_id(),
                Ask::Named(graph),
                latency,
                power,
                true,
                false,
                "",
            ));
        }
    }
    let mut inline: Vec<GenGraph> = Vec::new();
    let (mut sizes, mut bounds) = (Ladder::new(10), Ladder::new(10));
    // Inline graphs not yet edited: (stream position, index, T, P).
    let mut bases: Vec<(usize, usize, u32, f64)> = Vec::new();
    let mut deck: Vec<Kind> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    let mut stream = Vec::with_capacity(count);
    while stream.len() < count {
        let pos = stream.len();
        if deck.is_empty() {
            deck = vec![Kind::Hit; DECK];
            deck[..8].copy_from_slice(&[
                Kind::ColdNamed,
                Kind::ColdNamed,
                Kind::ColdNamed,
                Kind::ColdInline,
                Kind::ColdInline,
                Kind::ColdInline,
                Kind::NearMiss,
                Kind::NearMiss,
            ]);
            shuffle(&mut rng, &mut deck);
        }
        let mut kind = deck.pop().expect("refilled above");
        if kind == Kind::NearMiss && bases.first().is_none_or(|b| b.0 + NEAR_MISS_GAP > pos) {
            kind = Kind::Hit;
        }
        let req = match kind {
            Kind::ColdNamed => {
                let &(graph, t_lo, t_hi, p_lo, p_hi) = &ranges[rng.below(3) as usize];
                let latency = rng.range(u64::from(t_lo), u64::from(t_hi)) as u32;
                // Eighths off the quarter grid: never a warm point.
                let power = rng.quarter(p_lo, p_hi) + 0.125;
                request(
                    next_id(),
                    Ask::Named(graph),
                    latency,
                    power,
                    false,
                    false,
                    "",
                )
            }
            Kind::ColdInline => {
                let ops = 40 + (20.0 * sizes.next(&mut rng)) as usize;
                let g = random_graph(
                    &mut rng,
                    &format!("rand{seed}p{part}z{}", inline.len()),
                    ops,
                );
                let (latency, power) = random_point(&g, bounds.next(&mut rng));
                let index = inline.len();
                let req = request(
                    next_id(),
                    Ask::Inline(index),
                    latency,
                    power,
                    false,
                    false,
                    &g.text,
                );
                inline.push(g);
                bases.push((pos, index, latency, power));
                req
            }
            Kind::NearMiss => {
                let (_, base, latency, power) = bases.remove(0);
                let edited = near_miss(&mut rng, &inline[base]);
                let index = inline.len();
                let req = request(
                    next_id(),
                    Ask::Inline(index),
                    latency,
                    power,
                    false,
                    true,
                    &edited.text,
                );
                inline.push(edited);
                req
            }
            Kind::Hit => {
                if hits.is_empty() {
                    hits = (0..warm.len()).collect();
                    shuffle(&mut rng, &mut hits);
                }
                let w = &warm[hits.pop().expect("refilled above")];
                let Ask::Named(graph) = w.ask else {
                    unreachable!("warm points are named")
                };
                request(
                    next_id(),
                    Ask::Named(graph),
                    w.latency,
                    w.power,
                    true,
                    false,
                    "",
                )
            }
        };
        stream.push(req);
    }
    ServeInputs {
        warm,
        stream,
        inline,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    ColdNamed,
    ColdInline,
    NearMiss,
}

fn request(
    id: u64,
    ask: Ask,
    latency: u32,
    power: f64,
    hit: bool,
    near_miss: bool,
    text: &str,
) -> ServeRequest {
    let line = match ask {
        Ask::Named(graph) => format!(
            "{{\"op\":\"synth\",\"id\":{id},\"graph\":\"{graph}\",\"latency\":{latency},\"power\":{power}}}\n"
        ),
        Ask::Inline(_) => format!(
            "{{\"op\":\"synth\",\"id\":{id},\"graph_text\":\"{}\",\"latency\":{latency},\"power\":{power}}}\n",
            text.replace('\n', "\\n")
        ),
    };
    ServeRequest {
        id,
        ask,
        latency,
        power,
        hit,
        near_miss,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            for part in 0..3 {
                assert_eq!(
                    synth_cold_jobs(seed, part, 60),
                    synth_cold_jobs(seed, part, 60)
                );
                assert_eq!(
                    explore_graphs(seed, part, 40),
                    explore_graphs(seed, part, 40)
                );
                assert_eq!(
                    serve_inputs(seed, part, 20, 3000),
                    serve_inputs(seed, part, 20, 3000)
                );
            }
        }
        assert_ne!(synth_cold_jobs(1, 0, 10), synth_cold_jobs(2, 0, 10));
        assert_ne!(synth_cold_jobs(1, 0, 10), synth_cold_jobs(1, 1, 10));
        assert_ne!(serve_inputs(1, 0, 20, 500), serve_inputs(2, 0, 20, 500));
    }

    #[test]
    fn a_longer_run_extends_the_same_inputs() {
        let short = synth_cold_jobs(7, 0, 30);
        assert_eq!(short[..], synth_cold_jobs(7, 0, 90)[..30]);
        let short = explore_graphs(7, 0, 20);
        assert_eq!(short[..], explore_graphs(7, 0, 50)[..20]);
        let short = serve_inputs(7, 0, 20, 1000);
        assert_eq!(
            short.stream[..],
            serve_inputs(7, 0, 20, 3000).stream[..1000]
        );
    }

    #[test]
    fn generated_inputs_parse_and_decode() {
        for job in synth_cold_jobs(5, 0, 30) {
            let g = pchls_cdfg::parse_cdfg(&job.text).expect("generated text parses");
            assert_eq!(g.name(), job.name);
        }
        for g in explore_graphs(5, 0, 20) {
            pchls_cdfg::parse_cdfg(&g.text).expect("generated text parses");
        }
        let inputs = serve_inputs(5, 0, 20, 4000);
        assert!(inputs.stream.iter().any(|r| r.near_miss));
        for g in &inputs.inline {
            pchls_cdfg::parse_cdfg(&g.text).expect("generated text parses");
        }
        for r in inputs.warm.iter().chain(&inputs.stream) {
            let req: pchls_serve::SubmitRequest =
                serde_json::from_str(r.line.trim_end()).expect("request line decodes");
            assert_eq!((req.id, req.latency, req.power), (r.id, r.latency, r.power));
        }
    }

    #[test]
    fn ladders_cover_every_stratum_once_per_block() {
        let mut rng = Rng::new(1, 0, 0);
        let mut ladder = Ladder::new(8);
        let mut strata: Vec<usize> = (0..8)
            .map(|_| (ladder.next(&mut rng) * 8.0) as usize)
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..8).collect::<Vec<_>>());
    }
}
