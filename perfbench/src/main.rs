//! The layered end-to-end benchmark of the pchls workspace.
//!
//! ```text
//! perfbench --workload <synth-cold|explore|serve-mix> --seed <n> --seconds <s>
//!           --trace <0|1> --tmp <dir> [--part <k>] [--trace-out <file>]
//! ```
//!
//! `--part` picks one of several disjoint input sets of the seed, so
//! the processes of one run each measure different inputs.
//!
//! One process runs one workload, so `peak_rss_mb` belongs to it. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run. Lines
//! before the last start with `#` and are for people; the last line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod explore;
mod gen;
mod layers;
mod serve_mix;
mod synth_cold;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed claims are tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out for checking a claim on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 9001;

/// End-to-end metrics, reported by every untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("designs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("area_total", "area"),
    ("feasible_designs", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (name, unit). A layer
/// a workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("cdfg.parse_us", "us"),
    ("cdfg.fingerprint_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.decisions", "count"),
    ("core.backtracks", "count"),
    ("core.rejected_candidates", "count"),
    ("core.fast_commits", "count"),
    ("kernel.score_pct", "%"),
    ("kernel.topk_pct", "%"),
    ("kernel.commit_pct", "%"),
    ("fds.palap_pct", "%"),
    ("fds.refit_pct", "%"),
    ("par.kernel_speedup", "ratio"),
    ("par.sweep_speedup", "ratio"),
    ("store.append_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.get_us", "us"),
    ("store.bytes_per_record", "B"),
    ("serve.call_hit_us", "us"),
    ("serve.call_cold_ms", "ms"),
    ("serve.result_hit_rate", "ratio"),
    ("serve.compile_hit_rate", "ratio"),
    ("serve.patched", "count"),
    ("serve.patch_fallbacks", "count"),
    ("serve.store_appends", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("net.rtt_hit_us", "us"),
    ("net.overhead_us", "us"),
    ("client.late_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_pct", "%"),
];

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: designs, sweep points, requests, checks.
    pub attempted: u64,
    /// Operations that failed: errors, shed or missing replies, wrong
    /// answers, constraint violations.
    pub failed: u64,
    /// Of the failures, requests the service shed.
    pub shed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Every measured value by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines (each starting with `#`).
    pub report: String,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one more failure of an already attempted operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    /// Which of the seed's input sets this process measures.
    pub part: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for stores; created and removed by the run.
    pub tmp: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds: a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Settings {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "--seed: an integer")?,
        part: map
            .get("part")
            .map_or(Ok(0), |p| p.parse())
            .map_err(|_| "--part: an integer")?,
        seconds,
        traced: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        tmp: PathBuf::from(get("tmp")?),
        trace_out: map.get("trace-out").map(PathBuf::from),
    })
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q` quantile of `samples` (linear interpolation; 0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Runs `setup` `reps` times and returns the median time and the last
/// result; `teardown` (untimed) disposes of the earlier ones.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(earlier) = last.take() {
            teardown(earlier);
        }
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (
        quantile(&times, 0.5),
        last.expect("at least one repetition"),
    )
}

/// A stable digest of a byte string (FNV-1a), for comparing outputs of
/// repeated passes without keeping them.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&settings.tmp);
    if let Err(e) = std::fs::create_dir_all(&settings.tmp) {
        eprintln!("perfbench: creating {}: {e}", settings.tmp.display());
        return ExitCode::FAILURE;
    }
    let mut outcome = match settings.workload.as_str() {
        "synth-cold" => synth_cold::run(&settings),
        "explore" => explore::run(&settings),
        "serve-mix" => serve_mix::run(&settings),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&settings.tmp);
    if settings.traced {
        // A layer this workload leaves idle reads 0.
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name.to_owned()).or_insert(0.0);
        }
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    print!("{}", outcome.report);
    print!("{}", outcome_shares(&settings.workload, &outcome));
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    let wanted: &[(&str, &str)] = if settings.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let Some(&value) = outcome.metrics.get(*name) else {
            eprintln!("perfbench: {} did not measure {name}", settings.workload);
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The outcome shares of the run — ok, shed, other failures — each with
/// an exact binomial interval at level `1 - 0.05 / 3`: together a
/// simultaneous 95% confidence set for the multinomial of outcomes
/// (a conservative box; arXiv 2601.18145 gives the exact
/// minimum-volume set).
fn outcome_shares(workload: &str, o: &Outcome) -> String {
    let n = o.attempted.max(1);
    let cats = [
        ("ok", o.attempted.saturating_sub(o.failed)),
        ("shed", o.shed),
        ("failed_other", o.failed.saturating_sub(o.shed)),
    ];
    let parts: Vec<String> = cats
        .iter()
        .map(|&(name, x)| {
            let (lo, hi) = binomial_interval(x, n, 0.05 / cats.len() as f64);
            format!(
                "{name} {x} ({:.6} in [{lo:.6}, {hi:.6}])",
                x as f64 / n as f64
            )
        })
        .collect();
    format!(
        "# {workload}: failed_ratio {} of {n} attempted; shares with a simultaneous 95% set: {}\n",
        o.failed as f64 / n as f64,
        parts.join(", ")
    )
}

/// Exact (Clopper–Pearson) two-sided `1 - alpha` interval for a
/// binomial share of `x` successes in `n` trials.
fn binomial_interval(x: u64, n: u64, alpha: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    if 2 * x > n {
        let (lo, hi) = binomial_interval(n - x, n, alpha);
        return (1.0 - hi, 1.0 - lo);
    }
    // P(X <= k) for X ~ Bin(n, p), summed in log space (k <= n / 2).
    let cdf = |k: u64, p: f64| -> f64 {
        if k >= n || p <= 0.0 {
            return 1.0;
        }
        if p >= 1.0 {
            return 0.0;
        }
        let (lp, lq) = (p.ln(), (1.0 - p).ln());
        let mut log_c = 0.0f64;
        let mut sum = 0.0f64;
        for i in 0..=k {
            if i > 0 {
                log_c += ((n - i + 1) as f64).ln() - (i as f64).ln();
            }
            sum += (log_c + i as f64 * lp + (n - i) as f64 * lq).exp();
        }
        sum.min(1.0)
    };
    // The p at which a decreasing function of p crosses `target`.
    let solve = |f: &dyn Fn(f64) -> f64, target: f64| -> f64 {
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let lower = if x == 0 {
        0.0
    } else {
        solve(&|p| cdf(x - 1, p), 1.0 - alpha / 2.0)
    };
    let upper = solve(&|p| cdf(x, p), alpha / 2.0);
    (lower, upper)
}
