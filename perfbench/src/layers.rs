//! Layer timing from outside the program: every call the benchmark
//! makes into a layer's public function goes through [`Layers::call`],
//! which times it and — in a traced run — records it as a span with
//! `pchls_obs::record_span`. The traced run also keeps the spans the
//! program emits itself (kernel phases, store reads and appends); the
//! reporter folds them all into per-name counts, total time and self
//! time (a span's duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use pchls_obs::{EventKind, TraceEvent, TraceSnapshot};

/// Spans kept for the Chrome export; later events are counted, not kept.
const EXPORT_CAP: usize = 250_000;

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The layer calls of one phase plus, when traced, everything the
/// tracer saw.
#[derive(Debug, Default)]
pub struct Layers {
    /// Whether spans are recorded.
    pub traced: bool,
    /// Per benchmark span name: calls and summed duration.
    calls: BTreeMap<&'static str, (u64, u64)>,
    /// Time inside top-level benchmark spans (the phase's covered time).
    covered_ns: u64,
    /// Folded stats of every span the tracer recorded.
    spans: BTreeMap<String, SpanStat>,
    export: Vec<TraceEvent>,
    names: Vec<String>,
    dropped: u64,
    not_exported: u64,
}

impl Layers {
    pub fn new(traced: bool) -> Layers {
        Layers {
            traced,
            ..Layers::default()
        }
    }

    /// Times `f` as one call into the layer `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Records a call that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.traced {
            pchls_obs::record_span(name, start, end, &[]);
        }
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        self.covered_ns += ns;
        let entry = self.calls.entry(name).or_default();
        entry.0 += 1;
        entry.1 += ns;
    }

    /// Summed duration of the calls into `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1 as f64 * 1e-9)
    }

    /// Mean duration of one call into `name`, in seconds (0 when the
    /// layer was idle).
    pub fn mean_s(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 * 1e-9 / n as f64,
            _ => 0.0,
        }
    }

    /// Seconds of the phase inside benchmark layer calls.
    pub fn covered_s(&self) -> f64 {
        self.covered_ns as f64 * 1e-9
    }

    /// Moves everything the tracer holds into this report and clears
    /// the tracer. Turns tracing off first: `pchls_obs::reset` needs
    /// quiescent recorders. Call between units of work; the caller
    /// turns tracing back on.
    pub fn drain(&mut self) {
        if !self.traced {
            return;
        }
        pchls_obs::set_enabled(false);
        let snap = pchls_obs::snapshot();
        pchls_obs::reset();
        self.fold(&snap);
        self.dropped += snap.dropped;
        for e in snap.events {
            if self.export.len() < EXPORT_CAP {
                self.export.push(e);
            } else {
                self.not_exported += 1;
            }
        }
        // Interned ids are process-wide and only grow: the latest table
        // resolves every earlier event too.
        self.names = snap.names;
    }

    /// Folds one snapshot into per-name stats. Spans on one thread nest
    /// by time; a span's children are the spans it fully contains.
    fn fold(&mut self, snap: &TraceSnapshot) {
        let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for e in snap.events.iter().filter(|e| e.kind == EventKind::Span) {
            by_thread.entry(e.tid).or_default().push(e);
        }
        for (_, mut events) in by_thread {
            events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
            // (end, event, time covered by children)
            let mut stack: Vec<(u64, &TraceEvent, u64)> = Vec::new();
            for e in events {
                let end = e.start_ns + e.dur_ns;
                while let Some(&(top_end, top, children)) = stack.last() {
                    if top_end >= end {
                        break;
                    }
                    stack.pop();
                    self.finish_span(snap, top, children);
                }
                if let Some(top) = stack.last_mut() {
                    top.2 += e.dur_ns;
                }
                stack.push((end, e, 0));
            }
            while let Some((_, top, children)) = stack.pop() {
                self.finish_span(snap, top, children);
            }
        }
    }

    fn finish_span(&mut self, snap: &TraceSnapshot, e: &TraceEvent, children: u64) {
        let stat = self.spans.entry(snap.name(e.name).to_owned()).or_default();
        stat.count += 1;
        stat.total_ns += e.dur_ns;
        stat.self_ns += e.dur_ns.saturating_sub(children);
    }

    /// Folded stats of the span `name` (zero when never recorded).
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The traced-run report: one line per span name with its layer,
    /// count, total and self time, and self time as a share of `wall_s`.
    pub fn report(&self, workload: &str, wall_s: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# layers {workload}: traced phase {:.3} s, {} span(s) dropped by full rings",
            wall_s, self.dropped
        );
        let _ = writeln!(
            out,
            "# {:<8} {:<22} {:>9} {:>11} {:>11} {:>7}",
            "layer", "span", "count", "total_ms", "self_ms", "self%"
        );
        let mut rows: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "# {:<8} {:<22} {:>9} {:>11.3} {:>11.3} {:>7.2}",
                layer_of(name),
                name,
                s.count,
                s.total_ns as f64 * 1e-6,
                s.self_ns as f64 * 1e-6,
                100.0 * s.self_ns as f64 * 1e-9 / wall_s.max(1e-12)
            );
        }
        out
    }

    /// Every kept event as a Chrome trace-event document, through the
    /// program's own exporter.
    pub fn chrome(&self) -> String {
        pchls_obs::chrome_trace_json(&TraceSnapshot {
            events: self.export.clone(),
            dropped: self.dropped + self.not_exported,
            names: self.names.clone(),
        })
    }
}

/// The layer (crate) a span name belongs to. The benchmark's own spans
/// carry a `call:` prefix, so they never share a name with a span the
/// program records inside the same call (`store.append`).
pub fn layer_of(name: &str) -> &'static str {
    let name = name.strip_prefix("call:").unwrap_or(name);
    match name.split('.').next().unwrap_or("") {
        "cdfg" => "cdfg",
        "core" | "engine" | "kernel" => "core",
        "fds" => "sched",
        "store" => "store",
        "serve" => "serve",
        "protocol" => "protocol",
        "net" | "client" => "net",
        _ => "other",
    }
}
