//! `serve-mix`: TCP traffic against an in-process `Service` (default
//! `ServiceConfig` plus a store directory) behind `serve_tcp_with`. One
//! connection carries it, driven by one sender and one receiver thread.
//! Phase 1 is an open loop at a fixed offered rate well under capacity,
//! each request timed from the moment it was due. Phase 2 is a closed
//! loop with a fixed window of outstanding requests (saturation). The
//! reactor, framing, JSON, routing, result tier, compile cache, lanes
//! and store appends dominate; the kernel sees only the cold tail.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pchls_cdfg::{graph_fingerprint, parse_cdfg};
use pchls_core::{Engine, SynthesisConstraints};
use pchls_fulib::paper_library;
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ShutdownHandle, SubmitRequest, SubmitResponse,
};

use crate::check::{parallel_map, point_json, reference, Reference};
use crate::gen::{self, Ask, ServeInputs, ServeRequest};
use crate::layers::Layers;
use crate::{quantile, timed_setup, Outcome, Settings};

/// Offered rate of the open loop, requests per second.
const OPEN_RATE: f64 = 1000.0;
/// Share of `--seconds` spent in the open loop (the rest saturates).
const OPEN_SHARE: f64 = 0.7;
/// Shortest open loop and saturation phase of a process: 5000 samples
/// (50 beyond the p99), and a dozen rate windows.
const OPEN_MIN_S: f64 = 5.0;
const SATURATION_MIN_S: f64 = 3.0;
/// Outstanding requests in the closed loop.
const WINDOW: usize = 32;
/// Prewarmed points per paper graph.
const WARM_PER_GRAPH: usize = 20;
/// Stream requests generated per saturation second (headroom over the
/// fastest closed loop this mix has run).
const SATURATION_HEADROOM: f64 = 30_000.0;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;
/// Window of the saturation rate's median.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// How long the client waits for a reply before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// In-process and round-trip probes of the traced run, per kind.
const PROBES: usize = 300;
/// Cold points the traced run sends through `Service::call`.
const COLD_PROBES: usize = 30;

/// A running service on an ephemeral port plus one client connection.
struct Server {
    service: Arc<Service>,
    shutdown: Arc<ShutdownHandle>,
    thread: JoinHandle<std::io::Result<()>>,
    conn: TcpStream,
}

impl Server {
    fn start(store: &Path) -> Server {
        let _ = std::fs::remove_dir_all(store);
        let service = Arc::new(
            Service::try_start(
                Engine::new(paper_library()),
                ServiceConfig {
                    store_dir: Some(store.to_path_buf()),
                    ..ServiceConfig::default()
                },
            )
            .expect("the service starts"),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("listener address");
        let shutdown = Arc::new(ShutdownHandle::new());
        let thread = {
            let (service, shutdown) = (Arc::clone(&service), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_tcp_with(&service, &listener, &shutdown))
        };
        let conn = TcpStream::connect(addr).expect("connect to the service");
        conn.set_nodelay(true).expect("TCP_NODELAY");
        Server {
            service,
            shutdown,
            thread,
            conn,
        }
    }

    /// Stops the front end and the workers; returns whether both ended
    /// cleanly.
    fn stop(self) -> bool {
        drop(self.conn);
        self.shutdown.request_stop();
        let clean = matches!(self.thread.join(), Ok(Ok(())));
        match Arc::try_unwrap(self.service) {
            Ok(service) => {
                service.shutdown();
                clean
            }
            Err(_) => false,
        }
    }
}

/// One reply as received.
struct Reply {
    id: u64,
    at: Instant,
    line: String,
}

/// The id of a reply line (`{"id":N,...}`), without a full decode.
fn reply_id(line: &str) -> u64 {
    line.split("\"id\":")
        .nth(1)
        .map(|rest| {
            rest.bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0, |n, d| n * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(u64::MAX)
}

/// What one phase sent and got back.
struct Phase {
    /// Per request: `(stream index, due, sent)`.
    sent: Vec<(usize, Instant, Instant)>,
    replies: Vec<Reply>,
    start: Option<Instant>,
    end: Option<Instant>,
}

/// Sends `reqs[range]` on the connection and collects the replies.
/// `rate` > 0 paces an open loop (one request every `1/rate` s, each
/// due at its slot); otherwise a closed loop keeps `WINDOW` requests
/// outstanding until `seconds` pass. A final `stats` request marks the
/// end of the stream for the receiver.
fn drive(conn: &TcpStream, reqs: &[ServeRequest], first: usize, rate: f64, seconds: f64) -> Phase {
    let mut writer = conn.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(conn.try_clone().expect("clone the connection"));
    let total_sent = AtomicUsize::new(usize::MAX);
    let (token_tx, token_rx) = sync_channel::<()>(WINDOW);
    if rate == 0.0 {
        for _ in 0..WINDOW {
            token_tx.send(()).expect("fill the window");
        }
    }
    // An open loop starts on a slot a little ahead, so the first due
    // time is not already past.
    let start = Instant::now() + Duration::from_millis(if rate > 0.0 { 5 } else { 0 });
    reader
        .get_ref()
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a read timeout");
    std::thread::scope(|scope| {
        let total = &total_sent;
        let receiver = scope.spawn(move || {
            let mut replies = Vec::new();
            let mut sentinel = false;
            loop {
                let want = total.load(Ordering::SeqCst);
                if sentinel && replies.len() >= want {
                    break;
                }
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let id = reply_id(&line);
                if id == 0 {
                    sentinel = true;
                    continue;
                }
                replies.push(Reply { id, at, line });
                if rate == 0.0 {
                    let _ = token_tx.try_send(());
                }
            }
            replies
        });
        let mut sent = Vec::new();
        for (k, req) in reqs.iter().enumerate().skip(first) {
            let due = if rate > 0.0 {
                let due = start + Duration::from_secs_f64((k - first) as f64 / rate);
                if (k - first) as f64 >= rate * seconds {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            } else {
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                // A reply that never comes must not wedge the run: it
                // is counted missing when the phase is checked.
                if token_rx.recv_timeout(REPLY_TIMEOUT).is_err() {
                    break;
                }
                Instant::now()
            };
            if writer.write_all(req.line.as_bytes()).is_err() {
                break;
            }
            sent.push((k, due, Instant::now()));
        }
        total_sent.store(sent.len(), Ordering::SeqCst);
        let _ = writer.write_all(b"{\"op\":\"stats\",\"id\":0}\n");
        let replies = receiver.join().expect("the receiver thread ends");
        let end = replies.last().map(|r| r.at);
        Phase {
            sent,
            replies,
            start: Some(start),
            end,
        }
    })
}

/// The reference answer of every distinct point the run asked about.
type References = HashMap<(String, u32, u64), Reference>;

/// What makes two requests the same point: graph, `T`, `P<`.
fn point_key(r: &ServeRequest) -> (String, u32, u64) {
    let graph = match r.ask {
        Ask::Named(name) => name.to_owned(),
        Ask::Inline(i) => format!("#{i}"),
    };
    (graph, r.latency, r.power.to_bits())
}

fn text_of<'a>(inputs: &'a ServeInputs, r: &ServeRequest) -> &'a str {
    match r.ask {
        Ask::Named(name) => gen::paper_text(name),
        Ask::Inline(i) => &inputs.inline[i].text,
    }
}

fn references(engine: &Engine, inputs: &ServeInputs, asked: &[&ServeRequest]) -> References {
    let mut distinct: HashMap<(String, u32, u64), &ServeRequest> = HashMap::new();
    for r in asked {
        distinct.entry(point_key(r)).or_insert(r);
    }
    let items: Vec<(&(String, u32, u64), &&ServeRequest)> = distinct.iter().collect();
    let refs = parallel_map(&items, |(_, r)| {
        reference(
            engine,
            text_of(inputs, r),
            &SynthesisConstraints::new(r.latency, r.power),
        )
    });
    items
        .into_iter()
        .map(|(k, _)| k.clone())
        .zip(refs)
        .collect()
}

/// Checks every reply of `phase` against its reference; returns the
/// area and count of the feasible ones.
fn check_phase(
    what: &str,
    reqs: &[ServeRequest],
    phase: &Phase,
    refs: &References,
    out: &mut Outcome,
) -> (u64, usize) {
    let first_id = reqs.first().map_or(0, |r| r.id);
    let mut answered = vec![false; reqs.len()];
    let (mut area, mut feasible) = (0u64, 0usize);
    for reply in &phase.replies {
        let Some(k) = reply
            .id
            .checked_sub(first_id)
            .map(|k| k as usize)
            .filter(|&k| k < reqs.len())
        else {
            out.check(
                || format!("{what}: reply to an unknown id {}", reply.id),
                false,
            );
            continue;
        };
        answered[k] = true;
        let req = &reqs[k];
        let r = &refs[&point_key(req)];
        let verdict = match serde_json::from_str::<SubmitResponse>(reply.line.trim_end()) {
            Err(e) => Err(format!("undecodable reply: {e}")),
            Ok(resp) if !resp.ok => {
                let error = resp.error.unwrap_or_default();
                if error == "overloaded" {
                    out.shed += 1;
                }
                Err(format!("error reply: {error}"))
            }
            Ok(resp) => match resp.point {
                None => Err("reply without a point".into()),
                Some(p) if point_json(&p) != r.point_json => {
                    Err("served point differs from the serial reference".into())
                }
                Some(p) => {
                    if let Some(a) = p.area {
                        area += a;
                        feasible += 1;
                    }
                    r.violation.clone().map_or(Ok(()), Err)
                }
            },
        };
        out.check(
            || {
                format!(
                    "{what}: request {} ({} T={} P={}): {}",
                    req.id,
                    point_key(req).0,
                    req.latency,
                    req.power,
                    verdict.clone().unwrap_err()
                )
            },
            verdict.is_ok(),
        );
    }
    for &(k, _, _) in &phase.sent {
        if !answered[k] {
            out.check(
                || format!("{what}: request {} got no reply", reqs[k].id),
                false,
            );
        }
    }
    (area, feasible)
}

/// Latencies from due time, in seconds.
fn latencies(reqs: &[ServeRequest], phase: &Phase) -> Vec<f64> {
    let first_id = reqs.first().map_or(0, |r| r.id);
    let due: HashMap<usize, Instant> = phase.sent.iter().map(|&(k, d, _)| (k, d)).collect();
    phase
        .replies
        .iter()
        .filter_map(|r| {
            let k = r.id.checked_sub(first_id)? as usize;
            Some(r.at.saturating_duration_since(*due.get(&k)?).as_secs_f64())
        })
        .collect()
}

/// Replies per second of a closed-loop phase: the median over
/// [`RATE_WINDOW`] windows, so a burst of interference from the host
/// moves a few windows, not the figure.
fn rps(phase: &Phase) -> f64 {
    let (Some(start), Some(end)) = (phase.start, phase.end) else {
        return 0.0;
    };
    let windows = ((end - start).as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize;
    if windows < 3 {
        return phase.replies.len() as f64 / (end - start).as_secs_f64().max(1e-9);
    }
    let mut counts = vec![0.0; windows];
    for r in &phase.replies {
        let w = (r.at.saturating_duration_since(start).as_secs_f64() / RATE_WINDOW.as_secs_f64())
            as usize;
        if w < windows {
            counts[w] += 1.0;
        }
    }
    quantile(&counts, 0.5) / RATE_WINDOW.as_secs_f64()
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let open_s = (s.seconds * OPEN_SHARE).max(OPEN_MIN_S);
    let sat_s = (s.seconds * (1.0 - OPEN_SHARE)).max(SATURATION_MIN_S);
    let n_open = (OPEN_RATE * open_s).ceil() as usize;
    // Traced runs saturate twice (untraced, traced) and probe cold
    // points after that.
    let sat_cap = (SATURATION_HEADROOM * sat_s) as usize;
    let count = n_open
        + if s.traced {
            2 * sat_cap + 60 * COLD_PROBES
        } else {
            sat_cap
        };
    let inputs = gen::serve_inputs(s.seed, s.part, WARM_PER_GRAPH, count);
    let store_dir: PathBuf = s.tmp.join("serve-store");

    let mut clean = true;
    let (setup_s, (server, warm_phase)) = timed_setup(
        SETUP_REPS,
        || {
            let server = Server::start(&store_dir);
            // Prewarm the result tier with every warm point.
            let warm = drive(&server.conn, &inputs.warm, 0, 0.0, f64::INFINITY);
            (server, warm)
        },
        |(server, _)| clean &= server.stop(),
    );

    let reqs = &inputs.stream;
    let open = drive(&server.conn, reqs, 0, OPEN_RATE, open_s);
    let sat = drive(&server.conn, reqs, n_open, 0.0, sat_s);
    let mut traced_sat = None;
    let mut probes = None;
    if s.traced {
        let next = sat.sent.last().map_or(n_open, |&(k, _, _)| k + 1);
        pchls_obs::set_enabled(true);
        let t = drive(&server.conn, reqs, next, 0.0, sat_s);
        // The service's own spans (requests, kernel phases, store
        // appends) of the traced saturation phase.
        let mut spans = Layers::new(true);
        spans.drain();
        let wall = match (t.start, t.end) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        };
        out.report
            .push_str(&spans.report("serve-mix traced saturation", wall));
        let after = t.sent.last().map_or(next, |&(k, _, _)| k + 1);
        probes = Some(probe(&server, &inputs, after));
        traced_sat = Some(t);
    }
    let stats = server.service.stats();
    clean &= server.stop();
    out.check(|| "the service did not shut down cleanly".into(), clean);

    // Every answer against a direct serial synthesis of its point.
    let engine = Engine::new(paper_library());
    let mut asked: Vec<&ServeRequest> = inputs.warm.iter().collect();
    for phase in [Some(&open), Some(&sat), traced_sat.as_ref()]
        .into_iter()
        .flatten()
    {
        asked.extend(phase.sent.iter().map(|&(k, _, _)| &reqs[k]));
    }
    if let Some(p) = &probes {
        asked.extend(p.cold.iter().map(|(r, _)| r));
    }
    let refs = references(&engine, &inputs, &asked);
    check_phase("prewarm", &inputs.warm, &warm_phase, &refs, &mut out);
    let (area, feasible) = check_phase("open loop", reqs, &open, &refs, &mut out);
    check_phase("saturation", reqs, &sat, &refs, &mut out);
    if let Some(t) = &traced_sat {
        check_phase("traced saturation", reqs, t, &refs, &mut out);
    }

    let lat = latencies(reqs, &open);
    let (p50, p90, p99) = (
        quantile(&lat, 0.5) * 1e3,
        quantile(&lat, 0.9) * 1e3,
        quantile(&lat, 0.99) * 1e3,
    );

    let rate = rps(&sat);
    let late: Vec<f64> = open
        .sent
        .iter()
        .map(|&(_, due, at)| at.saturating_duration_since(due).as_secs_f64())
        .collect();
    let late_p99 = quantile(&late, 0.99) * 1e3;
    out.set("setup_s", setup_s);
    out.set("designs_per_s", rate);
    out.set("latency_p50_ms", p50);
    out.set("area_total", area as f64);
    out.set("feasible_designs", feasible as f64);
    let cold = open.sent.iter().filter(|&&(k, _, _)| !reqs[k].hit).count();
    let _ = writeln!(
        out.report,
        "# serve-mix: open loop {} requests at {OPEN_RATE} req/s ({cold} cold), {} replies; saturation window {WINDOW}: {} replies in {:.3} s",
        open.sent.len(),
        open.replies.len(),
        sat.replies.len(),
        sat.replies.len() as f64 / rate.max(1e-9)
    );
    let _ = writeln!(
        out.report,
        "# serve-mix: serve_p50_ms {p50:.4}  serve_p90_ms {p90:.4}  serve_p99_ms {p99:.4}  serve_rps {rate:.1}  client_late_p99_ms {late_p99:.4}  setup_s {setup_s:.4}"
    );
    let _ = writeln!(
        out.report,
        "# serve-mix: result_hit_rate {:.4}  compile_hit_rate {:.4}  patched {}  patch_fallbacks {}  store_appends {}  shed {}  failed {}",
        stats.result_hit_rate, stats.cache_hit_rate, stats.patched, stats.patch_fallbacks, stats.store_appends, stats.shed, stats.failed
    );

    if let (Some(t), Some(p)) = (traced_sat, probes) {
        out.set("serve.result_hit_rate", stats.result_hit_rate);
        out.set("serve.compile_hit_rate", stats.cache_hit_rate);
        out.set("serve.patched", stats.patched as f64);
        out.set("serve.patch_fallbacks", stats.patch_fallbacks as f64);
        out.set("serve.store_appends", stats.store_appends as f64);
        out.set("serve.shed", stats.shed as f64);
        out.set("serve.failed", stats.failed as f64);
        out.set("client.late_ms", late_p99);
        traced_metrics(s, &engine, reqs, &sat, &t, p, &mut out);
    }
    out
}

/// Measurements of the traced run taken one call at a time.
struct Probes {
    layers: Layers,
    /// Median seconds of an in-process result-tier hit.
    call_hit: f64,
    /// Median seconds of an in-process fresh point.
    call_cold: f64,
    /// Median seconds of a closed-loop TCP hit.
    rtt_hit: f64,
    /// Cold points sent in-process, with their replies.
    cold: Vec<(ServeRequest, SubmitResponse)>,
}

/// In-process `Service::call` on hits and fresh points, one-at-a-time
/// TCP round trips on hits, serde on the wire types, and the graph
/// handling the service does on routing, each call timed as a span.
fn probe(server: &Server, inputs: &ServeInputs, after: usize) -> Probes {
    let mut layers = Layers::new(true);
    pchls_obs::set_enabled(true);
    let warm: Vec<SubmitRequest> = inputs
        .warm
        .iter()
        .map(|r| serde_json::from_str(r.line.trim_end()).expect("warm lines decode"))
        .collect();
    let mut hit = Vec::new();
    for req in warm.iter().cycle().take(PROBES) {
        let t0 = Instant::now();
        let resp = layers.call("call:serve.call_hit", || server.service.call(req.clone()));
        hit.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(resp);
    }
    let mut cold = Vec::new();
    let mut cold_s = Vec::new();
    for r in inputs.stream[after..]
        .iter()
        .filter(|r| !r.hit)
        .take(COLD_PROBES)
    {
        let req: SubmitRequest =
            serde_json::from_str(r.line.trim_end()).expect("stream lines decode");
        let t0 = Instant::now();
        let resp = layers.call("call:serve.call_cold", || server.service.call(req));
        cold_s.push(t0.elapsed().as_secs_f64());
        cold.push((r.clone(), resp));
    }
    let mut rtt = Vec::new();
    let mut writer = server.conn.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(server.conn.try_clone().expect("clone the connection"));
    for r in inputs.warm.iter().cycle().take(PROBES) {
        let t0 = Instant::now();
        let mut line = String::new();
        writer.write_all(r.line.as_bytes()).expect("send a probe");
        reader.read_line(&mut line).expect("read a probe reply");
        layers.record("call:net.round_trip", t0, Instant::now());
        rtt.push(t0.elapsed().as_secs_f64());
    }
    layers.drain();
    Probes {
        layers,
        call_hit: quantile(&hit, 0.5),
        call_cold: quantile(&cold_s, 0.5),
        rtt_hit: quantile(&rtt, 0.5),
        cold,
    }
}

fn traced_metrics(
    s: &Settings,
    engine: &Engine,
    reqs: &[ServeRequest],
    untraced: &Phase,
    traced: &Phase,
    mut p: Probes,
    out: &mut Outcome,
) {
    for (req, resp) in &p.cold {
        out.check(
            || format!("in-process request {} failed: {:?}", req.id, resp.error),
            resp.ok && resp.point.is_some(),
        );
    }
    // Serde and graph handling on exactly the lines the traced
    // saturation phase carried.
    pchls_obs::set_enabled(true);
    for (i, &(k, _, _)) in traced.sent.iter().enumerate() {
        // Keep the main thread's trace ring from filling.
        if i % 1000 == 999 {
            p.layers.drain();
            pchls_obs::set_enabled(true);
        }
        let line = reqs[k].line.trim_end();
        let req: SubmitRequest = p
            .layers
            .call("call:protocol.decode", || serde_json::from_str(line))
            .expect("stream lines decode");
        if !req.graph_text.is_empty() {
            let graph = p
                .layers
                .call("call:cdfg.parse", || parse_cdfg(&req.graph_text))
                .expect("inline graphs parse");
            std::hint::black_box(
                p.layers
                    .call("call:cdfg.fingerprint", || graph_fingerprint(&graph)),
            );
            std::hint::black_box(
                p.layers
                    .call("call:core.compile", || engine.compile(&graph)),
            );
        }
    }
    for (i, reply) in traced.replies.iter().enumerate() {
        if i % 1000 == 999 {
            p.layers.drain();
            pchls_obs::set_enabled(true);
        }
        let resp: SubmitResponse =
            serde_json::from_str(reply.line.trim_end()).expect("replies decode");
        let _ = std::hint::black_box(
            p.layers
                .call("call:protocol.encode", || serde_json::to_string(&resp)),
        );
    }
    p.layers.drain();
    pchls_obs::set_enabled(false);
    let l = &p.layers;
    out.set("cdfg.parse_us", l.mean_s("call:cdfg.parse") * 1e6);
    out.set(
        "cdfg.fingerprint_us",
        l.mean_s("call:cdfg.fingerprint") * 1e6,
    );
    out.set("core.compile_ms", l.mean_s("call:core.compile") * 1e3);
    out.set("protocol.decode_us", l.mean_s("call:protocol.decode") * 1e6);
    out.set("protocol.encode_us", l.mean_s("call:protocol.encode") * 1e6);
    out.set("serve.call_hit_us", p.call_hit * 1e6);
    out.set("serve.call_cold_ms", p.call_cold * 1e3);
    out.set("net.rtt_hit_us", p.rtt_hit * 1e6);
    out.set("net.overhead_us", (p.rtt_hit - p.call_hit) * 1e6);
    out.set(
        "trace.overhead_pct",
        100.0 * (rps(untraced) / rps(traced).max(1e-9) - 1.0),
    );
    out.set("trace.residual_pct", 100.0 * idle_share(reqs, traced));
    out.report
        .push_str(&l.report("serve-mix probes", l.covered_s()));
    if let Some(path) = &s.trace_out {
        if let Err(e) = std::fs::write(path, l.chrome()) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
}

/// Share of a closed-loop phase during which no request was in flight
/// on the connection (time no request span covers).
fn idle_share(reqs: &[ServeRequest], phase: &Phase) -> f64 {
    let (Some(start), Some(end)) = (phase.start, phase.end) else {
        return 0.0;
    };
    let sent: HashMap<u64, Instant> = phase
        .sent
        .iter()
        .map(|&(k, _, t)| (reqs[k].id, t))
        .collect();
    let mut intervals: Vec<(Instant, Instant)> = phase
        .replies
        .iter()
        .filter_map(|r| Some((*sent.get(&r.id)?, r.at)))
        .collect();
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    let span = end.saturating_duration_since(start).as_secs_f64();
    (1.0 - covered.as_secs_f64() / span.max(1e-12)).max(0.0)
}
