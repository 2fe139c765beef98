//! End-to-end near-miss patching over TCP: a base inline graph primes a
//! replay seed, the one-edit sibling is answered by the patched path
//! (compile + incremental replay, no cold synthesis), and the
//! served point byte-diffs clean against a cold direct synthesis — the
//! wire-level twin of the in-process `service` tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pchls_cdfg::{random_dag, Cdfg, GraphEdit, NodeId, OpKind, RandomDagConfig};
use pchls_core::{
    Engine, SynthesisConstraints, SynthesisOptions, SynthesisRequest, SynthesisResult,
};
use pchls_fulib::paper_library;
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ShutdownHandle, SubmitRequest, SubmitResponse,
};

/// A reactor front end on an ephemeral port; dropping the guard stops
/// the serve loop and asserts it exits cleanly.
struct ServerGuard {
    service: Arc<Service>,
    addr: std::net::SocketAddr,
    shutdown: Arc<ShutdownHandle>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.shutdown.request_stop();
        if let Some(thread) = self.thread.take() {
            let result = thread.join().expect("serve loop must not panic");
            assert!(result.is_ok(), "serve loop must exit cleanly: {result:?}");
        }
    }
}

fn spawn_server() -> ServerGuard {
    let service = Arc::new(Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(ShutdownHandle::new());
    let thread = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve_tcp_with(&service, &listener, &shutdown))
    };
    ServerGuard {
        service,
        addr,
        shutdown,
        thread: Some(thread),
    }
}

/// A base graph plus a one-edit sibling: one extra adder hanging off
/// two existing values, so the edit cone stays minimal.
fn edit_pair() -> (Cdfg, Cdfg) {
    let base = random_dag(&RandomDagConfig {
        ops: 48,
        seed: 9,
        ..RandomDagConfig::default()
    });
    let producers: Vec<NodeId> = base
        .node_ids()
        .filter(|&id| base.node(id).kind().produces_value())
        .collect();
    let mut edit = GraphEdit::new(&base);
    edit.add_op(OpKind::Add, &[producers[0], producers[1]])
        .unwrap();
    let edited = edit.finish().unwrap();
    (base, edited)
}

#[test]
fn tcp_near_miss_is_patched_and_byte_identical_to_cold_synthesis() {
    let server = spawn_server();
    let (service, addr) = (Arc::clone(&server.service), server.addr);
    let (base, edited) = edit_pair();
    let (latency, power) = (200u32, 60.0f64);

    let stream = TcpStream::connect(addr).expect("dial the service");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |req: &SubmitRequest| -> SubmitResponse {
        writeln!(writer, "{}", serde_json::to_string(req).unwrap()).unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        serde_json::from_str(&line).expect("response parses")
    };

    // The base request cold-runs and leaves a replay seed behind.
    let first = exchange(&SubmitRequest::synth_text(
        1,
        &pchls_cdfg::write_cdfg(&base),
        latency,
        power,
    ));
    assert!(first.ok, "{:?}", first.error);

    // The sibling is one edit away under the same constraint point:
    // answered by patching, never touching the compile cache.
    let resp = exchange(&SubmitRequest::synth_text(
        2,
        &pchls_cdfg::write_cdfg(&edited),
        latency,
        power,
    ));
    assert!(resp.ok, "{:?}", resp.error);

    let stats_resp = exchange(&SubmitRequest::stats(3));
    let stats = stats_resp.stats.expect("stats payload");
    assert_eq!(stats.patched, 1, "the sibling must ride the patched path");
    assert_eq!(stats.patch_fallbacks, 0);
    assert_eq!(stats.cache_misses, 1, "only the base graph compiled cold");
    assert!(stats.seed_entries >= 1);
    assert_eq!(stats.completed, 2);

    // The patched point is byte-identical to a cold direct synthesis
    // of the edited graph.
    let compiled = service.engine().compile(&edited);
    let constraints = SynthesisConstraints::new(latency, power);
    let direct = SynthesisResult {
        request: SynthesisRequest::new(constraints.clone()),
        outcome: service
            .engine()
            .session(&compiled)
            .synthesize(constraints, &SynthesisOptions::default()),
    }
    .to_point(compiled.name());
    assert_eq!(
        serde_json::to_string(resp.point.as_ref().unwrap()).unwrap(),
        serde_json::to_string(&direct).unwrap(),
    );
}
