//! Warm hits over TCP at an open-loop pace: a reply must come back in
//! about one round trip, not one request gap. Also pins the inline hit
//! path to the queued one — byte-identical replies and identical
//! counters — and checks that store-only hits still ride the hit lane.
//!
//! The gap regression needs three things to show. The client must be
//! open-loop (its sender never waits for replies), the connection must
//! be past its first exchanges (Linux ACKs a fresh connection's first
//! segments at once), and the gap must be shorter than the client's
//! delayed-ACK timer (40 ms at least). Then, with Nagle on, two replies
//! in flight together lock the server into holding each reply until
//! the next request carries the ACK of the one before it.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pchls_core::Engine;
use pchls_fulib::paper_library;
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ServiceStats, ShutdownHandle, SubmitRequest,
    SubmitResponse,
};

/// Hits sent by the open loop, and the gap between them.
const HITS: usize = 20;
const GAP: Duration = Duration::from_millis(20);
/// Closed-loop hits that take the connection past quick-ACK mode.
const SETTLE: u64 = 64;

/// A reactor front end on an ephemeral port over `service`. Dropping
/// the guard stops the loop and asserts it exits cleanly.
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

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn spawn_server(config: ServiceConfig) -> ServerGuard {
    let service = Arc::new(Service::start(Engine::new(paper_library()), config));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(ShutdownHandle::new());
    let thread = {
        let (service, shutdown) = (Arc::clone(&service), Arc::clone(&shutdown));
        std::thread::spawn(move || serve_tcp_with(&service, &listener, &shutdown))
    };
    ServerGuard {
        service,
        addr,
        shutdown,
        thread: Some(thread),
    }
}

/// A client connection with Nagle off, as a latency-sensitive client
/// would open it.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("dial the service");
        writer.set_nodelay(true).expect("TCP_NODELAY");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    /// Sends one request without waiting for its reply.
    fn send(&mut self, request: &SubmitRequest) {
        let mut line = serde_json::to_string(request).unwrap();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    /// Reads the next reply line, trimmed.
    fn receive(&mut self) -> String {
        let mut reply = String::new();
        assert!(
            self.reader.read_line(&mut reply).unwrap() > 0,
            "server hung up"
        );
        reply.trim_end().to_owned()
    }

    /// Sends one request and returns its reply line, trimmed.
    fn exchange(&mut self, request: &SubmitRequest) -> String {
        self.send(request);
        self.receive()
    }
}

fn warm_point(id: u64) -> SubmitRequest {
    SubmitRequest::synth(id, "hal", 17, 25.0)
}

#[test]
fn open_loop_hits_answer_in_a_round_trip_not_a_request_gap() {
    let server = spawn_server(config());
    let mut client = Client::connect(server.addr);
    assert!(client.exchange(&warm_point(0)).contains("\"ok\":true"));
    for id in 0..SETTLE {
        client.exchange(&warm_point(1000 + id));
    }
    // A pipelined pair: two replies in flight at once.
    client.send(&warm_point(2000));
    client.send(&warm_point(2001));

    // Open loop: one thread sends on schedule, another times replies.
    let mut receiver = Client {
        writer: client.writer.try_clone().unwrap(),
        reader: client.reader,
    };
    let replies = std::thread::spawn(move || {
        (0..HITS + 2)
            .map(|_| {
                let line = receiver.receive();
                let reply: SubmitResponse = serde_json::from_str(&line).expect("well-formed");
                assert!(reply.ok, "{line}");
                (reply.id, Instant::now())
            })
            .collect::<Vec<_>>()
    });
    let mut writer = client.writer;
    let start = Instant::now();
    let mut sent = Vec::with_capacity(HITS);
    for k in 0..HITS {
        let due = start + GAP * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut line = serde_json::to_string(&warm_point(k as u64)).unwrap();
        line.push('\n');
        sent.push(Instant::now());
        writer.write_all(line.as_bytes()).unwrap();
    }
    let mut latencies: Vec<Duration> = replies
        .join()
        .expect("every reply arrives")
        .into_iter()
        .filter(|&(id, _)| id < HITS as u64)
        .map(|(id, at)| at - sent[id as usize])
        .collect();
    assert_eq!(latencies.len(), HITS);
    latencies.sort_unstable();
    let median = latencies[HITS / 2];
    assert!(
        median < GAP / 2,
        "median hit latency {median:?} at one request every {GAP:?}: {latencies:?}"
    );
    let hits = SETTLE + 2 + HITS as u64;
    let stats = server.service.stats();
    assert_eq!(stats.result_hits, hits);
    assert_eq!(stats.hit_lane.count, hits);
}

/// The counters the parity check compares.
fn counters(stats: &ServiceStats) -> (u64, u64, u64, u64) {
    (
        stats.requests,
        stats.completed,
        stats.result_hits,
        stats.hit_lane.count,
    )
}

#[test]
fn tcp_hits_match_in_process_hits_byte_for_byte_and_count_for_count() {
    const K: u64 = 8;
    let server = spawn_server(config());
    let twin = Service::start(Engine::new(paper_library()), config());
    let mut client = Client::connect(server.addr);
    for id in 0..=K {
        let over_tcp = client.exchange(&warm_point(id));
        let in_process = serde_json::to_string(&twin.call(warm_point(id))).unwrap();
        assert_eq!(over_tcp, in_process, "request {id}");
    }
    let (tcp, direct) = (server.service.stats(), twin.stats());
    assert_eq!(counters(&tcp), counters(&direct));
    assert_eq!(counters(&tcp), (K + 1, K + 1, K, K));
}

#[test]
fn store_only_hits_still_ride_the_hit_lane() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pchls-open-loop-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..config()
    };
    let cold = {
        let service = Service::start(Engine::new(paper_library()), stored());
        let cold = serde_json::to_string(&service.call(warm_point(0))).unwrap();
        service.shutdown();
        cold
    };

    // A restarted service knows the point from its store only: the
    // reactor queues it for the hit worker, which reads the store and
    // promotes the record; the repeat is then a memory hit.
    let server = spawn_server(stored());
    let mut client = Client::connect(server.addr);
    assert_eq!(client.exchange(&warm_point(0)), cold);
    let stats = server.service.stats();
    assert_eq!((stats.store_hits, stats.result_hits), (1, 0));
    assert_eq!(stats.hit_lane.count, 1, "the store hit rode the hit lane");
    assert_eq!(client.exchange(&warm_point(0)), cold);
    let stats = server.service.stats();
    assert_eq!((stats.store_hits, stats.result_hits), (1, 1));
    assert_eq!(stats.hit_lane.count, 2);
    assert_eq!(stats.cache_misses, 0, "nothing was compiled");
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
