//! The resident HTTP listener and the snapshot publisher feeding it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::Serialize;

use nms_obs::{seal_event, MetricsRegistry, Recorder, TraceEvent};
use nms_types::{FleetHealth, ShardStage, StorageFaultCounts};

use crate::http::{parse_request_line, parse_tail_count, render_response};
use crate::SharedRegistry;

/// Default number of sealed trace lines the tail ring retains.
const DEFAULT_TAIL_CAPACITY: usize = 256;

/// Default `n` for `/trace/tail` when the query does not set one.
const DEFAULT_TAIL_LINES: usize = 32;

/// Per-connection socket timeout: a wedged scraper must not hold the
/// single-threaded accept loop hostage.
const SOCKET_TIMEOUT: Duration = Duration::from_millis(2000);

/// What the server hands out: pre-rendered snapshot strings, written only
/// by the publisher at sequential quiescence points.
struct Published {
    metrics: String,
    health: String,
    trace_tail: VecDeque<String>,
}

impl Published {
    fn new() -> Self {
        Self {
            metrics: String::new(),
            // An operator scraping before the first publish sees an
            // explicitly-empty report, not a parse error.
            health: "{\"status\":\"starting\"}".to_string(),
            trace_tail: VecDeque::new(),
        }
    }
}

fn lock(state: &Mutex<Published>) -> std::sync::MutexGuard<'_, Published> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `/health` payload: fleet aggregates, ladder rung counts, storage
/// fault tallies, and the full per-shard ledgers.
#[derive(Serialize)]
struct HealthBody {
    status: String,
    /// Most recently closed fleet day, when the publisher knows one.
    day: Option<usize>,
    worst_stage: String,
    shards_healthy: usize,
    shards_retried: usize,
    shards_resumed: usize,
    shards_quarantined: usize,
    restarts: usize,
    day_retries: usize,
    deadline_breaches: usize,
    suspect_floor_days: usize,
    storage: StorageFaultCounts,
    shards: Vec<nms_types::ShardHealth>,
}

/// The write side of the telemetry plane. Clones share the same server
/// state. Publish calls belong in **sequential** sections only (day-close,
/// harvest) — that placement, not any lock, is what makes scraped counters
/// monotone and keeps the server off the bit-identity path.
#[derive(Clone)]
pub struct SnapshotPublisher {
    state: Arc<Mutex<Published>>,
    tail_capacity: usize,
}

impl SnapshotPublisher {
    /// Publishes an already-rendered Prometheus exposition.
    pub fn publish_metrics_text(&self, text: String) {
        lock(&self.state).metrics = text;
    }

    /// Renders and publishes `registry`'s exposition.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        self.publish_metrics_text(registry.render_prometheus());
    }

    /// Renders and publishes the merged exposition of a striped registry.
    pub fn publish_shared(&self, registry: &SharedRegistry) {
        self.publish_metrics_text(registry.render_prometheus());
    }

    /// Publishes the `/health` snapshot: per-shard stage and ledgers from
    /// `fleet`, plus the aggregated storage-fault tally (pass
    /// `StorageFaultCounts::default()` when no ledger is wired). `day` is
    /// the most recently closed fleet day, when known.
    pub fn publish_health(
        &self,
        day: Option<usize>,
        fleet: &FleetHealth,
        storage: StorageFaultCounts,
    ) {
        let body = HealthBody {
            status: if fleet.degraded() { "degraded" } else { "ok" }.to_string(),
            day,
            worst_stage: fleet.worst_stage().as_str().to_string(),
            shards_healthy: fleet.healthy(),
            shards_retried: fleet.count_at(ShardStage::Retried),
            shards_resumed: fleet.count_at(ShardStage::Resumed),
            shards_quarantined: fleet.quarantined(),
            restarts: fleet.restarts(),
            day_retries: fleet.day_retries(),
            deadline_breaches: fleet.deadline_breaches(),
            suspect_floor_days: fleet.suspect_floor_days(),
            storage,
            shards: fleet.shards.clone(),
        };
        let json = serde_json::to_string(&body)
            .unwrap_or_else(|err| format!("{{\"status\":\"render_error\",\"detail\":{:?}}}", err.to_string()));
        lock(&self.state).health = json;
    }

    /// Appends one sealed trace line to the tail ring (oldest lines fall
    /// off past the ring's capacity).
    pub fn push_trace_line(&self, line: String) {
        let mut state = lock(&self.state);
        if state.trace_tail.len() >= self.tail_capacity {
            state.trace_tail.pop_front();
        }
        state.trace_tail.push_back(line);
    }

    /// The currently published exposition (what `/metrics` serves).
    pub fn metrics_text(&self) -> String {
        lock(&self.state).metrics.clone()
    }
}

/// A [`Recorder`] event sink that mirrors sealed trace lines into the
/// server's tail ring. Tee it next to a [`JsonlTrace`](nms_obs::JsonlTrace)
/// writing the same events: a tailed line is byte-identical to the file's
/// line (same seal), so `/trace/tail` is a window onto the real trace.
pub struct TraceTail {
    publisher: SnapshotPublisher,
}

impl TraceTail {
    /// A tail sink feeding `publisher`'s ring.
    pub fn new(publisher: SnapshotPublisher) -> Self {
        Self { publisher }
    }
}

impl Recorder for TraceTail {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &TraceEvent) {
        if let Some(line) = seal_event(event) {
            self.publisher.push_trace_line(line);
        }
    }
}

/// The resident HTTP/1.0 scrape server. Binding spawns one listener
/// thread; dropping the server (or calling [`TelemetryServer::shutdown`])
/// stops it. Handlers only ever read the published snapshots.
pub struct TelemetryServer {
    addr: SocketAddr,
    state: Arc<Mutex<Published>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9600"`; port 0 picks a free port)
    /// and starts serving.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(Mutex::new(Published::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("nms-serve".to_string())
                .spawn(move || serve_loop(&listener, &state, &stop))?
        };
        Ok(Self {
            addr,
            state,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A publisher handle writing to this server's snapshot state.
    pub fn publisher(&self) -> SnapshotPublisher {
        SnapshotPublisher {
            state: Arc::clone(&self.state),
            tail_capacity: DEFAULT_TAIL_CAPACITY,
        }
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(listener: &TcpListener, state: &Mutex<Published>, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // One connection at a time: scrape requests are tiny, and a
        // serial loop cannot be amplified into a thread bomb.
        let _ = handle_connection(stream, state);
    }
}

fn handle_connection(stream: TcpStream, state: &Mutex<Published>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let response = respond(line.trim_end(), state);
    let mut stream = reader.into_inner();
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Routes one request line to its response. Pure string-to-string, which
/// is what makes the endpoints unit-testable without sockets.
fn respond(request_line: &str, state: &Mutex<Published>) -> String {
    let Some(request) = parse_request_line(request_line) else {
        return render_response(400, "Bad Request", "text/plain", "malformed request line\n");
    };
    if request.method != "GET" {
        return render_response(405, "Method Not Allowed", "text/plain", "GET only\n");
    }
    match request.path.as_str() {
        "/metrics" => {
            let body = lock(state).metrics.clone();
            render_response(200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/health" => {
            let body = lock(state).health.clone();
            render_response(200, "OK", "application/json", &body)
        }
        "/trace/tail" => match parse_tail_count(request.query.as_deref(), DEFAULT_TAIL_LINES) {
            Ok(n) => {
                let state = lock(state);
                let skip = state.trace_tail.len().saturating_sub(n);
                let mut body = String::new();
                for line in state.trace_tail.iter().skip(skip) {
                    body.push_str(line);
                    body.push('\n');
                }
                render_response(200, "OK", "application/x-ndjson", &body)
            }
            Err(detail) => render_response(400, "Bad Request", "text/plain", &format!("{detail}\n")),
        },
        _ => render_response(404, "Not Found", "text/plain", "unknown path\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn scrape(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn endpoints_serve_published_snapshots() {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let publisher = server.publisher();

        let (_, body) = scrape(addr, "/metrics");
        assert_eq!(body, "", "nothing published yet");
        let (_, body) = scrape(addr, "/health");
        assert!(body.contains("starting"), "{body}");

        let registry = MetricsRegistry::new();
        registry.add_counter("fleet_days_closed", 3);
        publisher.publish_metrics(&registry);
        publisher.publish_health(Some(2), &FleetHealth::default(), StorageFaultCounts::default());
        publisher.push_trace_line("{\"hash\":\"00\",\"body\":\"{}\"}".to_string());

        let (status, body) = scrape(addr, "/metrics");
        assert_eq!(status, 200);
        assert_eq!(body, registry.render_prometheus());
        let (status, body) = scrape(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"day\":2"), "{body}");
        let (status, body) = scrape(addr, "/trace/tail?n=1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);

        let (status, _) = scrape(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _) = scrape(addr, "/trace/tail?n=zero");
        assert_eq!(status, 400);
        server.shutdown();
    }

    #[test]
    fn non_get_and_garbage_requests_are_rejected() {
        let state = Mutex::new(Published::new());
        assert!(respond("POST /metrics HTTP/1.0", &state).starts_with("HTTP/1.0 405"));
        assert!(respond("complete garbage", &state).starts_with("HTTP/1.0 400"));
        assert!(respond("GET /metrics HTTP/1.0", &state).starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn tail_ring_is_bounded_and_ordered() {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let publisher = server.publisher();
        for index in 0..(DEFAULT_TAIL_CAPACITY + 10) {
            publisher.push_trace_line(format!("line-{index}"));
        }
        let state = lock(&server.state);
        assert_eq!(state.trace_tail.len(), DEFAULT_TAIL_CAPACITY);
        assert_eq!(
            state.trace_tail.back().map(String::as_str),
            Some(format!("line-{}", DEFAULT_TAIL_CAPACITY + 9).as_str())
        );
        assert_eq!(state.trace_tail.front().map(String::as_str), Some("line-10"));
    }

    #[test]
    fn trace_tail_recorder_mirrors_sealed_lines() {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let publisher = server.publisher();
        let tail = TraceTail::new(publisher.clone());
        assert!(tail.enabled());
        let event = TraceEvent::new("day_phases").day(1);
        tail.event(&event);
        let state = lock(&server.state);
        assert_eq!(
            state.trace_tail.back().cloned(),
            seal_event(&event),
            "tail lines must be byte-identical to file lines"
        );
    }
}
