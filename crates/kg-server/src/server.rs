//! The votekg network server: a fixed thread pool of [`ServeHandle`]
//! clones serving the lock-free rank path, one mutex-guarded
//! [`Framework`] behind the write path (votes, optimization triggers),
//! and a bounded accept queue for backpressure.
//!
//! # Threading model
//!
//! ```text
//!            TcpListener (acceptor thread)
//!                 │  push / reject-503
//!         bounded ConnQueue (Mutex + Condvar, depth = queue_depth)
//!                 │  pop
//!     worker 0 .. worker N-1   (each: ServeHandle clone, catch_unwind)
//!        │ rank / rank_batch        — lock-free snapshot reads
//!        │ vote / optimize          — Mutex<Framework> write path
//! ```
//!
//! Rankings never take the framework mutex: each worker ranks through a
//! cloned [`ServeHandle`] against the latest published epoch-stamped
//! snapshot, exactly like the in-process concurrent serving path.
//! Votes and optimization triggers serialize on the framework; on a
//! durable framework a vote is fsynced to the WAL before it is
//! acknowledged, so an acked vote survives any crash.
//!
//! # Drain semantics
//!
//! A shutdown request (the `POST /shutdown` endpoint or
//! [`KgServer::shutdown`]) flips one flag: the acceptor stops accepting,
//! already-queued connections are still served, in-flight requests
//! complete, and every response written during the drain carries
//! `Connection: close`. [`KgServer::shutdown`] then joins all threads
//! and reports whether the drain was clean (no worker panics).

use crate::protocol::{
    self, op, read_frame, read_http_request, status, write_frame, write_http_response, HttpRequest,
    Limits, RecvBuf, WireError, BIN_MAGIC,
};
use kg_graph::NodeId;
use kg_sim::RankedAnswer;
use kg_votes::Vote;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use votekg::{Framework, ServeHandle, Strategy};

/// Answers-per-request cap: bounds per-request work independently of
/// the byte-size caps.
pub const MAX_ANSWERS_PER_REQUEST: usize = 4096;

/// Queries-per-batch cap for `rank_batch`.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Worker threads (each owns a [`ServeHandle`] clone).
    pub workers: usize,
    /// Bounded accept-queue depth; connections past it get an
    /// immediate 503 and a close (backpressure, never unbounded memory).
    pub queue_depth: usize,
    /// Per-socket read timeout: bounds slow-loris writers and idle
    /// keep-alive connections.
    pub read_timeout: Duration,
    /// Per-socket write timeout: bounds peers that stop draining
    /// responses.
    pub write_timeout: Duration,
    /// Wire-format size caps.
    pub limits: Limits,
    /// On a durable framework, fsync the WAL before acknowledging each
    /// vote. An acked vote is then crash-proof; turning this off trades
    /// that guarantee for vote throughput.
    pub durable_acks: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            durable_acks: true,
        }
    }
}

/// Cumulative request counters, all relaxed atomics (the hot path
/// never locks to count).
#[derive(Debug, Default)]
struct ServerStats {
    connections_accepted: AtomicU64,
    connections_rejected_busy: AtomicU64,
    connections_closed: AtomicU64,
    http_requests: AtomicU64,
    bin_requests: AtomicU64,
    rank_requests: AtomicU64,
    rank_batch_requests: AtomicU64,
    vote_requests: AtomicU64,
    optimize_requests: AtomicU64,
    stats_requests: AtomicU64,
    metrics_requests: AtomicU64,
    health_requests: AtomicU64,
    shutdown_requests: AtomicU64,
    bad_requests: AtomicU64,
    not_found: AtomicU64,
    payload_too_large: AtomicU64,
    server_errors: AtomicU64,
    read_timeouts: AtomicU64,
    client_disconnects: AtomicU64,
    handler_panics: AtomicU64,
    votes_positive: AtomicU64,
    votes_negative: AtomicU64,
    votes_rejected: AtomicU64,
    optimize_rounds: AtomicU64,
}

macro_rules! snapshot_fields {
    ($stats:expr, $($field:ident),* $(,)?) => {
        ServerStatsSnapshot {
            $($field: $stats.$field.load(Ordering::Relaxed),)*
        }
    };
}

/// A point-in-time copy of the server counters (the `server` object in
/// `GET /stats` and the drain report).
#[derive(Debug, Clone, Serialize)]
pub struct ServerStatsSnapshot {
    pub connections_accepted: u64,
    pub connections_rejected_busy: u64,
    pub connections_closed: u64,
    pub http_requests: u64,
    pub bin_requests: u64,
    pub rank_requests: u64,
    pub rank_batch_requests: u64,
    pub vote_requests: u64,
    pub optimize_requests: u64,
    pub stats_requests: u64,
    pub metrics_requests: u64,
    pub health_requests: u64,
    pub shutdown_requests: u64,
    pub bad_requests: u64,
    pub not_found: u64,
    pub payload_too_large: u64,
    pub server_errors: u64,
    pub read_timeouts: u64,
    pub client_disconnects: u64,
    pub handler_panics: u64,
    pub votes_positive: u64,
    pub votes_negative: u64,
    pub votes_rejected: u64,
    pub optimize_rounds: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        snapshot_fields!(
            self,
            connections_accepted,
            connections_rejected_busy,
            connections_closed,
            http_requests,
            bin_requests,
            rank_requests,
            rank_batch_requests,
            vote_requests,
            optimize_requests,
            stats_requests,
            metrics_requests,
            health_requests,
            shutdown_requests,
            bad_requests,
            not_found,
            payload_too_large,
            server_errors,
            read_timeouts,
            client_disconnects,
            handler_panics,
            votes_positive,
            votes_negative,
            votes_rejected,
            optimize_rounds,
        )
    }
}

fn incr(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What [`KgServer::shutdown`] observed while draining.
#[derive(Debug, Clone, Serialize)]
pub struct DrainReport {
    /// No worker panicked over the server's whole lifetime.
    pub clean: bool,
    /// Connections still queued when the drain began (all of them were
    /// served before workers exited).
    pub queued_at_shutdown: u64,
    /// Final counter values.
    pub stats: ServerStatsSnapshot,
}

// ---------------------------------------------------------------------------
// Bounded accept queue.

struct QueueState {
    conns: VecDeque<TcpStream>,
    draining: bool,
}

struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues a connection, or returns it when the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.conns.len() >= self.depth {
            return Err(stream);
        }
        state.conns.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once draining and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.draining {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Flips the queue into drain mode: queued connections are still
    /// handed out, then every `pop` returns `None`.
    fn drain(&self) -> u64 {
        let mut state = self.lock();
        state.draining = true;
        let queued = state.conns.len() as u64;
        drop(state);
        self.ready.notify_all();
        queued
    }
}

// ---------------------------------------------------------------------------
// Shared server state.

struct Shared {
    cfg: ServerConfig,
    fw: Mutex<Framework>,
    handle: ServeHandle,
    node_count: u32,
    durable: bool,
    addr: SocketAddr,
    queue: ConnQueue,
    shutdown: AtomicBool,
    queued_at_shutdown: AtomicU64,
    stats: ServerStats,
    started: Instant,
}

impl Shared {
    fn lock_fw(&self) -> MutexGuard<'_, Framework> {
        // A panicking handler is already counted (and isolated by
        // catch_unwind); the framework state itself is snapshot-guarded,
        // so the lock stays usable.
        self.fw.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Flips the server into drain mode (idempotent) and unblocks the
    /// acceptor with a throwaway connection.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queued_at_shutdown
            .store(self.queue.drain(), Ordering::Relaxed);
        // The acceptor sits in a blocking accept(); a local connect is
        // the portable way to wake it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A running votekg network server. Dropping it without calling
/// [`KgServer::shutdown`] detaches the threads; use `shutdown` (or
/// [`KgServer::wait`]) for a clean drain.
pub struct KgServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl KgServer {
    /// Binds, spawns the acceptor and worker pool, and starts serving.
    /// The [`ServeHandle`] is taken before the framework goes behind
    /// the write-path mutex, so rankings never contend with votes.
    pub fn start(fw: Framework, cfg: ServerConfig) -> std::io::Result<KgServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let handle = fw.handle();
        let node_count = fw.graph().node_count() as u32;
        let durable = fw.is_durable();
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: ConnQueue::new(cfg.queue_depth),
            cfg,
            fw: Mutex::new(fw),
            handle,
            node_count,
            durable,
            addr,
            shutdown: AtomicBool::new(false),
            queued_at_shutdown: AtomicU64::new(0),
            stats: ServerStats::default(),
            started: Instant::now(),
        });

        let mut worker_joins = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("kg-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kg-server-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener))?
        };

        Ok(KgServer {
            shared,
            acceptor: Some(acceptor),
            workers: worker_joins,
        })
    }

    /// The bound address (real port even when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A lock-free reader handle over the same published snapshots the
    /// workers serve — lets in-process tests verify wire responses
    /// against local evaluation of the exact same epochs.
    pub fn handle(&self) -> ServeHandle {
        self.shared.handle.clone()
    }

    /// Current counter values.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Runs `f` against the framework behind the write-path mutex
    /// (tests and embedders drive optimization rounds through this).
    pub fn with_framework<T>(&self, f: impl FnOnce(&mut Framework) -> T) -> T {
        f(&mut self.shared.lock_fw())
    }

    /// Asks the server to drain without blocking (same as a
    /// `POST /shutdown` request).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// True once a shutdown was requested (endpoint or API).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown is requested (e.g. via `POST /shutdown`),
    /// then drains. This is what `votekg serve` runs.
    pub fn wait(self) -> DrainReport {
        while !self.shutdown_requested() {
            std::thread::park_timeout(Duration::from_millis(25));
        }
        self.shutdown()
    }

    /// Drains and joins: stops accepting, serves everything already
    /// queued and in flight, flushes durable state, and reports.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.request_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        {
            let mut fw = self.shared.lock_fw();
            let _ = fw.sync_wal();
        }
        let stats = self.shared.stats.snapshot();
        DrainReport {
            clean: stats.handler_panics == 0,
            queued_at_shutdown: self.shared.queued_at_shutdown.load(Ordering::Relaxed),
            stats,
        }
    }
}

fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        incr(&shared.stats.connections_accepted);
        if let Err(rejected) = shared.queue.push(stream) {
            incr(&shared.stats.connections_rejected_busy);
            reject_busy(rejected);
        }
    }
}

/// Best-effort 503 on a connection the queue had no room for. The
/// write is bounded by a short timeout so a non-reading peer cannot
/// stall the acceptor.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut out = &stream;
    let _ = write_http_response(
        &mut out,
        503,
        "application/json",
        br#"{"error":"server busy: accept queue full, retry later"}"#,
        false,
    );
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.queue.pop() {
        // One panicking connection must never poison the worker: count
        // it, drop the socket, move on to the next connection.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, &stream)));
        if outcome.is_err() {
            incr(&shared.stats.handler_panics);
        }
        incr(&shared.stats.connections_closed);
    }
}

fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut recv = RecvBuf::new(stream);
    let preamble = match recv.peek(4) {
        Ok(bytes) => bytes.to_vec(),
        Err(_) => return,
    };
    if preamble.is_empty() {
        return; // connect-then-close probe
    }
    let mut out = stream;
    if preamble == BIN_MAGIC {
        let mut sink = Vec::with_capacity(4);
        if recv.consume_exact(4, &mut sink).is_err() {
            return;
        }
        serve_binary(shared, &mut recv, &mut out);
    } else {
        serve_http(shared, &mut recv, &mut out);
    }
}

// ---------------------------------------------------------------------------
// HTTP mode.

struct Resp {
    code: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Resp {
    fn json(code: u16, body: String) -> Resp {
        Resp {
            code,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(code: u16, message: &str) -> Resp {
        Resp::json(code, format!("{{\"error\":{}}}", json_escape(message)))
    }
}

fn serve_http<W: Write>(shared: &Shared, recv: &mut RecvBuf<&TcpStream>, out: &mut W) {
    loop {
        let req = match read_http_request(recv, &shared.cfg.limits, true) {
            Ok(req) => req,
            Err(WireError::Closed) => return,
            Err(WireError::Timeout) => {
                incr(&shared.stats.read_timeouts);
                let _ = write_http_response(
                    out,
                    408,
                    "application/json",
                    br#"{"error":"request timed out before a full request arrived"}"#,
                    false,
                );
                return;
            }
            Err(WireError::Bad(msg)) => {
                incr(&shared.stats.bad_requests);
                let _ = write_http_response(
                    out,
                    400,
                    "application/json",
                    Resp::error(400, &msg).body.as_slice(),
                    false,
                );
                return;
            }
            Err(WireError::TooLarge(msg)) => {
                incr(&shared.stats.payload_too_large);
                let _ = write_http_response(
                    out,
                    413,
                    "application/json",
                    Resp::error(413, &msg).body.as_slice(),
                    false,
                );
                return;
            }
            Err(WireError::Io(_)) => {
                incr(&shared.stats.client_disconnects);
                return;
            }
        };
        incr(&shared.stats.http_requests);
        let resp = route_http(shared, &req);
        match resp.code {
            400 | 405 => incr(&shared.stats.bad_requests),
            404 => incr(&shared.stats.not_found),
            413 => incr(&shared.stats.payload_too_large),
            500 => incr(&shared.stats.server_errors),
            _ => {}
        }
        // Responses written during a drain force the connection closed
        // so keep-alive clients re-resolve instead of waiting forever.
        let keep = req.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        if write_http_response(out, resp.code, resp.content_type, &resp.body, keep).is_err() {
            incr(&shared.stats.client_disconnects);
            return;
        }
        if !keep {
            return;
        }
    }
}

fn route_http(shared: &Shared, req: &HttpRequest) -> Resp {
    let endpoint: &'static str = match req.path.as_str() {
        "/rank" => "rank",
        "/rank_batch" => "rank_batch",
        "/vote" => "vote",
        "/optimize" => "optimize",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/shutdown" => "shutdown",
        _ => {
            return Resp::error(
                404,
                &format!(
                    "unknown path {:?}; endpoints: /rank /rank_batch /vote /optimize /stats /metrics /healthz /shutdown",
                    req.path
                ),
            )
        }
    };
    let _span = kg_telemetry::span!("votekg.server.request", { endpoint: endpoint });
    match (req.method.as_str(), endpoint) {
        ("GET" | "POST", "rank") => http_rank(shared, req),
        ("POST", "rank_batch") => http_rank_batch(shared, req),
        ("POST", "vote") => http_vote(shared, req),
        ("POST", "optimize") => http_optimize(shared, req),
        ("GET", "stats") => {
            incr(&shared.stats.stats_requests);
            Resp::json(200, stats_json(shared))
        }
        ("GET", "metrics") => {
            incr(&shared.stats.metrics_requests);
            Resp {
                code: 200,
                content_type: "text/plain; version=0.0.4",
                body: prometheus_text(shared).into_bytes(),
            }
        }
        ("GET", "healthz") => {
            incr(&shared.stats.health_requests);
            Resp::json(200, "{\"status\":\"ok\"}".to_string())
        }
        ("POST", "shutdown") => {
            incr(&shared.stats.shutdown_requests);
            shared.request_shutdown();
            Resp::json(200, "{\"draining\":true}".to_string())
        }
        (method, _) => Resp::error(
            405,
            &format!("method {method} is not allowed on {}", req.path),
        ),
    }
}

// ---------------------------------------------------------------------------
// Handler plumbing shared by both wire formats.

enum HandlerError {
    /// The request is invalid — the client's fault (400 / bad frame).
    Bad(String),
    /// The server failed — our fault (500 / error frame).
    Internal(String),
}

fn bad(msg: impl Into<String>) -> HandlerError {
    HandlerError::Bad(msg.into())
}

fn node_in_graph(shared: &Shared, id: u32, what: &str) -> Result<NodeId, HandlerError> {
    if id < shared.node_count {
        Ok(NodeId(id))
    } else {
        Err(bad(format!(
            "{what} node {id} is out of range: the graph has {} nodes",
            shared.node_count
        )))
    }
}

fn check_answer_count(n: usize) -> Result<(), HandlerError> {
    if n == 0 {
        return Err(bad("answers must be a non-empty list"));
    }
    if n > MAX_ANSWERS_PER_REQUEST {
        return Err(bad(format!(
            "{n} answers exceed the per-request cap of {MAX_ANSWERS_PER_REQUEST}"
        )));
    }
    Ok(())
}

/// Core rank path: validate ids, then a lock-free snapshot read.
fn do_rank(
    shared: &Shared,
    query: u32,
    answers: &[u32],
    k: usize,
) -> Result<(u64, Vec<RankedAnswer>), HandlerError> {
    incr(&shared.stats.rank_requests);
    check_answer_count(answers.len())?;
    let query = node_in_graph(shared, query, "query")?;
    let answers: Vec<NodeId> = answers
        .iter()
        .map(|&a| node_in_graph(shared, a, "answer"))
        .collect::<Result<_, _>>()?;
    let k = if k == 0 { answers.len() } else { k };
    let (snap, ranking) = shared.handle.rank_snapshot(query, &answers, k);
    Ok((snap.epoch(), ranking))
}

/// Core vote path: validate, then append + (optionally) fsync under
/// the framework mutex before acknowledging.
fn do_vote(
    shared: &Shared,
    query: u32,
    answers: &[u32],
    best: u32,
) -> Result<(kg_votes::VoteKind, bool, usize), HandlerError> {
    incr(&shared.stats.vote_requests);
    check_answer_count(answers.len())?;
    let query = node_in_graph(shared, query, "query")?;
    let best = node_in_graph(shared, best, "best")?;
    let answers: Vec<NodeId> = answers
        .iter()
        .map(|&a| node_in_graph(shared, a, "answer"))
        .collect::<Result<_, _>>()?;
    let vote = Vote::try_new(query, answers, best).map_err(|e| {
        incr(&shared.stats.votes_rejected);
        bad(format!("invalid vote: {e}"))
    })?;
    let mut fw = shared.lock_fw();
    let kind = fw
        .record_vote_durable(vote)
        .map_err(|e| HandlerError::Internal(format!("vote WAL append failed: {e}")))?;
    let durable = shared.durable && shared.cfg.durable_acks;
    if durable {
        fw.sync_wal()
            .map_err(|e| HandlerError::Internal(format!("vote WAL fsync failed: {e}")))?;
    }
    let pending = fw.pending_votes().len();
    drop(fw);
    match kind {
        kg_votes::VoteKind::Positive => incr(&shared.stats.votes_positive),
        kg_votes::VoteKind::Negative => incr(&shared.stats.votes_negative),
    }
    Ok((kind, durable, pending))
}

// ---------------------------------------------------------------------------
// HTTP handlers.

#[derive(Serialize)]
struct RankedAnswerWire {
    node: u32,
    rank: usize,
    score: f64,
    /// `score.to_bits()`: lets clients compare rankings bit-exactly.
    score_bits: u64,
}

#[derive(Serialize)]
struct RankResponseWire {
    epoch: u64,
    query: u32,
    ranking: Vec<RankedAnswerWire>,
}

fn rank_wire(epoch: u64, query: u32, ranking: Vec<RankedAnswer>) -> RankResponseWire {
    RankResponseWire {
        epoch,
        query,
        ranking: ranking
            .into_iter()
            .map(|a| RankedAnswerWire {
                node: a.node.0,
                rank: a.rank,
                score: a.score,
                score_bits: a.score.to_bits(),
            })
            .collect(),
    }
}

fn to_resp(result: Result<Resp, HandlerError>) -> Resp {
    match result {
        Ok(resp) => resp,
        Err(HandlerError::Bad(msg)) => Resp::error(400, &msg),
        Err(HandlerError::Internal(msg)) => Resp::error(500, &msg),
    }
}

fn http_rank(shared: &Shared, req: &HttpRequest) -> Resp {
    to_resp((|| {
        let (query, answers, k) = if req.method == "GET" {
            parse_rank_params(req)?
        } else {
            let body = parse_body(&req.body)?;
            (
                field_u32(&body, "query")?,
                field_id_list(&body, "answers")?,
                opt_field_u64(&body, "k")?.unwrap_or(0) as usize,
            )
        };
        let (epoch, ranking) = do_rank(shared, query, &answers, k)?;
        Ok(Resp::json(
            200,
            serde_json::to_string(&rank_wire(epoch, query, ranking))
                .map_err(|e| HandlerError::Internal(e.to_string()))?,
        ))
    })())
}

/// `GET /rank?query=3&answers=1,2,5&k=2`
fn parse_rank_params(req: &HttpRequest) -> Result<(u32, Vec<u32>, usize), HandlerError> {
    let query = req
        .param("query")
        .ok_or_else(|| bad("missing required query parameter 'query'"))?;
    let query: u32 = query
        .parse()
        .map_err(|_| bad(format!("unparseable query id {query:?}")))?;
    let answers = req
        .param("answers")
        .ok_or_else(|| bad("missing required query parameter 'answers' (comma-separated ids)"))?;
    let answers: Vec<u32> = answers
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| bad(format!("unparseable answer id {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let k = match req.param("k") {
        Some(k) => k
            .parse()
            .map_err(|_| bad(format!("unparseable k value {k:?}")))?,
        None => 0,
    };
    Ok((query, answers, k))
}

fn http_rank_batch(shared: &Shared, req: &HttpRequest) -> Resp {
    to_resp((|| {
        incr(&shared.stats.rank_batch_requests);
        let body = parse_body(&req.body)?;
        let queries = body
            .get("queries")
            .ok_or_else(|| bad("missing required field 'queries'"))?;
        let queries = queries
            .as_array()
            .ok_or_else(|| bad("field 'queries' must be an array of rank requests"))?;
        if queries.len() > MAX_BATCH_QUERIES {
            return Err(bad(format!(
                "{} queries exceed the per-batch cap of {MAX_BATCH_QUERIES}",
                queries.len()
            )));
        }
        let mut results = Vec::with_capacity(queries.len());
        for (i, item) in queries.iter().enumerate() {
            let query = field_u32(item, "query").map_err(|e| prefix_item_error(i, e))?;
            let answers = field_id_list(item, "answers").map_err(|e| prefix_item_error(i, e))?;
            let k = opt_field_u64(item, "k")
                .map_err(|e| prefix_item_error(i, e))?
                .unwrap_or(0) as usize;
            let (epoch, ranking) =
                do_rank(shared, query, &answers, k).map_err(|e| prefix_item_error(i, e))?;
            results.push(rank_wire(epoch, query, ranking));
        }
        #[derive(Serialize)]
        struct BatchWire {
            results: Vec<RankResponseWire>,
        }
        Ok(Resp::json(
            200,
            serde_json::to_string(&BatchWire { results })
                .map_err(|e| HandlerError::Internal(e.to_string()))?,
        ))
    })())
}

fn prefix_item_error(index: usize, e: HandlerError) -> HandlerError {
    match e {
        HandlerError::Bad(msg) => HandlerError::Bad(format!("queries[{index}]: {msg}")),
        other => other,
    }
}

fn http_vote(shared: &Shared, req: &HttpRequest) -> Resp {
    to_resp((|| {
        let body = parse_body(&req.body)?;
        let query = field_u32(&body, "query")?;
        let answers = field_id_list(&body, "answers")?;
        let best = field_u32(&body, "best")?;
        let (kind, durable, pending) = do_vote(shared, query, &answers, best)?;
        #[derive(Serialize)]
        struct VoteWire {
            kind: &'static str,
            durable: bool,
            pending_votes: usize,
        }
        Ok(Resp::json(
            200,
            serde_json::to_string(&VoteWire {
                kind: match kind {
                    kg_votes::VoteKind::Positive => "positive",
                    kg_votes::VoteKind::Negative => "negative",
                },
                durable,
                pending_votes: pending,
            })
            .map_err(|e| HandlerError::Internal(e.to_string()))?,
        ))
    })())
}

fn http_optimize(shared: &Shared, req: &HttpRequest) -> Resp {
    to_resp((|| {
        incr(&shared.stats.optimize_requests);
        let body = if req.body.is_empty() {
            serde::Value::Object(Vec::new())
        } else {
            parse_body(&req.body)?
        };
        let strategy = match opt_field_str(&body, "strategy")?.unwrap_or("multi") {
            "single" => Strategy::SingleVote,
            "multi" => Strategy::MultiVote,
            "split-merge" | "split_merge" => Strategy::SplitMerge,
            other => {
                return Err(bad(format!(
                    "unknown strategy {other:?}: expected single | multi | split-merge"
                )))
            }
        };
        let batch = opt_field_u64(&body, "batch")?.unwrap_or(0) as usize;
        let started = Instant::now();
        let mut fw = shared.lock_fw();
        let reports = if batch > 0 {
            fw.optimize_incremental_durable(strategy, batch)
                .map_err(|e| HandlerError::Internal(format!("optimization commit failed: {e}")))?
        } else {
            vec![fw
                .optimize_durable(strategy)
                .map_err(|e| HandlerError::Internal(format!("optimization commit failed: {e}")))?]
        };
        drop(fw);
        shared
            .stats
            .optimize_rounds
            .fetch_add(reports.len() as u64, Ordering::Relaxed);
        #[derive(Serialize)]
        struct OptimizeWire {
            strategy: &'static str,
            rounds: usize,
            votes_applied: usize,
            votes_discarded: usize,
            votes_quarantined: usize,
            edges_changed: usize,
            omega: i64,
            epoch: u64,
            elapsed_ms: u64,
        }
        Ok(Resp::json(
            200,
            serde_json::to_string(&OptimizeWire {
                strategy: strategy.as_str(),
                rounds: reports.len(),
                votes_applied: reports.iter().map(|r| r.outcomes.len()).sum(),
                votes_discarded: reports.iter().map(|r| r.discarded_votes).sum(),
                votes_quarantined: reports.iter().map(|r| r.quarantined_votes).sum(),
                edges_changed: reports.iter().map(|r| r.edges_changed).sum(),
                omega: reports.iter().map(|r| r.omega()).sum(),
                epoch: shared.handle.epoch(),
                elapsed_ms: started.elapsed().as_millis() as u64,
            })
            .map_err(|e| HandlerError::Internal(e.to_string()))?,
        ))
    })())
}

// ---------------------------------------------------------------------------
// Stats + metrics documents.

#[derive(Serialize)]
struct CacheStatsWire {
    hits: u64,
    misses: u64,
    invalidated: u64,
    retained: u64,
}

#[derive(Serialize)]
struct StatsDoc {
    epoch: u64,
    nodes: u32,
    durable: bool,
    workers: usize,
    queue_depth: usize,
    uptime_ms: u64,
    server: ServerStatsSnapshot,
    cache: CacheStatsWire,
}

fn stats_doc(shared: &Shared) -> StatsDoc {
    let cache = shared.handle.stats();
    StatsDoc {
        epoch: shared.handle.epoch(),
        nodes: shared.node_count,
        durable: shared.durable,
        workers: shared.cfg.workers.max(1),
        queue_depth: shared.cfg.queue_depth.max(1),
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        server: shared.stats.snapshot(),
        cache: CacheStatsWire {
            hits: cache.hits,
            misses: cache.misses,
            invalidated: cache.invalidated,
            retained: cache.retained,
        },
    }
}

fn stats_json(shared: &Shared) -> String {
    serde_json::to_string(&stats_doc(shared))
        .unwrap_or_else(|e| format!("{{\"error\":{}}}", json_escape(&e.to_string())))
}

/// Prometheus text exposition: the server's own counters, then (when
/// telemetry collection is enabled) the whole `votekg.*` registry.
fn prometheus_text(shared: &Shared) -> String {
    let doc = stats_doc(shared);
    let s = &doc.server;
    let mut out = String::with_capacity(2048);
    out.push_str("# TYPE votekg_server_requests_total counter\n");
    for (endpoint, value) in [
        ("rank", s.rank_requests),
        ("rank_batch", s.rank_batch_requests),
        ("vote", s.vote_requests),
        ("optimize", s.optimize_requests),
        ("stats", s.stats_requests),
        ("metrics", s.metrics_requests),
        ("healthz", s.health_requests),
        ("shutdown", s.shutdown_requests),
    ] {
        out.push_str(&format!(
            "votekg_server_requests_total{{endpoint=\"{endpoint}\"}} {value}\n"
        ));
    }
    out.push_str("# TYPE votekg_server_errors_total counter\n");
    for (kind, value) in [
        ("bad_request", s.bad_requests),
        ("not_found", s.not_found),
        ("payload_too_large", s.payload_too_large),
        ("internal", s.server_errors),
        ("read_timeout", s.read_timeouts),
        ("client_disconnect", s.client_disconnects),
        ("handler_panic", s.handler_panics),
    ] {
        out.push_str(&format!(
            "votekg_server_errors_total{{kind=\"{kind}\"}} {value}\n"
        ));
    }
    out.push_str("# TYPE votekg_server_connections_total counter\n");
    for (state, value) in [
        ("accepted", s.connections_accepted),
        ("rejected_busy", s.connections_rejected_busy),
        ("closed", s.connections_closed),
    ] {
        out.push_str(&format!(
            "votekg_server_connections_total{{state=\"{state}\"}} {value}\n"
        ));
    }
    out.push_str("# TYPE votekg_server_votes_total counter\n");
    for (kind, value) in [
        ("positive", s.votes_positive),
        ("negative", s.votes_negative),
        ("rejected", s.votes_rejected),
    ] {
        out.push_str(&format!(
            "votekg_server_votes_total{{kind=\"{kind}\"}} {value}\n"
        ));
    }
    out.push_str("# TYPE votekg_server_optimize_rounds_total counter\n");
    out.push_str(&format!(
        "votekg_server_optimize_rounds_total {}\n",
        s.optimize_rounds
    ));
    out.push_str("# TYPE votekg_server_epoch gauge\n");
    out.push_str(&format!("votekg_server_epoch {}\n", doc.epoch));
    out.push_str("# TYPE votekg_server_cache_events_total counter\n");
    for (event, value) in [
        ("hit", doc.cache.hits),
        ("miss", doc.cache.misses),
        ("invalidated", doc.cache.invalidated),
        ("retained", doc.cache.retained),
    ] {
        out.push_str(&format!(
            "votekg_server_cache_events_total{{event=\"{event}\"}} {value}\n"
        ));
    }
    if kg_telemetry::is_enabled() {
        out.push_str(&kg_telemetry::export_prometheus());
    }
    out
}

// ---------------------------------------------------------------------------
// Binary mode.

fn serve_binary<W: Write>(shared: &Shared, recv: &mut RecvBuf<&TcpStream>, out: &mut W) {
    loop {
        let (op_byte, payload) = match read_frame(recv, &shared.cfg.limits, true) {
            Ok(frame) => frame,
            Err(WireError::Closed) => return,
            Err(WireError::Timeout) => {
                incr(&shared.stats.read_timeouts);
                return;
            }
            Err(WireError::Bad(msg)) => {
                incr(&shared.stats.bad_requests);
                let _ = write_frame(out, status::BAD_REQUEST, msg.as_bytes());
                return;
            }
            Err(WireError::TooLarge(msg)) => {
                incr(&shared.stats.payload_too_large);
                let _ = write_frame(out, status::BAD_REQUEST, msg.as_bytes());
                return;
            }
            Err(WireError::Io(_)) => {
                incr(&shared.stats.client_disconnects);
                return;
            }
        };
        incr(&shared.stats.bin_requests);
        let (status_byte, body) = route_binary(shared, op_byte, &payload);
        if status_byte == status::BAD_REQUEST {
            incr(&shared.stats.bad_requests);
        } else if status_byte == status::ERROR {
            incr(&shared.stats.server_errors);
        }
        if write_frame(out, status_byte, &body).is_err() {
            incr(&shared.stats.client_disconnects);
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn route_binary(shared: &Shared, op_byte: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    let endpoint: &'static str = match op_byte {
        op::RANK => "bin_rank",
        op::VOTE => "bin_vote",
        op::STATS => "bin_stats",
        op::PING => "bin_ping",
        _ => "bin_unknown",
    };
    let _span = kg_telemetry::span!("votekg.server.request", { endpoint: endpoint });
    match op_byte {
        op::RANK => match protocol::decode_rank_request(payload) {
            Ok(req) => match do_rank(shared, req.query, &req.answers, req.k as usize) {
                Ok((epoch, ranking)) => {
                    let wire: Vec<(u32, u64)> = ranking
                        .iter()
                        .map(|a| (a.node.0, a.score.to_bits()))
                        .collect();
                    (status::OK, protocol::encode_rank_response(epoch, &wire))
                }
                Err(e) => handler_error_frame(e),
            },
            Err(msg) => (status::BAD_REQUEST, msg.into_bytes()),
        },
        op::VOTE => match protocol::decode_vote_request(payload) {
            Ok(req) => match do_vote(shared, req.query, &req.answers, req.best) {
                Ok((kind, durable, _pending)) => {
                    let kind_byte = match kind {
                        kg_votes::VoteKind::Positive => 0u8,
                        kg_votes::VoteKind::Negative => 1u8,
                    };
                    (status::OK, vec![kind_byte, durable as u8])
                }
                Err(e) => handler_error_frame(e),
            },
            Err(msg) => (status::BAD_REQUEST, msg.into_bytes()),
        },
        op::STATS => {
            incr(&shared.stats.stats_requests);
            (status::OK, stats_json(shared).into_bytes())
        }
        op::PING => (status::OK, Vec::new()),
        other => (
            status::BAD_REQUEST,
            format!("unknown opcode {other}: expected rank=1 vote=2 stats=3 ping=4").into_bytes(),
        ),
    }
}

fn handler_error_frame(e: HandlerError) -> (u8, Vec<u8>) {
    match e {
        HandlerError::Bad(msg) => (status::BAD_REQUEST, msg.into_bytes()),
        HandlerError::Internal(msg) => (status::ERROR, msg.into_bytes()),
    }
}

// ---------------------------------------------------------------------------
// JSON body helpers. The compat serde derive has no `#[serde(...)]`
// attribute support, so optional fields are hand-extracted from the
// generic `Value` tree — which also yields precise error messages.

fn parse_body(body: &[u8]) -> Result<serde::Value, HandlerError> {
    if body.is_empty() {
        return Err(bad("missing JSON body"));
    }
    let text =
        std::str::from_utf8(body).map_err(|_| bad("request body is not valid UTF-8 JSON"))?;
    serde_json::from_str(text).map_err(|e| bad(format!("invalid JSON body: {e}")))
}

fn field_u32(v: &serde::Value, key: &str) -> Result<u32, HandlerError> {
    let raw = v
        .get(key)
        .ok_or_else(|| bad(format!("missing required field {key:?}")))?;
    let n = raw
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer")))?;
    u32::try_from(n).map_err(|_| bad(format!("field {key:?} value {n} exceeds u32::MAX")))
}

fn field_id_list(v: &serde::Value, key: &str) -> Result<Vec<u32>, HandlerError> {
    let raw = v
        .get(key)
        .ok_or_else(|| bad(format!("missing required field {key:?}")))?;
    let arr = raw
        .as_array()
        .ok_or_else(|| bad(format!("field {key:?} must be an array of node ids")))?;
    arr.iter()
        .enumerate()
        .map(|(i, item)| {
            let n = item
                .as_u64()
                .ok_or_else(|| bad(format!("{key}[{i}] must be a non-negative integer node id")))?;
            u32::try_from(n).map_err(|_| bad(format!("{key}[{i}] value {n} exceeds u32::MAX")))
        })
        .collect()
}

fn opt_field_u64(v: &serde::Value, key: &str) -> Result<Option<u64>, HandlerError> {
    match v.get(key) {
        None | Some(serde::Value::Null) => Ok(None),
        Some(raw) => raw
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn opt_field_str<'a>(v: &'a serde::Value, key: &str) -> Result<Option<&'a str>, HandlerError> {
    match v.get(key) {
        None | Some(serde::Value::Null) => Ok(None),
        Some(raw) => raw
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

/// Minimal JSON string escaping for error messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
