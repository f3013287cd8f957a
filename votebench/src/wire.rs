//! The clients: set-up and warm-up, the closed loops of the read
//! workloads, and the writer and open-loop reader of `vote_rounds`.
//! Everything here talks to the server over real sockets through the
//! public `kg_server` clients.

use crate::plan::{Question, RankReq, SEGMENTS, TOP_K};
use crate::stats::Samples;
use kg_server::{BinClient, ClientError, HttpClient, KgServer, ServerConfig};
use kg_votes::Vote;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use votekg::{DurableOptions, Framework, FrameworkConfig};

/// Responses kept for the bit-identity check: one in this many.
pub const SAMPLE_EVERY: u64 = 97;

/// A served ranking as `(node, score bits)`.
pub type Ranking = Vec<(u32, u64)>;

/// One response kept for the correctness and codec checks.
#[derive(Debug, Clone)]
pub struct Sample {
    pub query: u32,
    pub answers: Vec<u32>,
    pub epoch: u64,
    pub ranking: Ranking,
}

/// A connection in either wire format.
pub enum Conn {
    Http(HttpClient),
    Bin(BinClient),
}

/// What one rank call returned.
pub struct Reply {
    pub epoch: u64,
    /// Filled when the caller asked for the full ranking.
    pub ranking: Option<Ranking>,
}

pub fn rank_body(query: u32, answers: &[u32]) -> String {
    let ids: Vec<String> = answers.iter().map(|a| a.to_string()).collect();
    format!(
        "{{\"query\":{query},\"answers\":[{}],\"k\":{TOP_K}}}",
        ids.join(",")
    )
}

pub fn vote_body(v: &Vote) -> String {
    let ids: Vec<String> = v.answers.iter().map(|a| a.0.to_string()).collect();
    format!(
        "{{\"query\":{},\"answers\":[{}],\"best\":{}}}",
        v.query.0,
        ids.join(","),
        v.best.0
    )
}

fn protocol(msg: impl Into<String>) -> ClientError {
    ClientError::Protocol(msg.into())
}

/// The epoch of a rank response without parsing the whole document:
/// the server writes it as the first field.
fn leading_epoch(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"epoch\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Parses a JSON rank response into its epoch and `(node, bits)` list.
pub fn parse_rank_json(body: &[u8]) -> Result<(u64, Ranking), ClientError> {
    let text = std::str::from_utf8(body).map_err(|_| protocol("rank body is not UTF-8"))?;
    let doc: serde::Value =
        serde_json::from_str(text).map_err(|e| protocol(format!("rank body is not JSON: {e}")))?;
    let epoch = doc
        .get("epoch")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| protocol("rank response lacks epoch"))?;
    let ranking = doc
        .get("ranking")
        .and_then(|r| r.as_array())
        .ok_or_else(|| protocol("rank response lacks ranking"))?
        .iter()
        .map(|a| {
            let node = a.get("node").and_then(serde::Value::as_u64)?;
            let bits = a.get("score_bits").and_then(serde::Value::as_u64)?;
            Some((node as u32, bits))
        })
        .collect::<Option<Ranking>>()
        .ok_or_else(|| protocol("malformed ranking entry"))?;
    Ok((epoch, ranking))
}

impl Conn {
    pub fn dial(addr: SocketAddr, binary: bool) -> Result<Conn, ClientError> {
        if binary {
            BinClient::connect(addr).map(Conn::Bin)
        } else {
            HttpClient::connect(addr).map(Conn::Http)
        }
    }

    /// One rank request. `body` is the pre-built HTTP body (ignored, and
    /// empty, in binary mode); `full` asks for the ranking itself.
    pub fn rank(
        &mut self,
        query: u32,
        answers: &[u32],
        body: &str,
        full: bool,
    ) -> Result<Reply, ClientError> {
        match self {
            Conn::Http(http) => {
                let resp = http.post_json("/rank", body)?;
                if full {
                    let (epoch, ranking) = parse_rank_json(&resp.body)?;
                    Ok(Reply {
                        epoch,
                        ranking: Some(ranking),
                    })
                } else {
                    let epoch = match leading_epoch(&resp.body) {
                        Some(e) => e,
                        None => parse_rank_json(&resp.body)?.0,
                    };
                    Ok(Reply {
                        epoch,
                        ranking: None,
                    })
                }
            }
            Conn::Bin(bin) => {
                let resp = bin.rank(query, answers, TOP_K as u16)?;
                Ok(Reply {
                    epoch: resp.epoch,
                    ranking: full.then(|| {
                        resp.ranking
                            .iter()
                            .map(|a| (a.node, a.score_bits))
                            .collect()
                    }),
                })
            }
        }
    }

    pub fn reconnects(&self) -> u64 {
        match self {
            Conn::Http(http) => http.reconnects,
            Conn::Bin(_) => 0,
        }
    }
}

/// Questions per warm-up `/rank_batch` request.
const WARM_UP_CHUNK: usize = 128;

/// Seconds one set-up took, in all and by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUpTimes {
    pub total: f64,
    /// `Framework::new` / `Framework::open_durable`.
    pub build: f64,
    /// `KgServer::start`.
    pub start: f64,
    /// Ranking the pool over the wire.
    pub warm: f64,
}

/// Starts a server over a fresh framework and warms its cache by
/// ranking every pooled question once over the wire. Returns the server
/// and the time from framework build to the last warm-up response.
pub fn set_up(
    graph: kg_graph::KnowledgeGraph,
    wal_dir: Option<&Path>,
    pool: &[Question],
) -> Result<(KgServer, SetUpTimes), String> {
    let started = Instant::now();
    let fw = match wal_dir {
        Some(dir) => {
            Framework::open_durable(
                dir,
                graph,
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .map_err(|e| format!("open_durable {}: {e}", dir.display()))?
            .0
        }
        None => Framework::new(graph, FrameworkConfig::default()),
    };
    let built = Instant::now();
    let server =
        KgServer::start(fw, ServerConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let serving = Instant::now();
    // One `/rank_batch` per chunk: the set-up does the ranking work, not
    // hundreds of idle-machine round trips.
    let mut http = HttpClient::connect(server.addr()).map_err(|e| format!("warm-up dial: {e}"))?;
    for chunk in pool.chunks(WARM_UP_CHUNK) {
        let items: Vec<String> = chunk
            .iter()
            .map(|q| rank_body(q.query, &q.answers))
            .collect();
        let body = format!("{{\"queries\":[{}]}}", items.join(","));
        http.post_json("/rank_batch", &body)
            .map_err(|e| format!("warm-up rank_batch: {e}"))?;
    }
    let done = Instant::now();
    let times = SetUpTimes {
        total: (done - started).as_secs_f64(),
        build: (built - started).as_secs_f64(),
        start: (serving - built).as_secs_f64(),
        warm: (done - serving).as_secs_f64(),
    };
    Ok((server, times))
}

/// What one client connection observed.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Latency of each successful request, nanoseconds.
    pub lat: Samples,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Transparent HTTP reconnects (each also counts as a failure).
    pub reconnects: u64,
    pub epoch_regressions: u64,
    pub errors: Vec<String>,
    pub samples: Vec<Sample>,
    /// Requests of the plan's stream this connection got through.
    pub sent: usize,
    /// The latencies of each segment: by time in the closed loops, by
    /// send order in the open loop.
    pub seg_lat: Vec<Samples>,
    /// Open loop only: sends that started late, and the worst slip.
    pub late: u64,
    pub max_late_ns: u64,
}

impl ConnResult {
    fn fail(&mut self, what: &str, e: &ClientError) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Books a completed rank; returns false when it failed.
    fn book_rank(
        &mut self,
        req: &RankReq,
        pool: &[Question],
        result: Result<Reply, ClientError>,
        elapsed_ns: u64,
        last_epoch: &mut u64,
        reconnects: u64,
    ) {
        self.attempted += 1;
        if reconnects > 0 {
            // The client re-sent after an IO error: the request may have
            // been applied twice, so it is never a success.
            self.reconnects += reconnects;
            self.failed += 1;
            return;
        }
        match result {
            Ok(reply) => {
                self.ok += 1;
                self.lat.push(elapsed_ns);
                if reply.epoch < *last_epoch {
                    self.epoch_regressions += 1;
                }
                *last_epoch = (*last_epoch).max(reply.epoch);
                if let Some(ranking) = reply.ranking {
                    self.samples.push(Sample {
                        query: pool[req.question].query,
                        answers: req.answers.clone(),
                        epoch: reply.epoch,
                        ranking,
                    });
                }
            }
            Err(e) => self.fail("rank", &e),
        }
    }
}

/// A closed loop: send, wait for the response, send the next, cycling
/// through `stream`. Each segment ends at its deadline and dials a fresh
/// connection, so one run samples several thread placements.
pub fn closed_loop(
    addr: SocketAddr,
    binary: bool,
    pool: &[Question],
    stream: &[RankReq],
    bodies: &[String],
    deadlines: &[Instant],
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut i = 0usize;
    for &deadline in deadlines {
        let mut conn = match Conn::dial(addr, binary) {
            Ok(c) => c,
            Err(e) => {
                out.attempted += 1;
                out.fail("dial", &e);
                return out;
            }
        };
        let mut last_epoch = 0u64;
        let lat_before = out.lat.len();
        while Instant::now() < deadline {
            let req = &stream[i % stream.len()];
            let full = (i as u64).is_multiple_of(SAMPLE_EVERY);
            let query = pool[req.question].query;
            let before = conn.reconnects();
            let t0 = Instant::now();
            let body = bodies.get(i % stream.len()).map_or("", String::as_str);
            let result = conn.rank(query, &req.answers, body, full);
            let ns = t0.elapsed().as_nanos() as u64;
            let after = conn.reconnects();
            out.book_rank(req, pool, result, ns, &mut last_epoch, after - before);
            i += 1;
        }
        out.seg_lat.push(out.lat.tail(lat_before));
    }
    out.sent = i;
    out
}

/// Sleeps until `due` (returns at once when it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A send counts as late when it starts this long after its schedule.
const LATE_NS: u64 = 100_000;

/// How far the writer has got: the instant it started each trigger, and
/// whether it is done. The reader paces its reads by it.
#[derive(Default)]
pub struct Progress {
    state: Mutex<(Vec<Instant>, bool)>,
    changed: Condvar,
}

impl Progress {
    fn begin_trigger(&self) {
        self.state.lock().expect("progress").0.push(Instant::now());
        self.changed.notify_all();
    }

    fn finish(&self) {
        self.state.lock().expect("progress").1 = true;
        self.changed.notify_all();
    }

    /// Blocks until the writer starts trigger `t`, and returns when it
    /// did; `None` when the writer finished without reaching it.
    fn wait_for(&self, t: usize) -> Option<Instant> {
        let mut state = self.state.lock().expect("progress");
        loop {
            if let Some(&at) = state.0.get(t) {
                return Some(at);
            }
            if state.1 {
                return None;
            }
            state = self.changed.wait(state).expect("progress");
        }
    }
}

/// The open-loop reader of `vote_rounds`: `per_trigger` reads per
/// writer trigger. Trigger `t`'s reads start when the writer starts
/// trigger `t`, or when the reader finishes trigger `t - 1`'s if that is
/// later, and read `j` is due `j / rps` after that start. When the
/// previous response came after a read's due time, latency runs from the
/// due time, so a server stall is charged to every request queued behind
/// it. Otherwise it runs from the actual send, so the generator's own
/// oversleep is not charged to the server (it shows in the late-send
/// counts). The reader's total work is fixed, so the rate it achieves
/// follows the writer's round time.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[Question],
    reads: &[RankReq],
    bodies: &[String],
    per_trigger: usize,
    rps: f64,
    progress: &Progress,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut conn = match Conn::dial(addr, false) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail("dial", &e);
            return out;
        }
    };
    let mut last_epoch = 0u64;
    let mut last_response: Option<Instant> = None;
    let mut i = 0usize;
    for (t, chunk) in reads.chunks(per_trigger).enumerate() {
        let Some(trigger_start) = progress.wait_for(t) else {
            break;
        };
        let base = last_response.map_or(trigger_start, |r| r.max(trigger_start));
        for (j, req) in chunk.iter().enumerate() {
            let due = base + Duration::from_secs_f64(j as f64 / rps);
            sleep_until(due);
            let sent = Instant::now();
            let slip = (sent - due).as_nanos() as u64;
            if slip > LATE_NS {
                out.late += 1;
            }
            out.max_late_ns = out.max_late_ns.max(slip);
            let full = (i as u64).is_multiple_of(SAMPLE_EVERY);
            let before = conn.reconnects();
            let result = conn.rank(pool[req.question].query, &req.answers, &bodies[i], full);
            let from = if last_response.is_some_and(|r| r > due) {
                due
            } else {
                sent
            };
            let done = Instant::now();
            last_response = Some(done);
            let after = conn.reconnects();
            out.book_rank(
                req,
                pool,
                result,
                (done - from).as_nanos() as u64,
                &mut last_epoch,
                after - before,
            );
            i += 1;
        }
    }
    out.sent = i;
    out.seg_lat = out.lat.split(SEGMENTS);
    out
}

/// The server's reply to one `/optimize` trigger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeReply {
    pub rounds: u64,
    pub votes_applied: u64,
    pub votes_discarded: u64,
    pub votes_quarantined: u64,
    pub edges_changed: u64,
    pub omega: i64,
    pub epoch: u64,
}

fn parse_optimize(body: &[u8]) -> Result<OptimizeReply, ClientError> {
    let text = std::str::from_utf8(body).map_err(|_| protocol("optimize body is not UTF-8"))?;
    let doc: serde::Value = serde_json::from_str(text)
        .map_err(|e| protocol(format!("optimize body is not JSON: {e}")))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| protocol(format!("optimize reply lacks {k}")))
    };
    let omega = match doc.get("omega") {
        Some(serde::Value::Int(v)) => *v,
        Some(serde::Value::UInt(v)) => *v as i64,
        _ => return Err(protocol("optimize reply lacks omega")),
    };
    Ok(OptimizeReply {
        rounds: field("rounds")?,
        votes_applied: field("votes_applied")?,
        votes_discarded: field("votes_discarded")?,
        votes_quarantined: field("votes_quarantined")?,
        edges_changed: field("edges_changed")?,
        omega,
        epoch: field("epoch")?,
    })
}

/// What the writer connection observed.
#[derive(Debug, Default)]
pub struct WriterResult {
    pub conn: ConnResult,
    /// `/vote` until the durable ack, nanoseconds.
    pub vote_ack: Samples,
    /// `/optimize` until its response (every batch published), ns.
    pub round: Samples,
    pub replies: Vec<OptimizeReply>,
}

/// The writer: for each trigger, its votes in order, then one
/// split-merge `/optimize` over them; waits for each response before
/// the next request. Marks the start of each trigger, and its own end,
/// in `progress`.
pub fn writer(
    addr: SocketAddr,
    triggers: &[Vec<Vote>],
    batch: usize,
    progress: &Progress,
) -> WriterResult {
    let out = writer_inner(addr, triggers, batch, progress);
    progress.finish();
    out
}

fn writer_inner(
    addr: SocketAddr,
    triggers: &[Vec<Vote>],
    batch: usize,
    progress: &Progress,
) -> WriterResult {
    let mut out = WriterResult::default();
    let mut http = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.conn.attempted += 1;
            out.conn.fail("dial", &e);
            return out;
        }
    };
    let optimize = format!("{{\"strategy\":\"split-merge\",\"batch\":{batch}}}");
    for votes in triggers {
        progress.begin_trigger();
        for v in votes {
            let body = vote_body(v);
            let before = http.reconnects;
            let t0 = Instant::now();
            let result = http.post_json("/vote", &body);
            let ns = t0.elapsed().as_nanos() as u64;
            out.conn.attempted += 1;
            if http.reconnects > before {
                out.conn.reconnects += http.reconnects - before;
                out.conn.failed += 1;
                continue;
            }
            match result {
                Ok(_) => {
                    out.conn.ok += 1;
                    out.vote_ack.push(ns);
                }
                Err(e) => out.conn.fail("vote", &e),
            }
        }
        let before = http.reconnects;
        let t0 = Instant::now();
        let result = http
            .post_json("/optimize", &optimize)
            .and_then(|r| parse_optimize(&r.body));
        let t1 = Instant::now();
        out.conn.attempted += 1;
        if http.reconnects > before {
            out.conn.reconnects += http.reconnects - before;
            out.conn.failed += 1;
        } else {
            match result {
                Ok(reply) => {
                    out.conn.ok += 1;
                    out.round.push((t1 - t0).as_nanos() as u64);
                    out.replies.push(reply);
                }
                Err(e) => out.conn.fail("optimize", &e),
            }
        }
    }
    out.conn.sent = triggers.len();
    out
}

/// `GET /stats` on a short-lived connection of its own.
pub fn server_stats(addr: SocketAddr) -> Result<serde::Value, String> {
    let mut http = HttpClient::connect(addr).map_err(|e| format!("stats dial: {e}"))?;
    http.get("/stats")
        .and_then(|r| r.json())
        .map_err(|e| format!("GET /stats: {e}"))
}

/// A counter out of a `/stats` document: `section.field`.
pub fn stat(doc: &serde::Value, section: &str, field: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(serde::Value::as_u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_epoch_reads_the_first_field() {
        assert_eq!(leading_epoch(b"{\"epoch\":42,\"query\":1}"), Some(42));
        assert_eq!(leading_epoch(b"{\"query\":1,\"epoch\":42}"), None);
    }

    #[test]
    fn rank_json_round_trips_score_bits() {
        let bits = 0.123_456_789_f64.to_bits();
        let body = format!(
            "{{\"epoch\":3,\"query\":7,\"ranking\":[{{\"node\":9,\"rank\":1,\"score\":0.123456789,\"score_bits\":{bits}}}]}}"
        );
        let (epoch, ranking) = parse_rank_json(body.as_bytes()).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(ranking, vec![(9, bits)]);
    }
}
