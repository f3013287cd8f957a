//! The traced run and the per-layer metrics.
//!
//! Part 1 runs the wire workload again with telemetry and the flight
//! recorder on, and folds the spans and counters the program already
//! emits. Part 2 is the in-process replay (`workload::replay`), plus
//! the benchmark's own timings of public functions: `BinClient::ping`,
//! the `kg_server::protocol` codec over the workload's own bytes, and
//! the Φ kernel on the workload's own inputs.

use crate::plan::{Question, TOP_K};
use crate::stats::{median, ns_to_ms, ns_to_us, Better, Metrics, Samples};
use crate::wire::{self, Sample};
use crate::workload::{Ctx, Plan, Replay, WireRun, Workload};
use kg_graph::NodeId;
use kg_server::protocol::{self, BinRankRequest, Limits, RecvBuf};
use kg_telemetry::{EventKind, FieldValue};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Span names the per-layer metrics are derived from.
const SPANS: &[&str] = &[
    "votekg.server.request",
    "votekg.serve.shard_sync",
    "votekg.framework.publish",
    "votekg.framework.rerank",
    "votekg.votes.encode",
    "votekg.cluster.round",
    "votekg.cluster.similarity",
    "votekg.cluster.ap",
    "votekg.cluster.solve_all",
    "votekg.cluster.solve",
    "votekg.cluster.merge",
];

/// How often the recorder thread drains the per-thread rings.
const CAPTURE_EVERY: Duration = Duration::from_millis(15);

/// A completed span, nanoseconds since the recorder epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub thread: u64,
    pub name: &'static str,
    pub start: u64,
    pub dur: u64,
}

impl SpanRec {
    fn end(&self) -> u64 {
        self.start + self.dur
    }
}

/// Everything the recorder thread folded out of the rings.
#[derive(Default)]
pub struct Collected {
    /// Per thread: next unseen event index, events seen, highest index.
    threads: HashMap<u64, (u64, u64)>,
    pub spans: Vec<SpanRec>,
}

impl Collected {
    fn absorb(&mut self) {
        for tl in kg_telemetry::capture_timelines() {
            let (next, seen) = self.threads.entry(tl.thread).or_insert((0, 0));
            let mut new_next = *next;
            for ev in &tl.events {
                if ev.seq < *next {
                    continue;
                }
                *seen += 1;
                new_next = new_next.max(ev.seq + 1);
                if ev.kind != EventKind::SpanEnd || !SPANS.contains(&ev.name) {
                    continue;
                }
                // Of the request spans only the optimize triggers matter;
                // skipping the rank ones keeps this thread cheap.
                if ev.name == "votekg.server.request"
                    && !ev
                        .fields
                        .iter()
                        .any(|(k, v)| *k == "endpoint" && matches!(v, FieldValue::Str("optimize")))
                {
                    continue;
                }
                self.spans.push(SpanRec {
                    thread: tl.thread,
                    name: ev.name,
                    start: ev.ts_ns.saturating_sub(ev.arg),
                    dur: ev.arg,
                });
            }
            *next = new_next;
        }
    }

    /// Events overwritten in a ring before the recorder read them.
    pub fn lost(&self) -> u64 {
        self.threads.values().map(|&(next, seen)| next - seen).sum()
    }

    fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for sp in self.spans.iter().filter(|s| s.name == name) {
            s.push(sp.dur);
        }
        s
    }

    /// Spans named `name` on `thread` inside `[start, end]`.
    fn within<'a>(
        &'a self,
        name: &'a str,
        outer: &'a SpanRec,
    ) -> impl Iterator<Item = &'a SpanRec> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.start >= outer.start && s.end() <= outer.end())
    }
}

/// Drains the flight recorder on a thread of its own while a traced
/// phase runs.
pub struct Recorder {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    data: Arc<Mutex<Collected>>,
}

impl Recorder {
    /// Resets telemetry, turns collection and recording on, and starts
    /// draining.
    pub fn start() -> Recorder {
        kg_telemetry::reset();
        kg_telemetry::enable();
        kg_telemetry::start_recording();
        let stop = Arc::new(AtomicBool::new(false));
        let data = Arc::new(Mutex::new(Collected::default()));
        let thread = {
            let (stop, data) = (Arc::clone(&stop), Arc::clone(&data));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(CAPTURE_EVERY);
                    data.lock().expect("recorder data").absorb();
                }
            })
        };
        Recorder {
            stop,
            thread: Some(thread),
            data,
        }
    }

    /// Final drain; reads the counters; turns telemetry off again.
    pub fn finish(mut self) -> (Collected, Counters) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut data = std::mem::take(&mut *self.data.lock().expect("recorder data"));
        data.absorb();
        let counters = Counters::read();
        kg_telemetry::stop_recording();
        kg_telemetry::disable();
        (data, counters)
    }
}

/// Counters the program emits, read at the end of the traced phase.
#[derive(Debug, Default)]
pub struct Counters {
    pub sgp_solves: u64,
    pub sgp_inner: u64,
    pub sgp_outer: u64,
    pub sgp_max_iter: u64,
    pub merge_conflicts: u64,
    pub reranks: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            sgp_solves: kg_telemetry::counter("votekg.sgp.solves").get(),
            sgp_inner: kg_telemetry::counter("votekg.sgp.inner_iterations").get(),
            sgp_outer: kg_telemetry::counter("votekg.sgp.outer_iterations").get(),
            sgp_max_iter: kg_telemetry::counter_labeled(
                "votekg.sgp.converged",
                &[("reason", "max_outer_iters")],
            )
            .get(),
            merge_conflicts: kg_telemetry::counter("votekg.cluster.merge_conflicts").get(),
            reranks: kg_telemetry::counter("votekg.framework.incremental_reranks").get(),
        }
    }
}

/// `BinClient::ping` round trips against a live server, ns.
pub fn ping(addr: std::net::SocketAddr, n: usize) -> Result<Samples, String> {
    let mut client = kg_server::BinClient::connect(addr).map_err(|e| format!("ping dial: {e}"))?;
    let mut s = Samples::new();
    for _ in 0..n {
        let t0 = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        s.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(s)
}

#[derive(serde::Serialize)]
struct RankedAnswerWire {
    node: u32,
    rank: usize,
    score: f64,
    score_bits: u64,
}

#[derive(serde::Serialize)]
struct RankResponseWire {
    epoch: u64,
    query: u32,
    ranking: Vec<RankedAnswerWire>,
}

const CODEC_REPS: u32 = 8;

/// One request and its response through the public codec, over the
/// workload's own requests and served rankings: the server's decode and
/// encode, plus the binary client's response decode (the HTTP loops
/// read only the epoch). Returns ns per pass.
fn codec_pass(s: &Sample, binary: bool) -> Result<u64, String> {
    let limits = Limits::default();
    let err = |e: &dyn std::fmt::Debug| format!("codec: {e:?}");
    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        if binary {
            let payload = protocol::encode_rank_request(&BinRankRequest {
                query: s.query,
                k: TOP_K as u16,
                answers: s.answers.clone(),
            });
            let mut frame = Vec::new();
            protocol::write_frame(&mut frame, protocol::op::RANK, &payload).map_err(|e| err(&e))?;
            let (_, body) =
                protocol::read_frame(&mut RecvBuf::new(Cursor::new(frame)), &limits, true)
                    .map_err(|e| err(&e))?;
            protocol::decode_rank_request(&body).map_err(|e| err(&e))?;
            let payload = protocol::encode_rank_response(s.epoch, &s.ranking);
            let mut frame = Vec::new();
            protocol::write_frame(&mut frame, protocol::status::OK, &payload)
                .map_err(|e| err(&e))?;
            let (_, body) =
                protocol::read_frame(&mut RecvBuf::new(Cursor::new(frame)), &limits, true)
                    .map_err(|e| err(&e))?;
            protocol::decode_rank_response(&body).map_err(|e| err(&e))?;
        } else {
            let req_body = wire::rank_body(s.query, &s.answers);
            let request = format!(
                "POST /rank HTTP/1.1\r\nHost: votekg\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{req_body}",
                req_body.len()
            );
            let req = protocol::read_http_request(
                &mut RecvBuf::new(Cursor::new(request.into_bytes())),
                &limits,
                true,
            )
            .map_err(|e| err(&e))?;
            let text = std::str::from_utf8(&req.body).map_err(|e| err(&e))?;
            let _: serde::Value = serde_json::from_str(text).map_err(|e| err(&e))?;
            let doc = RankResponseWire {
                epoch: s.epoch,
                query: s.query,
                ranking: s
                    .ranking
                    .iter()
                    .enumerate()
                    .map(|(i, &(node, bits))| RankedAnswerWire {
                        node,
                        rank: i + 1,
                        score: f64::from_bits(bits),
                        score_bits: bits,
                    })
                    .collect(),
            };
            let body = serde_json::to_string(&doc).map_err(|e| err(&e))?;
            let mut out = Vec::new();
            protocol::write_http_response(&mut out, 200, "application/json", body.as_bytes(), true)
                .map_err(|e| err(&e))?;
        }
    }
    Ok(t0.elapsed().as_nanos() as u64 / CODEC_REPS as u64)
}

pub fn codec(samples: &[&Sample], binary: bool) -> Result<Samples, String> {
    let mut s = Samples::new();
    for sample in samples {
        s.push(codec_pass(sample, binary)?);
    }
    Ok(s)
}

/// The Φ kernel a cache miss runs (`PhiWorkspace::rank_into_recorded`)
/// and the uncached oracle (`kg_sim::rank_answers`), on the workload's
/// own inputs against the dataset graph.
pub fn phi(ctx: &Ctx<'_>, inputs: &[(u32, Vec<u32>)], oracle_n: usize) -> (Samples, Samples) {
    let sim = votekg::FrameworkConfig::default().sim();
    let graph = &ctx.ds.graph;
    let mut kernel = Samples::new();
    let mut oracle = Samples::new();
    let mut out = Vec::with_capacity(32);
    for (i, (q, answers)) in inputs.iter().enumerate() {
        let answers: Vec<NodeId> = answers.iter().map(|&a| NodeId(a)).collect();
        let t0 = Instant::now();
        kg_sim::with_local_workspace(|ws| {
            let mut rec = kg_sim::PhiRecord::new();
            ws.rank_into_recorded(
                graph,
                NodeId(*q),
                &answers,
                &sim,
                answers.len(),
                &mut out,
                &mut rec,
            );
            std::hint::black_box(&rec);
        });
        kernel.push(t0.elapsed().as_nanos() as u64);
        if i < oracle_n {
            let t0 = Instant::now();
            std::hint::black_box(kg_sim::rank_answers(
                graph,
                NodeId(*q),
                &answers,
                &sim,
                TOP_K,
            ));
            oracle.push(t0.elapsed().as_nanos() as u64);
        }
    }
    (kernel, oracle)
}

/// The inputs of the requests a workload sends, at most `n`.
pub fn rank_inputs(plan: &Plan, n: usize) -> Vec<(u32, Vec<u32>)> {
    let pool: &[Question] = plan.pool();
    let reqs: Vec<&crate::plan::RankReq> = match plan {
        Plan::Read(p) => p.streams.iter().flat_map(|s| s.iter()).collect(),
        Plan::Vote(p) => p.reads.iter().collect(),
    };
    let step = (reqs.len() / n.max(1)).max(1);
    reqs.iter()
        .step_by(step)
        .take(n)
        .map(|r| (pool[r.question].query, r.answers.clone()))
        .collect()
}

/// Per-batch straggler ratios: max ÷ mean of the cluster solves inside
/// each `solve_all` span.
fn straggler(c: &Collected) -> Vec<f64> {
    c.spans
        .iter()
        .filter(|s| s.name == "votekg.cluster.solve_all")
        .filter_map(|all| {
            let solves: Vec<u64> = c
                .spans
                .iter()
                .filter(|s| {
                    s.name == "votekg.cluster.solve" && s.start >= all.start && s.end() <= all.end()
                })
                .map(|s| s.dur)
                .collect();
            let mean = solves.iter().sum::<u64>() as f64 / solves.len().max(1) as f64;
            (mean > 0.0).then(|| *solves.iter().max().unwrap_or(&0) as f64 / mean)
        })
        .collect()
}

/// Inputs to the per-layer report.
pub struct LayerInputs<'a> {
    pub ctx: &'a Ctx<'a>,
    pub untraced: &'a mut WireRun,
    pub traced: &'a mut WireRun,
    pub collected: &'a Collected,
    pub counters: &'a Counters,
    pub replay: &'a mut Replay,
    pub ping: &'a mut Samples,
    pub codec: &'a mut Samples,
    pub phi: &'a mut Samples,
    pub oracle: &'a mut Samples,
    pub gen_s: f64,
}

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload
/// does not exercise report 0 with n = 0.
pub fn per_layer(li: LayerInputs<'_>) -> Metrics {
    use Better::{Higher, Lower};
    let LayerInputs {
        ctx,
        untraced,
        traced,
        collected: c,
        counters,
        replay,
        ping,
        codec,
        phi,
        oracle,
        gen_s,
    } = li;
    let mut m = Metrics::default();
    let writer = untraced.writer.as_ref();
    let triggers = writer.map_or(0, |w| w.replies.len());
    let batches: u64 = writer.map_or(0, |w| w.replies.iter().map(|r| r.rounds).sum());
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let mut rank_lat = untraced.rank_lat();
    let rank_p50_us = untraced.rank_p50_ns() / 1e3;

    // kg-server
    m.add(
        "server.ping_us.p50",
        ns_to_us(ping.pct(0.5)),
        "us",
        Lower,
        ping.len(),
    );
    m.add(
        "server.codec_us.p50",
        ns_to_us(codec.pct(0.5)),
        "us",
        Lower,
        codec.len(),
    );
    let handle_p50_us = ns_to_us(replay.rank.pct(0.5));
    let wire_share = if rank_p50_us > 0.0 {
        (rank_p50_us - handle_p50_us) / rank_p50_us
    } else {
        0.0
    };
    m.add(
        "server.wire_share",
        wire_share,
        "fraction",
        Lower,
        replay.rank.len(),
    );
    let requests = untraced.stat_delta("server", "rank_requests")
        + untraced.stat_delta("server", "vote_requests")
        + untraced.stat_delta("server", "optimize_requests");
    m.add("server.requests", requests as f64, "count", Higher, 1);
    let errors: u64 = [
        "bad_requests",
        "not_found",
        "payload_too_large",
        "server_errors",
        "read_timeouts",
        "handler_panics",
    ]
    .iter()
    .map(|f| untraced.stat_delta("server", f))
    .sum();
    m.add("server.errors", errors as f64, "count", Lower, 1);

    // kg-serve
    let lookups = untraced.stat_delta("cache", "hits") + untraced.stat_delta("cache", "misses");
    m.add(
        "serve.hit_rate",
        untraced.hit_rate(),
        "fraction",
        Higher,
        lookups as usize,
    );
    m.add(
        "serve.hit_us.p50",
        ns_to_us(replay.hit.pct(0.5)),
        "us",
        Lower,
        replay.hit.len(),
    );
    m.add(
        "serve.miss_us.p50",
        ns_to_us(replay.miss.pct(0.5)),
        "us",
        Lower,
        replay.miss.len(),
    );
    m.add(
        "serve.miss_us.p99",
        ns_to_us(replay.miss.pct(0.99)),
        "us",
        Lower,
        replay.miss.len(),
    );
    let mut sync = c.durations("votekg.serve.shard_sync");
    m.add(
        "serve.sync_us.p50",
        ns_to_us(sync.pct(0.5)),
        "us",
        Lower,
        sync.len(),
    );
    for (name, field) in [
        ("serve.invalidated", "invalidated"),
        ("serve.retained", "retained"),
        ("serve.repaired", "repaired"),
    ] {
        let v = per(untraced.stat_delta("cache", field) as f64, triggers as u64);
        m.add(
            name,
            v,
            "count/trigger",
            if field == "invalidated" {
                Lower
            } else {
                Higher
            },
            triggers,
        );
    }

    // kg-sim
    m.add(
        "sim.phi_us.p50",
        ns_to_us(phi.pct(0.5)),
        "us",
        Lower,
        phi.len(),
    );
    m.add(
        "sim.phi_us.p99",
        ns_to_us(phi.pct(0.99)),
        "us",
        Lower,
        phi.len(),
    );
    m.add(
        "sim.oracle_us.p50",
        ns_to_us(oracle.pct(0.5)),
        "us",
        Lower,
        oracle.len(),
    );
    let fill = if replay.miss.len() > 0 {
        ns_to_us(replay.miss.pct(0.5)) - ns_to_us(phi.pct(0.5))
    } else {
        0.0
    };
    m.add("sim.fill_us", fill, "us", Lower, replay.miss.len());
    m.add(
        "sim.rerank_queries",
        per(counters.reranks as f64, triggers as u64),
        "count/trigger",
        Lower,
        triggers,
    );

    // kg-graph
    let mut publish = c.durations("votekg.framework.publish");
    m.add(
        "graph.publish_us.p50",
        ns_to_us(publish.pct(0.5)),
        "us",
        Lower,
        publish.len(),
    );
    let edges: u64 = writer.map_or(0, |w| w.replies.iter().map(|r| r.edges_changed).sum());
    m.add(
        "graph.delta_edges",
        per(edges as f64, batches),
        "count/batch",
        Lower,
        batches as usize,
    );

    // kg-votes
    m.add(
        "votes.wal_append_us.p50",
        ns_to_us(replay.wal_append.pct(0.5)),
        "us",
        Lower,
        replay.wal_append.len(),
    );
    m.add(
        "votes.wal_fsync_us.p50",
        ns_to_us(replay.wal_fsync.pct(0.5)),
        "us",
        Lower,
        replay.wal_fsync.len(),
    );
    let encode = c.durations("votekg.votes.encode");
    m.add(
        "votes.encode_ms",
        per(ns_to_ms(encode.sum()), batches),
        "ms/batch",
        Lower,
        encode.len(),
    );
    let discarded: u64 = writer.map_or(0, |w| w.replies.iter().map(|r| r.votes_discarded).sum());
    let quarantined: u64 =
        writer.map_or(0, |w| w.replies.iter().map(|r| r.votes_quarantined).sum());
    m.add(
        "votes.discarded",
        discarded as f64,
        "count",
        Lower,
        triggers,
    );
    m.add(
        "votes.quarantined",
        quarantined as f64,
        "count",
        Lower,
        triggers,
    );

    // sgp
    let t = triggers as u64;
    m.add(
        "sgp.solves",
        per(counters.sgp_solves as f64, t),
        "count/trigger",
        Lower,
        triggers,
    );
    m.add(
        "sgp.inner_steps",
        per(counters.sgp_inner as f64, t),
        "count/trigger",
        Lower,
        triggers,
    );
    m.add(
        "sgp.outer_iters",
        per(counters.sgp_outer as f64, t),
        "count/trigger",
        Lower,
        triggers,
    );
    m.add(
        "sgp.max_iter_frac",
        per(counters.sgp_max_iter as f64, counters.sgp_solves),
        "fraction",
        Lower,
        counters.sgp_solves as usize,
    );
    m.add(
        "sgp.solver_ms",
        per(ns_to_ms(replay.solver_ns), replay.round.len() as u64),
        "ms/trigger",
        Lower,
        replay.round.len(),
    );

    // kg-cluster
    let phase_ms = |name: &str| {
        let mut d = c.durations(name);
        (ns_to_ms(d.pct(0.5)), d.len())
    };
    let (sim_ms, n) = phase_ms("votekg.cluster.similarity");
    m.add("cluster.similarity_ms", sim_ms, "ms", Lower, n);
    let (ap_ms, n) = phase_ms("votekg.cluster.ap");
    m.add("cluster.ap_ms", ap_ms, "ms", Lower, n);
    let (solve_ms, n) = phase_ms("votekg.cluster.solve_all");
    m.add("cluster.solve_all_ms", solve_ms, "ms", Lower, n);
    let (merge_ms, n) = phase_ms("votekg.cluster.merge");
    m.add("cluster.merge_ms", merge_ms, "ms", Lower, n);
    let solves = c.durations("votekg.cluster.solve").len();
    m.add(
        "cluster.clusters",
        per(solves as f64, batches),
        "count/batch",
        Lower,
        batches as usize,
    );
    m.add(
        "cluster.merge_conflicts",
        per(counters.merge_conflicts as f64, batches),
        "count/batch",
        Lower,
        batches as usize,
    );
    let ratios = straggler(c);
    let n = ratios.len();
    m.add("cluster.straggler_ratio", median(ratios), "ratio", Lower, n);

    // core
    m.add(
        "framework.round_ms.p50",
        ns_to_ms(replay.round.pct(0.5)),
        "ms",
        Lower,
        replay.round.len(),
    );
    let mut rerank = c.durations("votekg.framework.rerank");
    let rerank_ms = ns_to_ms(rerank.pct(0.5));
    m.add("framework.rerank_ms", rerank_ms, "ms", Lower, rerank.len());
    // Server-side optimize request minus the named phases inside it:
    // lock wait, validation bookkeeping, and the WAL commit.
    let unattributed: Vec<f64> = c
        .spans
        .iter()
        .filter(|s| s.name == "votekg.server.request")
        .map(|req| {
            let named: u64 = [
                "votekg.cluster.round",
                "votekg.framework.publish",
                "votekg.framework.rerank",
            ]
            .iter()
            .flat_map(|n| c.within(n, req))
            .filter(|s| s.thread == req.thread)
            .map(|s| s.dur)
            .sum();
            ns_to_ms(req.dur.saturating_sub(named))
        })
        .collect();
    let n = unattributed.len();
    m.add(
        "framework.unattributed_ms",
        median(unattributed),
        "ms",
        Lower,
        n,
    );

    // Client-side figures the end-to-end list cannot gate (see
    // README.md): the rank tail, and vote_rounds' write path.
    m.add(
        "reader.rank_p50_us",
        rank_p50_us,
        "us",
        Lower,
        rank_lat.len(),
    );
    m.add(
        "reader.rank_p99_us",
        ns_to_us(rank_lat.pct(0.99)),
        "us",
        Lower,
        rank_lat.len(),
    );
    let (ack_p50, ack_p90, ack_n, round_p50, round_n, omega_avg) = match untraced.writer.as_mut() {
        Some(w) => {
            let omega: i64 = w.replies.iter().map(|r| r.omega).sum();
            let applied: u64 = w.replies.iter().map(|r| r.votes_applied).sum();
            (
                ns_to_us(w.vote_ack.pct(0.5)),
                ns_to_us(w.vote_ack.pct(0.9)),
                w.vote_ack.len(),
                ns_to_ms(w.round.pct(0.5)),
                w.round.len(),
                per(omega as f64, applied),
            )
        }
        None => (0.0, 0.0, 0, 0.0, 0, 0.0),
    };
    m.add("writer.vote_ack_us.p50", ack_p50, "us", Lower, ack_n);
    m.add("writer.vote_ack_us.p90", ack_p90, "us", Lower, ack_n);
    m.add("writer.round_ms.p50", round_p50, "ms", Lower, round_n);
    m.add("writer.omega_avg", omega_avg, "ranks", Higher, round_n);
    let reconnects = untraced.writer.as_ref().map_or(0, |w| w.conn.reconnects);
    m.add(
        "writer.reconnects",
        reconnects as f64,
        "count",
        Lower,
        round_n,
    );

    // Harness
    let reader = &untraced.readers[0];
    let open_loop = ctx.wl == Workload::VoteRounds;
    let late_frac = if open_loop {
        per(reader.late as f64, reader.sent as u64)
    } else {
        0.0
    };
    m.add(
        "load.late_frac",
        late_frac,
        "fraction",
        Lower,
        if open_loop { reader.sent } else { 0 },
    );
    let max_late = if open_loop {
        ns_to_us(reader.max_late_ns)
    } else {
        0.0
    };
    m.add(
        "load.max_late_us",
        max_late,
        "us",
        Lower,
        if open_loop { reader.sent } else { 0 },
    );
    m.add("load.gen_s", gen_s, "s", Lower, 1);
    m.add("trace.dropped_events", c.lost() as f64, "count", Lower, 1);
    let traced_p50_us = traced.rank_p50_ns() / 1e3;
    let traced_n = traced.rank_lat().len();
    let overhead = match traced.writer.as_mut() {
        Some(tw) => ns_to_ms(tw.round.pct(0.5)) / round_p50.max(1e-9) - 1.0,
        None => traced_p50_us / rank_p50_us.max(1e-9) - 1.0,
    };
    m.add("trace.overhead_frac", overhead, "fraction", Lower, traced_n);
    // The share of the workload's e2e median the blocking layers'
    // medians account for.
    let (covered, e2e) = match ctx.wl {
        Workload::ReadHot => (
            ns_to_us(ping.pct(0.5)) + ns_to_us(codec.pct(0.5)) + ns_to_us(replay.hit.pct(0.5)),
            rank_p50_us,
        ),
        Workload::ReadMiss => (
            ns_to_us(ping.pct(0.5)) + ns_to_us(codec.pct(0.5)) + ns_to_us(replay.miss.pct(0.5)),
            rank_p50_us,
        ),
        Workload::VoteRounds => {
            let batches_per_trigger = per(batches as f64, t);
            (
                (sim_ms + ap_ms + solve_ms + merge_ms + ns_to_ms(publish.pct(0.5)) + rerank_ms)
                    * batches_per_trigger
                    + ns_to_ms(ping.pct(0.5)),
                round_p50,
            )
        }
    };
    m.add(
        "trace.coverage",
        covered / e2e.max(1e-9),
        "fraction",
        Higher,
        1,
    );
    m
}

/// The traced run's end-to-end figures beside the untraced ones.
pub fn overhead_table(wl: Workload, untraced: &mut WireRun, traced: &mut WireRun) -> String {
    let mut out = String::from("traced vs untraced (end-to-end, same plan):\n");
    let mut row = |name: &str, a: f64, b: f64| {
        out.push_str(&format!(
            "  {name:<16} untraced {a:>12.3}  traced {b:>12.3}\n"
        ));
    };
    let (mut ul, mut tl) = (untraced.rank_lat(), traced.rank_lat());
    row("rank_rps", untraced.rank_rps(), traced.rank_rps());
    row(
        "rank_p50_us",
        untraced.rank_p50_ns() / 1e3,
        traced.rank_p50_ns() / 1e3,
    );
    row(
        "rank_p99_us",
        ns_to_us(ul.pct(0.99)),
        ns_to_us(tl.pct(0.99)),
    );
    if wl == Workload::VoteRounds {
        if let (Some(u), Some(t)) = (untraced.writer.as_mut(), traced.writer.as_mut()) {
            row(
                "round_p50_ms",
                ns_to_ms(u.round.pct(0.5)),
                ns_to_ms(t.round.pct(0.5)),
            );
            row(
                "vote_ack_p50_us",
                ns_to_us(u.vote_ack.pct(0.5)),
                ns_to_us(t.vote_ack.pct(0.5)),
            );
        }
    }
    out
}
