//! One workload run: set-up, the timed wire phase, the in-process
//! replay, and the correctness checks.

use crate::plan::{self, Dataset, Question, RankReq, ReadPlan, Size, VotePlan, SEGMENTS, TOP_K};
use crate::stats::Samples;
use crate::wire::{self, ConnResult, OptimizeReply, Sample, WriterResult};
use kg_graph::NodeId;
use kg_server::KgServer;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use votekg::{DurableOptions, Framework, FrameworkConfig, Strategy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadMiss,
    VoteRounds,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadMiss, Workload::VoteRounds];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadMiss => "read_miss",
            Workload::VoteRounds => "vote_rounds",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `read_miss` speaks the binary protocol; the others HTTP.
    pub fn binary(self) -> bool {
        self == Workload::ReadMiss
    }
}

/// A workload's plan.
pub enum Plan {
    Read(ReadPlan),
    Vote(VotePlan),
}

impl Plan {
    pub fn build(ds: &Dataset, wl: Workload, size: &Size, seed: u64, seconds: f64) -> Plan {
        match wl {
            Workload::ReadHot => Plan::Read(plan::read_hot(ds, size, seed)),
            Workload::ReadMiss => Plan::Read(plan::read_miss(ds, size, seed)),
            Workload::VoteRounds => Plan::Vote(plan::vote_rounds(ds, size, seed, seconds)),
        }
    }

    pub fn pool(&self) -> &[Question] {
        match self {
            Plan::Read(p) => &p.pool,
            Plan::Vote(p) => &p.pool,
        }
    }
}

/// Everything one run needs.
pub struct Ctx<'a> {
    pub wl: Workload,
    pub size: Size,
    pub seconds: f64,
    pub ds: &'a Dataset,
    pub plan: &'a Plan,
    /// Scratch directory for WAL directories (inside the checkout).
    pub work_dir: PathBuf,
}

impl Ctx<'_> {
    fn wal_dir(&self, name: &str) -> Option<PathBuf> {
        (self.wl == Workload::VoteRounds).then(|| self.work_dir.join(name))
    }

    /// Starts a fresh server and warms it up. Like a set-up in a fresh
    /// process, it starts with no free memory left in the allocator by
    /// earlier servers.
    pub fn set_up(&self, name: &str) -> Result<(KgServer, wire::SetUpTimes), String> {
        let dir = self.wal_dir(name);
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        release_free_memory();
        // The copy is the benchmark's (it sets up many times from one
        // graph), so it is made before the clock starts.
        wire::set_up(self.ds.graph.clone(), dir.as_deref(), self.plan.pool())
    }

    pub fn remove_wal(&self, name: &str) {
        if let Some(d) = self.wal_dir(name) {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// What one timed wire phase observed.
#[derive(Default)]
pub struct WireRun {
    /// Rank connections (the two closed loops, or the open-loop reader).
    pub readers: Vec<ConnResult>,
    pub writer: Option<WriterResult>,
    /// Wall time of the timed phase, seconds: until the last reader
    /// response, and in `vote_rounds` until the writer is done too.
    pub wall_s: f64,
    pub stats_before: Option<serde::Value>,
    pub stats_after: Option<serde::Value>,
    pub final_epoch: u64,
    pub final_crc: u32,
    /// Correctness failures found so far.
    pub failures: Vec<String>,
}

impl WireRun {
    pub fn rank_lat(&self) -> Samples {
        let mut all = Samples::new();
        for c in &self.readers {
            all.extend(&c.lat);
        }
        all
    }

    /// Each segment's latencies across the connections.
    fn segments(&self) -> Vec<Samples> {
        let n = self
            .readers
            .iter()
            .map(|c| c.seg_lat.len())
            .max()
            .unwrap_or(0);
        (0..n)
            .map(|k| {
                let mut seg = Samples::new();
                for s in self.readers.iter().filter_map(|c| c.seg_lat.get(k)) {
                    seg.extend(s);
                }
                seg
            })
            .collect()
    }

    /// Successful rank responses ÷ the timed phase's wall time.
    pub fn rank_rps(&self) -> f64 {
        self.readers.iter().map(|c| c.ok).sum::<u64>() as f64 / self.wall_s
    }

    /// Median rank latency, ns: the median over segments of each
    /// segment's median, so a segment hit by a host hiccup does not
    /// move it.
    pub fn rank_p50_ns(&self) -> f64 {
        let segs = self.segments();
        if segs.is_empty() {
            return self.rank_lat().pct(0.5) as f64;
        }
        crate::stats::median(segs.into_iter().map(|mut s| s.pct(0.5) as f64).collect())
    }

    pub fn attempted(&self) -> u64 {
        self.readers.iter().map(|c| c.attempted).sum::<u64>()
            + self.writer.as_ref().map_or(0, |w| w.conn.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.readers.iter().map(|c| c.failed).sum::<u64>()
            + self.writer.as_ref().map_or(0, |w| w.conn.failed)
    }

    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.readers.iter().flat_map(|c| c.samples.iter())
    }

    /// Requests each reader connection got through (for the replay).
    pub fn sent(&self) -> Vec<usize> {
        self.readers.iter().map(|c| c.sent).collect()
    }

    pub fn stat_delta(&self, section: &str, field: &str) -> u64 {
        match (&self.stats_before, &self.stats_after) {
            (Some(a), Some(b)) => {
                wire::stat(b, section, field).saturating_sub(wire::stat(a, section, field))
            }
            _ => 0,
        }
    }

    pub fn hit_rate(&self) -> f64 {
        let hits = self.stat_delta("cache", "hits") as f64;
        let misses = self.stat_delta("cache", "misses") as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

fn bodies(pool: &[Question], reqs: &[RankReq]) -> Vec<String> {
    reqs.iter()
        .map(|r| wire::rank_body(pool[r.question].query, &r.answers))
        .collect()
}

/// Runs the timed phase against a warmed-up server, then verifies what
/// it served.
pub fn timed_phase(ctx: &Ctx<'_>, server: &KgServer) -> WireRun {
    let addr = server.addr();
    let mut run = WireRun::default();
    match wire::server_stats(addr) {
        Ok(doc) => run.stats_before = Some(doc),
        Err(e) => run.failures.push(e),
    }
    match ctx.plan {
        Plan::Read(plan) => {
            // The binary protocol needs no pre-built HTTP bodies.
            let body_sets: Vec<Vec<String>> = plan
                .streams
                .iter()
                .map(|s| {
                    if ctx.wl.binary() {
                        Vec::new()
                    } else {
                        bodies(&plan.pool, s)
                    }
                })
                .collect();
            let started = Instant::now();
            let deadlines: Vec<Instant> = (1..=SEGMENTS)
                .map(|k| {
                    started + Duration::from_secs_f64(ctx.seconds * k as f64 / SEGMENTS as f64)
                })
                .collect();
            run.readers = std::thread::scope(|s| {
                let deadlines = &deadlines;
                let handles: Vec<_> = (0..plan.streams.len())
                    .map(|c| {
                        let (stream, bodies) = (&plan.streams[c], &body_sets[c]);
                        s.spawn(move || {
                            wire::closed_loop(
                                addr,
                                ctx.wl.binary(),
                                &plan.pool,
                                stream,
                                bodies,
                                deadlines,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            run.wall_s = started.elapsed().as_secs_f64();
        }
        Plan::Vote(plan) => {
            let read_bodies = bodies(&plan.pool, &plan.reads);
            let progress = wire::Progress::default();
            let started = Instant::now();
            let (reader, writer) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    wire::open_loop(
                        addr,
                        &plan.pool,
                        &plan.reads,
                        &read_bodies,
                        plan.reads_per_trigger,
                        plan.reader_rps,
                        &progress,
                    )
                });
                let writer = wire::writer(addr, &plan.triggers, ctx.size.batch, &progress);
                (reader.join().expect("reader thread"), writer)
            });
            run.wall_s = started.elapsed().as_secs_f64();
            run.readers = vec![reader];
            run.writer = Some(writer);
        }
    }
    match wire::server_stats(addr) {
        Ok(doc) => run.stats_after = Some(doc),
        Err(e) => run.failures.push(e),
    }
    verify_served(ctx, server, &mut run);
    run
}

/// Checks that hold for every timed phase.
fn verify_served(ctx: &Ctx<'_>, server: &KgServer, run: &mut WireRun) {
    let handle = server.handle();
    let snap = handle.snapshot();
    run.final_epoch = snap.epoch();
    run.final_crc = kg_graph::io::weights_crc(&snap);
    let sim = FrameworkConfig::default().sim();
    let bit_identical = |query: u32, answers: &[u32], ranking: &[(u32, u64)]| {
        let answers: Vec<NodeId> = answers.iter().map(|&a| NodeId(a)).collect();
        let expect: Vec<(u32, u64)> =
            kg_sim::rank_answers(&snap, NodeId(query), &answers, &sim, TOP_K)
                .iter()
                .map(|a| (a.node.0, a.score.to_bits()))
                .collect();
        expect == ranking
    };

    // Sampled responses served at the final (quiescent) epoch.
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for s in run.samples().filter(|s| s.epoch == run.final_epoch) {
        checked += 1;
        if !bit_identical(s.query, &s.answers, &s.ranking) {
            mismatches += 1;
        }
    }
    // vote_rounds: most samples predate the last publish, so rank every
    // voted question once more now that the writer is done.
    if let Plan::Vote(plan) = ctx.plan {
        match wire::Conn::dial(server.addr(), false) {
            Ok(mut conn) => {
                for q in plan.pool.iter().take(256) {
                    match conn.rank(
                        q.query,
                        &q.answers,
                        &wire::rank_body(q.query, &q.answers),
                        true,
                    ) {
                        Ok(reply) => {
                            checked += 1;
                            let ranking = reply.ranking.unwrap_or_default();
                            if reply.epoch != run.final_epoch
                                || !bit_identical(q.query, &q.answers, &ranking)
                            {
                                mismatches += 1;
                            }
                        }
                        Err(e) => run.failures.push(format!("verification rank: {e}")),
                    }
                }
            }
            Err(e) => run.failures.push(format!("verification dial: {e}")),
        }
    }
    if checked == 0 {
        run.failures
            .push("no served ranking was checked against rank_answers".into());
    }
    if mismatches > 0 {
        run.failures.push(format!(
            "{mismatches} of {checked} served rankings differ from an uncached rank_answers"
        ));
    }

    let regressions: u64 = run.readers.iter().map(|c| c.epoch_regressions).sum();
    if regressions > 0 {
        run.failures
            .push(format!("{regressions} epoch regressions on one connection"));
    }
    // The server counted exactly the requests the clients made.
    let served = run.stat_delta("server", "rank_requests")
        + run.stat_delta("server", "vote_requests")
        + run.stat_delta("server", "optimize_requests");
    // The vote_rounds verification pass above ranks after the stats read.
    if served != run.attempted() {
        run.failures.push(format!(
            "server counted {served} workload requests, clients attempted {}",
            run.attempted()
        ));
    }
    let hit_rate = run.hit_rate();
    match ctx.wl {
        Workload::ReadHot if hit_rate < 0.99 => run
            .failures
            .push(format!("read_hot hit rate {hit_rate:.4} < 0.99")),
        Workload::ReadMiss if hit_rate > 0.01 => run
            .failures
            .push(format!("read_miss hit rate {hit_rate:.4} > 0.01")),
        _ => {}
    }
    for (i, c) in run.readers.iter_mut().enumerate() {
        if let Err(e) = c.lat.check_order(&format!("reader {i} latency")) {
            run.failures.push(e);
        }
    }
    if let Some(w) = run.writer.as_mut() {
        for (what, s) in [("vote ack", &mut w.vote_ack), ("round", &mut w.round)] {
            if let Err(e) = s.check_order(what) {
                run.failures.push(e);
            }
        }
        if w.replies.len() != w.conn.sent {
            run.failures.push(format!(
                "{} of {} optimize triggers answered",
                w.replies.len(),
                w.conn.sent
            ));
        }
    }
}

/// Work the benchmark times itself, outside the wire phase: the same
/// inputs replayed in-process on a fresh framework, no sockets.
#[derive(Default)]
pub struct Replay {
    /// `ServeHandle::rank` on cache hits / misses, ns.
    pub hit: Samples,
    pub miss: Samples,
    /// Every replayed timed-phase rank call, ns.
    pub rank: Samples,
    pub wal_append: Samples,
    pub wal_fsync: Samples,
    /// `optimize_incremental_durable` per trigger, ns.
    pub round: Samples,
    pub solver_ns: u64,
    pub replies: Vec<OptimizeReply>,
    pub final_crc: u32,
}

/// Replays the plan in-process. With `reads`, the rank requests each
/// wire reader got through are replayed and timed too (in `vote_rounds`
/// each trigger's reads before its votes); without, only the write path
/// is replayed, for the determinism check.
pub fn replay(ctx: &Ctx<'_>, sent: &[usize], name: &str, reads: bool) -> Result<Replay, String> {
    let mut out = Replay::default();
    let fw = match ctx.wal_dir(name) {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(&dir);
            Framework::open_durable(
                &dir,
                ctx.ds.graph.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .map_err(|e| format!("replay open_durable: {e}"))?
            .0
        }
        None => Framework::new(ctx.ds.graph.clone(), FrameworkConfig::default()),
    };
    let mut fw = fw;
    let handle = fw.handle();
    let ids = |a: &[u32]| a.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
    let pool = ctx.plan.pool();
    let rank = |out: &mut Replay, q: &Question, answers: &[u32], timed: bool| {
        let answers = ids(answers);
        let hits = handle.stats().hits;
        let t0 = Instant::now();
        let r = handle.rank(NodeId(q.query), &answers, TOP_K);
        let ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(r);
        if handle.stats().hits > hits {
            out.hit.push(ns);
        } else {
            out.miss.push(ns);
        }
        if timed {
            out.rank.push(ns);
        }
    };
    if reads {
        for q in pool {
            rank(&mut out, q, &q.answers, false);
        }
    }
    match ctx.plan {
        Plan::Read(_) if !reads => {}
        Plan::Read(plan) => {
            // The first `sent[c]` requests of each stream, capped so a
            // very fast run replays in bounded time.
            for (c, stream) in plan.streams.iter().enumerate() {
                let n = sent.get(c).copied().unwrap_or(0).min(20_000);
                for i in 0..n {
                    let req = &stream[i % stream.len()];
                    rank(&mut out, &pool[req.question], &req.answers, true);
                }
            }
        }
        Plan::Vote(plan) => {
            let sent = if reads {
                sent.first().copied().unwrap_or(0).min(plan.reads.len())
            } else {
                0
            };
            let k = plan.reads_per_trigger;
            for (t, votes) in plan.triggers.iter().enumerate() {
                for req in &plan.reads[(t * k).min(sent)..((t + 1) * k).min(sent)] {
                    rank(&mut out, &pool[req.question], &req.answers, true);
                }
                for v in votes {
                    let t0 = Instant::now();
                    fw.record_vote_durable(v.clone())
                        .map_err(|e| format!("replay vote: {e}"))?;
                    let t1 = Instant::now();
                    fw.sync_wal().map_err(|e| format!("replay fsync: {e}"))?;
                    out.wal_append.push((t1 - t0).as_nanos() as u64);
                    out.wal_fsync.push(t1.elapsed().as_nanos() as u64);
                }
                let t0 = Instant::now();
                let reports = fw
                    .optimize_incremental_durable(Strategy::SplitMerge, ctx.size.batch)
                    .map_err(|e| format!("replay optimize: {e}"))?;
                out.round.push(t0.elapsed().as_nanos() as u64);
                out.solver_ns += reports
                    .iter()
                    .map(|r| r.solver_elapsed.as_nanos() as u64)
                    .sum::<u64>();
                out.replies.push(OptimizeReply {
                    rounds: reports.len() as u64,
                    votes_applied: reports.iter().map(|r| r.outcomes.len() as u64).sum(),
                    votes_discarded: reports.iter().map(|r| r.discarded_votes as u64).sum(),
                    votes_quarantined: reports.iter().map(|r| r.quarantined_votes as u64).sum(),
                    edges_changed: reports.iter().map(|r| r.edges_changed as u64).sum(),
                    omega: reports.iter().map(|r| r.omega()).sum(),
                    epoch: handle.epoch(),
                });
            }
        }
    }
    out.final_crc = kg_graph::io::weights_crc(&handle.snapshot());
    drop(fw);
    ctx.remove_wal(name);
    Ok(out)
}

/// The write path is deterministic: the served run and the in-process
/// replay must agree on every trigger's outcome and on the final
/// weights, bit for bit.
pub fn check_replay(run: &WireRun, replay: &Replay) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(writer) = &run.writer else {
        return failures;
    };
    if writer.replies != replay.replies {
        let first = writer
            .replies
            .iter()
            .zip(&replay.replies)
            .position(|(a, b)| a != b)
            .unwrap_or(writer.replies.len().min(replay.replies.len()));
        failures.push(format!(
            "served and replayed rounds differ from trigger {first} on ({} vs {} triggers)",
            writer.replies.len(),
            replay.replies.len()
        ));
    }
    if run.final_crc != replay.final_crc {
        failures.push(format!(
            "final weights CRC {:08x} served vs {:08x} replayed",
            run.final_crc, replay.final_crc
        ));
    }
    failures
}

/// Hands the allocator's free memory back to the OS, so memory a
/// stopped server left in some thread's arena neither counts towards the
/// next server's resident set nor saves it page faults.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later peak leaves out what came before.
pub fn reset_rss_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// A size field of this process's `/proc/self/status` (`VmHWM:`,
/// `VmRSS:`), MB.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
