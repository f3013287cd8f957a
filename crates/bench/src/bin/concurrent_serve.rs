//! Concurrent serving benchmark: reader threads racing a live
//! incremental optimization, snapshot serving vs the old mutex path.
//!
//! Both arms process the *same* votes with the *same* incremental
//! pipeline (arrival-order batches, delta-based re-ranking between
//! batches) while `--readers` threads hammer rank requests the whole
//! time:
//!
//! * **mutex** — the pre-snapshot architecture: one big lock around the
//!   graph, its latest published snapshot and a [`kg_serve::SnapshotServer`]
//!   cache. The writer holds it for each batch's solve + publish +
//!   re-rank (a `&mut self` serving API serializes exactly like this),
//!   and every reader takes it per request and ranks on the snapshot the
//!   writer published under it, so reads stall for the whole round
//!   whenever one is being solved.
//! * **snapshot** — [`votekg::Framework::optimize_incremental`] publishes
//!   epoch-stamped [`votekg::GraphSnapshot`]s; readers serve through a
//!   cloned [`votekg::ServeHandle`] over the lock-free
//!   [`votekg::SnapshotServer`] and never block on the writer. A sample
//!   of reads is verified byte-identical to an uncached
//!   [`kg_sim::rank_answers`] evaluation of the exact snapshot served.
//!
//! Two throughput numbers are reported per arm:
//!
//! * **overall** — reads per second over the arm's whole optimization
//!   window (rounds plus the gaps between them);
//! * **during rounds** — reads per second counting only requests whose
//!   service time overlaps a round being applied. This is the headline
//!   metric: it measures whether the system can serve *while* the
//!   optimizer is live, which is the one thing the mutex architecture
//!   cannot do (its readers are parked until the round's lock drops —
//!   visible here as a near-zero during-rounds rate and a `max` read
//!   latency of a full round's wall-clock).
//!
//! Results land in `BENCH_concurrent_serve.json`.
//!
//! Run: `cargo run -p kg-bench --release --bin concurrent_serve
//!       [--scale f] [--seed u] [--votes n] [--rounds n] [--readers n] [--out path]`

use kg_bench::setups::{experiment_multi_opts, vote_scenario};
use kg_bench::table::f2;
use kg_bench::{Args, Table};
use kg_datasets::TWITTER;
use kg_graph::{KnowledgeGraph, NodeId};
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{rank_answers, BatchQuery, SimilarityConfig};
use kg_votes::{solve_multi_votes, VoteSet};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use votekg::{Framework, FrameworkConfig, Strategy};

/// How often a snapshot-arm reader proves a served ranking against an
/// uncached evaluation (1 = every read; larger = cheaper sampling).
const VERIFY_EVERY: usize = 256;

/// One timed read: start offset and duration, both nanoseconds relative
/// to the arm's epoch.
#[derive(Clone, Copy)]
struct ReadSample {
    start_ns: u64,
    dur_ns: u64,
}

/// One arm's outcome: reader-side service quality while the optimizer
/// was running.
#[derive(Debug, Serialize)]
struct ArmOut {
    /// Total rank requests completed during the optimization window.
    reads: u64,
    /// Wall-clock of the whole incremental optimization (the window).
    elapsed_ms: f64,
    /// Optimization rounds applied.
    rounds: usize,
    /// Wall-clock spent inside rounds (solve + re-rank).
    round_time_ms: f64,
    /// Aggregate reads per second over the whole window.
    reads_per_sec: f64,
    /// Reads whose service time overlapped a round being applied.
    reads_during_rounds: u64,
    /// Aggregate reads per second while a round was in flight.
    reads_per_sec_during_rounds: f64,
    /// Median read latency, microseconds (within-bucket interpolated,
    /// [`kg_telemetry::Histogram::quantile`]).
    p50_us: f64,
    /// 90th-percentile read latency, microseconds (interpolated).
    p90_us: f64,
    /// 99th-percentile read latency, microseconds (interpolated).
    p99_us: f64,
    /// 99.9th-percentile read latency, microseconds (interpolated).
    p999_us: f64,
    /// Worst observed read latency, microseconds. In the mutex arm this
    /// is readers parked behind a whole round.
    max_us: f64,
    /// Reads verified byte-identical against an uncached evaluation
    /// (snapshot arm only; the mutex arm reads under the lock and is
    /// coherent by construction).
    verified: u64,
}

/// The emitted `BENCH_concurrent_serve.json` document.
#[derive(Debug, Serialize)]
struct ConcurrentServeBench {
    dataset: String,
    scale: f64,
    seed: u64,
    votes: usize,
    batch: usize,
    queries: usize,
    readers: usize,
    k: usize,
    mutex: ArmOut,
    snapshot: ArmOut,
    /// snapshot / mutex, during-rounds reads per second — service
    /// availability under a live optimizer, the headline number.
    during_rounds_speedup: f64,
    /// snapshot / mutex, whole-window reads per second.
    overall_speedup: f64,
    snapshot_stats: kg_serve::ServeStats,
}

fn flag(args: &Args, name: &str) -> Option<String> {
    args.rest
        .iter()
        .position(|a| a == name)
        .and_then(|p| args.rest.get(p + 1).cloned())
}

fn num_flag(args: &Args, name: &str, default: usize) -> usize {
    flag(args, name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} wants a number"))
        })
        .unwrap_or(default)
}

/// Folds raw samples + round intervals into the reported arm metrics.
/// Latency quantiles go through a standalone log-scale
/// [`kg_telemetry::Histogram`] with within-bucket interpolation — the
/// same summarization the telemetry exporters use, so bench numbers and
/// production dumps are comparable.
fn arm_out(
    samples: &[ReadSample],
    elapsed: Duration,
    intervals: &[(u64, u64)],
    verified: u64,
) -> ArmOut {
    let lat = kg_telemetry::Histogram::standalone();
    let mut max_ns = 0u64;
    for s in samples {
        lat.record(s.dur_ns);
        max_ns = max_ns.max(s.dur_ns);
    }
    let reads = samples.len() as u64;
    let round_ns: u64 = intervals.iter().map(|(a, b)| b - a).sum();
    let during = samples
        .iter()
        .filter(|s| {
            let end = s.start_ns + s.dur_ns;
            intervals.iter().any(|&(a, b)| s.start_ns < b && end > a)
        })
        .count() as u64;
    ArmOut {
        reads,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        rounds: intervals.len(),
        round_time_ms: round_ns as f64 / 1e6,
        reads_per_sec: reads as f64 / elapsed.as_secs_f64().max(1e-9),
        reads_during_rounds: during,
        reads_per_sec_during_rounds: during as f64 / (round_ns as f64 / 1e9).max(1e-9),
        p50_us: lat.quantile(0.50) / 1e3,
        p90_us: lat.quantile(0.90) / 1e3,
        p99_us: lat.quantile(0.99) / 1e3,
        p999_us: lat.quantile(0.999) / 1e3,
        max_us: max_ns as f64 / 1e3,
        verified,
    }
}

/// The old architecture: one lock serializes every reader against the
/// writer's whole per-batch solve + re-rank.
fn run_mutex_arm(
    graph: &KnowledgeGraph,
    votes: &VoteSet,
    questions: &[(NodeId, Vec<NodeId>)],
    sim: SimilarityConfig,
    batch: usize,
    readers: usize,
    k: usize,
) -> ArmOut {
    let opts = experiment_multi_opts(Duration::from_secs(60));
    let server = SnapshotServer::new(ServeConfig {
        sim,
        ..Default::default()
    });
    let shared = Mutex::new((graph.clone(), graph.publish()));
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let mut sample_threads: Vec<Vec<ReadSample>> = Vec::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..readers {
            let shared = &shared;
            let server = &server;
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut samples = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let (q, answers) = &questions[i % questions.len()];
                    i += 1;
                    let start = epoch.elapsed().as_nanos() as u64;
                    let started = Instant::now();
                    let (_, ref snap) = *shared.lock().unwrap();
                    let r = server.rank_at(snap, *q, answers, k);
                    samples.push(ReadSample {
                        start_ns: start,
                        dur_ns: started.elapsed().as_nanos() as u64,
                    });
                    assert!(!r.is_empty());
                }
                samples
            }));
        }

        // Writer: the incremental pipeline, whole batch under the lock.
        let started = Instant::now();
        for chunk in votes.votes.chunks(batch) {
            let (ref mut graph, ref mut snap) = *shared.lock().unwrap();
            let round_start = epoch.elapsed().as_nanos() as u64;
            let version_before = graph.version();
            solve_multi_votes(graph, &VoteSet::from_votes(chunk.to_vec()), &opts);
            let delta = graph.changes_since(version_before);
            *snap = graph.publish();
            if !delta.is_empty() {
                let qs: Vec<NodeId> = questions.iter().map(|(q, _)| *q).collect();
                let affected = kg_sim::affected_queries(graph, &delta.edges, &qs, &sim);
                let requests: Vec<BatchQuery<'_>> = questions
                    .iter()
                    .filter(|(q, _)| affected.contains(q))
                    .map(|(q, answers)| BatchQuery {
                        query: *q,
                        answers,
                        k: answers.len(),
                    })
                    .collect();
                server.rank_batch_at(snap, &requests);
            }
            intervals.push((round_start, epoch.elapsed().as_nanos() as u64));
        }
        elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            sample_threads.push(h.join().expect("reader thread"));
        }
    });
    let samples: Vec<ReadSample> = sample_threads.concat();
    arm_out(&samples, elapsed, &intervals, 0)
}

/// The snapshot architecture: the framework's incremental pipeline
/// publishes between batches; readers serve lock-free through
/// `ServeHandle`s. Votes are fed batch by batch so each round's wall
/// clock can be timed from outside.
fn run_snapshot_arm(
    graph: &KnowledgeGraph,
    votes: &VoteSet,
    questions: &[(NodeId, Vec<NodeId>)],
    sim: SimilarityConfig,
    batch: usize,
    readers: usize,
    k: usize,
) -> (ArmOut, kg_serve::ServeStats) {
    let mut config = FrameworkConfig {
        multi: experiment_multi_opts(Duration::from_secs(60)),
        ..Default::default()
    };
    config.multi.encode.sim = sim;
    let mut fw = Framework::new(graph.clone(), config);
    let handle = fw.handle();
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let mut sample_threads: Vec<(Vec<ReadSample>, u64)> = Vec::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..readers {
            let handle = handle.clone();
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut samples = Vec::new();
                let mut verified = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let (q, answers) = &questions[i % questions.len()];
                    i += 1;
                    let start = epoch.elapsed().as_nanos() as u64;
                    let started = Instant::now();
                    let (snap, r) = handle.rank_snapshot(*q, answers, k);
                    samples.push(ReadSample {
                        start_ns: start,
                        dur_ns: started.elapsed().as_nanos() as u64,
                    });
                    assert!(!r.is_empty());
                    if i % VERIFY_EVERY == 0 {
                        // Coherence gate: the served ranking must be
                        // byte-identical to an uncached evaluation of the
                        // exact snapshot it was served from.
                        assert_eq!(
                            r,
                            rank_answers(&snap, *q, answers, &sim, k),
                            "snapshot serving diverged at epoch {}",
                            snap.epoch()
                        );
                        verified += 1;
                    }
                }
                (samples, verified)
            }));
        }

        let started = Instant::now();
        for chunk in votes.votes.chunks(batch) {
            for v in chunk {
                fw.record_vote(v.clone());
            }
            let round_start = epoch.elapsed().as_nanos() as u64;
            fw.optimize_incremental(Strategy::MultiVote, chunk.len());
            intervals.push((round_start, epoch.elapsed().as_nanos() as u64));
        }
        elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            sample_threads.push(h.join().expect("reader thread"));
        }
    });
    let verified: u64 = sample_threads.iter().map(|(_, v)| *v).sum();
    let samples: Vec<ReadSample> = sample_threads
        .iter()
        .flat_map(|(s, _)| s.iter().copied())
        .collect();
    (
        arm_out(&samples, elapsed, &intervals, verified),
        handle.stats(),
    )
}

fn main() {
    let args = Args::parse(0.05);
    let _telemetry = args.telemetry_guard();
    let n_votes = num_flag(&args, "--votes", 48);
    let rounds = num_flag(&args, "--rounds", 12).max(1);
    let readers = num_flag(&args, "--readers", 4).max(1);
    let out_path =
        flag(&args, "--out").unwrap_or_else(|| "BENCH_concurrent_serve.json".to_string());
    let k = 10usize;

    println!(
        "Concurrent serving bench — {readers} readers racing incremental optimization, \
         snapshot serving vs one big mutex (scale {}, seed {})\n",
        args.scale, args.seed
    );

    let scenario = vote_scenario(&TWITTER, n_votes, args.scale, args.seed);
    let sim = SimilarityConfig::default();
    let mut questions: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for v in &scenario.votes.votes {
        if !questions.iter().any(|(q, _)| *q == v.query) {
            questions.push((v.query, v.answers.clone()));
        }
    }
    let batch = scenario.votes.len().div_ceil(rounds);
    println!(
        "workload: {} votes over {} queries, batches of {batch}\n",
        scenario.votes.len(),
        questions.len(),
    );

    let mutex = run_mutex_arm(
        &scenario.graph,
        &scenario.votes,
        &questions,
        sim,
        batch,
        readers,
        k,
    );
    let (snapshot, snapshot_stats) = run_snapshot_arm(
        &scenario.graph,
        &scenario.votes,
        &questions,
        sim,
        batch,
        readers,
        k,
    );

    let mut t = Table::new(&[
        "arm",
        "reads",
        "elapsed ms",
        "reads/s",
        "in-round reads/s",
        "p50 us",
        "p99 us",
        "max us",
    ]);
    for (name, arm) in [("mutex", &mutex), ("snapshot", &snapshot)] {
        t.row(&[
            name.to_string(),
            format!("{}", arm.reads),
            f2(arm.elapsed_ms),
            f2(arm.reads_per_sec),
            f2(arm.reads_per_sec_during_rounds),
            f2(arm.p50_us),
            f2(arm.p99_us),
            f2(arm.max_us),
        ]);
    }
    t.print();

    let ratio = |snap: f64, base: f64| {
        if base > 0.0 {
            snap / base
        } else {
            f64::MAX
        }
    };
    let during_rounds_speedup = ratio(
        snapshot.reads_per_sec_during_rounds,
        mutex.reads_per_sec_during_rounds,
    );
    let overall_speedup = ratio(snapshot.reads_per_sec, mutex.reads_per_sec);
    println!(
        "\nread throughput with a round in flight: {:.2}x vs the mutex path \
         (overall window: {:.2}x; {} snapshot reads verified against uncached evaluation)",
        during_rounds_speedup, overall_speedup, snapshot.verified
    );

    let bench = ConcurrentServeBench {
        dataset: scenario.name.clone(),
        scale: args.scale,
        seed: args.seed,
        votes: scenario.votes.len(),
        batch,
        queries: questions.len(),
        readers,
        k,
        mutex,
        snapshot,
        during_rounds_speedup,
        overall_speedup,
        snapshot_stats,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("wrote {out_path}");
}
