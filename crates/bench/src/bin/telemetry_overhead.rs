//! Telemetry overhead benchmark: the cached re-rank path (a warm
//! [`kg_serve::SnapshotServer::rank_batch_at`] over an unchanged snapshot —
//! every request a cache hit) measured under three arms:
//!
//! * **off** — telemetry disabled: the zero-cost path every entry point
//!   must keep (one relaxed atomic load per touch point);
//! * **spans** — telemetry enabled, recorder idle: span completions and
//!   counters land in the lock-free stats tables and the spans also hit
//!   the per-thread rings (span begin/ends are always ring-written when
//!   enabled);
//! * **recording** — [`kg_telemetry::start_recording`] on: instants and
//!   counter deltas join the rings too — the full flight-recorder cost.
//!
//! Arms are interleaved per repetition and each arm's minimum across
//! repetitions is compared, so ambient machine noise hits all arms
//! equally. `BENCH_telemetry_overhead.json` records the times and
//! relative overheads; with `--enforce`, exits nonzero when the
//! recording arm exceeds the overhead budget (10% relative, with a small
//! absolute slack for sub-millisecond workloads) — the check.sh gate.
//!
//! Run: `cargo run -p kg-bench --release --bin telemetry_overhead
//!       [--scale f] [--seed u] [--votes n] [--iters n] [--reps n]
//!       [--out path] [--enforce]`

use kg_bench::setups::vote_scenario;
use kg_bench::table::f2;
use kg_bench::{Args, Table};
use kg_datasets::TWITTER;
use kg_graph::{GraphSnapshot, NodeId};
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{BatchQuery, SimilarityConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Relative overhead budget for the recording arm (check.sh gate).
const MAX_RELATIVE_OVERHEAD: f64 = 0.10;
/// Absolute slack per measured pass: timing jitter floor so a
/// microsecond-scale workload cannot fail the relative gate on noise.
const ABS_SLACK: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Off,
    Spans,
    Recording,
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Off => "off",
            Arm::Spans => "spans",
            Arm::Recording => "recording",
        }
    }
}

/// One arm's measurement across all repetitions.
#[derive(Debug, Serialize)]
struct ArmOut {
    /// Fastest measured pass, milliseconds — the comparison basis.
    min_ms: f64,
    /// Per-repetition pass times, milliseconds.
    reps_ms: Vec<f64>,
    /// Relative overhead vs the `off` arm's fastest pass.
    overhead: f64,
}

/// The emitted `BENCH_telemetry_overhead.json` document.
#[derive(Debug, Serialize)]
struct OverheadBench {
    dataset: String,
    scale: f64,
    seed: u64,
    queries: usize,
    k: usize,
    /// rank_batch calls per measured pass.
    iters: usize,
    /// Interleaved repetitions per arm.
    reps: usize,
    off: ArmOut,
    spans: ArmOut,
    recording: ArmOut,
    /// The gate: recording-arm relative overhead budget.
    max_relative_overhead: f64,
    /// Absolute per-pass slack (milliseconds) under which the relative
    /// gate is waived.
    abs_slack_ms: f64,
    /// Whether the recording arm met the budget.
    pass: bool,
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

fn measure(
    arm: Arm,
    server: &SnapshotServer,
    snap: &GraphSnapshot,
    requests: &[BatchQuery<'_>],
    iters: usize,
) -> Duration {
    match arm {
        Arm::Off => kg_telemetry::disable(),
        Arm::Spans => kg_telemetry::enable(),
        Arm::Recording => {
            kg_telemetry::enable();
            kg_telemetry::start_recording();
        }
    }
    let started = Instant::now();
    for _ in 0..iters {
        let ranked = server.rank_batch_at(snap, requests);
        std::hint::black_box(&ranked);
    }
    let elapsed = started.elapsed();
    kg_telemetry::stop_recording();
    kg_telemetry::disable();
    elapsed
}

fn main() {
    // A deliberately beefier default workload than the other bins: with
    // too few warm queries per rank_batch call, the fixed per-call span
    // cost dominates and the relative numbers measure nothing but it.
    let args = Args::parse(0.3);
    let n_votes = num_flag(&args, "--votes", 768);
    let iters = num_flag(&args, "--iters", 20).max(1);
    let reps = num_flag(&args, "--reps", 7).max(3);
    let out_path =
        flag(&args, "--out").unwrap_or_else(|| "BENCH_telemetry_overhead.json".to_string());
    let enforce = args.rest.iter().any(|a| a == "--enforce");
    let k = 10usize;

    println!(
        "Telemetry overhead bench — cached re-rank path, recorder off vs spans vs \
         recording (scale {}, seed {})\n",
        args.scale, args.seed
    );

    let scenario = vote_scenario(&TWITTER, n_votes, args.scale, args.seed);
    let snap = scenario.graph.publish();
    let sim = SimilarityConfig::default();
    let mut questions: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for v in &scenario.votes.votes {
        if !questions.iter().any(|(q, _)| *q == v.query) {
            questions.push((v.query, v.answers.clone()));
        }
    }
    let requests: Vec<BatchQuery<'_>> = questions
        .iter()
        .map(|(q, answers)| BatchQuery {
            query: *q,
            answers,
            k,
        })
        .collect();
    println!(
        "workload: {} warm queries x {iters} rank_batch calls per pass, {reps} reps per arm\n",
        requests.len()
    );

    let server = SnapshotServer::new(ServeConfig {
        sim,
        ..Default::default()
    });
    // Warm the cache (and the ring/table allocation paths) so every
    // measured pass is pure cache hits.
    kg_telemetry::reset();
    server.rank_batch_at(&snap, &requests);
    measure(Arm::Recording, &server, &snap, &requests, 1);

    const ARMS: [Arm; 3] = [Arm::Off, Arm::Spans, Arm::Recording];
    let mut times: [Vec<Duration>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (i, arm) in ARMS.iter().enumerate() {
            times[i].push(measure(*arm, &server, &snap, &requests, iters));
        }
    }
    kg_telemetry::reset();

    let min = |ds: &[Duration]| ds.iter().copied().min().unwrap_or(Duration::ZERO);
    let base = min(&times[0]);
    let arm_out = |ds: &[Duration]| {
        let fastest = min(ds);
        let overhead = if base.is_zero() {
            0.0
        } else {
            fastest.as_secs_f64() / base.as_secs_f64() - 1.0
        };
        ArmOut {
            min_ms: fastest.as_secs_f64() * 1e3,
            reps_ms: ds.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
            overhead,
        }
    };
    let outs = [arm_out(&times[0]), arm_out(&times[1]), arm_out(&times[2])];

    let mut t = Table::new(&["arm", "min ms", "overhead"]);
    for (arm, out) in ARMS.iter().zip(outs.iter()) {
        t.row(&[
            arm.label().to_string(),
            f2(out.min_ms),
            format!("{:+.1}%", out.overhead * 100.0),
        ]);
    }
    t.print();

    let recording_min = min(&times[2]);
    let pass = outs[2].overhead <= MAX_RELATIVE_OVERHEAD
        || recording_min.saturating_sub(base) <= ABS_SLACK;
    println!(
        "\nrecording-arm overhead {:+.1}% (budget {:.0}%, abs slack {} us): {}",
        outs[2].overhead * 100.0,
        MAX_RELATIVE_OVERHEAD * 100.0,
        ABS_SLACK.as_micros(),
        if pass { "PASS" } else { "FAIL" }
    );

    let [off, spans, recording] = outs;
    let bench = OverheadBench {
        dataset: scenario.name.clone(),
        scale: args.scale,
        seed: args.seed,
        queries: requests.len(),
        k,
        iters,
        reps,
        off,
        spans,
        recording,
        max_relative_overhead: MAX_RELATIVE_OVERHEAD,
        abs_slack_ms: ABS_SLACK.as_secs_f64() * 1e3,
        pass,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("wrote {out_path}");
    if enforce && !pass {
        std::process::exit(1);
    }
}
