//! votebench: the votekg benchmark.
//!
//! ```text
//! votebench --workload <read_hot|read_miss|vote_rounds> --seed <n>
//!           --seconds <s> --trace <0|1>
//! votebench --repeat <N> [--workload <name>|all] [--same-seed] ...
//! ```
//!
//! One run builds the dataset and the workload's plan, sets a server up
//! several times (`setup_s` is the median), runs the timed phase over
//! real sockets, replays the inputs in-process, checks every output,
//! and prints a human-readable report followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any failed check exits nonzero. See README.md.

mod layers;
mod plan;
mod stats;
mod wire;
mod workload;

use plan::Size;
use stats::{ns_to_ms, ns_to_us, quartiles, Better, Metrics};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Ctx, Plan, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    same_seed: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 0,
        same_seed: false,
        size: Size::FULL,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().map_err(|_| bad(&v))?;
            }
            "--same-seed" => args.same_seed = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("votebench: refusing to report from a debug build; build with --release");
        std::process::exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("votebench: {e}");
        std::process::exit(2);
    });
    if args.repeat > 0 {
        std::process::exit(repeat(&args));
    }
    let Some(wl) = Workload::from_name(&args.workload) else {
        eprintln!("votebench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", wl.name(), std::process::id()));
    let result = run(wl, &args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(out) => {
            print!("{}", out.report);
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.failures.is_empty(),
                out.attempted,
                out.failed,
                out.metrics.to_json()
            );
            if !out.failures.is_empty() {
                eprintln!("votebench: {} check(s) failed:", out.failures.len());
                for f in &out.failures {
                    eprintln!("  - {f}");
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("votebench: {e}");
            std::process::exit(1);
        }
    }
}

/// What one run reports.
pub struct RunOutput {
    pub report: String,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The revision of the checkout: git's when there is a `.git`, and a
/// digest of the sources either way (benchmark checkouts are not git
/// repositories).
fn provenance(wl: Workload, args: &Args, ds: &plan::Dataset) -> String {
    let git = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
                .ok()
                .map(|s| s.trim().to_string()),
            None => Some(head.to_string()),
        }
    });
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    // FNV-1a over paths and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"size\": \"{}\", \
         \"dataset\": \"{}\", \"scale\": {}, \"nodes\": {}, \"edges\": {}, \"nproc\": {}, \
         \"git_rev\": {}, \"source_digest\": \"{h:016x}\", \"source_files\": {}, \"profile\": \"release\"}}\n",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.size.name(),
        ds.name,
        args.size.scale,
        ds.graph.node_count(),
        ds.graph.edge_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git.map_or("null".to_string(), |g| format!("\"{g}\"")),
        files.len(),
    )
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn run(wl: Workload, args: &Args, work_dir: &Path) -> Result<RunOutput, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let size = args.size;
    let t0 = Instant::now();
    let ds = plan::dataset(&size);
    let plan = Plan::build(&ds, wl, &size, args.seed, args.seconds);
    let gen_s = t0.elapsed().as_secs_f64();
    let ctx = Ctx {
        wl,
        size,
        seconds: args.seconds,
        ds: &ds,
        plan: &plan,
        work_dir: work_dir.to_path_buf(),
    };
    let mut report = provenance(wl, args, &ds);
    let mut failures = Vec::new();

    // Set up several times, half before and half after the timed phase,
    // so the median spans the run rather than one burst; the last
    // set-up before the timed phase serves it.
    let mut setup_s = Vec::new();
    let before = size.setup_reps.div_ceil(2);
    let mut set_up_and_stop = |rep: usize, failures: &mut Vec<String>| -> Result<(), String> {
        let name = format!("setup{rep}");
        let (server, times) = ctx.set_up(&name)?;
        setup_s.push(times);
        if !server.shutdown().clean {
            failures.push(format!("set-up {rep}: unclean drain"));
        }
        ctx.remove_wal(&name);
        Ok(())
    };
    for rep in 1..before {
        set_up_and_stop(rep, &mut failures)?;
    }
    // From here the peak resident set is the served run's: the dataset
    // and plan the harness keeps, and the served server's work on top.
    // Data generation's and the earlier set-ups' peaks are left out.
    workload::release_free_memory();
    workload::reset_rss_peak()?;
    let rss_base_mb = workload::rss_mb("VmRSS:");
    let (server, served_times) = ctx.set_up("served")?;
    let mut untraced = workload::timed_phase(&ctx, &server);
    if !server.shutdown().clean {
        failures.push("unclean drain after the timed phase".into());
    }
    ctx.remove_wal("served");
    failures.append(&mut untraced.failures);
    // Read before the replay and the later set-ups, which are the
    // benchmark's own work.
    let rss_peak_mb = workload::rss_mb("VmHWM:");
    for rep in before..size.setup_reps {
        set_up_and_stop(rep, &mut failures)?;
    }
    setup_s.push(served_times);

    let totals: Vec<f64> = setup_s.iter().map(|t| t.total).collect();
    let e2e = end_to_end(&untraced, &totals, rss_peak_mb);
    report.push_str(&format!(
        "setup_s per set-up: {}\n",
        totals
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let phase = |f: fn(&wire::SetUpTimes) -> f64| stats::median(setup_s.iter().map(f).collect());
    report.push_str(&format!(
        "setup_s phases (medians): build {:.4} s  server start {:.4} s  warm-up {:.4} s  ({} questions)\n",
        phase(|t| t.build),
        phase(|t| t.start),
        phase(|t| t.warm),
        plan.pool().len()
    ));
    report.push_str(&e2e.render(&format!("end-to-end ({}, untraced):", wl.name())));
    report.push_str(&format!(
        "resident set when the peak was reset (dataset and plan): {rss_base_mb:.3} MB\n"
    ));
    let mut lat = untraced.rank_lat();
    report.push_str(&format!(
        "rank latency (not gated): p50 {:.3} us  p90 {:.3} us  p99 {:.3} us  max {:.3} us  (n={})\n",
        untraced.rank_p50_ns() / 1e3,
        ns_to_us(lat.pct(0.9)),
        ns_to_us(lat.pct(0.99)),
        ns_to_us(lat.max()),
        lat.len()
    ));
    report.push_str(&write_path_report(&mut untraced));
    let attempted = untraced.attempted();
    let failed = untraced.failed();

    // vote_rounds: every run replays the write path in-process and checks
    // the served rounds against it. A traced run also replays and times
    // the reads, for the layer figures.
    let mut replay = if wl == Workload::VoteRounds || args.trace {
        let mut replay = workload::replay(&ctx, &untraced.sent(), "replay", args.trace)?;
        failures.extend(workload::check_replay(&untraced, &replay));
        if wl == Workload::VoteRounds {
            report.push_str(&format!(
                "write-path replay (in-process, not gated): round p50 {:.3} ms  (n={})\n",
                ns_to_ms(replay.round.pct(0.5)),
                replay.round.len()
            ));
        }
        Some(replay)
    } else {
        None
    };

    let metrics = if args.trace {
        let recorder = layers::Recorder::start();
        let (tserver, _) = ctx.set_up("traced")?;
        let mut traced = workload::timed_phase(&ctx, &tserver);
        let (collected, counters) = recorder.finish();
        let mut ping = layers::ping(tserver.addr(), 2000)?;
        if !tserver.shutdown().clean {
            failures.push("traced: unclean drain".into());
        }
        ctx.remove_wal("traced");
        failures.extend(traced.failures.drain(..).map(|f| format!("traced: {f}")));
        let replay = replay.as_mut().expect("a traced run replays");
        failures.extend(
            workload::check_replay(&traced, replay)
                .into_iter()
                .map(|f| format!("traced: {f}")),
        );

        let samples: Vec<&wire::Sample> = untraced.samples().take(400).collect();
        let mut codec = layers::codec(&samples, wl.binary())?;
        let (mut phi, mut oracle) = layers::phi(&ctx, &layers::rank_inputs(&plan, 1000), 200);
        report.push_str(&layers::overhead_table(wl, &mut untraced, &mut traced));
        let per_layer = layers::per_layer(layers::LayerInputs {
            ctx: &ctx,
            untraced: &mut untraced,
            traced: &mut traced,
            collected: &collected,
            counters: &counters,
            replay,
            ping: &mut ping,
            codec: &mut codec,
            phi: &mut phi,
            oracle: &mut oracle,
            gen_s,
        });
        report.push_str(&per_layer.render(&format!(
            "per-layer ({}, traced run + in-process replay):",
            wl.name()
        )));
        per_layer
    } else {
        e2e
    };
    report.push_str(&format!("load.gen_s {gen_s:.3}\n"));
    Ok(RunOutput {
        report,
        metrics,
        attempted,
        failed,
        failures,
    })
}

/// The end-to-end metrics every workload reports.
fn end_to_end(run: &workload::WireRun, setup_s: &[f64], rss_peak_mb: f64) -> Metrics {
    use Better::{Higher, Lower};
    let mut m = Metrics::default();
    m.add(
        "setup_s",
        stats::median(setup_s.to_vec()),
        "s",
        Lower,
        setup_s.len(),
    );
    let n = run.readers.iter().map(|c| c.lat.len()).sum::<usize>();
    m.add("rank_rps", run.rank_rps(), "req/s", Higher, n);
    let attempted = run.attempted();
    let ok = attempted - run.failed();
    m.add(
        "success_rate",
        ok as f64 / attempted.max(1) as f64,
        "fraction",
        Higher,
        attempted as usize,
    );
    m.add("rss_peak_mb", rss_peak_mb, "MB", Lower, 1);
    m
}

/// `vote_rounds`' write-path figures, and the digest that must repeat
/// exactly for a seed.
fn write_path_report(run: &mut workload::WireRun) -> String {
    let Some(w) = run.writer.as_mut() else {
        return String::new();
    };
    let omega: i64 = w.replies.iter().map(|r| r.omega).sum();
    let applied: u64 = w.replies.iter().map(|r| r.votes_applied).sum();
    let discarded: u64 = w.replies.iter().map(|r| r.votes_discarded).sum();
    let quarantined: u64 = w.replies.iter().map(|r| r.votes_quarantined).sum();
    let rounds: u64 = w.replies.iter().map(|r| r.rounds).sum();
    let mut out = String::from("write path (vote_rounds end-to-end, not gated):\n");
    out.push_str(&format!(
        "  vote_ack_p50_us {:.3}  vote_ack_p90_us {:.3}  (n={})\n",
        ns_to_us(w.vote_ack.pct(0.5)),
        ns_to_us(w.vote_ack.pct(0.9)),
        w.vote_ack.len()
    ));
    out.push_str(&format!(
        "  round_p50_ms {:.3}  round_max_ms {:.3}  (n={})\n",
        ns_to_ms(w.round.pct(0.5)),
        ns_to_ms(w.round.max()),
        w.round.len()
    ));
    out.push_str(&format!(
        "  omega_avg {:.6}  writer reconnects {}\n",
        omega as f64 / applied.max(1) as f64,
        w.conn.reconnects
    ));
    out.push_str(&format!(
        "write digest: triggers={} rounds={rounds} applied={applied} discarded={discarded} \
         quarantined={quarantined} omega={omega} crc={:08x}\n",
        w.replies.len(),
        run.final_crc
    ));
    out
}

/// `--repeat N`: runs each workload N times in fresh processes and
/// prints every metric's median, quartiles, min and max. With
/// `--same-seed`, also checks that the write digest repeats exactly.
fn repeat(args: &Args) -> i32 {
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::from_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("votebench: unknown workload {:?}", args.workload);
                return 2;
            }
        }
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("votebench: current_exe: {e}");
            return 2;
        }
    };
    let mut status = 0;
    for wl in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut digests: Vec<String> = Vec::new();
        for i in 0..args.repeat {
            let seed = if args.same_seed {
                args.seed
            } else {
                args.seed + i as u64
            };
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", wl.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("votebench: spawn: {e}");
                    return 2;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            println!("{} seed {seed}: {last}", wl.name());
            if !out.status.success() {
                status = 1;
            }
            if let Some(d) = stdout.lines().find(|l| l.starts_with("write digest:")) {
                digests.push(d.to_string());
            }
            let Ok(doc) = serde_json::from_str::<serde::Value>(last) else {
                status = 1;
                continue;
            };
            for (name, v) in doc
                .get("metrics")
                .and_then(|m| m.as_object())
                .unwrap_or(&[])
            {
                let num = match v.get("value") {
                    Some(serde::Value::Float(f)) => *f,
                    Some(serde::Value::Int(i)) => *i as f64,
                    Some(serde::Value::UInt(u)) => *u as f64,
                    _ => continue,
                };
                let unit = v
                    .get("unit")
                    .and_then(|u| u.as_str())
                    .unwrap_or("")
                    .to_string();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vals)) => vals.push(num),
                    None => values.push((name.clone(), unit, vec![num])),
                }
            }
        }
        println!("\n{} over {} runs:", wl.name(), args.repeat);
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9}",
            "metric", "median", "q1", "q3", "min", "max", "iqr/med"
        );
        for (name, unit, vals) in &values {
            let (q1, med, q3) = quartiles(vals);
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!(
                "  {:<28} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>8.2}%  {unit}",
                name,
                med,
                q1,
                q3,
                min,
                max,
                spread * 100.0
            );
        }
        if args.same_seed && digests.windows(2).any(|w| w[0] != w[1]) {
            eprintln!("votebench: write digests differ across same-seed runs:");
            for d in &digests {
                eprintln!("  {d}");
            }
            status = 1;
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every workload, traced, so every check and every
    /// metric path executes. One test: telemetry is process-global.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for wl in Workload::ALL {
            let args = Args {
                workload: wl.name().to_string(),
                seed: 3,
                seconds: 1.0,
                trace: true,
                repeat: 0,
                same_seed: false,
                size: Size::TINY,
            };
            let dir = PathBuf::from(".bench_work").join(format!("test-{}", wl.name()));
            let out = run(wl, &args, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            let out = out.unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
            assert!(out.failures.is_empty(), "{}: {:?}", wl.name(), out.failures);
            assert!(out.attempted > 0 && out.failed == 0, "{}", wl.name());
            let reported: Vec<String> = out
                .metrics
                .list
                .iter()
                .map(|m| m.name.to_string())
                .collect();
            assert_eq!(reported, names("per_layer"), "{}", wl.name());
        }
        let _ = std::fs::remove_dir(".bench_work");
    }

    /// BENCHMARK.json's lists, in the order the benchmark reports them.
    fn benchmark_json() -> serde::Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(section: &str) -> Vec<String> {
        benchmark_json()
            .get(section)
            .and_then(|s| s.as_array())
            .expect("section")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let run = workload::WireRun {
            wall_s: 1.0,
            readers: vec![wire::ConnResult::default()],
            ..Default::default()
        };
        let m = end_to_end(&run, &[0.5], 100.0);
        let reported: Vec<String> = m.list.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(reported, names("end_to_end"));
    }
}
