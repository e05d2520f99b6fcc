//! Loopback serving benchmark for the private incremental regression
//! engine.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload fleet_reg1_d8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives the production serving path — TCP loopback into `serve_tcp`,
//! the wire codec, the connection server, the sharded ingress queues,
//! the write-ahead log and the mechanism — from one load-generator
//! process, checks every output, and prints one JSON result line last on
//! standard output. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. See `loopbench/README.md`.

mod ladder;
mod loopback;
mod procstat;
mod report;
mod serving;
mod workload;

use report::{median, result_line, Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(s: &serving::Serving) -> Metrics {
    let mut m = Metrics::default();
    m.put("throughput_pps", s.throughput_pps(), "1/s");
    m.put("latency_p50_ms", s.latency_ms(0.5), "ms");
    m.put("latency_p99_ms", s.latency_ms(0.99), "ms");
    m.put("cpu_us_per_point", s.cpu_us_per_point(), "us");
    m.put("setup_s", median(&s.setup_s), "s");
    m.put("recover_s", median(&s.recover_s), "s");
    m.put("rss_mb", s.rss_added_bytes / (1024.0 * 1024.0), "MiB");
    m.put("log_bytes_per_point", s.log_bytes as f64 / s.points_sent().max(1) as f64, "B");
    m.put("excess_risk", s.excess_risk, "loss");
    m
}

fn run(args: &Args, base: &std::path::Path) -> Result<(Tally, Metrics), String> {
    let w = &args.workload;
    let plan = workload::plan(w, args.seed);
    if !args.trace {
        let s = serving::run(w, &plan, args.seconds, (w.setup_reps, w.recover_reps), base)?;
        eprintln!(
            "loopbench {} seed {}: {} latency samples, {} of {} slices clean, host steal {:.3}%, other-process cpu {:.3}%, setups {:?}, recoveries {:?}",
            w.name,
            args.seed,
            s.samples(),
            s.clean_slices().len(),
            s.slices.len(),
            s.host.steal_pct,
            s.host.other_cpu_pct,
            s.setup_s,
            s.recover_s
        );
        let metrics = end_to_end(&s);
        return Ok((s.tally, metrics));
    }
    ladder::run(w, &plan, args.seconds, base)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (WAL and spill directories) lives inside the working
    // directory and is removed before exit.
    let base = PathBuf::from(".loopbench_run").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&base)
        .map_err(|e| format!("create {}: {e}", base.display()))
        .and_then(|()| run(&args, &base));
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir(".loopbench_run");
    match result {
        Ok((tally, metrics)) => {
            for r in &tally.reasons {
                eprintln!("loopbench: failure: {r}");
            }
            println!("{}", result_line(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}
