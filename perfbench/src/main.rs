//! Checkpoint save / restart benchmark.
//!
//! ```text
//! ckpt-perfbench --workload <ckpt_serial|ckpt_parallel|restart_stream>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--scale full|smoke] [--work-dir <dir>] [--corrupt-segment]
//! ```
//!
//! Runs one workload (see `workload.rs`) for `--seconds`, checks every
//! output, and prints two JSON lines: an `info` object (host
//! fingerprint, seed, sample counts, error rate, payload checksum) and,
//! last, the result object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs traced and untraced ops alternately, reports the per-layer
//! metrics, and writes the spans to `<work-dir>/trace-<workload>.jsonl`.
//! Exits 1 when any check failed, 2 on a usage error.

mod host;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use workload::{Bench, Config, Scale, Workload};

fn usage(why: &str) -> ! {
    eprintln!("ckpt-perfbench: {why}");
    eprintln!(
        "usage: ckpt-perfbench --workload <ckpt_serial|ckpt_parallel|restart_stream> --seed <n> \
         --seconds <s> --trace <0|1> [--scale full|smoke] [--work-dir <dir>] [--corrupt-segment]"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Config {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::full();
    let mut dir = PathBuf::from(".bench_out");
    let mut corrupt_segment = false;
    while let Some(flag) = args.next() {
        if flag == "--corrupt-segment" {
            corrupt_segment = true;
            continue;
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes a whole number")),
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s.is_finite() && s >= 0.0) {
                    usage("--seconds must be a non-negative number");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::full(),
                    "smoke" => Scale::smoke(),
                    _ => usage("--scale takes full or smoke"),
                }
            }
            "--work-dir" => dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        scale,
        dir: dir.join(format!("{}-{}", workload.name(), std::process::id())),
        corrupt_segment,
    }
}

fn main() {
    let cfg = parse_args(std::env::args().skip(1));
    let host = host::Host::detect();
    let bench = Bench::new(&cfg);
    let rep = bench.run_workload();
    let _ = std::fs::remove_dir_all(&cfg.dir);

    let trace_file = bench.tracer().map(|t| {
        let path = cfg
            .dir
            .parent()
            .unwrap_or(&cfg.dir)
            .join(format!("trace-{}.jsonl", cfg.workload.name()));
        if let Err(e) = std::fs::write(&path, t.to_jsonl()) {
            eprintln!("ckpt-perfbench: writing {}: {e}", path.display());
        }
        path
    });
    let metrics = match bench.tracer() {
        Some(t) => report::per_layer(&rep, t),
        None => report::end_to_end(&rep, host::peak_rss_mib()),
    };
    let result = report::Result::new(&rep, metrics);
    println!(
        "{}",
        report::info_json(&cfg, &host, &rep, &result, trace_file.as_deref())
    );
    println!("{}", result.to_json());
    std::process::exit(result.exit_code());
}
