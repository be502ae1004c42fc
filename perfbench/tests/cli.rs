//! Reduced-size runs of the benchmark binary: every workload must pass
//! its own checks and print every metric, and a corrupted segment must
//! be counted as a failure with a nonzero exit.

use std::process::{Command, Output};

const END_TO_END: [&str; 10] = [
    "save_ms.p50",
    "save_ms.p90",
    "restore_ms.p50",
    "restore_ms.p90",
    "resume_ms.p50",
    "stored_ratio",
    "rel_error.avg",
    "rel_error.max",
    "setup_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 20] = [
    "wavelet.fwd_ms",
    "quant.encode_ms",
    "core.format_ms",
    "quant.coverage",
    "deflate.compress_ms",
    "deflate.ratio",
    "store.save_ms",
    "store.write_amp",
    "store.gc_ms",
    "store.read_ms",
    "deflate.inflate_ms",
    "core.parse_inverse_ms",
    "serve.stream_ms",
    "serve.tokens",
    "serve.resume_redo_bytes",
    "deflate.inflate_oneshot_ms",
    "trace.save_overhead_ms",
    "trace.restore_overhead_ms",
    "trace.save_uncovered_ms",
    "trace.restore_uncovered_ms",
];

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{trace}-{}", extra.len()));
    Command::new(env!("CARGO_BIN_EXE_ckpt-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", &trace.to_string(), "--scale", "smoke"])
        .arg("--work-dir")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

/// The stdout lines: (info, result).
fn lines(out: &Output) -> (String, String) {
    let text = String::from_utf8(out.stdout.clone()).expect("utf-8 output");
    let mut it = text.lines().filter(|l| !l.is_empty()).map(str::to_string);
    let info = it.next().expect("an info line");
    let result = it.next().expect("a result line");
    assert!(it.next().is_none(), "the result is the last line");
    (info, result)
}

/// The numeric value of metric `name` in a result line.
fn value(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {result}"))
        + key.len();
    let end = result[at..]
        .find(',')
        .expect("value is followed by its unit")
        + at;
    result[at..end].parse().expect("a number")
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for workload in ["ckpt_serial", "ckpt_parallel", "restart_stream"] {
        for (trace, names) in [(0u8, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let out = run(workload, 3, trace, &[]);
            let (info, result) = lines(&out);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{workload} trace {trace}: {info}\n{result}"
            );
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(result.contains("\"failed\": 0, "), "{result}");
            for name in names {
                assert!(value(&result, name).is_finite());
            }
            assert_eq!(result.matches("\"value\"").count(), names.len(), "{result}");
            assert!(info.contains("\"error_rate\": 0,"), "{info}");
            assert!(info.contains("\"seed\": 3,"), "{info}");
            assert!(info.contains("\"simd\":"), "{info}");
        }
    }
}

#[test]
fn the_same_seed_stores_the_same_bytes() {
    let a = lines(&run("ckpt_parallel", 9, 0, &[]));
    let b = lines(&run("ckpt_parallel", 9, 0, &[]));
    let crc = |info: &str| info.split("\"payload_crc32\": ").nth(1).unwrap()[..10].to_string();
    assert_eq!(crc(&a.0), crc(&b.0));
    for name in ["stored_ratio", "rel_error.avg", "rel_error.max"] {
        assert_eq!(value(&a.1, name), value(&b.1, name), "{name}");
    }
    let c = lines(&run("ckpt_parallel", 10, 0, &[]));
    assert_ne!(crc(&a.0), crc(&c.0), "another seed makes other fields");
}

#[test]
fn a_flipped_segment_byte_is_a_failure_and_exits_nonzero() {
    for workload in ["ckpt_serial", "restart_stream"] {
        let out = run(workload, 3, 0, &["--corrupt-segment"]);
        let (info, result) = lines(&out);
        assert_eq!(out.status.code(), Some(1), "{workload}: {result}");
        assert!(result.starts_with("{\"correct\": false, "), "{result}");
        assert!(!result.contains("\"failed\": 0, "), "{result}");
        assert!(!info.contains("\"error_rate\": 0,"), "{info}");
    }
}

#[test]
fn usage_errors_exit_two_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "ckpt_serial", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ckpt-perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
