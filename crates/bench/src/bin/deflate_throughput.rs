//! Single-thread deflate kernel throughput.
//!
//! Measures the raw gzip compress/decompress rate at every level on the
//! paper-shaped 1156 × 82 × 2 temperature array (raw little-endian f64
//! bytes), the standalone checksum kernels, and the full lossy pipeline
//! (wavelet → quantize → gzip) at one thread. The `formatted` row is
//! gzip Default over what the checkpoint path actually deflates: the
//! four NICAM arrays formatted by `Compressor` with `Container::None`.
//! Writes `BENCH_deflate.json` (median-of-5, MB/s per stage and level,
//! and the host fingerprint: cores, SIMD tier, CPU model).
//!
//! Run with `cargo run --release -p ckpt-bench --bin deflate_throughput`.
//! Pass an output path as the first argument to write elsewhere.
//!
//! `--smoke` runs a reduced-input CI gate instead: roundtrip every
//! level, assert Level::Default compress throughput clears a
//! conservative floor, and exit non-zero on any miss (no JSON output).

use ckpt_bench::{all_nicam_arrays, median_time, ms, raw_bytes, temperature_nicam};
use ckpt_core::{Compressor, CompressorConfig, Container};
use ckpt_deflate::{adler32::adler32, crc32::crc32, gzip, Level};
use std::fmt::Write as _;
use std::time::Duration;

const RUNS: usize = 5;
/// CI floor for `--smoke`. The rewritten kernel sustains ~25 MB/s at
/// Level::Default on a weak single core even on the small smoke input;
/// the floor sits well below that, and the best-of-5 measurement
/// discards scheduler interference on shared runners, so a miss means
/// a real kernel regression.
const SMOKE_FLOOR_MB_S: f64 = 15.0;
const SMOKE_BYTES: usize = 256 * 1024;

const LEVELS: [(Level, &str); 4] = [
    (Level::Store, "store"),
    (Level::Fast, "fast"),
    (Level::Default, "default"),
    (Level::Best, "best"),
];

fn mb_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64()
}

struct LevelRow {
    name: &'static str,
    compress_ms: f64,
    compress_mb_s: f64,
    decompress_ms: f64,
    decompress_mb_s: f64,
    compressed_bytes: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let out_path =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "BENCH_deflate.json".into());

    let raw = raw_bytes(&temperature_nicam());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("=== Deflate kernel throughput (raw {} bytes, {} cores) ===", raw.len(), cores);
    println!();
    println!(
        "{:>8} {:>13} {:>10} {:>13} {:>10} {:>12}",
        "level", "compress", "MB/s", "decompress", "MB/s", "bytes"
    );

    let mut rows = Vec::new();
    for (level, name) in LEVELS {
        let packed = gzip::compress(&raw, level);
        let compress = median_time(RUNS, || {
            let _ = gzip::compress(&raw, level);
        });
        let decompress = median_time(RUNS, || {
            let _ = gzip::decompress(&packed).unwrap();
        });
        assert_eq!(gzip::decompress(&packed).unwrap(), raw, "{name} roundtrip");
        let row = LevelRow {
            name,
            compress_ms: compress.as_secs_f64() * 1e3,
            compress_mb_s: mb_s(raw.len(), compress),
            decompress_ms: decompress.as_secs_f64() * 1e3,
            decompress_mb_s: mb_s(raw.len(), decompress),
            compressed_bytes: packed.len(),
        };
        println!(
            "{:>8} {:>10} ms {:>10.1} {:>10} ms {:>10.1} {:>12}",
            row.name,
            ms(compress),
            row.compress_mb_s,
            ms(decompress),
            row.decompress_mb_s,
            row.compressed_bytes
        );
        rows.push(row);
    }

    let crc_t = median_time(RUNS, || {
        std::hint::black_box(crc32(&raw));
    });
    let adler_t = median_time(RUNS, || {
        std::hint::black_box(adler32(&raw));
    });
    println!();
    println!("crc32:   {:>8.1} MB/s", mb_s(raw.len(), crc_t));
    println!("adler32: {:>8.1} MB/s", mb_s(raw.len(), adler_t));

    // Full lossy pipeline at one thread: the end-to-end number the
    // kernel rewrite moves (compare BENCH_parallel.json threads=1).
    let t = temperature_nicam();
    let comp = Compressor::new(CompressorConfig::paper_proposed().with_threads(1)).unwrap();
    let packed = comp.compress(&t).unwrap();
    let pipe_c = median_time(RUNS, || {
        let _ = comp.compress(&t).unwrap();
    });
    let pipe_d = median_time(RUNS, || {
        let _ = Compressor::decompress_parallel(&packed.bytes, 1).unwrap();
    });
    println!();
    println!(
        "pipeline (1 thread): compress {} ms, decompress {} ms, {} bytes",
        ms(pipe_c),
        ms(pipe_d),
        packed.bytes.len()
    );

    // The checkpoint path's own deflate input: the four arrays'
    // formatted streams, each one gzip member.
    let formatter = Compressor::new(
        CompressorConfig::paper_proposed().with_threads(1).with_container(Container::None),
    )
    .unwrap();
    let formatted: Vec<Vec<u8>> = all_nicam_arrays()
        .iter()
        .map(|(_, t)| formatter.compress(t).unwrap().bytes)
        .collect();
    let fmt_in: usize = formatted.iter().map(Vec::len).sum();
    let fmt_packed: Vec<Vec<u8>> =
        formatted.iter().map(|f| gzip::compress(f, Level::Default)).collect();
    let fmt_out: usize = fmt_packed.iter().map(Vec::len).sum();
    for (p, f) in fmt_packed.iter().zip(&formatted) {
        assert_eq!(&gzip::decompress(p).unwrap(), f, "formatted roundtrip");
    }
    let fmt_c = median_time(RUNS, || {
        for f in &formatted {
            std::hint::black_box(gzip::compress(f, Level::Default));
        }
    });
    let fmt_d = median_time(RUNS, || {
        for p in &fmt_packed {
            std::hint::black_box(gzip::decompress(p).unwrap());
        }
    });
    println!(
        "formatted (4 arrays, default): {fmt_in} -> {fmt_out} bytes, \
         compress {} ms, decompress {} ms",
        ms(fmt_c),
        ms(fmt_d)
    );

    let simd = ckpt_simd::dispatch::level().name();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"deflate_throughput\",");
    let _ = writeln!(json, "  \"dims\": [1156, 82, 2],");
    let _ = writeln!(json, "  \"input_bytes\": {},", raw.len());
    let _ = writeln!(json, "  \"runs\": {RUNS},");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"host\": {{\"cores\": {cores}, \"simd\": \"{simd}\", \"cpu_model\": \"{cpu_model}\"}},"
    );
    json.push_str("  \"levels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"level\": \"{}\", \"compress_ms\": {:.3}, \"compress_mb_s\": {:.1}, \
             \"decompress_ms\": {:.3}, \"decompress_mb_s\": {:.1}, \"compressed_bytes\": {}}}{}",
            r.name,
            r.compress_ms,
            r.compress_mb_s,
            r.decompress_ms,
            r.decompress_mb_s,
            r.compressed_bytes,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"checksums\": {{\"crc32_mb_s\": {:.1}, \"adler32_mb_s\": {:.1}}},",
        mb_s(raw.len(), crc_t),
        mb_s(raw.len(), adler_t)
    );
    let _ = writeln!(
        json,
        "  \"pipeline\": {{\"threads\": 1, \"compress_ms\": {:.3}, \"decompress_ms\": {:.3}, \
         \"compressed_bytes\": {}}},",
        pipe_c.as_secs_f64() * 1e3,
        pipe_d.as_secs_f64() * 1e3,
        packed.bytes.len()
    );
    let _ = writeln!(
        json,
        "  \"formatted\": {{\"arrays\": {}, \"level\": \"default\", \"input_bytes\": {fmt_in}, \
         \"compressed_bytes\": {fmt_out}, \"compress_ms\": {:.3}, \"decompress_ms\": {:.3}}}",
        formatted.len(),
        fmt_c.as_secs_f64() * 1e3,
        fmt_d.as_secs_f64() * 1e3
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("writing results file");
    println!();
    println!("wrote {out_path}");
}

/// Reduced-input CI gate: correctness roundtrip at every level plus a
/// conservative throughput floor at Level::Default.
fn smoke() {
    let raw = {
        let full = raw_bytes(&temperature_nicam());
        full[..SMOKE_BYTES.min(full.len())].to_vec()
    };
    for (level, name) in LEVELS {
        let packed = gzip::compress(&raw, level);
        let back = gzip::decompress(&packed).expect("smoke decompress");
        assert_eq!(back, raw, "smoke roundtrip at {name}");
    }
    // Best of 5: on a shared runner the slow runs measure the
    // neighbors, the fastest run measures the kernel.
    let best = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let _ = gzip::compress(&raw, Level::Default);
            start.elapsed()
        })
        .min()
        .expect("five runs");
    let rate = mb_s(raw.len(), best);
    println!(
        "deflate-perf-smoke: roundtrip ok at all levels; default compress {:.1} MB/s (floor {SMOKE_FLOOR_MB_S})",
        rate
    );
    assert!(
        rate >= SMOKE_FLOOR_MB_S,
        "compress throughput {rate:.1} MB/s below floor {SMOKE_FLOOR_MB_S} MB/s"
    );
    println!("PASS");
}
