//! Metric assembly and the two output lines.

use crate::host::{json_string, Host};
use crate::stats::{median, percentile, quartiles, relative_spread, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{Config, Report, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// One reported metric. `None` means the run produced no sample for it,
/// which fails the run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        value: value.filter(|v| v.is_finite()),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(rep: &Report, peak_rss_mib: Option<f64>) -> Vec<Metric> {
    vec![
        metric("save_ms.p50", "ms", median(&rep.save_ms)),
        metric("save_ms.p90", "ms", percentile(&rep.save_ms, 90.0)),
        metric("restore_ms.p50", "ms", median(&rep.restore_ms)),
        metric("restore_ms.p90", "ms", percentile(&rep.restore_ms, 90.0)),
        metric("resume_ms.p50", "ms", median(&rep.resume_ms)),
        metric("stored_ratio", "%", rep.stored_ratio()),
        metric("rel_error.avg", "%", rep.rel_error_avg()),
        metric("rel_error.max", "%", rep.rel_error_max()),
        metric("setup_s", "s", median(&rep.setup_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mib),
    ]
}

/// Element-wise `num / den` of two per-op series.
fn ratios(num: Vec<f64>, den: Vec<f64>) -> Vec<f64> {
    num.into_iter()
        .zip(den)
        .filter(|&(_, d)| d > 0.0)
        .map(|(n, d)| n / d)
        .collect()
}

/// The first non-empty series.
fn first(series: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    series
        .into_iter()
        .find(|s| !s.is_empty())
        .unwrap_or_default()
}

/// The per-layer metrics of a traced run: medians over the traced ops
/// of each layer's per-op total.
pub fn per_layer(rep: &Report, t: &Tracer) -> Vec<Metric> {
    let under = |name, root| t.per_op_ms_under(name, root);
    let m = |name, unit, series: Vec<f64>| metric(name, unit, median(&series));
    let diff = |a: &[f64], b: &[f64]| Some(median(a)? - median(b)?);
    vec![
        m("wavelet.fwd_ms", "ms", under("wavelet.fwd", "op.save")),
        m("quant.encode_ms", "ms", under("quant.encode", "op.save")),
        m("core.format_ms", "ms", under("core.format", "op.save")),
        m(
            "quant.coverage",
            "fraction",
            t.per_op_count("quant.coverage"),
        ),
        m(
            "deflate.compress_ms",
            "ms",
            under("deflate.compress", "op.save"),
        ),
        m(
            "deflate.ratio",
            "ratio",
            ratios(
                t.per_op_count("deflate.out_bytes"),
                t.per_op_count("deflate.in_bytes"),
            ),
        ),
        m("store.save_ms", "ms", t.per_op_self_ms("store.save")),
        m(
            "store.write_amp",
            "ratio",
            ratios(
                t.per_op_count("store.written_bytes"),
                t.per_op_count("store.payload_bytes"),
            ),
        ),
        m("store.gc_ms", "ms", t.per_op_ms("store.gc")),
        m(
            "store.read_ms",
            "ms",
            first([
                under("store.read", "op.restore"),
                under("store.read", "ref.oneshot"),
            ]),
        ),
        m(
            "deflate.inflate_ms",
            "ms",
            first([
                under("deflate.inflate", "op.restore"),
                under("deflate.inflate_oneshot", "ref.oneshot"),
            ]),
        ),
        m(
            "core.parse_inverse_ms",
            "ms",
            under("core.parse_inverse", "op.restore"),
        ),
        m(
            "serve.stream_ms",
            "ms",
            first([
                under("serve.stream", "op.restore"),
                under("serve.stream", "ref.stream"),
            ]),
        ),
        m("serve.tokens", "count", t.per_op_count("serve.tokens")),
        m(
            "serve.resume_redo_bytes",
            "bytes",
            t.per_op_count("serve.resume_redo_bytes"),
        ),
        m(
            "deflate.inflate_oneshot_ms",
            "ms",
            under("deflate.inflate_oneshot", "ref.oneshot"),
        ),
        metric(
            "trace.save_overhead_ms",
            "ms",
            diff(&rep.traced_save_ms, &rep.save_ms),
        ),
        metric(
            "trace.restore_overhead_ms",
            "ms",
            diff(&rep.traced_restore_ms, &rep.restore_ms),
        ),
        m("trace.save_uncovered_ms", "ms", t.per_op_self_ms("op.save")),
        m(
            "trace.restore_uncovered_ms",
            "ms",
            t.per_op_self_ms("op.restore"),
        ),
    ]
}

/// The last output line.
#[derive(Debug)]
pub struct Result {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Result {
    /// Correct when no op failed and every metric has a value.
    pub fn new(rep: &Report, metrics: Vec<Metric>) -> Result {
        let complete = metrics.iter().all(|m| m.value.is_some());
        Result {
            correct: rep.failed == 0 && rep.attempted > 0 && complete,
            attempted: rep.attempted.max(1),
            failed: rep.failed,
            metrics,
        }
    }

    pub fn exit_code(&self) -> i32 {
        if self.correct {
            0
        } else {
            1
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A missing value prints as 0 so the line stays valid JSON;
            // the run is already marked incorrect.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.unwrap_or(0.0),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The `info` line: what the result depends on and how many samples
/// each timing has.
pub fn info_json(
    cfg: &Config,
    host: &Host,
    rep: &Report,
    result: &Result,
    trace_file: Option<&Path>,
) -> String {
    let threads = cfg.workload.threads();
    let effective = host.effective_threads(threads);
    let tail = |n: usize| tail_percentile(n).map_or("null".to_string(), |p| p.to_string());
    // Within-run spread of the op timings: quartiles and IQR / median.
    let spread = |v: &[f64]| match (quartiles(v), relative_spread(v)) {
        (Some((q1, q3)), Some(s)) => {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            format!("{{\"q1\": {q1}, \"q3\": {q3}, \"iqr_over_median\": {s}, \"mean\": {mean}}}")
        }
        _ => "null".to_string(),
    };
    let missing: Vec<String> = result
        .metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| json_string(m.name))
        .collect();
    let failures: Vec<String> = rep.failures.iter().map(|f| json_string(f)).collect();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale_dims\": {:?}, \
         \"host\": {}, \"parallel_result\": {}, \"payload_crc32\": \"{:08x}\", \"error_rate\": {}, \
         \"samples\": {{\"setup\": {}, \"save\": {}, \"restore\": {}, \"resume\": {}, \"traced_save\": {}, \"traced_restore\": {}}}, \
         \"tail_percentile\": {{\"save\": {}, \"restore\": {}}}, \"spread\": {{\"save\": {}, \"restore\": {}, \"resume\": {}}}, \"missing\": [{}], \"failures\": [{}], \"trace_file\": {}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        match cfg.workload {
            Workload::RestartStream => &cfg.scale.deep_dims,
            _ => &cfg.scale.dims,
        },
        host.to_json(threads),
        match (cfg.workload, effective) {
            (Workload::CkptParallel, e) if e < 2 => "\"not a parallel result: fewer than 2 effective threads\"".to_string(),
            (_, e) => (e >= 2).to_string(),
        },
        rep.payload_crc,
        rep.error_rate(),
        rep.setup_s.len(),
        rep.save_ms.len(),
        rep.restore_ms.len(),
        rep.resume_ms.len(),
        rep.traced_save_ms.len(),
        rep.traced_restore_ms.len(),
        tail(rep.save_ms.len()),
        tail(rep.restore_ms.len()),
        spread(&rep.save_ms),
        spread(&rep.restore_ms),
        spread(&rep.resume_ms),
        missing.join(", "),
        failures.join(", "),
        trace_file.map_or("null".to_string(), |p| json_string(&p.display().to_string())),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            save_ms: vec![1.0, 2.0, 3.0],
            restore_ms: vec![1.0],
            resume_ms: vec![1.0],
            setup_s: vec![0.5],
            raw_bytes: 400,
            stored_bytes: 100,
            rel_error_avgs: vec![0.004, 0.006],
            rel_error_maxes: vec![0.02, 0.03],
            ..Report::default()
        }
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect_and_exit_nonzero() {
        let ok = Result::new(&report(10, 0), end_to_end(&report(10, 0), Some(100.0)));
        assert!(ok.correct);
        assert_eq!(ok.exit_code(), 0);
        let bad = Result::new(&report(10, 1), end_to_end(&report(10, 1), Some(100.0)));
        assert!(!bad.correct);
        assert_eq!(bad.exit_code(), 1);
        assert_eq!(report(10, 1).error_rate(), 0.1);
        assert!(bad
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1, "));
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let rep = Report {
            resume_ms: Vec::new(),
            ..report(10, 0)
        };
        let r = Result::new(&rep, end_to_end(&rep, Some(100.0)));
        assert!(!r.correct);
        assert!(r
            .to_json()
            .contains("\"resume_ms.p50\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn end_to_end_names_and_units() {
        let names: Vec<_> = end_to_end(&report(1, 0), Some(1.0))
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&("save_ms.p90", "ms")));
        assert!(names.contains(&("stored_ratio", "%")));
        assert!(names.contains(&("setup_s", "s")));
    }
}
