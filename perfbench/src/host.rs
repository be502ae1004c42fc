//! The host fingerprint recorded with every result.

use std::fmt::Write as _;

/// What a result depends on besides the code: cores, SIMD tier, CPU.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs listed in `/proc/cpuinfo` (0 when unreadable).
    pub cores: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The SIMD tier the kernels dispatch to.
    pub simd: &'static str,
    pub cpu_model: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cores = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        Host {
            cores,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: ckpt_simd::dispatch::level().name(),
            cpu_model,
        }
    }

    /// Worker threads a request for `threads` actually gets.
    pub fn effective_threads(&self, threads: usize) -> usize {
        threads.min(self.available_parallelism).max(1)
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self, threads: usize) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"cores\":{},\"available_parallelism\":{},\"requested_threads\":{threads},\"effective_threads\":{},\"simd\":\"{}\",\"cpu_model\":{}}}",
            self.cores,
            self.available_parallelism,
            self.effective_threads(threads),
            self.simd,
            json_string(&self.cpu_model),
        );
        s
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn effective_threads_clamps_to_the_host() {
        let h = Host {
            cores: 2,
            available_parallelism: 1,
            simd: "scalar",
            cpu_model: "x".into(),
        };
        assert_eq!(h.effective_threads(2), 1);
        assert_eq!(h.effective_threads(0), 1);
        let h = Host {
            available_parallelism: 4,
            ..h
        };
        assert_eq!(h.effective_threads(2), 2);
        assert!(h.to_json(2).contains("\"effective_threads\":2"));
    }
}
