//! Shared result plumbing: latency samples and their percentiles, the
//! output check's tallies, process memory readings, provenance, and the
//! JSON lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest samples a reported percentile must keep beyond it.
const MIN_BEYOND: usize = 10;

/// Wall-clock samples of one operation class, in the unit they are
/// reported in.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile `p` (0 < p < 1). A percentile that keeps
    /// fewer than ten samples beyond it is an error, never a number.
    pub fn percentile(&self, p: f64, what: &str) -> Result<f64, String> {
        let n = self.0.len();
        let rank = ((p * n as f64).ceil() as usize).max(1);
        if n < rank + MIN_BEYOND {
            return Err(format!(
                "{what}: p{} over {n} samples keeps {} beyond it (needs {MIN_BEYOND})",
                p * 100.0,
                n.saturating_sub(rank)
            ));
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(sorted[rank - 1])
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list with a sample-count side table for the report.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub samples: BTreeMap<String, usize>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Reports `base.p50` and `base.<hi>` of `s`, recording the count.
    pub fn percentiles(
        &mut self,
        base: &str,
        s: &Samples,
        unit: &'static str,
        hi: f64,
    ) -> Result<(), String> {
        let hi_name = format!("{base}.p{}", (hi * 100.0).round());
        for (name, p) in [(format!("{base}.p50"), 0.5), (hi_name, hi)] {
            let v = s.percentile(p, &name)?;
            self.put(&name, v, unit);
            self.samples.insert(name, s.len());
        }
        Ok(())
    }
}

/// The output check: operations attempted, operations failed, and a tally
/// of why. Window-level failures (drops, install retries) that no single
/// operation owns count as one failed operation each.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    failed: u64,
    why: BTreeMap<&'static str, u64>,
    op_failed: bool,
}

impl Checks {
    /// Starts checking one operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.op_failed = false;
    }

    /// Records that the current operation failed for `why`.
    pub fn fail(&mut self, why: &'static str) {
        *self.why.entry(why).or_insert(0) += 1;
        if !self.op_failed {
            self.op_failed = true;
            self.failed += 1;
        }
    }

    /// Records `n` failures that belong to no single operation.
    pub fn fail_window(&mut self, why: &'static str, n: u64) {
        if n > 0 {
            *self.why.entry(why).or_insert(0) += n;
            self.failed += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn reasons_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.why.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        s.push('}');
        s
    }
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size now, in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0) * 1024.0
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout was made from, read from `.git` without
/// spawning git; checkouts that are not repositories report `unknown`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

pub fn json_str(s: &str) -> String {
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

/// Formats a metric value with every digit it was measured with.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Workload-specific provenance: fabric sizes, op counts, mix shares
    /// (a JSON object body without braces).
    pub context: String,
}

/// Renders the provenance-and-detail line printed before the result.
pub fn detail_line(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut samples = String::new();
    for (i, (k, v)) in out.metrics.samples.iter().enumerate() {
        let _ = write!(
            samples,
            "{}{}: {v}",
            if i > 0 { ", " } else { "" },
            json_str(k)
        );
    }
    format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"git_rev\": {}, {}, \"samples\": {{{samples}}}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": {}}}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(&git_rev()),
        out.context,
        out.checks.attempted,
        out.checks.failed(),
        out.checks.reasons_json(),
    )
}

/// Renders the final result line of the benchmark contract.
pub fn result_line(out: &Outcome) -> String {
    let mut m = String::new();
    for (i, metric) in out.metrics.list.iter().enumerate() {
        let _ = write!(
            m,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(&metric.name),
            num(metric.value),
            json_str(metric.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.checks.failed() == 0,
        out.checks.attempted,
        out.checks.failed()
    )
}
