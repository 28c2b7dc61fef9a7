//! Timing spans, percentiles, the metric catalogue and the printed
//! result shared by every workload.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed from outside by the traced run, each named after the
/// public function it calls. Each one reports `.calls`, `.busy_s`,
/// `.share` and `.allocs`.
pub const LAYERS: &[&str] = &[
    "graph.barabasi_albert",
    "state.new",
    "cluster.add_spec",
    "attack.next_event",
    "scenario.apply",
    "state.delete_node_into",
    "dash.heal_into",
    "state.propagate_min_id_uniform",
    "proto.parse_request",
    "cluster.submit",
    "cluster.tick",
    "snapshot.capture",
    "snapshot.read",
];

/// Per-layer metrics other than the four a timed layer reports.
pub const LAYER_EXTRAS: &[(&str, &str)] = &[
    ("event_p50_us", "us"),
    ("event_p99_us", "us"),
    ("cluster.tick.p50_ms", "ms"),
    ("cluster.tick.p99_ms", "ms"),
    ("cluster.tick.events_per_tick", "count"),
    ("cluster.tick.residual_s", "s"),
    ("snapshot.read.light_p50_us", "us"),
    ("snapshot.read.light_p99_us", "us"),
    ("snapshot.read.heavy_p50_us", "us"),
    ("snapshot.read.heavy_p99_us", "us"),
    ("snapshot.read.epoch_lag", "epochs"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_heavy_p50_us", "us"),
    ("query_heavy_p99_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.queries", "count"),
    ("scenario.events", "count"),
    ("scenario.victims", "count"),
    ("rt.members", "count"),
    ("dash.edges_added", "count"),
    ("state.broadcast.messages", "count"),
    ("state.broadcast.latency_sum", "count"),
    ("scenario.noop_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.traced_events_per_s", "1/s"),
    ("trace.untraced_events_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("unattributed_share", "ratio"),
];

/// Every per-layer metric, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.busy_s"), "s"));
        out.push((format!("{layer}.share"), "ratio"));
        out.push((format!("{layer}.allocs"), "allocs/call"));
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Calls into one layer: how many, how long, how many allocations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub calls: u64,
    pub busy: Duration,
    pub allocs: u64,
}

impl Layer {
    /// Run `f` as one call into this layer.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::thread_count();
        let t0 = Instant::now();
        let r = f();
        self.busy += t0.elapsed();
        self.allocs += alloc::thread_count() - a0;
        self.calls += 1;
        r
    }

    /// The same calls made `k` times over.
    pub fn scaled(self, k: u32) -> Layer {
        Layer {
            calls: self.calls * u64::from(k),
            busy: self.busy * k,
            allocs: self.allocs * u64::from(k),
        }
    }
}

/// Nearest-rank percentile `p` (0..=1) of `samples`, sorting them first.
/// 0 for no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Figures of the laps of a measured phase. Every lap does the same
/// work from a fresh set-up, and interference from other tenants of a
/// shared host can only slow a lap down, so the run reports each figure
/// of its best lap: the highest rate, the lowest latency percentiles.
#[derive(Debug, Default)]
pub struct Laps {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl Laps {
    /// One lap: `events` done in `wall`, with their latencies in ns.
    pub fn push(&mut self, events: u64, wall: Duration, latencies: &mut [u64]) {
        self.rates
            .push(events as f64 / wall.as_secs_f64().max(1e-9));
        self.p50.push(percentile(latencies, 0.50) as f64);
        self.p99.push(percentile(latencies, 0.99) as f64);
        self.samples = self.samples.max(latencies.len());
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Each lap's events per second, in lap order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Latency samples in one lap.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Best lap's events per second.
    pub fn rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Best lap's latency median, in ns.
    pub fn p50(&self) -> f64 {
        self.p50.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Best lap's latency 99th percentile, in ns.
    pub fn p99(&self) -> f64 {
        self.p99.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Median of a list of durations in seconds.
pub fn median_s(samples: &[Duration]) -> f64 {
    let mut ns: Vec<u64> = samples.iter().map(|d| d.as_nanos() as u64).collect();
    percentile(&mut ns, 0.5) as f64 / 1e9
}

/// Peak resident set size in MB (`VmHWM`), 0 where not exposed.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Each lap's events per second.
    pub lap_rates: Vec<f64>,
    /// Failed correctness checks; any one makes the run incorrect.
    pub errors: Vec<String>,
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, u64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A percentile metric, with the sample count behind it.
    pub fn set_pct(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples as u64);
    }

    /// Set every metric of `catalogue` not measured to 0.
    pub fn fill_missing(&mut self, catalogue: &[(String, &str)]) {
        for (name, _) in catalogue {
            self.values.entry(name.clone()).or_insert(0.0);
        }
    }

    /// Record a correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The four metrics of a timed layer; `.share` is of `wall`.
    pub fn layer(&mut self, name: &str, layer: Layer, wall: Duration) {
        let calls = layer.calls.max(1) as f64;
        self.set(&format!("{name}.calls"), layer.calls as f64);
        self.set(&format!("{name}.busy_s"), layer.busy.as_secs_f64());
        self.set(
            &format!("{name}.share"),
            layer.busy.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        );
        self.set(&format!("{name}.allocs"), layer.allocs as f64 / calls);
    }

    /// The run's result as printed: a detail line (seed, host, sample
    /// counts, failed checks), then the one-line result whose metrics
    /// are exactly `catalogue`. Also says whether the run is correct.
    pub fn render(&self, head: &RunInfo, catalogue: &[(String, &str)]) -> (String, bool) {
        let mut missing = Vec::new();
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    missing.push(format!("{name} is not finite"));
                    0.0
                }
                None => {
                    missing.push(format!("{name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        let errors: Vec<&String> = self.errors.iter().chain(&missing).collect();
        let mut detail = String::new();
        let _ = write!(
            detail,
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
             \"host\": {{\"nproc\": {}, \"cpu\": {}}}, \"lap_rates\": {:?}, \"samples\": {{",
            json_str(head.workload),
            head.seed,
            head.seconds,
            u8::from(head.trace),
            json_str(head.scale),
            head.nproc,
            json_str(&head.cpu),
            self.lap_rates,
        );
        for (i, (name, n)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(detail, "{sep}{}: {n}", json_str(name));
        }
        detail.push_str("}, \"failed_checks\": [");
        for (i, e) in errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(detail, "{sep}{}", json_str(e));
        }
        detail.push_str("]}");
        let correct = errors.is_empty();
        let text = format!(
            "{detail}\n{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed,
        );
        (text, correct)
    }
}

/// What every printed result carries besides its metrics.
pub struct RunInfo {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: &'static str,
    pub nproc: usize,
    pub cpu: String,
}

impl RunInfo {
    pub fn host_cpu() -> String {
        std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    }
}

fn json_str(s: &str) -> String {
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
