//! Metric arithmetic: medians, the FCT percentile rule, the per-layer
//! ratios and remainders, and the result line.

use presto_telemetry::TelemetryReport;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name` with `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What is left of `total` after the parts timed inside it.
pub fn remainder(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Largest over smallest per-path flowcell count, over the paths that
/// exist (a zero count on an existing path makes the spread the largest
/// count). 1 means perfectly even; 0 means nothing was sprayed.
pub fn spray_imbalance(counts: &[u64]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 0.0;
    }
    let min = counts.iter().copied().min().unwrap_or(0);
    max as f64 / min.max(1) as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `p·n/100` that should be whole (90 % of 100) from
/// rounding up a rank through floating-point error.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentiles a tail latency is reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] that `n` samples support with at
/// least ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// The deterministic per-layer counters of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// `Net` events scheduled (links and switches).
    pub net_events: u64,
    /// Packets transmitted over all links.
    pub link_tx_packets: u64,
    /// Packets dropped in the fabric (queue, admission, no route).
    pub drops: u64,
    /// Peak pending events in the simulator queue.
    pub queue_high_water: u64,
    /// `EgressDrain` events scheduled.
    pub egress_drain_events: u64,
    /// Segments staged by the host egress schedulers.
    pub egress_staged: u64,
    /// `NicPoll` events scheduled.
    pub nic_polls: u64,
    /// GRO pushes split as in Fig 5.
    pub flush_loss: u64,
    /// GRO pushes caused by flowcell-boundary reordering.
    pub flush_reordering: u64,
    /// All other GRO pushes.
    pub flush_other: u64,
    /// `Rto` events scheduled.
    pub rto_events: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Largest over smallest per-path flowcell count.
    pub spray_imbalance: f64,
    /// Estimated probe wire bytes.
    pub probe_wire_bytes: u64,
}

impl LayerCounts {
    /// Read the counters out of a telemetry report.
    pub fn from_report(tel: &TelemetryReport) -> LayerCounts {
        let counter = |prefix: &str, name: &str| -> u64 {
            tel.counters
                .iter()
                .filter(|c| c.component.starts_with(prefix) && c.name == name)
                .map(|c| c.value)
                .sum()
        };
        let events = |name: &str| -> u64 {
            tel.event_queue
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.count)
                .sum()
        };
        let split = tel.flush_split();
        LayerCounts {
            net_events: events("Net"),
            link_tx_packets: counter("link", "tx_packets"),
            drops: counter("link", "dropped_packets") + counter("switch", "no_route_drops"),
            queue_high_water: tel.queue_high_water,
            egress_drain_events: events("EgressDrain"),
            egress_staged: counter("host", "egress_staged"),
            nic_polls: events("NicPoll"),
            flush_loss: split.loss,
            flush_reordering: split.reordering,
            flush_other: split.other,
            rto_events: events("Rto"),
            timeouts: counter("tcp", "timeouts"),
            retransmissions: counter("tcp", "retransmissions"),
            spray_imbalance: spray_imbalance(&tel.spray_counts),
            probe_wire_bytes: counter("probe", "probe_wire_bytes"),
        }
    }

    /// Fabric events per packet transmitted on a link.
    pub fn events_per_hop(&self) -> f64 {
        ratio(self.net_events as f64, self.link_tx_packets as f64)
    }

    /// Egress-drain wakeups per segment staged: above 1, most wakeups
    /// found nothing to move.
    pub fn drains_per_staged(&self) -> f64 {
        ratio(self.egress_drain_events as f64, self.egress_staged as f64)
    }

    /// Retransmission timers that fired, per timer event.
    pub fn rto_useful_ratio(&self) -> f64 {
        ratio(self.timeouts as f64, self.rto_events as f64)
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Every digit of `v` (Rust's shortest round-trip form); JSON has no
/// NaN or infinity, so those print as 0 and fail the run elsewhere.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
