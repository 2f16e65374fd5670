//! Canonical scenario serialization and content-addressed fingerprints.
//!
//! The campaign layer (`presto-lab`) caches completed runs by the *content*
//! of their configuration: two grid points that expand to behaviourally
//! identical scenarios must map to the same store key, and any change that
//! could alter the [`Report`](crate::Report) must change it. This module
//! provides that key:
//!
//! * [`Scenario::canonical`] — a stable, human-readable text rendering of
//!   every behaviour-affecting field. Floats are rendered by their IEEE-754
//!   bit patterns, options and lists carry explicit lengths, and fields are
//!   emitted in a fixed order, so the text is byte-for-byte reproducible
//!   across platforms and compiler versions.
//! * [`Scenario::fingerprint`] — a 128-bit FNV-1a hash of the canonical
//!   text, rendered as 32 lowercase hex characters.
//!
//! Two fields are deliberately **excluded**: the run label (`name`), which
//! is presentation only, and the telemetry configuration, which by the
//! telemetry layer's contract never changes simulation behaviour or the
//! report digest (see `tests/telemetry_determinism.rs`). A cached row is
//! therefore shared between traced and untraced executions of the same
//! configuration.
//!
//! The format carries a `v=` schema version; bump it whenever the meaning
//! of an existing field changes so stale store rows can never be mistaken
//! for current ones.

use std::fmt::Write as _;

use presto_faults::{FaultKind, Notify};
use presto_netsim::EcmpMode;
use presto_simcore::SimDuration;

use crate::scenario::Scenario;
use crate::scheme::{GroKind, SchemeSpec};

/// Canonical-format schema version. Bump on any semantic change to the
/// rendering below.
pub const CANON_VERSION: u32 = 1;

/// Incremental 128-bit FNV-1a — wide enough that a campaign store will
/// never see an accidental collision, cheap enough to run on every grid
/// point.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    /// A hasher at the FNV-128 offset basis.
    pub fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// Fold a byte slice into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u128).wrapping_mul(Self::PRIME);
        }
    }

    /// Final hash value.
    pub fn finish(self) -> u128 {
        self.0
    }

    /// Final hash as 32 lowercase hex characters.
    pub fn finish_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for the canonical text: one `key=value` pair per line, emitted
/// in a fixed order by the caller.
struct Canon {
    out: String,
}

impl Canon {
    fn new() -> Self {
        let mut c = Canon { out: String::new() };
        c.field("v", CANON_VERSION);
        c
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{key}={value}");
    }

    /// Floats enter by bit pattern: `Display` for `f64` is already
    /// deterministic in Rust, but bits make the invariant self-evident.
    fn f64(&mut self, key: &str, value: f64) {
        self.field(key, format_args!("{:016x}", value.to_bits()));
    }

    fn dur(&mut self, key: &str, d: SimDuration) {
        self.field(key, d.as_nanos());
    }

    fn opt_dur(&mut self, key: &str, d: Option<SimDuration>) {
        match d {
            Some(d) => self.dur(key, d),
            None => self.field(key, "-"),
        }
    }
}

fn notify_str(n: Notify) -> String {
    match n {
        Notify::Immediate => "imm".into(),
        Notify::After(d) => format!("after:{}", d.as_nanos()),
        Notify::Never => "never".into(),
    }
}

fn fault_kind_str(k: FaultKind) -> String {
    match k {
        FaultKind::LinkDown { leaf, spine, link } => format!("down:{leaf}:{spine}:{link}"),
        FaultKind::LinkUp { leaf, spine, link } => format!("up:{leaf}:{spine}:{link}"),
        FaultKind::LinkDegrade {
            leaf,
            spine,
            link,
            fraction,
        } => format!("degrade:{leaf}:{spine}:{link}:{:016x}", fraction.to_bits()),
        FaultKind::LinkRestore { leaf, spine, link } => format!("restore:{leaf}:{spine}:{link}"),
        FaultKind::SwitchDown { tier, index } => format!("swdown:{tier}:{index}"),
        FaultKind::SwitchUp { tier, index } => format!("swup:{tier}:{index}"),
    }
}

fn emit_scheme(c: &mut Canon, s: &SchemeSpec) {
    c.field("scheme.name", s.name);
    // `PolicyKind::name` owns the canonical policy text (pinned by
    // the `policy_names_are_pinned` test in `scheme.rs`).
    c.field("scheme.policy", s.policy.name());
    let gro = match s.gro {
        GroKind::Official => "official".into(),
        GroKind::Presto => "presto".into(),
        GroKind::PrestoFixedTimeout(d) => format!("presto-fixed:{}", d.as_nanos()),
    };
    c.field("scheme.gro", gro);
    // `TransportKind::name` owns the canonical transport text (pinned
    // by `transport_name_parse_round_trips` in `scheme.rs`).
    c.field("scheme.transport", s.transport.name());
    c.field(
        "scheme.ecmp_mode",
        match s.ecmp_mode {
            EcmpMode::FlowHash => "flow",
            EcmpMode::FlowcellHash => "flowcell",
        },
    );
    c.field("scheme.single_switch", s.single_switch);
    c.field("scheme.max_tso", s.max_tso);
    c.field("scheme.flowcell_bytes", s.flowcell_bytes);
    // Transport axis: emitted only when off-default so every pre-ECN
    // fingerprint (and the store rows keyed by them) stays valid.
    if s.cc != presto_transport::CcKind::Cubic {
        c.field("scheme.cc", s.cc.name());
    }
    if let Some(k) = s.ecn {
        c.field("scheme.ecn", k);
    }
}

/// Render just the scheme block of the canonical format (including the
/// `v=` schema line) — what `lab schemes` prints per registry entry.
/// Probe knobs, flowlet gaps and the rest of a policy's parameters show
/// up here through the pinned `scheme.policy` text.
pub fn scheme_canon(s: &SchemeSpec) -> String {
    let mut c = Canon::new();
    emit_scheme(&mut c, s);
    c.out
}

impl Scenario {
    /// Render every behaviour-affecting field as stable canonical text.
    ///
    /// See the module docs for the format contract (fixed field order,
    /// bit-pattern floats, explicit list lengths, excluded fields).
    pub fn canonical(&self) -> String {
        let mut c = Canon::new();

        // Scheme.
        emit_scheme(&mut c, self.scheme());

        // Topology.
        let clos = self.clos();
        c.field("clos.spines", clos.spines);
        c.field("clos.leaves", clos.leaves);
        c.field("clos.hosts_per_leaf", clos.hosts_per_leaf);
        c.field("clos.links_per_pair", clos.links_per_pair);
        c.field("clos.link_rate_bps", clos.link_rate_bps);
        c.dur("clos.propagation", clos.propagation);
        c.field("clos.queue_bytes", clos.queue_bytes);
        match clos.shared_buffer {
            Some((pool, alpha)) => {
                c.field("clos.shared.pool", pool);
                c.f64("clos.shared.alpha", alpha);
            }
            None => c.field("clos.shared", "-"),
        }
        match self.three_tier() {
            Some(tt) => {
                c.field("tt.pods", tt.pods);
                c.field("tt.tors_per_pod", tt.tors_per_pod);
                c.field("tt.hosts_per_tor", tt.hosts_per_tor);
                c.field("tt.aggs_per_pod", tt.aggs_per_pod);
                c.field("tt.links_per_pair", tt.links_per_pair);
                c.field("tt.cores_per_group", tt.cores_per_group);
                c.field("tt.link_rate_bps", tt.link_rate_bps);
                c.dur("tt.propagation", tt.propagation);
                c.field("tt.queue_bytes", tt.queue_bytes);
                match tt.shared_buffer {
                    Some((pool, alpha)) => {
                        c.field("tt.shared.pool", pool);
                        c.f64("tt.shared.alpha", alpha);
                    }
                    None => c.field("tt.shared", "-"),
                }
            }
            None => c.field("tt", "-"),
        }

        // Seed and measurement windows.
        c.field("seed", self.seed());
        c.dur("duration", self.duration());
        c.dur("warmup", self.warmup());

        // Workload.
        c.field("flows.len", self.flows().len());
        for f in self.flows() {
            let bytes = match f.bytes {
                Some(b) => b.to_string(),
                None => "-".into(),
            };
            c.field(
                "flow",
                format_args!(
                    "{}:{}:{}:{}:{}",
                    f.src,
                    f.dst,
                    f.start.as_nanos(),
                    bytes,
                    f.measure_fct
                ),
            );
        }
        c.field("mice.len", self.mice().len());
        for m in self.mice() {
            c.field(
                "mouse",
                format_args!("{}:{}:{}:{}", m.src, m.dst, m.bytes, m.interval.as_nanos()),
            );
        }
        c.field("probes.len", self.probes().len());
        for &(a, b) in self.probes() {
            c.field("probe", format_args!("{a}:{b}"));
        }
        c.dur("probe_interval", self.probe_interval());
        match self.shuffle() {
            Some(sh) => c.field("shuffle", format_args!("{}:{}", sh.bytes, sh.concurrency)),
            None => c.field("shuffle", "-"),
        }
        // New workload generators: emitted only when present, so pre-ECN
        // fingerprints are untouched.
        if let Some(inc) = self.incast() {
            c.field(
                "incast",
                format_args!(
                    "{}:{}:{}:{}:{}",
                    inc.aggregator,
                    inc.fanout,
                    inc.bytes_per_worker,
                    inc.interval.as_nanos(),
                    inc.deadline.as_nanos()
                ),
            );
        }
        if let Some(ar) = self.allreduce() {
            c.field(
                "allreduce",
                format_args!("{}:{}", ar.participants, ar.bytes),
            );
        }

        // Fault timeline (plan form: explicit events plus flap processes;
        // expansion happens at build time from the seed, which is already
        // folded in above).
        let faults = self.faults();
        c.field("faults.events.len", faults.events.len());
        for ev in &faults.events {
            c.field(
                "fault",
                format_args!(
                    "{}:{}:{}",
                    ev.at.as_nanos(),
                    fault_kind_str(ev.kind),
                    notify_str(ev.notify)
                ),
            );
        }
        c.field("faults.flaps.len", faults.flaps.len());
        for p in &faults.flaps {
            c.field(
                "flap",
                format_args!(
                    "{}:{}:{}:{}:{}:{}:{}:{}:{}",
                    p.leaf,
                    p.spine,
                    p.link,
                    p.start.as_nanos(),
                    p.end.as_nanos(),
                    p.mean_up.as_nanos(),
                    p.mean_down.as_nanos(),
                    notify_str(p.notify),
                    p.stream
                ),
            );
        }

        // Remaining knobs.
        c.field("wan_remotes", self.wan_remotes());
        c.field("collect_reorder", self.collect_reorder());
        c.opt_dur("cpu_sample", self.cpu_sample());
        c.field("host_uplink_queue", self.host_uplink_queue());
        c.field("tx_batch", self.tx_batch());

        c.out
    }

    /// 128-bit content address of this scenario: the FNV-1a hash of
    /// [`Scenario::canonical`], as 32 lowercase hex characters. Equal
    /// fingerprints ⇒ behaviourally identical runs (same
    /// [`Report::digest`](crate::Report::digest)); any change to a
    /// behaviour-affecting field changes the fingerprint.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv128::new();
        h.update(self.canonical().as_bytes());
        h.finish_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::stride_elephants;
    use crate::scheme::SchemeSpec;
    use presto_faults::FaultPlan;
    use presto_simcore::SimTime;

    #[test]
    fn fingerprint_is_stable_for_equal_configs() {
        let a = Scenario::builder(SchemeSpec::presto(), 7)
            .elephants(stride_elephants(16, 8))
            .build();
        let b = Scenario::builder(SchemeSpec::presto(), 7)
            .elephants(stride_elephants(16, 8))
            .build();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 32);
    }

    #[test]
    fn fingerprint_ignores_label_only_fields() {
        let a = Scenario::builder(SchemeSpec::presto(), 7).build();
        let b = Scenario::builder(SchemeSpec::presto(), 7)
            .name("other")
            .build();
        assert_eq!(a.fingerprint(), b.fingerprint(), "run label is cosmetic");
        let traced = Scenario::builder(SchemeSpec::presto(), 7)
            .telemetry(presto_telemetry::TelemetryConfig::default())
            .build();
        assert_eq!(
            a.fingerprint(),
            traced.fingerprint(),
            "telemetry never changes behaviour, so it must share the cache key"
        );
        let zero_batch = Scenario::builder(SchemeSpec::presto(), 7)
            .tx_batch(0)
            .build();
        assert_eq!(
            a.fingerprint(),
            zero_batch.fingerprint(),
            "the fabric runs tx_batch 0 as 1, so the two must share the cache key"
        );
    }

    #[test]
    fn fingerprint_sees_every_behavioural_axis() {
        let base = Scenario::builder(SchemeSpec::presto(), 7)
            .elephants(stride_elephants(16, 8))
            .build();
        let variants = [
            Scenario::builder(SchemeSpec::ecmp(), 7)
                .elephants(stride_elephants(16, 8))
                .build(),
            Scenario::builder(SchemeSpec::presto(), 8)
                .elephants(stride_elephants(16, 8))
                .build(),
            Scenario::builder(SchemeSpec::presto(), 7)
                .elephants(stride_elephants(16, 4))
                .build(),
            Scenario::builder(SchemeSpec::presto(), 7)
                .elephants(stride_elephants(16, 8))
                .duration(presto_simcore::SimDuration::from_millis(100))
                .build(),
            Scenario::builder(SchemeSpec::presto(), 7)
                .elephants(stride_elephants(16, 8))
                .faults(FaultPlan::new().link_down(
                    SimTime::from_millis(5),
                    0,
                    1,
                    0,
                    Notify::Immediate,
                ))
                .build(),
            Scenario::builder(SchemeSpec::presto(), 7)
                .elephants(stride_elephants(16, 8))
                .tx_batch(8)
                .build(),
        ];
        let fp = base.fingerprint();
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fp, v.fingerprint(), "variant {i} must change the key");
        }
    }

    #[test]
    fn transport_axis_defaults_are_not_emitted() {
        // cc=cubic / ecn off must render identically to the pre-ECN
        // format: every stored fingerprint depends on it.
        let plain = Scenario::builder(SchemeSpec::presto(), 7).build();
        let canon = plain.canonical();
        assert!(!canon.contains("scheme.cc"), "{canon}");
        assert!(!canon.contains("scheme.ecn"), "{canon}");
        assert!(!canon.contains("incast"), "{canon}");
        assert!(!canon.contains("allreduce"), "{canon}");

        let dctcp = Scenario::builder(
            SchemeSpec::presto()
                .with_cc(presto_transport::CcKind::Dctcp)
                .with_ecn(Some(crate::scheme::DEFAULT_ECN_THRESHOLD)),
            7,
        )
        .build();
        assert!(dctcp.canonical().contains("scheme.cc=dctcp"));
        assert!(dctcp.canonical().contains("scheme.ecn=99970"));
        assert_ne!(plain.fingerprint(), dctcp.fingerprint());

        // cc and ecn are independent axes of the key.
        let ecn_only = Scenario::builder(
            SchemeSpec::presto().with_ecn(Some(crate::scheme::DEFAULT_ECN_THRESHOLD)),
            7,
        )
        .build();
        assert_ne!(dctcp.fingerprint(), ecn_only.fingerprint());
        assert_ne!(plain.fingerprint(), ecn_only.fingerprint());
    }

    #[test]
    fn incast_and_allreduce_change_the_key() {
        use crate::scenario::{AllreduceSpec, IncastSpec};
        use presto_simcore::SimDuration;
        let base = Scenario::builder(SchemeSpec::presto(), 7).build();
        let incast = Scenario::builder(SchemeSpec::presto(), 7)
            .incast(IncastSpec {
                aggregator: 0,
                fanout: 8,
                bytes_per_worker: 20_000,
                interval: SimDuration::from_millis(2),
                deadline: SimDuration::from_millis(10),
            })
            .build();
        assert!(incast.canonical().contains("incast=0:8:20000:"));
        assert_ne!(base.fingerprint(), incast.fingerprint());
        let ar = Scenario::builder(SchemeSpec::presto(), 7)
            .allreduce(AllreduceSpec {
                participants: 8,
                bytes: 1_000_000,
            })
            .build();
        assert!(ar.canonical().contains("allreduce=8:1000000"));
        assert_ne!(base.fingerprint(), ar.fingerprint());
        assert_ne!(incast.fingerprint(), ar.fingerprint());
    }

    #[test]
    fn probe_params_flow_into_the_key() {
        use crate::scheme::PolicyKind;
        let base = Scenario::builder(SchemeSpec::prequal(), 7).build();
        assert!(base
            .canonical()
            .contains("scheme.policy=prequal:100000:32:1000000"));
        let faster = Scenario::builder(
            SchemeSpec::prequal().with_policy(PolicyKind::Prequal(presto_probe::ProbeParams {
                every: presto_simcore::SimDuration::from_micros(50),
                pool: 32,
                staleness: presto_simcore::SimDuration::from_millis(1),
            })),
            7,
        )
        .build();
        assert_ne!(
            base.fingerprint(),
            faster.fingerprint(),
            "probe cadence is a behavioural axis"
        );
    }

    #[test]
    fn scheme_canon_renders_the_scheme_block() {
        let text = scheme_canon(&SchemeSpec::presto());
        assert!(text.starts_with("v=1\n"), "{text}");
        assert!(text.contains("scheme.policy=presto"), "{text}");
        assert!(text.contains("scheme.gro=presto"), "{text}");
        // Exactly the scheme block: no topology or workload fields.
        assert!(!text.contains("clos."), "{text}");
        assert!(!text.contains("seed"), "{text}");
        // And it matches the prefix of the full canonical text.
        let full = Scenario::builder(SchemeSpec::presto(), 7)
            .build()
            .canonical();
        assert!(full.starts_with(&text), "scheme block must be a prefix");
    }

    #[test]
    fn fnv128_distinguishes_padding() {
        let mut a = Fnv128::new();
        a.update(b"ab");
        let mut b = Fnv128::new();
        b.update(b"a");
        b.update(b"b");
        assert_eq!(a.finish(), b.finish(), "incremental == one-shot");
        let mut c = Fnv128::new();
        c.update(b"ba");
        assert_ne!(a.finish(), c.finish());
    }
}
