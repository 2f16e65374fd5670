//! The benchmark's workloads: each builds a [`Scenario`] from the seed
//! through the public `presto-lab` / `ScenarioBuilder` API, plus the
//! active-host set the traced run installs the controller for.

use presto_lab::{CcKind, EcnId, FaultId, PointSpec, ProbeId, TopoId, WorkloadId};
use presto_netsim::ThreeTierSpec;
use presto_simcore::SimDuration;
use presto_testbed::{stride_elephants, Scenario, SchemeSpec};
use presto_workloads::FlowSpec;

/// One benchmark workload, with why it is in the benchmark (the `why`
/// of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The headline point `presto/testbed16/stride:8`, 40 ms simulated.
    /// Why: the bulk per-packet path, 89% `Net` events, GRO and
    /// Algorithm 1's `assign` on every packet, negligible set-up.
    Stride8,
    /// `prequal` on `skew:8:32:1000:400:2`, the skew campaign's headline.
    /// Why: request-driven short flows under receiver skew; the probe
    /// layer is heavy through feedback, not per-packet assignment; it
    /// carries the deadline and FCT outcomes.
    SkewPrequal,
    /// 64 stride-256 elephants on an 8192-host three-tier fabric.
    /// Why: set-up (`Controller::install_for`) and memory dominate and
    /// the packet layers are light, so a set-up or memory win shows here
    /// and nowhere else.
    Fabric8k,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
const ALL: [Workload; 3] = [Workload::Stride8, Workload::SkewPrequal, Workload::Fabric8k];

/// The 8192-host fabric: 32 pods × 16 ToRs × 16 hosts, 16 aggs per pod.
fn fabric8k_spec() -> ThreeTierSpec {
    ThreeTierSpec {
        pods: 32,
        tors_per_pod: 16,
        hosts_per_tor: 16,
        aggs_per_pod: 16,
        ..ThreeTierSpec::default()
    }
}

/// Elephants on the 8192-host fabric and their stride (one pod).
const FABRIC8K_FLOWS: usize = 64;
const FABRIC8K_STRIDE: usize = 256;

/// Simulated length of the skew point. Long enough that one run is not
/// dominated by set-up, short enough that its ~8 × 90 measured mice keep
/// p90 the highest percentile with 10 samples beyond it.
const SKEW_DURATION_MS: u64 = 100;

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stride8 => "stride8",
            Workload::SkewPrequal => "skew_prequal",
            Workload::Fabric8k => "fabric8k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario with master seed `seed`. The traffic patterns are
    /// fixed: at this commit none of the three points draws on the seed
    /// (Presto and `prequal` make no random choices here), so every seed
    /// gives the same run, which keeps seed-to-seed spread out of the
    /// timings.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Stride8 => point("presto", WorkloadId::Stride(8), 40, seed).to_scenario(),
            Workload::SkewPrequal => point(
                "prequal",
                "skew:8:32:1000:400:2".parse().expect("valid skew workload"),
                SKEW_DURATION_MS,
                seed,
            )
            .to_scenario(),
            Workload::Fabric8k => Scenario::builder(SchemeSpec::presto(), seed)
                .three_tier(fabric8k_spec())
                .duration(SimDuration::from_millis(10))
                .warmup(SimDuration::from_millis(2))
                .elephants(fabric8k_flows())
                .name("perfbench/fabric8k")
                .build(),
        }
    }

    /// Hosts the controller installs state for, as `Controller::install_for`
    /// takes them: `None` when every server is active (both 16-host
    /// points — `prequal` may pick any server as a replica).
    pub fn active_hosts(self) -> Option<Vec<bool>> {
        match self {
            Workload::Stride8 | Workload::SkewPrequal => None,
            Workload::Fabric8k => {
                let mut active = vec![false; fabric8k_spec().host_count()];
                for f in fabric8k_flows() {
                    active[f.src] = true;
                    active[f.dst] = true;
                }
                Some(active)
            }
        }
    }

    /// `Report::digest` recorded when the benchmark was defined. It does
    /// not depend on the seed (none of the three points makes a random
    /// choice): seeds 1 to 32 gave one digest per workload. A run whose digest differs changed
    /// the model; a change that only claims speed keeps all three.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::Stride8 => 0x6a0e2d56a214c967,
            Workload::SkewPrequal => 0xe4ba62a51b70de14,
            Workload::Fabric8k => 0xa541e7e93c48f261,
        }
    }
}

/// A serial, fault-free, default-transport campaign point.
fn point(scheme: &str, workload: WorkloadId, duration_ms: u64, seed: u64) -> PointSpec {
    PointSpec {
        scheme: scheme.parse().expect("registered scheme"),
        topo: TopoId::Testbed16,
        workload,
        fault: FaultId::None,
        cc: CcKind::default(),
        ecn: EcnId::Off,
        probe: ProbeId::Default,
        flowcell_kb: 64,
        seed,
        shards: 1,
        duration: SimDuration::from_millis(duration_ms),
        warmup: SimDuration::from_millis(10),
        traced: false,
    }
}

/// The 8192-host fabric's elephants: host `i` sends to host `i + 256`
/// (one pod further on) for the first 64 hosts, the `BENCH_shard.md`
/// large-scale check. The pattern is fixed rather than drawn from the
/// seed: on this fabric, re-pairing the same 64 sources and sinks moves
/// the event count by ±25% and goodput by 3×, which would bury any
/// host-speed change under seed-to-seed spread.
fn fabric8k_flows() -> Vec<FlowSpec> {
    let mut flows = stride_elephants(fabric8k_spec().host_count(), FABRIC8K_STRIDE);
    flows.truncate(FABRIC8K_FLOWS);
    flows
}
