//! The timing wrappers must be transparent: a run through them gives the
//! same `Report::digest` as a plain run, and every query a host answers
//! reads the same through them. A method the wrappers forget to forward
//! falls back to the trait default and shows up here.

use perfbench::timing::instrument;
use presto_lab::{CcKind, EcnId, FaultId, PointSpec, ProbeId, TopoId};
use presto_netsim::HostId;
use presto_simcore::{SimDuration, SimTime};
use presto_testbed::{Scenario, Simulation, TelemetryConfig};

/// A 15 ms testbed16 point.
fn short(scheme: &str, workload: &str, fault: FaultId) -> Scenario {
    PointSpec {
        scheme: scheme.parse().unwrap(),
        topo: TopoId::Testbed16,
        workload: workload.parse().unwrap(),
        fault,
        cc: CcKind::default(),
        ecn: EcnId::Off,
        probe: ProbeId::Default,
        flowcell_kb: 64,
        seed: 3,
        shards: 1,
        duration: SimDuration::from_millis(15),
        warmup: SimDuration::from_millis(5),
        traced: false,
    }
    .to_scenario()
}

/// Every host-level query, rendered for comparison.
fn queries(sim: &Simulation) -> Vec<String> {
    let n = sim.hosts.len() as u32;
    sim.hosts
        .iter()
        .map(|h| {
            let p = h.vswitch.policy();
            let labels: Vec<_> = (0..n).map(|d| p.current_labels(HostId(d))).collect();
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {:?} | {:?} {:?} {:?} {:?} | {} {}",
                labels,
                p.flowlet_sizes(),
                p.flowcells_created(),
                p.path_spray_counts(),
                p.feedback_interval(),
                p.probe_params(),
                p.probe_pool_stats(),
                h.gro.next_deadline(),
                h.gro.reorder_stats(),
                h.gro.flush_reason_counts(),
                h.gro.ce_merge_count(),
                h.vswitch.tx_segments,
                h.vswitch.tx_bytes,
            )
        })
        .collect()
}

/// Run `scenario` plain and through the wrappers (with telemetry on, as
/// the traced run does); both must agree on the digest and on every
/// query, before and after the run. Returns the wrapped run's
/// calls into `(GRO, assign, probe hooks)` during the run.
fn check_transparent(scenario: &Scenario) -> (u64, u64, u64) {
    let mut plain = scenario.build();
    let mut wrapped = scenario.build();
    wrapped.enable_telemetry(TelemetryConfig::default());
    let clock = instrument(&mut wrapped);
    assert_eq!(queries(&plain), queries(&wrapped), "queries after build");
    let before = (clock.gro.calls(), clock.assign.calls(), clock.probe.calls());
    let a = plain.run();
    let b = wrapped.run();
    let during = (
        clock.gro.calls() - before.0,
        clock.assign.calls() - before.1,
        clock.probe.calls() - before.2,
    );
    assert_eq!(a.digest(), b.digest(), "digest changed by the wrappers");
    assert_eq!(queries(&plain), queries(&wrapped), "queries after the run");
    assert!(wrapped.now > SimTime::ZERO);
    during
}

#[test]
fn presto_digest_unchanged_by_wrappers() {
    // The link failure makes the controller reweight, which reaches the
    // policies through `set_labels` and `labels_updated`.
    let (gro, assign, probe) =
        check_transparent(&short("presto", "stride:8", FaultId::LinkDown(8)));
    assert!(gro > 0 && assign > 0, "wrappers not on the datapath");
    assert_eq!(probe, 0, "presto does not probe");
}

#[test]
fn prequal_digest_unchanged_by_wrappers() {
    // The failure also reaches prequal's `labels_updated`, which resets
    // its per-path state.
    let (gro, assign, probe) = check_transparent(&short(
        "prequal",
        "skew:8:32:1000:400:2",
        FaultId::LinkDown(8),
    ));
    assert!(gro > 0 && assign > 0, "wrappers not on the datapath");
    // 150 rounds × 16 hosts, each asked for its parameters and fed.
    assert!(
        probe > 150 * 16 * 2,
        "probe rounds must reach the wrapped policy"
    );
}
