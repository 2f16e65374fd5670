//! 2-tier backward-compatibility regression: report digests pinned.
//!
//! The multi-tier topology refactor (graph-based `Topology`, path-based
//! controller trees) must be behaviour-preserving on the classic 2-tier
//! testbed. These digests were captured on the pre-refactor tree; any
//! change here means the refactor altered packet-level behaviour, not
//! just structure. Each digest is checked with the telemetry layer off
//! and on: telemetry must never change behaviour.

use presto::prelude::*;
use presto::workloads::FlowSpec;
use presto_testbed::MiceSpec;

fn flows_l1_l4() -> Vec<FlowSpec> {
    (0..4)
        .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
        .collect()
}

fn assert_digest(name: &str, scenario: Scenario, expected: u64) {
    let digest = scenario.run().digest();
    assert_eq!(
        digest, expected,
        "{name}: digest {digest:#018x} != pre-refactor baseline {expected:#018x}"
    );
    let traced = scenario.run_traced().0.digest();
    assert_eq!(
        traced, expected,
        "{name} with telemetry: digest {traced:#018x} != pre-refactor baseline {expected:#018x}"
    );
}

#[test]
fn smoke_presto_digest_is_unchanged() {
    assert_digest(
        "smoke_presto",
        Scenario::builder(SchemeSpec::presto(), 21)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .elephants(flows_l1_l4())
            .mice(vec![MiceSpec {
                src: 1,
                dst: 9,
                bytes: 50_000,
                interval: SimDuration::from_millis(5),
            }])
            .probes(vec![(0, 12)])
            .build(),
        0xf3c2d3b083ddafe0,
    );
}

#[test]
fn smoke_ecmp_digest_is_unchanged() {
    assert_digest(
        "smoke_ecmp",
        Scenario::builder(SchemeSpec::ecmp(), 7)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .elephants(presto_testbed::bijection_elephants(16, 4, 7))
            .build(),
        0xf7bb59607124854c,
    );
}

#[test]
fn failure_link_down_digest_is_unchanged() {
    assert_digest(
        "failure_link_down",
        Scenario::builder(SchemeSpec::presto(), 21)
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(10))
            .elephants(
                (0..4)
                    .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
                    .collect(),
            )
            .faults(FaultPlan::new().link_down(
                SimTime::from_millis(15),
                0,
                0,
                0,
                Notify::After(SimDuration::from_millis(5)),
            ))
            .build(),
        0xa96d4c409297cac9,
    );
}

#[test]
fn failure_spine_down_digest_is_unchanged() {
    assert_digest(
        "failure_spine_down",
        Scenario::builder(SchemeSpec::presto(), 3)
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(10))
            .elephants(flows_l1_l4())
            .faults(
                FaultPlan::new()
                    .spine_down(SimTime::from_millis(15), 1, Notify::Immediate)
                    .spine_up(SimTime::from_millis(30), 1, Notify::Immediate),
            )
            .build(),
        0xbf9a5aad4f5b0587,
    );
}

#[test]
fn wan_remotes_digest_is_unchanged() {
    assert_digest(
        "wan_remotes",
        Scenario::builder(SchemeSpec::presto(), 5)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .elephants(flows_l1_l4())
            .wan_remotes(2)
            .build(),
        0xf6c30370123e9909,
    );
}

#[test]
fn presto_ecmp_telemetry_digest_is_unchanged() {
    assert_digest(
        "presto_ecmp_telemetry",
        Scenario::builder(SchemeSpec::presto_ecmp(), 11)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .elephants(flows_l1_l4())
            .build(),
        0x1c94dad6faab2659,
    );
}

/// A multi-pod 3-tier fabric. Pinned to the digest the serial engine
/// gave before the sharded engine was removed.
#[test]
fn three_tier_pods4_digest_is_unchanged() {
    assert_digest(
        "three_tier_pods4",
        Scenario::builder(SchemeSpec::presto(), 13)
            .three_tier(ThreeTierSpec {
                pods: 4,
                ..Default::default()
            })
            .duration(SimDuration::from_millis(20))
            .warmup(SimDuration::from_millis(5))
            .elephants(
                (0..8)
                    .map(|i| FlowSpec::elephant(i, (i + 17) % 32, SimTime::ZERO))
                    .collect(),
            )
            .build(),
        0x757c8748ca149967,
    );
}
