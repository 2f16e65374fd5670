//! The LB scheme arena: determinism and liveness for the registry's
//! related-work schemes (FlowDyn, DiffFlow, Sprinklers, CAFT).
//!
//! Mirrors `two_tier_compat.rs` / `parallel_determinism.rs` for the
//! four schemes added by the policy-API redesign. Every arena scheme
//! must (a) move real traffic on the testbed fabric, (b) produce
//! byte-identical digests when the same scenario is built twice and
//! across [`ParallelRunner`] fan-outs of 1, 2 and 8 workers, (c) survive a
//! fault timeline (CAFT additionally exercises the `PathFeedback`
//! event and `labels_updated` lifecycle there), and (d) round-trip
//! through the registry and the canonical-text layer with a fingerprint
//! distinct from every other registered scheme.

use std::collections::HashSet;

use presto::prelude::*;
use presto::workloads::FlowSpec;
use presto_testbed::{MiceSpec, ParallelRunner, SCHEMES};

const ARENA: [&str; 4] = ["flowdyn", "diffflow", "sprinklers", "caft"];

fn arena_builder(token: &str) -> ScenarioBuilder {
    let spec = SchemeSpec::from_token(token).expect("registered token");
    Scenario::builder(spec, 21)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
                .collect::<Vec<_>>(),
        )
        .mice(vec![MiceSpec {
            src: 1,
            dst: 9,
            bytes: 50_000,
            interval: SimDuration::from_millis(5),
        }])
}

fn faulted_builder(token: &str) -> ScenarioBuilder {
    arena_builder(token)
        .duration(SimDuration::from_millis(40))
        .faults(FaultPlan::new().link_down(
            SimTime::from_millis(15),
            0,
            0,
            0,
            Notify::After(SimDuration::from_millis(5)),
        ))
}

#[test]
fn arena_schemes_move_traffic() {
    for token in ARENA {
        let report = arena_builder(token).build().run();
        assert!(
            report.mean_elephant_tput() > 1.0,
            "{token}: elephants stalled ({:.3} Gbps)",
            report.mean_elephant_tput()
        );
    }
}

/// Build every arena scheme's scenario twice and require one digest.
fn assert_rebuild_invariant(make: fn(&str) -> ScenarioBuilder, what: &str) {
    for token in ARENA {
        let first = make(token).build().run().digest();
        let second = make(token).build().run().digest();
        assert_eq!(
            second, first,
            "{token} {what}: rebuilt digest {second:#018x} != first run {first:#018x}"
        );
    }
}

#[test]
fn arena_digests_are_shard_invariant() {
    assert_rebuild_invariant(arena_builder, "healthy");
}

#[test]
fn arena_digests_are_shard_invariant_under_faults() {
    assert_rebuild_invariant(faulted_builder, "faulted");
}

#[test]
fn arena_digests_are_worker_invariant() {
    let scenarios = || {
        ARENA
            .iter()
            .map(|t| arena_builder(t).build())
            .collect::<Vec<_>>()
    };
    let digests = |workers: usize| -> Vec<u64> {
        ParallelRunner::new(workers)
            .run(&scenarios())
            .iter()
            .map(|r| r.digest())
            .collect()
    };
    let one = digests(1);
    assert_eq!(one, digests(2), "2 workers changed an arena report");
    assert_eq!(one, digests(8), "8 workers changed an arena report");
}

#[test]
fn caft_reacts_to_the_fault_without_stalling() {
    // CAFT is the only scheme that schedules `PathFeedback` events; the
    // faulted run must still finish with healthy throughput (the policy
    // steers flowcells away from the dead uplink instead of blackholing).
    let report = faulted_builder("caft").build().run();
    assert!(
        report.mean_elephant_tput() > 1.0,
        "caft under link-down stalled ({:.3} Gbps)",
        report.mean_elephant_tput()
    );
}

#[test]
fn registry_fingerprints_are_pairwise_distinct() {
    // Canonical text must tell every registered scheme apart: the
    // content-addressed results store keys runs by this fingerprint.
    let mut seen: HashSet<String> = HashSet::new();
    for e in SCHEMES {
        let fp = Scenario::builder((e.build)(), 21)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .elephants(
                (0..4)
                    .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
                    .collect::<Vec<_>>(),
            )
            .build()
            .fingerprint();
        assert!(
            seen.insert(fp.clone()),
            "{}: fingerprint {fp} collides with another scheme",
            e.token
        );
    }
}
