//! The load-balancing scheme registry — the arena's single extension point.
//!
//! Every scheme the simulator can run is one [`SchemeEntry`] here: a
//! stable token (the `scheme` campaign-axis value and CLI spelling), a
//! one-line summary, and a constructor producing the full [`SchemeSpec`].
//! The TOML axis parser (`presto-lab`), the canonical-text layer
//! (`canon.rs` via [`PolicyKind::name`]), and the policy factory
//! ([`build_policy`]) all consume this table, so adding a scheme is:
//!
//! 1. implement [`EdgePolicy`] in `crates/lb` (one file),
//! 2. add a `PolicyKind` variant with its `name()` arm,
//! 3. construct it in [`build_policy`],
//! 4. append one [`SchemeEntry`] below.
//!
//! Nothing else in the workspace enumerates schemes.
//!
//! Registered policies with feedback needs declare them through the
//! `EdgePolicy` hooks (`feedback_interval`, `path_feedback`,
//! `flow_hint`, `labels_updated`) — the harness wires those
//! automatically, so a registry entry is genuinely all it takes.

use presto_core::FlowcellScheduler;
use presto_endhost::{DirectPolicy, EdgePolicy};
use presto_lb::{
    CaftPolicy, DiffFlowPolicy, EcmpPolicy, FlowDynPolicy, FlowletPolicy, PerPacketPolicy,
    PrequalPolicy, SprinklersPolicy,
};

use crate::scheme::{PolicyKind, SchemeSpec};

/// One registered load-balancing scheme.
pub struct SchemeEntry {
    /// Stable lookup token: the `scheme` axis value in campaign TOML and
    /// the CLI spelling. Lowercase, dash-separated.
    pub token: &'static str,
    /// One-line description for docs and error messages.
    pub summary: &'static str,
    /// Constructor for the scheme's full configuration.
    pub build: fn() -> SchemeSpec,
}

/// Every scheme the arena knows, in display order. Paper schemes first,
/// then the related-work family.
pub static SCHEMES: &[SchemeEntry] = &[
    SchemeEntry {
        token: "presto",
        summary: "64 KB flowcell spraying + modified GRO (the paper's system)",
        build: SchemeSpec::presto,
    },
    SchemeEntry {
        token: "ecmp",
        summary: "per-flow random path over the label fabric, stock GRO",
        build: SchemeSpec::ecmp,
    },
    SchemeEntry {
        token: "mptcp",
        summary: "8 ECMP-hashed subflows with coupled congestion control",
        build: SchemeSpec::mptcp,
    },
    SchemeEntry {
        token: "optimal",
        summary: "every host on one non-blocking switch (no balancing needed)",
        build: SchemeSpec::optimal,
    },
    SchemeEntry {
        token: "flowlet-100us",
        summary: "flowlet switching, 100 us inactivity timer",
        build: flowlet_100us,
    },
    SchemeEntry {
        token: "flowlet-500us",
        summary: "flowlet switching, 500 us inactivity timer",
        build: flowlet_500us,
    },
    SchemeEntry {
        token: "presto-ecmp",
        summary: "flowcell counter + per-hop ECMP hashing on cell IDs (Fig 14)",
        build: SchemeSpec::presto_ecmp,
    },
    SchemeEntry {
        token: "per-packet",
        summary: "rotate the path every skb with TSO disabled (RPS/DRB)",
        build: SchemeSpec::per_packet,
    },
    SchemeEntry {
        token: "presto-official-gro",
        summary: "Presto sender against the stock GRO receiver (Fig 5)",
        build: presto_official_gro,
    },
    SchemeEntry {
        token: "flowdyn",
        summary: "flowlet switching with a dynamic per-flow gap (EWMA-adaptive)",
        build: SchemeSpec::flowdyn,
    },
    SchemeEntry {
        token: "diffflow",
        summary: "spray mice per-skb, pin elephants past 1 MiB to one path",
        build: SchemeSpec::diffflow,
    },
    SchemeEntry {
        token: "sprinklers",
        summary: "randomized variable-size striping (mean 64 KB stripes)",
        build: SchemeSpec::sprinklers,
    },
    SchemeEntry {
        token: "caft",
        summary: "congestion/fault-aware flowcell weighting from path feedback",
        build: SchemeSpec::caft,
    },
    SchemeEntry {
        token: "prequal",
        summary: "receiver-load probing: spray toward cold paths/replicas (HCL rule)",
        build: SchemeSpec::prequal,
    },
];

fn flowlet_100us() -> SchemeSpec {
    SchemeSpec::flowlet(presto_simcore::SimDuration::from_micros(100))
}

fn flowlet_500us() -> SchemeSpec {
    SchemeSpec::flowlet(presto_simcore::SimDuration::from_micros(500))
}

fn presto_official_gro() -> SchemeSpec {
    SchemeSpec::presto()
        .with_gro(crate::scheme::GroKind::Official)
        .with_name("Presto+OfficialGRO")
}

/// Look up a registry entry by token.
pub fn find(token: &str) -> Option<&'static SchemeEntry> {
    SCHEMES.iter().find(|e| e.token == token)
}

/// Build the [`SchemeSpec`] registered under `token`.
pub fn spec(token: &str) -> Option<SchemeSpec> {
    find(token).map(|e| (e.build)())
}

/// All registered tokens, in display order — for error messages and docs.
pub fn tokens() -> impl Iterator<Item = &'static str> {
    SCHEMES.iter().map(|e| e.token)
}

/// Construct the edge policy for a scheme — the one place policy state is
/// instantiated. `seed` is the scenario seed; the ECMP salt derivation
/// (`seed ^ 0xECC`) predates the registry and is pinned by the
/// `two_tier_compat` digests.
pub fn build_policy(scheme: &SchemeSpec, seed: u64) -> Box<dyn EdgePolicy> {
    match scheme.policy {
        PolicyKind::Direct => Box::new(DirectPolicy),
        PolicyKind::Presto | PolicyKind::PrestoEcmp => {
            let mut f = FlowcellScheduler::new();
            f.threshold = scheme.flowcell_bytes;
            Box::new(f)
        }
        PolicyKind::Ecmp => Box::new(EcmpPolicy::new(seed ^ 0xECC)),
        PolicyKind::Flowlet(gap) => Box::new(FlowletPolicy::new(gap)),
        PolicyKind::PerPacket => Box::new(PerPacketPolicy::new()),
        PolicyKind::FlowDyn(min_gap) => Box::new(FlowDynPolicy::new(min_gap)),
        PolicyKind::DiffFlow(elephant_bytes) => Box::new(DiffFlowPolicy::new(elephant_bytes)),
        PolicyKind::Sprinklers(mean) => Box::new(SprinklersPolicy::new(mean)),
        PolicyKind::Caft(period) => Box::new(CaftPolicy::new(period, scheme.flowcell_bytes)),
        PolicyKind::Prequal(params) => Box::new(PrequalPolicy::new(params, scheme.flowcell_bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for e in SCHEMES {
            assert!(seen.insert(e.token), "duplicate token {}", e.token);
            assert!(
                e.token
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "token {} must be lowercase-dashed",
                e.token
            );
            assert!(!e.summary.is_empty());
        }
    }

    #[test]
    fn find_and_spec_agree() {
        for e in SCHEMES {
            assert_eq!(find(e.token).unwrap().token, e.token);
            let s = spec(e.token).unwrap();
            assert_eq!(s.name, (e.build)().name);
        }
        assert!(find("warp-drive").is_none());
        assert!(spec("warp-drive").is_none());
    }

    #[test]
    fn every_entry_builds_a_policy() {
        for e in SCHEMES {
            let s = (e.build)();
            let mut p = build_policy(&s, 42);
            // Smoke: assignment without labels must not panic.
            let flow = presto_netsim::FlowKey::new(
                presto_netsim::HostId(0),
                presto_netsim::HostId(1),
                10,
                20,
            );
            let _ = p.assign(presto_simcore::SimTime::ZERO, flow, 1460, false);
        }
    }

    #[test]
    fn policy_canon_tells_registered_policies_apart() {
        // Two registered schemes share canonical policy text exactly when
        // they share the policy — the registry half of the fingerprint
        // contract.
        let policies: Vec<PolicyKind> = SCHEMES.iter().map(|e| (e.build)().policy).collect();
        for (i, a) in policies.iter().enumerate() {
            for b in &policies[i + 1..] {
                assert_eq!(a == b, a.name() == b.name(), "{a:?} and {b:?}");
            }
        }
    }
}
