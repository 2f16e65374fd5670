//! Topologies: a tiered graph model plus the builders that produce it.
//!
//! The paper's experiments run on a 2-tier Clos (Figures 3 and 4) and a
//! non-blocking single switch; §5.3 discusses larger, multi-tier
//! networks. This module therefore separates *structure* from
//! *construction*:
//!
//! * [`Topology`] is the structural graph model: hosts, switches arranged
//!   in tiers (tier 0 = leaves/ToRs, the highest tier = the network
//!   core), directional link adjacency, and per-pair parallel-link
//!   groups. Everything above this crate — the Presto controller, fault
//!   resolution, the testbed — works against this graph, not against any
//!   particular shape.
//! * [`TopologyBuilder`] assembles a `Topology` switch by switch and link
//!   by link, deriving the adjacency metadata in [`TopologyBuilder::finish`].
//! * The builders: [`ClosSpec`] (2-tier, [`Topology::clos`]),
//!   [`ThreeTierSpec`] (3-tier hosts → ToR → aggregation → core,
//!   [`Topology::three_tier`]) and the single-switch baseline
//!   ([`Topology::single_switch`]) all produce the same `Topology` type.
//!
//! The legacy 2-tier views (`leaves`, `spines`, `leaf_spine`,
//! `spine_leaf`) are kept as derived fields so existing figure code keeps
//! reading naturally; on a 3-tier fabric `spines` names the aggregation
//! tier.

mod build;
mod single;
mod three_tier;
mod two_tier;

pub use build::TopologyBuilder;
pub use three_tier::ThreeTierSpec;
pub use two_tier::ClosSpec;

use std::collections::HashMap;

use presto_simcore::SimDuration;

use crate::fabric::Fabric;
use crate::ids::{HostId, LinkId, Mac, Node, SwitchId};
use crate::link::Link;

/// A built network plus the structural metadata controllers need.
///
/// Switches are arranged in [`Topology::tiers`]; hosts attach to tier-0
/// switches (except WAN extras added by [`Topology::attach_extra_host`]).
/// Links between switches live in directional per-pair parallel groups
/// ([`Topology::pair_links`]); within a pair the group order is the
/// construction order, which the Presto controller uses as the γ
/// parallel-link index.
#[derive(Debug)]
pub struct Topology {
    /// The switches and links.
    pub fabric: Fabric,
    /// All host ids, 0..n.
    pub hosts: Vec<HostId>,
    /// Leaf switches (tier 0), in leaf order.
    pub leaves: Vec<SwitchId>,
    /// Tier-1 switches, in order: the spines of a 2-tier Clos, the
    /// aggregation switches of a 3-tier one. Empty for the single-switch
    /// layout.
    pub spines: Vec<SwitchId>,
    /// Each host's attachment switch (a leaf, except for WAN extras).
    pub host_leaf: Vec<SwitchId>,
    /// Host uplink (host → switch) per host.
    pub host_up: Vec<LinkId>,
    /// Host downlink (switch → host) per host.
    pub host_down: Vec<LinkId>,
    /// Tier-0 → tier-1 links keyed by (leaf, spine) — a compatibility
    /// view into [`Topology::pair_links`] (γ entries per connected pair).
    pub leaf_spine: HashMap<(SwitchId, SwitchId), Vec<LinkId>>,
    /// Tier-1 → tier-0 links keyed by (spine, leaf) — the downstream
    /// compatibility view.
    pub spine_leaf: HashMap<(SwitchId, SwitchId), Vec<LinkId>>,
    /// Switches per tier, bottom-up: `tiers[0]` are the leaves, the last
    /// entry is the top of the fabric.
    pub tiers: Vec<Vec<SwitchId>>,
    /// Directional parallel-link groups: `(a, b)` → every a→b link, in
    /// construction order. Covers all switch↔switch links of the graph.
    pub pair_links: HashMap<(SwitchId, SwitchId), Vec<LinkId>>,
    /// Per switch (indexed by [`SwitchId::index`]): its next-tier-up
    /// neighbors, in connection order.
    pub up_adj: Vec<Vec<SwitchId>>,
    /// Per switch (indexed by [`SwitchId::index`]): its next-tier-down
    /// neighbors, in connection order.
    pub down_adj: Vec<Vec<SwitchId>>,
    /// Per switch (indexed by [`SwitchId::index`]): which tier it sits in.
    pub switch_tier: Vec<usize>,
    /// Per switch (indexed by [`SwitchId::index`]): its position within
    /// its tier.
    pub tier_pos: Vec<usize>,
    /// `down_closure[a][b]`: switch `b` is strictly below switch `a`
    /// (reachable by only descending links).
    down_closure: Vec<Vec<bool>>,
}

impl Topology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of switch tiers (1 for the single-switch layout, 2 for a
    /// Clos, 3 for a three-tier fabric).
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The top tier of the fabric (the spines of a 2-tier Clos, the cores
    /// of a 3-tier one; the lone switch of the single-switch layout).
    pub fn top_tier(&self) -> &[SwitchId] {
        self.tiers.last().expect("at least one tier")
    }

    /// Which tier `sw` sits in.
    pub fn tier_of(&self, sw: SwitchId) -> usize {
        self.switch_tier[sw.index()]
    }

    /// True if `sw` is a leaf (tier-0) switch.
    pub fn is_leaf(&self, sw: SwitchId) -> bool {
        self.switch_tier[sw.index()] == 0
    }

    /// `sw`'s position within its tier (e.g. a leaf's index in
    /// [`Topology::leaves`]).
    pub fn position_in_tier(&self, sw: SwitchId) -> usize {
        self.tier_pos[sw.index()]
    }

    /// `sw`'s next-tier-up neighbors, in connection order.
    pub fn up_neighbors(&self, sw: SwitchId) -> &[SwitchId] {
        &self.up_adj[sw.index()]
    }

    /// `sw`'s next-tier-down neighbors, in connection order.
    pub fn down_neighbors(&self, sw: SwitchId) -> &[SwitchId] {
        &self.down_adj[sw.index()]
    }

    /// The parallel-link group from `a` to `b` (empty if not adjacent).
    pub fn links_between(&self, a: SwitchId, b: SwitchId) -> &[LinkId] {
        self.pair_links.get(&(a, b)).map_or(&[], |v| v.as_slice())
    }

    /// True if switch `desc` sits strictly below switch `anc` (reachable
    /// from `anc` by only descending links).
    pub fn switch_below(&self, anc: SwitchId, desc: SwitchId) -> bool {
        self.down_closure[anc.index()][desc.index()]
    }

    /// True if host `h` attaches at or below switch `sw`.
    pub fn host_below(&self, sw: SwitchId, h: HostId) -> bool {
        let attach = self.host_leaf[h.index()];
        attach == sw || self.switch_below(sw, attach)
    }

    /// The descending link from non-leaf `sw` toward the switch `attach`
    /// (a host's attachment point below `sw`), using parallel index `idx`
    /// clamped to the group size.
    ///
    /// # Panics
    /// Panics if `attach` is not below `sw`.
    pub fn down_link_toward(&self, sw: SwitchId, attach: SwitchId, idx: usize) -> LinkId {
        let d = self.down_adj[sw.index()]
            .iter()
            .copied()
            .find(|&d| d == attach || self.switch_below(d, attach))
            .unwrap_or_else(|| panic!("{attach:?} is not below {sw:?}"));
        let grp = &self.pair_links[&(sw, d)];
        grp[idx.min(grp.len() - 1)]
    }

    /// The ascending hop list from leaf `from` to an ancestor-direction
    /// switch `target`: `(switch, egress link)` pairs, one per hop, each
    /// using the first link of its parallel group. Used to install exact
    /// L2 routes toward hosts that hang off upper-tier switches (WAN
    /// remotes).
    ///
    /// # Panics
    /// Panics if `target` is unreachable by only ascending links.
    pub fn up_route(&self, from: SwitchId, target: SwitchId) -> Vec<(SwitchId, LinkId)> {
        let mut prev: HashMap<SwitchId, SwitchId> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == target {
                let mut hops = Vec::new();
                let mut sw = target;
                while sw != from {
                    let below = prev[&sw];
                    hops.push((below, self.pair_links[&(below, sw)][0]));
                    sw = below;
                }
                hops.reverse();
                return hops;
            }
            for &u in self.up_neighbors(cur) {
                prev.entry(u).or_insert_with(|| {
                    queue.push_back(u);
                    cur
                });
            }
        }
        panic!("{target:?} is not reachable upward from {from:?}")
    }

    /// Number of link-disjoint end-to-end multipaths (spanning trees)
    /// available between hosts on different leaves, computed exactly over
    /// **all** (leaf, uplink) pairs: for each leaf uplink position, the
    /// worst-case disjoint capacity across every leaf, summed over
    /// positions. On the 2-tier Clos with uniform wiring this is ν·γ; on
    /// a 3-tier fabric it is `aggs_per_pod · min(γ, cores_per_group)`;
    /// non-uniform parallel-link counts are no longer miscounted from a
    /// single sampled pair.
    ///
    /// # Panics
    /// Panics if leaves disagree on their number of uplink positions —
    /// the tiered model assumes every leaf sees the same upper-tier
    /// fan-out, and a silent guess would miscount paths.
    pub fn path_count(&self) -> usize {
        if self.tiers.len() < 2 {
            return 1;
        }
        let n_pos = self.up_neighbors(self.leaves[0]).len();
        for &leaf in &self.leaves {
            assert_eq!(
                self.up_neighbors(leaf).len(),
                n_pos,
                "path_count requires a uniform uplink fan-out: leaf {leaf:?} has {} uplink \
                 positions, leaf {:?} has {n_pos}",
                self.up_neighbors(leaf).len(),
                self.leaves[0],
            );
        }
        (0..n_pos)
            .map(|p| {
                self.leaves
                    .iter()
                    .map(|&leaf| self.up_capacity(leaf, self.up_neighbors(leaf)[p]))
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Disjoint-path capacity of the `lower` → `upper` adjacency: the
    /// bidirectional parallel-link count, further limited by the disjoint
    /// continuations above `upper` when it is not a top-tier switch.
    fn up_capacity(&self, lower: SwitchId, upper: SwitchId) -> usize {
        let up = self.links_between(lower, upper).len();
        let down = self.links_between(upper, lower).len();
        let mut cap = up.min(down);
        if self.tier_of(upper) + 1 < self.tiers.len() {
            let above: usize = self
                .up_neighbors(upper)
                .iter()
                .map(|&v| self.up_capacity(upper, v))
                .sum();
            cap = cap.min(above);
        }
        cap
    }

    /// True if both hosts hang off the same leaf (intra-rack traffic never
    /// enters the fabric core).
    pub fn same_leaf(&self, a: HostId, b: HostId) -> bool {
        self.host_leaf[a.index()] == self.host_leaf[b.index()]
    }

    /// Attach an extra host (e.g. a WAN "remote user", §6's north-south
    /// experiment) directly to `switch` with its own link rate — the
    /// paper throttles remote users to 100 Mbps. Installs the exact-match
    /// L2 entry for the host at its switch; reaching it from elsewhere is
    /// the caller's routing decision. Returns the new host id.
    pub fn attach_extra_host(
        &mut self,
        switch: SwitchId,
        link_rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: u64,
    ) -> HostId {
        let host = HostId(self.hosts.len() as u32);
        let up = self.fabric.add_link(Link::new(
            Node::Host(host),
            Node::Switch(switch),
            link_rate_bps,
            propagation,
            queue_bytes,
        ));
        let down = self.fabric.add_link(Link::new(
            Node::Switch(switch),
            Node::Host(host),
            link_rate_bps,
            propagation,
            queue_bytes,
        ));
        self.fabric.attach_host(host, up);
        self.fabric
            .switch_mut(switch)
            .install_l2(Mac::host(host), down);
        self.hosts.push(host);
        self.host_leaf.push(switch);
        self.host_up.push(up);
        self.host_down.push(down);
        host
    }

    /// Install baseline connectivity for real host MACs:
    ///
    /// * every leaf: exact L2 entry for each local host → its downlink,
    ///   and an ECMP group over all uplinks for each remote host;
    /// * every upper-tier switch: an ECMP group over the parallel links
    ///   toward each host below it, or over all of its own uplinks for
    ///   hosts it cannot reach downward (cross-pod traffic climbing a
    ///   3-tier fabric);
    /// * the single-switch layout: exact L2 entries only.
    ///
    /// Shadow-MAC spanning trees are installed separately by the Presto
    /// controller (`presto-core`).
    pub fn install_basic_routing(&mut self) {
        self.install_basic_routing_for(None);
    }

    /// [`Topology::install_basic_routing`] restricted to an active-host
    /// subset: entries are installed only for hosts whose
    /// `active[h.index()]` is true (`None` means every host). State for
    /// an active host is identical to the unrestricted install, so a
    /// workload touching only active hosts behaves byte-identically —
    /// but an 8192-host fabric with a sparse workload no longer pays for
    /// tens of millions of ECMP groups it will never look up.
    pub fn install_basic_routing_for(&mut self, active: Option<&[bool]>) {
        let live = |h: HostId| active.is_none_or(|a| a.get(h.index()).copied().unwrap_or(false));
        if self.tiers.len() < 2 {
            let sw = self.leaves[0];
            for &h in &self.hosts {
                if !live(h) {
                    continue;
                }
                let down = self.host_down[h.index()];
                self.fabric.switch_mut(sw).install_l2(Mac::host(h), down);
            }
            return;
        }
        let leaves = self.leaves.clone();
        let hosts = self.hosts.clone();
        for &leaf in &leaves {
            // Local hosts: exact match to the downlink.
            for &h in &hosts {
                if !live(h) {
                    continue;
                }
                if self.host_leaf[h.index()] == leaf {
                    let down = self.host_down[h.index()];
                    self.fabric.switch_mut(leaf).install_l2(Mac::host(h), down);
                } else {
                    // Remote hosts: ECMP over every uplink.
                    let mut ups = Vec::new();
                    for &u in &self.up_adj[leaf.index()] {
                        ups.extend(self.pair_links[&(leaf, u)].iter().copied());
                    }
                    self.fabric.switch_mut(leaf).install_ecmp(h, ups);
                }
            }
        }
        for tier in 1..self.tiers.len() {
            let switches = self.tiers[tier].clone();
            for &sw in &switches {
                for &h in &hosts {
                    if !live(h) {
                        continue;
                    }
                    if self.host_below(sw, h) {
                        let attach = self.host_leaf[h.index()];
                        let mut downs = Vec::new();
                        for &d in &self.down_adj[sw.index()] {
                            if d == attach || self.switch_below(d, attach) {
                                downs.extend(self.pair_links[&(sw, d)].iter().copied());
                            }
                        }
                        self.fabric.switch_mut(sw).install_ecmp(h, downs);
                    } else {
                        let mut ups = Vec::new();
                        for &u in &self.up_adj[sw.index()] {
                            ups.extend(self.pair_links[&(sw, u)].iter().copied());
                        }
                        self.fabric.switch_mut(sw).install_ecmp(h, ups);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Node;

    #[test]
    fn graph_metadata_matches_two_tier_views() {
        let t = Topology::clos(&ClosSpec::default());
        assert_eq!(t.tier_count(), 2);
        assert_eq!(t.tiers[0], t.leaves);
        assert_eq!(t.tiers[1], t.spines);
        assert_eq!(t.top_tier(), &t.spines[..]);
        for &leaf in &t.leaves {
            assert!(t.is_leaf(leaf));
            assert_eq!(t.up_neighbors(leaf), &t.spines[..]);
            for &spine in &t.spines {
                assert_eq!(
                    t.links_between(leaf, spine),
                    &t.leaf_spine[&(leaf, spine)][..]
                );
                assert_eq!(
                    t.links_between(spine, leaf),
                    &t.spine_leaf[&(spine, leaf)][..]
                );
            }
        }
        for &spine in &t.spines {
            assert_eq!(t.tier_of(spine), 1);
            assert_eq!(t.down_neighbors(spine), &t.leaves[..]);
            for &leaf in &t.leaves {
                assert!(t.switch_below(spine, leaf));
                assert!(!t.switch_below(leaf, spine));
            }
        }
        assert!(t.host_below(t.spines[2], HostId(0)));
        assert!(t.host_below(t.leaves[0], HostId(0)));
        assert!(!t.host_below(t.leaves[1], HostId(0)));
    }

    #[test]
    fn down_link_toward_picks_parallel_index() {
        let spec = ClosSpec {
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        let t = Topology::clos(&spec);
        let spine = t.spines[1];
        let leaf = t.leaves[2];
        for j in 0..3 {
            assert_eq!(
                t.down_link_toward(spine, leaf, j),
                t.spine_leaf[&(spine, leaf)][j]
            );
        }
        // Out-of-range parallel indices clamp to the last link.
        assert_eq!(
            t.down_link_toward(spine, leaf, 9),
            t.spine_leaf[&(spine, leaf)][2]
        );
    }

    #[test]
    fn up_route_is_single_hop_on_two_tier() {
        let t = Topology::clos(&ClosSpec::default());
        let hops = t.up_route(t.leaves[2], t.spines[3]);
        assert_eq!(
            hops,
            vec![(t.leaves[2], t.leaf_spine[&(t.leaves[2], t.spines[3])][0])]
        );
    }

    #[test]
    fn path_count_is_exact_over_all_pairs() {
        // Uniform shapes keep the ν·γ counts.
        assert_eq!(Topology::clos(&ClosSpec::default()).path_count(), 4);
        let spec = ClosSpec {
            spines: 2,
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        assert_eq!(Topology::clos(&spec).path_count(), 6);

        // Non-uniform γ: leaf 0 reaches spine 0 over 2 cables but leaf 1
        // only over 1, so spine 0 supports a single disjoint tree. The old
        // first-pair sample would have reported 2 + 1; the exact count is
        // 1 + 1.
        let mut b = TopologyBuilder::new();
        let l0 = b.add_switch(0);
        let l1 = b.add_switch(0);
        let s0 = b.add_switch(1);
        let s1 = b.add_switch(1);
        let rate = 10_000_000_000;
        let prop = SimDuration::from_micros(1);
        for (i, &leaf) in [l0, l1].iter().enumerate() {
            b.attach_host(leaf, rate, prop, 1 << 20);
            b.connect(leaf, s0, 2 - i, rate, prop, 1 << 20);
            b.connect(leaf, s1, 1, rate, prop, 1 << 20);
        }
        let t = b.finish();
        assert_eq!(t.path_count(), 2);
    }

    #[test]
    #[should_panic(expected = "uniform uplink fan-out")]
    fn path_count_rejects_ragged_fanout() {
        let mut b = TopologyBuilder::new();
        let l0 = b.add_switch(0);
        let l1 = b.add_switch(0);
        let s0 = b.add_switch(1);
        let s1 = b.add_switch(1);
        let rate = 10_000_000_000;
        let prop = SimDuration::from_micros(1);
        b.attach_host(l0, rate, prop, 1 << 20);
        b.attach_host(l1, rate, prop, 1 << 20);
        b.connect(l0, s0, 1, rate, prop, 1 << 20);
        b.connect(l0, s1, 1, rate, prop, 1 << 20);
        b.connect(l1, s0, 1, rate, prop, 1 << 20);
        let _ = b.finish().path_count();
    }

    #[test]
    fn attach_extra_host_updates_metadata() {
        let mut t = Topology::clos(&ClosSpec::default());
        let wan = t.attach_extra_host(
            t.spines[1],
            100_000_000,
            SimDuration::from_micros(1),
            1 << 20,
        );
        assert_eq!(wan, HostId(16));
        assert_eq!(t.host_leaf[wan.index()], t.spines[1]);
        assert!(!t.is_leaf(t.host_leaf[wan.index()]));
        assert_eq!(
            t.fabric.link(t.host_up[wan.index()]).dst,
            Node::Switch(t.spines[1])
        );
    }
}
