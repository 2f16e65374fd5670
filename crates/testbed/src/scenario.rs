//! Experiment descriptions.
//!
//! A [`Scenario`] is everything one run needs: topology, scheme, flows,
//! mice series, RTT probes, shuffle configuration, north-south remotes and
//! the fault timeline. `run()` assembles the simulator (controller,
//! per-host policies, GRO engines) and executes it to a [`Report`].
//!
//! Scenarios are built with the fluent [`ScenarioBuilder`] (see
//! [`Scenario::builder`] and the preset constructors) and read through
//! accessor methods; the fields are private.
//!
//! [`ScenarioBuilder`]: crate::ScenarioBuilder

use presto_core::Controller;
use presto_endhost::ReceiveOffload;
use presto_faults::{FaultEvent, FaultKind, FaultPlan, Notify};
use presto_gro::{OfficialGro, PrestoGro, PrestoGroConfig};
use presto_netsim::{ClosSpec, HostId, Mac, ThreeTierSpec, Topology};
use presto_simcore::rng::DetRng;
use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::{TelemetryConfig, TelemetryReport};
use presto_workloads::patterns;
use presto_workloads::FlowSpec;

use crate::report::Report;
use crate::scheme::{GroKind, PolicyKind, SchemeSpec};
use crate::sim::{
    make_host, AllreduceState, Event, FaultAction, FlowTag, IncastState, MiceSeries, PendingFlow,
    ResolvedFault, ShuffleState, Simulation,
};

/// XOR-folded into the scenario seed to derive the fault-plan expansion
/// stream, so flap draws never correlate with workload randomness.
const FAULT_SEED_SALT: u64 = 0xFA17;

/// A "50 KB every 100 ms" mice stream between two hosts.
#[derive(Debug, Clone, Copy)]
pub struct MiceSpec {
    /// Sender host.
    pub src: usize,
    /// Receiver host.
    pub dst: usize,
    /// Bytes per mouse (paper: 50 KB).
    pub bytes: u64,
    /// Launch interval (paper: 100 ms).
    pub interval: SimDuration,
}

/// Shuffle workload: every server sends `bytes` to every other server,
/// `concurrency` transfers at a time.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleSpec {
    /// Bytes per transfer (paper: 1 GB; scaled down for simulation).
    pub bytes: u64,
    /// Concurrent transfers per sender (paper: 2).
    pub concurrency: usize,
}

/// Partition-aggregate incast: every `interval` the aggregator fans a
/// request out to `fanout` workers, each of which answers with
/// `bytes_per_worker`; the request must complete (last response received)
/// within `deadline`. Deadline accounting covers requests issued after
/// warmup.
#[derive(Debug, Clone, Copy)]
pub struct IncastSpec {
    /// Aggregator (receiver) host.
    pub aggregator: usize,
    /// Number of responding workers.
    pub fanout: usize,
    /// Response size per worker, bytes.
    pub bytes_per_worker: u64,
    /// Request issue interval.
    pub interval: SimDuration,
    /// Per-request completion deadline.
    pub deadline: SimDuration,
}

/// Ring allreduce: the first `participants` hosts each stream `bytes` to
/// their clockwise neighbor every round; rounds are synchronized — the
/// next begins when the last transfer of the current one completes.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceSpec {
    /// Ring size (hosts `0..participants`).
    pub participants: usize,
    /// Bytes per member per round.
    pub bytes: u64,
}

/// A single bidirectional link failure between a leaf and a spine — the
/// "at most one permanent failure" model this testbed started with.
///
/// Kept as a convenience shorthand: it converts losslessly into a
/// [`FaultPlan`] (`FaultPlan::from(spec)`), which is what scenarios carry
/// now that fault timelines are first-class.
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// When the link dies.
    pub at: SimTime,
    /// Leaf index.
    pub leaf: usize,
    /// Spine index.
    pub spine: usize,
    /// Parallel-link index (0 for γ = 1).
    pub link: usize,
    /// When the controller learns and redistributes weighted labels
    /// (`None` = never; the pure fast-failover stage of Fig 17).
    pub controller_at: Option<SimTime>,
}

impl From<FailureSpec> for FaultPlan {
    fn from(f: FailureSpec) -> FaultPlan {
        let notify = match f.controller_at {
            Some(t) => Notify::After(t.saturating_since(f.at)),
            None => Notify::Never,
        };
        FaultPlan::new().link_down(f.at, f.leaf, f.spine, f.link, notify)
    }
}

/// A complete experiment description.
///
/// Build one with [`Scenario::builder`] (or the `testbed16` /
/// `scalability` / `oversubscription` presets) and read it through the
/// accessor methods.
pub struct Scenario {
    /// Run label.
    pub(crate) name: String,
    /// Master seed.
    pub(crate) seed: u64,
    /// Scheme under test.
    pub(crate) scheme: SchemeSpec,
    /// Clos parameters (ignored for single-switch schemes, which reuse the
    /// host count).
    pub(crate) clos: ClosSpec,
    /// 3-tier topology override: when set, the fabric is built from this
    /// spec instead of `clos` (hosts → ToR → aggregation → core).
    pub(crate) three_tier: Option<ThreeTierSpec>,
    /// Simulated duration.
    pub(crate) duration: SimDuration,
    /// Measurement window starts here.
    pub(crate) warmup: SimDuration,
    /// Flows to run (host indices; `dst` may point at a WAN remote).
    pub(crate) flows: Vec<FlowSpec>,
    /// Mice series.
    pub(crate) mice: Vec<MiceSpec>,
    /// RTT probe pairs.
    pub(crate) probes: Vec<(usize, usize)>,
    /// Probe send interval.
    pub(crate) probe_interval: SimDuration,
    /// Shuffle workload (replaces `flows`).
    pub(crate) shuffle: Option<ShuffleSpec>,
    /// Partition-aggregate incast workload.
    pub(crate) incast: Option<IncastSpec>,
    /// Ring-allreduce collective workload.
    pub(crate) allreduce: Option<AllreduceSpec>,
    /// Fault timeline: typed, sim-time-scheduled link/spine events plus
    /// probabilistic flap processes, expanded deterministically from the
    /// scenario seed at build time.
    pub(crate) faults: FaultPlan,
    /// Number of WAN "remote users" attached to spines at 100 Mbps
    /// (Table 2's north-south experiment). Their host indices follow the
    /// servers'.
    pub(crate) wan_remotes: usize,
    /// Collect the Fig 5a flowcell-interleaving metric.
    pub(crate) collect_reorder: bool,
    /// CPU utilization sampling period (Fig 6).
    pub(crate) cpu_sample: Option<SimDuration>,
    /// Host uplink queue (large: the sender NIC/qdisc backpressures
    /// instead of dropping).
    pub(crate) host_uplink_queue: u64,
    /// Link departure batch (`Link::tx_batch`). 1 (the default) replays
    /// the classic one-event-per-packet model exactly; larger values
    /// coalesce `TxDone` bookkeeping for a lower event rate — arrival
    /// times and drop decisions stay exact, but same-instant event ties
    /// across links resolve in commit order, which perturbs tightly
    /// synchronized workloads slightly. Set with
    /// `ScenarioBuilder::tx_batch`.
    pub(crate) tx_batch: u32,
    /// Attach the telemetry layer with this configuration (`None` = off).
    /// Enabling it never changes simulation behaviour or the report
    /// digest; it only collects counters, samples, and trace events.
    pub(crate) telemetry: Option<TelemetryConfig>,
}

/// Read accessors.
impl Scenario {
    /// Run label.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
    /// Scheme under test.
    pub fn scheme(&self) -> &SchemeSpec {
        &self.scheme
    }
    /// Clos parameters.
    pub fn clos(&self) -> &ClosSpec {
        &self.clos
    }
    /// 3-tier topology override, if any.
    pub fn three_tier(&self) -> Option<&ThreeTierSpec> {
        self.three_tier.as_ref()
    }
    /// Simulated duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
    /// Measurement-window start.
    pub fn warmup(&self) -> SimDuration {
        self.warmup
    }
    /// Flows to run.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }
    /// Mice series.
    pub fn mice(&self) -> &[MiceSpec] {
        &self.mice
    }
    /// RTT probe pairs.
    pub fn probes(&self) -> &[(usize, usize)] {
        &self.probes
    }
    /// Probe send interval.
    pub fn probe_interval(&self) -> SimDuration {
        self.probe_interval
    }
    /// Shuffle workload, if any.
    pub fn shuffle(&self) -> Option<ShuffleSpec> {
        self.shuffle
    }
    /// Partition-aggregate incast workload, if any.
    pub fn incast(&self) -> Option<IncastSpec> {
        self.incast
    }
    /// Ring-allreduce collective workload, if any.
    pub fn allreduce(&self) -> Option<AllreduceSpec> {
        self.allreduce
    }
    /// The fault timeline.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }
    /// Number of WAN remotes.
    pub fn wan_remotes(&self) -> usize {
        self.wan_remotes
    }
    /// Is Fig 5a reorder collection on?
    pub fn collect_reorder(&self) -> bool {
        self.collect_reorder
    }
    /// CPU utilization sampling period, if any.
    pub fn cpu_sample(&self) -> Option<SimDuration> {
        self.cpu_sample
    }
    /// Host uplink queue capacity in bytes.
    pub fn host_uplink_queue(&self) -> u64 {
        self.host_uplink_queue
    }
    /// Link departure batch.
    pub fn tx_batch(&self) -> u32 {
        self.tx_batch
    }
    /// Telemetry configuration, if attached.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.telemetry
    }
}

impl Scenario {
    /// The paper's 16-host, 4-spine, 4-leaf testbed (Fig 3) with default
    /// measurement windows. Thin wrapper over [`Scenario::builder`].
    pub fn testbed16(scheme: SchemeSpec, seed: u64) -> Self {
        Self::builder(scheme, seed).build()
    }

    /// The Fig 4a scalability topology: 2 leaves × `paths` spines, 8 hosts
    /// per leaf. Thin wrapper over [`Scenario::builder`].
    pub fn scalability(scheme: SchemeSpec, paths: usize, seed: u64) -> Self {
        Self::builder(scheme, seed)
            .topology(ClosSpec {
                spines: paths,
                leaves: 2,
                hosts_per_leaf: 8,
                ..ClosSpec::default()
            })
            .build()
    }

    /// The Fig 4b oversubscription topology: 2 leaves × 2 spines. Thin
    /// wrapper over [`Scenario::builder`].
    pub fn oversubscription(scheme: SchemeSpec, seed: u64) -> Self {
        Self::builder(scheme, seed)
            .topology(ClosSpec {
                spines: 2,
                leaves: 2,
                hosts_per_leaf: 8,
                ..ClosSpec::default()
            })
            .build()
    }

    /// Number of server hosts in the chosen topology.
    pub fn n_servers(&self) -> usize {
        match &self.three_tier {
            Some(tt) => tt.host_count(),
            None => self.clos.leaves * self.clos.hosts_per_leaf,
        }
    }

    /// Assemble and run the experiment.
    pub fn run(&self) -> Report {
        let mut sim = self.build();
        sim.run()
    }

    /// Run with the telemetry layer attached — `self.telemetry` if set,
    /// the default configuration otherwise — and return the figure report
    /// together with the telemetry report.
    pub fn run_traced(&self) -> (Report, TelemetryReport) {
        let mut sim = self.build();
        if !sim.telemetry_enabled() {
            sim.enable_telemetry(TelemetryConfig::default());
        }
        let report = sim.run();
        let telemetry = sim.telemetry_report().expect("telemetry enabled");
        (report, telemetry)
    }

    /// Server hosts that send or receive anything in this scenario, or
    /// `None` when every server does (including shuffles, which are
    /// all-to-all). Drives the scoped forwarding-state installs: on an
    /// 8192-host fabric with a sparse workload, routing and label state
    /// is only materialized for the hosts that will ever see a packet.
    fn active_servers(&self) -> Option<Vec<bool>> {
        let n_servers = self.n_servers();
        if self.shuffle.is_some() {
            return None;
        }
        let mut active = vec![false; n_servers];
        let mut mark = |h: usize| {
            // WAN-remote indices sit past the servers; their routing is
            // installed by the attach step, not the basic install.
            if h < n_servers {
                active[h] = true;
            }
        };
        for f in &self.flows {
            mark(f.src);
            mark(f.dst);
        }
        for m in &self.mice {
            mark(m.src);
            mark(m.dst);
        }
        for &(src, dst) in &self.probes {
            mark(src);
            mark(dst);
        }
        if let Some(inc) = &self.incast {
            mark(inc.aggregator);
            // A probing (load-aware) aggregator may pick replicas from the
            // whole server pool, so every server can see traffic.
            if matches!(self.scheme.policy, PolicyKind::Prequal(_)) {
                for w in 0..n_servers {
                    mark(w);
                }
            } else {
                for w in patterns::incast_senders(n_servers, inc.aggregator, inc.fanout) {
                    mark(w);
                }
            }
        }
        if let Some(ar) = &self.allreduce {
            for (src, dst) in patterns::ring(ar.participants) {
                mark(src);
                mark(dst);
            }
        }
        if active.iter().all(|&a| a) {
            None
        } else {
            Some(active)
        }
    }

    /// Assemble the simulator without running it — useful for inspection
    /// and custom drivers.
    pub fn build(&self) -> Simulation {
        let n_servers = self.n_servers();
        let active = self.active_servers();
        // 1. Topology.
        let mut topo = if self.scheme.single_switch {
            Topology::single_switch(
                n_servers,
                self.clos.link_rate_bps,
                self.clos.propagation,
                self.clos.queue_bytes,
            )
        } else if let Some(tt) = &self.three_tier {
            Topology::three_tier(tt)
        } else {
            Topology::clos(&self.clos)
        };

        // 2. Forwarding state + controller, scoped to active hosts (a
        // `None` filter installs for everyone — identical to the legacy
        // unscoped path).
        let controller = if self.scheme.needs_controller() {
            Some(Controller::install_for(&mut topo, active.as_deref()))
        } else {
            topo.install_basic_routing_for(active.as_deref());
            None
        };

        // 3. ECMP hash mode.
        let n_sw = topo.fabric.switches().len();
        for i in 0..n_sw {
            topo.fabric
                .switch_mut(presto_netsim::SwitchId(i as u32))
                .ecmp_mode = self.scheme.ecmp_mode;
        }

        // 4. WAN remotes (north-south), attached round-robin to the
        // fabric's top tier (the spines on 2-tier, the cores on 3-tier).
        for w in 0..self.wan_remotes {
            let attach = if self.scheme.single_switch {
                topo.leaves[0]
            } else {
                let top = topo.top_tier();
                top[w % top.len()]
            };
            let wan = topo.attach_extra_host(
                attach,
                presto_workloads::northsouth::WAN_RATE_BPS,
                self.clos.propagation,
                self.clos.queue_bytes,
            );
            if !self.scheme.single_switch {
                // Teach the fabric the way to this remote: exact L2
                // entries along every leaf's ascending route to the
                // switch it hangs off.
                let leaves = topo.leaves.clone();
                for leaf in leaves {
                    for (sw, up) in topo.up_route(leaf, attach) {
                        topo.fabric.switch_mut(sw).install_l2(Mac::host(wan), up);
                    }
                }
            }
        }

        // 5. Sender NICs backpressure rather than drop: large uplink queues.
        for &up in &topo.host_up.clone() {
            topo.fabric.link_mut(up).queue_capacity_bytes = self.host_uplink_queue;
        }

        // 5b. ECN: arm the marking threshold on every switch-egress queue
        // (switch→switch and switch→host; DCTCP's K lives in the switches,
        // not the sender NIC). `None` — the default — leaves every link's
        // behaviour bit-identical to the pre-ECN testbed.
        if let Some(k) = self.scheme.ecn {
            for l in topo.fabric.links_mut() {
                if matches!(l.src, presto_netsim::Node::Switch(_)) {
                    l.ecn_threshold_bytes = Some(k);
                }
            }
        }

        // 6. Per-destination label sequences (server destinations only;
        // same-leaf pairs stay direct — no spine crossing needed). With
        // an active-host filter, labels are materialized only for
        // communicating pairs — both directions, since ACKs ride the
        // reverse path — instead of all n² of them.
        let peers: Option<Vec<Vec<usize>>> = active.as_ref().map(|_| {
            let mut sets: Vec<std::collections::BTreeSet<usize>> =
                vec![Default::default(); topo.host_count()];
            let mut link = |a: usize, b: usize| {
                if a < sets.len() && b < sets.len() && a != b {
                    sets[a].insert(b);
                    sets[b].insert(a);
                }
            };
            for f in &self.flows {
                link(f.src, f.dst);
            }
            for m in &self.mice {
                link(m.src, m.dst);
            }
            for &(src, dst) in &self.probes {
                link(src, dst);
            }
            if let Some(inc) = &self.incast {
                // Mirror `active_servers`: a probing aggregator may select
                // any server as a replica, so labels must exist for every
                // (server, aggregator) pair.
                if matches!(self.scheme.policy, PolicyKind::Prequal(_)) {
                    for w in 0..n_servers {
                        link(w, inc.aggregator);
                    }
                } else {
                    for w in patterns::incast_senders(n_servers, inc.aggregator, inc.fanout) {
                        link(w, inc.aggregator);
                    }
                }
            }
            if let Some(ar) = &self.allreduce {
                for (src, dst) in patterns::ring(ar.participants) {
                    link(src, dst);
                }
            }
            sets.into_iter().map(|s| s.into_iter().collect()).collect()
        });
        let label_sets: Vec<Vec<(HostId, Vec<Mac>)>> = topo
            .hosts
            .iter()
            .map(|&src| {
                let mut v = Vec::new();
                if self.scheme.single_switch {
                    return v;
                }
                let push_dst = |dst: usize, v: &mut Vec<(HostId, Vec<Mac>)>| {
                    if dst >= n_servers {
                        return;
                    }
                    let dst = HostId(dst as u32);
                    if dst == src || topo.same_leaf(src, dst) {
                        return;
                    }
                    let labels = match (&controller, self.scheme.policy) {
                        (_, PolicyKind::PrestoEcmp) => vec![Mac::host(dst)],
                        (Some(ctl), _) => ctl.labels_for(dst),
                        (None, _) => return,
                    };
                    v.push((dst, labels));
                };
                match &peers {
                    Some(p) => {
                        for &dst in &p[src.index()] {
                            push_dst(dst, &mut v);
                        }
                    }
                    None => {
                        for dst in 0..n_servers {
                            push_dst(dst, &mut v);
                        }
                    }
                }
                v
            })
            .collect();

        // 7. Hosts.
        let scheme = self.scheme.clone();
        let seed = self.seed;
        let mk_host = |h: HostId| {
            // The registry is the single place policies are instantiated;
            // adding a scheme never touches this file.
            let mut policy = crate::registry::build_policy(&scheme, seed);
            for (dst, labels) in &label_sets[h.index()] {
                policy.set_labels(*dst, labels.clone());
            }
            if !label_sets[h.index()].is_empty() {
                policy.labels_updated(SimTime::ZERO);
            }
            let gro: Box<dyn ReceiveOffload> = match scheme.gro {
                GroKind::Official => Box::new(OfficialGro::new()),
                GroKind::Presto => Box::new(PrestoGro::new()),
                GroKind::PrestoFixedTimeout(d) => {
                    Box::new(PrestoGro::with_config(PrestoGroConfig::fixed(d)))
                }
            };
            let presto_extra = !matches!(scheme.gro, GroKind::Official);
            make_host(policy, gro, h, presto_extra)
        };

        let end = SimTime::ZERO + self.duration;
        let warm = SimTime::ZERO + self.warmup;
        let mut sim = Simulation::new(topo, self.scheme.clone(), mk_host, end, warm);
        sim.topo.fabric.set_tx_batch(self.tx_batch);
        sim.controller = controller;
        sim.label_pairs = label_sets
            .iter()
            .map(|v| v.iter().map(|(dst, _)| *dst).collect())
            .collect();
        sim.collect_reorder = self.collect_reorder;
        sim.cpu_sample_every = self.cpu_sample;
        if let Some(cfg) = self.telemetry {
            sim.enable_telemetry(cfg);
        }

        // 8. Applications.
        for spec in &self.flows {
            let idx = sim.pending_flows.len();
            sim.pending_flows.push(PendingFlow {
                src: spec.src,
                dst: spec.dst,
                bytes: spec.bytes,
                measure_fct: spec.measure_fct,
                tag: FlowTag::Plain,
            });
            sim.schedule(spec.start, Event::FlowStart(idx));
        }
        for (i, m) in self.mice.iter().enumerate() {
            sim.mice_series.push(MiceSeries {
                src: m.src,
                dst: m.dst,
                bytes: m.bytes,
                interval: m.interval,
            });
            // Stagger series starts across one interval.
            let offset = m.interval.mul_f64((i % 16) as f64 / 16.0);
            sim.schedule(SimTime::ZERO + m.interval + offset, Event::MiceNext(i));
        }
        for (i, &(src, dst)) in self.probes.iter().enumerate() {
            let offset = self.probe_interval.mul_f64((i % 16) as f64 / 16.0);
            sim.add_pinger(src, dst, self.probe_interval, SimTime::ZERO + offset);
        }
        if let Some(sh) = &self.shuffle {
            let mut rng = DetRng::new(self.seed ^ 0x5F);
            let orders = patterns::shuffle_orders(n_servers, &mut rng);
            sim.shuffle = Some(ShuffleState {
                orders,
                pos: vec![0; n_servers],
                active: vec![0; n_servers],
                concurrency: sh.concurrency,
                bytes: sh.bytes,
                tputs: Vec::new(),
            });
            for src in 0..n_servers {
                sim.schedule(SimTime::ZERO, Event::ShuffleMore(src));
            }
        }
        if let Some(inc) = &self.incast {
            let senders = patterns::incast_senders(n_servers, inc.aggregator, inc.fanout);
            // Load-oblivious schemes always use the static sender set; a
            // probing aggregator chooses `fanout` replicas per request
            // from the whole server pool.
            let candidates = if matches!(self.scheme.policy, PolicyKind::Prequal(_)) {
                (0..n_servers).filter(|&w| w != inc.aggregator).collect()
            } else {
                senders.clone()
            };
            sim.incast = Some(IncastState {
                aggregator: inc.aggregator,
                senders,
                candidates,
                bytes_per_worker: inc.bytes_per_worker,
                interval: inc.interval,
                deadline: inc.deadline,
                requests: Vec::new(),
                tracker: Default::default(),
            });
            sim.schedule(SimTime::ZERO, Event::IncastNext);
        }
        if let Some(ar) = &self.allreduce {
            sim.allreduce = Some(AllreduceState {
                ring: patterns::ring(ar.participants),
                bytes: ar.bytes,
                outstanding: 0,
                round_start: SimTime::ZERO,
                rounds_completed: 0,
                round_ms: Vec::new(),
            });
            sim.schedule(SimTime::ZERO, Event::AllreduceRound);
        }

        // 9. Fault timeline: expand flap processes from the scenario seed,
        // resolve (leaf, spine, link) coordinates against the built
        // topology, and schedule each fault with its controller
        // notification.
        let timeline = self.faults.schedule(self.seed ^ FAULT_SEED_SALT);
        if !timeline.is_empty() {
            assert!(!self.scheme.single_switch, "fault injection needs a fabric");
        }
        for ev in &timeline {
            let fault = resolve_fault(&sim.topo, ev);
            sim.schedule_fault(fault);
        }

        sim
    }
}

/// Turn a fault event's structural `(leaf, spine, link)` coordinates into
/// concrete fabric link ids. `spine` indexes the leaf's upper-tier
/// neighbor list (the spine index on a 2-tier Clos, the pod-local
/// aggregation position on 3-tier). Every action covers both directions
/// of the pair; switch-wide events expand to every link touching the
/// switch (lower neighbors first, then — on 3-tier — its own uplinks, in
/// connection order, for determinism).
fn resolve_fault(topo: &Topology, ev: &FaultEvent) -> ResolvedFault {
    let pair = |leaf: usize, spine: usize, link: usize| {
        let lf = topo.leaves[leaf];
        let up_nbr = topo.up_neighbors(lf)[spine];
        let up = topo.pair_links[&(lf, up_nbr)][link];
        let down = topo.pair_links[&(up_nbr, lf)][link];
        (up, down, lf)
    };
    let switch_wide = |tier: usize, index: usize, mk: fn(presto_netsim::LinkId) -> FaultAction| {
        let sw = topo.tiers[tier][index];
        let mut acts = Vec::new();
        for &below in topo.down_neighbors(sw) {
            for &l in &topo.pair_links[&(below, sw)] {
                acts.push(mk(l));
            }
            for &l in &topo.pair_links[&(sw, below)] {
                acts.push(mk(l));
            }
        }
        for &above in topo.up_neighbors(sw) {
            for &l in &topo.pair_links[&(sw, above)] {
                acts.push(mk(l));
            }
            for &l in &topo.pair_links[&(above, sw)] {
                acts.push(mk(l));
            }
        }
        acts
    };
    let (actions, leaf) = match ev.kind {
        FaultKind::LinkDown { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (vec![FaultAction::Down(u), FaultAction::Down(d)], Some(lf))
        }
        FaultKind::LinkUp { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (vec![FaultAction::Up(u), FaultAction::Up(d)], Some(lf))
        }
        FaultKind::LinkDegrade {
            leaf,
            spine,
            link,
            fraction,
        } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (
                vec![
                    FaultAction::Degrade(u, fraction),
                    FaultAction::Degrade(d, fraction),
                ],
                Some(lf),
            )
        }
        FaultKind::LinkRestore { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (
                vec![FaultAction::Restore(u), FaultAction::Restore(d)],
                Some(lf),
            )
        }
        FaultKind::SwitchDown { tier, index } => {
            (switch_wide(tier, index, FaultAction::Down), None)
        }
        FaultKind::SwitchUp { tier, index } => (switch_wide(tier, index, FaultAction::Up), None),
    };
    ResolvedFault {
        at: ev.at,
        actions,
        degrading: ev.kind.is_degrading(),
        leaf,
        notify_at: ev.notify.at(ev.at),
    }
}

/// Unbounded elephants on the stride(k) pattern.
pub fn stride_elephants(n_hosts: usize, k: usize) -> Vec<FlowSpec> {
    patterns::stride(n_hosts, k)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

/// Unbounded elephants on the random pattern.
pub fn random_elephants(n_hosts: usize, hosts_per_pod: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = DetRng::new(seed ^ 0xA11);
    patterns::random(n_hosts, hosts_per_pod, &mut rng)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

/// Unbounded elephants on the random-bijection pattern.
pub fn bijection_elephants(n_hosts: usize, hosts_per_pod: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = DetRng::new(seed ^ 0xB13);
    patterns::random_bijection(n_hosts, hosts_per_pod, &mut rng)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_flow_lists() {
        let s = stride_elephants(16, 8);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|f| f.bytes.is_none()));
        let b = bijection_elephants(16, 4, 1);
        assert_eq!(b.len(), 16);
        let r = random_elephants(16, 4, 1);
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn testbed16_defaults() {
        let s = Scenario::testbed16(SchemeSpec::presto(), 1);
        assert_eq!(s.n_servers(), 16);
        assert_eq!(s.clos().spines, 4);
        assert!(s.faults().is_empty());
        let s = Scenario::scalability(SchemeSpec::ecmp(), 6, 1);
        assert_eq!(s.clos().spines, 6);
        assert_eq!(s.n_servers(), 16);
        let s = Scenario::oversubscription(SchemeSpec::mptcp(), 1);
        assert_eq!(s.clos().spines, 2);
    }

    #[test]
    fn failure_spec_converts_to_fault_plan() {
        let spec = FailureSpec {
            at: SimTime::from_millis(10),
            leaf: 1,
            spine: 2,
            link: 0,
            controller_at: Some(SimTime::from_millis(14)),
        };
        let plan = FaultPlan::from(spec);
        let sched = plan.schedule(0);
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].at, SimTime::from_millis(10));
        assert_eq!(
            sched[0].kind,
            FaultKind::LinkDown {
                leaf: 1,
                spine: 2,
                link: 0
            }
        );
        assert_eq!(
            sched[0].notify.at(sched[0].at),
            Some(SimTime::from_millis(14))
        );
        // A dropped notification survives the conversion.
        let plan = FaultPlan::from(FailureSpec {
            controller_at: None,
            ..spec
        });
        assert_eq!(plan.schedule(0)[0].notify, Notify::Never);
    }

    #[test]
    fn fault_resolution_covers_both_directions() {
        let s = Scenario::builder(SchemeSpec::presto(), 3)
            .faults(FaultPlan::new().link_down(SimTime::from_millis(5), 0, 1, 0, Notify::Immediate))
            .build();
        let sim = s.build();
        assert_eq!(sim.faults.len(), 1);
        let f = &sim.faults[0];
        assert_eq!(f.actions.len(), 2, "up- and downlink fail together");
        assert!(f.degrading);
        assert_eq!(f.notify_at, Some(SimTime::from_millis(5)));
        assert!(f.leaf.is_some());
    }

    #[test]
    fn spine_fault_resolves_to_all_leaves() {
        let s = Scenario::builder(SchemeSpec::presto(), 3)
            .faults(FaultPlan::new().spine_down(SimTime::from_millis(5), 1, Notify::Never))
            .build();
        let sim = s.build();
        let f = &sim.faults[0];
        // 4 leaves × (1 uplink + 1 downlink) toward the spine.
        assert_eq!(f.actions.len(), 8);
        assert_eq!(f.leaf, None, "spine faults touch every leaf");
        assert_eq!(f.notify_at, None);
    }
}
