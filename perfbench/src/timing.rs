//! Layer timing from outside the program: wrappers that sit where the
//! simulator calls into GRO (`ReceiveOffload`, Algorithm 2) and into the
//! edge policy (`EdgePolicy`, Algorithm 1 and the probe hooks), time
//! each call, and forward it unchanged.
//!
//! Both wrappers forward every trait method, the defaulted ones too: a
//! missing `probe_params` or `feedback_interval` would silently turn
//! probing or path feedback off and change the run.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use presto_endhost::{EdgePolicy, PathSignal, PathTag, ReceiveOffload, Segment, VSwitch};
use presto_netsim::{FlowKey, HostId, Mac, Packet};
use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::{FlushReason, SharedSink};
use presto_testbed::{HostLoad, PoolStats, ProbeParams, Simulation};

/// Time spent in, and calls made to, one layer.
#[derive(Debug, Default)]
pub struct Span {
    busy: Cell<Duration>,
    calls: Cell<u64>,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy.set(self.busy.get() + start.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Seconds spent inside the layer.
    pub fn seconds(&self) -> f64 {
        self.busy.get().as_secs_f64()
    }

    /// Calls into the layer.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// The spans one instrumented simulation records.
#[derive(Debug, Default)]
pub struct LayerClock {
    /// Every `ReceiveOffload` call (Algorithm 2).
    pub gro: Span,
    /// `EdgePolicy::assign` (Algorithm 1 and the baseline policies).
    pub assign: Span,
    /// The policy's probe hooks (receiver-load probing):
    /// `probe_feedback`, `probe_params`, `select_replicas` and
    /// `probe_pool_stats`. Zero where no policy probes: the simulator
    /// asks for `probe_params` when it is built, before the wrappers go
    /// in, and calls no probe hook during a run without probe rounds.
    pub probe: Span,
}

/// Wrap every host's GRO engine and edge policy in a timing wrapper,
/// and return the clock they share.
pub fn instrument(sim: &mut Simulation) -> Rc<LayerClock> {
    let clock = Rc::new(LayerClock::default());
    for host in &mut sim.hosts {
        let gro = std::mem::replace(&mut host.gro, Box::new(Unplugged));
        host.gro = Box::new(TimedGro {
            inner: gro,
            clock: Rc::clone(&clock),
        });
        let id = host.vswitch.host;
        let (segments, bytes) = (host.vswitch.tx_segments, host.vswitch.tx_bytes);
        let inner = std::mem::replace(&mut host.vswitch, VSwitch::new(id, Box::new(Unplugged)));
        host.vswitch = VSwitch::new(
            id,
            Box::new(TimedPolicy {
                inner,
                clock: Rc::clone(&clock),
            }),
        );
        host.vswitch.tx_segments = segments;
        host.vswitch.tx_bytes = bytes;
    }
    clock
}

/// Placeholder that fills a slot for the instant between taking the
/// original out and putting the wrapper in. Never called.
struct Unplugged;

impl ReceiveOffload for Unplugged {
    fn on_packet(&mut self, _: SimTime, _: &Packet) {
        unreachable!("placeholder GRO")
    }
    fn flush(&mut self, _: SimTime) -> Vec<Segment> {
        unreachable!("placeholder GRO")
    }
    fn next_deadline(&self) -> Option<SimTime> {
        unreachable!("placeholder GRO")
    }
    fn flush_expired(&mut self, _: SimTime) -> Vec<Segment> {
        unreachable!("placeholder GRO")
    }
}

impl EdgePolicy for Unplugged {
    fn assign(&mut self, _: SimTime, _: FlowKey, _: u32, _: bool) -> PathTag {
        unreachable!("placeholder policy")
    }
}

/// Times every call into the wrapped GRO engine.
struct TimedGro {
    inner: Box<dyn ReceiveOffload>,
    clock: Rc<LayerClock>,
}

impl ReceiveOffload for TimedGro {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        self.clock.gro.time(|| self.inner.on_packet(now, pkt))
    }
    fn flush(&mut self, now: SimTime) -> Vec<Segment> {
        self.clock.gro.time(|| self.inner.flush(now))
    }
    fn flush_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.clock.gro.time(|| self.inner.flush_into(now, out))
    }
    fn next_deadline(&self) -> Option<SimTime> {
        self.clock.gro.time(|| self.inner.next_deadline())
    }
    fn flush_expired(&mut self, now: SimTime) -> Vec<Segment> {
        self.clock.gro.time(|| self.inner.flush_expired(now))
    }
    fn flush_expired_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.clock
            .gro
            .time(|| self.inner.flush_expired_into(now, out))
    }
    fn reorder_stats(&self) -> (u64, u64) {
        self.inner.reorder_stats()
    }
    fn flush_reason_counts(&self) -> [u64; FlushReason::COUNT] {
        self.inner.flush_reason_counts()
    }
    fn set_telemetry(&mut self, host: u32, sink: SharedSink) {
        self.inner.set_telemetry(host, sink)
    }
    fn ce_merge_count(&self) -> u64 {
        self.inner.ce_merge_count()
    }
}

/// Owns a host's original vSwitch and forwards to its policy, timing
/// `assign` and the probe hooks.
struct TimedPolicy {
    inner: VSwitch,
    clock: Rc<LayerClock>,
}

impl EdgePolicy for TimedPolicy {
    fn assign(&mut self, now: SimTime, flow: FlowKey, len: u32, retx: bool) -> PathTag {
        let policy = self.inner.policy_mut();
        self.clock
            .assign
            .time(|| policy.assign(now, flow, len, retx))
    }
    fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        self.inner.policy_mut().set_labels(dst, labels)
    }
    fn current_labels(&self, dst: HostId) -> Vec<Mac> {
        self.inner.policy().current_labels(dst)
    }
    fn flowlet_sizes(&self) -> Vec<u64> {
        self.inner.policy().flowlet_sizes()
    }
    fn flowcells_created(&self) -> u64 {
        self.inner.policy().flowcells_created()
    }
    fn path_spray_counts(&self) -> Vec<u64> {
        self.inner.policy().path_spray_counts()
    }
    fn labels_updated(&mut self, now: SimTime) {
        self.inner.policy_mut().labels_updated(now)
    }
    fn flow_hint(&mut self, flow: FlowKey, bytes: Option<u64>) {
        self.inner.policy_mut().flow_hint(flow, bytes)
    }
    fn path_feedback(&mut self, now: SimTime, signals: &[PathSignal]) {
        self.inner.policy_mut().path_feedback(now, signals)
    }
    fn feedback_interval(&self) -> Option<SimDuration> {
        self.inner.policy().feedback_interval()
    }
    fn probe_params(&self) -> Option<ProbeParams> {
        let policy = self.inner.policy();
        self.clock.probe.time(|| policy.probe_params())
    }
    fn probe_feedback(&mut self, now: SimTime, loads: &[HostLoad]) {
        let policy = self.inner.policy_mut();
        self.clock.probe.time(|| policy.probe_feedback(now, loads))
    }
    fn select_replicas(
        &mut self,
        now: SimTime,
        candidates: &[HostId],
        k: usize,
    ) -> Option<Vec<HostId>> {
        let policy = self.inner.policy_mut();
        self.clock
            .probe
            .time(|| policy.select_replicas(now, candidates, k))
    }
    fn probe_pool_stats(&self) -> Option<PoolStats> {
        let policy = self.inner.policy();
        self.clock.probe.time(|| policy.probe_pool_stats())
    }
}
