//! The application layer: every flow-driving workload behind one [`App`]
//! interface (DESIGN.md §17).
//!
//! A timer an app arms comes back as `Event::App(app, token)`; a flow it
//! starts carries a [`FlowTag`], so its completion comes back with the
//! same token. Hooks return [`Actions`] instead of touching the
//! simulation, which applies them after the hook returns: flows first,
//! then timers, each in the order given. That order is the event-queue
//! push order every pinned digest encodes.

use presto_metrics::DeadlineTracker;
use presto_netsim::HostId;
use presto_simcore::rng::DetRng;
use presto_simcore::SimTime;
use presto_workloads::{patterns, FlowSpec};

use crate::report::Report;
use crate::scenario::{AllreduceSpec, IncastSpec, MiceSpec, ShuffleSpec};
use crate::sim::HostNode;

/// The owner of a flow: the index of the app that started it and the
/// token the app gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTag {
    /// Index into the simulation's app list.
    pub app: u32,
    /// App-defined token, handed back to the app when the flow completes.
    pub token: u32,
}

/// A flow an app asks the simulation to start now.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewFlow {
    /// Sender host index.
    pub src: usize,
    /// Receiver host index.
    pub dst: usize,
    /// `None` = unbounded elephant.
    pub bytes: Option<u64>,
    /// Record the flow's completion time in `Report::mice_fct_ms` (flows
    /// started after warmup only).
    pub measure_fct: bool,
    /// Handed back to [`App::on_flow_done`] when the flow completes.
    pub token: u32,
}

/// What a hook asks of the simulation: start `flows`, then arm `timers`
/// as `(time, token)` pairs, each in order.
#[derive(Default)]
pub(crate) struct Actions {
    /// Flows to start now.
    pub flows: Vec<NewFlow>,
    /// Timers to arm.
    pub timers: Vec<(SimTime, u32)>,
}

/// The part of the simulation a hook may see: the clock, the measurement
/// window, and the edge policies' replica choice.
pub(crate) struct AppCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Start of the measurement window.
    pub warmup: SimTime,
    /// End of simulated time.
    pub end: SimTime,
    pub(crate) host_ids: &'a [HostId],
    pub(crate) hosts: &'a mut [HostNode],
}

impl AppCtx<'_> {
    /// Offer `candidates` to host `at`'s edge policy
    /// ([`EdgePolicy::select_replicas`](presto_endhost::EdgePolicy::select_replicas))
    /// and return the `k` hosts it picks, or `None` when the policy does
    /// not choose.
    pub(crate) fn select_replicas(
        &mut self,
        at: usize,
        candidates: &[usize],
        k: usize,
    ) -> Option<Vec<usize>> {
        let ids: Vec<HostId> = candidates.iter().map(|&c| self.host_ids[c]).collect();
        self.hosts[self.host_ids[at].index()]
            .vswitch
            .policy_mut()
            .select_replicas(self.now, &ids, k)
            .map(|hs| hs.into_iter().map(|h| h.index()).collect())
    }
}

/// A workload that drives flows.
pub(crate) trait App {
    /// Called once when the app joins the simulation, before the run. By
    /// default arms one timer at time zero with token 0.
    fn start(&mut self, _cx: &mut AppCtx) -> Actions {
        Actions {
            timers: vec![(SimTime::ZERO, 0)],
            ..Actions::default()
        }
    }
    /// A timer this app armed with `token` fired.
    fn on_timer(&mut self, token: u32, cx: &mut AppCtx) -> Actions;
    /// A flow this app started with `token` at `started` completed.
    fn on_flow_done(&mut self, _token: u32, _started: SimTime, _cx: &mut AppCtx) -> Actions {
        Actions::default()
    }
    /// Write this app's results into the report. Apps report in reverse
    /// order of joining, so shuffle goodputs precede the static flows'
    /// bulk goodputs in `elephant_tputs`.
    fn report(&self, _report: &mut Report) {}
}

/// Goodput of `bytes` moved between `started` and `now`, in Gbps; `None`
/// for a zero-length interval.
fn goodput_gbps(bytes: u64, started: SimTime, now: SimTime) -> Option<f64> {
    let dur = now.saturating_since(started).as_secs_f64();
    (dur > 0.0).then(|| bytes as f64 * 8.0 / dur / 1e9)
}

/// Flows with fixed start times: elephants, single mice, trace replay.
/// The token is the flow's index.
pub(crate) struct StaticFlows {
    flows: Vec<FlowSpec>,
    /// Goodputs of bounded ≥ 1 MB transfers started after warmup, Gbps.
    bulk_tputs: Vec<f64>,
}

impl StaticFlows {
    /// Run `flows`.
    pub(crate) fn new(flows: Vec<FlowSpec>) -> Self {
        StaticFlows {
            flows,
            bulk_tputs: Vec::new(),
        }
    }
}

impl App for StaticFlows {
    fn start(&mut self, _cx: &mut AppCtx) -> Actions {
        Actions {
            timers: (self.flows.iter().enumerate())
                .map(|(i, f)| (f.start, i as u32))
                .collect(),
            ..Actions::default()
        }
    }

    fn on_timer(&mut self, token: u32, _cx: &mut AppCtx) -> Actions {
        let f = &self.flows[token as usize];
        Actions {
            flows: vec![NewFlow {
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                measure_fct: f.measure_fct,
                token,
            }],
            ..Actions::default()
        }
    }

    fn on_flow_done(&mut self, token: u32, started: SimTime, cx: &mut AppCtx) -> Actions {
        let f = &self.flows[token as usize];
        let bytes = f.bytes.unwrap_or(0);
        if !f.measure_fct && bytes >= 1_000_000 && started >= cx.warmup {
            self.bulk_tputs.extend(goodput_gbps(bytes, started, cx.now));
        }
        Actions::default()
    }

    fn report(&self, report: &mut Report) {
        report.elephant_tputs.extend_from_slice(&self.bulk_tputs);
    }
}

/// "50 KB every 100 ms" mice series (§4). The token is the series index.
pub(crate) struct Mice {
    series: Vec<MiceSpec>,
}

impl Mice {
    /// Run `series`.
    pub(crate) fn new(series: Vec<MiceSpec>) -> Self {
        Mice { series }
    }
}

impl App for Mice {
    fn start(&mut self, _cx: &mut AppCtx) -> Actions {
        // Stagger series starts across one interval.
        let timers = (self.series.iter().enumerate())
            .map(|(i, m)| {
                let offset = m.interval.mul_f64((i % 16) as f64 / 16.0);
                (SimTime::ZERO + m.interval + offset, i as u32)
            })
            .collect();
        Actions {
            timers,
            ..Actions::default()
        }
    }

    fn on_timer(&mut self, token: u32, cx: &mut AppCtx) -> Actions {
        let m = self.series[token as usize];
        let next = cx.now + m.interval;
        Actions {
            flows: vec![NewFlow {
                src: m.src,
                dst: m.dst,
                bytes: Some(m.bytes),
                measure_fct: true,
                token,
            }],
            timers: if next < cx.end {
                vec![(next, token)]
            } else {
                Vec::new()
            },
        }
    }
}

/// Shuffle: every server sends to every other server in a seeded order,
/// `concurrency` transfers at a time. The token is the source host.
pub(crate) struct Shuffle {
    spec: ShuffleSpec,
    /// Destination order per source, consumed through `pos`.
    orders: Vec<Vec<usize>>,
    /// Next unstarted index into `orders[src]`, per source.
    pos: Vec<usize>,
    /// Transfers in flight per source.
    active: Vec<usize>,
    /// Completed transfer goodputs, Gbps.
    tputs: Vec<f64>,
}

impl Shuffle {
    /// A shuffle over `n_servers` hosts, its orders drawn from `seed`.
    pub(crate) fn new(spec: ShuffleSpec, n_servers: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x5F);
        Shuffle {
            spec,
            orders: patterns::shuffle_orders(n_servers, &mut rng),
            pos: vec![0; n_servers],
            active: vec![0; n_servers],
            tputs: Vec::new(),
        }
    }
}

impl App for Shuffle {
    fn start(&mut self, _cx: &mut AppCtx) -> Actions {
        Actions {
            timers: (0..self.orders.len())
                .map(|src| (SimTime::ZERO, src as u32))
                .collect(),
            ..Actions::default()
        }
    }

    fn on_timer(&mut self, token: u32, _cx: &mut AppCtx) -> Actions {
        let src = token as usize;
        let mut acts = Actions::default();
        while self.active[src] < self.spec.concurrency && self.pos[src] < self.orders[src].len() {
            self.active[src] += 1;
            acts.flows.push(NewFlow {
                src,
                dst: self.orders[src][self.pos[src]],
                bytes: Some(self.spec.bytes),
                measure_fct: false,
                token,
            });
            self.pos[src] += 1;
        }
        acts
    }

    fn on_flow_done(&mut self, token: u32, started: SimTime, cx: &mut AppCtx) -> Actions {
        self.tputs
            .extend(goodput_gbps(self.spec.bytes, started, cx.now));
        self.active[token as usize] -= 1;
        Actions {
            timers: vec![(cx.now, token)],
            ..Actions::default()
        }
    }

    fn report(&self, report: &mut Report) {
        report.elephant_tputs.extend_from_slice(&self.tputs);
    }
}

/// Partition-aggregate incast: every `interval` the aggregator issues a
/// request that `fanout` workers answer at once, and the request completes
/// when its last response lands, held against `deadline`. The timer token
/// is unused; a response's token is its request id.
pub(crate) struct Incast {
    spec: IncastSpec,
    /// The static responder set.
    senders: Vec<usize>,
    /// Hosts offered to the aggregator policy's replica choice each
    /// request. For load-oblivious policies this equals `senders`, and the
    /// policy declines, so every request goes to `senders`.
    candidates: Vec<usize>,
    /// Per request: `(issued_at, responses outstanding)`.
    requests: Vec<(SimTime, usize)>,
    /// Deadline accounting for requests issued after warmup.
    tracker: DeadlineTracker,
}

impl Incast {
    /// An incast over `n_servers` hosts. With `picks_replicas` the
    /// aggregator's policy chooses responders from every other server;
    /// otherwise the candidates are the static senders.
    pub(crate) fn new(spec: IncastSpec, n_servers: usize, picks_replicas: bool) -> Self {
        let senders = patterns::incast_senders(n_servers, spec.aggregator, spec.fanout);
        let candidates = if picks_replicas {
            (0..n_servers).filter(|&w| w != spec.aggregator).collect()
        } else {
            senders.clone()
        };
        Incast {
            spec,
            senders,
            candidates,
            requests: Vec::new(),
            tracker: DeadlineTracker::default(),
        }
    }
}

impl App for Incast {
    fn on_timer(&mut self, _token: u32, cx: &mut AppCtx) -> Actions {
        let agg = self.spec.aggregator;
        let senders = cx
            .select_replicas(agg, &self.candidates, self.senders.len())
            .unwrap_or_else(|| self.senders.clone());
        let req = self.requests.len() as u32;
        self.requests.push((cx.now, senders.len()));
        let next = cx.now + self.spec.interval;
        Actions {
            flows: (senders.into_iter())
                .map(|src| NewFlow {
                    src,
                    dst: agg,
                    bytes: Some(self.spec.bytes_per_worker),
                    measure_fct: true,
                    token: req,
                })
                .collect(),
            timers: if next < cx.end {
                vec![(next, 0)]
            } else {
                Vec::new()
            },
        }
    }

    fn on_flow_done(&mut self, token: u32, _started: SimTime, cx: &mut AppCtx) -> Actions {
        let (issued, remaining) = &mut self.requests[token as usize];
        *remaining -= 1;
        if *remaining == 0 && *issued >= cx.warmup {
            let elapsed = cx.now.saturating_since(*issued).as_millis_f64();
            self.tracker
                .record(elapsed, self.spec.deadline.as_millis_f64());
        }
        Actions::default()
    }

    fn report(&self, report: &mut Report) {
        report.incast_requests = self.tracker.total();
        report.incast_deadline_misses = self.tracker.misses();
        for &v in self.tracker.elapsed_ms() {
            report.incast_request_ms.add(v);
        }
    }
}

/// Ring allreduce: each round every ring member streams `bytes` to its
/// clockwise neighbor, and the next round starts when the last transfer
/// of this one lands. Tokens are unused.
pub(crate) struct Allreduce {
    spec: AllreduceSpec,
    /// `(src, dst)` transfers of one round.
    ring: Vec<(usize, usize)>,
    /// Transfers outstanding in the current round.
    outstanding: usize,
    /// When the current round started.
    round_start: SimTime,
    /// Rounds completed over the whole run, warmup included.
    rounds_completed: u64,
    /// Post-warmup round durations, ms.
    round_ms: Vec<f64>,
}

impl Allreduce {
    /// Run `spec`.
    pub(crate) fn new(spec: AllreduceSpec) -> Self {
        Allreduce {
            spec,
            ring: patterns::ring(spec.participants),
            outstanding: 0,
            round_start: SimTime::ZERO,
            rounds_completed: 0,
            round_ms: Vec::new(),
        }
    }
}

impl App for Allreduce {
    fn on_timer(&mut self, _token: u32, cx: &mut AppCtx) -> Actions {
        self.round_start = cx.now;
        self.outstanding = self.ring.len();
        Actions {
            flows: (self.ring.iter())
                .map(|&(src, dst)| NewFlow {
                    src,
                    dst,
                    bytes: Some(self.spec.bytes),
                    measure_fct: false,
                    token: 0,
                })
                .collect(),
            ..Actions::default()
        }
    }

    fn on_flow_done(&mut self, _token: u32, _started: SimTime, cx: &mut AppCtx) -> Actions {
        self.outstanding -= 1;
        let mut acts = Actions::default();
        if self.outstanding == 0 {
            self.rounds_completed += 1;
            if self.round_start >= cx.warmup {
                self.round_ms
                    .push(cx.now.saturating_since(self.round_start).as_millis_f64());
            }
            if cx.now < cx.end {
                acts.timers.push((cx.now, 0));
            }
        }
        acts
    }

    fn report(&self, report: &mut Report) {
        report.allreduce_rounds = self.rounds_completed;
        for &v in &self.round_ms {
            report.allreduce_round_ms.add(v);
        }
    }
}
