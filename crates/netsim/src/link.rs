//! Links and their drop-tail output queues.
//!
//! A [`Link`] is a unidirectional pipe with a fixed rate and propagation
//! delay, fed by a drop-tail byte-bounded FIFO at its source — the
//! output-queued switch model. Serialization is modeled exactly: one packet
//! occupies the transmitter for `wire_bytes / rate`, and the tail-drop
//! decision happens at enqueue time against the configured buffer size.
//!
//! One packet is on the wire at a time. [`Link::start_tx`] takes the head
//! packet and remembers when it finishes serializing; its `TxDone` event
//! settles the counters. [`Link::occupancy`] drops the in-flight packet at
//! its completion instant, before that `TxDone` pops, so a same-instant
//! enqueue sees it gone whatever the tie order between the two events.
//!
//! Per-link [`LinkCounters`] provide the "switch counters" the paper reads
//! loss rates from (§4).

use std::collections::VecDeque;

use presto_simcore::{SimDuration, SimTime};

use crate::ids::Node;
use crate::packet::Packet;

/// Transmit/drop statistics for one link, mirroring switch port counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Wire bytes serialized.
    pub tx_bytes: u64,
    /// Packets tail-dropped at enqueue.
    pub dropped_packets: u64,
    /// Wire bytes tail-dropped.
    pub dropped_bytes: u64,
    /// Data (payload-carrying) packets dropped — the numerator of the
    /// paper's loss-rate plots, which count TCP packet loss.
    pub dropped_data_packets: u64,
    /// High-water mark of queued bytes.
    pub max_queue_bytes: u64,
    /// Data packets whose ECN CE bit this link set at enqueue because
    /// queue occupancy met [`Link::ecn_threshold_bytes`] (DCTCP's K).
    pub ce_marked_packets: u64,
}

/// A unidirectional link plus its source-side drop-tail queue.
#[derive(Debug)]
pub struct Link {
    /// Transmitting endpoint.
    pub src: Node,
    /// Receiving endpoint.
    pub dst: Node,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub propagation: SimDuration,
    /// Tail-drop threshold for the output queue, in wire bytes.
    pub queue_capacity_bytes: u64,
    /// Administrative and failure state; a down link drops at forwarding
    /// time and finishes (then discards) whatever is mid-flight.
    pub up: bool,
    /// Line rate the link was built with. [`Link::degrade`] lowers
    /// `rate_bps` relative to this; [`Link::restore_rate`] returns to it.
    nominal_rate_bps: u64,
    /// ECN marking threshold in wire bytes (DCTCP's K): a data packet
    /// enqueued while exact occupancy is at or above this gets its CE bit
    /// set. `None` (the default) disables marking entirely, keeping the
    /// drop-tail behaviour and event stream bit-identical.
    pub ecn_threshold_bytes: Option<u64>,

    queue: VecDeque<Packet>,
    /// Wire bytes queued, including the in-flight packet until its
    /// `TxDone` settles it.
    queued_bytes: u64,
    /// The packet on the wire: `(completion instant, wire bytes)`, until
    /// its `TxDone` fires.
    in_flight: Option<(SimTime, u64)>,
    /// Counters for loss/throughput reporting.
    pub counters: LinkCounters,
}

/// Result of offering a packet to a link's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The transmitter was idle: the caller must now start it
    /// ([`Link::start_tx`]) and schedule its `TxDone`.
    StartTx,
    /// Queued behind in-flight traffic.
    Queued,
    /// Tail-dropped: the queue was full.
    Dropped,
}

impl Link {
    /// Create an idle, empty, up link.
    pub fn new(
        src: Node,
        dst: Node,
        rate_bps: u64,
        propagation: SimDuration,
        queue_capacity_bytes: u64,
    ) -> Self {
        assert!(rate_bps > 0);
        Link {
            src,
            dst,
            rate_bps,
            propagation,
            queue_capacity_bytes,
            up: true,
            nominal_rate_bps: rate_bps,
            ecn_threshold_bytes: None,
            queue: VecDeque::new(),
            queued_bytes: 0,
            in_flight: None,
            counters: LinkCounters::default(),
        }
    }

    /// Offer `pkt` to the output queue at simulated instant `now`.
    ///
    /// If the transmitter is idle ([`Enqueue::StartTx`]) the caller must
    /// start it with [`Link::start_tx`]. A full queue tail-drops; the
    /// drop decision uses [`Link::occupancy`] at `now`.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet) -> Enqueue {
        let wire = pkt.wire_bytes() as u64;
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty());
            self.queue.push_back(pkt);
            self.queued_bytes += wire;
            self.counters.max_queue_bytes = self.counters.max_queue_bytes.max(self.queued_bytes);
            return Enqueue::StartTx;
        }
        let occ = self.occupancy(now);
        if occ + wire > self.queue_capacity_bytes {
            self.counters.dropped_packets += 1;
            self.counters.dropped_bytes += wire;
            if pkt.is_data() {
                self.counters.dropped_data_packets += 1;
            }
            return Enqueue::Dropped;
        }
        // ECN: mark-on-enqueue against instantaneous occupancy (DCTCP's
        // single threshold K). Only data packets are marked; ACKs carry
        // the echo, not the signal.
        if let Some(k) = self.ecn_threshold_bytes {
            if occ >= k && pkt.is_data() && !pkt.ce {
                pkt.ce = true;
                self.counters.ce_marked_packets += 1;
            }
        }
        self.queue.push_back(pkt);
        self.queued_bytes += wire;
        self.counters.max_queue_bytes = self.counters.max_queue_bytes.max(occ + wire);
        Enqueue::Queued
    }

    /// Put the head packet on the wire at `now`. Returns it with its
    /// serialization time — the caller schedules its arrival after that
    /// plus propagation, and `TxDone` after that alone, which must call
    /// [`Link::finish_tx`]. Returns `None` (and stays idle) if nothing is
    /// queued.
    pub fn start_tx(&mut self, now: SimTime) -> Option<(Packet, SimDuration)> {
        debug_assert!(self.in_flight.is_none(), "link already sending");
        let pkt = self.queue.pop_front()?;
        let wire = pkt.wire_bytes() as u64;
        let tx = SimDuration::transmission(wire, self.rate_bps);
        self.in_flight = Some((now + tx, wire));
        Some((pkt, tx))
    }

    /// Settle the in-flight packet when its `TxDone` fires: release its
    /// bytes from the queue and count the transmission. Returns its wire
    /// bytes, so the caller can release shared-buffer occupancy upstream.
    pub fn finish_tx(&mut self) -> u64 {
        let (_, wire) = self.in_flight.take().expect("TxDone on idle link");
        self.queued_bytes -= wire;
        self.counters.tx_packets += 1;
        self.counters.tx_bytes += wire;
        wire
    }

    /// Total queued wire bytes, *including* an in-flight packet that has
    /// finished serializing but not yet been settled by its `TxDone`. Use
    /// [`Link::occupancy`] for any admission decision.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Queue occupancy at instant `now`, in wire bytes, including the
    /// packet on the wire until its completion instant.
    pub fn occupancy(&self, now: SimTime) -> u64 {
        self.queued_bytes - self.finished_unsettled(now)
    }

    /// Wire bytes of the in-flight packet if it has finished serializing
    /// by `now` but its `TxDone` has not fired yet — the credit a
    /// shared-buffer pool applies so that same-instant admission sees the
    /// packet gone.
    pub fn finished_unsettled(&self, now: SimTime) -> u64 {
        match self.in_flight {
            Some((end, wire)) if end <= now => wire,
            _ => 0,
        }
    }

    /// Number of queued packets (including the one being serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the transmitter is mid-packet.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Queueing delay a packet enqueued at `now` would experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        SimDuration::transmission(self.occupancy(now), self.rate_bps)
    }

    /// One-way latency floor for a packet of `wire` bytes on an idle link.
    pub fn min_latency(&self, wire: u64) -> SimDuration {
        SimDuration::transmission(wire, self.rate_bps) + self.propagation
    }

    /// Record a drop decided by switch-level admission (shared-buffer DT),
    /// which happens before the per-port queue is consulted.
    pub fn count_admission_drop(&mut self, pkt: &Packet) {
        let wire = pkt.wire_bytes() as u64;
        self.counters.dropped_packets += 1;
        self.counters.dropped_bytes += wire;
        if pkt.is_data() {
            self.counters.dropped_data_packets += 1;
        }
    }

    /// Mark the link down (fast-failover and controller pruning react to
    /// this). Queued packets drain; new forwarding decisions avoid it.
    pub fn set_down(&mut self) {
        self.up = false;
    }

    /// Restore the link.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Line rate the link was built with (the reference for degradation).
    pub fn nominal_rate_bps(&self) -> u64 {
        self.nominal_rate_bps
    }

    /// Degrade the line rate to `fraction` of nominal (clamped to
    /// `(0, 1]`). The link stays up — fast failover does not trigger —
    /// so only controller re-weighting can steer traffic away. A packet
    /// already on the wire keeps its departure time; the new rate applies
    /// from the next packet.
    pub fn degrade(&mut self, fraction: f64) {
        let f = fraction.clamp(0.0, 1.0);
        self.rate_bps = ((self.nominal_rate_bps as f64 * f).round() as u64).max(1);
    }

    /// Undo [`Link::degrade`]: return to the nominal line rate.
    pub fn restore_rate(&mut self) {
        self.rate_bps = self.nominal_rate_bps;
    }

    /// Current rate as a fraction of nominal — 1.0 for a healthy link.
    /// The controller quantizes this into spanning-tree weights.
    pub fn rate_fraction(&self) -> f64 {
        self.rate_bps as f64 / self.nominal_rate_bps as f64
    }

    /// Reset counters (used between measurement phases of an experiment).
    pub fn reset_counters(&mut self) {
        self.counters = LinkCounters::default();
    }
}

/// Convenience: absolute delivery time for a packet finishing serialization
/// at `tx_end` on a link.
pub fn arrival_time(link: &Link, tx_end: SimTime) -> SimTime {
    tx_end + link.propagation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, Mac, Node, SwitchId};
    use crate::packet::{FlowKey, PacketKind, MSS, WIRE_OVERHEAD};

    fn pkt(len: u32) -> Packet {
        Packet {
            flow: FlowKey::new(HostId(0), HostId(1), 1, 2),
            src_host: HostId(0),
            dst_host: HostId(1),
            dst_mac: Mac::host(HostId(1)),
            flowcell: 0,
            ce: false,
            kind: PacketKind::Data {
                seq: 0,
                len,
                retx: false,
            },
        }
    }

    fn link(cap: u64) -> Link {
        Link::new(
            Node::Host(HostId(0)),
            Node::Switch(SwitchId(0)),
            10_000_000_000,
            SimDuration::from_nanos(500),
            cap,
        )
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        let d = SimDuration::transmission((MSS + WIRE_OVERHEAD) as u64, 10_000_000_000);
        let (p, tx) = l.start_tx(SimTime::ZERO).expect("a queued packet");
        assert_eq!(p.payload_bytes(), MSS);
        assert_eq!(tx, d);
        assert!(l.is_busy());
    }

    #[test]
    fn busy_link_queues_then_drains_fifo() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        let (first, _) = l.start_tx(SimTime::ZERO).unwrap();
        assert_eq!(first.payload_bytes(), 100);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(200)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(300)), Enqueue::Queued);
        assert_eq!(l.queue_len(), 2);
        for len in [200, 300] {
            l.finish_tx();
            let (p, tx) = l.start_tx(SimTime::ZERO).unwrap();
            assert_eq!(p.payload_bytes(), len);
            let d = SimDuration::transmission((len + WIRE_OVERHEAD) as u64, 10_000_000_000);
            assert_eq!(tx, d);
        }
        l.finish_tx();
        assert!(!l.is_busy());
        assert!(l.start_tx(SimTime::ZERO).is_none());
        assert_eq!(l.counters.tx_packets, 3);
    }

    #[test]
    fn in_flight_packet_leaves_occupancy_at_completion() {
        // The packet on the wire counts toward occupancy until the instant
        // it finishes serializing, and not after — even before its TxDone
        // has settled it.
        let mut l = link(1_000_000);
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let d = SimDuration::transmission(wire, 10_000_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        l.start_tx(SimTime::ZERO).unwrap();
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        let done = SimTime::ZERO + d;
        assert_eq!(l.occupancy(SimTime::ZERO), 2 * wire);
        assert_eq!(l.occupancy(done - SimDuration::from_nanos(1)), 2 * wire);
        assert_eq!(l.occupancy(done), wire);
        assert_eq!(l.finished_unsettled(done), wire);
        assert_eq!(l.queued_bytes(), 2 * wire);
        // Settling converges to the same answer.
        assert_eq!(l.finish_tx(), wire);
        assert_eq!(l.occupancy(done), wire);
        assert_eq!(l.finished_unsettled(done), 0);
        assert_eq!(l.queued_bytes(), wire);
    }

    #[test]
    fn full_queue_tail_drops() {
        // Capacity fits the in-flight packet plus one queued MSS packet.
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(2 * wire);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        l.start_tx(SimTime::ZERO);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Dropped);
        assert_eq!(l.counters.dropped_packets, 1);
        assert_eq!(l.counters.dropped_data_packets, 1);
        assert_eq!(l.counters.dropped_bytes, wire);
        // Settling the in-flight packet frees space again.
        l.finish_tx();
        l.start_tx(SimTime::ZERO);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
    }

    #[test]
    fn queue_delay_tracks_occupancy() {
        let mut l = link(1_000_000);
        assert_eq!(l.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        l.start_tx(SimTime::ZERO);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        // The in-flight packet still counts toward occupancy.
        let expect = SimDuration::transmission(2 * (MSS + WIRE_OVERHEAD) as u64, 10_000_000_000);
        assert_eq!(l.queue_delay(SimTime::ZERO), expect);
    }

    #[test]
    fn max_queue_high_water_mark() {
        let mut l = link(1_000_000);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        l.start_tx(SimTime::ZERO);
        for _ in 0..4 {
            l.enqueue(SimTime::ZERO, pkt(MSS));
        }
        let expect = 5 * (MSS + WIRE_OVERHEAD) as u64;
        assert_eq!(l.counters.max_queue_bytes, expect);
        while l.is_busy() {
            l.finish_tx();
            l.start_tx(SimTime::ZERO);
        }
        assert_eq!(
            l.counters.max_queue_bytes, expect,
            "high water mark persists"
        );
        assert_eq!(l.counters.tx_packets, 5);
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn ecn_marks_data_at_threshold() {
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(100 * wire);
        l.ecn_threshold_bytes = Some(2 * wire);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        l.start_tx(SimTime::ZERO);
        // Occupancy 1*wire: below K, unmarked.
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        // Occupancy 2*wire: at K, marked from here on.
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.counters.ce_marked_packets, 2);
        // The head was popped by `start_tx`; the queue holds the
        // three later packets: below-K unmarked, then marked.
        let marks: Vec<bool> = l.queue.iter().map(|p| p.ce).collect();
        assert_eq!(marks, vec![false, true, true]);

        // ACKs are never marked even over threshold.
        let ack = Packet {
            kind: PacketKind::Ack { ack: 0, sack_hi: 0 },
            ..pkt(0)
        };
        assert_eq!(l.enqueue(SimTime::ZERO, ack), Enqueue::Queued);
        assert_eq!(l.counters.ce_marked_packets, 2);
        assert!(!l.queue.back().unwrap().ce);
    }

    #[test]
    fn ecn_disabled_never_marks() {
        let mut l = link(1_000_000);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        l.start_tx(SimTime::ZERO);
        for _ in 0..10 {
            l.enqueue(SimTime::ZERO, pkt(MSS));
        }
        assert_eq!(l.counters.ce_marked_packets, 0);
        assert!(l.queue.iter().all(|p| !p.ce));
    }

    #[test]
    fn up_down_toggle() {
        let mut l = link(1000);
        assert!(l.up);
        l.set_down();
        assert!(!l.up);
        l.set_up();
        assert!(l.up);
    }

    #[test]
    fn degrade_and_restore_rate() {
        let mut l = link(1000);
        let nominal = l.rate_bps;
        assert_eq!(l.nominal_rate_bps(), nominal);
        assert_eq!(l.rate_fraction(), 1.0);
        l.degrade(0.1);
        assert_eq!(l.rate_bps, nominal / 10);
        assert!((l.rate_fraction() - 0.1).abs() < 1e-12);
        assert!(l.up, "degradation must not take the link down");
        l.restore_rate();
        assert_eq!(l.rate_bps, nominal);
        // Clamped: a zero fraction still leaves a crawling link, not a
        // division by zero.
        l.degrade(0.0);
        assert_eq!(l.rate_bps, 1);
        l.restore_rate();
        assert_eq!(l.rate_bps, nominal);
    }

    #[test]
    fn min_latency_includes_propagation() {
        let l = link(1000);
        let d = l.min_latency(1538);
        // 1538B at 10G = 1230.4ns -> 1231ns (ceil), +500ns propagation.
        assert_eq!(d.as_nanos(), 1231 + 500);
    }
}
