//! The metrics the benchmark derives rather than reads.

use perfbench::metrics::{
    highest_supported_percentile, median, percentile, remainder, result_json, samples_beyond,
    spray_imbalance, LayerCounts, Metric,
};
use presto_telemetry::{CounterEntry, FlushReason, QueueProfileEntry, TelemetryReport};

fn counter(component: &str, name: &str, value: u64) -> CounterEntry {
    CounterEntry {
        component: component.into(),
        name: name.into(),
        value,
    }
}

fn events(name: &str, count: u64) -> QueueProfileEntry {
    QueueProfileEntry {
        name: name.into(),
        count,
        dwell_ns: 0,
    }
}

#[test]
fn remainders_subtract_the_timed_layers() {
    assert_eq!(remainder(1.0, &[0.25, 0.125, 0.0625]), 0.5625);
    assert_eq!(remainder(0.5, &[]), 0.5);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn spray_imbalance_is_max_over_min() {
    assert_eq!(spray_imbalance(&[10, 20, 40]), 4.0);
    assert_eq!(spray_imbalance(&[7, 7]), 1.0);
    // A path that got nothing: the spread is the largest count.
    assert_eq!(spray_imbalance(&[0, 5]), 5.0);
    assert_eq!(spray_imbalance(&[]), 0.0);
    assert_eq!(spray_imbalance(&[0, 0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert_eq!(samples_beyond(10, 90.0), 1);
    assert_eq!(samples_beyond(0, 50.0), 0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    // The skew point's 8 responses × 90 requests.
    assert_eq!(highest_supported_percentile(720), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
}

#[test]
fn layer_counts_read_and_combine_the_telemetry_report() {
    let mut flush_reasons = [0; FlushReason::COUNT];
    flush_reasons[FlushReason::InFlowcellGap.index()] = 3;
    flush_reasons[FlushReason::BoundaryGapFilled.index()] = 5;
    flush_reasons[FlushReason::InOrder.index()] = 11;
    let tel = TelemetryReport {
        flush_reasons,
        spray_counts: vec![30, 20, 40],
        counters: vec![
            counter("link0", "tx_packets", 100),
            counter("link1", "tx_packets", 50),
            counter("link0", "dropped_packets", 2),
            counter("link1", "dropped_packets", 1),
            counter("switch0", "no_route_drops", 4),
            counter("host0", "egress_staged", 8),
            counter("host1", "egress_staged", 12),
            counter("tcp", "timeouts", 3),
            counter("tcp", "retransmissions", 9),
            counter("probe", "probe_wire_bytes", 640),
        ],
        event_queue: vec![
            events("Net", 400),
            events("NicPoll", 7),
            events("Rto", 12),
            events("EgressDrain", 210),
        ],
        queue_high_water: 77,
        ..TelemetryReport::default()
    };
    let c = LayerCounts::from_report(&tel);
    assert_eq!(c.net_events, 400);
    assert_eq!(c.link_tx_packets, 150);
    assert_eq!(c.drops, 7);
    assert_eq!(c.egress_staged, 20);
    assert_eq!(c.nic_polls, 7);
    assert_eq!(
        (c.flush_loss, c.flush_reordering, c.flush_other),
        (3, 5, 11)
    );
    assert_eq!(c.queue_high_water, 77);
    assert_eq!(c.probe_wire_bytes, 640);
    assert_eq!(c.spray_imbalance, 2.0);

    assert_eq!(c.events_per_hop(), 400.0 / 150.0);
    assert_eq!(c.drains_per_staged(), 10.5);
    assert_eq!(c.rto_useful_ratio(), 0.25);
    // Nothing attempted: the ratios are 0, not NaN.
    let empty = LayerCounts::default();
    assert_eq!(empty.events_per_hop(), 0.0);
    assert_eq!(empty.drains_per_staged(), 0.0);
    assert_eq!(empty.rto_useful_ratio(), 0.0);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = result_json(
        4,
        1,
        &[
            Metric::new("run_s", 0.5, "s"),
            Metric::new("events_per_s", 4814342.0, "1/s"),
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
         \"run_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"events_per_s\": {\"value\": 4814342.0, \"unit\": \"1/s\"}}}"
    );
}
