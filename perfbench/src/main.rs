//! Run one benchmark workload for a wall-clock window and print its
//! metrics, ending with one JSON result line.
//!
//! ```text
//! perfbench --workload <stride8|skew_prequal|fabric8k> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the untraced run and reports the end-to-end
//! metrics (medians over the window, the first run being warm-up).
//! `--trace 1` alternates untraced and traced runs and reports the
//! per-layer metrics. Either way every run is checked, and every run of
//! the process must give the same `Report::digest`, which proves the
//! traced run's wrappers transparent.

use std::hint::black_box;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use perfbench::metrics::{
    highest_supported_percentile, median, percentile, remainder, result_json, LayerCounts, Metric,
};
use perfbench::timing::{instrument, LayerClock};
use perfbench::workloads::Workload;
use presto_core::Controller;
use presto_netsim::Topology;
use presto_simcore::SimDuration;
use presto_testbed::{Report, Scenario, TelemetryConfig, TelemetryReport};

const USAGE: &str = "usage: perfbench --workload <stride8|skew_prequal|fabric8k> [--seed N] \
                     [--seconds S] [--trace 0|1]";

/// Runs made even when the window is shorter: one warm-up, two timed.
const MIN_RUNS: usize = 3;

/// Set-up is re-timed (building and dropping extra scenarios) until one
/// run's builds add up to this, so a cheap set-up still gets a steady
/// median.
const SETUP_BUDGET: Duration = Duration::from_millis(20);

/// Every workload keeps elephants busy to the end, so the last event
/// falls within this of the end time.
const END_SLACK: SimDuration = SimDuration::from_micros(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }) => {
            let window = Duration::from_secs_f64(seconds);
            let (checks, metrics) = if trace {
                traced(workload, seed, window)
            } else {
                untraced(workload, seed, window)
            };
            for m in &metrics {
                println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
            }
            let failed =
                checks.failed + metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
            println!("{}", result_json(checks.attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One simulation run.
struct Run {
    /// Seconds in `Scenario::build`.
    setup_s: f64,
    /// Seconds in `Simulation::run`.
    run_s: f64,
    report: Report,
    /// The run got to its end time and processed events.
    reached_end: bool,
    /// Layer spans and counters, on a traced run.
    traced: Option<(Rc<LayerClock>, TelemetryReport)>,
}

fn run_once(scenario: &Scenario, traced: bool) -> Run {
    let start = Instant::now();
    let mut sim = black_box(scenario.build());
    let setup_s = start.elapsed().as_secs_f64();
    let clock = traced.then(|| {
        sim.enable_telemetry(TelemetryConfig::default());
        instrument(&mut sim)
    });
    let start = Instant::now();
    let report = black_box(sim.run());
    let run_s = start.elapsed().as_secs_f64();
    let reached_end = report.events_processed > 0 && sim.end.saturating_since(sim.now) <= END_SLACK;
    let traced = clock.map(|c| (c, sim.telemetry_report().expect("telemetry enabled")));
    Run {
        setup_s,
        run_s,
        report,
        reached_end,
        traced,
    }
}

/// Output checks over every run of the process.
struct Checks {
    workload: Workload,
    /// A server's line rate, in Gbit/s.
    link_gbps: f64,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Checks {
    fn new(workload: Workload, scenario: &Scenario) -> Self {
        let link_bps = scenario
            .three_tier()
            .map_or(scenario.clos().link_rate_bps, |t| t.link_rate_bps);
        Checks {
            workload,
            link_gbps: link_bps as f64 / 1e9,
            attempted: 0,
            failed: 0,
            digest: None,
        }
    }

    fn check(&mut self, run: &Run) {
        let r = &run.report;
        let mut problems = Vec::new();
        if !run.reached_end {
            problems.push("the run stopped short of its end time or processed no events".into());
        }
        if r.incast_deadline_misses > r.incast_requests {
            problems.push(format!(
                "{} deadline misses out of {} requests",
                r.incast_deadline_misses, r.incast_requests
            ));
        }
        if let Some(g) = r.elephant_tputs.iter().find(|&&g| g > self.link_gbps) {
            problems.push(format!(
                "an elephant's goodput {g} Gbps is above the {} Gbps line rate",
                self.link_gbps
            ));
        }
        let digest = r.digest();
        match self.digest {
            None => {
                self.digest = Some(digest);
                let recorded = if digest == self.workload.recorded_digest() {
                    "equals the recorded digest"
                } else {
                    "DIFFERS from the recorded digest"
                };
                println!("digest {digest:#018x} ({recorded})");
            }
            Some(first) if first != digest => problems.push(format!(
                "digest {digest:#018x} differs from the first run's {first:#018x}"
            )),
            Some(_) => {}
        }
        if let Some((clock, _)) = &run.traced {
            let inside = clock.gro.seconds() + clock.assign.seconds() + clock.probe.seconds();
            if inside > run.run_s {
                problems.push(format!("layer spans {inside} s exceed run_s {}", run.run_s));
            }
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed: {p}");
            }
        }
    }
}

/// Call `body(i)` for `i = 0, 1, …` until `window` has passed and at
/// least [`MIN_RUNS`] calls were made.
fn repeat(window: Duration, mut body: impl FnMut(usize)) {
    let end = Instant::now() + window;
    let mut i = 0;
    while i < MIN_RUNS || Instant::now() < end {
        body(i);
        i += 1;
    }
}

/// Extra set-up samples: build and drop the scenario until this run's
/// builds reach [`SETUP_BUDGET`].
fn extra_setups(scenario: &Scenario, first: f64, samples: &mut Vec<f64>) {
    let mut spent = first;
    while spent < SETUP_BUDGET.as_secs_f64() {
        let start = Instant::now();
        let sim = black_box(scenario.build());
        let s = start.elapsed().as_secs_f64();
        drop(sim);
        samples.push(s);
        spent += s;
    }
}

/// End-to-end metrics, tracing off.
fn untraced(workload: Workload, seed: u64, window: Duration) -> (Checks, Vec<Metric>) {
    let scenario = workload.scenario(seed);
    let mut checks = Checks::new(workload, &scenario);
    let (mut setup, mut run, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    repeat(window, |i| {
        let r = run_once(&scenario, false);
        checks.check(&r);
        if i > 0 {
            setup.push(r.setup_s);
            extra_setups(&scenario, r.setup_s, &mut setup);
            run.push(r.run_s);
            rate.push(r.report.events_processed as f64 / r.run_s);
        }
        last = Some(r.report);
    });
    let peak_rss_mb = peak_rss_mb();
    // One traced run; `Checks` compares its digest with the untraced ones.
    checks.check(&run_once(&scenario, true));

    let report = last.expect("at least one run");
    let fct = {
        let mut v = report.mice_fct_ms.values().to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let tail = highest_supported_percentile(fct.len());
    println!(
        "workload {} seed {seed}: {} timed runs, {} set-up samples, {} events per run",
        workload.name(),
        run.len(),
        setup.len(),
        report.events_processed
    );
    if !fct.is_empty() {
        println!(
            "mice FCT: {} samples, highest percentile with 10 samples beyond it: p{}",
            fct.len(),
            tail.map_or("none".into(), |p| p.to_string())
        );
        for (name, p) in [("fct_p50_ms", 50.0), ("fct_p90_ms", 90.0)] {
            println!("{name:<28} {:>18.6} ms", percentile(&fct, p));
        }
    }
    if report.incast_requests > 0 {
        println!(
            "{:<28} {:>18.6} ({} of {} requests)",
            "deadline_miss_ratio",
            report.deadline_miss_fraction(),
            report.incast_deadline_misses,
            report.incast_requests
        );
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("run_s", median(&run), "s"),
        Metric::new("events_per_s", median(&rate), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("goodput_gbps", report.mean_elephant_tput(), "Gbps"),
    ];
    (checks, metrics)
}

/// Per-layer metrics: alternate untraced and traced runs.
fn traced(workload: Workload, seed: u64, window: Duration) -> (Checks, Vec<Metric>) {
    let scenario = workload.scenario(seed);
    let active = workload.active_hosts();
    let mut checks = Checks::new(workload, &scenario);
    let mut plain_run = Vec::new();
    let (mut topo_s, mut install_s, mut setup_other) = (Vec::new(), Vec::new(), Vec::new());
    let (mut run_s, mut gro_s, mut assign_s, mut feedback_s, mut run_other) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    repeat(window, |i| {
        let plain = run_once(&scenario, false);
        checks.check(&plain);

        let start = Instant::now();
        let mut topo = black_box(
            scenario
                .three_tier()
                .map_or_else(|| Topology::clos(scenario.clos()), Topology::three_tier),
        );
        let topo_build = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let controller = black_box(Controller::install_for(&mut topo, active.as_deref()));
        let install = start.elapsed().as_secs_f64();
        drop((controller, topo));

        let r = run_once(&scenario, true);
        checks.check(&r);
        let (clock, tel) = r.traced.expect("traced run");
        if i > 0 {
            plain_run.push(plain.run_s);
            topo_s.push(topo_build);
            install_s.push(install);
            // The two builds bracket the separately timed topology and
            // install, so a drift in host speed across them cancels.
            let build = (plain.setup_s + r.setup_s) / 2.0;
            setup_other.push(remainder(build, &[topo_build, install]));
            let parts = [
                clock.gro.seconds(),
                clock.assign.seconds(),
                clock.probe.seconds(),
            ];
            run_s.push(r.run_s);
            gro_s.push(parts[0]);
            assign_s.push(parts[1]);
            feedback_s.push(parts[2]);
            run_other.push(remainder(r.run_s, &parts));
        }
        last = Some((clock, tel, r.report));
    });

    let (clock, tel, report) = last.expect("at least one run");
    let c = LayerCounts::from_report(&tel);
    let count = |name, v: u64| Metric::new(name, v as f64, "count");
    let secs = |name, v: &[f64]| Metric::new(name, median(v), "s");
    let ratio = |name, v| Metric::new(name, v, "ratio");
    println!(
        "workload {} seed {seed}: {} timed traced runs, traced run_s {:.6} s",
        workload.name(),
        run_s.len(),
        median(&run_s)
    );
    let metrics = vec![
        secs("netsim.topology_build_s", &topo_s),
        count("netsim.net_events", c.net_events),
        count("netsim.link_tx_packets", c.link_tx_packets),
        ratio("netsim.events_per_hop", c.events_per_hop()),
        count("netsim.drops", c.drops),
        secs("core.controller_install_s", &install_s),
        count("simcore.events", report.events_processed),
        count("simcore.queue_high_water", c.queue_high_water),
        count("endhost.egress_drain_events", c.egress_drain_events),
        count("endhost.egress_staged", c.egress_staged),
        ratio("endhost.drains_per_staged", c.drains_per_staged()),
        count("endhost.nic_polls", c.nic_polls),
        secs("gro.self_s", &gro_s),
        count("gro.calls", clock.gro.calls()),
        count("gro.flush_loss", c.flush_loss),
        count("gro.flush_reordering", c.flush_reordering),
        count("gro.flush_other", c.flush_other),
        count("transport.rto_events", c.rto_events),
        count("transport.timeouts", c.timeouts),
        count("transport.retransmissions", c.retransmissions),
        ratio("transport.rto_useful_ratio", c.rto_useful_ratio()),
        secs("lb.assign_s", &assign_s),
        count("lb.assign_calls", clock.assign.calls()),
        ratio("lb.spray_imbalance", c.spray_imbalance),
        secs("probe.feedback_s", &feedback_s),
        count("probe.feedback_calls", clock.probe.calls()),
        count("probe.rounds", report.probe_rounds),
        Metric::new("probe.wire_bytes", c.probe_wire_bytes as f64, "bytes"),
        secs("testbed.setup_other_s", &setup_other),
        secs("testbed.run_other_s", &run_other),
        ratio("trace.overhead_ratio", median(&run_s) / median(&plain_run)),
    ];
    (checks, metrics)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
