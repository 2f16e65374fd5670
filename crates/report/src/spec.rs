//! Typed figure specifications with canonical text forms.
//!
//! Every paper figure this repo regenerates is a plain-data struct here.
//! Each spec has two deterministic projections:
//!
//! * [`Figure::canonical`] — a versioned, line-oriented text form of the
//!   figure's *data* (no geometry). Canonical texts are the
//!   regression-gate artifact: CI compares them byte-for-byte against
//!   committed goldens, exactly like report digests, so a figure can
//!   only change when the underlying simulation results change.
//! * [`Figure::render_svg`] — the presentation, built from the same data
//!   through the deterministic [`svg`](crate::svg) module, so rendered
//!   SVGs are themselves byte-identical across runs and worker counts.
//!
//! Canonical floats use shortest-roundtrip display (the convention of the
//! results store), so a canonical text parses back to bit-identical data.

use std::fmt::Write as _;

use presto_telemetry::{FailoverStage, FlushSplit};

use crate::svg::{
    Bar, Heatmap, Series, SeriesKind, StackedBarChart, VSpan, XyChart, LOSS_COLOR, OTHER_COLOR,
    REORDER_COLOR,
};

/// Version tag baked into every canonical text; bump when the canonical
/// grammar itself changes (a bump invalidates all committed goldens).
pub const CANON_VERSION: u32 = 1;

/// One regenerated figure — the unit `lab report` writes, gates and
/// embeds.
#[derive(Debug, Clone, PartialEq)]
pub enum Figure {
    /// Fig 5 analog: GRO flush pushes split into loss vs reordering.
    GroSplit(GroSplitFigure),
    /// Fig 9 analog: FCT / goodput CDFs per workload with mice/elephant
    /// facets.
    FctCdf(FctCdfFigure),
    /// Fig 17 analog: failover timeline of one traced faulted run.
    Failover(FailoverFigure),
    /// Spray-imbalance heatmap from per-path flowcell counts.
    SprayHeatmap(SprayHeatmapFigure),
    /// Probe-pool composition (hot vs cold under the HCL rule) per
    /// probing grid point.
    ProbePool(ProbePoolFigure),
}

impl Figure {
    /// Stable file stem for the figure's artifacts (`<slug>.svg`,
    /// `<slug>.txt`).
    pub fn slug(&self) -> String {
        match self {
            Figure::GroSplit(_) => "fig5_gro_split".into(),
            Figure::FctCdf(f) => format!("fig9_cdf_{}", f.slug),
            Figure::Failover(f) => format!("fig17_failover_{}", f.slug),
            Figure::SprayHeatmap(_) => "spray_heatmap".into(),
            Figure::ProbePool(_) => "probe_pool".into(),
        }
    }

    /// Human title, embedded in the SVG and the HTML report.
    pub fn title(&self) -> String {
        match self {
            Figure::GroSplit(_) => "GRO flush attribution: loss vs reordering (Fig 5)".into(),
            Figure::FctCdf(f) => f.title.clone(),
            Figure::Failover(f) => format!("Failover timeline — {} (Fig 17)", f.point),
            Figure::SprayHeatmap(_) => "Flowcell spray share per path".into(),
            Figure::ProbePool(_) => "Probe pool composition: hot vs cold (HCL rule)".into(),
        }
    }

    /// The versioned canonical text form (see module docs).
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(1024);
        match self {
            Figure::GroSplit(f) => {
                let _ = writeln!(out, "figure gro_split v{CANON_VERSION}");
                for p in &f.points {
                    let _ = writeln!(out, "point {}", p.label);
                    let _ = writeln!(out, "  loss {}", p.split.loss);
                    let _ = writeln!(out, "  reordering {}", p.split.reordering);
                    let _ = writeln!(out, "  other {}", p.split.other);
                }
            }
            Figure::FctCdf(f) => {
                let _ = writeln!(out, "figure fct_cdf v{CANON_VERSION}");
                let _ = writeln!(out, "facet {} unit {}", f.slug, f.x_label);
                for s in &f.series {
                    let _ = writeln!(out, "  series {}", s.name);
                    for &(x, q) in &s.points {
                        let _ = writeln!(out, "    {} {}", canon_f64(x), canon_f64(q));
                    }
                }
            }
            Figure::Failover(f) => {
                let _ = writeln!(out, "figure failover v{CANON_VERSION}");
                let _ = writeln!(out, "point {}", f.point);
                for s in &f.stages {
                    let _ = writeln!(
                        out,
                        "  stage {} {} {} goodput {} loss {} drops {} tx {}",
                        s.name,
                        s.start_ns,
                        s.end_ns,
                        canon_f64(s.goodput_gbps),
                        canon_f64(s.loss_rate),
                        s.drops,
                        s.tx_packets
                    );
                }
            }
            Figure::SprayHeatmap(f) => {
                let _ = writeln!(out, "figure spray_heatmap v{CANON_VERSION}");
                for r in &f.rows {
                    let _ = writeln!(out, "point {}", r.label);
                    for (path, &share) in r.shares.iter().enumerate() {
                        let _ = writeln!(out, "  path {} {}", path, canon_f64(share));
                    }
                }
            }
            Figure::ProbePool(f) => {
                let _ = writeln!(out, "figure probe_pool v{CANON_VERSION}");
                for r in &f.rows {
                    let _ = writeln!(out, "point {}", r.label);
                    let _ = writeln!(out, "  rounds {}", r.rounds);
                    let _ = writeln!(out, "  samples {}", r.samples);
                    let _ = writeln!(out, "  hot {}", r.hot);
                    let _ = writeln!(out, "  cold {}", r.cold);
                }
            }
        }
        out
    }

    /// Render the figure to a standalone SVG document.
    pub fn render_svg(&self) -> String {
        match self {
            Figure::GroSplit(f) => f.chart().render(),
            Figure::FctCdf(f) => f.chart().render(),
            Figure::Failover(f) => f.chart().render(),
            Figure::SprayHeatmap(f) => f.chart().render(),
            Figure::ProbePool(f) => f.chart().render(),
        }
    }
}

/// Shortest-roundtrip float for canonical texts.
fn canon_f64(v: f64) -> String {
    let mut s = String::new();
    presto_telemetry::json::push_f64(&mut s, v);
    s
}

/// One traced point's flush-reason split.
#[derive(Debug, Clone, PartialEq)]
pub struct GroSplitPoint {
    /// Point label.
    pub label: String,
    /// The loss / reordering / other bucket counts.
    pub split: FlushSplit,
}

/// Fig 5 analog: one normalized stacked bar per traced point.
#[derive(Debug, Clone, PartialEq)]
pub struct GroSplitFigure {
    /// Traced points, in label order.
    pub points: Vec<GroSplitPoint>,
}

impl GroSplitFigure {
    fn chart(&self) -> StackedBarChart {
        StackedBarChart {
            title: "GRO flush attribution: loss vs reordering (Fig 5)".into(),
            y_label: "fraction of flush pushes".into(),
            bars: self
                .points
                .iter()
                .map(|p| Bar {
                    label: short_label(&p.label),
                    segments: vec![
                        (
                            "loss (in-cell gap)".into(),
                            p.split.loss as f64,
                            LOSS_COLOR.into(),
                        ),
                        (
                            "reordering (boundary)".into(),
                            p.split.reordering as f64,
                            REORDER_COLOR.into(),
                        ),
                        ("other".into(), p.split.other as f64, OTHER_COLOR.into()),
                    ],
                })
                .collect(),
            normalize: true,
        }
    }
}

/// One CDF line: `(value, cumulative fraction)` staircase points.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSeries {
    /// Series (scheme) name.
    pub name: String,
    /// `(value, quantile)` points, value-ascending.
    pub points: Vec<(f64, f64)>,
}

/// Fig 9 analog: one CDF facet (e.g. mice FCT for one workload).
#[derive(Debug, Clone, PartialEq)]
pub struct FctCdfFigure {
    /// Facet slug, e.g. `mice_websearch-1` — part of the file stem.
    pub slug: String,
    /// Facet title.
    pub title: String,
    /// X-axis label (value unit).
    pub x_label: String,
    /// One line per scheme, in scheme order.
    pub series: Vec<CdfSeries>,
}

impl FctCdfFigure {
    fn chart(&self) -> XyChart {
        XyChart {
            title: self.title.clone(),
            x_label: self.x_label.clone(),
            y_label: "cumulative fraction".into(),
            series: self
                .series
                .iter()
                .map(|s| Series {
                    name: s.name.clone(),
                    points: s.points.clone(),
                    kind: SeriesKind::Step,
                })
                .collect(),
            spans: Vec::new(),
            y_from_zero: true,
        }
    }
}

/// Fig 17 analog: the four-stage failover decomposition of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverFigure {
    /// Point label.
    pub point: String,
    /// File-stem-safe form of `point`.
    pub slug: String,
    /// The stage timeline, as recorded by the failover report.
    pub stages: Vec<FailoverStage>,
}

impl FailoverFigure {
    fn chart(&self) -> XyChart {
        let mut goodput = Vec::new();
        let mut loss = Vec::new();
        let mut spans = Vec::new();
        let max_loss = self
            .stages
            .iter()
            .map(|s| s.loss_rate)
            .fold(0.0, f64::max)
            .max(1e-9);
        let max_goodput = self
            .stages
            .iter()
            .map(|s| s.goodput_gbps)
            .fold(0.0, f64::max)
            .max(1e-9);
        for (i, s) in self.stages.iter().enumerate() {
            let (t0, t1) = (s.start_ns as f64 / 1e6, s.end_ns as f64 / 1e6);
            goodput.push((t0, s.goodput_gbps));
            goodput.push((t1, s.goodput_gbps));
            // Loss is rescaled onto the goodput axis so both step lines
            // share one frame; the canonical text keeps the raw values.
            let scaled = s.loss_rate / max_loss * max_goodput;
            loss.push((t0, scaled));
            loss.push((t1, scaled));
            spans.push(VSpan {
                x0: t0,
                x1: t1,
                label: s.name.clone(),
                color: i,
            });
        }
        XyChart {
            title: format!("Failover timeline — {} (Fig 17)", self.point),
            x_label: "simulated time (ms)".into(),
            y_label: "goodput (Gbps) / scaled loss".into(),
            series: vec![
                Series {
                    name: "goodput".into(),
                    points: goodput,
                    kind: SeriesKind::Line,
                },
                Series {
                    name: "loss (scaled)".into(),
                    points: loss,
                    kind: SeriesKind::Line,
                },
            ],
            spans,
            y_from_zero: true,
        }
    }
}

/// One traced point's per-path spray shares.
#[derive(Debug, Clone, PartialEq)]
pub struct SprayRow {
    /// Point label.
    pub label: String,
    /// Share of flowcells sent down each path (sums to 1).
    pub shares: Vec<f64>,
}

/// Spray-imbalance heatmap: traced points × paths.
#[derive(Debug, Clone, PartialEq)]
pub struct SprayHeatmapFigure {
    /// Rows, in label order.
    pub rows: Vec<SprayRow>,
}

impl SprayHeatmapFigure {
    fn chart(&self) -> Heatmap {
        Heatmap {
            title: "Flowcell spray share per path".into(),
            row_labels: self.rows.iter().map(|r| short_label(&r.label)).collect(),
            x_label: "path (spanning tree)".into(),
            values: self.rows.iter().map(|r| r.shares.clone()).collect(),
        }
    }
}

/// One probing grid point's pool-composition counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePoolRow {
    /// Point label.
    pub label: String,
    /// Probe rounds executed over the run.
    pub rounds: u64,
    /// Pool-occupancy samples folded across hosts and rounds.
    pub samples: u64,
    /// Samples classified hot by the HCL rule (`rif >` pool median).
    pub hot: u64,
    /// Samples classified cold.
    pub cold: u64,
}

/// Probe-pool composition figure: one normalized hot/cold bar per
/// probing grid point. Only built for campaigns where at least one row
/// opted into probing, so non-probing campaigns' figure sets are
/// untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePoolFigure {
    /// Probing rows, in grid order.
    pub rows: Vec<ProbePoolRow>,
}

impl ProbePoolFigure {
    fn chart(&self) -> StackedBarChart {
        StackedBarChart {
            title: "Probe pool composition: hot vs cold (HCL rule)".into(),
            y_label: "fraction of pool samples".into(),
            bars: self
                .rows
                .iter()
                .map(|r| Bar {
                    label: short_label(&r.label),
                    segments: vec![
                        ("hot (rif > median)".into(), r.hot as f64, LOSS_COLOR.into()),
                        ("cold".into(), r.cold as f64, REORDER_COLOR.into()),
                        (
                            "unclassified".into(),
                            (r.samples - r.hot - r.cold) as f64,
                            OTHER_COLOR.into(),
                        ),
                    ],
                })
                .collect(),
            normalize: true,
        }
    }
}

/// Compress a grid label for on-figure display:
/// `presto/testbed16/stride:8/linkdown:20/cell64k/s1` →
/// `presto stride:8 linkdown:20 s1` (topology and default cell size are
/// constant within a campaign and only add noise under a bar).
fn short_label(label: &str) -> String {
    let parts: Vec<&str> = label.split('/').collect();
    if parts.len() < 6 {
        return label.to_string();
    }
    let mut keep = vec![parts[0], parts[2]];
    if parts[3] != "none" {
        keep.push(parts[3]);
    }
    keep.push(parts[5]);
    keep.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_gro_split() -> Figure {
        Figure::GroSplit(GroSplitFigure {
            points: vec![GroSplitPoint {
                label: "presto/testbed16/stride:8/linkdown:20/cell64k/s1".into(),
                split: FlushSplit {
                    loss: 3,
                    reordering: 17,
                    other: 100,
                },
            }],
        })
    }

    #[test]
    fn canonical_is_versioned_and_deterministic() {
        let fig = sample_gro_split();
        let c = fig.canonical();
        assert!(c.starts_with("figure gro_split v1\n"));
        assert!(c.contains("  loss 3\n"));
        assert_eq!(c, fig.canonical());
        assert_eq!(fig.slug(), "fig5_gro_split");
    }

    #[test]
    fn cdf_canonical_round_trips_floats_exactly() {
        let fig = Figure::FctCdf(FctCdfFigure {
            slug: "mice_websearch-1".into(),
            title: "Mice FCT CDF — websearch:1".into(),
            x_label: "ms".into(),
            series: vec![CdfSeries {
                name: "presto".into(),
                points: vec![(0.040171, 0.0), (0.37953022991689744, 0.5)],
            }],
        });
        let c = fig.canonical();
        assert!(c.contains("0.37953022991689744"), "{c}");
        assert_eq!(fig.slug(), "fig9_cdf_mice_websearch-1");
        assert!(fig.render_svg().contains("presto"));
    }

    #[test]
    fn failover_canonical_lists_stages_in_order() {
        let fig = Figure::Failover(FailoverFigure {
            point: "presto/testbed16/stride:8/linkdown:20/cell64k/s1".into(),
            slug: "presto_stride".into(),
            stages: vec![
                FailoverStage {
                    name: "pre-failure".into(),
                    start_ns: 0,
                    end_ns: 2_000_000,
                    goodput_gbps: 9.1,
                    loss_rate: 0.0,
                    drops: 0,
                    tx_packets: 5000,
                },
                FailoverStage {
                    name: "fast-failover".into(),
                    start_ns: 2_000_000,
                    end_ns: 3_000_000,
                    goodput_gbps: 5.5,
                    loss_rate: 0.01,
                    drops: 25,
                    tx_packets: 2500,
                },
            ],
        });
        let c = fig.canonical();
        let pre = c.find("stage pre-failure").unwrap();
        let fast = c.find("stage fast-failover").unwrap();
        assert!(pre < fast);
        let svg = fig.render_svg();
        assert!(svg.contains("fast-failover"), "stage span labelled");
    }

    #[test]
    fn heatmap_canonical_lists_paths() {
        let fig = Figure::SprayHeatmap(SprayHeatmapFigure {
            rows: vec![SprayRow {
                label: "presto/testbed16/stride:8/none/cell64k/s1".into(),
                shares: vec![0.25, 0.75],
            }],
        });
        let c = fig.canonical();
        assert!(c.contains("  path 0 0.25\n"));
        assert!(c.contains("  path 1 0.75\n"));
    }

    #[test]
    fn probe_pool_canonical_lists_counters() {
        let fig = Figure::ProbePool(ProbePoolFigure {
            rows: vec![ProbePoolRow {
                label: "prequal/testbed16/incast:8:64:1000:900/none/cell64k/s1".into(),
                rounds: 500,
                samples: 16_000,
                hot: 4_000,
                cold: 12_000,
            }],
        });
        assert_eq!(fig.slug(), "probe_pool");
        let c = fig.canonical();
        assert!(c.starts_with("figure probe_pool v1\n"), "{c}");
        assert!(c.contains("  rounds 500\n"));
        assert!(c.contains("  hot 4000\n"));
        assert!(c.contains("  cold 12000\n"));
        assert!(fig.render_svg().contains("hot (rif &gt; median)"));
    }

    #[test]
    fn short_labels_drop_constant_axes() {
        assert_eq!(
            short_label("presto/testbed16/stride:8/linkdown:20/cell64k/s1"),
            "presto stride:8 linkdown:20 s1"
        );
        assert_eq!(
            short_label("ecmp/testbed16/random/none/cell64k/s2"),
            "ecmp random s2"
        );
        assert_eq!(short_label("odd"), "odd");
    }
}
