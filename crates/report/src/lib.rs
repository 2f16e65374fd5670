//! Figure and report rendering for Presto campaigns.
//!
//! This crate turns the committed outputs of a `lab run` — the results
//! store's `table.json` rows and per-point telemetry traces — into the
//! paper's key figures and a single-file HTML report, with **zero**
//! external dependencies:
//!
//! * [`svg`] — a minimal byte-deterministic SVG plot module (line/step
//!   charts, stacked bars, heatmaps, closed-form 1/2/5 ticks).
//! * [`spec`] — typed figure specifications ([`Figure`]) with versioned
//!   canonical text forms; canonical texts are regression-gated in CI the
//!   same way report digests are.
//! * [`extract`] — projection from store rows + traces to figure specs
//!   ([`CampaignData`]).
//! * [`html`] — the self-contained `index.html` report (inline figures,
//!   campaign metadata, diff-vs-baseline verdict, events/s trend).
//! * [`viewer`] — the self-contained `viewer.html` trace timeline
//!   (embedded JSONL, canvas lanes, zoom, reason coloring).
//! * [`output`] — [`write_report`], the entry point behind
//!   `lab report <campaign>`.
//!
//! Determinism contract: every `figures/*.svg` and `figures/*.txt` this
//! crate writes is a pure function of the campaign's committed table and
//! trace bytes, so regenerating a report from the same store — on any
//! machine, any `--workers` — reproduces identical
//! files. The HTML report additionally shows machine-dependent context
//! (wall time, events/s) and is deliberately *not* part of that gate.

#![warn(missing_docs)]

pub mod extract;
pub mod html;
pub mod output;
pub mod spec;
pub mod svg;
pub mod viewer;

pub use extract::{CampaignData, LabelParts};
pub use output::{write_report, ReportOptions, ReportOutput};
pub use spec::{
    CdfSeries, FailoverFigure, FctCdfFigure, Figure, GroSplitFigure, GroSplitPoint,
    SprayHeatmapFigure, SprayRow, CANON_VERSION,
};
