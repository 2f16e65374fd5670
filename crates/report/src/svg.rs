//! A minimal, dependency-free SVG plot module.
//!
//! Three chart shapes cover every paper figure this repo regenerates:
//! line/step charts with numeric axes ([`XyChart`]), stacked bar charts
//! over categories ([`StackedBarChart`]) and value heatmaps
//! ([`Heatmap`]). Rendering is **byte-deterministic**: a fixed canvas
//! geometry, a fixed palette, tick placement computed with closed-form
//! 1/2/5 stepping, and every coordinate formatted through one rounding
//! helper — identical chart data renders to identical SVG bytes on every
//! platform and worker count, which is what lets rendered
//! figures be regression-gated like digests.

use std::fmt::Write as _;

/// Canvas width in px, fixed for every figure.
pub const WIDTH: f64 = 640.0;
/// Canvas height in px, fixed for every figure.
pub const HEIGHT: f64 = 360.0;
const MARGIN_L: f64 = 62.0;
const MARGIN_R: f64 = 18.0;
const MARGIN_T: f64 = 30.0;
const MARGIN_B: f64 = 46.0;

/// The fixed series palette (colorblind-safe 8-color cycle).
pub const PALETTE: [&str; 8] = [
    "#3572b0", "#dd7e2c", "#3d9142", "#8e5bb5", "#c0392b", "#1a9e8f", "#6b6b6b", "#b8860b",
];

/// Color used for the loss bucket in the GRO split figure.
pub const LOSS_COLOR: &str = "#c0392b";
/// Color used for the reordering bucket in the GRO split figure.
pub const REORDER_COLOR: &str = "#dd7e2c";
/// Color used for the "other" bucket in the GRO split figure.
pub const OTHER_COLOR: &str = "#9aa5ad";

/// Format a pixel coordinate: two decimals, trailing zeros trimmed.
/// Deterministic (Rust float formatting is platform-independent) and
/// compact, so geometry noise below 0.01 px cannot leak into the bytes.
pub fn px(v: f64) -> String {
    let mut s = format!("{:.2}", v);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    if s == "-0" {
        s = "0".into();
    }
    s
}

/// Format a data value for tick labels and canonical text: shortest
/// round-trip `f64` display (what the results store uses for floats).
pub fn num(v: f64) -> String {
    if v == 0.0 {
        // Avoid "-0" from negated ranges.
        return "0".into();
    }
    let mut s = format!("{v}");
    // Long fractions (9.458597333333332) are exact but unreadable as tick
    // labels; ticks come from the 1/2/5 generator and stay short, so this
    // path only defends against pathological ranges.
    if s.len() > 12 {
        s = format!("{v:.4}");
    }
    s
}

/// Escape a string for use inside SVG/XML text nodes and attributes.
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Closed-form "nice" tick positions covering `[min, max]` with a 1/2/5
/// step, at most `target + 1` ticks. Returns the ticks ascending.
pub fn nice_ticks(min: f64, max: f64, target: usize) -> Vec<f64> {
    if !min.is_finite() || !max.is_finite() || max <= min || target < 2 {
        return vec![min, max];
    }
    let raw_step = (max - min) / target as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    } * mag;
    let first = (min / step).ceil();
    let last = (max / step).floor();
    let mut out = Vec::new();
    let mut k = first;
    while k <= last + 0.5 {
        // Multiply rather than accumulate so ticks are exact multiples of
        // the step (no drift, stable formatting).
        out.push(k * step);
        k += 1.0;
    }
    if out.is_empty() {
        out.push(min);
        out.push(max);
    }
    out
}

/// How a series' points are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Straight segments between points.
    Line,
    /// Horizontal-then-vertical staircase (CDFs, timelines).
    Step,
}

/// One plotted series of an [`XyChart`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// `(x, y)` data points, in x order.
    pub points: Vec<(f64, f64)>,
    /// Joining style.
    pub kind: SeriesKind,
}

/// A shaded vertical band with a label — failover stages.
#[derive(Debug, Clone)]
pub struct VSpan {
    /// Band start in data coordinates.
    pub x0: f64,
    /// Band end in data coordinates.
    pub x1: f64,
    /// Label drawn vertically inside the band.
    pub label: String,
    /// Palette index for the band fill.
    pub color: usize,
}

/// A line/step chart over numeric axes.
#[derive(Debug, Clone, Default)]
pub struct XyChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
    /// Shaded background bands (drawn behind the series).
    pub spans: Vec<VSpan>,
    /// Force the y range to start at zero.
    pub y_from_zero: bool,
}

struct Scale {
    min: f64,
    max: f64,
    lo_px: f64,
    hi_px: f64,
}

impl Scale {
    fn map(&self, v: f64) -> f64 {
        if self.max > self.min {
            self.lo_px + (v - self.min) / (self.max - self.min) * (self.hi_px - self.lo_px)
        } else {
            (self.lo_px + self.hi_px) / 2.0
        }
    }
}

fn svg_open(out: &mut String, title: &str) {
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n\
         <rect width=\"{w}\" height=\"{h}\" fill=\"#ffffff\"/>\n\
         <text x=\"{tx}\" y=\"19\" text-anchor=\"middle\" font-size=\"14\" fill=\"#222\">{t}</text>\n",
        w = px(WIDTH),
        h = px(HEIGHT),
        tx = px(WIDTH / 2.0),
        t = xml_escape(title),
    );
}

fn axis_labels(out: &mut String, x_label: &str, y_label: &str) {
    let _ = writeln!(
        out,
        "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" font-size=\"12\" fill=\"#444\">{l}</text>",
        x = px((MARGIN_L + WIDTH - MARGIN_R) / 2.0),
        y = px(HEIGHT - 8.0),
        l = xml_escape(x_label),
    );
    let _ = writeln!(
        out,
        "<text x=\"14\" y=\"{y}\" text-anchor=\"middle\" font-size=\"12\" fill=\"#444\" \
         transform=\"rotate(-90 14 {y})\">{l}</text>",
        y = px((MARGIN_T + HEIGHT - MARGIN_B) / 2.0),
        l = xml_escape(y_label),
    );
}

fn frame_and_ticks(out: &mut String, xs: &Scale, ys: &Scale) {
    // Plot frame.
    let _ = writeln!(
        out,
        "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"none\" stroke=\"#888\"/>",
        x = px(MARGIN_L),
        y = px(MARGIN_T),
        w = px(WIDTH - MARGIN_L - MARGIN_R),
        h = px(HEIGHT - MARGIN_T - MARGIN_B),
    );
    for t in nice_ticks(xs.min, xs.max, 6) {
        let x = xs.map(t);
        let _ = write!(
            out,
            "<line x1=\"{x}\" y1=\"{y0}\" x2=\"{x}\" y2=\"{y1}\" stroke=\"#888\"/>\n\
             <text x=\"{x}\" y=\"{ty}\" text-anchor=\"middle\" font-size=\"11\" fill=\"#444\">{l}</text>\n",
            x = px(x),
            y0 = px(HEIGHT - MARGIN_B),
            y1 = px(HEIGHT - MARGIN_B + 4.0),
            ty = px(HEIGHT - MARGIN_B + 16.0),
            l = num(t),
        );
    }
    for t in nice_ticks(ys.min, ys.max, 5) {
        let y = ys.map(t);
        let _ = write!(
            out,
            "<line x1=\"{x0}\" y1=\"{y}\" x2=\"{x1}\" y2=\"{y}\" stroke=\"#888\"/>\n\
             <line x1=\"{x1}\" y1=\"{y}\" x2=\"{xe}\" y2=\"{y}\" stroke=\"#eee\"/>\n\
             <text x=\"{tx}\" y=\"{ty}\" text-anchor=\"end\" font-size=\"11\" fill=\"#444\">{l}</text>\n",
            x0 = px(MARGIN_L - 4.0),
            x1 = px(MARGIN_L),
            xe = px(WIDTH - MARGIN_R),
            y = px(y),
            tx = px(MARGIN_L - 7.0),
            ty = px(y + 3.5),
            l = num(t),
        );
    }
}

fn legend(out: &mut String, names: &[String]) {
    let mut x = MARGIN_L + 8.0;
    let y = MARGIN_T + 6.0;
    for (i, name) in names.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let _ = write!(
            out,
            "<rect x=\"{x}\" y=\"{y}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"{tx}\" y=\"{ty}\" font-size=\"11\" fill=\"#222\">{n}</text>\n",
            x = px(x),
            y = px(y),
            tx = px(x + 14.0),
            ty = px(y + 9.0),
            n = xml_escape(name),
        );
        // Fixed-width advance so layout does not depend on text metrics.
        x += 14.0 + 7.0 * name.len() as f64 + 14.0;
    }
}

impl XyChart {
    fn ranges(&self) -> ((f64, f64), (f64, f64)) {
        let mut xr = (f64::INFINITY, f64::NEG_INFINITY);
        let mut yr = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for &(x, y) in &s.points {
                xr = (xr.0.min(x), xr.1.max(x));
                yr = (yr.0.min(y), yr.1.max(y));
            }
        }
        for sp in &self.spans {
            xr = (xr.0.min(sp.x0), xr.1.max(sp.x1));
        }
        if !xr.0.is_finite() {
            xr = (0.0, 1.0);
        }
        if !yr.0.is_finite() {
            yr = (0.0, 1.0);
        }
        if self.y_from_zero {
            yr.0 = yr.0.min(0.0);
        }
        if xr.1 <= xr.0 {
            xr.1 = xr.0 + 1.0;
        }
        if yr.1 <= yr.0 {
            yr.1 = yr.0 + 1.0;
        }
        (xr, yr)
    }

    /// Render the chart to a complete standalone SVG document.
    pub fn render(&self) -> String {
        let ((x0, x1), (y0, y1)) = self.ranges();
        let xs = Scale {
            min: x0,
            max: x1,
            lo_px: MARGIN_L,
            hi_px: WIDTH - MARGIN_R,
        };
        let ys = Scale {
            min: y0,
            max: y1,
            lo_px: HEIGHT - MARGIN_B,
            hi_px: MARGIN_T,
        };
        let mut out = String::with_capacity(4096);
        svg_open(&mut out, &self.title);
        for sp in &self.spans {
            let xa = xs.map(sp.x0);
            let xb = xs.map(sp.x1);
            let color = PALETTE[sp.color % PALETTE.len()];
            let _ = writeln!(
                out,
                "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"{color}\" opacity=\"0.12\"/>",
                x = px(xa),
                y = px(MARGIN_T),
                w = px(xb - xa),
                h = px(HEIGHT - MARGIN_T - MARGIN_B),
            );
            let _ = writeln!(
                out,
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" font-size=\"10\" fill=\"#555\" \
                 transform=\"rotate(-90 {x} {y})\">{l}</text>",
                x = px((xa + xb) / 2.0),
                y = px(MARGIN_T + 58.0),
                l = xml_escape(&sp.label),
            );
        }
        frame_and_ticks(&mut out, &xs, &ys);
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let mut d = String::new();
            let mut prev_y: Option<f64> = None;
            for (j, &(x, y)) in s.points.iter().enumerate() {
                let (mx, my) = (xs.map(x), ys.map(y));
                if j == 0 {
                    let _ = write!(d, "M{} {}", px(mx), px(my));
                } else if s.kind == SeriesKind::Step {
                    let _ = write!(d, "H{} V{}", px(mx), px(my));
                } else {
                    let _ = write!(d, "L{} {}", px(mx), px(my));
                }
                prev_y = Some(my);
            }
            let _ = prev_y;
            if !d.is_empty() {
                let _ = writeln!(
                    out,
                    "<path d=\"{d}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\"/>"
                );
            }
            // Point markers help when a series has very few points (two
            // seeds produce two-step CDFs).
            if s.points.len() <= 8 {
                for &(x, y) in &s.points {
                    let _ = writeln!(
                        out,
                        "<circle cx=\"{cx}\" cy=\"{cy}\" r=\"2.4\" fill=\"{color}\"/>",
                        cx = px(xs.map(x)),
                        cy = px(ys.map(y)),
                    );
                }
            }
        }
        legend(
            &mut out,
            &self
                .series
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>(),
        );
        axis_labels(&mut out, &self.x_label, &self.y_label);
        out.push_str("</svg>\n");
        out
    }
}

/// One stacked bar: a category label plus `(segment name, value, color)`
/// segments, drawn bottom-up in the given order.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Category label under the bar.
    pub label: String,
    /// Segments, bottom-up: `(name, value, css color)`.
    pub segments: Vec<(String, f64, String)>,
}

/// A stacked bar chart over categories.
#[derive(Debug, Clone, Default)]
pub struct StackedBarChart {
    /// Chart title.
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// Bars, in category order.
    pub bars: Vec<Bar>,
    /// Plot fractions of each bar's total instead of raw values.
    pub normalize: bool,
}

impl StackedBarChart {
    /// Render the chart to a complete standalone SVG document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        svg_open(&mut out, &self.title);
        let max = if self.normalize {
            1.0
        } else {
            self.bars
                .iter()
                .map(|b| b.segments.iter().map(|s| s.1).sum::<f64>())
                .fold(0.0, f64::max)
                .max(1e-12)
        };
        let xs = Scale {
            min: 0.0,
            max: self.bars.len() as f64,
            lo_px: MARGIN_L,
            hi_px: WIDTH - MARGIN_R,
        };
        let ys = Scale {
            min: 0.0,
            max,
            lo_px: HEIGHT - MARGIN_B,
            hi_px: MARGIN_T,
        };
        frame_and_ticks_y_only(&mut out, &ys);
        let slot = (WIDTH - MARGIN_L - MARGIN_R) / self.bars.len().max(1) as f64;
        let bar_w = slot * 0.6;
        for (i, bar) in self.bars.iter().enumerate() {
            let total: f64 = bar.segments.iter().map(|s| s.1).sum();
            let denom = if self.normalize && total > 0.0 {
                total
            } else {
                1.0
            };
            let x = xs.map(i as f64) + (slot - bar_w) / 2.0;
            let mut acc = 0.0;
            for (_, value, color) in &bar.segments {
                let v = value / denom;
                if v <= 0.0 {
                    continue;
                }
                let y_top = ys.map(acc + v);
                let y_bot = ys.map(acc);
                let _ = writeln!(
                    out,
                    "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"{color}\" stroke=\"#fff\" stroke-width=\"0.5\"/>",
                    x = px(x),
                    y = px(y_top),
                    w = px(bar_w),
                    h = px(y_bot - y_top),
                );
                acc += v;
            }
            let _ = writeln!(
                out,
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" font-size=\"10\" fill=\"#333\">{l}</text>",
                x = px(xs.map(i as f64) + slot / 2.0),
                y = px(HEIGHT - MARGIN_B + 14.0),
                l = xml_escape(&bar.label),
            );
        }
        // Legend from the first bar's segment names/colors.
        if let Some(first) = self.bars.first() {
            let mut x = MARGIN_L + 8.0;
            let y = MARGIN_T + 6.0;
            for (name, _, color) in &first.segments {
                let _ = write!(
                    out,
                    "<rect x=\"{x}\" y=\"{y}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
                     <text x=\"{tx}\" y=\"{ty}\" font-size=\"11\" fill=\"#222\">{n}</text>\n",
                    x = px(x),
                    y = px(y),
                    tx = px(x + 14.0),
                    ty = px(y + 9.0),
                    n = xml_escape(name),
                );
                x += 14.0 + 7.0 * name.len() as f64 + 14.0;
            }
        }
        axis_labels(&mut out, "", &self.y_label);
        out.push_str("</svg>\n");
        out
    }
}

fn frame_and_ticks_y_only(out: &mut String, ys: &Scale) {
    let _ = writeln!(
        out,
        "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"none\" stroke=\"#888\"/>",
        x = px(MARGIN_L),
        y = px(MARGIN_T),
        w = px(WIDTH - MARGIN_L - MARGIN_R),
        h = px(HEIGHT - MARGIN_T - MARGIN_B),
    );
    for t in nice_ticks(ys.min, ys.max, 5) {
        let y = ys.map(t);
        let _ = write!(
            out,
            "<line x1=\"{x0}\" y1=\"{y}\" x2=\"{x1}\" y2=\"{y}\" stroke=\"#888\"/>\n\
             <text x=\"{tx}\" y=\"{ty}\" text-anchor=\"end\" font-size=\"11\" fill=\"#444\">{l}</text>\n",
            x0 = px(MARGIN_L - 4.0),
            x1 = px(MARGIN_L),
            y = px(y),
            tx = px(MARGIN_L - 7.0),
            ty = px(y + 3.5),
            l = num(t),
        );
    }
}

/// A value heatmap over a row × column grid.
#[derive(Debug, Clone, Default)]
pub struct Heatmap {
    /// Chart title.
    pub title: String,
    /// Row labels (one grid row each).
    pub row_labels: Vec<String>,
    /// Column axis label.
    pub x_label: String,
    /// `values[row][col]`, rows may have differing lengths (short rows
    /// render as missing cells).
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Render the chart to a complete standalone SVG document. Cell color
    /// interpolates white → palette blue by value / max.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        svg_open(&mut out, &self.title);
        let cols = self.values.iter().map(Vec::len).max().unwrap_or(0);
        let rows = self.values.len();
        let max = self
            .values
            .iter()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
            .max(1e-12);
        let grid_w = WIDTH - MARGIN_L - MARGIN_R;
        let grid_h = HEIGHT - MARGIN_T - MARGIN_B;
        let cw = grid_w / cols.max(1) as f64;
        let ch = grid_h / rows.max(1) as f64;
        for (r, row) in self.values.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let frac = (v / max).clamp(0.0, 1.0);
                // White (255,255,255) → #3572b0 (53,114,176).
                let rr = (255.0 + (53.0 - 255.0) * frac).round() as u32;
                let gg = (255.0 + (114.0 - 255.0) * frac).round() as u32;
                let bb = (255.0 + (176.0 - 255.0) * frac).round() as u32;
                let _ = writeln!(
                    out,
                    "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"#{rr:02x}{gg:02x}{bb:02x}\" stroke=\"#ddd\" stroke-width=\"0.5\"/>",
                    x = px(MARGIN_L + c as f64 * cw),
                    y = px(MARGIN_T + r as f64 * ch),
                    w = px(cw),
                    h = px(ch),
                );
            }
            let label = self.row_labels.get(r).cloned().unwrap_or_default();
            let _ = writeln!(
                out,
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"end\" font-size=\"9\" fill=\"#333\">{l}</text>",
                x = px(MARGIN_L - 6.0),
                y = px(MARGIN_T + r as f64 * ch + ch / 2.0 + 3.0),
                l = xml_escape(&label),
            );
        }
        for c in 0..cols {
            let _ = writeln!(
                out,
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" font-size=\"10\" fill=\"#333\">{c}</text>",
                x = px(MARGIN_L + c as f64 * cw + cw / 2.0),
                y = px(HEIGHT - MARGIN_B + 14.0),
            );
        }
        axis_labels(&mut out, &self.x_label, "");
        out.push_str("</svg>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn px_trims_and_normalizes() {
        assert_eq!(px(1.0), "1");
        assert_eq!(px(1.25), "1.25");
        assert_eq!(px(1.204), "1.2");
        assert_eq!(px(-0.0001), "0");
    }

    #[test]
    fn nice_ticks_are_round_and_cover() {
        let t = nice_ticks(0.0, 9.46, 6);
        assert_eq!(t, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        let t = nice_ticks(0.0, 1.0, 5);
        assert_eq!(t, vec![0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]);
        assert_eq!(nice_ticks(2.0, 2.0, 5), vec![2.0, 2.0]);
    }

    #[test]
    fn xy_chart_renders_deterministically() {
        let chart = XyChart {
            title: "demo".into(),
            x_label: "ms".into(),
            y_label: "fraction".into(),
            series: vec![Series {
                name: "presto".into(),
                points: vec![(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
                kind: SeriesKind::Step,
            }],
            spans: vec![VSpan {
                x0: 0.5,
                x1: 1.5,
                label: "fast-failover".into(),
                color: 4,
            }],
            y_from_zero: true,
        };
        let a = chart.render();
        let b = chart.render();
        assert_eq!(a, b);
        assert!(a.starts_with("<svg "));
        assert!(a.ends_with("</svg>\n"));
        assert!(a.contains("fast-failover"));
        assert!(a.contains("presto"));
    }

    #[test]
    fn stacked_bars_normalize() {
        let chart = StackedBarChart {
            title: "split".into(),
            y_label: "fraction of pushes".into(),
            bars: vec![Bar {
                label: "p1".into(),
                segments: vec![
                    ("loss".into(), 3.0, LOSS_COLOR.into()),
                    ("reordering".into(), 17.0, REORDER_COLOR.into()),
                ],
            }],
            normalize: true,
        };
        let svg = chart.render();
        assert!(svg.contains(LOSS_COLOR));
        assert!(svg.contains("reordering"));
        assert_eq!(svg, chart.render());
    }

    #[test]
    fn heatmap_renders_cells_and_labels() {
        let hm = Heatmap {
            title: "spray".into(),
            row_labels: vec!["a".into(), "b".into()],
            x_label: "path".into(),
            values: vec![vec![0.5, 0.5], vec![0.25, 0.75]],
        };
        let svg = hm.render();
        assert!(svg.matches("<rect").count() >= 5, "4 cells + frame bg");
        assert!(svg.contains(">a<") && svg.contains(">b<"));
        assert_eq!(svg, hm.render());
    }

    #[test]
    fn xml_escape_covers_special_chars() {
        assert_eq!(xml_escape("a<b&c>\"d'"), "a&lt;b&amp;c&gt;&quot;d&apos;");
    }
}
