//! End-to-end and per-layer benchmark of the Presto simulator.
//!
//! The `perfbench` binary runs one workload for a fixed wall-clock
//! window and prints its metrics; this library holds the parts its tests
//! also use: the workloads, the layer-timing wrappers and the metric
//! arithmetic.

pub mod metrics;
pub mod timing;
pub mod workloads;
