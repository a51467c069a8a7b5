//! A wall-clock, per-layer benchmark of `pgas-nb` and `pgas-net`, driven
//! through their public API only. See `README.md` for the metric, layer and
//! workload tables.

pub mod affinity;
pub mod cli;
pub mod harness;
pub mod host;
pub mod json;
pub mod ladder;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod zipf;
