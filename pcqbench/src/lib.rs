//! # pcqbench — the end-to-end and per-layer benchmark of `pcq`
//!
//! One command runs one workload as a closed loop over a pool of inputs
//! generated from a seed, checks every answer against a reference computed
//! before timing starts, and prints the metrics named in `BENCHMARK.json`.
//! A traced pass (`--trace 1`) times the calls into each layer through
//! wrappers around the seams the engines take as arguments. See the
//! README for the metric → layer → workload map.

pub mod cpus;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
