//! Open-loop durable-delivery benchmark for the threaded Gryphon runtime.
//!
//! See `durbench/README.md` for the workloads, the metrics and how the
//! per-layer costs add back up to the end-to-end ones.

pub mod check;
pub mod host;
pub mod layers;
pub mod procfs;
pub mod run;
pub mod trace;
pub mod workload;
