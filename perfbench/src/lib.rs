//! The probenet benchmark: four named workloads driven through the
//! library's public functions, an untraced run for the end-to-end metrics
//! and a traced run that splits the time by layer.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/README.md`
//! defines every metric and workload.

pub mod args;
pub mod echo;
pub mod metrics;
pub mod procfs;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
