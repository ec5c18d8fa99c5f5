//! The four workloads. Each builds its inputs from the workload seed in
//! `setup` and implements [`Bench`](crate::runner::Bench).

pub mod bursty_long;
pub mod fleet_merge;
pub mod live_loopback;
pub mod paper_sweep;
mod simcall;

use crate::args::Workload;
use crate::runner::Bench;

/// Build the inputs of `workload` for `seed`: the part of a run timed as
/// `setup_s`.
pub fn setup(workload: Workload, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::PaperSweep => Box::new(paper_sweep::PaperSweep::setup(seed)),
        Workload::BurstyLong => Box::new(bursty_long::BurstyLong::setup(seed)?),
        Workload::FleetMerge => Box::new(fleet_merge::FleetMerge::setup(seed)),
        Workload::LiveLoopback => Box::new(live_loopback::LiveLoopback::setup(seed)?),
    })
}
