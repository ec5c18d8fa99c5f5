//! The simulation layers called one by one under spans.
//!
//! `PaperScenario::run` bundles cross-traffic generation with
//! `SimExperiment::run`, so a traced run cannot see the two apart. The
//! traced path below makes the same calls itself, in the same order with
//! the same seeds, and the workloads check that its output equals the
//! bundled call's bit for bit.

use probenet_core::PaperScenario;
use probenet_netdyn::{ExperimentConfig, RttSeries, SimExperiment};
use probenet_sim::{Direction, DropReason, FlowClass, SimDuration};
use probenet_stream::fnv1a_u64s;
use probenet_traffic::InternetMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// What one traced scenario run produced.
#[derive(Debug)]
pub struct SimOut {
    /// The measured series.
    pub series: RttSeries,
    /// Cross-traffic arrivals generated (both directions).
    pub arrivals: u64,
    /// Engine events handled.
    pub events: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: usize,
    /// Partitions the engine ran on.
    pub partitions: usize,
    /// Probes lost to the fault injectors.
    pub probe_impair_drops: u64,
    /// Probes lost to buffer overflow.
    pub probe_overflow_drops: u64,
}

/// `scenario.run(config)`, one layer call per span, for task `task`.
pub fn run_traced(
    tr: &Tracer,
    task: u64,
    scenario: &PaperScenario,
    config: &ExperimentConfig,
) -> SimOut {
    let (bidx, mu) = scenario.bottleneck();
    let horizon = config.span() + SimDuration::from_secs(5);
    let (outbound, inbound) = tr.span("traffic.generate", task, || {
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let mix = |utilization| {
            InternetMix::calibrated(mu, utilization, scenario.telnet_share, scenario.mean_batch)
        };
        let outbound = mix(scenario.outbound_utilization).generate(&mut rng, horizon);
        let inbound = mix(scenario.inbound_utilization).generate(&mut rng, horizon);
        (outbound, inbound)
    });
    let arrivals = (outbound.len() + inbound.len()) as u64;
    tr.span("sim.run", task, || {
        let (series, run) = SimExperiment::new(
            config.clone(),
            scenario.path.clone(),
            scenario.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .with_cross_traffic(bidx, Direction::Outbound, outbound)
        .with_cross_traffic(bidx, Direction::Inbound, inbound)
        .run();
        let probe_drops = |pick: fn(DropReason) -> bool| {
            run.drops
                .iter()
                .filter(|d| d.class == FlowClass::Probe && pick(d.reason))
                .count() as u64
        };
        let out = SimOut {
            arrivals,
            events: run.stats.events_processed,
            peak_queue_depth: run.stats.peak_queue_depth,
            partitions: run.partitions,
            probe_impair_drops: probe_drops(|r| {
                matches!(
                    r,
                    DropReason::BurstLoss | DropReason::LinkDown | DropReason::Corrupted
                )
            }),
            probe_overflow_drops: probe_drops(|r| {
                matches!(r, DropReason::BufferOverflow | DropReason::EarlyDrop)
            }),
            series,
        };
        probenet_netdyn::recycle_run(run);
        out
    })
}

/// Digest of every record of a series: sequence, send time, echo time
/// and RTT (`u64::MAX` marks a missing value).
pub fn record_digest(series: &RttSeries) -> String {
    fnv1a_u64s(series.records.iter().flat_map(|r| {
        [
            r.seq,
            r.sent_at,
            r.echoed_at.unwrap_or(u64::MAX),
            r.rtt.unwrap_or(u64::MAX),
        ]
    }))
}

/// Partition count a default `SimExperiment` runs on, observed from a
/// short run on the paper path.
pub fn observe_partitions() -> usize {
    let config = ExperimentConfig::paper(SimDuration::from_millis(500)).with_count(20);
    let (_, run) = SimExperiment::new(config, PaperScenario::inria_umd(1).path, 1).run();
    run.partitions
}
