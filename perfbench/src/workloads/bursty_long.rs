//! `bursty-long`: one long `bursty-transatlantic` run at δ = 8 ms, a
//! single task of more than 10⁷ engine events with the impairment
//! pipeline on the bottleneck.

use probenet_core::{impairment_scenario, ImpairedScenario};
use probenet_sim::SimDuration;
use probenet_stream::fnv1a_u64s;

use super::simcall;
use crate::metrics::Metrics;
use crate::runner::{timed, Bench, Iteration};
use crate::stats::SplitMix;
use crate::trace::{self, Tracer};

/// The impairment scenario the workload runs.
pub const SCENARIO: &str = "bursty-transatlantic";
/// Probe interval, ms.
pub const DELTA_MS: u64 = 8;
/// Probing span, s: about 1.02 × 10⁷ engine events.
pub const SPAN_S: u64 = 1600;

/// The `bursty-long` workload.
pub struct BurstyLong {
    scenario: ImpairedScenario,
    seed: u64,
    digest: Option<String>,
    partitions: Option<usize>,
    failures: Vec<String>,
}

fn result_digest(records: &str, events: u64, impair: u64, overflow: u64) -> String {
    fnv1a_u64s(
        records
            .bytes()
            .map(u64::from)
            .chain([events, impair, overflow]),
    )
}

impl BurstyLong {
    /// Look the scenario up and derive the task seed.
    pub fn setup(seed: u64) -> Result<BurstyLong, String> {
        Ok(BurstyLong {
            scenario: impairment_scenario(SCENARIO)
                .ok_or_else(|| format!("impairment scenario `{SCENARIO}` is missing"))?,
            seed: SplitMix::new(seed, 2).next_u64(),
            digest: None,
            partitions: None,
            failures: Vec::new(),
        })
    }

    fn delta(&self) -> SimDuration {
        SimDuration::from_millis(DELTA_MS)
    }

    fn span(&self) -> SimDuration {
        SimDuration::from_secs(SPAN_S)
    }

    /// Check one run's result; returns 1 if it failed.
    fn check_result(&mut self, digest: String, impair: u64, what: &str) -> u64 {
        let first = self.digest.get_or_insert_with(|| digest.clone());
        if *first != digest || impair == 0 {
            self.failures.push(format!(
                "{what}: digest {digest} (first {first}), probe_impair_drops {impair}"
            ));
            return 1;
        }
        0
    }
}

impl Bench for BurstyLong {
    fn layers(&self) -> &'static [&'static str] {
        &["traffic", "sim"]
    }

    fn run(&mut self) -> Result<Iteration, String> {
        let (out, timed) = timed(|| self.scenario.run(self.seed, self.delta(), self.span()))?;
        let digest = result_digest(
            &simcall::record_digest(&out.series),
            out.engine_stats.events_processed,
            out.probe_impair_drops,
            out.probe_overflow_drops,
        );
        let failed = self.check_result(digest, out.probe_impair_drops, "untraced run");
        Ok(Iteration {
            timed,
            attempted: 1,
            failed,
            ..Iteration::default()
        })
    }

    fn run_traced(&mut self) -> Result<Iteration, String> {
        let tr = Tracer::new();
        let scenario = self.scenario.with_seed(self.seed);
        let config = self.scenario.config(self.delta(), self.span());
        let (out, timed) = timed(|| simcall::run_traced(&tr, 0, &scenario, &config))?;
        let digest = result_digest(
            &simcall::record_digest(&out.series),
            out.events,
            out.probe_impair_drops,
            out.probe_overflow_drops,
        );
        let failed = self.check_result(digest, out.probe_impair_drops, "traced run vs untraced");
        self.partitions = Some(out.partitions);

        let spans = tr.into_spans();
        let selfs = trace::self_times(&spans);
        let sim_s = trace::self_secs(&spans, &selfs, "sim.run");
        let usage = timed.usage;
        let mut m = Metrics::new();
        m.set(
            "traffic.generate_s",
            trace::self_secs(&spans, &selfs, "traffic.generate"),
        );
        m.set("traffic.arrivals", out.arrivals as f64);
        m.set("sim.run_s", sim_s);
        m.set("sim.events", out.events as f64);
        m.set("sim.events_per_s", out.events as f64 / sim_s);
        m.set("sim.peak_queue_depth", out.peak_queue_depth as f64);
        m.set("sim.partitions", out.partitions as f64);
        m.set(
            "sim.vol_ctx_switches_per_kevent",
            usage.vol_ctx as f64 / (out.events as f64 / 1e3),
        );
        m.set("sim.sys_share", usage.sys_s / usage.cpu_s());
        m.set("sim.probe_impair_drops", out.probe_impair_drops as f64);
        m.set("sim.probe_overflow_drops", out.probe_overflow_drops as f64);
        Ok(Iteration {
            timed,
            attempted: 1,
            failed,
            layer: m,
            spans,
        })
    }

    fn check(&mut self, traced: bool) -> Result<(u64, u64), String> {
        if !traced {
            self.partitions = Some(simcall::observe_partitions());
        }
        Ok((0, 0))
    }

    fn partitions(&self) -> Option<usize> {
        self.partitions
    }

    fn digest(&self) -> String {
        self.digest.clone().unwrap_or_default()
    }

    fn failures(&self) -> Vec<String> {
        self.failures.clone()
    }
}
