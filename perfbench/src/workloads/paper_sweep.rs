//! `paper-sweep`: the δ × seed campaign matrix behind Table 3 on the
//! default pool, `core::campaign_matrix` over the calibrated INRIA–UMd
//! scenario.

use probenet_core::{
    analyze_losses, campaign_matrix, sched, CampaignResult, MetricSpread, PaperScenario, PhasePlot,
};
use probenet_netdyn::{ExperimentConfig, RttSeries};
use probenet_sim::SimDuration;
use probenet_stats::Moments;
use probenet_stream::fnv1a_u64s;

use super::simcall::{self, SimOut};
use crate::metrics::Metrics;
use crate::runner::{timed, Bench, Iteration};
use crate::stats::{median, percentile, SplitMix};
use crate::trace::{self, Tracer};

/// Probe intervals of the sweep, ms.
pub const DELTAS_MS: [u64; 6] = [8, 20, 50, 100, 200, 500];
/// Seeds per interval.
pub const SEEDS: u64 = 2;
/// Probing span of each task, s.
pub const SPAN_S: u64 = 600;

/// The headline metrics of one task, as `campaign_matrix` computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    ulp: f64,
    clp: Option<f64>,
    mean_rtt: f64,
    min_rtt: f64,
    mu_kbps: Option<f64>,
}

impl Cell {
    /// Bit patterns, so NaN compares equal to itself.
    fn bits(&self) -> [u64; 5] {
        let opt = |v: Option<f64>| v.map_or(u64::MAX - 1, f64::to_bits);
        [
            self.ulp.to_bits(),
            opt(self.clp),
            self.mean_rtt.to_bits(),
            self.min_rtt.to_bits(),
            opt(self.mu_kbps),
        ]
    }
}

/// Analysis of one series; each estimator under its own span when traced.
fn analyze(tr: Option<&Tracer>, task: u64, series: &RttSeries) -> (Cell, u64) {
    let (loss, mean_rtt) = trace::span(tr, "analysis.loss", task, || {
        let rtts = series.delivered_rtts_ms();
        let mean = if rtts.is_empty() {
            f64::NAN
        } else {
            rtts.iter().sum::<f64>() / rtts.len() as f64
        };
        (analyze_losses(series), mean)
    });
    let plot = trace::span(tr, "analysis.phase", task, || {
        PhasePlot::from_series(series)
    });
    let mu = trace::span(tr, "analysis.bottleneck", task, || {
        plot.bottleneck_estimate(10).map(|e| e.mu_bps / 1e3)
    });
    let cell = Cell {
        ulp: loss.ulp,
        clp: loss.clp,
        mean_rtt,
        min_rtt: series.min_rtt_ms().unwrap_or(f64::NAN),
        mu_kbps: mu,
    };
    (cell, series.records.len() as u64)
}

fn spread(values: &[f64]) -> MetricSpread {
    let m = Moments::from_slice(values);
    MetricSpread {
        mean: m.mean(),
        std: m.std_dev(),
        min: m.min(),
        max: m.max(),
        n: values.len(),
    }
}

/// `campaign_matrix`'s per-interval aggregation, over traced cells.
fn aggregate(delta_ms: f64, cells: &[Cell]) -> CampaignResult {
    let collect = |f: &dyn Fn(&Cell) -> Option<f64>| -> Vec<f64> {
        cells
            .iter()
            .filter_map(f)
            .filter(|x| x.is_finite())
            .collect()
    };
    let optional = |v: Vec<f64>| (!v.is_empty()).then(|| spread(&v));
    CampaignResult {
        delta_ms,
        ulp: spread(&collect(&|c| Some(c.ulp))),
        clp: optional(collect(&|c| c.clp)),
        mean_rtt_ms: spread(&collect(&|c| Some(c.mean_rtt))),
        min_rtt_ms: spread(&collect(&|c| Some(c.min_rtt))),
        mu_kbps: optional(collect(&|c| c.mu_kbps)),
    }
}

/// Digest of a campaign's results, every float by its bit pattern.
pub fn campaign_digest(results: &[CampaignResult]) -> String {
    let spread = |s: &MetricSpread| {
        [
            s.mean.to_bits(),
            s.std.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.n as u64,
        ]
    };
    let opt = |s: &Option<MetricSpread>| s.as_ref().map_or([u64::MAX; 5], spread);
    fnv1a_u64s(results.iter().flat_map(|r| {
        let mut words = vec![r.delta_ms.to_bits()];
        words.extend(spread(&r.ulp));
        words.extend(opt(&r.clp));
        words.extend(spread(&r.mean_rtt_ms));
        words.extend(spread(&r.min_rtt_ms));
        words.extend(opt(&r.mu_kbps));
        words
    }))
}

/// One traced task's output.
struct TracedCell {
    cell: Cell,
    records: u64,
    sim: SimOut,
}

/// The `paper-sweep` workload.
pub struct PaperSweep {
    seeds: Vec<u64>,
    deltas: Vec<SimDuration>,
    span: SimDuration,
    configs: Vec<ExperimentConfig>,
    digest: Option<String>,
    traced: Vec<(Cell, String)>,
    partitions: Option<usize>,
    failures: Vec<String>,
}

impl PaperSweep {
    /// Seeds derived from the workload seed, and one configuration per δ.
    pub fn setup(seed: u64) -> PaperSweep {
        let mut rng = SplitMix::new(seed, 1);
        let seeds = (0..SEEDS).map(|_| rng.next_u64()).collect();
        let deltas: Vec<SimDuration> = DELTAS_MS
            .iter()
            .map(|&d| SimDuration::from_millis(d))
            .collect();
        let span = SimDuration::from_secs(SPAN_S);
        let configs = deltas
            .iter()
            .map(|&d| {
                ExperimentConfig::paper(d).with_count((span.as_nanos() / d.as_nanos()) as usize)
            })
            .collect();
        PaperSweep {
            seeds,
            deltas,
            span,
            configs,
            digest: None,
            traced: Vec::new(),
            partitions: None,
            failures: Vec::new(),
        }
    }

    fn tasks(&self) -> u64 {
        (self.deltas.len() * self.seeds.len()) as u64
    }

    fn cells(&self) -> Vec<(usize, u64, u64)> {
        (0..self.deltas.len())
            .flat_map(|di| self.seeds.iter().map(move |&s| (di, s)))
            .enumerate()
            .map(|(i, (di, s))| (di, s, i as u64))
            .collect()
    }

    /// Compare `results` with the first result of this seed; returns the
    /// number of failed tasks.
    fn check_results(&mut self, results: &[CampaignResult], what: &str) -> u64 {
        let digest = campaign_digest(results);
        let plausible = results.len() == self.deltas.len()
            && results.iter().all(|r| {
                r.ulp.n == self.seeds.len() && (100.0..200.0).contains(&r.min_rtt_ms.mean)
            });
        let first = self.digest.get_or_insert_with(|| digest.clone());
        if *first != digest || !plausible {
            self.failures.push(format!(
                "{what}: result digest {digest} (first {first}), plausible={plausible}"
            ));
            return self.tasks();
        }
        0
    }
}

impl Bench for PaperSweep {
    fn layers(&self) -> &'static [&'static str] {
        &["sched", "traffic", "sim", "analysis"]
    }

    fn run(&mut self) -> Result<Iteration, String> {
        let (results, timed) = timed(|| {
            campaign_matrix(
                PaperScenario::inria_umd,
                &self.deltas,
                self.span,
                &self.seeds,
            )
        })?;
        let failed = self.check_results(&results, "untraced campaign");
        Ok(Iteration {
            timed,
            attempted: self.tasks(),
            failed,
            ..Iteration::default()
        })
    }

    fn run_traced(&mut self) -> Result<Iteration, String> {
        let tr = Tracer::new();
        let cells = self.cells();
        let configs = &self.configs;
        let ((outs, results), timed) = timed(|| {
            let outs: Vec<TracedCell> = tr.span("sched.par_map", 0, || {
                sched::par_map(cells, |(di, seed, task)| {
                    tr.span("sched.task", task, || {
                        let sim = simcall::run_traced(
                            &tr,
                            task,
                            &PaperScenario::inria_umd(seed),
                            &configs[di],
                        );
                        let (cell, records) = analyze(Some(&tr), task, &sim.series);
                        TracedCell { cell, records, sim }
                    })
                })
            });
            let results: Vec<CampaignResult> = tr.span("analysis.aggregate", 0, || {
                outs.chunks(self.seeds.len())
                    .zip(configs)
                    .map(|(chunk, c)| {
                        let cells: Vec<Cell> = chunk.iter().map(|o| o.cell).collect();
                        aggregate(c.interval.as_millis_f64(), &cells)
                    })
                    .collect()
            });
            (outs, results)
        })?;
        let failed = self.check_results(&results, "traced campaign vs untraced");
        self.traced = outs
            .iter()
            .map(|o| (o.cell, simcall::record_digest(&o.sim.series)))
            .collect();
        let partitions = outs.iter().map(|o| o.sim.partitions).max().unwrap_or(0);
        self.partitions = Some(partitions);

        let spans = tr.into_spans();
        let selfs = trace::self_times(&spans);
        let secs = |name| trace::self_secs(&spans, &selfs, name);
        let tasks = trace::durations_secs(&spans, "sched.task");
        let pool = trace::durations_secs(&spans, "sched.par_map");
        let width = sched::max_threads().min(tasks.len()).max(1) as f64;
        let events: u64 = outs.iter().map(|o| o.sim.events).sum();
        let records: u64 = outs.iter().map(|o| o.records).sum();
        let sim_s = secs("sim.run");
        let analysis_s =
            secs("analysis.loss") + secs("analysis.phase") + secs("analysis.bottleneck");
        let usage = timed.usage;
        let mut m = Metrics::new();
        m.set("sched.tasks", tasks.len() as f64);
        m.set("sched.task_p50_s", median(&tasks).unwrap_or(0.0));
        m.set("sched.task_max_s", percentile(&tasks, 100.0).unwrap_or(0.0));
        m.set(
            "sched.busy_share",
            tasks.iter().sum::<f64>() / (pool.iter().sum::<f64>() * width),
        );
        m.set("traffic.generate_s", secs("traffic.generate"));
        m.set(
            "traffic.arrivals",
            outs.iter().map(|o| o.sim.arrivals).sum::<u64>() as f64,
        );
        m.set("sim.run_s", sim_s);
        m.set("sim.events", events as f64);
        m.set("sim.events_per_s", events as f64 / sim_s);
        m.set(
            "sim.peak_queue_depth",
            outs.iter()
                .map(|o| o.sim.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        m.set("sim.partitions", partitions as f64);
        m.set(
            "sim.vol_ctx_switches_per_kevent",
            usage.vol_ctx as f64 / (events as f64 / 1e3),
        );
        m.set("sim.sys_share", usage.sys_s / usage.cpu_s());
        m.set(
            "sim.probe_impair_drops",
            outs.iter().map(|o| o.sim.probe_impair_drops).sum::<u64>() as f64,
        );
        m.set(
            "sim.probe_overflow_drops",
            outs.iter().map(|o| o.sim.probe_overflow_drops).sum::<u64>() as f64,
        );
        m.set("analysis.loss_s", secs("analysis.loss"));
        m.set("analysis.phase_s", secs("analysis.phase"));
        m.set("analysis.bottleneck_s", secs("analysis.bottleneck"));
        m.set("analysis.records_per_s", records as f64 / analysis_s);
        Ok(Iteration {
            timed,
            attempted: self.tasks(),
            failed,
            layer: m,
            spans,
        })
    }

    fn check(&mut self, traced: bool) -> Result<(u64, u64), String> {
        if !traced {
            self.partitions = Some(simcall::observe_partitions());
            return Ok((0, 0));
        }
        // Each traced task against the bundled `PaperScenario::run`.
        let configs = &self.configs;
        let bundled: Vec<(Cell, String)> = sched::par_map(self.cells(), |(di, seed, _)| {
            let out = PaperScenario::inria_umd(seed).run(&configs[di]);
            (
                analyze(None, 0, &out.series).0,
                simcall::record_digest(&out.series),
            )
        });
        let mut failed = 0;
        for (i, (b, t)) in bundled.iter().zip(&self.traced).enumerate() {
            if b.0.bits() != t.0.bits() || b.1 != t.1 {
                failed += 1;
                self.failures.push(format!(
                    "task {i}: traced output differs from PaperScenario::run"
                ));
            }
        }
        Ok((bundled.len() as u64, failed))
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
