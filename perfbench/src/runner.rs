//! The measurement loop shared by every workload: repeated set-up, timed
//! iterations for the run's seconds, medians, output checks and the
//! result line.

use std::time::Instant;

use crate::args::Args;
use crate::metrics::{self, Metrics, END_TO_END, PER_LAYER};
use crate::procfs::{self, Usage};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Largest gap allowed between a traced iteration's `wall_s` and the self
/// time of the main thread's spans, as a share of `wall_s`.
pub const MAX_SPAN_GAP: f64 = 0.05;
/// Set-ups repeat until this much time has gone by...
pub const SETUP_SECONDS: f64 = 1.0;
/// ...or this many have run.
pub const SETUP_MAX_REPEATS: usize = 100_000;

/// What one timed region cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU and context switches over the region.
    pub usage: Usage,
    /// Change in the kernel's UDP receive-buffer drop counter.
    pub udp_rcvbuf_errors: u64,
}

/// Run `f` as a timed region.
pub fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, Timed), String> {
    let usage0 = procfs::process_usage().ok_or("getrusage is unavailable")?;
    let drops0 = procfs::udp_rcvbuf_errors().unwrap_or(0);
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = procfs::process_usage()
        .ok_or("getrusage is unavailable")?
        .since(&usage0);
    let drops = procfs::udp_rcvbuf_errors()
        .unwrap_or(0)
        .saturating_sub(drops0);
    Ok((
        out,
        Timed {
            wall_s,
            usage,
            udp_rcvbuf_errors: drops,
        },
    ))
}

/// One iteration of a workload's fixed work.
#[derive(Debug, Default)]
pub struct Iteration {
    /// The timed region.
    pub timed: Timed,
    /// Operations attempted in it.
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Per-layer values (traced iterations only).
    pub layer: Metrics,
    /// Spans (traced iterations only), the timed region driven from the
    /// runner's thread.
    pub spans: Vec<Span>,
}

/// A workload's inputs plus the means to run it.
pub trait Bench {
    /// Layers the workload drives (the prefixes of its per-layer
    /// metrics); every other layer reports zero work.
    fn layers(&self) -> &'static [&'static str];
    /// One untraced iteration: the bundled public call.
    fn run(&mut self) -> Result<Iteration, String>;
    /// One traced iteration: the layer calls made one by one under spans.
    fn run_traced(&mut self) -> Result<Iteration, String>;
    /// Output checks made once, outside every timed region, after the
    /// iterations. Returns `(attempted, failed)` to add to the totals.
    fn check(&mut self, traced: bool) -> Result<(u64, u64), String>;
    /// Partition count the simulation runs used, if any ran.
    fn partitions(&self) -> Option<usize> {
        None
    }
    /// A digest of the workload's result for this seed.
    fn digest(&self) -> String;
    /// Every output check that failed so far, one message each.
    fn failures(&self) -> Vec<String>;
}

/// Everything one invocation prints.
#[derive(Debug)]
pub struct Report {
    /// Comment lines printed before the metrics (host header first).
    pub header: Vec<String>,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Declared metrics in declared order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn iterate(bench: &mut dyn Bench, seconds: f64, traced: bool) -> Result<Vec<Iteration>, String> {
    // Start another iteration only if it should end within `seconds`,
    // judging by the longest one so far; the first always runs.
    let t0 = Instant::now();
    let mut out: Vec<Iteration> = Vec::new();
    let mut longest = 0.0f64;
    while out.is_empty() || t0.elapsed().as_secs_f64() + longest <= seconds {
        let start = Instant::now();
        out.push(if traced {
            bench.run_traced()?
        } else {
            bench.run()?
        });
        longest = longest.max(start.elapsed().as_secs_f64());
    }
    Ok(out)
}

fn median_of(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iters.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Run `args` and assemble the report.
pub fn run(args: &Args) -> Result<Report, String> {
    // Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS,
    // so even a sub-microsecond set-up gets a steady median.
    let mut setups = Vec::new();
    let mut bench = None;
    let t0 = Instant::now();
    while setups.len() < SETUP_REPEATS
        || (t0.elapsed().as_secs_f64() < SETUP_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        drop(bench.take());
        let start = Instant::now();
        let b = workloads::setup(args.workload, args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    let seconds = args.seconds as f64;
    let (plain, traced) = if args.trace {
        let plain = iterate(bench.as_mut(), seconds / 2.0, false)?;
        let traced = iterate(bench.as_mut(), seconds / 2.0, true)?;
        (plain, traced)
    } else {
        (iterate(bench.as_mut(), seconds, false)?, Vec::new())
    };
    let (extra_attempted, extra_failed) = bench.check(args.trace)?;
    let attempted = plain
        .iter()
        .chain(&traced)
        .map(|i| i.attempted)
        .sum::<u64>()
        + extra_attempted;
    let failed = plain.iter().chain(&traced).map(|i| i.failed).sum::<u64>() + extra_failed;

    let mut m = Metrics::new();
    let mut failures = bench.failures();
    let declared = if args.trace {
        failures.extend(per_layer(
            &mut m,
            bench.layers(),
            &plain,
            &traced,
            attempted,
            failed,
        )?);
        PER_LAYER
    } else {
        m.set("setup_s", median(&setups).unwrap_or(0.0));
        m.set("wall_s", median_of(&plain, |i| i.timed.wall_s));
        m.set("cpu_s", median_of(&plain, |i| i.timed.usage.cpu_s()));
        m.set(
            "peak_rss_mib",
            procfs::peak_rss_mib().ok_or("VmHWM is unavailable in /proc/self/status")?,
        );
        END_TO_END
    };
    let metrics = m.finish(declared)?;

    let partitions = bench.partitions();
    let threads_env = std::env::var("PROBENET_THREADS").ok();
    let mut header = vec![format!(
        "host nproc={} effective_threads={} sim.partitions={} PROBENET_THREADS={} comparable={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        probenet_sim::effective_threads(),
        partitions.map_or("none".to_string(), |p| p.to_string()),
        threads_env.as_deref().unwrap_or("unset"),
        if threads_env.is_some() {
            "NO (PROBENET_THREADS is set; not comparable to BENCHMARK.json)"
        } else {
            "yes"
        },
    )];
    header.push(format!(
        "workload={} seed={} seconds={} trace={} iterations={}+{} setups={} digest={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        setups.len(),
        bench.digest(),
    ));
    let walls = |iters: &[Iteration]| {
        iters
            .iter()
            .map(|i| format!("{:.4}", i.timed.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    header.push(format!(
        "wall_s per iteration: untraced [{}] traced [{}]",
        walls(&plain),
        walls(&traced)
    ));
    if let Some(p) = partitions.filter(|&p| p != probenet_sim::effective_threads()) {
        failures.push(format!(
            "sim.partitions {p} != effective_threads() {}",
            probenet_sim::effective_threads()
        ));
    }
    header.extend(failures.iter().map(|f| format!("CHECK FAILED: {f}")));
    Ok(Report {
        header,
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Fill the per-layer metrics from the traced iterations (medians) and
/// the untraced ones (operating-system counters, overhead baseline).
/// Returns the tracing checks that failed.
fn per_layer(
    m: &mut Metrics,
    layers: &[&str],
    plain: &[Iteration],
    traced: &[Iteration],
    attempted: u64,
    failed: u64,
) -> Result<Vec<String>, String> {
    let mut names: Vec<&'static str> = Vec::new();
    for it in traced {
        for (name, _) in PER_LAYER {
            if it.layer.get(name).is_some() && !names.contains(name) {
                names.push(name);
            }
        }
    }
    for &name in &names {
        m.set(
            name,
            median_of(traced, |i| i.layer.get(name).unwrap_or(0.0)),
        );
    }
    for &(name, _) in PER_LAYER {
        let layer = name.split('.').next().unwrap_or(name);
        if m.get(name).is_some() || matches!(layer, "os" | "trace" | "failed_share") {
            continue;
        }
        if layers.contains(&layer) {
            return Err(format!("the traced run did not measure `{name}`"));
        }
        // A layer the workload bypasses did no work.
        m.set(name, 0.0);
    }
    m.set("os.user_s", median_of(plain, |i| i.timed.usage.user_s));
    m.set("os.sys_s", median_of(plain, |i| i.timed.usage.sys_s));
    m.set(
        "os.vol_ctx_switches",
        median_of(plain, |i| i.timed.usage.vol_ctx as f64),
    );
    m.set(
        "os.invol_ctx_switches",
        median_of(plain, |i| i.timed.usage.invol_ctx as f64),
    );
    m.set(
        "os.udp_rcvbuf_errors",
        median_of(plain, |i| i.timed.udp_rcvbuf_errors as f64),
    );
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    m.set(
        "trace.overhead_s",
        median_of(traced, |i| i.timed.wall_s) - median_of(plain, |i| i.timed.wall_s),
    );
    let main = trace::thread_id();
    let shares: Vec<f64> = traced
        .iter()
        .map(|i| {
            let selfs = trace::self_times(&i.spans);
            trace::thread_self_secs(&i.spans, &selfs, main) / i.timed.wall_s
        })
        .collect();
    m.set("trace.main_span_share", median(&shares).unwrap_or(0.0));
    let mut failures = Vec::new();
    if let Some(low) = shares
        .iter()
        .copied()
        .find(|&s| (s - 1.0).abs() > MAX_SPAN_GAP)
    {
        failures.push(format!(
            "the main thread's span self times cover {low:.4} of a traced wall_s, not 1 ± {MAX_SPAN_GAP}"
        ));
    }
    m.set("trace.spans", median_of(traced, |i| i.spans.len() as f64));
    Ok(failures)
}

/// Parse, run and print; returns the process exit code.
pub fn main_with(argv: &[String]) -> i32 {
    let args = match crate::args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", crate::args::USAGE);
            return 2;
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.header {
                println!("# {line}");
            }
            for (name, value, unit) in &report.metrics {
                println!("# {name} = {value} {unit}");
            }
            println!(
                "{}",
                metrics::result_json(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct {
                0
            } else {
                eprintln!("error: an output check failed (see the lines above)");
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            3
        }
    }
}
