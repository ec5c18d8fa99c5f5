//! Command-line parsing. Every malformed argument is a typed error that
//! `main` turns into a message and exit code 2, never a panic.

use std::fmt;

/// The four workloads, by the names `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The δ × seed campaign matrix behind Table 3.
    PaperSweep,
    /// One long bursty-transatlantic run at δ = 8 ms.
    BurstyLong,
    /// Collectors, snapshot frames and the merge service.
    FleetMerge,
    /// The live reactor against a loopback echo peer.
    LiveLoopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::BurstyLong,
        Workload::FleetMerge,
        Workload::LiveLoopback,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::BurstyLong => "bursty-long",
            Workload::FleetMerge => "fleet-merge",
            Workload::LiveLoopback => "live-loopback",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the measured iterations run, in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text printed with every argument error.
pub const USAGE: &str =
    "usage: probenet-perfbench --workload <paper-sweep|bursty-long|fleet-merge|live-loopback> \
--seed <u64> [--seconds <1..3600>] [--trace <0|1>]";

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, ArgError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| ArgError(format!("{flag} needs a value")))
}

/// Parse the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it)?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| ArgError(format!("unknown workload `{name}`")))?,
                );
            }
            "--seed" => {
                let v = value(flag, &mut it)?;
                seed = Some(v.parse::<u64>().map_err(|_| {
                    ArgError(format!("--seed must be an unsigned integer, got `{v}`"))
                })?);
            }
            "--seconds" => {
                let v = value(flag, &mut it)?;
                seconds = v
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| {
                        ArgError(format!(
                            "--seconds must be an integer in 1..=3600, got `{v}`"
                        ))
                    })?;
            }
            "--trace" => {
                trace = match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    v => return Err(ArgError(format!("--trace must be 0 or 1, got `{v}`"))),
                };
            }
            other => return Err(ArgError(format!("unknown argument `{other}`"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| ArgError("--workload is required".into()))?,
        seed: seed.ok_or_else(|| ArgError("--seed is required".into()))?,
        seconds,
        trace,
    })
}
