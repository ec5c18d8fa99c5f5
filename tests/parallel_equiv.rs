//! Partitioned-parallel equivalence matrix: the conservative-lookahead
//! engine must be **byte-identical** to the serial engine at every
//! partition width, through every consumer layer — raw series records,
//! streaming sink taps, and port statistics. The widths cover the CI
//! determinism matrix (`PROBENET_THREADS` ∈ {1, 4, 8}) plus 2, the default
//! on two-core hosts, and 3; these tests pin the width in-process so they
//! are independent of the environment.

use probenet::netdyn::{ExperimentConfig, RttRecord, SimExperiment};
use probenet::sim::{Direction, Path, SimDuration};
use probenet::traffic::InternetMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Partition widths compared against the serial run.
const WIDTHS: [usize; 4] = [2, 3, 4, 8];

/// The paper's transatlantic path, loaded in both directions at link
/// `cross_link`.
fn experiment_at(cross_link: usize, width: usize) -> SimExperiment {
    let cfg = ExperimentConfig::paper(SimDuration::from_millis(20)).with_count(1500);
    let mix = InternetMix::calibrated(128_000, 0.62, 0.10, 3.0);
    let horizon = SimDuration::from_secs(35);
    let out = mix.generate(&mut StdRng::seed_from_u64(21), horizon);
    let back = mix.generate(&mut StdRng::seed_from_u64(22), horizon);
    SimExperiment::new(cfg, Path::inria_umd_1992(), 1993)
        .with_cross_traffic(cross_link, Direction::Outbound, out)
        .with_cross_traffic(cross_link, Direction::Inbound, back)
        .with_partitions(width)
}

/// Cross traffic on link 5, next to the bottleneck: at width 2 both
/// loaded ports sit in the east partition.
fn experiment(width: usize) -> SimExperiment {
    experiment_at(5, width)
}

/// Records, port statistics and final clock at every width equal the
/// serial run's.
fn assert_identical_at_all_widths(cross_link: usize) {
    let (serial_series, serial_run) = experiment_at(cross_link, 1).run();
    assert_eq!(serial_run.partitions, 1);
    assert_eq!(serial_run.mailbox_parks, 0);
    let serial_json = serde_json::to_string(&serial_series.records).expect("serialize");
    let serial_ports: Vec<String> = serial_run
        .port_stats
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    for width in WIDTHS {
        let (series, run) = experiment_at(cross_link, width).run();
        assert_eq!(run.partitions, width, "width {width} did not partition");
        assert_eq!(
            serde_json::to_string(&series.records).expect("serialize"),
            serial_json,
            "records diverged at width {width}"
        );
        let ports: Vec<String> = run.port_stats.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(ports, serial_ports, "port stats diverged at width {width}");
        assert_eq!(
            run.now, serial_run.now,
            "final clock diverged at width {width}"
        );
    }
}

#[test]
fn series_and_port_stats_identical_at_all_widths() {
    assert_identical_at_all_widths(5);
}

#[test]
fn bottleneck_loaded_run_identical_at_all_widths() {
    // Cross traffic on the bottleneck itself, link 4: the width-2 plan
    // cuts that link, so its outbound port (west partition) and inbound
    // port (east partition) are loaded on opposite sides of the cut.
    assert_identical_at_all_widths(4);
}

#[test]
fn streaming_sink_sees_identical_records_at_all_widths() {
    let tap = |width: usize| {
        let mut seen: Vec<RttRecord> = Vec::new();
        let (series, _) = experiment(width).run_with_sink(|r| seen.push(*r));
        (seen, series)
    };
    let (serial_tap, serial_series) = tap(1);
    // The sink must see exactly the series' records, in sequence order.
    assert_eq!(serial_tap, serial_series.records);
    for width in WIDTHS {
        let (stream, series) = tap(width);
        assert_eq!(stream, serial_tap, "sink stream diverged at width {width}");
        assert_eq!(series.records, serial_series.records);
    }
}

#[test]
fn impaired_path_identical_at_all_widths() {
    // umd_pitt_1993 carries per-link random loss, exercising the per-port
    // RNG streams across partition boundaries.
    let run_at = |width: usize| {
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(10)).with_count(2000);
        let (series, run) = SimExperiment::new(cfg, Path::umd_pitt_1993(), 4021)
            .with_partitions(width)
            .run();
        let mut drops: Vec<(u64, u64, u8, u64)> = run
            .drops
            .iter()
            .map(|d| (d.id.0, d.seq, d.reason as u8, d.at.as_nanos()))
            .collect();
        drops.sort_unstable();
        (
            serde_json::to_string(&series.records).expect("serialize"),
            drops,
        )
    };
    let serial = run_at(1);
    for width in WIDTHS {
        assert_eq!(
            run_at(width),
            serial,
            "impaired run diverged at width {width}"
        );
    }
}
