//! Microbenchmarks of the simulation substrate: event queue, engine
//! throughput, Lindley recurrence.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use probenet_netdyn::{ExperimentConfig, SimExperiment};
use probenet_queueing::{finite_queue, waiting_times};
use probenet_sim::{Direction, Engine, EventQueue, Path, SimDuration, SimTime};
use probenet_traffic::InternetMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                // Pseudorandom but deterministic times.
                let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                q.schedule(SimTime::from_nanos(1_000_000_000 + t), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

/// 1M events in the engine's characteristic pattern: each popped event
/// schedules a couple of follow-ups — mostly time-local (transmission /
/// propagation scale), occasionally far ahead (pre-injected probe
/// schedules) — so the indexed queue's buckets, in-run splices and
/// overflow epochs all get exercised.
const MIXED_EVENTS: u64 = 1_000_000;

fn drive_mixed() -> u64 {
    let mut q = EventQueue::new();
    // Seed the cascade with far-apart roots, as probe pre-injection does.
    for i in 0..1000u64 {
        q.schedule(SimTime::from_nanos(i * 120_000_000), i);
    }
    let mut scheduled = 1000u64;
    let mut acc = 0u64;
    while let Some((at, e)) = q.pop() {
        acc = acc.wrapping_add(e);
        if scheduled < MIXED_EVENTS {
            // Two time-local follow-ups (same/adjacent bucket)...
            let jitter = (e.wrapping_mul(2_654_435_761)) % 400_000;
            q.schedule(at + SimDuration::from_nanos(jitter), scheduled);
            q.schedule(
                at + SimDuration::from_nanos(50_000 + jitter / 2),
                scheduled + 1,
            );
            scheduled += 2;
            // ...and occasionally one far-future event (overflow epoch).
            if e % 64 == 0 {
                q.schedule(
                    at + SimDuration::from_nanos(2_000_000_000 + jitter),
                    scheduled,
                );
                scheduled += 1;
            }
        }
    }
    black_box(acc)
}

fn bench_queue_mixed(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_1m_mixed");
    g.sample_size(10);
    g.bench_function("indexed", |b| b.iter(drive_mixed));
    g.finish();
}

fn bench_engine_probes_only(c: &mut Criterion) {
    c.bench_function("engine_inria_umd_2000_probes_unloaded", |b| {
        b.iter(|| {
            let mut e = Engine::new(Path::inria_umd_1992(), 1);
            for n in 0..2000u64 {
                e.inject_probe(SimTime::from_millis(20 * n), 72, n);
            }
            e.run();
            black_box(e.probe_deliveries().count())
        })
    });
}

fn bench_engine_loaded(c: &mut Criterion) {
    let mix = InternetMix::calibrated(128_000, 0.6, 0.2, 3.0);
    let arrivals = mix.generate(&mut StdRng::seed_from_u64(7), SimDuration::from_secs(40));
    let (bottleneck, _) = Path::inria_umd_1992().bottleneck();
    c.bench_function("engine_inria_umd_2000_probes_loaded", |b| {
        b.iter(|| {
            let mut e = Engine::new(Path::inria_umd_1992(), 1);
            e.attach_cross_traffic(
                bottleneck,
                Direction::Outbound,
                arrivals.iter().map(|a| a.into_pair()),
            );
            for n in 0..2000u64 {
                e.inject_probe(SimTime::from_millis(20 * n), 72, n);
            }
            e.run();
            black_box(e.probe_deliveries().count())
        })
    });
}

fn bench_sim_experiment(c: &mut Criterion) {
    c.bench_function("sim_experiment_1000_probes", |b| {
        b.iter(|| {
            let cfg = ExperimentConfig::quick(SimDuration::from_millis(20), 1000);
            let (series, _) = SimExperiment::new(cfg, Path::inria_umd_1992(), 3).run();
            black_box(series.received())
        })
    });
}

fn bench_lindley(c: &mut Criterion) {
    let n = 100_000;
    let gaps: Vec<f64> = (0..n - 1).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
    let services: Vec<f64> = (0..n).map(|i| 0.4 + (i % 5) as f64 * 0.15).collect();
    c.bench_function("lindley_waiting_times_100k", |b| {
        b.iter(|| black_box(waiting_times(&gaps, &services, 0.0)))
    });

    let arrivals: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.6).collect();
    let svc: Vec<f64> = (0..10_000).map(|i| 0.5 + (i % 3) as f64 * 0.2).collect();
    c.bench_function("finite_queue_10k", |b| {
        b.iter(|| black_box(finite_queue(&arrivals, &svc, 16)))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_queue_mixed,
    bench_engine_probes_only,
    bench_engine_loaded,
    bench_sim_experiment,
    bench_lindley
);
criterion_main!(benches);
