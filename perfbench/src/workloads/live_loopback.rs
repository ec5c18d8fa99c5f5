//! `live-loopback`: 1024 sessions at δ = 20 ms on one `live::Reactor`
//! thread against the benchmark's echo peer on 127.0.0.1, records offered
//! to a Collector. An open loop on a fixed schedule.

use std::thread;
use std::time::{Duration, Instant};

use probenet_live::{LiveConfig, LiveHandle, LiveReport, Reactor, SessionSpec};
use probenet_stream::{
    fnv1a_u64s, BankConfig, Collector, CollectorConfig, CollectorReport, RunningCollector,
    SessionKey, SessionProducer, StreamRecord,
};

use crate::echo::EchoPeer;
use crate::metrics::Metrics;
use crate::procfs::{self, Usage};
use crate::runner::{timed, Bench, Iteration, Timed};
use crate::stats::{percentile_sorted_u64, SplitMix};
use crate::trace::{self, Tracer};

/// Concurrent sessions.
pub const SESSIONS: usize = 1024;
/// Probe interval, ms (51 200 probes/s offered).
pub const DELTA_MS: u64 = 20;
/// Probes per session: 512 000 probes over about 10 s.
pub const PROBES: usize = 500;

/// One resolved session, as the reactor handed it over.
struct Outcome {
    session: usize,
    records: Vec<StreamRecord>,
    echoed_at_ns: Vec<Option<u64>>,
    duplicates: u64,
    decode_errors: u64,
}

/// A reactor and collector ready to run.
struct Prepared {
    reactor: Reactor,
    _handle: LiveHandle,
    collector: Collector,
    producers: Vec<SessionProducer>,
}

/// What one run measured.
struct LiveRun {
    report: LiveReport,
    outcomes: Vec<Outcome>,
    collected: CollectorReport,
    reactor_usage: Usage,
    run_start_ns: u64,
    echo_received: u64,
    /// Probes the echo peer itself failed on (undecodable or unsendable).
    echo_failures: u64,
}

/// The `live-loopback` workload.
pub struct LiveLoopback {
    epoch: Instant,
    echo: EchoPeer,
    specs: Vec<SessionSpec>,
    prepared: Option<Prepared>,
    digest: String,
    failures: Vec<String>,
}

fn key(session: usize) -> SessionKey {
    SessionKey::new("live/loopback", DELTA_MS, session as u64)
}

impl LiveLoopback {
    /// Start the echo peer, lay out the sessions (start offsets spread
    /// over one δ in a seeded order) and build the reactor.
    pub fn setup(seed: u64) -> Result<LiveLoopback, String> {
        let epoch = Instant::now();
        let echo = EchoPeer::spawn(epoch).map_err(|e| format!("echo peer: {e}"))?;
        let mut slots: Vec<u64> = (0..SESSIONS as u64).collect();
        let mut g = SplitMix::new(seed, 4);
        for i in (1..slots.len()).rev() {
            slots.swap(i, (g.next_u64() % (i as u64 + 1)) as usize);
        }
        let delta = Duration::from_millis(DELTA_MS);
        let specs = slots
            .iter()
            .enumerate()
            .map(|(i, &slot)| SessionSpec {
                key: key(i),
                target: echo.addr(),
                interval: delta,
                count: PROBES,
                start_offset: delta * u32::try_from(slot).unwrap_or(0) / SESSIONS as u32,
                clock_resolution_ns: 0,
            })
            .collect();
        let mut live = LiveLoopback {
            epoch,
            echo,
            specs,
            prepared: None,
            digest: String::new(),
            failures: Vec::new(),
        };
        live.prepared = Some(live.prepare()?);
        Ok(live)
    }

    fn prepare(&self) -> Result<Prepared, String> {
        let (reactor, handle) = Reactor::new(self.specs.clone(), LiveConfig::default())
            .map_err(|e| format!("Reactor::new: {e}"))?;
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 1024,
            snapshot_every: 0,
        });
        let producers = (0..SESSIONS)
            .map(|s| collector.add_session(key(s), BankConfig::bolot(DELTA_MS as f64, 72, 0)))
            .collect();
        Ok(Prepared {
            reactor,
            _handle: handle,
            collector,
            producers,
        })
    }

    /// Run the reactor on its own thread; the sink offers every record to
    /// the session's ring.
    fn live(&self, p: Prepared, tr: Option<&Tracer>) -> Result<LiveRun, String> {
        let Prepared {
            reactor,
            _handle,
            collector,
            producers,
        } = p;
        let echo_before = self.echo.counts();
        let running: RunningCollector = collector.start();
        let run_start_ns = self.epoch.elapsed().as_nanos() as u64;
        let reactor_thread = |tr: Option<&Tracer>| {
            let mut producers: Vec<Option<SessionProducer>> =
                producers.into_iter().map(Some).collect();
            let mut outcomes = Vec::with_capacity(SESSIONS);
            let usage0 = procfs::thread_usage().unwrap_or_default();
            let run = || {
                reactor.run(|o| {
                    let session = usize::try_from(o.key.seed).unwrap_or(usize::MAX);
                    let offer = || {
                        if let Some(p) = producers.get_mut(session).and_then(Option::take) {
                            for r in &o.records {
                                p.offer(*r);
                            }
                        }
                    };
                    trace::span(tr, "stream.offer", session as u64, offer);
                    outcomes.push(Outcome {
                        session,
                        records: o.records,
                        echoed_at_ns: o.echoed_at_ns,
                        duplicates: o.duplicates,
                        decode_errors: o.decode_errors,
                    });
                })
            };
            let report = trace::span(tr, "live.reactor", 0, run);
            let usage = procfs::thread_usage().unwrap_or_default().since(&usage0);
            drop(producers);
            (report, outcomes, usage)
        };
        let joined = thread::scope(|scope| {
            let spawn = || {
                thread::Builder::new()
                    .name("perfbench-reactor".into())
                    .spawn_scoped(scope, move || reactor_thread(tr))
                    .map(|h| h.join())
            };
            trace::span(tr, "live.run", 0, spawn)
        });
        let (report, outcomes, reactor_usage) = joined
            .map_err(|e| format!("spawn reactor thread: {e}"))?
            .map_err(|_| "reactor thread panicked".to_string())?;
        let report = report.map_err(|e| format!("reactor run: {e}"))?;
        let collected = trace::span(tr, "stream.join", 0, || running.join());
        let echo_after = self.echo.counts();
        Ok(LiveRun {
            report,
            outcomes,
            collected,
            reactor_usage,
            run_start_ns,
            echo_received: echo_after.received - echo_before.received,
            echo_failures: (echo_after.decode_errors + echo_after.send_failures)
                - (echo_before.decode_errors + echo_before.send_failures),
        })
    }

    fn iteration(&mut self, tr: Option<&Tracer>) -> Result<(LiveRun, Timed), String> {
        let prepared = match self.prepared.take() {
            Some(p) => p,
            None => self.prepare()?,
        };
        let (run, timed) = timed(|| self.live(prepared, tr))?;
        Ok((run?, timed))
    }

    /// Check one run's accounting; returns `(attempted, failed)` and the
    /// per-layer values.
    fn account(&mut self, run: &LiveRun, timed: &Timed) -> (u64, u64, Metrics) {
        let stats = &run.report.stats;
        let scheduled: u64 = run.outcomes.iter().map(|o| o.records.len() as u64).sum();
        let records = run.collected.total_records();
        let dropped = run.collected.total_dropped();
        let mut seen = vec![false; SESSIONS];
        let mut rtts = Vec::with_capacity(scheduled as usize);
        let mut echo_delays = Vec::with_capacity(scheduled as usize);
        let mut digest_words = Vec::new();
        for o in &run.outcomes {
            let (Some(s), Some(spec)) = (seen.get_mut(o.session), self.specs.get(o.session)) else {
                self.failures
                    .push(format!("an outcome names unknown session {}", o.session));
                continue;
            };
            if std::mem::replace(s, true) {
                self.failures
                    .push(format!("session {} resolved twice", o.session));
            }
            let due0 = run.run_start_ns + spec.start_offset.as_nanos() as u64;
            let interval = spec.interval.as_nanos() as u64;
            for (n, (r, echoed)) in o.records.iter().zip(&o.echoed_at_ns).enumerate() {
                if let Some(rtt) = r.rtt_ns {
                    rtts.push(rtt / 1_000);
                }
                if let Some(at) = echoed {
                    echo_delays.push(at.saturating_sub(due0 + interval * n as u64) / 1_000);
                }
            }
            digest_words.push(o.session as u64);
            digest_words.push(o.records.len() as u64);
        }
        self.digest = fnv1a_u64s(digest_words);
        if seen.iter().any(|s| !s) || run.outcomes.len() != SESSIONS {
            self.failures.push(format!(
                "{} outcomes for {SESSIONS} sessions",
                run.outcomes.len()
            ));
        }
        if records + dropped != scheduled {
            self.failures.push(format!(
                "records {records} + dropped {dropped} != produced {scheduled}"
            ));
        }
        let replies = stats.replies_received;
        let ordered = scheduled >= stats.probes_sent
            && stats.probes_sent >= run.echo_received
            && run.echo_received >= replies;
        if !ordered {
            self.failures.push(format!(
                "probe accounting out of order: scheduled {scheduled}, sent {}, echoed {}, replies {replies}",
                stats.probes_sent, run.echo_received
            ));
        }
        if run.echo_failures > 0 {
            self.failures.push(format!(
                "the echo peer failed on {} probes: the harness, not the reactor, lost them",
                run.echo_failures
            ));
        }
        let failed = scheduled.saturating_sub(replies) + dropped;

        rtts.sort_unstable();
        echo_delays.sort_unstable();
        let pct = |v: &[u64], p| percentile_sorted_u64(v, p).unwrap_or(0) as f64;
        let batched_sent = stats
            .probes_sent
            .saturating_sub(stats.fallback_send_datagrams);
        let batched_recv =
            (replies + stats.stray_datagrams).saturating_sub(stats.fallback_recv_datagrams);
        let mut m = Metrics::new();
        m.set("live.probes_sent", stats.probes_sent as f64);
        m.set("live.replies_received", replies as f64);
        m.set("live.echo_received", run.echo_received as f64);
        m.set(
            "live.outbound_lost",
            stats.probes_sent.saturating_sub(run.echo_received) as f64,
        );
        m.set(
            "live.return_lost",
            run.echo_received.saturating_sub(replies) as f64,
        );
        m.set(
            "live.unsent",
            scheduled.saturating_sub(stats.probes_sent) as f64,
        );
        m.set(
            "live.datagrams_per_send_call",
            batched_sent as f64 / stats.batched_send_calls.max(1) as f64,
        );
        m.set(
            "live.datagrams_per_recv_call",
            batched_recv as f64 / stats.batched_recv_calls.max(1) as f64,
        );
        m.set(
            "live.fallback_datagrams",
            (stats.fallback_send_datagrams + stats.fallback_recv_datagrams) as f64,
        );
        m.set(
            "live.backpressure_deferrals",
            stats.backpressure_deferrals as f64,
        );
        m.set("live.send_errors", stats.send_errors as f64);
        m.set("live.stray_datagrams", stats.stray_datagrams as f64);
        m.set(
            "live.duplicates",
            run.outcomes.iter().map(|o| o.duplicates).sum::<u64>() as f64,
        );
        m.set(
            "live.decode_errors",
            run.outcomes.iter().map(|o| o.decode_errors).sum::<u64>() as f64,
        );
        m.set("live.lateness_p50_us", run.report.lateness_p50_us as f64);
        m.set("live.lateness_p99_us", run.report.lateness_p99_us as f64);
        m.set(
            "live.reactor_vol_ctx_switches",
            run.reactor_usage.vol_ctx as f64,
        );
        m.set(
            "live.reactor_invol_ctx_switches",
            run.reactor_usage.invol_ctx as f64,
        );
        m.set("live.rtt_samples", rtts.len() as f64);
        m.set("live.rtt_p50_us", pct(&rtts, 50.0));
        m.set("live.rtt_p99_us", pct(&rtts, 99.0));
        m.set("live.echo_delay_p50_us", pct(&echo_delays, 50.0));
        m.set("live.echo_delay_p99_us", pct(&echo_delays, 99.0));
        m.set(
            "live.cpu_us_per_probe",
            run.reactor_usage.cpu_s() * 1e6 / stats.probes_sent.max(1) as f64,
        );
        m.set("stream.records", records as f64);
        m.set("stream.dropped", dropped as f64);
        m.set("stream.records_per_s", records as f64 / timed.wall_s);
        m.set("stream.interim_snapshots", 0.0);
        (scheduled, failed, m)
    }
}

impl Bench for LiveLoopback {
    fn layers(&self) -> &'static [&'static str] {
        &["live", "stream"]
    }

    fn run(&mut self) -> Result<Iteration, String> {
        let (run, timed) = self.iteration(None)?;
        let (attempted, failed, _) = self.account(&run, &timed);
        Ok(Iteration {
            timed,
            attempted,
            failed,
            ..Iteration::default()
        })
    }

    fn run_traced(&mut self) -> Result<Iteration, String> {
        let tr = Tracer::new();
        let (run, timed) = self.iteration(Some(&tr))?;
        let (attempted, failed, mut m) = self.account(&run, &timed);
        let spans = tr.into_spans();
        let selfs = trace::self_times(&spans);
        m.set(
            "stream.push_s",
            trace::durations_secs(&spans, "stream.offer").iter().sum(),
        );
        m.set(
            "stream.join_s",
            trace::self_secs(&spans, &selfs, "stream.join"),
        );
        Ok(Iteration {
            timed,
            attempted,
            failed,
            layer: m,
            spans,
        })
    }

    fn check(&mut self, _traced: bool) -> Result<(u64, u64), String> {
        if let Err(e) = self.echo.stop() {
            self.failures
                .push(format!("the echo peer stopped early: {e}"));
        }
        Ok((0, 0))
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn failures(&self) -> Vec<String> {
        self.failures.clone()
    }
}
