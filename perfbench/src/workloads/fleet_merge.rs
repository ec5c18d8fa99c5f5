//! `fleet-merge`: K collectors, each fed by one producer thread, their
//! reports shipped as PNSF snapshot frames and folded by one
//! `MergeService`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::thread;

use probenet_merged::MergeService;
use probenet_stream::{
    fnv1a_u64s, BankConfig, Collector, CollectorConfig, CollectorReport, EstimatorBank, SessionKey,
    SessionProducer, StreamRecord,
};
use probenet_wire::snapshot::SessionFrame;

use crate::metrics::Metrics;
use crate::runner::{timed, Bench, Iteration};
use crate::stats::SplitMix;
use crate::trace::{self, Tracer};

/// Collectors (one producer thread each).
pub const COLLECTORS: usize = 2;
/// Probe sessions across the fleet; every odd one is split into two
/// segment shards on different collectors.
pub const SESSIONS: usize = 192;
/// Records per session.
pub const RECORDS: usize = 12_000;
/// Interim snapshot period of every collector, records.
pub const SNAPSHOT_EVERY: u64 = 4_096;
/// Ring capacity per session.
pub const CHANNEL_CAPACITY: usize = 1024;
/// Records a producer pushes to one session before moving to the next.
const PUSH_CHUNK: usize = 64;
/// Probe intervals the sessions cycle through, ms.
const DELTAS_MS: [u64; 3] = [20, 50, 100];

/// One session's records on one collector.
#[derive(Debug, Clone)]
struct Shard {
    session: usize,
    range: Range<usize>,
}

/// Bolot-shaped records: RTT near 140 ms plus a mean-reverting queueing
/// walk, losses from a two-state (Gilbert) channel so they come in runs.
fn session_records(seed: u64, session: usize, delta_ms: u64) -> Vec<StreamRecord> {
    let mut g = SplitMix::new(seed, 100 + session as u64);
    let mut bad = false;
    let mut queue_ms = 0.0f64;
    (0..RECORDS as u64)
        .map(|seq| {
            bad = if bad {
                g.unit() >= 0.35
            } else {
                g.unit() < 0.02
            };
            queue_ms = (queue_ms * 0.95 + g.unit() * 4.0 - 1.0).clamp(0.0, 250.0);
            let rtt_us = ((140.0 + queue_ms + g.unit() * 0.5) * 1e3) as u64;
            StreamRecord {
                seq,
                sent_at_ns: seq * delta_ms * 1_000_000,
                rtt_ns: (!bad).then_some(rtt_us * 1_000),
            }
        })
        .collect()
}

/// Canonical JSON of a snapshot part, for byte comparison.
fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// What one pass through the fleet produced.
struct FleetRun {
    merged: CollectorReport,
    produced: u64,
    frames: u64,
    frames_ingested: u64,
    frame_bytes: u64,
    peak_buffer_bytes: usize,
    interim: u64,
}

/// The `fleet-merge` workload.
pub struct FleetMerge {
    keys: Vec<SessionKey>,
    configs: Vec<BankConfig>,
    records: Vec<Vec<StreamRecord>>,
    /// Shards per collector.
    plan: Vec<Vec<Shard>>,
    first: Option<(String, CollectorReport)>,
    failures: Vec<String>,
}

impl FleetMerge {
    /// Generate every session's records and the shard plan from `seed`.
    pub fn setup(seed: u64) -> FleetMerge {
        let mut cuts = SplitMix::new(seed, 3);
        let mut plan = vec![Vec::new(); COLLECTORS];
        let mut keys = Vec::new();
        let mut configs = Vec::new();
        let mut records = Vec::new();
        for s in 0..SESSIONS {
            let delta_ms = DELTAS_MS[s % DELTAS_MS.len()];
            keys.push(SessionKey::new("fleet/inria-umd", delta_ms, s as u64));
            configs.push(BankConfig::bolot(delta_ms as f64, 72, 0));
            records.push(session_records(seed, s, delta_ms));
            if s % 2 == 1 {
                let cut = RECORDS / 4 + (cuts.next_u64() % (RECORDS as u64 / 2)) as usize;
                plan[s % COLLECTORS].push(Shard {
                    session: s,
                    range: 0..cut,
                });
                plan[(s + 1) % COLLECTORS].push(Shard {
                    session: s,
                    range: cut..RECORDS,
                });
            } else {
                plan[s % COLLECTORS].push(Shard {
                    session: s,
                    range: 0..RECORDS,
                });
            }
        }
        FleetMerge {
            keys,
            configs,
            records,
            plan,
            first: None,
            failures: Vec::new(),
        }
    }

    /// One collector per shard list: add its sessions and start it.
    fn start_collector(
        &self,
        shards: &[Shard],
    ) -> (probenet_stream::RunningCollector, Vec<SessionProducer>) {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: CHANNEL_CAPACITY,
            snapshot_every: SNAPSHOT_EVERY,
        });
        let producers = shards
            .iter()
            .map(|sh| {
                collector.add_session(
                    self.keys[sh.session].clone(),
                    self.configs[sh.session].clone(),
                )
            })
            .collect();
        (collector.start(), producers)
    }

    /// Push every shard's records, a chunk per session in turn, blocking
    /// on full rings. Returns the records offered.
    fn produce(&self, shards: &[Shard], producers: Vec<SessionProducer>) -> u64 {
        let mut open: Vec<(Range<usize>, usize, SessionProducer)> = shards
            .iter()
            .zip(producers)
            .map(|(sh, p)| (sh.range.clone(), sh.session, p))
            .collect();
        let mut produced = 0u64;
        while !open.is_empty() {
            open.retain_mut(|(range, session, producer)| {
                let end = (range.start + PUSH_CHUNK).min(range.end);
                for r in &self.records[*session][range.start..end] {
                    producer.push(*r);
                    produced += 1;
                }
                range.start = end;
                // Dropping a finished producer closes its session.
                range.start < range.end
            });
        }
        produced
    }

    /// The whole fleet: produce, join, encode, ingest, fold. `tr` adds
    /// spans around every layer call.
    fn fleet(&self, tr: Option<&Tracer>) -> Result<FleetRun, String> {
        let (running, produced) = trace::span(tr, "stream.produce", 0, || {
            thread::scope(|scope| {
                let mut running = Vec::new();
                let mut pushers = Vec::new();
                for (c, shards) in self.plan.iter().enumerate() {
                    let (collector, producers) = self.start_collector(shards);
                    running.push(collector);
                    pushers.push(scope.spawn(move || {
                        trace::span(tr, "stream.push", c as u64, || {
                            self.produce(shards, producers)
                        })
                    }));
                }
                let produced: u64 = pushers
                    .into_iter()
                    .map(|h| h.join().expect("producer thread panicked"))
                    .sum();
                (running, produced)
            })
        });
        let reports: Vec<CollectorReport> = trace::span(tr, "stream.join", 0, || {
            running.into_iter().map(|r| r.join()).collect()
        });
        let interim = reports
            .iter()
            .flat_map(|r| &r.sessions)
            .map(|s| s.interim.len() as u64)
            .sum();
        let mut frames = 0u64;
        let streams: Vec<Vec<u8>> = reports
            .iter()
            .zip(&self.plan)
            .enumerate()
            .map(|(c, (report, shards))| {
                trace::span(tr, "wire.encode", c as u64, || {
                    let first_seq: BTreeMap<&SessionKey, u64> = shards
                        .iter()
                        .map(|sh| (&self.keys[sh.session], sh.range.start as u64))
                        .collect();
                    let mut bytes = Vec::new();
                    for session in &report.sessions {
                        let mut frame = SessionFrame::from_report(session);
                        frame.first_seq = first_seq.get(&session.key).copied().unwrap_or(0);
                        bytes.extend(frame.encode());
                        frames += 1;
                    }
                    bytes
                })
            })
            .collect();
        let frame_bytes = streams.iter().map(|b| b.len() as u64).sum();
        let mut service = MergeService::new();
        for (c, bytes) in streams.iter().enumerate() {
            trace::span(tr, "merged.ingest", c as u64, || {
                service.ingest_reader(&mut bytes.as_slice())
            })
            .map_err(|e| format!("merge service rejected collector {c}'s stream: {e}"))?;
        }
        let frames_ingested = service.frames();
        let peak_buffer_bytes = service.peak_buffer_bytes();
        let merged = trace::span(tr, "merged.fold", 0, || service.into_report())
            .map_err(|e| format!("merge fold failed: {e}"))?;
        Ok(FleetRun {
            merged,
            produced,
            frames,
            frames_ingested,
            frame_bytes,
            peak_buffer_bytes,
            interim,
        })
    }

    /// Account for one pass and compare it with the first; returns
    /// `(attempted, failed)`.
    fn account(&mut self, run: FleetRun, what: &str) -> (u64, u64) {
        let records = run.merged.total_records();
        let dropped = run.merged.total_dropped();
        let mut failed = dropped + run.frames.saturating_sub(run.frames_ingested);
        if records + dropped != run.produced {
            self.failures.push(format!(
                "{what}: records {records} + dropped {dropped} != produced {}",
                run.produced
            ));
            failed += run.produced.abs_diff(records + dropped);
        }
        let digest = fnv1a_u64s(run.merged.to_json().bytes().map(u64::from));
        match &self.first {
            None => self.first = Some((digest, run.merged)),
            Some((first, _)) if *first != digest => {
                self.failures.push(format!(
                    "{what}: merged report digest {digest} != first {first}"
                ));
                failed += run.frames;
            }
            Some(_) => {}
        }
        (run.produced + run.frames, failed)
    }
}

impl Bench for FleetMerge {
    fn layers(&self) -> &'static [&'static str] {
        &["stream", "wire", "merged"]
    }

    fn run(&mut self) -> Result<Iteration, String> {
        let (run, timed) = timed(|| self.fleet(None))?;
        let (attempted, failed) = self.account(run?, "untraced fleet");
        Ok(Iteration {
            timed,
            attempted,
            failed,
            ..Iteration::default()
        })
    }

    fn run_traced(&mut self) -> Result<Iteration, String> {
        let tr = Tracer::new();
        let (run, timed) = timed(|| self.fleet(Some(&tr)))?;
        let run = run?;
        let spans = tr.into_spans();
        let selfs = trace::self_times(&spans);
        let secs = |name| trace::self_secs(&spans, &selfs, name);
        let records = run.merged.total_records() as f64;
        let bytes = run.frame_bytes as f64;
        let mut m = Metrics::new();
        m.set("stream.records", records);
        m.set("stream.dropped", run.merged.total_dropped() as f64);
        m.set(
            "stream.push_s",
            trace::durations_secs(&spans, "stream.push").iter().sum(),
        );
        m.set("stream.join_s", secs("stream.join"));
        m.set(
            "stream.records_per_s",
            records / (secs("stream.produce") + secs("stream.join")),
        );
        m.set("stream.interim_snapshots", run.interim as f64);
        m.set("wire.frames", run.frames as f64);
        m.set("wire.frame_bytes", bytes);
        m.set("wire.encode_s", secs("wire.encode"));
        m.set("wire.encode_mb_per_s", bytes / 1e6 / secs("wire.encode"));
        m.set("merged.ingest_s", secs("merged.ingest"));
        m.set(
            "merged.ingest_mb_per_s",
            bytes / 1e6 / secs("merged.ingest"),
        );
        m.set("merged.fold_s", secs("merged.fold"));
        m.set("merged.peak_buffer_bytes", run.peak_buffer_bytes as f64);
        let (attempted, failed) = self.account(run, "traced fleet vs untraced");
        Ok(Iteration {
            timed,
            attempted,
            failed,
            layer: m,
            spans,
        })
    }

    /// The DESIGN.md §14 identity: the merged report equals one
    /// collector's fold of the same sessions. Whole sessions match byte
    /// for byte; a split session's bank equals the in-memory merge of its
    /// two segment folds, and its integer state equals the single fold.
    fn check(&mut self, _traced: bool) -> Result<(u64, u64), String> {
        let mut reference = Collector::new(CollectorConfig {
            channel_capacity: CHANNEL_CAPACITY,
            snapshot_every: SNAPSHOT_EVERY,
        });
        let whole: Vec<Shard> = (0..SESSIONS)
            .map(|s| Shard {
                session: s,
                range: 0..RECORDS,
            })
            .collect();
        let producers = whole
            .iter()
            .map(|sh| {
                reference.add_session(
                    self.keys[sh.session].clone(),
                    self.configs[sh.session].clone(),
                )
            })
            .collect();
        let running = reference.start();
        self.produce(&whole, producers);
        let reference = running.join();
        let Some((_, merged)) = &self.first else {
            return Err("no fleet pass ran".into());
        };
        let mut failures = Vec::new();
        for (s, (m, r)) in merged.sessions.iter().zip(&reference.sessions).enumerate() {
            let idx = self
                .keys
                .iter()
                .position(|k| *k == m.key)
                .unwrap_or(usize::MAX);
            let same_counts = m.key == r.key && m.records == r.records && m.dropped == r.dropped;
            let ok = if idx % 2 == 0 {
                same_counts
                    && m.bank.wire_state() == r.bank.wire_state()
                    && json(&m.interim) == json(&r.interim)
            } else {
                let cut = self
                    .plan
                    .iter()
                    .flatten()
                    .find(|sh| sh.session == idx && sh.range.start > 0);
                let expected = cut.map(|sh| {
                    let fold = |range: Range<usize>| {
                        let mut bank = EstimatorBank::new(self.configs[idx].clone());
                        for rec in &self.records[idx][range] {
                            bank.push(rec);
                        }
                        bank
                    };
                    let mut bank = fold(0..sh.range.start);
                    bank.merge(&fold(sh.range.clone()));
                    bank
                });
                same_counts
                    && expected.is_some_and(|e| e.wire_state() == m.bank.wire_state())
                    && m.snapshot.sent == r.snapshot.sent
                    && m.snapshot.received == r.snapshot.received
                    && json(&m.snapshot.loss) == json(&r.snapshot.loss)
            };
            if !ok {
                failures.push(format!(
                    "session {s} ({}) differs from the single-collector fold",
                    m.key
                ));
            }
        }
        if merged.sessions.len() != reference.sessions.len() {
            failures.push(format!(
                "merged report has {} sessions, the single collector {}",
                merged.sessions.len(),
                reference.sessions.len()
            ));
        }
        let failed = failures.len() as u64;
        self.failures.extend(failures);
        Ok((SESSIONS as u64, failed))
    }

    fn digest(&self) -> String {
        self.first
            .as_ref()
            .map(|(d, _)| d.clone())
            .unwrap_or_default()
    }

    fn failures(&self) -> Vec<String> {
        self.failures.clone()
    }
}
