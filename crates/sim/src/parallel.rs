//! Conservative parallel execution: one engine per contiguous node range,
//! synchronized Chandy–Misra–Bryant style.
//!
//! The simulated topology is a linear path, so it partitions naturally at
//! link boundaries: partition `p` owns a contiguous range of nodes (and the
//! ports located at them), and the **only** events that cross a boundary
//! are node arrivals of packets that just traversed the boundary link.
//! That link's propagation delay is the classical CMB *lookahead*: a
//! partition whose clock is at `t` cannot place an arrival into its
//! neighbor before `t + propagation`, so each partition can safely advance
//! to one tick before the minimum of its neighbors' announced guarantees.
//!
//! Guarantees ("null messages") and event batches travel through per-
//! partition mailboxes — a mutex-protected inbox with a condition variable.
//! A partition announces, monotonically:
//!
//! * eastward: `max(prev, L_east + min(next_local_event, west_guarantee))`
//! * westward: `max(prev, L_west + min(next_local_event, west_guarantee,
//!   east_guarantee))`
//!
//! The eastward bound may ignore the east neighbor's clock because
//! westbound traffic can never *cause* an eastbound send (probes turn
//! around only at the echo host, the last node; TTL replies travel west;
//! window flows, which can turn traffic around at node 0, are not used in
//! partitioned runs). That directional acyclicity lets the guarantee chain
//! resolve west-to-east and then east-to-west without a cycle, and the
//! nonzero-propagation invariant (the partition plan never cuts a
//! zero-lookahead link) gives the classical CMB progress argument: the
//! partition holding the globally minimal event always has a safe horizon
//! strictly beyond it, so the system never deadlocks. See DESIGN.md §13 for
//! the full argument.
//!
//! Where the path is cut is a performance choice only: the plan cuts at the
//! longest-lookahead links (see `partition_plan` for the cost model), so
//! partitions exchange few null messages and rarely park on their
//! mailboxes.
//!
//! Determinism does not depend on scheduling: cross-boundary arrivals are
//! ordered by packet id (content-derived, identical in serial runs),
//! per-port RNG streams make admission decisions a function of each port's
//! own arrival sequence, and all result merges reduce in fixed
//! partition-index order. A partitioned run is therefore bit-identical to
//! the serial run of the same plan at any partition count.

use std::ops::Range;
use std::sync::{Condvar, Mutex};

use crate::engine::{Engine, EngineStats, RemoteArrival};
use crate::packet::{Delivery, Direction, DropRecord, PacketId, TtlExceeded};
use crate::path::{LinkSpec, Path};
use crate::queue::PortStats;
use crate::time::{SimDuration, SimTime};

/// Number of worker threads the environment asks for: `PROBENET_THREADS`
/// when set (minimum 1), otherwise the host's available parallelism.
pub fn effective_threads() -> usize {
    // Pool width only: DESIGN.md §13 pins bit-identical results at any
    // thread count, so the width cannot alter artifact bytes.
    // probenet-lint: allow(tainted-artifact-path) pool width only, results bit-identical at any width
    match std::env::var("PROBENET_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        // probenet-lint: allow(tainted-artifact-path) pool width only (see above)
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// One probe to inject at the source (node 0).
#[derive(Debug, Clone, Copy)]
pub struct ProbeInjection {
    /// Injection instant.
    pub at: SimTime,
    /// Wire size in bytes.
    pub size: u32,
    /// Probe sequence number.
    pub seq: u64,
    /// Initial TTL.
    pub ttl: u8,
    /// Packet id (see [`InjectionPlan::with_serial_ids`]).
    pub id: u64,
}

/// A cross-traffic arrival sequence bound to one port.
#[derive(Debug, Clone)]
pub struct CrossAttachment {
    /// Link index the traffic enters at.
    pub link: usize,
    /// Direction (selects the port at that link).
    pub direction: Direction,
    /// `(time, size)` arrivals, in time order.
    pub arrivals: Vec<(SimTime, u32)>,
    /// Id of the first packet; the rest follow consecutively (see
    /// [`InjectionPlan::with_serial_ids`]).
    pub base_id: u64,
}

/// Everything a run injects, described up front so the same plan can be
/// executed serially or split across partitions with identical packet ids.
#[derive(Debug, Clone, Default)]
pub struct InjectionPlan {
    /// Probes entering at node 0.
    pub probes: Vec<ProbeInjection>,
    /// Cross-traffic attachments.
    pub cross: Vec<CrossAttachment>,
}

impl InjectionPlan {
    /// Assign packet ids exactly as a serial engine's injection counter
    /// would have: cross attachments first (in list order, one id per
    /// arrival), then probes — the order `probenet-netdyn` performs them.
    pub fn with_serial_ids(mut self) -> Self {
        let mut next = 0u64;
        for c in &mut self.cross {
            c.base_id = next;
            next += c.arrivals.len() as u64;
        }
        for p in &mut self.probes {
            p.id = next;
            next += 1;
        }
        self
    }

    fn probe_count(&self) -> usize {
        self.probes.len()
    }
}

/// Merged results of a (possibly partitioned) run.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// All deliveries; partition-local completion order within fixed
    /// partition-index concatenation (NOT global completion order — treat
    /// as a set, or sort by a content key).
    pub deliveries: Vec<Delivery>,
    /// All drops, concatenated in partition-index order.
    pub drops: Vec<DropRecord>,
    /// TTL-exceeded notifications, concatenated in partition-index order.
    pub ttl_replies: Vec<TtlExceeded>,
    /// Final simulated time (maximum over partitions — equals the serial
    /// engine's final clock).
    pub now: SimTime,
    /// Merged work counters; `wall` is the facade's elapsed time around the
    /// whole run, so `events_per_sec` reflects real parallel throughput.
    pub stats: EngineStats,
    /// Per-port statistics in global port-index order (`2 * links`), each
    /// taken from the partition that owns the port.
    pub port_stats: Vec<PortStats>,
    /// Partition count actually used (1 when no link has positive
    /// lookahead or `threads <= 1`).
    pub partitions: usize,
    /// Mailbox condvar waits that blocked, summed over partitions (0 for a
    /// serial run). Depends on thread scheduling, so it is observability
    /// only and never part of a result.
    pub mailbox_parks: u64,
}

/// The smallest propagation delay link `spec` can ever have, accounting for
/// scheduled route shifts — the value a lookahead bound must use.
fn min_propagation(spec: &LinkSpec) -> SimDuration {
    spec.impair
        .route_shifts
        .iter()
        .map(|s| s.propagation)
        .fold(spec.propagation, SimDuration::min)
}

/// Contiguous node ranges for running `path` on up to `threads` partitions —
/// a pure function of `(path, threads)`.
///
/// Cost model: a partition may run ahead of its neighbour only by the
/// boundary link's lookahead (its minimum propagation delay), so the number
/// of synchronization rounds scales as horizon / lookahead, and the smallest
/// boundary lookahead sets the pace for every partition. The plan cuts the
/// `threads − 1` links with the longest positive lookahead (the lowest link
/// index wins a tie), which maximises the minimum boundary lookahead. It
/// never cuts a zero-lookahead link, which could not make progress, so it
/// runs serially only when no link has positive lookahead.
///
/// Cutting link `l` ends a range at node `l` and starts the next at
/// `l + 1`. On [`Path::inria_umd_1992`] at `threads == 2` the only cut is
/// the transatlantic bottleneck, link 4 (49.75 ms of lookahead), which also
/// puts its outbound and inbound ports in different partitions.
fn partition_plan(path: &Path, threads: usize) -> Vec<Range<usize>> {
    let mut by_lookahead: Vec<(SimDuration, usize)> = path
        .links
        .iter()
        .map(min_propagation)
        .zip(0..)
        .filter(|&(lookahead, _)| lookahead > SimDuration::ZERO)
        .collect();
    by_lookahead.sort_unstable_by_key(|&(lookahead, l)| (std::cmp::Reverse(lookahead), l));
    let mut cuts: Vec<usize> = by_lookahead
        .into_iter()
        .take(threads.saturating_sub(1))
        .map(|(_, l)| l)
        .collect();
    cuts.sort_unstable();
    let mut start = 0;
    let mut ranges: Vec<Range<usize>> = cuts
        .into_iter()
        .map(|l| {
            let range = start..l + 1;
            start = l + 1;
            range
        })
        .collect();
    ranges.push(start..path.nodes.len());
    ranges
}

struct Inbox {
    msgs: Vec<RemoteArrival>,
    /// West neighbor's guarantee: it will never send an arrival with a
    /// timestamp below this. `u64::MAX` when there is no west neighbor.
    west_clock: u64,
    /// East neighbor's guarantee (`u64::MAX` when absent).
    east_clock: u64,
    /// Bumped on every post; the owner waits for it to change.
    gen: u64,
}

type Mailbox = (Mutex<Inbox>, Condvar);

/// Deliver a batch and/or a clock update to a neighbor's mailbox.
fn post(target: &Mailbox, msgs: Vec<RemoteArrival>, set_clock: impl FnOnce(&mut Inbox)) {
    let mut inbox = target.0.lock().expect("mailbox poisoned");
    inbox.msgs.extend(msgs);
    set_clock(&mut inbox);
    inbox.gen += 1;
    drop(inbox);
    target.1.notify_one();
}

/// Drive one partition until global quiescence. `lookahead_west`/`_east`
/// are the boundary links' minimum propagation delays in nanoseconds
/// (unused when the corresponding neighbor is absent). Returns how many
/// times the partition parked on its mailbox condvar.
fn partition_loop(
    engine: &mut Engine,
    idx: usize,
    lookahead_west: u64,
    lookahead_east: u64,
    boxes: &[Mailbox],
) -> u64 {
    let me = &boxes[idx];
    let west = idx.checked_sub(1).map(|i| &boxes[i]);
    let east = boxes.get(idx + 1);
    // Last guarantees announced in each direction; announcements are
    // clamped monotone (each computed bound is sound for all *future*
    // sends at the moment it is computed, so the running maximum is too).
    let mut announced_west = 0u64;
    let mut announced_east = 0u64;
    // Force the first pass through without waiting.
    let mut seen_gen = u64::MAX;
    let mut parks = 0u64;
    loop {
        let (msgs, g_west, g_east) = {
            let mut inbox = me.0.lock().expect("mailbox poisoned");
            while inbox.gen == seen_gen {
                parks += 1;
                inbox = me.1.wait(inbox).expect("mailbox poisoned");
            }
            seen_gen = inbox.gen;
            (
                std::mem::take(&mut inbox.msgs),
                inbox.west_clock,
                inbox.east_clock,
            )
        };
        for m in msgs {
            engine.deliver_remote(m);
        }
        // Both neighbors promise nothing below `safe`; everything strictly
        // before it is causally complete and can run.
        let safe = g_west.min(g_east);
        if safe > 0 {
            engine.run_until(SimTime::from_nanos(safe - 1));
        }
        let (to_west, to_east) = engine.take_outboxes();
        let peek = engine.next_event_time().map_or(u64::MAX, |t| t.as_nanos());
        // Any future eastbound send is caused by a local event or a future
        // west-side arrival, never by east-side (westbound) traffic — so
        // the east bound may ignore g_east (directional acyclicity).
        let bound_east = announced_east.max(lookahead_east.saturating_add(peek.min(g_west)));
        let bound_west =
            announced_west.max(lookahead_west.saturating_add(peek.min(g_west).min(g_east)));
        if let Some(w) = west {
            if !to_west.is_empty() || bound_west > announced_west {
                announced_west = bound_west;
                post(w, to_west, |inbox| {
                    inbox.east_clock = inbox.east_clock.max(bound_west);
                });
            }
        } else {
            debug_assert!(to_west.is_empty(), "westbound send from partition 0");
        }
        if let Some(e) = east {
            if !to_east.is_empty() || bound_east > announced_east {
                announced_east = bound_east;
                post(e, to_east, |inbox| {
                    inbox.west_clock = inbox.west_clock.max(bound_east);
                });
            }
        } else {
            debug_assert!(to_east.is_empty(), "eastbound send from the last partition");
        }
        // Quiescent: both neighbors are done forever and nothing is left
        // locally. The final announcements above were `u64::MAX`.
        if g_west == u64::MAX && g_east == u64::MAX && peek == u64::MAX {
            return parks;
        }
    }
}

/// Execute `plan` over `path`, split into at most `threads` partitions at
/// its longest-lookahead links.
///
/// With `threads <= 1`, or when no link has positive lookahead, this
/// degenerates to a plain serial run; the outcome is **identical** either
/// way (up to the stated record ordering), which the determinism and
/// golden-trace suites pin down.
pub fn run_partitioned(
    path: &Path,
    seed: u64,
    plan: &InjectionPlan,
    threads: usize,
) -> ParallelOutcome {
    let ranges = partition_plan(path, threads);
    let k = ranges.len();

    let mut engines: Vec<Engine> = if k == 1 {
        vec![Engine::new(path.clone(), seed)]
    } else {
        ranges
            .iter()
            .map(|r| Engine::new_partition(path.clone(), seed, r.clone()))
            .collect()
    };

    // Owners: port `l` outbound sits at node `l`; port `l` inbound at
    // node `l + 1`.
    let owner_of_node =
        |n: usize| -> usize { ranges.iter().position(|r| r.contains(&n)).expect("covered") };

    // Apply the plan. Cross traffic goes to the partition owning the
    // attachment port; probes enter at node 0 (always partition 0).
    for c in &plan.cross {
        let node = match c.direction {
            Direction::Outbound => c.link,
            Direction::Inbound => c.link + 1,
        };
        let owner = owner_of_node(node);
        engines[owner].reserve(0, c.arrivals.len());
        engines[owner].attach_cross_traffic_with_base_id(
            c.link,
            c.direction,
            c.arrivals.iter().copied(),
            c.base_id,
        );
    }
    engines[0].reserve(plan.probe_count(), 0);
    for p in &plan.probes {
        engines[0].inject_probe_with_id(p.at, p.size, p.seq, p.ttl, PacketId(p.id));
    }

    let started = std::time::Instant::now(); // probenet-lint: allow(wall-clock-in-sim, tainted-artifact-path) EngineStats wall-time observability, not sim data
    let mailbox_parks = if k == 1 {
        engines[0].run();
        0
    } else {
        let lookahead: Vec<u64> = ranges[1..]
            .iter()
            .map(|r| min_propagation(&path.links[r.start - 1]).as_nanos())
            .collect();
        let boxes: Vec<Mailbox> = (0..k)
            .map(|i| {
                (
                    Mutex::new(Inbox {
                        msgs: Vec::new(),
                        west_clock: if i == 0 { u64::MAX } else { 0 },
                        east_clock: if i == k - 1 { u64::MAX } else { 0 },
                        gen: 0,
                    }),
                    Condvar::new(),
                )
            })
            .collect();
        // Partitions block on their mailbox condvar, so they need real
        // threads (a work-stealing pool would deadlock); scoped threads
        // let them borrow the engines directly.
        std::thread::scope(|s| {
            let boxes = &boxes;
            let lookahead = &lookahead;
            let workers: Vec<_> = engines
                .iter_mut()
                .enumerate()
                .map(|(idx, engine)| {
                    s.spawn(move || {
                        let l_w = if idx == 0 {
                            u64::MAX
                        } else {
                            lookahead[idx - 1]
                        };
                        let l_e = lookahead.get(idx).copied().unwrap_or(u64::MAX);
                        partition_loop(engine, idx, l_w, l_e, boxes)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum()
        })
    };
    let wall = started.elapsed();

    // Merge per-partition results. Every reduction below iterates the
    // engines in ascending partition index — a fixed order independent of
    // thread scheduling — so the merged output is reproducible.
    let mut deliveries = Vec::with_capacity(engines.iter().map(|e| e.deliveries().len()).sum());
    let mut drops = Vec::new();
    let mut ttl_replies = Vec::new();
    let mut events_processed = 0u64;
    let mut peak_queue_depth = 0usize;
    let mut now = SimTime::ZERO;
    for e in &engines {
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        deliveries.extend(e.deliveries().iter().cloned());
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        drops.extend(e.drops().iter().cloned());
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        ttl_replies.extend(e.ttl_replies().iter().cloned());
        let st = e.stats();
        events_processed += st.events_processed;
        peak_queue_depth = peak_queue_depth.max(st.peak_queue_depth);
        now = now.max(e.now());
    }
    let links = path.links.len();
    let mut port_stats = Vec::with_capacity(links * 2);
    for l in 0..links {
        let owner = owner_of_node(l);
        port_stats.push(engines[owner].port(l, Direction::Outbound).stats.clone());
    }
    for l in 0..links {
        let owner = owner_of_node(l + 1);
        port_stats.push(engines[owner].port(l, Direction::Inbound).stats.clone());
    }

    ParallelOutcome {
        deliveries,
        drops,
        ttl_replies,
        now,
        stats: EngineStats {
            events_processed,
            peak_queue_depth,
            wall,
        },
        port_stats,
        partitions: k,
        mailbox_parks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::time::SimDuration;

    /// A plan exercising every hop: periodic probes plus cross traffic on
    /// the bottleneck in both directions.
    fn plan(probes: u64, interval_ms: u64, cross_link: usize) -> InjectionPlan {
        let mut p = InjectionPlan::default();
        for (dir, stride_us, count) in [
            (Direction::Outbound, 1700u64, 2500usize),
            (Direction::Inbound, 2300, 1800),
        ] {
            p.cross.push(CrossAttachment {
                link: cross_link,
                direction: dir,
                arrivals: (0..count)
                    .map(|i| {
                        let size = 40 + ((i * 97) % 1460) as u32;
                        (SimTime::from_nanos(i as u64 * stride_us * 1000), size)
                    })
                    .collect(),
                base_id: 0,
            });
        }
        for n in 0..probes {
            p.probes.push(ProbeInjection {
                at: SimTime::from_millis(n * interval_ms),
                size: 32,
                seq: n,
                ttl: crate::packet::DEFAULT_TTL,
                id: 0,
            });
        }
        p.with_serial_ids()
    }

    /// Content key making delivery sets comparable across record orders.
    fn delivery_key(d: &Delivery) -> (u64, u64, u64, u64, Option<u64>) {
        (
            d.id.0,
            d.seq,
            d.injected_at.as_nanos(),
            d.delivered_at.as_nanos(),
            d.echoed_at.map(|t| t.as_nanos()),
        )
    }

    #[allow(clippy::type_complexity)]
    fn outcome_fingerprint(
        o: &ParallelOutcome,
    ) -> (
        Vec<(u64, u64, u64, u64, Option<u64>)>,
        Vec<(u64, u64, u64, usize, String)>,
        Vec<(u64, usize, u64)>,
        u64,
        Vec<(u64, u64, u64, u64)>,
    ) {
        let mut ds: Vec<_> = o.deliveries.iter().map(delivery_key).collect();
        ds.sort();
        let mut dr: Vec<_> = o
            .drops
            .iter()
            .map(|d| {
                (
                    d.id.0,
                    d.seq,
                    d.at.as_nanos(),
                    d.port,
                    format!("{:?}", d.reason),
                )
            })
            .collect();
        dr.sort();
        let mut tr: Vec<_> = o
            .ttl_replies
            .iter()
            .map(|t| (t.probe_seq, t.node, t.received_at.as_nanos()))
            .collect();
        tr.sort();
        let ps: Vec<_> = o
            .port_stats
            .iter()
            .map(|s| {
                (
                    s.arrivals,
                    s.served,
                    s.overflow_drops,
                    s.busy_time.as_nanos(),
                )
            })
            .collect();
        (ds, dr, tr, o.now.as_nanos(), ps)
    }

    #[test]
    fn partitioned_runs_match_serial_at_all_widths() {
        // Cross traffic on link 5 (both loaded ports inside one partition
        // at k = 2) and on the bottleneck, link 4 (its two ports on
        // opposite sides of the k = 2 cut).
        let path = Path::inria_umd_1992();
        for cross_link in [5usize, 4] {
            let plan = plan(400, 8, cross_link);
            let serial = run_partitioned(&path, 42, &plan, 1);
            assert_eq!(serial.partitions, 1);
            assert_eq!(serial.mailbox_parks, 0);
            assert!(!serial.deliveries.is_empty());
            let reference = outcome_fingerprint(&serial);
            for k in [2usize, 3, 4, 8] {
                let par = run_partitioned(&path, 42, &plan, k);
                assert_eq!(par.partitions, k, "width {k} did not partition");
                assert_eq!(
                    outcome_fingerprint(&par),
                    reference,
                    "divergence at {k} partitions, cross traffic on link {cross_link}"
                );
            }
        }
    }

    #[test]
    fn paper_path_cuts_at_the_transatlantic_link() {
        let path = Path::inria_umd_1992();
        assert_eq!(partition_plan(&path, 1), vec![0..11]);
        // Link 4 (49.75 ms) is the only cut at k = 2: its outbound port
        // (node 4) and inbound port (node 5) land in different partitions.
        assert_eq!(partition_plan(&path, 2), vec![0..5, 5..11]);
        // Next longest: link 6 (8 ms).
        assert_eq!(partition_plan(&path, 3), vec![0..5, 5..7, 7..11]);
        // Third cut: links 2, 5 and 7 tie at 2 ms; the lowest, link 2, wins.
        assert_eq!(partition_plan(&path, 4), vec![0..3, 3..5, 5..7, 7..11]);
        // Every link has positive lookahead, so the width caps at the node
        // count: one node per partition.
        let all = partition_plan(&path, 64);
        assert_eq!(all.len(), 11);
        assert!(all.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn plan_breaks_lookahead_ties_toward_the_lowest_link() {
        let hop = |ms: u64| LinkSpec::new(1_000_000, SimDuration::from_millis(ms));
        let split = |props: &[u64], threads: usize| {
            let path = Path::new(
                (0..=props.len()).map(|i| format!("n{i}")).collect(),
                props.iter().map(|&p| hop(p)).collect(),
            );
            partition_plan(&path, threads)
        };
        assert_eq!(split(&[5, 5, 5, 5, 5], 2), vec![0..1, 1..6]);
        assert_eq!(split(&[5, 5, 5, 5, 5], 3), vec![0..1, 1..2, 2..6]);
        // Lookahead beats position.
        assert_eq!(split(&[5, 5, 5, 9, 5], 2), vec![0..4, 4..6]);
        assert_eq!(split(&[5, 5, 5, 9, 5], 3), vec![0..1, 1..4, 4..6]);
    }

    #[test]
    fn partitioned_runs_match_serial_with_impairments() {
        // umd_pitt_1993 carries link-level loss; inject enough probes that
        // random loss, TTL expiry, and queue overflow all occur.
        let path = Path::umd_pitt_1993();
        let plan = plan(300, 5, 3);
        let serial = run_partitioned(&path, 7, &plan, 1);
        let reference = outcome_fingerprint(&serial);
        for k in [2usize, 4, 8] {
            let par = run_partitioned(&path, 7, &plan, k);
            assert_eq!(
                outcome_fingerprint(&par),
                reference,
                "divergence at {k} partitions"
            );
        }
    }

    #[test]
    fn zero_lookahead_boundary_falls_back_to_serial() {
        use crate::path::LinkSpec;
        let path = Path::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                LinkSpec::new(1_000_000, SimDuration::ZERO),
                LinkSpec::new(1_000_000, SimDuration::ZERO),
            ],
        );
        let plan = InjectionPlan {
            probes: vec![ProbeInjection {
                at: SimTime::ZERO,
                size: 32,
                seq: 0,
                ttl: crate::packet::DEFAULT_TTL,
                id: 0,
            }],
            cross: Vec::new(),
        }
        .with_serial_ids();
        let out = run_partitioned(&path, 1, &plan, 4);
        assert_eq!(out.partitions, 1, "zero lookahead must force serial");
        assert_eq!(out.mailbox_parks, 0);
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn zero_lookahead_links_are_never_cut() {
        use crate::impair::ImpairmentSpec;
        // Links 0, 2 and 4 have zero lookahead (link 4 only after a route
        // shift); links 1 and 3 are the only cuts.
        let ms = SimDuration::from_millis;
        let path = Path::new(
            (0..6).map(|i| format!("n{i}")).collect(),
            vec![
                LinkSpec::new(1_000_000, SimDuration::ZERO),
                LinkSpec::new(1_000_000, ms(1)),
                LinkSpec::new(1_000_000, SimDuration::ZERO),
                LinkSpec::new(1_000_000, ms(3)),
                LinkSpec::new(1_000_000, ms(2)).with_impairments(
                    ImpairmentSpec::none()
                        .with_route_shift(SimTime::from_millis(40), SimDuration::ZERO),
                ),
            ],
        );
        assert_eq!(partition_plan(&path, 2), vec![0..4, 4..6]);
        assert_eq!(partition_plan(&path, 3), vec![0..2, 2..4, 4..6]);
        // Two positive links allow at most three partitions.
        assert_eq!(partition_plan(&path, 8).len(), 3);
        let plan = plan(40, 10, 2);
        let serial = run_partitioned(&path, 5, &plan, 1);
        for k in [2usize, 3, 8] {
            let par = run_partitioned(&path, 5, &plan, k);
            assert_eq!(par.partitions, k.min(3));
            assert_eq!(outcome_fingerprint(&par), outcome_fingerprint(&serial));
        }
    }

    #[test]
    fn partition_count_caps_at_node_count() {
        let path = Path::inria_umd_1992();
        let nodes = path.nodes.len();
        let plan = plan(50, 20, 5);
        let out = run_partitioned(&path, 3, &plan, 64);
        assert!(out.partitions <= nodes);
        assert!(out.partitions > 1);
    }

    #[test]
    fn serial_ids_match_engine_counter_order() {
        let p = InjectionPlan {
            cross: vec![
                CrossAttachment {
                    link: 0,
                    direction: Direction::Outbound,
                    arrivals: vec![(SimTime::ZERO, 100), (SimTime::from_millis(1), 100)],
                    base_id: 999,
                },
                CrossAttachment {
                    link: 1,
                    direction: Direction::Inbound,
                    arrivals: vec![(SimTime::ZERO, 100)],
                    base_id: 999,
                },
            ],
            probes: vec![ProbeInjection {
                at: SimTime::ZERO,
                size: 32,
                seq: 0,
                ttl: 64,
                id: 999,
            }],
        }
        .with_serial_ids();
        assert_eq!(p.cross[0].base_id, 0);
        assert_eq!(p.cross[1].base_id, 2);
        assert_eq!(p.probes[0].id, 3);
    }

    /// A random path for the partition plan: `(propagation µs, route shift %)`
    /// per hop. Propagations below 5 ms become zero, so about a quarter of
    /// the links have no lookahead; a route shift at 50 ms lowers a link's
    /// propagation to the given percentage of it (0 % makes it zero too).
    fn plan_path(hops: &[(u64, Option<u64>)]) -> Path {
        use crate::impair::ImpairmentSpec;
        let nodes = (0..=hops.len()).map(|i| format!("n{i}")).collect();
        let links = hops
            .iter()
            .map(|&(prop_us, shift_pct)| {
                let prop_us = if prop_us < 5_000 { 0 } else { prop_us };
                let link = LinkSpec::new(2_000_000, SimDuration::from_micros(prop_us));
                match shift_pct {
                    Some(pct) => link.with_impairments(ImpairmentSpec::none().with_route_shift(
                        SimTime::from_millis(50),
                        SimDuration::from_micros(prop_us * pct / 100),
                    )),
                    None => link,
                }
            })
            .collect();
        Path::new(nodes, links)
    }

    /// The best minimum boundary lookahead over every choice of `cuts`
    /// links with positive lookahead, by exhaustive search (`None` if there
    /// are too few such links).
    fn max_min_lookahead_oracle(path: &Path, cuts: usize) -> Option<SimDuration> {
        let links = path.links.len();
        (0u32..1 << links)
            .filter(|mask| mask.count_ones() as usize == cuts)
            .filter_map(|mask| {
                let chosen = (0..links).filter(|l| mask & (1 << l) != 0);
                let min = chosen.map(|l| min_propagation(&path.links[l])).min()?;
                (min > SimDuration::ZERO).then_some(min)
            })
            .max()
    }

    mod plan_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The plan is a valid, lookahead-optimal split: contiguous
            /// non-empty ranges covering every node, a cut only at links
            /// with positive lookahead, as many partitions as those links
            /// allow, and a minimum boundary lookahead equal to the
            /// exhaustive max-min optimum.
            #[test]
            fn plan_is_valid_and_max_min_optimal(
                hops in proptest::collection::vec((0u64..20_000, proptest::option::of(0u64..=100)), 1..9),
                threads in 2usize..=8,
            ) {
                let path = plan_path(&hops);
                let plan = partition_plan(&path, threads);
                let mut next = 0;
                for r in &plan {
                    prop_assert_eq!(r.start, next, "ranges not contiguous: {:?}", plan);
                    prop_assert!(r.end > r.start, "empty range in {:?}", plan);
                    next = r.end;
                }
                prop_assert_eq!(next, path.nodes.len(), "ranges do not cover the path: {:?}", plan);
                let boundary: Vec<SimDuration> = plan[1..]
                    .iter()
                    .map(|r| min_propagation(&path.links[r.start - 1]))
                    .collect();
                prop_assert!(
                    boundary.iter().all(|&l| l > SimDuration::ZERO),
                    "zero-lookahead cut in {:?}", plan
                );
                let positive = path
                    .links
                    .iter()
                    .filter(|l| min_propagation(l) > SimDuration::ZERO)
                    .count();
                prop_assert_eq!(plan.len(), threads.min(positive + 1));
                prop_assert_eq!(
                    boundary.iter().copied().min(),
                    max_min_lookahead_oracle(&path, plan.len() - 1)
                );
            }

            /// Whatever the plan cuts, the partitioned run equals the
            /// serial one.
            #[test]
            fn planned_partitions_match_serial(
                hops in proptest::collection::vec((0u64..20_000, proptest::option::of(0u64..=100)), 1..9),
                threads in 2usize..=8,
                cross_at in 0usize..8,
                n_probes in 1u64..60,
                seed in 0u64..1_000,
            ) {
                let path = plan_path(&hops);
                let mut plan = InjectionPlan::default();
                for (direction, stride_us) in [(Direction::Outbound, 900u64), (Direction::Inbound, 1300)] {
                    plan.cross.push(CrossAttachment {
                        link: cross_at % path.links.len(),
                        direction,
                        arrivals: (0..300u32)
                            .map(|i| (SimTime::from_micros(u64::from(i) * stride_us), 40 + i * 131 % 1460))
                            .collect(),
                        base_id: 0,
                    });
                }
                plan.probes = (0..n_probes)
                    .map(|n| ProbeInjection {
                        at: SimTime::from_millis(n * 5),
                        size: 72,
                        seq: n,
                        ttl: crate::packet::DEFAULT_TTL,
                        id: 0,
                    })
                    .collect();
                let plan = plan.with_serial_ids();
                let serial = run_partitioned(&path, seed, &plan, 1);
                let par = run_partitioned(&path, seed, &plan, threads);
                prop_assert_eq!(par.partitions, partition_plan(&path, threads).len());
                prop_assert_eq!(outcome_fingerprint(&par), outcome_fingerprint(&serial));
            }
        }
    }
}
