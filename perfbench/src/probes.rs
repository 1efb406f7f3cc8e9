//! The traced run: per-layer numbers, measured apart from the timed runs.
//!
//! Spans are taken in this file around calls into each layer's public API:
//! the engine is timed around `World::run_until` in fixed simulated-time
//! slices, and the lower layers are driven directly on the workload's own
//! inputs (its map, its movers at their decision times, its radio, buffer
//! sizes, policies and router kinds). Two probe counts are checked against
//! the engine's: the movement advances and the link-ups. A layer that does
//! no work on a workload reports 0.

use crate::checks::{self, push_err, Recount};
use crate::workloads::{self, median, PAPER_TICKED_PREFIX};
use crate::{metric, Metric};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use vdtn::orchestrator::{run_manifest, JournalWriter, RunRecord, SweepOptions};
use vdtn::scenario::{MobilitySpec, Scenario};
use vdtn::{
    EngineMode, EngineStats, NodeId, RouterKind, RoutingBackend, SimReport, SimTime, World,
};
use vdtn_bundle::{Buffer, Message, MessageId, SchedulingPolicy};
use vdtn_geo::{astar, Point, VertexId};
use vdtn_mobility::{MovementModel, ShortestPathMapBased, Stationary};
use vdtn_net::{ContactDetector, LinkEvent, LinkTable, MotionCols};
use vdtn_routing::ContactOffers;
use vdtn_sim_core::SimRng;

/// Slices of simulated time the engine probe times separately.
const SLICES: u64 = 60;
/// Directed contacts the routing probe asks per slice, at most.
const ROUTING_PAIRS_PER_SLICE: usize = 100;
/// A* queries on the workload's map.
const ASTAR_QUERIES: usize = 200;
/// Repeats of the small buffer and map probes; the median is reported.
const REPEATS: usize = 5;
/// Back-to-back pairs of a paper cell through `run_manifest` and directly.
const OVERHEAD_PAIRS: usize = 2;

pub struct Traced {
    pub attempted: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

pub fn trace(workload: &str, seed: u64) -> Option<Traced> {
    let (scenarios, ticked_prefix, paper) = match workload {
        "paper_sweep" => (
            workloads::paper_scenarios(seed),
            Some(PAPER_TICKED_PREFIX),
            true,
        ),
        "dense_mesh" => (vec![workloads::mesh_scenario(seed)], None, false),
        _ => return None,
    };
    let mut errors = Vec::new();
    let mut m = Vec::new();

    // Engine, with the routing probe at every slice boundary.
    let mut routing = RoutingTally::default();
    let mut depth = Vec::new();
    let engines: Vec<EngineRun> = scenarios
        .iter()
        .map(|s| engine_probe(s, &mut routing, &mut depth))
        .collect();
    let sum = |f: &dyn Fn(&EngineRun) -> f64| engines.iter().map(f).sum::<f64>();
    let run_secs = sum(&|e| e.run_secs);
    let ticks_executed = sum(&|e| e.stats.ticks_executed as f64);
    let advances = sum(&|e| e.stats.movement_advances as f64);
    let node_ticks = sum(&|e| e.stats.movement_node_ticks as f64);
    let node_secs: f64 = scenarios.iter().map(workloads::node_secs).sum();
    m.push(metric("engine.ticks_executed", ticks_executed, "count"));
    m.push(metric(
        "engine.ticks_skipped",
        sum(&|e| e.stats.ticks_skipped as f64),
        "count",
    ));
    m.push(metric("engine.movement_advances", advances, "count"));
    let skip = if node_ticks > 0.0 {
        1.0 - advances / node_ticks
    } else {
        0.0
    };
    m.push(metric("engine.movement_skip_rate", skip, "ratio"));
    m.push(metric(
        "engine.tick_us",
        run_secs / ticks_executed * 1e6,
        "us",
    ));
    m.push(metric(
        "engine.sim_rate_traced",
        node_secs / run_secs,
        "node-s/s",
    ));

    // References: the Ticked engine (whole run, or a stated prefix on
    // paper_sweep) and the Parallel engine on two threads.
    let t = Instant::now();
    for s in &scenarios {
        let mut w = World::build_with_mode(s, EngineMode::Ticked);
        w.run_until(SimTime::from_secs_f64(
            ticked_prefix.unwrap_or(s.duration_secs),
        ));
    }
    m.push(metric("engine.ticked_s", t.elapsed().as_secs_f64(), "s"));
    let mut parallel_secs = 0.0;
    for (s, e) in scenarios.iter().zip(&engines) {
        let t = Instant::now();
        let r = World::build_parallel_with_threads(s, RoutingBackend::default(), 2).run();
        parallel_secs += t.elapsed().as_secs_f64();
        push_err(
            &mut errors,
            checks::equal(
                &format!("{}: parallel(2) report", s.name),
                workloads::canon(&r),
                workloads::canon(&e.report),
            ),
        );
    }
    m.push(metric("engine.parallel2_s", parallel_secs, "s"));

    // Orchestrator.
    if paper {
        let manifest = workloads::paper_manifest(scenarios[0].seed);
        let expand: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(manifest.expand().expect("expands"));
                t.elapsed().as_secs_f64()
            })
            .collect();
        m.push(metric(
            "orchestrator.expand_ms",
            median(&expand) * 1e3,
            "ms",
        ));
        m.push(metric(
            "orchestrator.overhead_s",
            orchestrator_overhead_s(&scenarios),
            "s",
        ));
        match journal_append_ms(&engines) {
            Ok(ms) => m.push(metric("orchestrator.journal_append_ms", ms, "ms")),
            Err(e) => {
                errors.push(format!("journal probe: {e}"));
                m.push(metric("orchestrator.journal_append_ms", 0.0, "ms"));
            }
        }
    } else {
        m.push(metric("orchestrator.expand_ms", 0.0, "ms"));
        m.push(metric("orchestrator.overhead_s", 0.0, "s"));
        m.push(metric("orchestrator.journal_append_ms", 0.0, "ms"));
    }

    // Geo, mobility and net: the fleet is the same in every paper cell, so
    // it is driven once and its counts scaled by the number of cells.
    let s0 = &scenarios[0];
    let cells = scenarios.len() as f64;
    let map_build: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                s0.map
                    .build(&mut SimRng::seed_from_u64(s0.seed).derive("map", 0)),
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.push(metric("geo.map_build_ms", median(&map_build) * 1e3, "ms"));
    m.push(metric("geo.astar_us", astar_us(s0), "us"));
    let mp = motion_probe(s0);
    m.push(metric(
        "mobility.advances",
        mp.advances as f64 * cells,
        "count",
    ));
    m.push(metric(
        "mobility.advance_ns",
        per(mp.advance_secs * 1e9, mp.advances as f64),
        "ns",
    ));
    m.push(metric("net.prime_ms", mp.prime_secs * 1e3, "ms"));
    m.push(metric(
        "net.update_us",
        per(mp.update_secs * 1e6, mp.update_calls as f64),
        "us",
    ));
    m.push(metric(
        "net.link_events",
        (mp.ups + mp.downs) as f64 * cells,
        "count",
    ));
    m.push(metric("net.link_ups", mp.ups as f64 * cells, "count"));
    m.push(metric(
        "net.link_op_ns",
        per(mp.link_secs * 1e9, mp.link_ops as f64),
        "ns",
    ));
    for e in &engines {
        push_err(
            &mut errors,
            checks::equal(
                &format!("{}: mobility.advances vs engine", e.report.scenario),
                mp.advances,
                e.stats.movement_advances,
            ),
        );
        push_err(
            &mut errors,
            checks::equal(
                &format!("{}: net link-ups vs sim.contacts", e.report.scenario),
                mp.ups,
                e.report.contacts,
            ),
        );
    }

    // Bundle, at the workload's mean buffer depth.
    let depth = (depth.iter().sum::<f64>() / depth.len() as f64)
        .round()
        .max(1.0) as usize;
    let b = bundle_probe(&scenarios, depth);
    m.push(metric("bundle.depth", depth as f64, "count"));
    m.push(metric("bundle.insert_ns", b.insert_ns, "ns"));
    m.push(metric("bundle.remove_ns", b.remove_ns, "ns"));
    m.push(metric("bundle.drain_expired_ns", b.drain_ns, "ns"));
    m.push(metric("bundle.order_us", b.order_us, "us"));

    // Routing.
    let (calls, nones, secs) = routing.total();
    m.push(metric(
        "routing.next_transfer_ns",
        per(secs * 1e9, calls as f64),
        "ns",
    ));
    m.push(metric(
        "routing.silent_share",
        per(nones as f64, calls as f64),
        "ratio",
    ));
    for (label, name) in [
        ("Epidemic", "routing.next_transfer_ns.epidemic"),
        ("Spray and Wait", "routing.next_transfer_ns.spray_and_wait"),
        ("MaxProp", "routing.next_transfer_ns.maxprop"),
        ("PRoPHET", "routing.next_transfer_ns.prophet"),
    ] {
        let (c, _, s) = routing.by_kind.get(label).copied().unwrap_or_default();
        m.push(metric(name, per(s * 1e9, c as f64), "ns"));
    }

    // Simulated statistics: a change that only affects speed leaves these
    // identical.
    let msum =
        |f: &dyn Fn(&SimReport) -> u64| engines.iter().map(|e| f(&e.report)).sum::<u64>() as f64;
    m.push(metric("sim.contacts", msum(&|r| r.contacts), "count"));
    m.push(metric(
        "sim.transfers_started",
        msum(&|r| r.messages.transfers_started),
        "count",
    ));
    m.push(metric(
        "sim.transfers_aborted",
        msum(&|r| r.messages.transfers_aborted),
        "count",
    ));
    m.push(metric(
        "sim.drops_congestion",
        msum(&|r| r.messages.dropped_congestion),
        "count",
    ));
    m.push(metric(
        "sim.delivered",
        msum(&|r| r.messages.delivered_unique),
        "count",
    ));

    Some(Traced {
        attempted: scenarios.len() as u64,
        metrics: m,
        errors,
    })
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Host seconds `run_manifest` adds to the engine, summed over the paper
/// cells. Each cell's one-cell manifest and a `World::build` plus `run` of
/// the same scenario are timed back to back, `OVERHEAD_PAIRS` times in
/// alternating order, so host drift falls on both sides alike; a cell
/// contributes the median of its differences.
fn orchestrator_overhead_s(scenarios: &[Scenario]) -> f64 {
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    scenarios
        .iter()
        .zip(workloads::PAPER_CELLS)
        .map(|(s, cell)| {
            let manifest = workloads::paper_cell_manifest(s.seed, cell);
            let sweep = || {
                let t = Instant::now();
                run_manifest(&manifest, &opts).expect("a paper cell runs");
                t.elapsed().as_secs_f64()
            };
            let direct = || {
                let t = Instant::now();
                std::hint::black_box(World::build(s).run());
                t.elapsed().as_secs_f64()
            };
            let diffs: Vec<f64> = (0..OVERHEAD_PAIRS)
                .map(|k| {
                    if k % 2 == 0 {
                        let a = sweep();
                        a - direct()
                    } else {
                        let b = direct();
                        sweep() - b
                    }
                })
                .collect();
            median(&diffs)
        })
        .sum()
}

struct EngineRun {
    run_secs: f64,
    stats: EngineStats,
    report: SimReport,
}

/// Build the world, run it in `SLICES` slices timed around `run_until`,
/// and at every slice boundary sample the buffer depth and probe routing
/// on the contacts in range (outside the timed spans).
fn engine_probe(s: &Scenario, routing: &mut RoutingTally, depth: &mut Vec<f64>) -> EngineRun {
    let mut world = World::build(s);
    let n = world.node_count();
    let end_ms = SimTime::from_secs_f64(s.duration_secs).as_millis();
    let mut run_secs = 0.0;
    let mut rng = SimRng::seed_from_u64(s.seed).derive("perfbench-routing", 0);
    let mut live = BTreeMap::new();
    for k in 1..=SLICES {
        let stop = SimTime::from_millis(end_ms * k / SLICES);
        let t = Instant::now();
        world.run_until(stop);
        run_secs += t.elapsed().as_secs_f64();
        let total: usize = (0..n)
            .map(|i| world.node_state(NodeId(i as u32)).buffer.len())
            .sum();
        depth.push(total as f64 / n as f64);
        routing_probe(&world, s, routing, &mut live, &mut rng);
    }
    let stats = world.engine_stats();
    EngineRun {
        run_secs,
        stats,
        report: world.run(),
    }
}

#[derive(Default)]
struct RoutingTally {
    /// Router label → (calls, calls answered `None`, seconds).
    by_kind: BTreeMap<&'static str, (u64, u64, f64)>,
}

impl RoutingTally {
    fn total(&self) -> (u64, u64, f64) {
        self.by_kind
            .values()
            .fold((0, 0, 0.0), |a, v| (a.0 + v.0, a.1 + v.1, a.2 + v.2))
    }
}

/// Ask the workload's routers, on the world's current node states, what to
/// send over the contacts in range, in both directions, until each answers
/// `None`. A contact keeps its offer state (offered ids, scan cursors) for
/// as long as the pair stays in range across slice boundaries, as the
/// engine keeps it for a live connection; so on a long-lived contact only
/// messages that arrived since the last slice are offered. Routers are
/// built fresh from the scenario's router kind, so protocol state learned
/// during the run (PRoPHET, MaxProp tables) starts from its initial value.
fn routing_probe(
    world: &World,
    s: &Scenario,
    tally: &mut RoutingTally,
    live: &mut BTreeMap<(u32, u32), ContactOffers>,
    rng: &mut SimRng,
) {
    let n = world.node_count();
    let pos: Vec<Point> = (0..n)
        .map(|i| world.node_position(NodeId(i as u32)))
        .collect();
    let mut rc = Recount::new(s.radio.range);
    rc.observe(&pos);
    let pairs = rc.in_range();
    live.retain(|k, _| pairs.binary_search(k).is_ok());
    let stride = (pairs.len() / ROUTING_PAIRS_PER_SLICE).max(1);
    let now = world.now();
    for &(a, b) in pairs.iter().step_by(stride) {
        let offers = live.entry((a, b)).or_default();
        for (side, from, to) in [(0, a, b), (1, b, a)] {
            let sender = world.node_state(NodeId(from));
            let receiver = world.node_state(NodeId(to));
            let mut rf =
                s.router
                    .build_with_backend(NodeId(from), n, s.policy, RoutingBackend::default());
            let rt =
                s.router
                    .build_with_backend(NodeId(to), n, s.policy, RoutingBackend::default());
            let entry = tally.by_kind.entry(rf.kind_label()).or_default();
            loop {
                let t = Instant::now();
                let intent =
                    rf.next_transfer(sender, receiver, &*rt, &mut offers.view(side), now, rng);
                entry.2 += t.elapsed().as_secs_f64();
                entry.0 += 1;
                match intent {
                    Some(id) => {
                        let handle = sender
                            .buffer
                            .handle_of(id)
                            .expect("offered messages are held");
                        offers.record(id, handle);
                    }
                    None => {
                        entry.1 += 1;
                        break;
                    }
                }
            }
        }
    }
}

/// Mean A* query time on the workload's map between seeded vertex pairs.
fn astar_us(s: &Scenario) -> f64 {
    let map = s
        .map
        .build(&mut SimRng::seed_from_u64(s.seed).derive("map", 0));
    let mut rng = SimRng::seed_from_u64(s.seed).derive("perfbench-astar", 0);
    let n = map.vertex_count();
    let queries: Vec<(VertexId, VertexId)> = (0..ASTAR_QUERIES)
        .map(|_| (VertexId(rng.index(n) as u32), VertexId(rng.index(n) as u32)))
        .collect();
    let t = Instant::now();
    for &(a, b) in &queries {
        std::hint::black_box(astar(&map, a, b));
    }
    t.elapsed().as_secs_f64() * 1e6 / ASTAR_QUERIES as f64
}

#[derive(Default)]
struct MotionProbe {
    advances: u64,
    advance_secs: f64,
    prime_secs: f64,
    update_secs: f64,
    update_calls: u64,
    ups: u64,
    downs: u64,
    link_ops: u64,
    link_secs: f64,
}

/// Drive the workload's movers to the horizon at their decision times, the
/// kinematic contact detector on their motion segments, and a link table on
/// the detector's events, exactly as the engine schedules them: a mover
/// advances at the first tick at or after its decision time, the detector
/// is primed on the first tick and updated whenever a slack deadline is due.
fn motion_probe(s: &Scenario) -> MotionProbe {
    let root = SimRng::seed_from_u64(s.seed);
    let map = Arc::new(s.map.build(&mut root.derive("map", 0)));
    let initial = World::build(s);
    let mut movers: Vec<Box<dyn MovementModel>> = Vec::new();
    for group in &s.groups {
        for _ in 0..group.count {
            let id = movers.len() as u32;
            movers.push(match &group.mobility {
                MobilitySpec::ShortestPathMapBased(cfg) => Box::new(ShortestPathMapBased::new(
                    map.clone(),
                    *cfg,
                    root.derive("mobility", id as u64),
                )),
                MobilitySpec::Stationary(_) => {
                    Box::new(Stationary::new(initial.node_position(NodeId(id))))
                }
            });
        }
    }
    drop(initial);
    let n = movers.len();
    let segs: Vec<_> = movers.iter().map(|m| m.motion()).collect();
    let mut origin: Vec<Point> = segs.iter().map(|g| g.origin).collect();
    let mut velocity: Vec<Point> = segs.iter().map(|g| g.velocity).collect();
    let mut start: Vec<SimTime> = segs.iter().map(|g| g.start).collect();
    let mut until: Vec<SimTime> = segs.iter().map(|g| g.until).collect();
    let v_glob = movers.iter().map(|m| m.max_speed()).fold(0.0, f64::max);
    let mut detector = ContactDetector::new(s.detector, s.radio);
    let mut links = LinkTable::with_nodes(n);
    let msg_size = s.traffic.size_lo;
    let mut next_msg = 0u64;
    let mut p = MotionProbe::default();
    let mut due: Vec<usize> = Vec::new();
    let tick_ms = SimTime::from_secs_f64(s.tick_secs).as_millis();
    let ticks = (s.duration_secs / s.tick_secs).round() as u64;
    for k in 1..=ticks {
        let now = SimTime::from_millis(k * tick_ms);
        due.clear();
        due.extend((0..n).filter(|&i| movers[i].next_decision_time() <= now));
        if !due.is_empty() {
            let t = Instant::now();
            for &i in &due {
                movers[i].advance_to(now);
            }
            p.advance_secs += t.elapsed().as_secs_f64();
            p.advances += due.len() as u64;
            for &i in &due {
                let g = movers[i].motion();
                (origin[i], velocity[i], start[i], until[i]) =
                    (g.origin, g.velocity, g.start, g.until);
                detector.on_motion_change(i as u32, now);
            }
        }
        let cols = MotionCols {
            origin: &origin,
            velocity: &velocity,
            start: &start,
            until: &until,
        };
        let events = if k == 1 {
            let t = Instant::now();
            let ev = detector.prime_kinematic(now, &cols);
            p.prime_secs = t.elapsed().as_secs_f64();
            ev
        } else if detector.next_deadline() <= now {
            let t = Instant::now();
            let ev = detector.update_kinematic(now, &cols, v_glob);
            p.update_secs += t.elapsed().as_secs_f64();
            p.update_calls += 1;
            ev
        } else {
            continue;
        };
        if events.is_empty() {
            continue;
        }
        let t = Instant::now();
        for ev in &events {
            match *ev {
                LinkEvent::Down(a, b) => {
                    p.downs += 1;
                    links.link_down(a, b, now);
                }
                LinkEvent::Up(a, b) => {
                    p.ups += 1;
                    links
                        .link_up(a, b, now, s.radio.rate)
                        .expect("the radio rate is valid");
                    if !links.is_busy(a) && !links.is_busy(b) {
                        next_msg += 1;
                        let msg =
                            Message::new(MessageId(next_msg), a, b, msg_size, now, s.traffic.ttl);
                        links.start_transfer(a, b, msg, now);
                        p.link_ops += 1;
                    }
                }
            }
        }
        links.complete_due(now);
        p.link_ops += events.len() as u64 + 1;
        p.link_secs += t.elapsed().as_secs_f64();
    }
    p
}

struct BundleProbe {
    insert_ns: f64,
    remove_ns: f64,
    drain_ns: f64,
    order_us: f64,
}

/// Buffer operations at `depth` messages drawn from the workload's traffic
/// (sizes, lifetimes), in a buffer of the workload's capacity, and the
/// scheduling order of every policy the workload uses.
fn bundle_probe(scenarios: &[Scenario], depth: usize) -> BundleProbe {
    let s = &scenarios[0];
    let capacity = s.groups[0].buffer_bytes;
    let ttl = s.traffic.ttl;
    let mut rng = SimRng::seed_from_u64(s.seed).derive("perfbench-bundle", 0);
    let msgs: Vec<Message> = (0..depth as u64)
        .map(|i| {
            let created = SimTime::from_secs_f64(rng.range_f64(0.0, ttl.as_secs_f64()));
            let size = rng.range_u64(s.traffic.size_lo, s.traffic.size_hi);
            Message::new(MessageId(i), NodeId(0), NodeId(1), size, created, ttl)
        })
        .collect();
    // Half the messages have expired at `mid`.
    let mut expiries: Vec<SimTime> = msgs.iter().map(|m| m.expiry()).collect();
    expiries.sort_unstable();
    let mid = expiries[expiries.len() / 2];
    // PRoPHET and MaxProp schedule natively and ignore the policy combo.
    let mut policies: Vec<SchedulingPolicy> = Vec::new();
    for s in scenarios {
        let native = matches!(s.router, RouterKind::Prophet(_) | RouterKind::MaxProp(_));
        if !native && !policies.contains(&s.policy.scheduling) {
            policies.push(s.policy.scheduling);
        }
    }
    let fill = || {
        let mut b = Buffer::new(capacity);
        let t = Instant::now();
        let mut inserted = 0usize;
        for m in &msgs {
            if b.insert(*m).is_ok() {
                inserted += 1;
            }
        }
        (b, t.elapsed().as_secs_f64(), inserted.max(1))
    };
    let (mut insert, mut remove, mut drain, mut order) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (b, secs, k) = fill();
        insert.push(secs * 1e9 / k as f64);
        let t = Instant::now();
        for p in &policies {
            std::hint::black_box(p.order(&b, mid, &mut rng));
        }
        order.push(t.elapsed().as_secs_f64() * 1e6 / policies.len() as f64);
        let mut b2 = fill().0;
        let t = Instant::now();
        std::hint::black_box(b2.drain_expired(mid));
        drain.push(t.elapsed().as_secs_f64() * 1e9);
        let mut b = b;
        let t = Instant::now();
        for m in &msgs {
            b.remove(m.id);
        }
        remove.push(t.elapsed().as_secs_f64() * 1e9 / k as f64);
    }
    BundleProbe {
        insert_ns: median(&insert),
        remove_ns: median(&remove),
        drain_ns: median(&drain),
        order_us: median(&order),
    }
}

/// Mean milliseconds per journal chunk append (one fsync'd chunk per run,
/// as a one-thread sweep of eight runs writes them), written under the
/// build directory and removed afterwards.
fn journal_append_ms(engines: &[EngineRun]) -> Result<f64, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = std::path::Path::new(&dir).join("perfbench-journal.jsonl");
    let mut j = JournalWriter::create(&path, 0, engines.len() as u64).map_err(|e| e.to_string())?;
    let mut secs = Vec::new();
    for (k, e) in engines.iter().enumerate() {
        let rec = RunRecord::from_report(&format!("cell{k}"), &e.report);
        let t = Instant::now();
        j.append_chunk(std::slice::from_ref(&rec))
            .map_err(|e| e.to_string())?;
        secs.push(t.elapsed().as_secs_f64());
    }
    drop(j);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(median(&secs) * 1e3)
}
