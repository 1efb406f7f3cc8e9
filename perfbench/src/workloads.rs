//! The two workloads: their inputs, their timed loops and their checks.
//!
//! Every timed loop is closed: one process, one simulation thread, and the
//! next simulation starts when the previous one ends. A run repeats whole
//! rounds, at least three and until `--seconds` have passed. Each round is
//! timed in pieces (a paper cell; a slice of simulated time), and a round's
//! time is estimated as the sum over pieces of each piece's median across
//! rounds, so a slow phase of the host (they last seconds here) that hits
//! one round's piece drops out. Set-up is sampled before every piece of
//! every round, so its samples spread over the whole run, and reported as
//! the median. Expensive checks run after the timed section of the same
//! process.

use crate::checks::{self, push_err, Check, MotionCheck, Recount};
use std::time::Instant;
use vdtn::orchestrator::{run_manifest, SweepManifest, SweepOptions};
use vdtn::presets::PaperProtocol;
use vdtn::scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec};
use vdtn::{DetectorBackend, EngineMode, NodeId, PolicyCombo, RouterKind, SimDuration, SimTime};
use vdtn::{SimReport, World};
use vdtn_geo::{GridMapGen, Point};
use vdtn_net::RadioInterface;

/// The paper's TTL for the sweep cells, minutes.
pub const PAPER_TTL_MIN: u64 = 120;
/// Simulated prefix compared against the `Ticked` reference, seconds.
pub const PAPER_TICKED_PREFIX: f64 = 3_600.0;
pub const MESH_NODES: usize = 2_000;
pub const MESH_SECS: f64 = 900.0;
/// Rounds per run, at least: a per-piece median needs three samples.
const MIN_ROUNDS: usize = 3;
/// Builds of the eight paper worlds summed into one set-up sample. One
/// build of all eight takes about 0.3 ms, so a sample lasts tens of
/// milliseconds. A `dense_mesh` world takes 10–15 ms to build, and one
/// build is a sample.
const PAPER_SETUP_BUILDS: usize = 64;
/// Slices of simulated time a single-world round is timed in.
const ROUND_SLICES: u64 = 30;
/// Integers sorted by one pass of the reference kernel.
const REF_LEN: usize = 1 << 18;
/// Host seconds of one pass of the reference kernel at the reference
/// speed: its median on the measuring host in a slow phase (see README).
pub const REF_SECS: f64 = 0.007;

/// All eight protocol/policy cells of the paper's figures.
pub const PAPER_CELLS: [PaperProtocol; 8] = [
    PaperProtocol::EpidemicFifo,
    PaperProtocol::EpidemicRandom,
    PaperProtocol::EpidemicLifetime,
    PaperProtocol::SnwFifo,
    PaperProtocol::SnwRandom,
    PaperProtocol::SnwLifetime,
    PaperProtocol::MaxProp,
    PaperProtocol::Prophet,
];

/// The whole sweep as one manifest.
pub fn paper_manifest(seed: u64) -> SweepManifest {
    SweepManifest::paper("paper_sweep", &PAPER_CELLS, &[PAPER_TTL_MIN], &[seed])
}

/// One cell of the sweep as its own manifest.
pub fn paper_cell_manifest(seed: u64, cell: PaperProtocol) -> SweepManifest {
    SweepManifest::paper("paper_sweep", &[cell], &[PAPER_TTL_MIN], &[seed])
}

/// The scenario `run_manifest` materialises for each cell, in
/// `PAPER_CELLS` order.
pub fn paper_scenarios(seed: u64) -> Vec<Scenario> {
    PAPER_CELLS
        .iter()
        .map(|&p| {
            let m = paper_cell_manifest(seed, p);
            let plan = m.expand().expect("a paper cell expands");
            plan.runs[0].scenario(&m)
        })
        .collect()
}

/// Stationary nodes on a 25 m lattice with 30 m radios: every node is
/// permanently linked to its lattice neighbours, bundles are 10–50 kB in
/// 50 MB buffers, and Epidemic with the Lifetime policies floods them.
pub fn mesh_scenario(seed: u64) -> Scenario {
    let n = MESH_NODES;
    let side = (n as f64).sqrt().ceil() as usize;
    let spacing = 25.0;
    let points: Vec<Point> = (0..n)
        .map(|k| Point::new((k % side) as f64 * spacing, (k / side) as f64 * spacing))
        .collect();
    Scenario {
        name: format!("dense-mesh-{n}"),
        seed,
        duration_secs: MESH_SECS,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: side,
            rows: side,
            spacing,
        }),
        groups: vec![NodeGroup {
            name: "mesh".into(),
            count: n,
            buffer_bytes: 50_000_000,
            mobility: MobilitySpec::Stationary(RelayPlacement::Explicit(points)),
            is_relay: false,
        }],
        radio: RadioInterface::paper_80211b(),
        detector: DetectorBackend::Grid,
        traffic: TrafficSpec {
            interval_lo: 200.0 / n as f64,
            interval_hi: 500.0 / n as f64,
            size_lo: 10_000,
            size_hi: 50_000,
            ttl: SimDuration::from_mins(30),
        },
        router: RouterKind::Epidemic,
        policy: PolicyCombo::LIFETIME,
        sample_period_secs: 0.0,
    }
}

/// Node-seconds of one scenario: nodes × simulated seconds.
pub fn node_secs(s: &Scenario) -> f64 {
    s.node_count() as f64 * s.duration_secs
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Host seconds of each piece of each timed round.
    pub rounds: Vec<Vec<f64>>,
    /// Node-seconds simulated per round.
    pub round_node_secs: f64,
    /// Simulation runs (operations) per round.
    pub ops_per_round: u64,
    /// Host seconds of one build of the workload's worlds, per sample.
    pub setups: Vec<f64>,
    /// Host seconds of one pass of the reference kernel, sampled next to
    /// every set-up sample.
    pub refs: Vec<f64>,
    /// Peak resident set at the end of the timed section, MB.
    pub peak_rss_mb: f64,
    /// Failed checks.
    pub errors: Vec<String>,
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Report serialised with the wall clock zeroed: the identity the three
/// engine modes promise.
pub fn canon(report: &SimReport) -> String {
    let mut r = report.clone();
    r.wall_secs = 0.0;
    serde_json::to_string(&r).expect("reports serialise")
}

/// Host seconds of one build of every given scenario; the worlds are
/// dropped outside the timed span.
fn time_build(scenarios: &[Scenario]) -> f64 {
    let t = Instant::now();
    let worlds: Vec<World> = scenarios.iter().map(World::build).collect();
    let dt = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(worlds));
    dt
}

/// Host seconds of one pass of the reference kernel: an unstable sort of
/// `REF_LEN` fixed pseudo-random integers. It runs no simulator code, so it
/// measures how fast the host is at that moment and nothing else.
fn time_reference() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..REF_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(&v);
    dt
}

/// Repeat `round` (which returns its piece times) at least `MIN_ROUNDS`
/// times and until `seconds` have passed; whole rounds only.
fn timed_rounds(seconds: f64, mut round: impl FnMut() -> Vec<f64>) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        v.push(round());
    }
    v
}

/// Host seconds of one round, estimated piece by piece: the sum over
/// pieces of the piece's median across rounds.
pub fn round_estimate(rounds: &[Vec<f64>]) -> f64 {
    (0..rounds[0].len())
        .map(|k| median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum()
}

/// Compare the event-driven engine with the `Ticked` reference over the
/// first `prefix` simulated seconds: state hash and report must be equal.
pub fn ticked_prefix(scenario: &Scenario, prefix: f64) -> Check {
    let stop = SimTime::from_secs_f64(prefix);
    let mut event = World::build_with_mode(scenario, EngineMode::EventDriven);
    let mut ticked = World::build_with_mode(scenario, EngineMode::Ticked);
    event.run_until(stop);
    ticked.run_until(stop);
    checks::equal(
        &format!(
            "{}: state hash at {prefix} s, event vs ticked",
            scenario.name
        ),
        event.state_hash(),
        ticked.state_hash(),
    )?;
    checks::equal(
        &format!("{}: report at {prefix} s, event vs ticked", scenario.name),
        canon(event.report()),
        canon(ticked.report()),
    )
}

/// Run the scenario on the `Ticked` engine tick by tick, recounting
/// link-ups from `node_position` and checking per-tick motion. Checks the
/// final report against `report` (a `World::run` of the event-driven
/// engine) and the engine's link-up count against the recount.
pub fn stepped_recount(scenario: &Scenario, report: &SimReport) -> Vec<Check> {
    let n = scenario.node_count();
    let mut world = World::build_with_mode(scenario, EngineMode::Ticked);
    let mut recount = Recount::new(scenario.radio.range);
    let mut motion = motion_check(scenario);
    let mut pos = vec![Point::new(0.0, 0.0); n];
    let ticks = (scenario.duration_secs / scenario.tick_secs).round() as u64;
    for k in 1..=ticks {
        let t = k as f64 * scenario.tick_secs;
        world.run_until(SimTime::from_secs_f64(t));
        for (i, p) in pos.iter_mut().enumerate() {
            *p = world.node_position(NodeId(i as u32));
        }
        recount.observe(&pos);
        motion.observe(t, &pos);
    }
    let stepped = world.run();
    vec![
        checks::equal(
            &format!(
                "{}: report, run() vs Ticked stepped per tick",
                scenario.name
            ),
            canon(report),
            canon(&stepped),
        ),
        checks::equal(
            &format!("{}: link-ups vs recount", scenario.name),
            stepped.contacts,
            recount.ups,
        ),
        motion.result(),
    ]
}

/// Largest SPMB speed of a scenario, m/s.
fn speed_hi(s: &Scenario) -> f64 {
    s.groups
        .iter()
        .map(|g| match &g.mobility {
            MobilitySpec::ShortestPathMapBased(cfg) => cfg.speed_hi,
            MobilitySpec::Stationary(_) => 0.0,
        })
        .fold(0.0, f64::max)
}

/// The map's rectangle as the scenario declares it.
fn map_rect(s: &Scenario) -> (Point, Point) {
    match &s.map {
        MapSpec::Grid(g) => (
            Point::new(0.0, 0.0),
            Point::new(
                (g.cols - 1) as f64 * g.spacing,
                (g.rows - 1) as f64 * g.spacing,
            ),
        ),
        MapSpec::Synthetic(c) => (Point::new(0.0, 0.0), Point::new(c.width, c.height)),
        MapSpec::WktText(_) => unreachable!("no workload uses a WKT map"),
    }
}

/// Per-tick displacement limit: `speed_hi × (tick + 1 ms)`. The extra
/// millisecond is the simulator's time quantum: a leg's end is floored to
/// it and the vehicle is then placed on the waypoint, so crossing a vertex
/// moves it up to `speed_hi × 1 ms` further than `speed_hi × tick`
/// (5.6 mm seen in a fleet of 10 000 vehicles on a grid city, seed 1).
fn motion_check(s: &Scenario) -> MotionCheck {
    let (lo, hi) = map_rect(s);
    MotionCheck::new(speed_hi(s) * (s.tick_secs + 0.001), lo, hi)
}

/// `paper_sweep`: the eight cells through `run_manifest`, one thread, no
/// journal.
pub fn paper_sweep(seed: u64, seconds: f64) -> Outcome {
    let scenarios = paper_scenarios(seed);
    // One manifest per cell, so each cell is timed as its own piece.
    let manifests: Vec<SweepManifest> = PAPER_CELLS
        .iter()
        .map(|&p| paper_cell_manifest(seed, p))
        .collect();
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    let mut points = Vec::new();
    let rounds = timed_rounds(seconds, || {
        let mut pieces = Vec::new();
        let mut round_points = Vec::new();
        for m in &manifests {
            let builds: f64 = (0..PAPER_SETUP_BUILDS)
                .map(|_| time_build(&scenarios))
                .sum();
            setups.push(builds / PAPER_SETUP_BUILDS as f64);
            refs.push(time_reference());
            let t = Instant::now();
            let out = run_manifest(m, &opts).expect("the paper sweep runs");
            pieces.push(t.elapsed().as_secs_f64());
            round_points.extend(out.points);
        }
        points.push(round_points);
        pieces
    });
    let peak = peak_rss_mb();

    let mut errors = Vec::new();
    let first = format!("{:?}", points[0]);
    for (k, p) in points.iter().enumerate().skip(1) {
        push_err(
            &mut errors,
            checks::equal(
                &format!("sweep round {k} aggregates"),
                format!("{p:?}"),
                first.clone(),
            ),
        );
    }
    // One logged run per cell: its counts must match the sweep's and its
    // contact log bounds its deliveries. Every cell is compared with the
    // `Ticked` reference over a prefix; the cheapest cell over the whole
    // run, with the link-up recount. Mobility does not depend on routing,
    // so all cells see the same contacts and one recount covers them all.
    let mut contacts = Vec::new();
    let mut oracle: Option<(checks::LogInputs, u64)> = None;
    for ((s, point), cell) in scenarios.iter().zip(&points[0]).zip(PAPER_CELLS) {
        let (report, log) = World::build(s).run_logged();
        let m = &report.messages;
        push_err(
            &mut errors,
            checks::equal(
                &format!("{}: delivered", s.name),
                m.delivered_unique as f64,
                point.delivered,
            ),
        );
        push_err(
            &mut errors,
            checks::equal(
                &format!("{}: created", s.name),
                m.created as f64,
                point.created,
            ),
        );
        contacts.push(report.contacts);
        let inputs = checks::log_inputs(&log);
        // The pass is repeated only when a cell's log differs from the
        // previous cell's (the contact check below then fails anyway).
        let bound = match &oracle {
            Some((prev, b)) if *prev == inputs => *b,
            _ => {
                let b = checks::deliverable(
                    log.node_count,
                    &inputs.0,
                    &inputs.1,
                    log.horizon.as_millis(),
                );
                oracle = Some((inputs, b));
                b
            }
        };
        push_err(
            &mut errors,
            checks::at_most(
                &format!("{}: unique deliveries vs deliverable", s.name),
                m.delivered_unique,
                bound,
            ),
        );
        if cell == PaperProtocol::SnwLifetime {
            for c in stepped_recount(s, &report) {
                push_err(&mut errors, c);
            }
        } else {
            push_err(&mut errors, ticked_prefix(s, PAPER_TICKED_PREFIX));
        }
    }
    push_err(
        &mut errors,
        checks::all_equal("contacts per cell", &contacts),
    );

    Outcome {
        rounds,
        round_node_secs: scenarios.iter().map(node_secs).sum(),
        ops_per_round: scenarios.len() as u64,
        setups,
        refs,
        peak_rss_mb: peak,
        errors,
    }
}

/// `dense_mesh`: each round builds the world and runs it
/// to the horizon through `World::run_until` slices; before each slice a
/// second world is built, timed as set-up, and dropped.
fn single_world(scenario: &Scenario, seconds: f64) -> (Outcome, SimReport) {
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    let mut reports = Vec::new();
    let end_ms = SimTime::from_secs_f64(scenario.duration_secs).as_millis();
    let rounds = timed_rounds(seconds, || {
        let mut world = World::build(scenario);
        let pieces = (1..=ROUND_SLICES)
            .map(|k| {
                setups.push(time_build(std::slice::from_ref(scenario)));
                refs.push(time_reference());
                let stop = SimTime::from_millis(end_ms * k / ROUND_SLICES);
                let t = Instant::now();
                world.run_until(stop);
                t.elapsed().as_secs_f64()
            })
            .collect();
        reports.push(canon(&world.run()));
        pieces
    });
    let peak = peak_rss_mb();
    let mut errors = Vec::new();
    for (k, r) in reports.iter().enumerate().skip(1) {
        push_err(
            &mut errors,
            checks::equal(&format!("round {k} report"), r, &reports[0]),
        );
    }
    let report: SimReport = serde_json::from_str(&reports[0]).expect("canonical reports parse");
    (
        Outcome {
            rounds,
            round_node_secs: node_secs(scenario),
            ops_per_round: 1,
            setups,
            refs,
            peak_rss_mb: peak,
            errors,
        },
        report,
    )
}

pub fn dense_mesh(seed: u64, seconds: f64) -> Outcome {
    let scenario = mesh_scenario(seed);
    let (mut out, report) = single_world(&scenario, seconds);
    push_err(
        &mut out.errors,
        checks::equal(
            "mesh: contacts vs lattice edges",
            report.contacts,
            checks::lattice_edges(MESH_NODES as u64),
        ),
    );
    let ticked = World::build_with_mode(&scenario, EngineMode::Ticked).run();
    push_err(
        &mut out.errors,
        checks::equal(
            "mesh: report, event vs ticked",
            canon(&report),
            canon(&ticked),
        ),
    );
    out
}
