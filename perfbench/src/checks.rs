//! Output checks computed apart from the simulator.
//!
//! Nothing here calls the simulator's own contact detection, spatial grid
//! or delivery oracle: every expected value is derived from the workload's
//! inputs in closed form, from positions read through `World::node_position`,
//! or from the contact log by an earliest-arrival pass written here. Each
//! check returns `Err` with a description, and [`self_test`] feeds every
//! check a deliberately wrong input so a check that passes everything shows.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use vdtn::SimLog;
use vdtn_geo::Point;

/// Result of one check.
pub type Check = Result<(), String>;

/// Keep a failed check's message.
pub fn push_err(errors: &mut Vec<String>, c: Check) {
    if let Err(e) = c {
        errors.push(e);
    }
}

/// `got == want`.
pub fn equal<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// `got <= bound`.
pub fn at_most(what: &str, got: u64, bound: u64) -> Check {
    if got <= bound {
        Ok(())
    } else {
        Err(format!("{what}: {got} exceeds the bound {bound}"))
    }
}

/// Every value equal to the first.
pub fn all_equal(what: &str, values: &[u64]) -> Check {
    match values.iter().position(|&v| v != values[0]) {
        None => Ok(()),
        Some(k) => Err(format!(
            "{what}: entry {k} is {} but entry 0 is {} (all: {values:?})",
            values[k], values[0]
        )),
    }
}

/// Number of lattice edges when `n` nodes sit row-major on a square
/// lattice of `ceil(sqrt(n))` columns whose spacing is within radio range
/// and whose diagonal is not (25 m spacing, 30 m range: 25·√2 ≈ 35.4 m).
/// Each edge is one contact that comes up on the first tick and never
/// goes down.
pub fn lattice_edges(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let side = (n as f64).sqrt().ceil() as u64;
    let full_rows = n / side;
    let rem = n % side;
    let horizontal = full_rows * (side - 1) + rem.saturating_sub(1);
    let vertical = full_rows.saturating_sub(1) * side + if full_rows > 0 { rem } else { 0 };
    horizontal + vertical
}

/// Recount of link-up events from positions sampled at every tick
/// boundary. Pairs are found with a cell hash of side `range` (a pair in
/// range lies in the same or an adjacent cell): nodes sorted by cell, and
/// each node scans the three cell columns around it. "In range" is
/// `dx² + dy² <= range²`, the radio model's rule.
pub struct Recount {
    range: f64,
    by_cell: Vec<(i64, i64, u32)>,
    prev: HashSet<(u32, u32)>,
    cur: HashSet<(u32, u32)>,
    /// Pairs that came into range, counted over all observed ticks.
    pub ups: u64,
}

impl Recount {
    pub fn new(range: f64) -> Self {
        Recount {
            range,
            by_cell: Vec::new(),
            prev: HashSet::new(),
            cur: HashSet::new(),
            ups: 0,
        }
    }

    /// Observe the positions at one tick boundary.
    pub fn observe(&mut self, pos: &[Point]) {
        let r = self.range;
        self.by_cell.clear();
        self.by_cell.extend(
            pos.iter()
                .enumerate()
                .map(|(i, p)| ((p.x / r).floor() as i64, (p.y / r).floor() as i64, i as u32)),
        );
        self.by_cell.sort_unstable();
        let r2 = r * r;
        self.cur.clear();
        for &(cx, cy, i) in &self.by_cell {
            let p = pos[i as usize];
            for x in cx - 1..=cx + 1 {
                let from = self
                    .by_cell
                    .partition_point(|&(bx, by, _)| (bx, by) < (x, cy - 1));
                for &(bx, by, j) in &self.by_cell[from..] {
                    if bx != x || by > cy + 1 {
                        break;
                    }
                    if j <= i {
                        continue;
                    }
                    let q = pos[j as usize];
                    let (dx, dy) = (p.x - q.x, p.y - q.y);
                    if dx * dx + dy * dy <= r2 {
                        self.cur.insert((i, j));
                    }
                }
            }
        }
        self.ups += self.cur.difference(&self.prev).count() as u64;
        std::mem::swap(&mut self.prev, &mut self.cur);
    }

    /// Pairs in range at the last observed tick, sorted.
    pub fn in_range(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.prev.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Per-tick motion limits: no node moves more than `max_step` metres
/// between consecutive tick boundaries, and every node stays inside the
/// map's rectangle `[min, max]`.
pub struct MotionCheck {
    max_step: f64,
    min: Point,
    max: Point,
    prev: Vec<Point>,
    /// First violation seen, if any.
    pub violation: Option<String>,
}

impl MotionCheck {
    pub fn new(max_step: f64, min: Point, max: Point) -> Self {
        MotionCheck {
            max_step,
            min,
            max,
            prev: Vec::new(),
            violation: None,
        }
    }

    /// Observe the positions at tick boundary `t` (seconds).
    pub fn observe(&mut self, t: f64, pos: &[Point]) {
        if self.violation.is_some() {
            return;
        }
        // Float slack far below any real jump: a micrometre.
        const EPS: f64 = 1e-6;
        for (i, &p) in pos.iter().enumerate() {
            if p.x < self.min.x - EPS
                || p.y < self.min.y - EPS
                || p.x > self.max.x + EPS
                || p.y > self.max.y + EPS
            {
                self.violation = Some(format!(
                    "node {i} at ({}, {}) left the map at t={t}",
                    p.x, p.y
                ));
                return;
            }
            if let Some(&q) = self.prev.get(i) {
                let step = ((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt();
                if step > self.max_step + EPS {
                    self.violation = Some(format!(
                        "node {i} moved {step} m in one tick at t={t} (limit {})",
                        self.max_step
                    ));
                    return;
                }
            }
        }
        self.prev.clear();
        self.prev.extend_from_slice(pos);
    }

    pub fn result(&self) -> Check {
        match &self.violation {
            None => Ok(()),
            Some(v) => Err(format!("motion: {v}")),
        }
    }
}

/// A contact interval, times in milliseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Contact {
    pub a: u32,
    pub b: u32,
    pub start: u64,
    pub end: u64,
}

/// A created message, times in milliseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Created {
    pub src: u32,
    pub dst: u32,
    pub created: u64,
    pub expiry: u64,
}

/// Contacts and messages of a `run_logged` log, in this module's terms.
pub type LogInputs = (Vec<Contact>, Vec<Created>);

pub fn log_inputs(log: &SimLog) -> LogInputs {
    let contacts = log
        .contacts
        .iter()
        .map(|c| Contact {
            a: c.a.0,
            b: c.b.0,
            start: c.start.as_millis(),
            end: c.end.as_millis(),
        })
        .collect();
    let messages = log
        .messages
        .iter()
        .map(|m| Created {
            src: m.src.0,
            dst: m.dst.0,
            created: m.created.as_millis(),
            expiry: m.expiry().as_millis(),
        })
        .collect();
    (contacts, messages)
}

/// Messages that could reach their destination before expiry (and before
/// `horizon`) if every contact carried any number of messages instantly:
/// an earliest-arrival pass (Dijkstra over contact intervals) per message.
/// No protocol can deliver more unique messages than this.
pub fn deliverable(nodes: usize, contacts: &[Contact], messages: &[Created], horizon: u64) -> u64 {
    let mut adj: Vec<Vec<(u32, u64, u64)>> = vec![Vec::new(); nodes];
    for c in contacts {
        adj[c.a as usize].push((c.b, c.start, c.end));
        adj[c.b as usize].push((c.a, c.start, c.end));
    }
    let mut arrival = vec![u64::MAX; nodes];
    let mut heap = BinaryHeap::new();
    let mut count = 0;
    for m in messages {
        let deadline = m.expiry.min(horizon);
        arrival.iter_mut().for_each(|a| *a = u64::MAX);
        arrival[m.src as usize] = m.created;
        heap.clear();
        heap.push(Reverse((m.created, m.src)));
        while let Some(Reverse((t, u))) = heap.pop() {
            if t > arrival[u as usize] {
                continue;
            }
            if u == m.dst || t > deadline {
                break;
            }
            for &(v, start, end) in &adj[u as usize] {
                if end < t {
                    continue;
                }
                let at = t.max(start);
                if at < arrival[v as usize] {
                    arrival[v as usize] = at;
                    heap.push(Reverse((at, v)));
                }
            }
        }
        if arrival[m.dst as usize] <= deadline {
            count += 1;
        }
    }
    count
}

/// Feed every check a wrong input; each must fail. Returns the names of
/// checks that passed what they should have refused.
pub fn self_test() -> Vec<String> {
    let mut blind = Vec::new();
    fn must_fail(blind: &mut Vec<String>, name: &str, c: Check) {
        if c.is_ok() {
            blind.push(name.to_string());
        }
    }

    // Closed-form lattice count: 2 000 nodes on 45 columns have 3 910
    // edges; one contact too many must fail.
    must_fail(
        &mut blind,
        "lattice_edges",
        equal("contacts", 3_911, lattice_edges(2_000)),
    );
    must_fail(
        &mut blind,
        "lattice_edges_2x2",
        equal("contacts", 5, lattice_edges(4)),
    );
    // Equal contact counts across cells: one cell off by one.
    must_fail(
        &mut blind,
        "all_equal",
        all_equal("contacts", &[13_382, 13_382, 13_383]),
    );
    // Report identity: one differing byte.
    must_fail(
        &mut blind,
        "equal",
        equal("report", "{\"a\":1}", "{\"a\":2}"),
    );

    // Recount: two nodes approach, meet once, part, meet again (two link
    // ups); a third stays far away. An engine count of three must fail,
    // and the recount must see exactly two.
    let mut rc = Recount::new(30.0);
    for x in [100.0, 40.0, 20.0, 10.0, 45.0, 29.0] {
        rc.observe(&[
            Point::new(0.0, 0.0),
            Point::new(x, 0.0),
            Point::new(500.0, 500.0),
        ]);
    }
    must_fail(&mut blind, "recount_value", equal("recount", rc.ups, 3));
    if rc.ups != 2 {
        blind.push(format!("recount counted {} link-ups, expected 2", rc.ups));
    }

    // Motion: a 30 m jump at a 13.9 m limit, and a node off the map.
    let lo = Point::new(0.0, 0.0);
    let hi = Point::new(100.0, 100.0);
    let mut mc = MotionCheck::new(13.9, lo, hi);
    mc.observe(1.0, &[Point::new(10.0, 10.0)]);
    mc.observe(2.0, &[Point::new(40.0, 10.0)]);
    must_fail(&mut blind, "motion_jump", mc.result());
    let mut mc = MotionCheck::new(13.9, lo, hi);
    mc.observe(1.0, &[Point::new(100.0, 100.5)]);
    must_fail(&mut blind, "motion_bounds", mc.result());

    // Oracle: 0 meets 1 over [10, 20] s, 1 meets 2 over [15, 30] s; a
    // message 0→2 created at 5 s with a 60 s lifetime is deliverable via 1;
    // a message 2→0 created at 25 s is not (the 0–1 contact has ended).
    let contacts = [
        Contact {
            a: 0,
            b: 1,
            start: 10_000,
            end: 20_000,
        },
        Contact {
            a: 1,
            b: 2,
            start: 15_000,
            end: 30_000,
        },
    ];
    let messages = [
        Created {
            src: 0,
            dst: 2,
            created: 5_000,
            expiry: 65_000,
        },
        Created {
            src: 2,
            dst: 0,
            created: 25_000,
            expiry: 85_000,
        },
    ];
    let bound = deliverable(3, &contacts, &messages, 100_000);
    must_fail(&mut blind, "oracle_bound", at_most("delivered", 2, bound));
    if bound != 1 {
        blind.push(format!(
            "oracle found {bound} deliverable messages, expected 1"
        ));
    }
    blind
}
