//! The four workloads: their designs, their seeded request streams and
//! their open-loop arrival schedules.
//!
//! A workload's *content* is one deterministic sequence of requests drawn
//! from the seed. Arrival times come from a second seeded stream, so the
//! fixed-rate phase and every step of the rate ladder consume consecutive
//! pieces of the same content. Requests about one block (or one fleet
//! tenant) always ride the same connection, which keeps every request
//! valid whatever order the connections interleave in.

use damocles_flows::DesignSpec;

use crate::stats::Rng;

/// Latency class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Acked mutations other than `process`: `checkin`, `post`, `connect`.
    Write,
    /// `process`: the propagation drain and its durable commit.
    Process,
    /// `query`, `show`, `workleft`, `summary`.
    Read,
    /// `project <name>`: fleet routing.
    Attach,
}

/// What a reply must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Created(String),
    Ok,
    Processed,
    Props(String),
    Hits,
    Work(String),
    Summary,
    Attached(String),
}

impl Expect {
    /// Whether `reply` has the form this request expects.
    pub fn accepts(&self, reply: &str) -> bool {
        let starts = |prefix: &str, word: &str| {
            reply
                .strip_prefix(prefix)
                .and_then(|r| r.strip_prefix(word))
                .is_some_and(|r| r.starts_with(' '))
        };
        match self {
            Expect::Created(oid) => reply.strip_prefix("created ") == Some(oid.as_str()),
            Expect::Ok => reply == "ok",
            Expect::Processed => processed_deliveries(reply).is_some(),
            Expect::Props(oid) => starts("props ", oid),
            Expect::Hits => reply.starts_with("hits "),
            Expect::Work(oid) => starts("work ", oid),
            Expect::Summary => reply.starts_with("viewsummary "),
            Expect::Attached(name) => starts("attached ", name),
        }
    }
}

/// The delivery count of a `processed <events> <deliveries> <scripts>
/// <emitted>` reply.
pub fn processed_deliveries(reply: &str) -> Option<u64> {
    let nums: Vec<u64> = reply
        .strip_prefix("processed ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (nums.len() == 4).then(|| nums[1])
}

/// The hit count of a `hits <n> …` reply.
pub fn hit_count(reply: &str) -> Option<u64> {
    reply.strip_prefix("hits ")?.split(' ').next()?.parse().ok()
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Leader connection the request rides.
    pub conn: usize,
    pub class: Class,
    /// Fleet tenant (0 on single-project workloads).
    pub tenant: usize,
    pub line: String,
    pub expect: Expect,
    /// A follower visibility probe: the OID the follower must show once
    /// the leader acked this write.
    pub probe: Option<String>,
}

/// A request with its intended send time, relative to the phase start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed {
    pub due_ns: u64,
    pub op: Op,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdtcFlow,
    PropagationStorm,
    StatusQueries,
    FleetTenants,
}

/// Design sizes: the benchmark's own, or a smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Fixed per-workload settings, recorded in the output.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate_rps: f64,
    /// Run a `--follow` replica beside the leader.
    pub follower: bool,
    /// Run the leader as `--fleet` with this `--max-active`.
    pub fleet_max_active: Option<usize>,
    /// `None`: the leader starts with `--journal` and the server's default
    /// checkpoint cadence. `Some(every)`: durability is turned on by a
    /// `journal <dir> <every>` request once the design is loaded.
    pub journal_after_load: Option<u64>,
    /// Run the rate ladder for `max_rate_rps` against this limit after
    /// the fixed-rate phase.
    pub ladder: Option<Limit>,
}

/// A latency limit on one class's tail.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub class: Class,
    pub tail_ms: f64,
}

const EDTC_VIEWS: [&str; 5] = ["HDL_model", "synth_lib", "schematic", "netlist", "layout"];
const HDL: usize = 0;
const SCHEMATIC: usize = 2;
const LAYOUT: usize = 4;
const USERS: [&str; 8] = ["ann", "bob", "cyd", "dee", "eve", "fay", "gus", "hal"];
/// Follower visibility probes per second (`edtc_flow`).
pub const PROBE_RPS: f64 = 20.0;
/// `status_queries` checkpoint cadence, in journal records. At the default
/// 1,024 a 10k-OID image is folded every few seconds and each fold stalls
/// the command loop for ~125 ms, so the read tail measured the fsync of
/// the host's disk, not the read path, and moved by up to 2× between runs.
/// Checkpointing rarely keeps the write path as idle as the workload
/// means it to be.
pub const STATUS_CHECKPOINT_EVERY: u64 = 1_000_000;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EdtcFlow,
        Workload::PropagationStorm,
        Workload::StatusQueries,
        Workload::FleetTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdtcFlow => "edtc_flow",
            Workload::PropagationStorm => "propagation_storm",
            Workload::StatusQueries => "status_queries",
            Workload::FleetTenants => "fleet_tenants",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn profile(self) -> Profile {
        match self {
            Workload::EdtcFlow => Profile {
                rate_rps: 500.0,
                follower: true,
                fleet_max_active: None,
                journal_after_load: None,
                ladder: Some(Limit {
                    class: Class::Write,
                    tail_ms: 100.0,
                }),
            },
            Workload::PropagationStorm => Profile {
                rate_rps: 60.0,
                follower: false,
                fleet_max_active: None,
                journal_after_load: None,
                ladder: None,
            },
            Workload::StatusQueries => Profile {
                rate_rps: 400.0,
                follower: false,
                fleet_max_active: None,
                journal_after_load: Some(STATUS_CHECKPOINT_EVERY),
                ladder: Some(Limit {
                    class: Class::Read,
                    tail_ms: 250.0,
                }),
            },
            Workload::FleetTenants => Profile {
                rate_rps: 250.0,
                follower: false,
                fleet_max_active: Some(8),
                journal_after_load: None,
                ladder: None,
            },
        }
    }

    /// The blueprint every node of the workload loads.
    pub fn blueprint(self, scale: Scale) -> String {
        match self {
            Workload::PropagationStorm => storm_spec(scale).blueprint_source(true),
            _ => damocles_flows::EDTC_SOURCE.to_string(),
        }
    }

    /// `(tenants, blocks per tenant)`.
    fn shape(self, scale: Scale) -> (usize, usize) {
        match (self, scale) {
            (Workload::EdtcFlow, Scale::Full) => (1, 64),
            (Workload::EdtcFlow, Scale::Smoke) => (1, 8),
            (Workload::PropagationStorm, _) => (1, storm_spec(scale).blocks),
            (Workload::StatusQueries, Scale::Full) => (1, 2000),
            (Workload::StatusQueries, Scale::Smoke) => (1, 64),
            (Workload::FleetTenants, Scale::Full) => (32, 16),
            // More tenants than `--max-active`, so eviction runs.
            (Workload::FleetTenants, Scale::Smoke) => (12, 4),
        }
    }

    /// Fleet tenant names (empty on single-project workloads).
    pub fn tenants(self, scale: Scale) -> Vec<String> {
        if self != Workload::FleetTenants {
            return Vec::new();
        }
        (0..self.shape(scale).0).map(|t| format!("t{t}")).collect()
    }
}

fn storm_spec(scale: Scale) -> DesignSpec {
    match scale {
        Scale::Full => DesignSpec {
            stages: 8,
            blocks: 256,
            fanout: 4,
        },
        Scale::Smoke => DesignSpec {
            stages: 4,
            blocks: 32,
            fanout: 4,
        },
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn parent(block: usize, fanout: usize) -> Option<usize> {
    (block > 0).then(|| (block - 1) / fanout)
}

/// The seeded request stream of one workload, with the design state it
/// needs to keep every request valid.
#[derive(Debug, Clone)]
pub struct Gen {
    workload: Workload,
    scale: Scale,
    conns: usize,
    content: Rng,
    timing: Rng,
    /// `versions[tenant][block][view]`: latest version of each chain.
    versions: Vec<Vec<Vec<u32>>>,
    views: Vec<String>,
    /// Fleet: the tenant each connection is attached to.
    attached: Vec<Option<usize>>,
    /// Storm: check-ins left in the current group.
    group_left: usize,
    round_robin: usize,
    probes: usize,
    /// Zipf cumulative weights over tenants.
    zipf: Vec<f64>,
}

impl Gen {
    /// `conns` is the number of leader connections the stream spreads
    /// over.
    pub fn new(workload: Workload, scale: Scale, seed: u64, conns: usize) -> Gen {
        let (tenants, blocks) = workload.shape(scale);
        let views: Vec<String> = match workload {
            Workload::PropagationStorm => (0..storm_spec(scale).stages)
                .map(DesignSpec::view_name)
                .collect(),
            _ => EDTC_VIEWS.iter().map(|v| v.to_string()).collect(),
        };
        let mut total = 0.0;
        let zipf = (0..tenants)
            .map(|t| {
                total += 1.0 / (t + 1) as f64;
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        Gen {
            workload,
            scale,
            conns: conns.max(1),
            content: Rng::new(seed),
            timing: Rng::new(seed.rotate_left(17) ^ 0x5eed),
            versions: vec![vec![vec![0; views.len()]; blocks]; tenants],
            views,
            attached: vec![None; conns.max(1)],
            group_left: 0,
            round_robin: 0,
            probes: 0,
            zipf,
        }
    }

    fn blocks(&self) -> usize {
        self.versions[0].len()
    }

    fn block_name(&self, b: usize) -> String {
        match self.workload {
            Workload::PropagationStorm => DesignSpec::block_name(b),
            _ => format!("b{b}"),
        }
    }

    fn oid(&self, tenant: usize, b: usize, view: usize) -> String {
        format!(
            "{},{},{}",
            self.block_name(b),
            self.views[view],
            self.versions[tenant][b][view]
        )
    }

    fn block_conn(&self, tenant: usize, b: usize) -> usize {
        match self.workload {
            Workload::FleetTenants => tenant % self.conns,
            _ => b % self.conns,
        }
    }

    fn any_conn(&mut self, tenant: usize) -> usize {
        if self.workload == Workload::FleetTenants {
            return tenant % self.conns;
        }
        self.round_robin += 1;
        self.round_robin % self.conns
    }

    fn op(&self, conn: usize, class: Class, tenant: usize, line: String, expect: Expect) -> Op {
        Op {
            conn,
            class,
            tenant,
            line,
            expect,
            probe: None,
        }
    }

    fn checkin(&mut self, tenant: usize, b: usize, view: usize, user: &str) -> Op {
        self.versions[tenant][b][view] += 1;
        let oid = self.oid(tenant, b, view);
        let block = self.block_name(b);
        let payload = hex(format!("{oid} by {user}").as_bytes());
        let line = format!("checkin {block} {} {user} {payload}", self.views[view]);
        let conn = self.block_conn(tenant, b);
        self.op(conn, Class::Write, tenant, line, Expect::Created(oid))
    }

    fn connect(&self, tenant: usize, from: (usize, usize), to: (usize, usize)) -> Op {
        let line = format!(
            "connect {} {}",
            self.oid(tenant, from.0, from.1),
            self.oid(tenant, to.0, to.1)
        );
        let conn = self.block_conn(tenant, to.0);
        self.op(conn, Class::Write, tenant, line, Expect::Ok)
    }

    fn process(&mut self, tenant: usize) -> Op {
        let conn = self.any_conn(tenant);
        let line = "process".to_string();
        self.op(conn, Class::Process, tenant, line, Expect::Processed)
    }

    /// The requests that bring a fresh node to the workload's starting
    /// state: every tenant registered, its design checked in and linked,
    /// and one `process` that settles it.
    pub fn setup(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        let tenants = self.versions.len();
        for t in 0..tenants {
            if self.workload == Workload::FleetTenants {
                let name = format!("t{t}");
                let line = format!("project {name} new");
                let conn = t % self.conns;
                ops.push(self.op(conn, Class::Attach, t, line, Expect::Attached(name)));
                self.attached[conn] = Some(t);
            }
            ops.extend(self.design(t));
            ops.push(self.process(t));
        }
        ops
    }

    fn design(&mut self, t: usize) -> Vec<Op> {
        let blocks = self.blocks();
        let mut ops = Vec::new();
        if self.workload == Workload::PropagationStorm {
            let spec = storm_spec(self.scale);
            for stage in 0..spec.stages {
                for b in 0..blocks {
                    ops.push(self.checkin(t, b, stage, "generator"));
                }
                for b in 0..blocks {
                    if stage > 0 {
                        ops.push(self.connect(t, (b, stage - 1), (b, stage)));
                    }
                    if let Some(p) = spec.parent_of(b) {
                        ops.push(self.connect(t, (p, stage), (b, stage)));
                    }
                }
            }
            return ops;
        }
        for b in 0..blocks {
            for view in 0..EDTC_VIEWS.len() {
                ops.push(self.checkin(t, b, view, USERS[b % USERS.len()]));
            }
        }
        for b in 0..blocks {
            // The EDTC derivation flow: HDL_model and synth_lib feed the
            // schematic, which feeds netlist and layout.
            for (from, to) in [(0, 2), (1, 2), (2, 3), (2, 4)] {
                ops.push(self.connect(t, (b, from), (b, to)));
            }
            if let Some(p) = parent(b, 4) {
                ops.push(self.connect(t, (p, SCHEMATIC), (b, SCHEMATIC)));
            }
        }
        ops
    }

    /// The next request of the stream, preceded by a `project` attach when
    /// a fleet connection must switch tenant.
    fn next(&mut self, out: &mut Vec<Op>) {
        match self.workload {
            Workload::EdtcFlow => out.push(self.designer_op(0)),
            Workload::StatusQueries => out.push(self.status_op()),
            Workload::PropagationStorm => out.push(self.storm_op()),
            Workload::FleetTenants => {
                let u = self.content.unit();
                let t = self.zipf.iter().position(|&c| u < c).unwrap_or(0);
                let conn = t % self.conns;
                if self.attached[conn] != Some(t) {
                    self.attached[conn] = Some(t);
                    let name = format!("t{t}");
                    let line = format!("project {name}");
                    out.push(self.op(conn, Class::Attach, t, line, Expect::Attached(name)));
                }
                out.push(self.designer_op(t));
            }
        }
    }

    /// The everyday designer mix: ~35% check-ins, ~35% tool verdicts,
    /// ~15% `process`, ~15% reads.
    fn designer_op(&mut self, t: usize) -> Op {
        let r = self.content.unit();
        let b = self.content.below(self.blocks());
        if r < 0.35 {
            let view = *self.content.pick(&[HDL, SCHEMATIC, LAYOUT]);
            let user = *self.content.pick(&USERS);
            self.checkin(t, b, view, user)
        } else if r < 0.70 {
            self.verdict(t, b)
        } else if r < 0.85 {
            self.process(t)
        } else {
            let kind = self.content.unit();
            self.read(t, b, kind)
        }
    }

    fn verdict(&mut self, t: usize, b: usize) -> Op {
        let (tool, event, view, args) = *self.content.pick(&[
            ("simwrap", "hdl_sim", HDL, ["good", "bad"]),
            ("nlsimwrap", "nl_sim", SCHEMATIC, ["good", "bad"]),
            ("drcwrap", "drc", LAYOUT, ["good", "bad"]),
            ("lvswrap", "lvs", LAYOUT, ["is_equiv", "not_equiv"]),
        ]);
        let arg = *self.content.pick(&args);
        let line = format!("post {tool} {event} up {} {arg}", self.oid(t, b, view));
        let conn = self.block_conn(t, b);
        self.op(conn, Class::Write, t, line, Expect::Ok)
    }

    /// A read, `kind` in `[0, 1)` choosing: show 40%, workleft 30%,
    /// index query 15%, scan 10%, summary 5%.
    fn read(&mut self, t: usize, b: usize, kind: f64) -> Op {
        let storm = self.workload == Workload::PropagationStorm;
        if kind < 0.40 {
            let view = self.content.below(self.views.len());
            let oid = self.oid(t, b, view);
            let conn = self.block_conn(t, b);
            let line = format!("show {oid}");
            return self.op(conn, Class::Read, t, line, Expect::Props(oid));
        }
        if kind < 0.70 {
            let (view, prop) = if storm {
                (self.views.len() - 1, "uptodate")
            } else {
                (*self.content.pick(&[SCHEMATIC, LAYOUT]), "state")
            };
            let oid = self.oid(t, b, view);
            let conn = self.block_conn(t, b);
            let line = format!("workleft {oid} {prop}");
            return self.op(conn, Class::Read, t, line, Expect::Work(oid));
        }
        let line = if kind < 0.85 {
            let term = if storm {
                "prop.uptodate=false".to_string()
            } else {
                match self.content.below(4) {
                    0 => "prop.nl_sim_res=good".to_string(),
                    1 => "prop.drc_result=good".to_string(),
                    2 => "prop.lvs_result=is_equiv".to_string(),
                    _ => format!("prop.owner={}", self.content.pick(&USERS)),
                }
            };
            format!("query {term}")
        } else if kind < 0.95 {
            let view = if storm {
                self.views.len() - 1
            } else {
                *self.content.pick(&[SCHEMATIC, LAYOUT])
            };
            format!("query view={}%20stale.uptodate%20latest", self.views[view])
        } else {
            let conn = self.any_conn(t);
            let prop = if storm { "uptodate" } else { "state" };
            return self.op(
                conn,
                Class::Read,
                t,
                format!("summary {prop}"),
                Expect::Summary,
            );
        };
        let conn = self.any_conn(t);
        self.op(conn, Class::Read, t, line, Expect::Hits)
    }

    /// ~88% reads over a large settled design, plus a trickle of
    /// check-ins, verdicts and `process` large enough to sample their
    /// tails.
    fn status_op(&mut self) -> Op {
        let r = self.content.unit();
        let b = self.content.below(self.blocks());
        if r < 0.88 {
            let kind = self.content.unit();
            return self.read(0, b, kind);
        }
        if r < 0.93 {
            let view = *self.content.pick(&[HDL, SCHEMATIC, LAYOUT]);
            let user = *self.content.pick(&USERS);
            return self.checkin(0, b, view, user);
        }
        if r < 0.97 {
            return self.verdict(0, b);
        }
        self.process(0)
    }

    /// Groups of 1–2 check-ins at the first stage, biased toward the top
    /// of the hierarchy (one in eight an `outofdate` post instead), each
    /// group closed by one `process`. Half the arrivals are designers
    /// reading status meanwhile: cheap next to a drain, but they queue
    /// behind it.
    fn storm_op(&mut self) -> Op {
        if self.content.unit() < 0.5 {
            let b = self.content.below(self.blocks());
            // Mostly `show`, whose cost does not depend on how much of the
            // design is stale, so the read median tracks queueing behind
            // drains rather than the seed; the rest keeps every query
            // path exercised.
            let kind = if self.content.unit() < 0.85 {
                0.0
            } else {
                0.4 + 0.6 * self.content.unit()
            };
            return self.read(0, b, kind);
        }
        if self.group_left == 0 {
            self.group_left = 2 + self.content.below(2);
        }
        self.group_left -= 1;
        if self.group_left == 0 {
            return self.process(0);
        }
        // Squaring a uniform draw puts check-ins near the root, where one
        // change invalidates a large subtree in every stage: one in
        // sixteen lands on the root itself and drains the whole design.
        let b = (self.content.unit().powi(2) * self.blocks() as f64) as usize;
        if self.content.unit() < 0.125 {
            let oid = self.oid(0, b, 0);
            let conn = self.block_conn(0, b);
            let line = format!("post designer outofdate down {oid}");
            return self.op(conn, Class::Write, 0, line, Expect::Ok);
        }
        let user = *self.content.pick(&USERS);
        self.checkin(0, b, 0, user)
    }

    /// `n` requests arriving over `seconds` at uniformly random times (a
    /// Poisson process conditioned on its count), plus, with `probes`,
    /// follower visibility probes at [`PROBE_RPS`] on connection 0.
    pub fn schedule(&mut self, rate_rps: f64, seconds: f64, probes: bool) -> Vec<Timed> {
        let n = (rate_rps * seconds).round().max(1.0) as usize;
        let span_ns = seconds * 1e9;
        let mut dues: Vec<u64> = (0..n)
            .map(|_| (self.timing.unit() * span_ns) as u64)
            .collect();
        dues.sort_unstable();
        let mut out = Vec::with_capacity(n + n / 8);
        let mut ops = Vec::with_capacity(2);
        for due_ns in dues {
            ops.clear();
            self.next(&mut ops);
            out.extend(ops.drain(..).map(|op| Timed { due_ns, op }));
        }
        if probes {
            let count = (PROBE_RPS * seconds).round() as usize;
            for k in 0..count {
                let due_ns = ((k as f64 + 0.5) * 1e9 / PROBE_RPS) as u64;
                self.probes += 1;
                let block = format!("probe{}", self.probes);
                let oid = format!("{block},HDL_model,1");
                let line = format!("checkin {block} HDL_model probe 70726f6265");
                let mut op = self.op(0, Class::Write, 0, line, Expect::Created(oid.clone()));
                op.probe = Some(oid);
                out.push(Timed { due_ns, op });
            }
            out.sort_by_key(|t| t.due_ns);
        }
        out
    }

    /// `count` acked OIDs drawn from `rng`, each the latest version of a
    /// random chain, for the post-restart check: `(tenant, oid)` pairs.
    pub fn sample_oids(&self, rng: &mut Rng, count: usize) -> Vec<(usize, String)> {
        (0..count)
            .map(|_| {
                let t = rng.below(self.versions.len());
                let b = rng.below(self.blocks());
                let view = rng.below(self.views.len());
                (t, self.oid(t, b, view))
            })
            .collect()
    }

    /// Forgets fleet attachments (a new connection starts detached).
    pub fn detach_all(&mut self) {
        self.attached.iter_mut().for_each(|a| *a = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for w in Workload::ALL {
            let run = |seed| {
                let mut g = Gen::new(w, Scale::Full, seed, 2);
                let setup = g.setup();
                (
                    setup,
                    g.schedule(300.0, 2.0, true),
                    g.schedule(500.0, 1.0, false),
                )
            };
            assert_eq!(run(11), run(11), "{}", w.name());
            assert_ne!(run(11).1, run(12).1, "{}", w.name());
        }
    }

    #[test]
    fn schedule_is_sorted_and_sized() {
        let mut g = Gen::new(Workload::EdtcFlow, Scale::Full, 3, 1);
        g.setup();
        let s = g.schedule(400.0, 2.5, true);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|t| t.due_ns < 2_500_000_000));
        let probes = s.iter().filter(|t| t.op.probe.is_some()).count();
        assert_eq!(probes, 50);
        assert_eq!(s.len(), 1000 + 50);
    }

    #[test]
    fn mixes_cover_every_layer() {
        for w in Workload::ALL {
            let mut g = Gen::new(w, Scale::Full, 5, 2);
            g.setup();
            let s = g.schedule(2000.0, 2.0, false);
            let has = |prefix: &str| s.iter().any(|t| t.op.line.starts_with(prefix));
            for prefix in [
                "checkin ",
                "post ",
                "process",
                "show ",
                "workleft ",
                "summary ",
                "query prop.",
                "query view=",
            ] {
                assert!(has(prefix), "{} lacks {prefix}", w.name());
            }
        }
    }

    #[test]
    fn reply_forms() {
        assert!(Expect::Created("a,b,1".into()).accepts("created a,b,1"));
        assert!(!Expect::Created("a,b,1".into()).accepts("created a,b,2"));
        assert!(Expect::Processed.accepts("processed 1 2 0 0"));
        assert!(!Expect::Processed.accepts("processed 1 2 0"));
        assert!(Expect::Props("a,b,1".into()).accepts("props a,b,1 0"));
        assert!(!Expect::Props("a,b,1".into()).accepts("props a,b,12 0"));
        assert!(!Expect::Ok.accepts("err unknown-oid a,b,1"));
        assert_eq!(processed_deliveries("processed 10 39 2 0"), Some(39));
        assert_eq!(hit_count("hits 2 a,b,1 c,d,1"), Some(2));
    }
}
