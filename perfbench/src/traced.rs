//! The traced run: the same seeded request stream replayed in-process
//! through each layer's public entry points, with a span around every
//! call.
//!
//! Spans stay in memory and are written out at the end. Every request
//! gets one root span; its children share the request's id. Only stable
//! public surfaces are called: `Request::decode`, `Response::encode`,
//! `ProjectService::{call, flush}`, `ClientSession::call`,
//! `ProjectServer::{checkpoint, recover_journal, apply_replica_op}` and
//! `FleetSession::call`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::exec::NullExecutor;
use blueprint_core::engine::fleet::{spawn_fleet, FleetConfig, ProjectRegistry};
use blueprint_core::engine::service::{spawn_project_loop, ClientSession, ProjectService};
use blueprint_core::ProjectServer;
use damocles_meta::journal;

use crate::node::Result;
use crate::stats::{quantile, Spread};
use crate::workload::{hit_count, processed_deliveries, Class, Op, Timed};

/// One timed interval. Children name their root through `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    /// `None` for a request's root span.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder; disabled, it records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per request: the children's time over the root's.
    pub fn coverage(&self) -> Vec<f64> {
        let mut root: HashMap<u32, u64> = HashMap::new();
        let mut children: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            match s.parent {
                None => *root.entry(s.request).or_default() += d,
                Some(_) => *children.entry(s.request).or_default() += d,
            }
        }
        root.iter()
            .filter(|(_, &d)| d > 0)
            .map(|(id, &d)| children.get(id).copied().unwrap_or(0) as f64 / d as f64)
            .collect()
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("request\tname\tparent\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The span name of the layer entry point a request exercises.
fn layer_of(line: &str) -> &'static str {
    let word = line.split(' ').next().unwrap_or("");
    match word {
        "checkin" => "db.checkin",
        "post" => "db.post",
        "connect" => "db.connect",
        "process" => "runtime.process",
        "show" => "query.show",
        "workleft" => "query.workleft",
        "summary" => "query.summary",
        "query" if line.starts_with("query prop.") => "query.index",
        "query" => "query.scan",
        _ => "service.other",
    }
}

fn decode(line: &str) -> Result<Request> {
    Request::decode(line).map_err(|e| format!("`{line}` does not decode: {e:?}"))
}

fn check(op: &Op, reply: &str) -> Result<()> {
    if op.expect.accepts(reply) {
        Ok(())
    } else {
        Err(format!("in-process `{}` answered `{reply}`", op.line))
    }
}

/// One journaled project service per tenant, created on first use.
struct Services {
    source: String,
    dir: PathBuf,
    every: u64,
    by_tenant: HashMap<usize, ProjectService>,
}

impl Services {
    fn new(source: &str, dir: PathBuf, every: u64) -> Services {
        Services {
            source: source.to_string(),
            dir,
            every,
            by_tenant: HashMap::new(),
        }
    }

    fn get(&mut self, tenant: usize) -> Result<&mut ProjectService> {
        if !self.by_tenant.contains_key(&tenant) {
            let server = ProjectServer::from_source(&self.source).map_err(|e| e.to_string())?;
            let mut service = ProjectService::with_server(server);
            service.set_group_commit(true).map_err(|e| e.to_string())?;
            let dir = self.dir.join(format!("t{tenant}"));
            let reply = service.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: self.every,
            });
            if !matches!(reply, Response::Epoch { .. }) {
                return Err(format!(
                    "cannot journal {}: {}",
                    dir.display(),
                    reply.encode()
                ));
            }
            self.by_tenant.insert(tenant, service);
        }
        Ok(self.by_tenant.get_mut(&tenant).expect("inserted above"))
    }

    /// Runs `ops` untimed, flushing every 256 requests and at the end.
    fn replay(&mut self, ops: &[Op]) -> Result<()> {
        for (i, op) in ops.iter().enumerate() {
            if op.class == Class::Attach {
                continue;
            }
            let service = self.get(op.tenant)?;
            check(op, &service.call(decode(&op.line)?).encode())?;
            if i % 256 == 255 {
                service.flush().map_err(|e| e.to_string())?;
            }
        }
        for service in self.by_tenant.values_mut() {
            service.flush().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Per-layer figures of the traced run, `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn p50(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Replays `setup` then `stream` through every layer; `spans_out`
/// receives the traced pass's spans.
pub fn run(
    source: &str,
    setup: &[Op],
    stream: &[Timed],
    every: u64,
    fleet_max_active: Option<usize>,
    dir: &Path,
    spans_out: &Path,
) -> Result<Metrics> {
    let stream: Vec<Op> = stream.iter().map(|t| t.op.clone()).collect();
    let mut m: Metrics = Vec::new();

    // Untraced, then traced, direct pass: the difference is the cost of
    // tracing itself.
    let untraced = direct_pass(source, setup, &stream, every, &dir.join("untraced"), false)?;
    drop(untraced.services);
    let traced = direct_pass(source, setup, &stream, every, &dir.join("traced"), true)?;
    let tracer = &traced.tracer;
    tracer
        .write_tsv(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let us = |name: &str| p50(tracer.durations_us(name));
    let mut flush = tracer.durations_us("service.flush");
    flush.sort_by(f64::total_cmp);
    let process_ns: f64 = tracer.durations_us("runtime.process").iter().sum::<f64>() * 1e3;
    m.push(("api.decode_us".into(), us("api.decode"), "us"));
    m.push(("api.encode_us".into(), us("api.encode"), "us"));
    m.push(("api.reply_bytes".into(), mean(&traced.reply_bytes), "bytes"));
    m.push(("service.flush_us_p50".into(), quantile(&flush, 0.5), "us"));
    m.push(("service.flush_us_p99".into(), quantile(&flush, 0.99), "us"));
    m.push(("db.checkin_us".into(), us("db.checkin"), "us"));
    m.push(("db.post_us".into(), us("db.post"), "us"));
    m.push(("runtime.process_us".into(), us("runtime.process"), "us"));
    m.push((
        "runtime.deliveries_per_process".into(),
        mean(&traced.deliveries),
        "count",
    ));
    m.push((
        "runtime.ns_per_delivery".into(),
        process_ns / traced.deliveries.iter().sum::<f64>().max(1.0),
        "ns",
    ));
    for (name, span) in [
        ("query.index_us", "query.index"),
        ("query.scan_us", "query.scan"),
        ("query.workleft_us", "query.workleft"),
        ("query.summary_us", "query.summary"),
        ("query.show_us", "query.show"),
    ] {
        m.push((name.into(), us(span), "us"));
    }
    m.push(("query.hits_per_query".into(), mean(&traced.hits), "count"));
    m.push((
        "trace.coverage_frac".into(),
        p50(tracer.coverage()),
        "ratio",
    ));
    m.push((
        "trace.overhead_frac".into(),
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    ));
    m.extend(journal_timings(
        source,
        traced,
        &stream,
        &dir.join("traced"),
    )?);
    m.extend(session_pass(
        source,
        setup,
        &stream,
        every,
        &dir.join("session"),
    )?);
    m.extend(follower_pass(
        source,
        setup,
        &stream,
        &dir.join("follower"),
    )?);
    m.extend(fleet_pass(
        source,
        every,
        setup,
        &stream,
        fleet_max_active,
        &dir.join("fleet"),
    )?);
    Ok(m)
}

/// What one direct pass measured, and its services for later timing.
struct DirectPass {
    wall_s: f64,
    tracer: Tracer,
    deliveries: Vec<f64>,
    hits: Vec<f64>,
    reply_bytes: Vec<f64>,
    services: Services,
}

/// The stream straight through `ProjectService::call` and `flush`, one
/// flush per request, each request under a root span with decode, call,
/// flush and encode as children.
fn direct_pass(
    source: &str,
    setup: &[Op],
    stream: &[Op],
    every: u64,
    dir: &Path,
    traced: bool,
) -> Result<DirectPass> {
    let mut services = Services::new(source, dir.to_path_buf(), every);
    services.replay(setup)?;
    let mut tracer = Tracer::new(traced);
    let (mut deliveries, mut hits, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (id, op) in stream.iter().enumerate() {
        if op.class == Class::Attach {
            continue;
        }
        let id = id as u32;
        let service = services.get(op.tenant)?;
        let root_start = tracer.now();
        let request = tracer.span(id, "api.decode", Some("request"), || decode(&op.line))?;
        let response = tracer.span(id, layer_of(&op.line), Some("request"), || {
            service.call(request)
        });
        tracer
            .span(id, "service.flush", Some("request"), || service.flush())
            .map_err(|e| e.to_string())?;
        let reply = tracer.span(id, "api.encode", Some("request"), || response.encode());
        if traced {
            let end_ns = tracer.now();
            tracer.spans.push(Span {
                request: id,
                name: "request",
                parent: None,
                start_ns: root_start,
                end_ns,
            });
            reply_bytes.push(reply.len() as f64 + 1.0);
            if let Some(d) = processed_deliveries(&reply) {
                deliveries.push(d as f64);
            }
            if let Some(h) = hit_count(&reply) {
                hits.push(h as f64);
            }
        }
        check(op, &reply)?;
    }
    Ok(DirectPass {
        wall_s: start.elapsed().as_secs_f64(),
        tracer,
        deliveries,
        hits,
        reply_bytes,
        services,
    })
}

/// `ProjectServer::checkpoint` on the end-of-run state of the busiest
/// tenant, then `ProjectServer::recover_journal` of its directory.
fn journal_timings(source: &str, pass: DirectPass, stream: &[Op], dir: &Path) -> Result<Metrics> {
    let tenant = busiest_tenant(stream);
    let mut services = pass.services;
    let every = services.every;
    let server = services
        .get(tenant)?
        .server_mut()
        .ok_or("no project server")?;
    let mut checkpoint_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        server.checkpoint().map_err(|e| e.to_string())?;
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let image = server.project_image();
    drop(services);
    let tenant_dir = dir.join(format!("t{tenant}"));
    let mut recover_ms = Vec::new();
    for _ in 0..3 {
        let mut fresh = ProjectServer::from_source(source).map_err(|e| e.to_string())?;
        let t = Instant::now();
        fresh
            .recover_journal(&tenant_dir, every)
            .map_err(|e| format!("recover {}: {e}", tenant_dir.display()))?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if fresh.project_image() != image {
            return Err("recovered image differs from the live one".into());
        }
    }
    Ok(vec![
        (
            "journal.checkpoint_ms".into(),
            Spread::of(&checkpoint_ms).median,
            "ms",
        ),
        (
            "journal.recover_ms".into(),
            Spread::of(&recover_ms).median,
            "ms",
        ),
    ])
}

fn busiest_tenant(stream: &[Op]) -> usize {
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for op in stream {
        *counts.entry(op.tenant).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(t, n)| (n, std::cmp::Reverse(t)))
        .map_or(0, |(t, _)| t)
}

/// `ClientSession::call` round trips through a spawned command loop.
fn session_pass(
    source: &str,
    setup: &[Op],
    stream: &[Op],
    every: u64,
    dir: &Path,
) -> Result<Metrics> {
    let mut services = Services::new(source, dir.to_path_buf(), every);
    services.replay(setup)?;
    let mut sessions: HashMap<usize, ClientSession> = HashMap::new();
    let mut loops = Vec::new();
    for (tenant, service) in services.by_tenant.drain() {
        let (handle, join) = spawn_project_loop(service);
        sessions.insert(tenant, handle.session());
        loops.push(join);
    }
    let mut by_class: [Vec<f64>; 3] = Default::default();
    for op in stream {
        let slot = match op.class {
            Class::Write => 0,
            Class::Process => 1,
            Class::Read => 2,
            Class::Attach => continue,
        };
        let session = sessions.get(&op.tenant).ok_or("tenant without a session")?;
        let request = decode(&op.line)?;
        let t = Instant::now();
        let response = session.call(request);
        by_class[slot].push(t.elapsed().as_secs_f64() * 1e6);
        check(op, &response.encode())?;
    }
    // The last session gone, each loop drains and returns.
    drop(sessions);
    for join in loops {
        join.join().map_err(|_| "a command loop panicked")?;
    }
    let [write, process, read] = by_class;
    Ok(vec![
        ("service.session_write_us".into(), p50(write), "us"),
        ("service.session_process_us".into(), p50(process), "us"),
        ("service.session_read_us".into(), p50(read), "us"),
    ])
}

/// The busiest tenant's stream journaled without checkpoints, its records
/// then fed through `ProjectServer::apply_replica_op` on a replica
/// bootstrapped from the pre-stream snapshot.
fn follower_pass(source: &str, setup: &[Op], stream: &[Op], dir: &Path) -> Result<Metrics> {
    let tenant = busiest_tenant(stream);
    let mine = |ops: &[Op]| -> Vec<Op> {
        ops.iter()
            .filter(|op| op.tenant == tenant)
            .cloned()
            .collect()
    };
    let mut services = Services::new(source, dir.to_path_buf(), u64::MAX);
    services.replay(&mine(setup))?;
    let service = services.get(tenant)?;
    service
        .server_mut()
        .ok_or("no project server")?
        .checkpoint()
        .map_err(|e| e.to_string())?;
    let tenant_dir = dir.join(format!("t{tenant}"));
    let snapshot = std::fs::read_to_string(tenant_dir.join("snapshot.ddb"))
        .map_err(|e| format!("snapshot: {e}"))?;
    services.replay(&mine(stream))?;
    let leader_image = services
        .get(tenant)?
        .server()
        .ok_or("no project server")?
        .project_image();
    let bytes = std::fs::read(tenant_dir.join("journal.djl")).map_err(|e| e.to_string())?;
    let records = journal::parse_journal(&bytes)
        .map_err(|e| format!("{e:?}"))?
        .ops;
    let mut replica = ProjectServer::from_source(source).map_err(|e| e.to_string())?;
    replica
        .adopt_replica_image(&snapshot)
        .map_err(|e| e.to_string())?;
    let mut tags = replica.replica_link_tags();
    let t = Instant::now();
    for op in &records {
        replica
            .apply_replica_op(op, &mut tags)
            .map_err(|e| format!("replica apply: {e}"))?;
    }
    let apply_us = t.elapsed().as_secs_f64() * 1e6;
    if replica.project_image() != leader_image {
        return Err("replica image differs from the leader's after apply".into());
    }
    let mutations = mine(stream)
        .iter()
        .filter(|op| matches!(op.class, Class::Write | Class::Process))
        .count();
    Ok(vec![
        (
            "follower.apply_us_per_record".into(),
            apply_us / records.len().max(1) as f64,
            "us",
        ),
        (
            "journal.records_per_write".into(),
            records.len() as f64 / mutations.max(1) as f64,
            "count",
        ),
    ])
}

/// `FleetSession::call` on a reopened fleet (every project cold), split by
/// whether the call activated a project. Single-project workloads run as
/// a one-tenant fleet.
fn fleet_pass(
    source: &str,
    every: u64,
    setup: &[Op],
    stream: &[Op],
    max_active: Option<usize>,
    root: &Path,
) -> Result<Metrics> {
    let config = || FleetConfig {
        max_active: max_active.unwrap_or(FleetConfig::default().max_active),
        checkpoint_every: every,
        ..FleetConfig::default()
    };
    let attach = |tenant: usize, create: bool| Request::Attach {
        project: format!("t{tenant}"),
        create,
    };
    let open = || -> Result<_> {
        let registry =
            ProjectRegistry::open(root, source, config()).map_err(|e| format!("{e:?}"))?;
        Ok(spawn_fleet::<NullExecutor>(registry))
    };
    let fleet_mode = max_active.is_some();
    {
        let (fleet, join) = open()?;
        let session = fleet.session();
        if !fleet_mode {
            session.call(attach(0, true));
        }
        for op in setup {
            let reply = session.call(decode(&op.line)?).encode();
            check(op, &reply)?;
        }
        drop(session);
        drop(fleet);
        join.join();
    }
    let (fleet, join) = open()?;
    let counters = fleet.counters();
    let mut sessions: HashMap<usize, _> = HashMap::new();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for op in stream {
        let session = sessions.entry(op.conn).or_insert_with(|| {
            let s = fleet.session();
            if !fleet_mode {
                s.call(attach(0, false));
            }
            s
        });
        let request = decode(&op.line)?;
        let before = counters.activations.load(Ordering::SeqCst);
        let t = Instant::now();
        let reply = session.call(request).encode();
        let took = t.elapsed().as_secs_f64();
        if counters.activations.load(Ordering::SeqCst) > before {
            cold.push(took * 1e3);
        } else {
            warm.push(took * 1e6);
        }
        check(op, &reply)?;
    }
    drop(sessions);
    drop(fleet);
    join.join();
    Ok(vec![
        ("fleet.cold_call_ms".into(), p50(cold), "ms"),
        ("fleet.warm_call_us".into(), p50(warm), "us"),
    ])
}
