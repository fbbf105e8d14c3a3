//! The project service: a [`ProjectServer`] behind the typed command
//! protocol, plus the session-based command loop that serializes many
//! concurrent clients onto the single engine and group-commits their
//! journal ops at batch boundaries.
//!
//! Three layers, innermost first:
//!
//! * [`ProjectService`] — a single-threaded interpreter: one
//!   [`Request`] in, one [`Response`] out. Owns the (optional, until
//!   `Init`) server and the named snapshot [`Configuration`]s, so every
//!   client surface shares the same semantics.
//! * [`spawn_project_loop`] — moves a service onto a dedicated thread
//!   behind an mpsc command queue. [`ProjectHandle::session`] hands out
//!   [`SessionId`]-tagged [`ClientSession`]s; their requests are drained
//!   in arrival order, **executed as a batch, journaled with one
//!   append+fsync, and only then replied to** — the group-commit point
//!   the ROADMAP asked for. A reply in hand means the effect is durable
//!   (when journaling is enabled), yet the fsync cost is amortized over
//!   every request queued when the batch formed.
//! * [`serve_listener`] — a minimal line-framed TCP front door: one
//!   request line in, one response line out, in the [`Request`] /
//!   [`Response`] text codec (raw §3.1 `postEvent` lines are accepted
//!   too), so external wrapper processes post events over the network
//!   exactly as the paper describes.
//!
//! # Crash semantics of the group-commit window
//!
//! While a batch executes, its journal ops buffer in memory; the on-disk
//! journal still ends at the previous batch boundary. A crash inside the
//! window therefore loses the whole un-acked batch and nothing else:
//! recovery replays a valid prefix that ends exactly at a batch boundary.
//! Clients that have not received a reply must treat their request as
//! not-happened — which is precisely what the reply-after-fsync ordering
//! guarantees.
//!
//! Scope: the guarantee covers **state mutations** (objects, properties,
//! links, payloads) **and accepted work**. A [`Request::Post`] ack means
//! the event was journaled as accepted (an `EventQueued` record hits the
//! disk before the reply goes out); recovery re-enqueues every accepted
//! event with no matching `EventDone`, and re-dispatches every journaled
//! tool invocation with no terminal record. Replay is at-least-once: an
//! event whose effects committed in the same batch as its `EventDone`
//! marker is never re-run, while a crash between batch boundaries
//! re-runs the event — safe, because posts are idempotent
//! last-writer-wins property updates in the paper's flows.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use damocles_meta::qlang::Query;
use damocles_meta::{
    dump, persist, Configuration, ConfigurationBuilder, EventMessage, SnapshotRule, Value,
};

use crate::engine::api::{
    ApiError, AuditCounters, NodeRole, Request, Response, ServerStat, SessionId, SnapshotInfo,
    SummaryRow, TraceMode, WorkLeftItem,
};
use crate::engine::error::EngineError;
use crate::engine::exec::{NullExecutor, ScriptExecutor};
use crate::engine::invoke::RetryPolicy;
use crate::engine::server::ProjectServer;
use crate::engine::tail::{TailCursor, TailEnded, TailHub};
use crate::engine::trace::TraceRecord;
use crate::lang::parser;

/// A [`ProjectServer`] (plus client-visible snapshot configurations)
/// driven entirely through [`Request`] / [`Response`] — the one
/// interpreter every front-end shares.
#[derive(Debug)]
pub struct ProjectService<E: ScriptExecutor = NullExecutor> {
    server: Option<ProjectServer<E>>,
    snapshots: BTreeMap<String, Configuration>,
    /// Group-commit mode, inherited by servers created via `Init`.
    group_commit: bool,
    /// Retry policies set so far, in application order (`None` = the
    /// default policy), re-applied to servers created via `Init` — like
    /// group-commit mode, a policy outlives the server it was set on.
    retry_policies: Vec<(Option<String>, RetryPolicy)>,
    /// The replication tail hub, shared across `Init` server swaps so a
    /// tailer's subscription survives by address (it observes a
    /// disable/enable cycle instead of dangling).
    tail: Arc<TailHub>,
}

impl Default for ProjectService<NullExecutor> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: ScriptExecutor + Default> ProjectService<E> {
    /// A service with no blueprint loaded yet (`Init` must come first).
    pub fn new() -> Self {
        ProjectService {
            server: None,
            snapshots: BTreeMap::new(),
            group_commit: false,
            retry_policies: Vec::new(),
            tail: Arc::new(TailHub::new()),
        }
    }

    /// A service wrapping an existing server. The server's tail hub is
    /// adopted by the service, so subscriptions opened before wrapping
    /// stay live.
    pub fn with_server(server: ProjectServer<E>) -> Self {
        let tail = server.tail_hub();
        let (default_policy, overrides) = server.retry_policies();
        let mut retry_policies = vec![(None, default_policy)];
        retry_policies.extend(overrides.into_iter().map(|(s, p)| (Some(s), p)));
        ProjectService {
            server: Some(server),
            snapshots: BTreeMap::new(),
            group_commit: false,
            retry_policies,
            tail,
        }
    }

    /// Sets a retry policy on the current server and on any server a
    /// later `Init` creates; `script: None` sets the default policy.
    pub fn set_retry_policy(&mut self, script: Option<&str>, policy: RetryPolicy) {
        self.retry_policies
            .push((script.map(str::to_string), policy));
        if let Some(server) = self.server.as_mut() {
            server.set_retry_policy(script, policy);
        }
    }

    /// How many detached tool invocations are in flight right now (zero
    /// without a server). The command loop polls this to decide whether
    /// to pump between client requests.
    pub fn invocations_in_flight(&self) -> usize {
        self.server
            .as_ref()
            .map_or(0, ProjectServer::invocations_in_flight)
    }

    /// The replication tail hub clients subscribe to (see
    /// [`crate::engine::tail`]). Stable across `Init` server swaps.
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }

    /// The server, if a blueprint has been loaded.
    pub fn server(&self) -> Option<&ProjectServer<E>> {
        self.server.as_ref()
    }

    /// Mutable server access (tests; prefer requests).
    pub fn server_mut(&mut self) -> Option<&mut ProjectServer<E>> {
        self.server.as_mut()
    }

    /// Enters or leaves group-commit mode (see
    /// [`ProjectServer::set_group_commit`]); the command loop turns this
    /// on and calls [`ProjectService::flush`] once per batch. Leaving the
    /// mode flushes.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] from the flush when leaving the mode.
    pub fn set_group_commit(&mut self, on: bool) -> Result<(), EngineError> {
        self.group_commit = on;
        match self.server.as_mut() {
            Some(s) => s.set_group_commit(on),
            None => Ok(()),
        }
    }

    /// Whether a server exists and has durability enabled.
    pub fn journaling(&self) -> bool {
        self.server.as_ref().is_some_and(|s| s.journal_enabled())
    }

    /// Takes (and clears) the server's journal-poison marker: `true` when
    /// a journal failure disabled durability since the last call (see
    /// [`ProjectServer::take_journal_poisoned`]). The command loop
    /// consumes this per group-commit window.
    pub fn take_journal_poisoned(&mut self) -> bool {
        self.server
            .as_mut()
            .is_some_and(ProjectServer::take_journal_poisoned)
    }

    /// Appends and fsyncs every journal op buffered since the last flush —
    /// the group-commit point. No-op without journaling.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on append/sync failures (durability is
    /// poisoned, exactly as for per-op syncs).
    pub fn flush(&mut self) -> Result<(), EngineError> {
        match self.server.as_mut() {
            Some(s) => s.flush_journal(),
            None => Ok(()),
        }
    }

    /// Executes one request. Never panics and never returns `Err` — every
    /// failure is a structured [`Response::Error`].
    ///
    /// Barrier requests ([`Request::is_barrier`]) flush the group-commit
    /// window first: they swap or re-base durable state and must see a
    /// journal that matches the database.
    pub fn call(&mut self, request: Request) -> Response {
        if request.is_barrier() {
            if let Err(e) = self.flush() {
                return Response::Error(e.into());
            }
        }
        match self.dispatch(request) {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        }
    }

    fn need(&mut self) -> Result<&mut ProjectServer<E>, ApiError> {
        self.server.as_mut().ok_or(ApiError::NoProject)
    }

    // By value so a large `Checkin` payload moves straight into the
    // workspace instead of being copied per request on the command
    // loop's hot path.
    fn dispatch(&mut self, request: Request) -> Result<Response, ApiError> {
        // The fencing choke point: a deposed server refuses every
        // mutation as stale-term so it can never dual-commit against the
        // reign that replaced it. Reads still answer (the node is a
        // perfectly good stale replica), and `Promote`/`Fence` pass
        // through — promotion under a higher term is how a fence lifts,
        // and a re-fence must report its own term comparison.
        if request.is_mutation()
            && !matches!(request, Request::Promote { .. } | Request::Fence { .. })
        {
            if let Some(server) = self.server.as_ref() {
                if let Some(fence) = server.fenced_by() {
                    return Err(ApiError::StaleTerm {
                        term: server.current_term(),
                        current: fence,
                    });
                }
            }
        }
        match request {
            Request::Init { source } => {
                let bp = parser::parse(&source).map_err(EngineError::Parse)?;
                let mut server = ProjectServer::with_executor(bp, E::default())?;
                let _ = server.set_group_commit(self.group_commit);
                for (script, policy) in &self.retry_policies {
                    server.set_retry_policy(script.as_deref(), *policy);
                }
                // The fresh server starts un-journaled: live tail
                // subscriptions observe the disable (and a later
                // re-enable bootstraps them against the new project).
                self.tail.publish_disable();
                let _ = server.set_tail_hub(Arc::clone(&self.tail));
                let name = server.blueprint().name.clone();
                self.server = Some(server);
                Ok(Response::Blueprint { name })
            }
            Request::Reinit { source } => {
                let server = self.need()?;
                server.reinit_from_source(&source)?;
                Ok(Response::Blueprint {
                    name: server.blueprint().name.clone(),
                })
            }
            Request::Checkin {
                block,
                view,
                user,
                payload,
            } => {
                let oid = self.need()?.checkin(&block, &view, &user, payload)?;
                Ok(Response::Created { oid })
            }
            Request::Checkout { block, view, user } => {
                self.need()?.checkout(&block, &view, &user)?;
                Ok(Response::Ok)
            }
            Request::CreateObject { oid } => {
                self.need()?.create_object(oid.clone())?;
                Ok(Response::Created { oid })
            }
            Request::Connect { from, to } => {
                self.need()?.connect_oids(&from, &to)?;
                Ok(Response::Ok)
            }
            Request::Post { message, user } => {
                self.need()?.post(&message, &user)?;
                Ok(Response::Ok)
            }
            Request::ProcessAll => {
                // The non-blocking drain: every queued event executes,
                // already-finished detached invocations are absorbed, but
                // the service never parks waiting on the worker pool —
                // that would wedge the command loop behind a slow tool.
                // Still-running invocations post back through later
                // pumps (the command loop issues them while idle).
                let report = self.need()?.process_round()?;
                Ok(report.into())
            }
            Request::RefreshLets => {
                let written = self.need()?.refresh_lets()?;
                Ok(Response::Refreshed { written })
            }
            Request::Query { terms } => {
                let query: Query = terms.parse().map_err(EngineError::Meta)?;
                let server = self.need()?;
                let mut oids = Vec::new();
                for id in query.run(server.db()) {
                    oids.push(server.db().oid(id).map_err(EngineError::Meta)?.clone());
                }
                Ok(Response::Hits { oids })
            }
            Request::Show { oid } => {
                let server = self.need()?;
                let id = server.resolve(&oid)?;
                let props: Vec<(String, Value)> = server
                    .db()
                    .props(id)
                    .map_err(EngineError::Meta)?
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.clone()))
                    .collect();
                Ok(Response::Props { oid, props })
            }
            Request::WorkLeft { oid, prop } => {
                let server = self.need()?;
                let id = server.resolve(&oid)?;
                let items = server
                    .query()
                    .work_remaining(id, &prop)
                    .map_err(EngineError::Meta)?
                    .into_iter()
                    .map(|item| WorkLeftItem {
                        oid: item.oid,
                        prop: item.blocking.0,
                        current: item.blocking.1,
                    })
                    .collect();
                Ok(Response::Work { target: oid, items })
            }
            Request::Summary { prop } => {
                let rows = self
                    .need()?
                    .query()
                    .summary(&prop)
                    .into_iter()
                    .map(|s| SummaryRow {
                        view: s.view,
                        total: s.total as u64,
                        satisfied: s.satisfied as u64,
                        untracked: s.untracked as u64,
                    })
                    .collect();
                Ok(Response::ViewSummary { rows })
            }
            Request::Snapshot { name, root } => {
                let server = self.need()?;
                let id = server.resolve(&root)?;
                let snap = ConfigurationBuilder::new(server.db())
                    .traverse(id, SnapshotRule::Closure)
                    .build(name.clone());
                let oids = snap.oid_count() as u64;
                self.snapshots.insert(name.clone(), snap);
                Ok(Response::Snapped { name, oids })
            }
            Request::ListSnapshots => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let entries = self
                    .snapshots
                    .iter()
                    .map(|(name, snap)| SnapshotInfo {
                        name: name.clone(),
                        oids: snap.oid_count() as u64,
                        links: snap.link_count() as u64,
                        dangling: snap.dangling(server.db()) as u64,
                    })
                    .collect();
                Ok(Response::SnapshotList { entries })
            }
            Request::Freeze { view } => {
                self.need()?.policy_mut().frozen_views.insert(view);
                Ok(Response::Ok)
            }
            Request::Thaw { view } => {
                self.need()?.policy_mut().frozen_views.remove(&view);
                Ok(Response::Ok)
            }
            Request::EnableJournal { dir, every } => {
                let epoch = self.need()?.enable_journal(&dir, every)?;
                Ok(Response::Epoch { epoch })
            }
            Request::Promote { dir, every, term } => {
                // On a service-level node (a leader, or a test harness)
                // there is no replica cursor to floor the epoch with; the
                // on-disk epoch sequence already advances monotonically.
                // A follower loop calls `promote_journal` itself with the
                // cursor-derived floor before delegating here.
                let epoch = self.need()?.promote_journal(&dir, every, 0, term)?;
                Ok(Response::Promoted { epoch, term })
            }
            Request::Fence { term } => {
                self.need()?.fence_term(term)?;
                Ok(Response::Ok)
            }
            Request::Checkpoint => {
                let epoch = self.need()?.checkpoint()?;
                Ok(Response::Epoch { epoch })
            }
            Request::Recover { dir, every } => {
                let report = self.need()?.recover_journal(&dir, every)?;
                Ok(Response::Recovered {
                    epoch: report.epoch,
                    snapshot_oids: report.snapshot_oids as u64,
                    replayed_ops: report.replayed_ops as u64,
                    torn_tail: report.torn_tail,
                    stale_journal: report.stale_journal,
                })
            }
            Request::SaveProject { path } => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let image = persist::save_project(server.db(), server.workspace());
                std::fs::write(&path, image).map_err(|e| ApiError::Io {
                    reason: format!("cannot write {path}: {e}"),
                })?;
                Ok(Response::Ok)
            }
            Request::LoadProject { path } => {
                let image = std::fs::read_to_string(&path).map_err(|e| ApiError::Io {
                    reason: format!("cannot read {path}: {e}"),
                })?;
                let (db, workspace) = persist::load_project(&image).map_err(EngineError::Meta)?;
                let oids = db.oid_count() as u64;
                let server = self.need()?;
                server.adopt_project(db, workspace);
                if server.journal_enabled() {
                    // The on-disk journal described the replaced project;
                    // fold immediately so the crash window closes here.
                    server.checkpoint()?;
                }
                Ok(Response::Loaded { oids })
            }
            Request::Dump => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                Ok(Response::Text {
                    text: dump::dump(server.db()),
                })
            }
            Request::Dot => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                Ok(Response::Text {
                    text: dump::to_dot(server.db(), "uptodate"),
                })
            }
            Request::Audit => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let s = server.audit().summary();
                Ok(Response::Audit {
                    counters: AuditCounters {
                        deliveries: s.deliveries,
                        assignments: s.assignments,
                        reevaluations: s.reevaluations,
                        scripts: s.scripts,
                        posts: s.posts,
                        propagations: s.propagations,
                        cycle_skips: s.cycle_skips,
                        depth_truncations: s.depth_truncations,
                        templates: s.templates,
                        invoke_retries: s.invoke_retries,
                        invoke_timeouts: s.invoke_timeouts,
                        invoke_exhaustions: s.invoke_exhaustions,
                    },
                })
            }
            Request::Stat => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let inv = server.invoke_stats();
                Ok(Response::Stat {
                    stat: ServerStat {
                        oids: server.db().oid_count() as u64,
                        links: server.db().link_count() as u64,
                        pending_events: server.pending_events() as u64,
                        journal_epoch: server.journal_epoch(),
                        journal_records: server.journal_records(),
                        wave_workers: 1,
                        pending_invocations: inv.pending,
                        running_invocations: inv.running,
                        retrying_invocations: inv.retrying,
                        failed_invocations: inv.failed,
                        cursor_epoch: server.journal_epoch().unwrap_or(0),
                        cursor_seq: server.journal_records().unwrap_or(0),
                        // Fleet gauges: a single-project service is not a
                        // fleet member; the fleet worker patches these four
                        // onto every `stat` reply it forwards.
                        active_projects: 0,
                        resident_projects: 0,
                        activations: 0,
                        evictions: 0,
                        term: server.current_term(),
                        // A service-level node serves mutations; the
                        // follower loop patches `Follower` onto replies
                        // it serves from a replica.
                        role: NodeRole::Leader,
                    },
                })
            }
            Request::SetWaveWorkers { .. } => Ok(Response::Ok),
            Request::SetRetryPolicy {
                script,
                max_retries,
                base_delay_ms,
                multiplier,
                timeout_ms,
            } => {
                let policy = RetryPolicy {
                    max_retries: max_retries.try_into().unwrap_or(u32::MAX),
                    base_delay: std::time::Duration::from_millis(base_delay_ms),
                    multiplier: multiplier.clamp(1, u64::from(u32::MAX)) as u32,
                    timeout: std::time::Duration::from_millis(timeout_ms),
                };
                self.set_retry_policy(script.as_deref(), policy);
                Ok(Response::Ok)
            }
            Request::PumpInvocations => {
                let report = self.need()?.process_round()?;
                Ok(report.into())
            }
            Request::Replay { epoch, seq } => {
                // Served from a scratch database read off the on-disk
                // journal files: the live image, queue and engine are
                // untouched (replay is a barrier only because it must see
                // a flushed journal).
                let (oids, image) = self.need()?.replay_at(epoch, seq)?;
                Ok(Response::Replayed {
                    epoch,
                    seq,
                    oids,
                    image,
                })
            }
            Request::Trace { mode } => {
                let server = self.need()?;
                match mode {
                    TraceMode::On => {
                        server.set_trace_retention(true);
                        Ok(Response::Ok)
                    }
                    TraceMode::Off => {
                        server.set_trace_retention(false);
                        Ok(Response::Ok)
                    }
                    TraceMode::Get => Ok(Response::Trace {
                        records: server
                            .take_trace()
                            .iter()
                            .map(TraceRecord::encode)
                            .collect(),
                    }),
                }
            }
            Request::TailFrom { .. } => {
                // The handshake half: report the committed stream
                // position. The record stream itself is transport-level —
                // the TCP front door switches the connection into tail
                // mode on a successful handshake (`serve_listener`).
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                match (server.journal_epoch(), server.journal_records()) {
                    (Some(epoch), Some(seq)) => Ok(Response::Tailing { epoch, seq }),
                    _ => Err(ApiError::Journal {
                        reason: "tail streaming requires journaling (enable a journal first)"
                            .to_string(),
                    }),
                }
            }
            // Fleet routing is the front door's job ([`fleet`]): by the
            // time an envelope reaches a project service it is already
            // pinned to one project, so these only arrive on
            // single-project nodes — where there is no fleet to attach to.
            Request::Attach { .. } | Request::ListProjects => Err(ApiError::NoFleet),
        }
    }
}

// ---------------------------------------------------------------------
// The command loop
// ---------------------------------------------------------------------

/// One queued command: the session it came from, the request, and where
/// the reply goes.
#[derive(Debug)]
pub struct Envelope {
    /// The submitting session.
    pub session: SessionId,
    /// The command.
    pub request: Request,
    reply: Sender<Response>,
}

impl Envelope {
    /// Builds an envelope for a hand-rolled command queue (tests,
    /// custom harnesses); [`ClientSession::submit`] is the normal path.
    pub fn new(session: SessionId, request: Request, reply: Sender<Response>) -> Self {
        Envelope {
            session,
            request,
            reply,
        }
    }

    /// Consumes the envelope, sending its reply — for loop
    /// implementations outside this module (the follower's read-only
    /// loop). A gone client is not an error.
    pub fn respond(self, response: Response) {
        let _ = self.reply.send(response);
    }

    /// Consumes the envelope, computing the reply from the **moved**
    /// request — so outside loops never clone a payload-heavy request
    /// just to answer it.
    pub fn respond_with(self, f: impl FnOnce(Request) -> Response) {
        let Envelope { request, reply, .. } = self;
        let _ = reply.send(f(request));
    }

    /// Splits the envelope into its parts — for routers (the fleet) that
    /// re-wrap the request before forwarding it to the serving loop.
    pub fn into_parts(self) -> (SessionId, Request, Sender<Response>) {
        (self.session, self.request, self.reply)
    }
}

/// A cloneable handle to a running command loop; every client surface
/// (shell adapter, TCP connection, test) opens sessions through it.
#[derive(Debug, Clone)]
pub struct ProjectHandle {
    tx: Sender<Envelope>,
    next_session: Arc<AtomicU64>,
    tail: Arc<TailHub>,
}

impl ProjectHandle {
    /// Opens a new tagged session.
    pub fn session(&self) -> ClientSession {
        ClientSession {
            id: SessionId(self.next_session.fetch_add(1, Ordering::Relaxed)),
            tx: self.tx.clone(),
        }
    }

    /// The loop's replication tail hub — what a `tailfrom` connection
    /// streams from.
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }
}

/// One client session at the command loop. Requests from all sessions are
/// serialized in arrival order; each session's own requests stay ordered.
#[derive(Debug, Clone)]
pub struct ClientSession {
    id: SessionId,
    tx: Sender<Envelope>,
}

impl ClientSession {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Submits a request without waiting; the returned receiver yields
    /// the response once the loop has executed **and journaled** it.
    /// Pipelining submissions is how one client fills a group-commit
    /// batch.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let (reply, rx) = unbounded();
        let gone = self
            .tx
            .send(Envelope {
                session: self.id,
                request,
                reply: reply.clone(),
            })
            .is_err();
        if gone {
            let _ = reply.send(Response::Error(loop_gone()));
        }
        rx
    }

    /// Submits a request and waits for its response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request)
            .recv()
            .unwrap_or_else(|| Response::Error(loop_gone()))
    }
}

pub(crate) fn loop_gone() -> ApiError {
    ApiError::Io {
        reason: "project command loop has shut down".to_string(),
    }
}

/// Ceiling of the adaptive group-commit window: under a sustained
/// burst, one journal append+fsync never covers more than this many
/// requests, bounding both reply latency and the batch a crash can
/// lose.
pub const MAX_GROUP_COMMIT_WINDOW: usize = 1024;

/// How often an otherwise-idle command loop wakes to absorb finished
/// detached tool invocations. Small enough that results flow back well
/// inside interactive latency; large enough not to busy-spin.
const INVOKE_PUMP: std::time::Duration = std::time::Duration::from_millis(25);

/// Spawns a service onto its own command-loop thread and returns the
/// handle clients connect through. The loop exits (flushing any pending
/// batch) when every handle and session is dropped.
///
/// The group-commit window is **adaptive**: each batch takes exactly
/// what is queued at formation time (bounded by
/// [`MAX_GROUP_COMMIT_WINDOW`]), so an idle connection pays one fsync of
/// latency per request while a burst amortizes one fsync across the
/// whole backlog — no tuning knob to set wrong.
pub fn spawn_project_loop<E>(
    service: ProjectService<E>,
) -> (ProjectHandle, std::thread::JoinHandle<()>)
where
    E: ScriptExecutor + Default + Send + 'static,
{
    let (tx, rx) = unbounded();
    let tail = service.tail_hub();
    let join = std::thread::spawn(move || run_command_loop(service, &rx));
    (
        ProjectHandle {
            tx,
            next_session: Arc::new(AtomicU64::new(1)),
            tail,
        },
        join,
    )
}

/// Takes one group-commit batch: `first` plus what is queued behind it
/// right now, up to [`MAX_GROUP_COMMIT_WINDOW`]. Latency under light load
/// is one request, and a burst costs one fsync per backlog.
pub(crate) fn form_batch<T>(first: T, rx: &Receiver<T>) -> Vec<T> {
    let window = rx.len().saturating_add(1).min(MAX_GROUP_COMMIT_WINDOW);
    let mut batch = Vec::with_capacity(window);
    batch.push(first);
    while batch.len() < window {
        match rx.try_recv() {
            Ok(next) => batch.push(next),
            Err(_) => break,
        }
    }
    batch
}

/// Flushes a group-commit window and returns the error its successful
/// mutations must answer instead of their replies, or `None` when the
/// window is durable. A flush failure is that error. So is a poisoning
/// the window's own requests triggered: an explicit marker, not inferred
/// from journaling-state deltas, which a legitimate `Init` swap would
/// trip. Either way none of the window's mutations reached stable
/// storage, and acking them would lie.
pub(crate) fn settle_window<E>(service: &mut ProjectService<E>) -> Option<ApiError>
where
    E: ScriptExecutor + Default,
{
    let flushed = service.flush();
    let poisoned = service.take_journal_poisoned();
    match flushed {
        Err(e) => Some(ApiError::from(e)),
        Ok(()) if poisoned => Some(ApiError::Journal {
            reason: "durability was disabled mid-batch; the batch is not on stable storage"
                .to_string(),
        }),
        Ok(()) => None,
    }
}

/// Sends a settled window's `(reply, mutating, response)`s, answering
/// `error` (see [`settle_window`]) in place of each successful mutation.
/// Read-only requests still answer, and so does a request that already
/// failed (frozen view, unknown OID): it wrote nothing the flush could
/// lose, and its own diagnostic is the useful one.
pub(crate) fn send_settled(
    replies: impl IntoIterator<Item = (Sender<Response>, bool, Response)>,
    error: Option<&ApiError>,
) {
    for (reply, mutating, resp) in replies {
        let resp = match error {
            Some(err) if mutating && !resp.is_error() => Response::Error(err.clone()),
            _ => resp,
        };
        let _ = reply.send(resp);
    }
}

/// The command loop body with the adaptive group-commit window (see
/// [`spawn_project_loop`]). Exposed for callers that want to run the
/// loop on a thread they own (the TCP binary, benches).
pub fn run_command_loop<E>(mut service: ProjectService<E>, rx: &Receiver<Envelope>)
where
    E: ScriptExecutor + Default,
{
    let _ = service.set_group_commit(true);
    // Executed-but-unacked requests of the current group-commit window.
    let mut pending: Vec<(Sender<Response>, bool, Response)> = Vec::new();
    // A stale poison marker from the service's pre-loop life was already
    // reported to whoever called it directly; don't charge it to the
    // first window.
    let _ = service.take_journal_poisoned();
    let settle = |service: &mut ProjectService<E>,
                  pending: &mut Vec<(Sender<Response>, bool, Response)>| {
        let error = settle_window(service);
        send_settled(pending.drain(..), error.as_ref());
    };
    loop {
        // Block for the next request — but while detached invocations
        // are in flight, wake periodically to absorb finished results so
        // they post back (and journal) between client commands instead
        // of waiting for the next request to arrive.
        let first = if service.invocations_in_flight() > 0 {
            match rx.recv_timeout(INVOKE_PUMP) {
                Ok(env) => env,
                Err(RecvTimeoutError::Timeout) => {
                    let _ = service.call(Request::PumpInvocations);
                    settle(&mut service, &mut pending);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Some(env) => env,
                None => break,
            }
        };
        for env in form_batch(first, rx) {
            let Envelope { request, reply, .. } = env;
            // A barrier re-bases durable state (checkpoint, recover,
            // load, …): settle the window before it runs so every reply
            // reflects exactly what its own fsync covered — a mid-batch
            // poisoning can then never be masked by a later trivial
            // flush.
            let barrier = request.is_barrier();
            if barrier && !pending.is_empty() {
                settle(&mut service, &mut pending);
            }
            let mutating = request.is_mutation();
            let resp = service.call(request);
            pending.push((reply, mutating, resp));
            // And settle straight after it: a barrier's effect is durable
            // by its own doing (snapshot written, file saved, server
            // swapped), so its reply must never share a flush window
            // with — and be downgraded by — later requests' failures.
            if barrier {
                settle(&mut service, &mut pending);
            }
        }
        settle(&mut service, &mut pending);
    }
    // Senders are gone; flush whatever the last batch left behind, and
    // end every tail subscription.
    let _ = service.set_group_commit(false);
    service.tail_hub().close();
}

// ---------------------------------------------------------------------
// The line-framed TCP front door
// ---------------------------------------------------------------------

/// Anything a network connection can submit decoded requests to: the
/// leader's [`ClientSession`] and the follower's
/// [`FollowerSession`](crate::engine::follower::FollowerSession) both
/// implement it, so [`serve_with`] front-doors either node kind.
pub trait RequestSink: Send + 'static {
    /// The session tag requests are submitted under.
    fn id(&self) -> SessionId;
    /// Submits a request; the receiver yields its response.
    fn submit(&self, request: Request) -> Receiver<Response>;
}

impl RequestSink for ClientSession {
    fn id(&self) -> SessionId {
        ClientSession::id(self)
    }

    fn submit(&self, request: Request) -> Receiver<Response> {
        ClientSession::submit(self, request)
    }
}

/// Serves the command protocol over a TCP listener, blocking forever:
/// each connection is one session; each text line is one [`Request`]
/// (raw §3.1 `postEvent …` lines are accepted as [`Request::Post`] from
/// user `net-<session>`), answered by exactly one [`Response`] line. A
/// successful `tailfrom` handshake switches the connection into tail
/// mode: frames from the loop's [`TailHub`] stream until the client
/// disconnects (see `PROTOCOL.md` §5).
///
/// Spawn it on its own thread; connections get a thread each (the engine
/// itself stays single-threaded behind the command queue, which is the
/// serialization point).
pub fn serve_listener(listener: TcpListener, handle: &ProjectHandle) -> std::io::Result<()> {
    let tail = handle.tail_hub();
    let handle = handle.clone();
    serve_with(listener, move || handle.session(), Some(tail))
}

/// The transport-generic accept loop behind [`serve_listener`]: `open`
/// mints one [`RequestSink`] per connection, and `tail` (when given)
/// enables tail-mode streaming for `tailfrom` handshakes. `accept`
/// failures — aborted handshakes, fd exhaustion under connection
/// bursts — are transient for a server that must outlive its clients:
/// they are reported to stderr and retried after a short back-off
/// instead of killing every live session.
pub fn serve_with<S: RequestSink>(
    listener: TcpListener,
    open: impl Fn() -> S,
    tail: Option<Arc<TailHub>>,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let session = open();
                let tail = tail.clone();
                std::thread::spawn(move || serve_connection(stream, &session, tail));
            }
            Err(e) => {
                eprintln!("damocles_server: accept failed (retrying): {e}");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// One connection's read-decode-execute-reply loop, switching into tail
/// streaming after a successful `tailfrom` handshake.
fn serve_connection<S: RequestSink>(stream: TcpStream, session: &S, tail: Option<Arc<TailHub>>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A second write handle for the tail-streaming phase, taken up front
    // while cloning is cheap and certain.
    let tail_half = stream.try_clone().ok();
    // Reader and writer run concurrently so a connection that pipelines
    // request lines fills group-commit batches instead of paying one
    // fsync per line; responses still come back strictly in line order
    // (the in-order queue of reply receivers is the sequencing).
    let (order_tx, order_rx) = unbounded::<Receiver<Response>>();
    let mut writer = stream;
    let write_thread = std::thread::spawn(move || {
        while let Some(reply) = order_rx.recv() {
            let response = reply.recv().unwrap_or_else(|| Response::Error(loop_gone()));
            if writer
                .write_all(format!("{}\n", response.encode()).as_bytes())
                .is_err()
            {
                break;
            }
        }
    });
    let mut tail_cursor: Option<TailCursor> = None;
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else {
            break;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let request = decode_net_line(trimmed, session.id());
        // The tail handshake runs through the loop like any request (so
        // its reply is ordered after earlier pipelined lines), but on
        // success this connection stops being a request/response channel.
        if let (Ok(Request::TailFrom { epoch, seq }), Some(_)) = (&request, &tail) {
            let (epoch, seq) = (*epoch, *seq);
            let response = session
                .submit(request.expect("matched Ok above"))
                .recv()
                .unwrap_or_else(|| Response::Error(loop_gone()));
            let accepted = matches!(response, Response::Tailing { .. });
            let (tx, rx) = unbounded();
            let _ = tx.send(response);
            if order_tx.send(rx).is_err() {
                break;
            }
            if accepted {
                tail_cursor = Some(TailCursor { epoch, seq });
                break;
            }
            continue;
        }
        let reply = match request {
            Ok(request) => session.submit(request),
            Err(e) => {
                let (tx, rx) = unbounded();
                let _ = tx.send(Response::Error(e));
                rx
            }
        };
        if order_tx.send(reply).is_err() {
            break;
        }
    }
    drop(order_tx);
    let _ = write_thread.join();
    if let (Some(mut cursor), Some(hub), Some(mut out)) = (tail_cursor, tail, tail_half) {
        stream_tail(&hub, &mut cursor, &mut out);
    }
}

/// Streams tail frames to one subscriber until its connection breaks or
/// the hub ends the stream. Runs on the connection's own thread — the
/// command loop is never blocked by a slow follower.
fn stream_tail(hub: &TailHub, cursor: &mut TailCursor, out: &mut TcpStream) {
    loop {
        match hub.next_frames(cursor, std::time::Duration::from_millis(500)) {
            Ok(frames) => {
                let mut buf = String::new();
                for frame in frames {
                    buf.push_str(&frame.encode());
                    buf.push('\n');
                }
                if out.write_all(buf.as_bytes()).is_err() {
                    return; // subscriber gone
                }
            }
            Err(ended) => {
                let reason = match ended {
                    TailEnded::Disabled => "journaling disabled on the leader; tail stream ends",
                    TailEnded::Closed => "leader shutting down; tail stream ends",
                };
                let line = Response::Error(ApiError::Journal {
                    reason: reason.to_string(),
                })
                .encode();
                let _ = out.write_all(format!("{line}\n").as_bytes());
                return;
            }
        }
    }
}

/// Decodes one network line: the request codec, with the paper's bare
/// `postEvent` wire line accepted as sugar for [`Request::Post`].
fn decode_net_line(line: &str, session: SessionId) -> Result<Request, ApiError> {
    if line.starts_with("postEvent") {
        let message = EventMessage::parse_wire(line)?;
        return Ok(Request::Post {
            message,
            user: format!("net-{}", session.0),
        });
    }
    Request::decode(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::Oid;

    const SIMPLE: &str = r#"
        blueprint demo
        view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
        endview
        view HDL_model endview
        view schematic
            link_from HDL_model move propagates outofdate type derived
        endview
        endblueprint
    "#;

    fn init_req() -> Request {
        Request::Init {
            source: SIMPLE.to_string(),
        }
    }

    fn checkin(block: &str, view: &str) -> Request {
        Request::Checkin {
            block: block.into(),
            view: view.into(),
            user: "yves".into(),
            payload: b"data".to_vec(),
        }
    }

    #[test]
    fn service_runs_the_quickstart_through_requests() {
        let mut svc: ProjectService = ProjectService::new();
        assert_eq!(
            svc.call(Request::ProcessAll),
            Response::Error(ApiError::NoProject)
        );
        assert!(matches!(
            svc.call(init_req()),
            Response::Blueprint { name } if name == "demo"
        ));
        let hdl = match svc.call(checkin("cpu", "HDL_model")) {
            Response::Created { oid } => oid,
            other => panic!("{other:?}"),
        };
        let sch = match svc.call(checkin("cpu", "schematic")) {
            Response::Created { oid } => oid,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            svc.call(Request::Connect {
                from: hdl.clone(),
                to: sch.clone()
            }),
            Response::Ok
        );
        assert!(matches!(
            svc.call(Request::ProcessAll),
            Response::Processed { events: 2, .. }
        ));
        // A second HDL version invalidates the derived schematic.
        svc.call(checkin("cpu", "HDL_model"));
        svc.call(Request::ProcessAll);
        match svc.call(Request::Show { oid: sch }) {
            Response::Props { props, .. } => {
                let up = props.iter().find(|(n, _)| n == "uptodate").unwrap();
                assert_eq!(up.1, Value::Bool(false));
            }
            other => panic!("{other:?}"),
        }
        match svc.call(Request::Stat) {
            Response::Stat { stat } => {
                assert_eq!(stat.oids, 3);
                assert_eq!(stat.pending_events, 0);
                assert_eq!(stat.journal_epoch, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_structured_not_strings() {
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        let resp = svc.call(Request::Show {
            oid: Oid::new("ghost", "v", 1),
        });
        assert_eq!(
            resp,
            Response::Error(ApiError::UnknownOid {
                oid: Oid::new("ghost", "v", 1)
            })
        );
        let resp = svc.call(Request::Init {
            source: "blueprint b view a endview view a endview endblueprint".into(),
        });
        assert!(
            matches!(resp, Response::Error(ApiError::InvalidBlueprint { .. })),
            "{resp:?}"
        );
    }

    #[test]
    fn command_loop_serializes_sessions_and_replies() {
        let mut svc: ProjectService = ProjectService::new();
        assert!(!svc.call(init_req()).is_error());
        let (handle, join) = spawn_project_loop(svc);
        let s1 = handle.session();
        let s2 = handle.session();
        assert_ne!(s1.id(), s2.id());
        // Two sessions race check-ins of different blocks; both succeed
        // and the engine sees them serialized.
        let t1 = {
            let s = s1.clone();
            std::thread::spawn(move || s.call(checkin("alpha", "HDL_model")))
        };
        let t2 = {
            let s = s2.clone();
            std::thread::spawn(move || s.call(checkin("beta", "HDL_model")))
        };
        assert!(matches!(t1.join().unwrap(), Response::Created { .. }));
        assert!(matches!(t2.join().unwrap(), Response::Created { .. }));
        assert!(matches!(
            s1.call(Request::ProcessAll),
            Response::Processed { events: 2, .. }
        ));
        drop((s1, s2, handle));
        join.join().unwrap();
    }

    #[test]
    fn group_commit_batches_journal_syncs() {
        let dir = std::env::temp_dir().join("damocles-svc-group-commit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        let (handle, join) = spawn_project_loop(svc);
        let session = handle.session();
        // Pipeline a burst so the loop can batch it.
        let pending: Vec<_> = (0..32)
            .map(|i| session.submit(checkin(&format!("blk{i}"), "HDL_model")))
            .collect();
        for rx in pending {
            assert!(matches!(rx.recv().unwrap(), Response::Created { .. }));
        }
        // Every op of the burst is on disk once the replies are in hand.
        let stat = session.call(Request::Stat);
        let records = match stat {
            Response::Stat { stat } => stat.journal_records.unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(records >= 32, "journaled {records} ops");
        drop((session, handle));
        join.join().unwrap();
        // The journal on disk replays cleanly into the same project.
        let mut svc2: ProjectService = ProjectService::new();
        svc2.call(init_req());
        let resp = svc2.call(Request::Recover {
            dir: dir.display().to_string(),
            every: 1_000_000,
        });
        assert!(matches!(resp, Response::Recovered { .. }), "{resp:?}");
        match svc2.call(Request::Stat) {
            Response::Stat { stat } => assert_eq!(stat.oids, 32),
            other => panic!("{other:?}"),
        }
    }

    /// A successful `Init` through a journaled loop legitimately swaps
    /// in a fresh (un-journaled) server; that state change must NOT be
    /// misread as durability poisoning (the marker is explicit, not a
    /// journaling-state delta).
    #[test]
    fn init_on_a_journaled_loop_is_not_poisoning() {
        let dir = std::env::temp_dir().join("damocles-svc-init-not-poison");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        let (handle, join) = spawn_project_loop(svc);
        let session = handle.session();
        assert!(matches!(
            session.call(checkin("pre", "HDL_model")),
            Response::Created { .. }
        ));
        // The re-init succeeds and is acked as such.
        match session.call(init_req()) {
            Response::Blueprint { name } => assert_eq!(name, "demo"),
            other => panic!("init misreported: {other:?}"),
        }
        // The fresh server runs un-journaled but healthy.
        assert!(matches!(
            session.call(checkin("post", "HDL_model")),
            Response::Created { .. }
        ));
        drop((session, handle));
        join.join().unwrap();
    }

    /// Durability poisoned mid-batch must not be masked by a trivially-Ok
    /// flush: the poisoning is reported on its own window, and mutations
    /// whose flush actually failed are errored, not acked. A request that
    /// executes in a LATER window (after the poisoning was already
    /// reported) acks normally — the server then runs un-journaled, loud
    /// once, exactly like the per-op path.
    #[test]
    fn poisoned_batch_does_not_ack_unflushed_mutations() {
        let dir = std::env::temp_dir().join("damocles-svc-poisoned-batch");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        // Doom the next checkpoint: the snapshot tmp file cannot be
        // created once the durability directory is gone (appends to the
        // already-open journal fd still succeed, which is exactly the
        // asymmetry that used to mask the poisoning).
        std::fs::remove_dir_all(&dir).unwrap();

        // Hand-rolled queue so all three land in ONE loop batch:
        // checkin A | checkpoint (doomed barrier) | checkin B.
        let (tx, rx) = unbounded();
        let replies: Vec<Receiver<Response>> = [
            checkin("alpha", "HDL_model"),
            Request::Checkpoint,
            checkin("beta", "HDL_model"),
        ]
        .into_iter()
        .map(|request| {
            let (reply, reply_rx) = unbounded();
            tx.send(Envelope::new(SessionId(1), request, reply))
                .unwrap();
            reply_rx
        })
        .collect();
        drop(tx);
        run_command_loop(svc, &rx);

        // A settled (flushed to the open journal fd) before the barrier.
        assert!(matches!(
            replies[0].recv().unwrap(),
            Response::Created { .. }
        ));
        // The checkpoint itself failed loudly — that reply IS the
        // poisoning report, settled on its own window.
        assert!(replies[1].recv().unwrap().is_error());
        // B ran in the next window, knowingly un-journaled: normal ack.
        assert!(matches!(
            replies[2].recv().unwrap(),
            Response::Created { .. }
        ));
    }

    /// When the window's own flush fails (here: the auto-checkpoint the
    /// flush triggers cannot write its snapshot), every mutation of that
    /// window is errored — none of them may be acked as durable.
    #[test]
    fn failed_window_flush_errors_every_mutation_of_the_window() {
        let dir = std::env::temp_dir().join("damocles-svc-failed-flush");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                // The first flush outgrows the near-empty snapshot: it folds.
                every: 1,
            }),
            Response::Epoch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();

        let (tx, rx) = unbounded();
        let replies: Vec<Receiver<Response>> =
            [checkin("alpha", "HDL_model"), checkin("beta", "HDL_model")]
                .into_iter()
                .map(|request| {
                    let (reply, reply_rx) = unbounded();
                    tx.send(Envelope::new(SessionId(1), request, reply))
                        .unwrap();
                    reply_rx
                })
                .collect();
        drop(tx);
        run_command_loop(svc, &rx);

        for reply in replies {
            match reply.recv().unwrap() {
                Response::Error(ApiError::Journal { .. }) => {}
                other => panic!("unflushed mutation was acked: {other:?}"),
            }
        }
    }
}
