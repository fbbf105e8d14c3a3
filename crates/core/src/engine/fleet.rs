//! The multi-project fleet: thousands of registered tenants served by a
//! bounded pool of engine workers behind one front door.
//!
//! One process = one [`ProjectServer`] was the story until now; a fleet
//! turns that into one process = one **root directory** of per-project
//! journal dirs. The moving parts, outermost first:
//!
//! * [`ProjectRegistry`] — owns the fleet root, the set of registered
//!   project names (one subdirectory each) and the shared
//!   [`BlueprintCache`], so every tenant on the same blueprint source
//!   shares a single [`CompiledBlueprint`] allocation.
//! * [`spawn_fleet`] — starts one **router** thread plus `N` **engine
//!   worker** threads. The router maps sessions to projects (the
//!   `project <name>` attach), pins each project to exactly one worker
//!   while it is resident, and LRU-evicts idle projects when more than
//!   `max_active` want to be in memory at once. Workers host the
//!   [`ProjectService`]s currently pinned to them and run the same
//!   group-commit batch loop as a single-project node.
//! * [`FleetSession`] — a [`RequestSink`], so the existing TCP front
//!   door ([`serve_with`](crate::engine::service::serve_with)) serves a
//!   fleet unchanged: one connection, one session, `project <name>`
//!   first, then the ordinary command protocol.
//!
//! # Pinning and the single-threaded-interpreter invariant
//!
//! A project is served by **at most one worker at a time**. The router
//! enforces this by construction: a cold project is pinned to a worker
//! before its first request is forwarded, stays pinned until an eviction
//! completes (the worker acknowledges with a `RouterMsg::Evicted` after
//! flushing), and requests arriving mid-eviction are
//! parked at the router and re-dispatched after the acknowledgement.
//! Inside a worker each service is exactly the single-threaded
//! interpreter of [`crate::engine::service`] — the fleet adds routing
//! around it, never concurrency inside it.
//!
//! # Eviction state machine
//!
//! A registered project is in one of three states at the router:
//!
//! ```text
//!           activate (pin to least-loaded worker)
//!   Cold ───────────────────────────────────────────▶ Resident
//!    ▲                                                   │
//!    │  Evicted ack (worker flushed)                     │ LRU victim
//!    └──────────────────────────── Evicting ◀────────────┘
//! ```
//!
//! Activation is lazy and goes through the journal: the worker builds a
//! service from the shared compiled blueprint and either recovers
//! `snapshot + journal` (warm disk state) or enables a fresh journal
//! (first activation). Eviction only flushes the group-commit buffer:
//! a cold project is `snapshot.ddb` + a durable journal tail with no
//! fold due (fewer than `checkpoint_every` records, or smaller than the
//! snapshot) — the same files a crash right after that flush would
//! leave. Recovery replays the tail and *continues* the journal in
//! place (same epoch, next sequence number, resumed link tags, record
//! count and byte length), so an LRU cycle writes nothing that is
//! already durable and a checkpoint happens only once the journal
//! outgrows both bounds. An
//! evict/reactivate cycle is byte-identical to a server that never
//! evicted (proven in `tests/fleet.rs`).
//!
//! # Failure modes
//!
//! A panic inside a request poisons **only that project**: the worker
//! catches it, drops the service without flushing (the group-commit
//! window is lost, exactly the crash contract), answers
//! [`ApiError::ProjectPoisoned`], and the next request re-activates the
//! project from its journal. Other projects resident on the same worker
//! are untouched. A worker *thread* death (send failure) unpins all its
//! projects; they re-activate elsewhere on demand.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::engine::api::{ApiError, ProjectEntry, Request, Response, SessionId};
use crate::engine::compile::CompiledBlueprint;
use crate::engine::exec::ScriptExecutor;
use crate::engine::server::{ProjectServer, SNAPSHOT_FILE};
use crate::engine::service::{
    form_batch, loop_gone, send_settled, settle_window, Envelope, ProjectService, RequestSink,
};
use crate::lang::ast::Blueprint;
use crate::lang::{parser, validate};

/// How often an otherwise-idle worker wakes to absorb finished detached
/// tool invocations (mirrors the single-project command loop).
const INVOKE_PUMP: std::time::Duration = std::time::Duration::from_millis(25);

// ---------------------------------------------------------------------
// Configuration and counters
// ---------------------------------------------------------------------

/// Fleet sizing knobs (`damocles_server --fleet <root> --engine-workers N
/// --max-active M`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Engine worker threads (each hosts the projects pinned to it).
    pub engine_workers: usize,
    /// Ceiling on simultaneously pinned (resident or evicting) projects;
    /// beyond it the least-recently-used resident is evicted.
    pub max_active: usize,
    /// `checkpoint_every` handed to each project's journal: the fewest
    /// records between folds (a fold also waits until the journal has
    /// grown by its snapshot's byte length).
    pub checkpoint_every: u64,
    /// Requests parked per project while it waits for a slot or an
    /// eviction to finish; past it the router answers
    /// [`ApiError::ProjectBusy`] instead of queueing (backpressure).
    pub park_limit: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            engine_workers: 4,
            max_active: 64,
            checkpoint_every: 1024,
            park_limit: 1024,
        }
    }
}

/// Fleet-wide gauges and lifetime counters, surfaced through `stat`
/// (`active_projects`, `resident_projects`, `activations`, `evictions`).
#[derive(Debug, Default)]
pub struct FleetCounters {
    /// Gauge: projects registered under the fleet root.
    pub registered: AtomicU64,
    /// Gauge: project services currently in memory across all workers.
    pub resident: AtomicU64,
    /// Lifetime cold→resident transitions (journal recoveries + first
    /// activations).
    pub activations: AtomicU64,
    /// Lifetime resident→cold transitions, including panic poisonings.
    pub evictions: AtomicU64,
}

// ---------------------------------------------------------------------
// The blueprint cache
// ---------------------------------------------------------------------

/// FNV-1a 64-bit over the blueprint source — the cache's content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug, Clone)]
struct CachedBlueprint {
    /// The exact source text — compared on every lookup so a hash
    /// collision degrades to a recompile, never to the wrong blueprint.
    source: String,
    blueprint: Arc<Blueprint>,
    compiled: Arc<CompiledBlueprint>,
}

/// Content-hash cache of validated, compiled blueprints: tenants loading
/// the same source share one [`CompiledBlueprint`] allocation (they are
/// immutable per generation, so sharing is free).
#[derive(Debug, Default)]
pub struct BlueprintCache {
    entries: Mutex<HashMap<u64, Vec<CachedBlueprint>>>,
    hits: AtomicU64,
}

impl BlueprintCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses, validates and compiles `source` — or returns the shared
    /// handles from an earlier call with byte-identical source.
    ///
    /// # Errors
    ///
    /// [`ApiError::BlueprintSyntax`] on parse errors,
    /// [`ApiError::InvalidBlueprint`] when validation finds errors.
    #[allow(clippy::missing_panics_doc)] // mutex poisoning only
    pub fn get_or_compile(
        &self,
        source: &str,
    ) -> Result<(Arc<Blueprint>, Arc<CompiledBlueprint>), ApiError> {
        let hash = fnv1a(source.as_bytes());
        let mut entries = self.entries.lock().expect("blueprint cache poisoned");
        if let Some(bucket) = entries.get(&hash) {
            if let Some(hit) = bucket.iter().find(|c| c.source == source) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&hit.blueprint), Arc::clone(&hit.compiled)));
            }
        }
        let blueprint = parser::parse(source).map_err(|e| ApiError::BlueprintSyntax {
            message: e.to_string(),
        })?;
        validate::check(&blueprint).map_err(|issues| ApiError::InvalidBlueprint {
            issues: issues.iter().map(ToString::to_string).collect(),
        })?;
        let compiled = Arc::new(CompiledBlueprint::compile(&blueprint));
        let blueprint = Arc::new(blueprint);
        entries.entry(hash).or_default().push(CachedBlueprint {
            source: source.to_string(),
            blueprint: Arc::clone(&blueprint),
            compiled: Arc::clone(&compiled),
        });
        Ok((blueprint, compiled))
    }

    /// Lookups answered from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct blueprints cached.
    #[allow(clippy::missing_panics_doc)] // mutex poisoning only
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("blueprint cache poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// Validates a project name as a single safe path component under the
/// fleet root.
fn check_name(name: &str) -> Result<(), ApiError> {
    let bad = |detail: String| ApiError::Policy { detail };
    if name.is_empty() || name.len() > 128 {
        return Err(bad(format!(
            "project name must be 1..=128 bytes, got {}",
            name.len()
        )));
    }
    if name == "." || name == ".." {
        return Err(bad(format!("project name `{name}` is reserved")));
    }
    if name
        .chars()
        .any(|c| c == '/' || c == '\\' || c == '\0' || c.is_control())
    {
        return Err(bad(format!(
            "project name `{name}` may not contain path separators or control characters"
        )));
    }
    Ok(())
}

/// The fleet root: a directory of per-project journal dirs, the set of
/// registered project names, and the blueprint every tenant runs
/// (shared through a [`BlueprintCache`]).
#[derive(Debug)]
pub struct ProjectRegistry {
    root: PathBuf,
    config: FleetConfig,
    blueprint: Arc<Blueprint>,
    compiled: Arc<CompiledBlueprint>,
    cache: Arc<BlueprintCache>,
    registered: BTreeSet<String>,
}

impl ProjectRegistry {
    /// Opens (creating if needed) a fleet root, compiling `source`
    /// through a fresh [`BlueprintCache`], and adopts every existing
    /// subdirectory as a registered project.
    ///
    /// # Errors
    ///
    /// Blueprint parse/validation errors, or [`ApiError::Io`] when the
    /// root cannot be created or scanned.
    pub fn open(
        root: impl Into<PathBuf>,
        source: &str,
        config: FleetConfig,
    ) -> Result<Self, ApiError> {
        Self::open_with_cache(root, source, config, Arc::new(BlueprintCache::new()))
    }

    /// [`ProjectRegistry::open`] with a caller-supplied cache — so
    /// several fleets (or a fleet and a harness) share compilations.
    ///
    /// # Errors
    ///
    /// As [`ProjectRegistry::open`].
    pub fn open_with_cache(
        root: impl Into<PathBuf>,
        source: &str,
        config: FleetConfig,
        cache: Arc<BlueprintCache>,
    ) -> Result<Self, ApiError> {
        let root = root.into();
        let (blueprint, compiled) = cache.get_or_compile(source)?;
        std::fs::create_dir_all(&root).map_err(|e| ApiError::Io {
            reason: format!("cannot create fleet root {}: {e}", root.display()),
        })?;
        let mut registered = BTreeSet::new();
        let scan = std::fs::read_dir(&root).map_err(|e| ApiError::Io {
            reason: format!("cannot scan fleet root {}: {e}", root.display()),
        })?;
        for entry in scan {
            let entry = entry.map_err(|e| ApiError::Io {
                reason: format!("cannot scan fleet root {}: {e}", root.display()),
            })?;
            if !entry.path().is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if check_name(name).is_ok() {
                    registered.insert(name.to_string());
                }
            }
        }
        Ok(ProjectRegistry {
            root,
            config,
            blueprint,
            compiled,
            cache,
            registered,
        })
    }

    /// Registers a project (creating its journal directory); returns
    /// `false` when it already existed.
    ///
    /// # Errors
    ///
    /// [`ApiError::Policy`] for an invalid name, [`ApiError::Io`] when
    /// the directory cannot be created.
    pub fn register(&mut self, name: &str) -> Result<bool, ApiError> {
        check_name(name)?;
        if self.registered.contains(name) {
            return Ok(false);
        }
        std::fs::create_dir_all(self.root.join(name)).map_err(|e| ApiError::Io {
            reason: format!("cannot create project dir for `{name}`: {e}"),
        })?;
        self.registered.insert(name.to_string());
        Ok(true)
    }

    /// The fleet root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The sizing knobs.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Registered project names, sorted.
    pub fn projects(&self) -> impl Iterator<Item = &str> {
        self.registered.iter().map(String::as_str)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.registered.contains(name)
    }

    /// The blueprint cache compilations go through.
    pub fn blueprint_cache(&self) -> Arc<BlueprintCache> {
        Arc::clone(&self.cache)
    }

    /// The shared compiled blueprint every tenant runs.
    pub fn compiled(&self) -> Arc<CompiledBlueprint> {
        Arc::clone(&self.compiled)
    }
}

// ---------------------------------------------------------------------
// Fleet wiring: messages, shared state, handles
// ---------------------------------------------------------------------

/// Everything a worker needs to activate a project on demand.
#[derive(Debug)]
struct FleetShared {
    root: PathBuf,
    config: FleetConfig,
    blueprint: Arc<Blueprint>,
    compiled: Arc<CompiledBlueprint>,
    counters: Arc<FleetCounters>,
}

/// Router inbox.
#[derive(Debug)]
enum RouterMsg {
    /// A client request (attach, list, or a routable project command).
    Client(Envelope),
    /// A worker finished evicting `project` (flushed).
    Evicted { project: String },
    /// The last [`FleetHandle`]/[`FleetSession`] was dropped.
    Shutdown,
}

/// Worker inbox.
#[derive(Debug)]
enum WorkerMsg {
    /// Execute one request against `project` (activating it if cold).
    Execute { project: String, env: Envelope },
    /// Flush `project`, drop it, and acknowledge with
    /// [`RouterMsg::Evicted`].
    Evict { project: String },
}

/// Shared by every handle and session; dropping the last one tells the
/// router to shut the fleet down (workers then drain and exit on channel
/// disconnect).
#[derive(Debug)]
struct HandleInner {
    tx: Sender<RouterMsg>,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        let _ = self.tx.send(RouterMsg::Shutdown);
    }
}

/// A cloneable handle to a running fleet; client surfaces open sessions
/// through it exactly as [`ProjectHandle`](crate::engine::service::ProjectHandle)
/// does for a single project.
#[derive(Debug, Clone)]
pub struct FleetHandle {
    inner: Arc<HandleInner>,
    next_session: Arc<AtomicU64>,
    counters: Arc<FleetCounters>,
}

impl FleetHandle {
    /// Opens a new tagged session (attach a project before routing
    /// commands through it).
    pub fn session(&self) -> FleetSession {
        FleetSession {
            id: SessionId(self.next_session.fetch_add(1, Ordering::Relaxed)),
            inner: Arc::clone(&self.inner),
        }
    }

    /// The fleet's counters (shared with every worker).
    pub fn counters(&self) -> Arc<FleetCounters> {
        Arc::clone(&self.counters)
    }
}

/// One client session at the fleet router. Attach with
/// [`Request::Attach`] (`project <name>`), then use the ordinary command
/// protocol; requests of all sessions attached to one project serialize
/// through that project's worker pin.
#[derive(Debug, Clone)]
pub struct FleetSession {
    id: SessionId,
    inner: Arc<HandleInner>,
}

impl FleetSession {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Submits a request without waiting; the receiver yields the
    /// response once the serving worker has executed and journaled it.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let (reply, rx) = unbounded();
        let env = Envelope::new(self.id, request, reply.clone());
        if self.inner.tx.send(RouterMsg::Client(env)).is_err() {
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

impl RequestSink for FleetSession {
    fn id(&self) -> SessionId {
        FleetSession::id(self)
    }

    fn submit(&self, request: Request) -> Receiver<Response> {
        FleetSession::submit(self, request)
    }
}

/// Join handles for a fleet's threads; [`FleetJoin::join`] after
/// dropping every [`FleetHandle`] and [`FleetSession`].
#[derive(Debug)]
pub struct FleetJoin {
    router: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FleetJoin {
    /// Waits for the router and every worker to exit (each worker
    /// flushes its resident projects on the way out).
    pub fn join(self) {
        let _ = self.router.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Spawns the fleet: one router thread plus
/// [`FleetConfig::engine_workers`] engine worker threads serving the
/// registry's projects.
pub fn spawn_fleet<E>(registry: ProjectRegistry) -> (FleetHandle, FleetJoin)
where
    E: ScriptExecutor + Default + Send + 'static,
{
    let ProjectRegistry {
        root,
        config,
        blueprint,
        compiled,
        registered,
        ..
    } = registry;
    let counters = Arc::new(FleetCounters::default());
    counters
        .registered
        .store(registered.len() as u64, Ordering::Relaxed);
    let shared = Arc::new(FleetShared {
        root,
        config: config.clone(),
        blueprint,
        compiled,
        counters: Arc::clone(&counters),
    });
    let (router_tx, router_rx) = unbounded();
    let n_workers = config.engine_workers.max(1);
    let mut worker_txs = Vec::with_capacity(n_workers);
    let mut workers = Vec::with_capacity(n_workers);
    for w in 0..n_workers {
        let (tx, rx) = unbounded();
        let shared = Arc::clone(&shared);
        let router = router_tx.clone();
        let join = std::thread::Builder::new()
            .name(format!("fleet-worker-{w}"))
            .spawn(move || run_worker::<E>(&rx, &router, &shared))
            .expect("spawn fleet worker");
        worker_txs.push(Some(tx));
        workers.push(join);
    }
    let router_shared = Arc::clone(&shared);
    let router = std::thread::Builder::new()
        .name("fleet-router".to_string())
        .spawn(move || {
            Router::new(worker_txs, registered, router_shared).run(&router_rx);
        })
        .expect("spawn fleet router");
    (
        FleetHandle {
            inner: Arc::new(HandleInner { tx: router_tx }),
            next_session: Arc::new(AtomicU64::new(1)),
            counters,
        },
        FleetJoin { router, workers },
    )
}

// ---------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------

/// Where a pinned project is in its life cycle (absent = cold).
#[derive(Debug)]
enum ProjState {
    /// Pinned to `worker`; `last_used` is the LRU stamp.
    Resident { worker: usize, last_used: u64 },
    /// An eviction is in flight on `worker`; requests park until the
    /// [`RouterMsg::Evicted`] acknowledgement frees the slot.
    Evicting { worker: usize },
}

struct Router {
    /// Worker inboxes; `None` marks a dead worker thread.
    workers: Vec<Option<Sender<WorkerMsg>>>,
    /// Pinned projects per worker (for least-loaded placement).
    worker_load: Vec<usize>,
    registered: BTreeSet<String>,
    /// Pinned projects (resident or evicting); `len()` is the count the
    /// `max_active` ceiling applies to.
    state: HashMap<String, ProjState>,
    /// Which project each session attached to.
    attachments: HashMap<SessionId, String>,
    /// Requests waiting for their project's slot, per project.
    parked: HashMap<String, VecDeque<Envelope>>,
    /// Projects with parked requests, in arrival order, waiting for a
    /// free slot.
    waiting: VecDeque<String>,
    /// LRU clock (bumped per routed request).
    clock: u64,
    shared: Arc<FleetShared>,
}

impl Router {
    fn new(
        workers: Vec<Option<Sender<WorkerMsg>>>,
        registered: BTreeSet<String>,
        shared: Arc<FleetShared>,
    ) -> Self {
        let worker_load = vec![0; workers.len()];
        Router {
            workers,
            worker_load,
            registered,
            state: HashMap::new(),
            attachments: HashMap::new(),
            parked: HashMap::new(),
            waiting: VecDeque::new(),
            clock: 0,
            shared,
        }
    }

    fn run(mut self, rx: &Receiver<RouterMsg>) {
        loop {
            match rx.recv() {
                Some(RouterMsg::Client(env)) => self.route(env),
                Some(RouterMsg::Evicted { project }) => self.on_evicted(&project),
                Some(RouterMsg::Shutdown) | None => break,
            }
        }
        // Parked requests will never run: say so instead of hanging the
        // client. Dropping the worker senders (with `self`) disconnects
        // the workers, which flush their residents and exit.
        for (_, queue) in self.parked.drain() {
            for env in queue {
                env.respond(Response::Error(loop_gone()));
            }
        }
    }

    fn route(&mut self, env: Envelope) {
        match &env.request {
            Request::Attach { .. } => {
                let (session, request, reply) = env.into_parts();
                let (project, create) = match request {
                    Request::Attach { project, create } => (project, create),
                    _ => unreachable!("matched Attach above"),
                };
                match self.attach(&project, create) {
                    Ok(created) => {
                        self.attachments.insert(session, project.clone());
                        let _ = reply.send(Response::Attached { project, created });
                    }
                    Err(e) => {
                        let _ = reply.send(Response::Error(e));
                    }
                }
            }
            Request::ListProjects => {
                let entries = self
                    .registered
                    .iter()
                    .map(|name| ProjectEntry {
                        name: name.clone(),
                        active: matches!(self.state.get(name), Some(ProjState::Resident { .. })),
                    })
                    .collect();
                env.respond(Response::Projects { entries });
            }
            Request::TailFrom { .. } => {
                // Tail streaming switches the *transport* into a record
                // stream — a per-project concern the multiplexing front
                // door cannot honor. Follow a project's journal dir
                // directly instead.
                env.respond(Response::Error(ApiError::Journal {
                    reason: "tail streaming is not available through a fleet front door; \
                             run a follower on the project's journal directory instead"
                        .to_string(),
                }));
            }
            _ => match self.attachments.get(&env.session).cloned() {
                Some(project) => self.dispatch(&project, env),
                None => env.respond(Response::Error(ApiError::NotAttached)),
            },
        }
    }

    fn attach(&mut self, project: &str, create: bool) -> Result<bool, ApiError> {
        check_name(project)?;
        if self.registered.contains(project) {
            return Ok(false);
        }
        if !create {
            return Err(ApiError::NoSuchProject {
                project: project.to_string(),
            });
        }
        std::fs::create_dir_all(self.shared.root.join(project)).map_err(|e| ApiError::Io {
            reason: format!("cannot create project dir for `{project}`: {e}"),
        })?;
        self.registered.insert(project.to_string());
        self.shared
            .counters
            .registered
            .store(self.registered.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    fn dispatch(&mut self, project: &str, env: Envelope) {
        self.clock += 1;
        match self.state.get_mut(project) {
            Some(ProjState::Resident { worker, last_used }) => {
                *last_used = self.clock;
                let worker = *worker;
                self.forward(worker, project, env);
            }
            Some(ProjState::Evicting { .. }) => self.park(project, env),
            None => {
                if self.state.len() < self.shared.config.max_active {
                    match self.pin(project) {
                        Some(worker) => self.forward(worker, project, env),
                        None => env.respond(Response::Error(no_workers())),
                    }
                } else {
                    self.park(project, env);
                    self.ensure_evictions();
                }
            }
        }
    }

    /// Pins a cold project to the least-loaded live worker.
    fn pin(&mut self, project: &str) -> Option<usize> {
        let worker = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, tx)| tx.is_some())
            .map(|(w, _)| w)
            .min_by_key(|&w| self.worker_load[w])?;
        self.clock += 1;
        self.state.insert(
            project.to_string(),
            ProjState::Resident {
                worker,
                last_used: self.clock,
            },
        );
        self.worker_load[worker] += 1;
        Some(worker)
    }

    fn forward(&mut self, worker: usize, project: &str, env: Envelope) {
        let sent = match self.workers[worker].as_ref() {
            Some(tx) => tx
                .send(WorkerMsg::Execute {
                    project: project.to_string(),
                    env,
                })
                .map_err(|e| match e.0 {
                    WorkerMsg::Execute { env, .. } => env,
                    WorkerMsg::Evict { .. } => unreachable!("sent an Execute"),
                }),
            None => unreachable!("forward targets come from live pins"),
        };
        if let Err(env) = sent {
            // The worker thread died mid-send: unpin everything it held
            // and re-dispatch (the projects re-activate from their
            // journals on other workers).
            self.worker_gone(worker);
            self.dispatch(project, env);
        }
    }

    fn park(&mut self, project: &str, env: Envelope) {
        let queue = self.parked.entry(project.to_string()).or_default();
        if queue.len() >= self.shared.config.park_limit {
            env.respond(Response::Error(ApiError::ProjectBusy {
                project: project.to_string(),
            }));
            return;
        }
        let first = queue.is_empty();
        queue.push_back(env);
        // A cold project parks only while waiting for a slot; an
        // evicting one joins the waiting list when its ack arrives.
        if first && !self.state.contains_key(project) {
            self.enqueue_waiting(project);
        }
    }

    fn enqueue_waiting(&mut self, project: &str) {
        if !self.waiting.iter().any(|p| p == project) {
            self.waiting.push_back(project.to_string());
        }
    }

    /// Starts enough LRU evictions to eventually free a slot for every
    /// waiting project.
    fn ensure_evictions(&mut self) {
        let evicting = self
            .state
            .values()
            .filter(|s| matches!(s, ProjState::Evicting { .. }))
            .count();
        let needed = self.waiting.len().saturating_sub(evicting);
        for _ in 0..needed {
            if !self.begin_eviction() {
                break;
            }
        }
    }

    /// Asks the worker holding the least-recently-used resident project
    /// to evict it. Returns `false` when no resident victim exists.
    fn begin_eviction(&mut self) -> bool {
        let victim = self
            .state
            .iter()
            .filter_map(|(p, s)| match s {
                ProjState::Resident { worker, last_used } => Some((p.clone(), *worker, *last_used)),
                ProjState::Evicting { .. } => None,
            })
            .min_by_key(|&(_, _, last_used)| last_used);
        let Some((project, worker, _)) = victim else {
            return false;
        };
        match self.workers[worker].as_ref() {
            Some(tx) => {
                if tx
                    .send(WorkerMsg::Evict {
                        project: project.clone(),
                    })
                    .is_ok()
                {
                    self.state.insert(project, ProjState::Evicting { worker });
                    true
                } else {
                    self.worker_gone(worker);
                    // The dead worker freed its slots; the waiting list
                    // drains through `worker_gone`.
                    true
                }
            }
            None => unreachable!("resident pins only point at live workers"),
        }
    }

    fn on_evicted(&mut self, project: &str) {
        if let Some(state) = self.state.remove(project) {
            let worker = match state {
                ProjState::Resident { worker, .. } | ProjState::Evicting { worker } => worker,
            };
            self.worker_load[worker] = self.worker_load[worker].saturating_sub(1);
        }
        if self.parked.get(project).is_some_and(|q| !q.is_empty()) {
            self.enqueue_waiting(project);
        }
        self.drain_waiting();
    }

    /// Activates waiting projects while slots are free, forwarding their
    /// parked requests; restarts evictions if demand remains.
    fn drain_waiting(&mut self) {
        while self.state.len() < self.shared.config.max_active {
            let Some(project) = self.waiting.pop_front() else {
                break;
            };
            if self.state.contains_key(&project) {
                continue;
            }
            let queue = self.parked.remove(&project).unwrap_or_default();
            if queue.is_empty() {
                continue;
            }
            match self.pin(&project) {
                Some(worker) => {
                    for env in queue {
                        self.forward(worker, &project, env);
                    }
                }
                None => {
                    for env in queue {
                        env.respond(Response::Error(no_workers()));
                    }
                }
            }
        }
        self.ensure_evictions();
    }

    /// A worker thread died: unpin every project it held (their
    /// unflushed windows are lost — the journal has the flushed prefix)
    /// and let them re-activate elsewhere on demand.
    fn worker_gone(&mut self, worker: usize) {
        self.workers[worker] = None;
        self.worker_load[worker] = 0;
        let orphans: Vec<String> = self
            .state
            .iter()
            .filter_map(|(p, s)| match s {
                ProjState::Resident { worker: w, .. } | ProjState::Evicting { worker: w } => {
                    (*w == worker).then(|| p.clone())
                }
            })
            .collect();
        for project in orphans {
            self.state.remove(&project);
            if self.parked.get(&project).is_some_and(|q| !q.is_empty()) {
                self.enqueue_waiting(&project);
            }
        }
        self.drain_waiting();
    }
}

fn no_workers() -> ApiError {
    ApiError::Io {
        reason: "the fleet has no live engine workers".to_string(),
    }
}

// ---------------------------------------------------------------------
// The engine worker
// ---------------------------------------------------------------------

/// An executed-but-unacked reply of the current group-commit batch.
type PendingReply = (String, Sender<Response>, bool, Response);

/// Requests a fleet worker refuses: they re-point a project's durability
/// or swap its blueprint, which are fleet-root decisions (the journal
/// dir layout and the shared compiled blueprint would silently diverge).
fn fleet_forbidden(request: &Request) -> bool {
    matches!(
        request,
        Request::Init { .. }
            | Request::Reinit { .. }
            | Request::EnableJournal { .. }
            | Request::Recover { .. }
            | Request::LoadProject { .. }
    )
}

fn run_worker<E>(rx: &Receiver<WorkerMsg>, router: &Sender<RouterMsg>, shared: &Arc<FleetShared>)
where
    E: ScriptExecutor + Default,
{
    let mut resident: HashMap<String, ProjectService<E>> = HashMap::new();
    let mut pending: Vec<PendingReply> = Vec::new();
    let mut touched: BTreeSet<String> = BTreeSet::new();
    loop {
        // Block for the next message — but while any resident project
        // has detached invocations in flight, wake periodically to pump
        // results back in (and flush what they journaled).
        let in_flight = resident.values().any(|s| s.invocations_in_flight() > 0);
        let first = if in_flight {
            match rx.recv_timeout(INVOKE_PUMP) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    for svc in resident.values_mut() {
                        if svc.invocations_in_flight() > 0 {
                            let _ = svc.call(Request::PumpInvocations);
                            let _ = settle_window(svc);
                        }
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Some(msg) => msg,
                None => break,
            }
        };
        for msg in form_batch(first, rx) {
            match msg {
                WorkerMsg::Execute { project, env } => {
                    execute(
                        &mut resident,
                        &mut pending,
                        &mut touched,
                        shared,
                        &project,
                        env,
                    );
                }
                WorkerMsg::Evict { project } => {
                    settle_project(&mut resident, &mut pending, &project);
                    touched.remove(&project);
                    if let Some(svc) = resident.remove(&project) {
                        retire(svc, shared);
                    }
                    // Always acknowledge — a poisoned (already dropped)
                    // project still frees its router slot.
                    let _ = router.send(RouterMsg::Evicted { project });
                }
            }
        }
        for project in std::mem::take(&mut touched) {
            settle_project(&mut resident, &mut pending, &project);
        }
        debug_assert!(pending.is_empty());
    }
    // Channel disconnected (fleet shutdown): flush every resident
    // project on the way out.
    for project in std::mem::take(&mut touched) {
        settle_project(&mut resident, &mut pending, &project);
    }
    for (_, svc) in resident.drain() {
        retire(svc, shared);
    }
}

/// Executes one routed request, activating the project if it is not in
/// memory (the lazy half of the LRU cycle).
fn execute<E>(
    resident: &mut HashMap<String, ProjectService<E>>,
    pending: &mut Vec<PendingReply>,
    touched: &mut BTreeSet<String>,
    shared: &Arc<FleetShared>,
    project: &str,
    env: Envelope,
) where
    E: ScriptExecutor + Default,
{
    let (_, request, reply) = env.into_parts();
    if fleet_forbidden(&request) {
        let _ = reply.send(Response::Error(ApiError::Policy {
            detail: format!(
                "`{}` is a fleet-root operation: fleet projects keep their journal under \
                 the fleet root and share the fleet blueprint",
                request.encode().split(' ').next().unwrap_or("request")
            ),
        }));
        return;
    }
    if !resident.contains_key(project) {
        match activate::<E>(shared, project) {
            Ok(svc) => {
                resident.insert(project.to_string(), svc);
            }
            Err(e) => {
                let _ = reply.send(Response::Error(e));
                return;
            }
        }
    }
    touched.insert(project.to_string());
    // Barriers re-base durable state: settle the project's window before
    // and after, exactly like the single-project loop.
    let barrier = request.is_barrier();
    if barrier {
        settle_project(resident, pending, project);
    }
    let mutating = request.is_mutation();
    let svc = resident
        .get_mut(project)
        .expect("activated or already resident");
    match catch_unwind(AssertUnwindSafe(|| svc.call(request))) {
        Ok(resp) => {
            let resp = patch_stat(resp, shared);
            pending.push((project.to_string(), reply, mutating, resp));
            if barrier {
                settle_project(resident, pending, project);
            }
        }
        Err(_) => {
            // The interpreter panicked mid-request: drop the service
            // without flushing (its group-commit window is gone — the
            // crash contract), fail this project's unacked window, and
            // leave every other project on this worker untouched. The
            // next request re-activates from the journal.
            drop(resident.remove(project));
            touched.remove(project);
            shared.counters.resident.fetch_sub(1, Ordering::Relaxed);
            shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
            settle_project(resident, pending, project);
            let _ = reply.send(Response::Error(ApiError::ProjectPoisoned {
                project: project.to_string(),
            }));
        }
    }
}

/// Builds a service for `project` around the shared compiled blueprint
/// and brings its journal up: recover `snapshot + tail` when the project
/// has disk state, enable a fresh journal on first activation.
fn activate<E>(shared: &FleetShared, project: &str) -> Result<ProjectService<E>, ApiError>
where
    E: ScriptExecutor + Default,
{
    let dir = shared.root.join(project);
    std::fs::create_dir_all(&dir).map_err(|e| ApiError::Io {
        reason: format!("cannot create project dir for `{project}`: {e}"),
    })?;
    let server = ProjectServer::with_shared(
        Arc::clone(&shared.blueprint),
        Arc::clone(&shared.compiled),
        E::default(),
    );
    let mut svc = ProjectService::with_server(server);
    svc.set_group_commit(true).map_err(ApiError::from)?;
    let _ = svc.take_journal_poisoned();
    let dir = dir.to_string_lossy().into_owned();
    let every = shared.config.checkpoint_every;
    let bring_up = if std::path::Path::new(&dir).join(SNAPSHOT_FILE).exists() {
        Request::Recover { dir, every }
    } else {
        Request::EnableJournal { dir, every }
    };
    match svc.call(bring_up) {
        Response::Error(e) => Err(e),
        _ => {
            shared.counters.resident.fetch_add(1, Ordering::Relaxed);
            shared.counters.activations.fetch_add(1, Ordering::Relaxed);
            Ok(svc)
        }
    }
}

/// Flushes the group-commit buffer — leaving the cold form
/// (`snapshot.ddb` + a durable tail with no fold due) on disk, exactly
/// what a crash after that flush would leave — then drops the service.
/// The next activation continues the journal in place, its fold budget
/// included.
fn retire<E>(mut svc: ProjectService<E>, shared: &FleetShared)
where
    E: ScriptExecutor + Default,
{
    let _ = svc.set_group_commit(false); // flushes buffered ops
    shared.counters.resident.fetch_sub(1, Ordering::Relaxed);
    shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
}

/// Settles one project's slice of the pending window by the
/// single-project loop's rule ([`settle_window`]); a service that is gone
/// entirely (the panic path) fails its window as poisoned.
fn settle_project<E>(
    resident: &mut HashMap<String, ProjectService<E>>,
    pending: &mut Vec<PendingReply>,
    project: &str,
) where
    E: ScriptExecutor + Default,
{
    let error = match resident.get_mut(project) {
        Some(svc) => settle_window(svc),
        None => Some(ApiError::ProjectPoisoned {
            project: project.to_string(),
        }),
    };
    let (mine, keep): (Vec<_>, Vec<_>) = std::mem::take(pending)
        .into_iter()
        .partition(|(owner, ..)| owner == project);
    *pending = keep;
    send_settled(
        mine.into_iter()
            .map(|(_, reply, mutating, resp)| (reply, mutating, resp)),
        error.as_ref(),
    );
}

/// Patches the fleet gauges onto a `stat` reply (a project service
/// answers zeros — it cannot see the fleet).
fn patch_stat(resp: Response, shared: &FleetShared) -> Response {
    match resp {
        Response::Stat { mut stat } => {
            stat.active_projects = shared.counters.resident.load(Ordering::Relaxed);
            stat.resident_projects = shared.counters.registered.load(Ordering::Relaxed);
            stat.activations = shared.counters.activations.load(Ordering::Relaxed);
            stat.evictions = shared.counters.evictions.load(Ordering::Relaxed);
            Response::Stat { stat }
        }
        other => other,
    }
}
