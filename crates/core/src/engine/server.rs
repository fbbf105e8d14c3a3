//! The DAMOCLES project server: the façade tying blueprint, meta-database,
//! workspace, event queue and run-time engine together (Fig. 1).
//!
//! Wrapper programs (and designers' front-ends) talk to a [`ProjectServer`]:
//! they check data in and out, post event messages, and query project state.
//! The server drains its FIFO queue with [`ProjectServer::process_all`],
//! dispatching `exec` invocations to its [`ScriptExecutor`] and feeding any
//! events those wrappers post back into the queue — the automatic tool
//! invocation loop of Section 3.3.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use damocles_meta::journal::{self, JournalOp, JournalWriter, RecoveryReport};
use damocles_meta::{
    persist, Direction, EventMessage, LinkId, MetaDb, MetaError, Oid, OidId, ProjectQuery, Value,
    Workspace,
};

use crate::engine::audit::{AuditKind, AuditLog};
use crate::engine::compile::CompiledBlueprint;
use crate::engine::error::EngineError;
use crate::engine::event::{Delivery, QueuedEvent};
use crate::engine::exec::{NullExecutor, PreparedRun, ScriptExecutor, ScriptInvocation, ToolCtx};
use crate::engine::invoke::{
    FinishedInvocation, InvokeOutcome, InvokeStats, Invoker, RetryPolicy, WakeFn,
};
use crate::engine::policy::{Policy, PolicyViolation, Strictness};
use crate::engine::queue::{EventQueue, Posted};
use crate::engine::runtime::RuntimeEngine;
use crate::engine::tail::TailHub;
use crate::engine::template;
use crate::engine::trace::{TraceLog, TraceRecord};
use crate::lang::ast::Blueprint;
use crate::lang::{parser, validate};

/// Aggregate results of one [`ProjectServer::process_all`] drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessReport {
    /// Design events processed (queue entries).
    pub events: u64,
    /// OIDs that executed rules across all waves.
    pub deliveries: u64,
    /// Wrapper invocations dispatched.
    pub scripts: u64,
    /// Event messages wrappers posted back.
    pub emitted: u64,
}

impl ProcessReport {
    fn absorb(&mut self, other: ProcessReport) {
        self.events += other.events;
        self.deliveries += other.deliveries;
        self.scripts += other.scripts;
        self.emitted += other.emitted;
    }
}

/// Snapshot file name inside a durability directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.ddb";
/// Journal file name inside a durability directory.
pub(crate) const JOURNAL_FILE: &str = "journal.djl";

/// Durability state of a journaling server: where the checkpoint snapshot
/// and op journal live, the open journal writer, and the fold policy.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    writer: JournalWriter,
    /// Epoch of the snapshot the journal extends.
    epoch: u64,
    /// Leadership term the journal is written under (see `fence_term`).
    term: u64,
    /// Fold only once the journal holds at least this many records.
    checkpoint_every: u64,
    /// ...and at least this many bytes: its length right after the
    /// checkpoint it extends (header plus re-seeded work records) plus
    /// that checkpoint's snapshot. A fold rewrites the whole image, so
    /// folding no sooner costs at most one written byte per journaled
    /// byte however large the image is, and recovery replays at most
    /// about one snapshot's worth of journal.
    fold_bytes: u64,
    /// Set when the database was swapped wholesale (`adopt_project`): the
    /// journal on disk no longer describes the in-memory state, so the next
    /// sync point must checkpoint before appending anything.
    force_checkpoint: bool,
}

impl Durability {
    /// Appends `ops` with one write and one fsync; returns their record
    /// lines for the tail stream. No I/O at all for an empty batch.
    fn commit(&mut self, ops: &[JournalOp]) -> Result<Vec<String>, std::io::Error> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let lines = self.writer.append_batch(ops)?;
        self.writer.sync()?;
        Ok(lines)
    }

    /// Whether the journal has outgrown its checkpoint (see `fold_bytes`).
    fn fold_due(&self) -> bool {
        self.writer.record_count() >= self.checkpoint_every
            && self.writer.byte_len() >= self.fold_bytes
    }
}

fn journal_io(e: std::io::Error) -> EngineError {
    EngineError::Journal {
        reason: e.to_string(),
    }
}

/// Reads a durability directory **at rest** and reconstructs the project
/// image at journal cursor `(epoch, seq)`: the snapshot plus its first
/// `seq` journal records, replayed against a scratch database. Nothing in
/// the directory is written or truncated — the offline half of
/// [`ProjectServer::replay_at`], used by `damocles_server --replay-until`
/// and `damocles_inspect` to examine a copied bug-report directory.
/// Returns the recovered object count and the image in
/// [`persist::save_project`] format.
///
/// # Errors
///
/// [`EngineError::Journal`] when the snapshot is unreadable, `epoch` does
/// not match the on-disk snapshot, or `seq` lies beyond the journal.
pub fn replay_dir(
    dir: impl AsRef<Path>,
    epoch: u64,
    seq: u64,
) -> Result<(u64, String), EngineError> {
    let dir = dir.as_ref();
    let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
    let on_disk = journal::snapshot_epoch(&snapshot);
    if epoch != on_disk {
        return Err(EngineError::Journal {
            reason: format!(
                "replay cursor epoch {epoch} is not addressable: the directory \
                 holds epoch {on_disk} (checkpoints fold earlier epochs away)"
            ),
        });
    }
    let bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(journal_io(e)),
    };
    let recovered = journal::recover_until(&snapshot, &bytes, Some(seq))?;
    let oids = recovered.db.oid_count() as u64;
    let image = persist::save_project(&recovered.db, &recovered.workspace);
    Ok((oids, image))
}

/// Reads the addressable cursor range of a durability directory **at
/// rest**: the snapshot's epoch and the number of valid journal records
/// extending it, plus the encoded body of every such record (for
/// timeline rendering). A cursor `(epoch, s)` for any `s` up to the
/// returned count is valid input to [`replay_dir`].
///
/// # Errors
///
/// [`EngineError::Journal`] when the snapshot is unreadable or the
/// journal is corrupt mid-file (a torn tail is fine — it is past the
/// valid prefix by definition).
pub fn journal_dir_cursor(dir: impl AsRef<Path>) -> Result<(u64, Vec<String>), EngineError> {
    let dir = dir.as_ref();
    let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
    let epoch = journal::snapshot_epoch(&snapshot);
    let bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(journal_io(e)),
    };
    let tail = journal::parse_journal(&bytes)?;
    Ok((epoch, tail.ops.iter().map(JournalOp::encode).collect()))
}

/// How long the blocking drain parks per poll while detached invocations
/// are still in flight (results usually arrive earlier via the condvar).
const INVOKE_POLL: Duration = Duration::from_millis(50);

/// The work-queue journal record for a durably accepted event, or `None`
/// when the event carries no sequence stamp (journaling off at accept) or
/// its target address no longer resolves.
///
/// A free function (not a method) so callers can borrow the queue and the
/// database from disjoint fields at the same time.
fn event_queued_op(db: &MetaDb, ev: &QueuedEvent) -> Option<JournalOp> {
    let seq = ev.seq?;
    let target = db.oid(ev.delivery.anchor()).ok()?.clone();
    Some(JournalOp::EventQueued {
        seq,
        event: ev.event.clone(),
        direction: match ev.direction {
            Direction::Up => "up".to_string(),
            Direction::Down => "down".to_string(),
        },
        propagate: matches!(ev.delivery, Delivery::PropagateFrom(_)),
        target,
        args: ev.args.clone(),
        user: ev.user.clone(),
    })
}

/// The project server.
///
/// Generic over its script executor so tests can use
/// [`RecordingExecutor`](crate::engine::exec::RecordingExecutor) and the
/// `damocles-tools` crate can plug a simulated tool chain in, while the
/// default is the inert [`NullExecutor`].
///
/// # Example
///
/// ```
/// use blueprint_core::engine::server::ProjectServer;
///
/// # fn main() -> Result<(), blueprint_core::engine::error::EngineError> {
/// let mut server = ProjectServer::from_source(r#"
///     blueprint demo
///     view default
///         property uptodate default true
///         when ckin do uptodate = true; post outofdate down done
///         when outofdate do uptodate = false done
///     endview
///     view HDL_model endview
///     view schematic
///         link_from HDL_model move propagates outofdate type derived
///     endview
///     endblueprint
/// "#)?;
/// let hdl = server.checkin("cpu", "HDL_model", "yves", b"module cpu;".to_vec())?;
/// let sch = server.checkin("cpu", "schematic", "yves", b"...".to_vec())?;
/// server.connect_oids(&hdl, &sch)?;
/// server.process_all()?;
///
/// // A new HDL version invalidates the derived schematic.
/// server.checkin("cpu", "HDL_model", "yves", b"module cpu; // v2".to_vec())?;
/// server.process_all()?;
/// assert_eq!(server.prop(&sch, "uptodate").unwrap().as_atom(), "false");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProjectServer<E = NullExecutor> {
    blueprint: Arc<Blueprint>,
    /// The blueprint compiled for the engine; rebuilt whenever the
    /// blueprint changes (`reinit`). Behind an [`Arc`] so a fleet can
    /// share one compilation across every tenant on the same source.
    compiled: Arc<CompiledBlueprint>,
    db: MetaDb,
    workspace: Workspace,
    engine: RuntimeEngine,
    queue: EventQueue,
    audit: AuditLog,
    /// Per-wave execution trace (see [`crate::engine::trace`]):
    /// retention off by default, so the hot path pays nothing until a
    /// `trace on` request flips it.
    trace: TraceLog,
    /// Invoker fault counters already folded into the audit log as
    /// `InvokeRetried` / `InvokeTimedOut` notes (the pool's counters are
    /// cumulative; the server notes deltas).
    seen_invoke_faults: (u64, u64),
    executor: E,
    /// Reusable inbox-drain buffer (see `EventQueue::drain_inbox_into`).
    inbox_buf: Vec<Posted>,
    /// When true, events run through the seed's AST-walking engine path
    /// instead of the compiled dispatch tables — kept for differential
    /// testing and as the benches' baseline.
    ast_dispatch: bool,
    /// Journal + checkpoint state (see [`ProjectServer::enable_journal`]).
    durability: Option<Durability>,
    /// The leadership term this server last journaled (or adopted a
    /// snapshot) under; 1 until a journal or promotion says otherwise.
    term: u64,
    /// Set when a newer leadership term fenced this server (see
    /// [`ProjectServer::fence_term`]): the fencing term. A fenced server
    /// can never commit again — the service layer refuses its mutations
    /// as stale-term, and the journal refuses appends.
    fenced_by: Option<u64>,
    /// Group-commit mode: operation boundaries buffer their journal ops
    /// in memory instead of appending+fsyncing; the owner (the command
    /// loop) calls [`ProjectServer::flush_journal`] once per batch.
    group_commit: bool,
    /// Set when a journal failure *disabled* durability (poisoning), as
    /// opposed to durability being off by configuration. The command
    /// loop consumes it ([`ProjectServer::take_journal_poisoned`]) to
    /// error un-acked mutations of the poisoned window.
    journal_poisoned: bool,
    /// Replication publication point: committed journal records and
    /// checkpoint rollovers are published here for tail subscribers
    /// (see [`crate::engine::tail`]). Shared with the service layer so
    /// the hub survives `Init` server swaps.
    tail: Arc<TailHub>,
    /// The async invocation pool running detached tool runs (see
    /// [`crate::engine::invoke`]); inline executors never touch it.
    invoker: Invoker,
    /// `InvokeQueued` records of detached invocations not yet terminal,
    /// kept so a checkpoint can re-seed the fresh journal with them
    /// (work records have no snapshot representation).
    in_flight_ops: BTreeMap<u64, JournalOp>,
    /// Next durable event-queue sequence number.
    next_event_seq: u64,
    /// Next invocation id (monotonic across inline and detached runs).
    next_invoke_id: u64,
    /// Safety valve for `process_all`.
    pub max_events_per_drain: u64,
}

impl ProjectServer<NullExecutor> {
    /// Initializes a server from blueprint source text, validating it.
    ///
    /// # Errors
    ///
    /// Returns parse errors or validation errors (warnings are tolerated,
    /// matching the non-obstructive stance).
    pub fn from_source(source: &str) -> Result<Self, EngineError> {
        let bp = parser::parse(source)?;
        Self::new(bp)
    }

    /// Initializes a server from a parsed blueprint, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when validation finds errors.
    pub fn new(blueprint: Blueprint) -> Result<Self, EngineError> {
        Self::with_executor(blueprint, NullExecutor)
    }
}

impl<E: ScriptExecutor> ProjectServer<E> {
    /// Initializes a server with a custom script executor.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when validation finds errors.
    pub fn with_executor(blueprint: Blueprint, executor: E) -> Result<Self, EngineError> {
        validate::check(&blueprint).map_err(|issues| EngineError::Invalid {
            issues: issues.iter().map(ToString::to_string).collect(),
        })?;
        let compiled = Arc::new(CompiledBlueprint::compile(&blueprint));
        Ok(Self::with_shared(Arc::new(blueprint), compiled, executor))
    }

    /// Initializes a server around an **already validated and compiled**
    /// blueprint — the fleet path, where hundreds of tenants loading the
    /// same source share one [`CompiledBlueprint`] allocation through the
    /// registry's content-hash cache instead of compiling per tenant.
    ///
    /// The caller vouches that `compiled` was compiled from `blueprint`
    /// and that the source passed [`validate::check`]; [`with_executor`]
    /// is the checked single-project path.
    ///
    /// [`with_executor`]: ProjectServer::with_executor
    pub fn with_shared(
        blueprint: Arc<Blueprint>,
        compiled: Arc<CompiledBlueprint>,
        executor: E,
    ) -> Self {
        ProjectServer {
            blueprint,
            compiled,
            db: MetaDb::new(),
            workspace: Workspace::new("project"),
            engine: RuntimeEngine::default(),
            queue: EventQueue::new(),
            audit: AuditLog::counters_only(),
            trace: TraceLog::disabled(),
            seen_invoke_faults: (0, 0),
            executor,
            inbox_buf: Vec::new(),
            ast_dispatch: false,
            durability: None,
            term: 1,
            fenced_by: None,
            group_commit: false,
            journal_poisoned: false,
            tail: Arc::new(TailHub::new()),
            invoker: Invoker::default(),
            in_flight_ops: BTreeMap::new(),
            next_event_seq: 0,
            next_invoke_id: 0,
            max_events_per_drain: 1_000_000,
        }
    }

    /// Replaces the blueprint — "re-initializing the BluePrint mechanism"
    /// between project phases (Section 3.2). The meta-database, workspace
    /// and queue are kept.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when the new blueprint fails
    /// validation; the old blueprint stays in force.
    pub fn reinit(&mut self, blueprint: Blueprint) -> Result<(), EngineError> {
        validate::check(&blueprint).map_err(|issues| EngineError::Invalid {
            issues: issues.iter().map(ToString::to_string).collect(),
        })?;
        self.compiled = Arc::new(CompiledBlueprint::compile(&blueprint));
        self.blueprint = Arc::new(blueprint);
        Ok(())
    }

    /// Batch re-evaluation of every continuous assignment on every live
    /// OID — the deferred half of the `eager_lets` ablation (with eager
    /// evaluation disabled, `let` properties are only refreshed when this is
    /// called, e.g. once per query burst instead of once per delivery).
    ///
    /// Returns the number of `let` properties written.
    ///
    /// # Errors
    ///
    /// Propagates database errors (none expected on a live database).
    pub fn refresh_lets(&mut self) -> Result<u64, EngineError> {
        use crate::engine::eval::EvalCtx;
        let ids: Vec<OidId> = self.db.iter_oids().map(|(id, _)| id).collect();
        let mut written = 0u64;
        for id in ids {
            // The compiled per-view tables hold the default view's lets and
            // the view's own pre-merged in evaluation order.
            let table = {
                let view = &self.db.oid(id)?.view;
                self.compiled.table_for_view(view.as_str())
            };
            // Evaluate against a stable snapshot of the entry's properties.
            let values: Vec<(String, Value)> = {
                let entry = self.db.entry(id)?;
                let ctx = EvalCtx {
                    props: &entry.props,
                    oid: &entry.oid,
                    event: "refresh",
                    args: &[],
                    user: "server",
                    date: 0,
                };
                table
                    .lets()
                    .iter()
                    .map(|l| (l.name.clone(), ctx.eval(&l.expr)))
                    .collect()
            };
            for (name, value) in values {
                self.db.set_prop(id, &name, value)?;
                written += 1;
            }
        }
        self.journal_sync(None)?;
        Ok(written)
    }

    /// Adopts a restored database and workspace (e.g. from
    /// [`damocles_meta::persist::load_project`]), discarding the current
    /// ones. Any queued events are dropped — their addresses belong to the
    /// old database.
    ///
    /// With journaling enabled, the on-disk journal no longer describes the
    /// adopted state; a checkpoint is forced at the next sync point (call
    /// [`ProjectServer::checkpoint`] immediately if you need the window
    /// closed now).
    pub fn adopt_project(&mut self, db: MetaDb, workspace: Workspace) {
        while self.queue.dequeue().is_some() {}
        for _ in self.queue.drain_inbox() {}
        // Detached jobs were captured against the old database; a fresh
        // pool (same policies and wake) replaces them. On a durable server
        // the journal's in-flight records re-dispatch them instead.
        let (default_policy, overrides) = self.invoker.policies();
        let wake = self.invoker.take_wake();
        let mut fresh = Invoker::default();
        fresh.set_policy(None, default_policy);
        for (script, policy) in &overrides {
            fresh.set_policy(Some(script), *policy);
        }
        fresh.set_wake(wake);
        self.invoker = fresh;
        self.in_flight_ops.clear();
        self.db = db;
        self.workspace = workspace;
        // The engine's per-view dispatch cache is keyed by the old
        // database's view symbols; the adopted database may intern the
        // same view names in a different order.
        self.engine.invalidate_dispatch_cache();
        if let Some(d) = self.durability.as_mut() {
            self.db.attach_journal();
            d.force_checkpoint = true;
        }
    }

    // ------------------------------------------------------------------
    // Durability: op journal + incremental checkpoints
    // ------------------------------------------------------------------

    /// Turns on durability: writes an initial checkpoint (snapshot +
    /// fresh journal) under `dir`, attaches a journal recorder to the
    /// database, and from then on appends every mutation's op record at
    /// each server operation boundary. The journal folds into a fresh
    /// snapshot once it holds at least `checkpoint_every` records **and**
    /// has grown by at least the snapshot's byte length since its
    /// checkpoint, and at once on [`ProjectServer::checkpoint`]. Returns
    /// the checkpoint epoch.
    ///
    /// The durability cost between checkpoints scales with the mutation
    /// rate, not the database size — the point of the journal over plain
    /// [`damocles_meta::persist::save`] snapshots.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on file-system failures.
    pub fn enable_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
    ) -> Result<u64, EngineError> {
        self.enable_journal_inner(dir.as_ref(), checkpoint_every, 0, None)
    }

    /// The failover half of [`ProjectServer::enable_journal`]: enables
    /// journaling under an explicit fencing `term` (the promotion bumps
    /// it past the deposed leader's) with an epoch floor — a promoted
    /// follower that consumed the leader's stream up to epoch *k* must
    /// journal at epoch ≥ *k*+1 so its reign never reuses a coordinate
    /// the old reign published. Returns the promoted epoch.
    ///
    /// # Errors
    ///
    /// [`EngineError::Fenced`] when this server was already fenced by a
    /// term ≥ `term`; [`EngineError::Journal`] on file-system failures.
    pub fn promote_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
        min_epoch: u64,
        term: u64,
    ) -> Result<u64, EngineError> {
        if let Some(fence) = self.fenced_by.filter(|f| *f >= term) {
            return Err(EngineError::Fenced {
                term,
                current: fence,
            });
        }
        // A promotion must strictly advance the reign: re-promoting at
        // (or below) the term already in force would let two nodes
        // journal under one term — exactly the dual-commit fencing
        // exists to prevent.
        let current = self.current_term();
        if term <= current {
            return Err(EngineError::Fenced { term, current });
        }
        self.fenced_by = None;
        self.enable_journal_inner(dir.as_ref(), checkpoint_every, min_epoch, Some(term))
    }

    fn enable_journal_inner(
        &mut self,
        dir: &Path,
        checkpoint_every: u64,
        min_epoch: u64,
        term: Option<u64>,
    ) -> Result<u64, EngineError> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir).map_err(journal_io)?;
        // Continue the epoch sequence (and, absent an explicit promotion
        // term, the term) of any previous incarnation so a stale journal
        // from before this enable can never pass the (epoch, term) match
        // against a new snapshot. Only a MISSING snapshot means a fresh
        // start; an unreadable one is an error (enable would otherwise
        // overwrite state the operator may still want).
        let (on_disk_epoch, on_disk_term) = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
            Ok(s) => (journal::snapshot_epoch(&s), journal::snapshot_term(&s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, self.term),
            Err(e) => return Err(journal_io(e)),
        };
        let epoch = (on_disk_epoch + 1).max(min_epoch);
        let term = term.unwrap_or(on_disk_term);
        let (writer, image) =
            Self::write_checkpoint_files(&dir, epoch, term, &self.db, &self.workspace)?;
        self.db.attach_journal();
        self.journal_poisoned = false;
        self.term = term;
        let fold_bytes = writer.byte_len() + image.len() as u64;
        self.tail.publish_enable(epoch, term, image);
        self.durability = Some(Durability {
            dir,
            writer,
            epoch,
            term,
            checkpoint_every: checkpoint_every.max(1),
            fold_bytes,
            force_checkpoint: false,
        });
        // Events queued before this enable predate the journal: stamp them
        // with sequence numbers and record their acceptance now, so the
        // fresh journal's pending-work scan covers the whole queue.
        let mut stamped = Vec::new();
        {
            let db = &self.db;
            let mut next = self.next_event_seq;
            for ev in self.queue.iter_mut() {
                if ev.seq.is_some() {
                    continue;
                }
                ev.seq = Some(next);
                next += 1;
                if let Some(op) = event_queued_op(db, ev) {
                    stamped.push(op);
                }
            }
            self.next_event_seq = next;
        }
        for op in stamped {
            self.db.record_extra(op);
        }
        self.journal_sync(None)?;
        Ok(epoch)
    }

    /// Whether durability is enabled.
    pub fn journal_enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// The current checkpoint epoch, when journaling.
    pub fn journal_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.epoch)
    }

    /// Ops appended to the current journal since the last checkpoint.
    pub fn journal_records(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.writer.record_count())
    }

    /// The durability directory, when journaling.
    pub fn journal_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The leadership term in force: the open journal's, or the last
    /// term this server journaled / adopted under (1 for a server that
    /// never saw a failover).
    pub fn current_term(&self) -> u64 {
        self.durability.as_ref().map_or(self.term, |d| d.term)
    }

    /// The fencing term, when a newer reign fenced this server (see
    /// [`ProjectServer::fence_term`]). The service layer consults this
    /// before every mutation.
    pub fn fenced_by(&self) -> Option<u64> {
        self.fenced_by
    }

    /// Fences this server out of leadership: a coordinator (or a revived
    /// ex-leader's operator) announces that term `term` now holds the
    /// reign. If `term` is newer than this server's, the server becomes
    /// permanently read-only — durability is closed (the on-disk journal
    /// stays, a valid artifact of the old reign), the tail hub publishes
    /// its end so subscribers fail over, and every later mutation or
    /// journal append is refused as stale-term. Returns the term this
    /// server held.
    ///
    /// Any journal ops still buffered (group-commit window) are
    /// discarded un-appended: they were never acked as durable, and
    /// appending them under a deposed term could dual-commit against the
    /// new reign's journal.
    ///
    /// # Errors
    ///
    /// [`EngineError::Fenced`] when `term` is not newer than the term
    /// this server already holds — the fence request itself is stale.
    pub fn fence_term(&mut self, term: u64) -> Result<u64, EngineError> {
        let current = self.current_term();
        if term <= current {
            return Err(EngineError::Fenced { term, current });
        }
        self.term = current;
        self.fenced_by = Some(term);
        let _discarded = self.db.drain_journal_ops();
        if self.durability.take().is_some() {
            self.db.detach_journal();
            self.tail.publish_disable();
        }
        Ok(current)
    }

    /// The replication publication point: tail subscribers read committed
    /// journal records and checkpoint rollovers from here (see
    /// [`crate::engine::tail`]).
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }

    /// Replaces the tail hub — the service layer shares one hub across
    /// `Init` server swaps so live subscriptions survive by address.
    ///
    /// If journaling is already enabled, the committed on-disk state
    /// (snapshot + the journal's complete records) is published to the
    /// new hub so subscribers can bootstrap; the in-memory op buffer, not
    /// yet fsynced, is intentionally excluded and publishes at its flush.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the on-disk state cannot be read
    /// back (the hub is left disabled; durability itself is unaffected).
    pub fn set_tail_hub(&mut self, hub: Arc<TailHub>) -> Result<(), EngineError> {
        self.tail = hub;
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        let snapshot = std::fs::read_to_string(d.dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
        let bytes = std::fs::read(d.dir.join(JOURNAL_FILE)).map_err(journal_io)?;
        self.publish_on_disk(d.epoch, d.term, snapshot, &bytes);
        Ok(())
    }

    /// Publishes committed on-disk state of `(epoch, term)` to the tail
    /// hub: the snapshot, then every complete record line of the journal
    /// `bytes` (the header is skipped; only newline-terminated lines are
    /// committed records — a torn fragment, impossible outside a crash,
    /// is not).
    fn publish_on_disk(&self, epoch: u64, term: u64, snapshot: String, bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.split_inclusive('\n');
        let _header = lines.next();
        self.tail.publish_enable(epoch, term, snapshot);
        self.tail.publish_records(
            lines
                .filter(|l| l.ends_with('\n'))
                .map(|l| l.trim_end().to_string()),
        );
    }

    // ------------------------------------------------------------------
    // Replication follower surface
    // ------------------------------------------------------------------

    /// Adopts a leader checkpoint snapshot (a `persist` project image, as
    /// carried by a `tail-reset` frame) as this server's whole state —
    /// the follower bootstrap step. Returns the live object count.
    ///
    /// # Errors
    ///
    /// [`EngineError::Meta`] when the image fails to parse.
    pub fn adopt_replica_image(&mut self, image: &str) -> Result<usize, EngineError> {
        let (db, workspace) = persist::load_project(image).map_err(EngineError::Meta)?;
        let oids = db.oid_count();
        self.adopt_project(db, workspace);
        Ok(oids)
    }

    /// The journal-tag map (tag → link address) for the current database
    /// image, tags assigned in image order — exactly the assignment the
    /// leader makes at each checkpoint, so a follower rebuilds it after
    /// every bootstrap and epoch rollover.
    pub fn replica_link_tags(&self) -> HashMap<u64, LinkId> {
        self.db
            .links_in_image_order()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (i as u64, id))
            .collect()
    }

    /// Applies one streamed journal record through the normal database
    /// API — the follower's unit of replication (see
    /// [`damocles_meta::journal::apply_op`]). `tags` is the follower's
    /// link-tag map, maintained across calls.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the op does not apply — the stream
    /// does not match this follower's image (it must re-bootstrap).
    pub fn apply_replica_op(
        &mut self,
        op: &JournalOp,
        tags: &mut HashMap<u64, LinkId>,
    ) -> Result<(), EngineError> {
        journal::apply_op(&mut self.db, &mut self.workspace, tags, op)
            .map_err(|reason| EngineError::Journal { reason })
    }

    /// The full project image (database + workspace payloads) — what a
    /// byte-identical follower must reproduce.
    pub fn project_image(&self) -> String {
        persist::save_project(&self.db, &self.workspace)
    }

    /// Folds the journal into a fresh snapshot: writes the full image at
    /// the next epoch (atomically), starts an empty journal, and re-bases
    /// the database's link tags. Returns the new epoch.
    ///
    /// Crash-safe ordering: the snapshot lands (tmp + rename) *before* the
    /// journal resets, and recovery ignores a journal whose header epoch
    /// does not match the snapshot — so dying between the two steps loses
    /// nothing and corrupts nothing.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when journaling is not enabled or on
    /// file-system failures.
    pub fn checkpoint(&mut self) -> Result<u64, EngineError> {
        if self.durability.is_none() {
            return Err(EngineError::Journal {
                reason: "journaling is not enabled (call enable_journal first)".to_string(),
            });
        }
        // Buffered ops are already reflected in the live database; the
        // fresh snapshot subsumes them. Dropping any here (or folding a
        // wholesale-adopted database) makes the rollover non-seamless for
        // tail subscribers: the stream never carried those changes, so a
        // caught-up follower must re-bootstrap rather than take the cheap
        // epoch marker.
        let dropped_ops = self.db.drain_journal_ops().len();
        let (dir, epoch, term, adopted) = {
            let d = self.durability.as_ref().expect("checked above");
            (d.dir.clone(), d.epoch + 1, d.term, d.force_checkpoint)
        };
        let (writer, image) =
            match Self::write_checkpoint_files(&dir, epoch, term, &self.db, &self.workspace) {
                Ok(w) => w,
                Err(e) => {
                    // The snapshot may have landed at the new epoch while the
                    // journal did not reset; continuing to append would write
                    // ops recovery must ignore. Disable durability loudly.
                    self.poison_journal();
                    return Err(e);
                }
            };
        // Work records — still-queued events, in-flight detached
        // invocations — have no snapshot representation: re-seed the fresh
        // journal with them so recovery from the new epoch still sees the
        // accepted-but-unfinished set. This stays consistent with the
        // buffered drop above: a terminal record dropped there had its
        // queued record leave the pending sets too.
        let mut carried: Vec<JournalOp> = self
            .queue
            .iter()
            .filter_map(|ev| event_queued_op(&self.db, ev))
            .collect();
        carried.extend(self.in_flight_ops.values().cloned());
        let d = self.durability.as_mut().expect("checked above");
        d.writer = writer;
        d.epoch = epoch;
        d.force_checkpoint = false;
        let lines = match d.commit(&carried) {
            Ok(lines) => lines,
            Err(e) => {
                self.poison_journal();
                return Err(EngineError::Journal {
                    reason: format!("checkpoint re-seed failed, durability disabled: {e}"),
                });
            }
        };
        d.fold_bytes = d.writer.byte_len() + image.len() as u64;
        // Re-tag links in image order so tail ops and the snapshot agree.
        self.db.attach_journal();
        self.tail
            .publish_checkpoint(epoch, term, image, dropped_ops == 0 && !adopted);
        if !lines.is_empty() {
            self.tail.publish_records(lines);
        }
        Ok(epoch)
    }

    /// Restores the project from a durability directory: loads
    /// `snapshot + journal tail`, replays the tail through the normal
    /// database API (rebuilding indices and interned bitsets rather than
    /// trusting them), adopts the result, and brings journaling back up.
    ///
    /// A journal whose header matches the snapshot's `(epoch, term)` and
    /// whose tail is clean is **continued**: reopened for append at its
    /// next sequence number, with link tags, the fold budget (the file's
    /// record count and byte length) and the pending work resumed from
    /// the replay — nothing already durable is
    /// written again, and the epoch does not move. A stale, torn or
    /// missing journal is **folded** instead: the recovered state becomes
    /// a fresh checkpoint at the next epoch under the recovered term.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the snapshot is unreadable, the
    /// journal is corrupt beyond a torn tail, or a record fails to replay.
    pub fn recover_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
    ) -> Result<RecoveryReport, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
        // A MISSING journal file is a valid (empty) tail — the crash may
        // have hit before the first journal write. Any other read failure
        // must surface: proceeding would recover the snapshot alone and
        // then truncate the unread journal, destroying fsynced ops.
        let journal_bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(journal_io(e)),
        };
        let journal::Recovered {
            db,
            workspace,
            report,
            pending,
            tags,
            next_tag,
            append_at,
        } = journal::recover(&snapshot, &journal_bytes)?;
        self.durability = None;
        self.adopt_project(db, workspace);
        // Recovery continues the on-disk reign: either path journals
        // under the recovered snapshot's term (promotion, which BUMPS the
        // term, goes through `promote_journal` instead).
        self.term = report.term;
        match append_at {
            Some(seq) => {
                let writer = JournalWriter::open_append(
                    dir.join(JOURNAL_FILE),
                    report.epoch,
                    report.term,
                    seq,
                )
                .map_err(journal_io)?;
                self.db.attach_journal_resumed(&tags, next_tag);
                self.journal_poisoned = false;
                // Which leading records a fold re-seeded is not on disk,
                // so the whole file counts as growth: a continued journal
                // folds at most one re-seed's worth of bytes early.
                let header = journal::encode_header(report.epoch, report.term);
                self.durability = Some(Durability {
                    dir,
                    writer,
                    epoch: report.epoch,
                    term: report.term,
                    checkpoint_every: checkpoint_every.max(1),
                    fold_bytes: (header.len() + snapshot.len()) as u64,
                    force_checkpoint: false,
                });
                self.publish_on_disk(report.epoch, report.term, snapshot, &journal_bytes);
                // The pending work's records are already in this journal.
                self.restore_pending_work(pending, false)?;
            }
            None => {
                self.enable_journal(dir, checkpoint_every)?;
                // Work records survive even a stale journal (they have no
                // snapshot representation): re-journal them into the
                // fresh epoch.
                self.restore_pending_work(pending, true)?;
            }
        }
        Ok(report)
    }

    /// Reconstructs the historical project image at journal cursor
    /// `(epoch, seq)`: the snapshot of that epoch plus its first `seq`
    /// journal records, replayed through the recovery path against a
    /// **scratch** database — the live server is untouched. Returns the
    /// recovered object count and the image in
    /// [`persist::save_project`] format.
    ///
    /// Only the current epoch is addressable (checkpoints fold earlier
    /// journals away). `stat` reports the live cursor; replaying at it
    /// reproduces the live image byte for byte, and replaying at a
    /// smaller `seq` travels back in time — a bug report becomes a
    /// journal directory plus a cursor.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when journaling is off, `epoch` is not
    /// the current epoch, `seq` lies beyond the journal, or the on-disk
    /// files cannot be read or replayed.
    pub fn replay_at(&mut self, epoch: u64, seq: u64) -> Result<(u64, String), EngineError> {
        // The on-disk journal must cover every acked op before the read;
        // under group commit the command loop has already flushed (replay
        // is a barrier request), so this is usually a no-op.
        self.flush_journal()?;
        let Some(d) = self.durability.as_ref() else {
            return Err(EngineError::Journal {
                reason: "replay requires journaling (enable a journal first)".to_string(),
            });
        };
        if epoch != d.epoch {
            return Err(EngineError::Journal {
                reason: format!(
                    "replay cursor epoch {epoch} is not addressable: only the current \
                     epoch {} is on disk (checkpoints fold earlier epochs away)",
                    d.epoch
                ),
            });
        }
        replay_dir(&d.dir, epoch, seq)
    }

    fn write_checkpoint_files(
        dir: &Path,
        epoch: u64,
        term: u64,
        db: &MetaDb,
        workspace: &Workspace,
    ) -> Result<(JournalWriter, String), EngineError> {
        let image = journal::write_snapshot(db, workspace, epoch, term);
        journal::write_file_atomic(dir.join(SNAPSHOT_FILE), &image).map_err(journal_io)?;
        let writer =
            JournalWriter::create(dir.join(JOURNAL_FILE), epoch, term).map_err(journal_io)?;
        Ok((writer, image))
    }

    /// Records an optional server-level op (e.g. a payload record) in
    /// order with the database's buffered ops, then — outside group-commit
    /// mode — flushes everything to the journal. Under group commit the
    /// ops stay buffered until the owner's [`ProjectServer::flush_journal`]
    /// at the batch boundary. No-op without durability.
    fn journal_sync(&mut self, extra: Option<JournalOp>) -> Result<(), EngineError> {
        if self.durability.is_none() {
            return Ok(());
        }
        if let Some(op) = extra {
            // Through the recorder, not a side buffer, so the op keeps its
            // position relative to surrounding database mutations even
            // when several operations' ops drain in one batch.
            self.db.record_extra(op);
        }
        if self.group_commit {
            return Ok(());
        }
        self.flush_journal()
    }

    /// Enters or leaves group-commit mode. While on, operation boundaries
    /// (`checkin`, `process_all`, …) buffer their journal ops in memory;
    /// one [`ProjectServer::flush_journal`] appends and fsyncs the whole
    /// batch — the group-commit discipline that amortizes the
    /// ~per-sync-dominated durability cost across many requests. Leaving
    /// the mode flushes whatever is pending.
    ///
    /// Crash semantics: dying before the flush loses the in-memory batch,
    /// but the on-disk journal still ends at the previous batch boundary —
    /// recovery replays a valid prefix, never a torn batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] from the flush when leaving the mode.
    pub fn set_group_commit(&mut self, on: bool) -> Result<(), EngineError> {
        let was = self.group_commit;
        self.group_commit = on;
        if was && !on {
            self.flush_journal()?;
        }
        Ok(())
    }

    /// Whether group-commit mode is on.
    pub fn group_commit(&self) -> bool {
        self.group_commit
    }

    /// Disables durability after a failed journal write: the recorder is
    /// detached (or the database would buffer ops forever), the poison
    /// marker is set, and tail subscribers see the stream end.
    fn poison_journal(&mut self) {
        self.durability = None;
        self.db.detach_journal();
        self.journal_poisoned = true;
        self.tail.publish_disable();
    }

    /// Takes (and clears) the poison marker: `true` when a journal
    /// failure disabled durability since the last call. Distinct from
    /// "journaling is off" — a fresh or deliberately un-journaled server
    /// never reports poisoning, while a failure does even after the
    /// server was replaced or re-enabled.
    pub fn take_journal_poisoned(&mut self) -> bool {
        std::mem::take(&mut self.journal_poisoned)
    }

    /// Appends all buffered journal ops with one write and one fsync;
    /// folds into a checkpoint once the journal has outgrown it (see
    /// [`ProjectServer::enable_journal`]). No-op without durability.
    ///
    /// Failure semantics: an append/sync error **disables durability**
    /// (poison) and surfaces the error. The drained ops cannot be retried —
    /// the failed write may have left a partial record on disk, and
    /// appending after it would turn a recoverable torn tail into mid-file
    /// corruption. Poisoning keeps the on-disk journal a valid prefix of
    /// history and makes the gap loud instead of silent.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on append/sync/checkpoint failures.
    pub fn flush_journal(&mut self) -> Result<(), EngineError> {
        // A fenced server must never append again: even with durability
        // already closed, any ops that slipped into the buffer are
        // refused loudly rather than silently dropped.
        if let Some(fence) = self.fenced_by {
            if !self.db.drain_journal_ops().is_empty() {
                return Err(EngineError::Fenced {
                    term: self.term,
                    current: fence,
                });
            }
            return Ok(());
        }
        if self.durability.is_none() {
            return Ok(());
        }
        if self.durability.as_ref().is_some_and(|d| d.force_checkpoint) {
            // The on-disk journal predates an adopt_project; fold first.
            self.checkpoint()?;
        }
        let ops = self.db.drain_journal_ops();
        if ops.is_empty() {
            return Ok(());
        }
        let d = self.durability.as_mut().expect("checked above");
        let lines = match d.commit(&ops) {
            Ok(lines) => lines,
            Err(e) => {
                self.poison_journal();
                return Err(EngineError::Journal {
                    reason: format!("journal append failed, durability disabled: {e}"),
                });
            }
        };
        let fold = d.fold_due();
        // Publish to tail subscribers strictly AFTER the fsync: a record a
        // follower ever sees is on the leader's stable storage, so
        // replication can never run ahead of durability. The lines are
        // the very bytes the file holds, encoded once.
        self.tail.publish_records(lines);
        if fold {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Replaces the blueprint from source text.
    ///
    /// # Errors
    ///
    /// Parse or validation errors; the old blueprint stays in force.
    pub fn reinit_from_source(&mut self, source: &str) -> Result<(), EngineError> {
        let bp = parser::parse(source)?;
        self.reinit(bp)
    }

    /// Sets the engine policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.engine = RuntimeEngine::new(policy);
        self
    }

    /// Turns on full audit-record retention (builder style).
    pub fn with_audit_retention(mut self) -> Self {
        self.audit = AuditLog::retaining();
        self
    }

    /// Routes events through the seed's AST-walking engine path instead of
    /// the compiled dispatch tables (builder style) — the baseline side of
    /// the differential tests and the `propagation`/`fig1_event_queue`
    /// benches.
    pub fn with_ast_dispatch(mut self) -> Self {
        self.ast_dispatch = true;
        self
    }

    /// Whether the AST-walking dispatch path is in force.
    pub fn uses_ast_dispatch(&self) -> bool {
        self.ast_dispatch
    }

    // ------------------------------------------------------------------
    // Async invocation pool
    // ------------------------------------------------------------------

    /// Live counters of the async invocation pool (pending, running,
    /// retrying, and terminal totals) — surfaced through `Request::Stat`.
    pub fn invoke_stats(&self) -> InvokeStats {
        self.invoker.stats()
    }

    /// Sets the retry policy detached runs of `script` use, or the pool
    /// default when `script` is `None`. Applies to subsequent dispatches.
    pub fn set_retry_policy(&mut self, script: Option<&str>, policy: RetryPolicy) {
        self.invoker.set_policy(script, policy);
    }

    /// Every configured retry policy (the default plus per-script
    /// overrides) — the service re-installs them across `Init` swaps.
    pub fn retry_policies(&self) -> (RetryPolicy, Vec<(String, RetryPolicy)>) {
        self.invoker.policies()
    }

    /// Arms (or clears) the callback fired when a detached result becomes
    /// harvestable — the command loop's "pump me" signal.
    pub fn set_invoke_wake(&self, wake: Option<WakeFn>) {
        self.invoker.set_wake(wake);
    }

    /// Detached invocations submitted and not yet fed back.
    pub fn invocations_in_flight(&self) -> usize {
        self.invoker.in_flight()
    }

    /// Blocks up to `timeout` for a harvestable detached result; `true`
    /// when one is ready (polling loops around
    /// [`ProjectServer::process_round`]).
    pub fn wait_invocations(&self, timeout: Duration) -> bool {
        self.invoker.wait_harvest(timeout)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The active blueprint.
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }

    /// The active blueprint's compiled form.
    pub fn compiled(&self) -> &CompiledBlueprint {
        &self.compiled
    }

    /// A shared handle to the compiled blueprint — cheap to clone, and
    /// pointer-comparable (`Arc::ptr_eq`) to prove two tenants share one
    /// compilation through the fleet's blueprint cache.
    pub fn compiled_shared(&self) -> Arc<CompiledBlueprint> {
        Arc::clone(&self.compiled)
    }

    /// The meta-database (read-only; mutate through server operations).
    pub fn db(&self) -> &MetaDb {
        &self.db
    }

    /// The workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Clears the audit log (counters and records).
    pub fn reset_audit(&mut self) {
        self.audit.reset();
    }

    /// The execution trace log (see [`crate::engine::trace`]).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Turns per-wave trace retention on or off. Turning it off drops any
    /// captured records; while off, wave execution pays no trace cost.
    pub fn set_trace_retention(&mut self, on: bool) {
        self.trace.set_retaining(on);
    }

    /// Drains the captured trace records, leaving retention as it is —
    /// the `trace get` request, so repeated polls see each record once
    /// and the server never accumulates an unbounded trace.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take_records()
    }

    /// The engine policy in force.
    pub fn policy(&self) -> &Policy {
        &self.engine.policy
    }

    /// Mutable policy access (tighten/loosen between phases).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.engine.policy
    }

    /// The script executor.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Mutable executor access.
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// Read-only query facade.
    pub fn query(&self) -> ProjectQuery<'_> {
        ProjectQuery::new(&self.db)
    }

    /// Events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// A property of an OID, by triplet.
    pub fn prop(&self, oid: &Oid, name: &str) -> Option<Value> {
        let id = self.db.resolve(oid)?;
        self.db.get_prop(id, name).ok().flatten().cloned()
    }

    // ------------------------------------------------------------------
    // Design activities
    // ------------------------------------------------------------------

    /// Checks new design data in: creates the next version OID, applies
    /// template rules, records the owner, and queues a `ckin` event targeted
    /// at the new OID (direction `up`, as in the paper's wire example).
    ///
    /// # Errors
    ///
    /// Fails on frozen views (policy), check-out conflicts, or database
    /// errors.
    pub fn checkin(
        &mut self,
        block: &str,
        view: &str,
        user: &str,
        payload: Vec<u8>,
    ) -> Result<Oid, EngineError> {
        if self.engine.policy.is_frozen(view) {
            return Err(PolicyViolation::FrozenView {
                view: view.to_string(),
            }
            .into());
        }
        let (id, oid) = self
            .workspace
            .checkin(&mut self.db, block, view, user, payload)?;
        template::apply_on_create(&self.blueprint, &mut self.db, id, &mut self.audit)?;
        self.db
            .set_prop(id, "owner", Value::Str(user.to_string()))?;
        self.accept_event(QueuedEvent::target("ckin", Direction::Up, id, user));
        // Journal the payload alongside the meta-data ops so recovery can
        // rebuild the workspace too, not just the database.
        let data_op = self.durability.is_some().then(|| JournalOp::Data {
            oid: oid.clone(),
            payload: self
                .workspace
                .datum(id)
                .map(|d| d.content.clone())
                .unwrap_or_default(),
        });
        self.journal_sync(data_op)?;
        Ok(oid)
    }

    /// Checks a `(block, view)` chain out for `user`.
    ///
    /// # Errors
    ///
    /// Fails on check-out conflicts.
    pub fn checkout(&mut self, block: &str, view: &str, user: &str) -> Result<(), EngineError> {
        self.workspace.checkout(&self.db, block, view, user)?;
        Ok(())
    }

    /// Creates a bare OID (no payload) with template application — for tools
    /// and setup code. No `ckin` event is queued.
    ///
    /// # Errors
    ///
    /// Fails on duplicate triplets.
    pub fn create_object(&mut self, oid: Oid) -> Result<OidId, EngineError> {
        let id = self.db.create_oid(oid)?;
        template::apply_on_create(&self.blueprint, &mut self.db, id, &mut self.audit)?;
        self.journal_sync(None)?;
        Ok(id)
    }

    /// Relates two OIDs (by address), attaching the template's
    /// PROPAGATE/TYPE annotation.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or self-links.
    pub fn connect(&mut self, from: OidId, to: OidId) -> Result<(), EngineError> {
        template::instantiate_link(&self.blueprint, &mut self.db, from, to)?;
        self.journal_sync(None)?;
        Ok(())
    }

    /// Relates two OIDs by triplet.
    ///
    /// # Errors
    ///
    /// Fails when either triplet is unknown.
    pub fn connect_oids(&mut self, from: &Oid, to: &Oid) -> Result<(), EngineError> {
        let f = self.db.require(from)?;
        let t = self.db.require(to)?;
        self.connect(f, t)
    }

    /// Resolves a triplet to its address.
    ///
    /// # Errors
    ///
    /// Fails when the triplet is unknown.
    pub fn resolve(&self, oid: &Oid) -> Result<OidId, EngineError> {
        Ok(self.db.require(oid)?)
    }

    // ------------------------------------------------------------------
    // Event traffic
    // ------------------------------------------------------------------

    /// Queues an event message on behalf of `user`.
    ///
    /// # Errors
    ///
    /// Fails when the target OID does not exist.
    pub fn post(&mut self, message: &EventMessage, user: &str) -> Result<(), EngineError> {
        let ev = QueuedEvent::from_message(&self.db, message, user)?;
        self.accept_event(ev);
        // A post's ack means "accepted and queued" — with journaling on,
        // the acceptance record is durable (or buffered for the batch
        // flush under group commit) before the ack.
        self.journal_sync(None)?;
        Ok(())
    }

    /// Queues an event from a raw `postEvent` line.
    ///
    /// # Errors
    ///
    /// Fails on wire-format errors or unknown targets.
    pub fn post_line(&mut self, line: &str, user: &str) -> Result<(), EngineError> {
        let message: EventMessage = line.parse::<EventMessage>().map_err(EngineError::Meta)?;
        self.post(&message, user)
    }

    /// A cloneable handle that concurrent wrapper threads can post through;
    /// the messages are folded into FIFO order at the next
    /// [`ProjectServer::process_all`].
    pub fn sender(&self) -> crossbeam::channel::Sender<crate::engine::queue::Posted> {
        self.queue.sender()
    }

    /// Drains the event queue to quiescence: processes every queued event,
    /// dispatches wrapper invocations, and feeds posted messages back until
    /// nothing is left. With a detached executor the drain also waits for
    /// every in-flight tool run to land and feeds its results through, so
    /// "quiescent" still means *fully* quiescent — and because results
    /// re-enter the queue in dispatch order (the pool's ordered harvest,
    /// see [`crate::engine::invoke`]), the final image is independent of
    /// worker scheduling and fault timing. Command loops that must not
    /// block behind slow tools use [`ProjectServer::process_round`].
    ///
    /// # Errors
    ///
    /// Policy violations under strict policies, database errors, or
    /// [`EngineError::Runaway`] when `max_events_per_drain` is exceeded.
    pub fn process_all(&mut self) -> Result<ProcessReport, EngineError> {
        let mut report = ProcessReport::default();
        loop {
            self.drain_round(&mut report)?;
            if self.invoker.in_flight() == 0 {
                break;
            }
            self.invoker.wait_harvest(INVOKE_POLL);
        }
        // One durability sync per drain: every op the wave performed is on
        // disk before process_all returns.
        self.journal_sync(None)?;
        Ok(report)
    }

    /// One non-blocking processing round: absorbs any landed detached
    /// results, drains the queue, and returns without waiting on
    /// still-running invocations — the command loop's building block, so
    /// a storm of retrying tools never stalls unrelated requests.
    /// [`ProjectServer::invocations_in_flight`] says whether more results
    /// are coming; the pool's wake callback
    /// ([`ProjectServer::set_invoke_wake`]) signals when to call again.
    ///
    /// # Errors
    ///
    /// As [`ProjectServer::process_all`].
    pub fn process_round(&mut self) -> Result<ProcessReport, EngineError> {
        let mut report = ProcessReport::default();
        self.drain_round(&mut report)?;
        self.journal_sync(None)?;
        Ok(report)
    }

    /// The shared drain: folds landed results and the wrapper inbox into
    /// the queue, then processes events one at a time until the queue is
    /// empty. Never waits on in-flight detached work.
    fn drain_round(&mut self, report: &mut ProcessReport) -> Result<(), EngineError> {
        loop {
            self.absorb_finished(report)?;
            // Reuse one inbox buffer across polls instead of allocating a
            // fresh Vec per drain.
            let mut inbox = std::mem::take(&mut self.inbox_buf);
            inbox.clear();
            self.queue.drain_inbox_into(&mut inbox);
            let drained: Result<(), EngineError> = inbox
                .iter()
                .try_for_each(|posted| self.enqueue_lenient(&posted.message, &posted.user));
            self.inbox_buf = inbox;
            drained?;
            let Some(ev) = self.queue.dequeue() else {
                return Ok(());
            };
            if report.events >= self.max_events_per_drain {
                return Err(EngineError::Runaway {
                    processed: report.events,
                });
            }
            let seq = ev.seq;
            let outcome = if self.ast_dispatch {
                self.engine
                    .process(&self.blueprint, &mut self.db, &mut self.audit, ev)?
            } else {
                self.engine.process_compiled_traced(
                    &self.compiled,
                    &mut self.db,
                    &mut self.audit,
                    &mut self.trace,
                    ev,
                )?
            };
            report.absorb(ProcessReport {
                events: 1,
                deliveries: outcome.delivered,
                ..Default::default()
            });
            self.mark_event_done(seq);
            self.dispatch_invocations(outcome.invocations, report)?;
        }
    }

    /// Records the terminal `EventDone` for a durably accepted event once
    /// its waves have run; the record travels in the same flush batch as
    /// the event's effects, so recovery either replays both or re-runs
    /// the event (at-least-once).
    fn mark_event_done(&mut self, seq: Option<u64>) {
        if self.durability.is_none() {
            return;
        }
        if let Some(seq) = seq {
            self.db.record_extra(JournalOp::EventDone { seq });
        }
    }

    /// Runs collected `exec`/`notify` invocations through the script
    /// executor, in order: inline runs feed their messages straight back
    /// into the queue; detached runs are journaled as in-flight and handed
    /// to the worker pool, their results coming back through the harvest
    /// in this same dispatch order.
    fn dispatch_invocations(
        &mut self,
        invocations: Vec<ScriptInvocation>,
        report: &mut ProcessReport,
    ) -> Result<(), EngineError> {
        for invocation in invocations {
            let id = self.next_invoke_id;
            self.next_invoke_id += 1;
            self.dispatch_one(id, invocation, true, report)?;
        }
        Ok(())
    }

    /// Dispatches one invocation under a fixed id (recovery re-dispatch
    /// reuses the id the crashed run was journaled under). `journal_queued`
    /// is false when the `InvokeQueued` record is already in the open
    /// journal (re-dispatch into a continued journal).
    fn dispatch_one(
        &mut self,
        id: u64,
        invocation: ScriptInvocation,
        journal_queued: bool,
        report: &mut ProcessReport,
    ) -> Result<(), EngineError> {
        let queued_op = self.durability.is_some().then(|| JournalOp::InvokeQueued {
            id,
            script: invocation.script.clone(),
            args: invocation.args.clone(),
            notify: invocation.notify,
            origin: invocation.origin.clone(),
            event: invocation.event.clone(),
        });
        if let Some(op) = queued_op.clone().filter(|_| journal_queued) {
            self.db.record_extra(op);
        }
        let prepared = {
            let mut ctx = ToolCtx {
                db: &mut self.db,
                workspace: &mut self.workspace,
                blueprint: &self.blueprint,
                audit: &mut self.audit,
            };
            self.executor.prepare(&invocation, &mut ctx)
        };
        report.scripts += 1;
        match prepared {
            PreparedRun::Inline(messages) => {
                // Queued and completed travel in one flush batch: an
                // inline run never appears in-flight after recovery.
                if self.durability.is_some() {
                    self.db.record_extra(JournalOp::InvokeCompleted { id });
                }
                for message in messages {
                    report.emitted += 1;
                    self.enqueue_lenient(&message, &invocation.script)?;
                }
            }
            PreparedRun::Detached(job) => {
                if let Some(op) = queued_op {
                    self.in_flight_ops.insert(id, op);
                }
                self.invoker.submit(
                    id,
                    &invocation.script,
                    &invocation.origin,
                    &invocation.event,
                    job,
                );
            }
        }
        Ok(())
    }

    /// Harvests terminal detached invocations (submission order, see
    /// [`crate::engine::invoke`]) and feeds them back: a completion
    /// journals `InvokeCompleted` and enqueues its result messages; an
    /// exhausted retry budget journals `InvokeFailed` and surfaces as a
    /// `tool_failed` event at the invocation's origin (args: script,
    /// attempts, reason) so blueprints can react to it like any other
    /// design event.
    fn absorb_finished(&mut self, report: &mut ProcessReport) -> Result<(), EngineError> {
        // Fold the pool's cumulative fault counters into the audit log as
        // allocation-free notes, so a retry/timeout storm shows up in
        // `audit` counters even with retention off.
        let stats = self.invoker.stats();
        let (seen_retries, seen_timeouts) = self.seen_invoke_faults;
        for _ in seen_retries..stats.retried {
            self.audit.note(AuditKind::InvokeRetried);
        }
        for _ in seen_timeouts..stats.timed_out {
            self.audit.note(AuditKind::InvokeTimedOut);
        }
        self.seen_invoke_faults = (stats.retried, stats.timed_out);
        for fin in self.invoker.harvest() {
            self.in_flight_ops.remove(&fin.id);
            let FinishedInvocation {
                id,
                script,
                origin,
                outcome,
                ..
            } = fin;
            if self.trace.enabled() {
                let (attempts, ok) = match &outcome {
                    InvokeOutcome::Completed { attempts, .. } => (*attempts, true),
                    InvokeOutcome::Failed { attempts, .. } => (*attempts, false),
                };
                self.trace.push(TraceRecord::Settle {
                    script: script.clone(),
                    attempts: u64::from(attempts),
                    ok,
                });
            }
            match outcome {
                InvokeOutcome::Completed { messages, .. } => {
                    if self.durability.is_some() {
                        self.db.record_extra(JournalOp::InvokeCompleted { id });
                    }
                    for message in messages {
                        report.emitted += 1;
                        self.enqueue_lenient(&message, &script)?;
                    }
                }
                InvokeOutcome::Failed { attempts, reason } => {
                    self.audit.note(AuditKind::InvokeExhausted);
                    if self.durability.is_some() {
                        self.db.record_extra(JournalOp::InvokeFailed {
                            id,
                            attempts: u64::from(attempts),
                            reason: reason.clone(),
                        });
                    }
                    // An unparseable origin (never produced by the rule
                    // engine) has nowhere to land; the journal record
                    // above still documents the failure.
                    if let Ok(target) = origin.parse::<Oid>() {
                        let message = EventMessage::new("tool_failed", Direction::Up, target)
                            .with_arg(script.clone())
                            .with_arg(attempts.to_string())
                            .with_arg(reason);
                        report.emitted += 1;
                        self.enqueue_lenient(&message, &script)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Accepts one resolved event into the queue. With journaling on, the
    /// event is stamped with the next durable sequence number and its
    /// `EventQueued` work record enters the op buffer *before* the event
    /// enters the in-memory queue — so an acknowledged post survives a
    /// crash and is replayed on recovery.
    fn accept_event(&mut self, mut ev: QueuedEvent) {
        if self.durability.is_some() {
            let seq = self.next_event_seq;
            self.next_event_seq += 1;
            ev.seq = Some(seq);
            if let Some(op) = event_queued_op(&self.db, &ev) {
                self.db.record_extra(op);
            }
        }
        self.queue.enqueue(ev);
    }

    /// Enqueues a message; unknown targets are dropped under lenient
    /// policies (a wrapper may race a deletion) and rejected under strict
    /// ones.
    fn enqueue_lenient(&mut self, message: &EventMessage, user: &str) -> Result<(), EngineError> {
        match QueuedEvent::from_message(&self.db, message, user) {
            Ok(ev) => {
                self.accept_event(ev);
                Ok(())
            }
            Err(MetaError::UnknownOid { .. })
                if self.engine.policy.unknown_views != Strictness::Reject =>
            {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Re-animates the accepted-but-unfinished work a recovered journal
    /// carried: pending events return to the queue, in-flight invocations
    /// re-dispatch through the executor under their original ids — the
    /// at-least-once half of the durable work queue. With `rejournal`
    /// (the fold path) their work records are written again into the
    /// fresh epoch; a continued journal already holds them. Targets that
    /// no longer resolve are dropped, mirroring the lenient enqueue.
    fn restore_pending_work(
        &mut self,
        pending: journal::PendingWork,
        rejournal: bool,
    ) -> Result<(), EngineError> {
        self.next_event_seq = self.next_event_seq.max(pending.next_event_seq);
        self.next_invoke_id = self.next_invoke_id.max(pending.next_invoke_id);
        for op in pending.events {
            let JournalOp::EventQueued {
                seq,
                event,
                direction,
                propagate,
                target,
                args,
                user,
            } = op
            else {
                continue;
            };
            let Some(id) = self.db.resolve(&target) else {
                continue;
            };
            let ev = QueuedEvent {
                event,
                direction: if direction == "down" {
                    Direction::Down
                } else {
                    Direction::Up
                },
                delivery: if propagate {
                    Delivery::PropagateFrom(id)
                } else {
                    Delivery::Target(id)
                },
                args,
                user,
                seq: Some(seq),
            };
            if rejournal {
                if let Some(op) = event_queued_op(&self.db, &ev) {
                    self.db.record_extra(op);
                }
            }
            self.queue.enqueue(ev);
        }
        let mut report = ProcessReport::default();
        for op in pending.invocations {
            let JournalOp::InvokeQueued {
                id,
                script,
                args,
                notify,
                origin,
                event,
            } = op
            else {
                continue;
            };
            let invocation = ScriptInvocation {
                script,
                args,
                notify,
                origin,
                event,
            };
            self.dispatch_one(id, invocation, rejournal, &mut report)?;
        }
        self.journal_sync(None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exec::RecordingExecutor;

    const SIMPLE: &str = r#"
        blueprint simple
        view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
        endview
        view HDL_model
            property sim_result default bad
            when hdl_sim do sim_result = $arg done
        endview
        view schematic
            link_from HDL_model move propagates outofdate type derived
            use_link move propagates outofdate
            when ckin do exec netlister "$oid" done
        endview
        endblueprint
    "#;

    #[test]
    fn from_source_validates() {
        assert!(ProjectServer::from_source(SIMPLE).is_ok());
        let broken = "blueprint b view a endview view a endview endblueprint";
        assert!(matches!(
            ProjectServer::from_source(broken),
            Err(EngineError::Invalid { .. })
        ));
    }

    #[test]
    fn checkin_queues_and_processes_ckin() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        assert_eq!(server.pending_events(), 1);
        let report = server.process_all().unwrap();
        assert_eq!(report.events, 1);
        assert_eq!(server.pending_events(), 0);
        assert_eq!(server.prop(&hdl, "uptodate").unwrap(), Value::Bool(true));
        assert_eq!(server.prop(&hdl, "owner").unwrap().as_atom(), "yves");
    }

    #[test]
    fn post_line_accepts_wire_format() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        server
            .post_line(&format!("postEvent hdl_sim up {hdl} \"good\""), "simwrap")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&hdl, "sim_result").unwrap().as_atom(), "good");
    }

    #[test]
    fn change_propagates_to_derived_views() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        let sch = server
            .checkin("cpu", "schematic", "synth", b"s1".to_vec())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&sch, "uptodate").unwrap(), Value::Bool(true));

        server
            .checkin("cpu", "HDL_model", "yves", b"v2".to_vec())
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&sch, "uptodate").unwrap(), Value::Bool(false));
    }

    #[test]
    fn executor_receives_exec_invocations() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.executor().invocations_of("netlister").len(), 1);
    }

    #[test]
    fn executor_replies_are_fed_back() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut exec = RecordingExecutor::new();
        // When the netlister runs, it reports an hdl_sim result for the HDL
        // model (contrived, but exercises the feedback loop).
        exec.reply_with(
            "netlister",
            vec!["postEvent hdl_sim up cpu,HDL_model,1 \"good\""
                .parse()
                .unwrap()],
        );
        let mut server = ProjectServer::with_executor(bp, exec).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        let report = server.process_all().unwrap();
        assert_eq!(report.scripts, 1);
        assert_eq!(report.emitted, 1);
        assert_eq!(server.prop(&hdl, "sim_result").unwrap().as_atom(), "good");
    }

    #[test]
    fn frozen_view_rejects_checkin() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.policy_mut().frozen_views.insert("schematic".into());
        let err = server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Policy(PolicyViolation::FrozenView { .. })
        ));
    }

    #[test]
    fn reinit_swaps_blueprint_keeping_data() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        // Loosened blueprint: outofdate propagation removed.
        server
            .reinit_from_source(
                r#"blueprint loose
                view default
                    property uptodate default true
                endview
                view HDL_model endview
                view schematic endview
                endblueprint"#,
            )
            .unwrap();
        assert_eq!(server.blueprint().name, "loose");
        // Data survived.
        assert!(server.prop(&hdl, "uptodate").is_some());
        // Bad blueprint: reinit fails, old one stays.
        let err =
            server.reinit_from_source("blueprint x view a endview view a endview endblueprint");
        assert!(err.is_err());
        assert_eq!(server.blueprint().name, "loose");
    }

    #[test]
    fn concurrent_wrappers_post_through_sender() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        let sender = server.sender();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = sender.clone();
                let oid = hdl.clone();
                std::thread::spawn(move || {
                    tx.send(crate::engine::queue::Posted {
                        message: EventMessage::new("hdl_sim", Direction::Up, oid)
                            .with_arg(format!("run {i}")),
                        user: format!("sim{i}"),
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.process_all().unwrap();
        assert_eq!(report.events, 4);
        // Last writer wins; any of the four is acceptable, but one landed.
        assert!(server
            .prop(&hdl, "sim_result")
            .unwrap()
            .as_atom()
            .starts_with("run "));
    }

    #[test]
    fn runaway_guard_trips() {
        // Self-feeding executor: every netlister run checks in a new
        // schematic, which runs the netlister again, forever.
        #[derive(Debug, Default)]
        struct SelfFeeding;
        impl ScriptExecutor for SelfFeeding {
            fn execute(
                &mut self,
                _inv: &crate::engine::exec::ScriptInvocation,
                ctx: &mut ToolCtx<'_>,
            ) -> Vec<EventMessage> {
                let (_, oid) = ctx
                    .create_versioned("cpu", "schematic", "netlister", b"n".to_vec())
                    .unwrap();
                vec![EventMessage::new("ckin", Direction::Up, oid)]
            }
        }
        let bp = parser::parse(SIMPLE).unwrap();
        let mut server = ProjectServer::with_executor(bp, SelfFeeding).unwrap();
        server.max_events_per_drain = 50;
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        let err = server.process_all().unwrap_err();
        assert!(matches!(err, EngineError::Runaway { processed: 50 }));
    }

    #[test]
    fn adopt_project_invalidates_view_dispatch_cache() {
        // Two views with opposite rules for the same event; the adopted
        // database interns the view names in the OPPOSITE order, so a
        // stale per-view dispatch cache would run alpha's rule on beta.
        let mut server = ProjectServer::from_source(
            r#"blueprint cache
            view alpha
                when ping do mark = from_alpha done
            endview
            view beta
                when ping do mark = from_beta done
            endview
            endblueprint"#,
        )
        .unwrap();
        let a = Oid::new("blk", "alpha", 1);
        let b = Oid::new("blk", "beta", 1);
        server.create_object(a.clone()).unwrap();
        server.create_object(b.clone()).unwrap();
        // Warm the cache for both view symbols (alpha=0, beta=1 here).
        server
            .post_line("postEvent ping up blk,alpha,1", "t")
            .unwrap();
        server
            .post_line("postEvent ping up blk,beta,1", "t")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&a, "mark").unwrap().as_atom(), "from_alpha");

        // Adopted database interns beta FIRST (beta=0, alpha=1).
        let mut db = MetaDb::new();
        db.create_oid(b.clone()).unwrap();
        db.create_oid(a.clone()).unwrap();
        server.adopt_project(db, Workspace::new("adopted"));
        server
            .post_line("postEvent ping up blk,beta,1", "t")
            .unwrap();
        server
            .post_line("postEvent ping up blk,alpha,1", "t")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(
            server.prop(&b, "mark").unwrap().as_atom(),
            "from_beta",
            "stale view cache served alpha's dispatch table for beta"
        );
        assert_eq!(server.prop(&a, "mark").unwrap().as_atom(), "from_alpha");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("damocles-srv-journal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_checkpoint_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.enable_journal(&dir, 10_000).unwrap();
        assert!(server.journal_enabled());
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        let sch = server
            .checkin("cpu", "schematic", "synth", b"s1".to_vec())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.process_all().unwrap();
        assert!(server.journal_records().unwrap() > 0, "ops were journaled");
        let image_before = damocles_meta::persist::save(server.db());

        // A fresh server recovers the whole project from snapshot + tail.
        let mut crashed = ProjectServer::from_source(SIMPLE).unwrap();
        let report = crashed.recover_journal(&dir, 10_000).unwrap();
        assert!(report.replayed_ops > 0, "{report:?}");
        assert_eq!(
            damocles_meta::persist::save(crashed.db()),
            image_before,
            "recovered image matches the pre-crash database byte-for-byte"
        );
        // Payloads came back through the journal's data records.
        let id = crashed.resolve(&hdl).unwrap();
        assert_eq!(
            crashed.workspace().datum(id).unwrap().content,
            b"v1".to_vec()
        );
        // And tracking continues: a new HDL version invalidates the
        // recovered schematic.
        crashed
            .checkin("cpu", "HDL_model", "yves", b"v2".to_vec())
            .unwrap();
        crashed.process_all().unwrap();
        assert_eq!(crashed.prop(&sch, "uptodate").unwrap(), Value::Bool(false));
    }

    #[test]
    fn checkpoint_policy_folds_every_n_ops() {
        let dir = temp_dir("fold");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let epoch0 = server.enable_journal(&dir, 8).unwrap();
        for i in 0..6 {
            server
                .checkin("cpu", "HDL_model", "yves", format!("v{i}").into_bytes())
                .unwrap();
            server.process_all().unwrap();
        }
        let epoch = server.journal_epoch().unwrap();
        assert!(epoch > epoch0, "auto-checkpoint advanced the epoch");
        // After a fold the journal restarts small.
        assert!(server.journal_records().unwrap() < 8 * 6);
        // Explicit checkpoint empties it entirely and still recovers.
        server.checkpoint().unwrap();
        assert_eq!(server.journal_records().unwrap(), 0);
        let image = damocles_meta::persist::save(server.db());
        let mut fresh = ProjectServer::from_source(SIMPLE).unwrap();
        fresh.recover_journal(&dir, 8).unwrap();
        assert_eq!(damocles_meta::persist::save(fresh.db()), image);
    }

    /// A large image under small ops: past `every` records the journal is
    /// still not folded while it is smaller than its snapshot; the first
    /// flush that makes it at least that large folds; an explicit
    /// `checkpoint` folds at once, whatever the journal holds.
    #[test]
    fn checkpoint_policy_waits_for_the_journal_to_outgrow_its_snapshot() {
        const EVERY: u64 = 4;
        let dir = temp_dir("fold-bytes");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        for i in 0..16 {
            server
                .checkin(&format!("big{i}"), "HDL_model", "yves", vec![b'x'; 1024])
                .unwrap();
        }
        server.process_all().unwrap();
        let epoch0 = server.enable_journal(&dir, EVERY).unwrap();
        let file_len = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        let snapshot_len = file_len(SNAPSHOT_FILE);
        let header_len = journal::encode_header(epoch0, server.current_term()).len() as u64;
        assert!(snapshot_len > 16 * 2048, "payloads are in the image");

        server.set_group_commit(true).unwrap();
        let mut held_past_every = 0;
        for i in 0.. {
            server
                .create_object(Oid::new(format!("small{i}"), "HDL_model", 1))
                .unwrap();
            // The bytes this flush appends: the buffered ops, encoded at
            // the sequence numbers they will take.
            let records = server.journal_records().unwrap();
            let ops = server.db.drain_journal_ops();
            let appended: u64 = (records..)
                .zip(&ops)
                .map(|(seq, op)| journal::encode_record(seq, op).len() as u64)
                .sum();
            let after = file_len(JOURNAL_FILE) + appended;
            let after_records = records + ops.len() as u64;
            for op in ops {
                server.db.record_extra(op);
            }
            server.flush_journal().unwrap();
            let outgrown = after - header_len >= snapshot_len;
            let folded = server.journal_epoch() != Some(epoch0);
            assert_eq!(
                folded, outgrown,
                "flush {i}: {after_records} records, {after} B journal, {snapshot_len} B snapshot"
            );
            if folded {
                break;
            }
            assert_eq!(file_len(JOURNAL_FILE), after);
            if after_records >= EVERY {
                held_past_every += 1;
            }
        }
        assert!(
            held_past_every > 0,
            "the byte bound held a fold past `every`"
        );
        // Nothing was queued or in flight: the fresh journal is empty.
        assert_eq!(server.journal_records(), Some(0));

        // An explicit checkpoint folds at once, far below both bounds.
        server
            .create_object(Oid::new("tiny", "HDL_model", 1))
            .unwrap();
        server.flush_journal().unwrap();
        let epoch = server.journal_epoch().unwrap();
        assert!(server.journal_records().unwrap() < EVERY);
        assert_eq!(server.checkpoint().unwrap(), epoch + 1);
        assert_eq!(server.journal_records(), Some(0));
        let image = damocles_meta::persist::save(server.db());
        let mut fresh = ProjectServer::from_source(SIMPLE).unwrap();
        fresh.recover_journal(&dir, EVERY).unwrap();
        assert_eq!(damocles_meta::persist::save(fresh.db()), image);
    }

    /// Work records a fold re-seeds belong to the checkpoint, not to the
    /// journal's growth: a queued backlog larger than the snapshot does
    /// not make every later flush fold again.
    #[test]
    fn carried_backlog_does_not_count_toward_the_next_fold() {
        let dir = temp_dir("fold-backlog");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        // A snapshot larger than a few small ops, smaller than the backlog.
        server
            .checkin("cpu", "HDL_model", "yves", vec![b'x'; 1024])
            .unwrap();
        server.process_all().unwrap();
        let epoch0 = server.enable_journal(&dir, 1).unwrap();
        server.set_group_commit(true).unwrap();
        for i in 0..64 {
            server
                .post_line(
                    &format!("postEvent hdl_sim up cpu,HDL_model,1 \"run {i}\""),
                    "t",
                )
                .unwrap();
        }
        server.flush_journal().unwrap();
        // The backlog outgrew the snapshot: one fold, which carried all
        // 64 queued events into the fresh journal.
        assert_eq!(server.journal_epoch(), Some(epoch0 + 1));
        assert_eq!(server.journal_records(), Some(64));
        let snapshot_len = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        let journal_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(
            journal_len > snapshot_len,
            "{journal_len} B vs {snapshot_len} B"
        );
        for i in 0..3 {
            server
                .create_object(Oid::new(format!("blk{i}"), "HDL_model", 1))
                .unwrap();
            server.flush_journal().unwrap();
            assert_eq!(server.journal_epoch(), Some(epoch0 + 1), "flush {i} folded");
        }
    }

    #[test]
    fn checkpoint_without_journal_errors() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        assert!(matches!(
            server.checkpoint(),
            Err(EngineError::Journal { .. })
        ));
        assert!(!server.journal_enabled());
    }

    #[test]
    fn torn_journal_tail_recovers_prefix() {
        let dir = temp_dir("torn");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.enable_journal(&dir, 10_000).unwrap();
        server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        // Simulate a crash mid-append: chop bytes off the journal tail.
        let jpath = dir.join("journal.djl");
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 11]).unwrap();
        let mut crashed = ProjectServer::from_source(SIMPLE).unwrap();
        let report = crashed.recover_journal(&dir, 10_000).unwrap();
        assert!(report.torn_tail.is_some(), "{report:?}");
        // The HDL object from the valid prefix survived.
        assert_eq!(crashed.db().oid_count(), 1);
    }

    #[test]
    fn lenient_drop_of_unknown_targets() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut exec = RecordingExecutor::new();
        exec.reply_with(
            "netlister",
            vec!["postEvent nl_sim down ghost,netlist,9".parse().unwrap()],
        );
        let mut server = ProjectServer::with_executor(bp, exec).unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        // The ghost target is dropped, not an error.
        let report = server.process_all().unwrap();
        assert_eq!(report.emitted, 1);
        assert_eq!(report.events, 1);
    }
}
