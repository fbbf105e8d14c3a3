//! The typed command protocol: every way of talking to a project server.
//!
//! The paper's wrapper programs drive DAMOCLES by emitting `postEvent`
//! lines "over the network" (§3.1). This module generalizes that single
//! wire line into a full command protocol: a serializable [`Request`] enum
//! covering every server operation, a typed [`Response`] enum carrying
//! structured results, and a structured [`ApiError`] mirroring the
//! [`EngineError`] taxonomy — no pre-formatted strings on the wire.
//!
//! Every client surface speaks this protocol:
//!
//! * the `Shell` parses a command line into a [`Request`] and renders the
//!   [`Response`] as text;
//! * the `damocles` binary drives the shell, so scripts and the REPL ride
//!   the same types;
//! * the `damocles_server` binary frames the text codec over TCP, one
//!   request line per response line, so external wrapper processes post
//!   events exactly as the paper describes;
//! * tests and future replicas replay request streams directly.
//!
//! # Text codec
//!
//! [`Request::encode`]/[`Request::decode`] (and the same pair on
//! [`Response`]) define a line-oriented canonical form reusing the
//! `persist` encodings (percent-escaped words, `b:`/`i:`/`s:` value tags,
//! hex payloads) — so a request round-trips over a socket or a file
//! byte-identically:
//!
//! ```text
//! checkin CPU HDL_model yves 6d6f64756c65
//! post simwrap hdl_sim up reg,verilog,4 logic%20sim%20passed
//! process
//! ```
//!
//! ```text
//! created CPU,HDL_model,1
//! ok
//! processed 2 3 1 0
//! ```
//!
//! A line is its keyword, then each field's words in declaration order.
//! [`Request`], [`Response`] and [`ApiError`] are each declared once, as a
//! table: a variant names its keyword (`Checkin = "checkin"`) and each
//! field the grammar element its parse errors report (`block: String ["a
//! block name"]`). The table generates the enum and its codec, so adding
//! a wire form is one table entry. A field's type picks its codec: one
//! word for strings, numbers, OIDs, values, `0`/`1` flags and hex
//! payloads, `-`/`+<word>` for an `Option`, a count and then the items
//! for a `Vec`.
//!
//! Decoding failures are themselves structured: [`ApiError::Parse`] names
//! the byte offset, the offending token and the expected grammar element.

use std::fmt;
use std::fmt::Write as _;

use damocles_meta::persist::{decode_hex, decode_value, encode_hex, encode_value};
use damocles_meta::{Direction, EventMessage, MetaError, Oid, Value};

use crate::engine::error::EngineError;
use crate::engine::policy::PolicyViolation;
use crate::engine::server::ProcessReport;

// ---------------------------------------------------------------------
// Wire tables
// ---------------------------------------------------------------------

/// Declares a protocol enum once: the type, its wire keywords and its
/// field codecs. A variant reads `Name = "keyword"`, followed by a `{
/// field: Type [expected…] }` body, a `(Type)` body or nothing. The
/// `[expected…]` strings name the grammar element(s) the field's parse
/// errors report; `field: Type as Codec […]` reads the field with
/// `Codec` instead of the type's own [`Wire`] codec. The header's string
/// names the keyword itself, and the function after `else` builds the
/// error for an unknown one.
///
/// The enum gets private `put_words`/`take_words` codecs and is a [`Wire`]
/// field itself, which is how `err <kind> …` nests the [`ApiError`] table
/// in [`Response::Error`]. The `struct` form declares a record: its fields
/// back to back, with no keyword.
macro_rules! wire_enum {
    // Binds a `(Type)` variant's field to `$i`: the pattern repeats once
    // per `$t`, and a repetition must mention a metavariable.
    (@bind $t:ty, $i:ident) => { $i };
    // The field's codec: its own type, or the one named after `as`.
    (@codec $t:ty) => { $t };
    (@codec $t:ty, $codec:ty) => { $codec };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $what:literal else $unknown:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $word:literal
                $(($inner:ty))?
                $({$(
                    $(#[$fmeta:meta])*
                    $field:ident: $fty:ty $(as $codec:ty)? [$($ex:literal),*]
                ),* $(,)?})?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($inner))? $({$($(#[$fmeta])* $field: $fty),*})?,
            )*
        }

        impl $name {
            fn put_words(&self, out: &mut String) {
                match self {
                    $(
                        Self::$variant $((wire_enum!(@bind $inner, inner)))? $({$($field),*})? => {
                            out.push_str($word);
                            $(<$inner as Wire>::put(inner, out);)?
                            $($(
                                <wire_enum!(@codec $fty $(, $codec)?) as Wire<$fty>>::put($field, out);
                            )*)?
                        }
                    )*
                }
            }

            fn take_words(c: &mut Cursor<'_>) -> Result<Self, ApiError> {
                let (at, word) = c.next_word($what)?;
                Ok(match word {
                    $(
                        $word => Self::$variant
                            $((<$inner as Wire>::take(c, &[])?))?
                            $({$(
                                $field: <wire_enum!(@codec $fty $(, $codec)?) as Wire<$fty>>::take(
                                    c,
                                    &[$($ex),*],
                                )?,
                            )*})?,
                    )*
                    other => return Err($unknown(at as u64, other, $what)),
                })
            }
        }

        impl Wire for $name {
            fn put(v: &Self, out: &mut String) {
                out.push(' ');
                v.put_words(out);
            }

            fn take(c: &mut Cursor<'_>, _: &[&str]) -> Result<Self, ApiError> {
                Self::take_words(c)
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: $fty:ty [$($ex:literal),*]
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty),*
        }

        impl Wire for $name {
            fn put(v: &Self, out: &mut String) {
                $(<$fty as Wire>::put(&v.$field, out);)*
            }

            fn take(c: &mut Cursor<'_>, _: &[&str]) -> Result<Self, ApiError> {
                Ok($name {
                    $($field: <$fty as Wire>::take(c, &[$($ex),*])?,)*
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// Identifies one client session at the command loop. Tagged onto every
/// queued request so the loop can serialize many concurrent clients onto
/// the single engine while keeping replies routable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Default fewest records between checkpoint folds for
/// `EnableJournal`/`Recover` when a front-end lets the user omit it — shared by the shell and the
/// `damocles_server` binary so the two front doors fold identically.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

wire_enum! {
    /// One typed command to a project server — the union of every operation a
    /// client (shell, wrapper program, replica, test harness) can ask for.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum Request: "a request keyword" else unknown_command {
        /// Load a blueprint from source text, creating the project server.
        Init = "init" {
            /// Blueprint source (the client reads the file; the server never
            /// touches client-side paths).
            source: String ["the blueprint source (escaped)"],
        },
        /// Replace the blueprint, keeping database/workspace/queue (§3.2).
        Reinit = "reinit" {
            /// New blueprint source.
            source: String ["the blueprint source (escaped)"],
        },
        /// Check design data in: next version OID, templates, `ckin` event.
        Checkin = "checkin" {
            /// Block name.
            block: String ["a block name"],
            /// View type.
            view: String ["a view type"],
            /// The designer checking in.
            user: String ["a user name"],
            /// Opaque design data.
            payload: Vec<u8> ["a hex payload or `-`"],
        },
        /// Reserve a `(block, view)` chain for a user.
        Checkout = "checkout" {
            /// Block name.
            block: String ["a block name"],
            /// View type.
            view: String ["a view type"],
            /// The designer checking out.
            user: String ["a user name"],
        },
        /// Create a bare OID (no payload, no `ckin` event).
        CreateObject = "create" {
            /// The triplet to create.
            oid: Oid ["an OID `block,view,version`"],
        },
        /// Relate two OIDs, template-filling the link annotation.
        Connect = "connect" {
            /// Source end.
            from: Oid ["a source OID"],
            /// Destination end.
            to: Oid ["a destination OID"],
        },
        /// Queue a design-event message (§3.1). Under journaling the ack
        /// means *durably accepted*: the event is journaled as accepted work
        /// before the reply, and recovery re-enqueues accepted events whose
        /// processing never committed (at-least-once replay).
        Post = "post" {
            /// The posting user or wrapper.
            user: String ["a user name"],
            /// The event message.
            message: EventMessage [
                "an event name",
                "a direction (`up` or `down`)",
                "a target OID",
                "an argument"
            ],
        },
        /// Drain the event queue: every queued event executes and every
        /// already-finished detached tool invocation is absorbed. Detached
        /// invocations still running when the drain returns post their
        /// results back through later pumps ([`Request::PumpInvocations`],
        /// issued automatically by the command loop while idle) — the loop
        /// is never parked behind a slow tool.
        ProcessAll = "process",
        /// Re-evaluate every continuous assignment (deferred `let`s).
        RefreshLets = "refresh",
        /// Run a `qlang` query.
        Query = "query" {
            /// Query terms, e.g. `view=schematic stale.uptodate latest`.
            terms: String ["query terms (escaped)"],
        },
        /// Properties of one OID.
        Show = "show" {
            /// The triplet to show.
            oid: Oid ["an OID `block,view,version`"],
        },
        /// What still blocks `oid` from reaching a planned state.
        WorkLeft = "workleft" {
            /// The target OID.
            oid: Oid ["an OID `block,view,version`"],
            /// The state property.
            prop: String ["a state property name"],
        },
        /// Per-view aggregate of a state property.
        Summary = "summary" {
            /// The state property.
            prop: String ["a state property name"],
        },
        /// Pin the dependency closure of `root` as a named Configuration.
        Snapshot = "snapshot" {
            /// Configuration name.
            name: String ["a configuration name"],
            /// Root OID of the closure.
            root: Oid ["a root OID"],
        },
        /// List stored configurations.
        ListSnapshots = "snapshots",
        /// Forbid check-ins to a view.
        Freeze = "freeze" {
            /// The view to freeze.
            view: String ["a view name"],
        },
        /// Re-allow check-ins to a view.
        Thaw = "thaw" {
            /// The view to thaw.
            view: String ["a view name"],
        },
        /// Enable op-journal durability under a directory.
        EnableJournal = "journal" {
            /// Durability directory (server-side path).
            dir: String ["a directory path"],
            /// Fewest records between folds; a fold also waits until the
            /// journal has grown by the snapshot's byte length.
            every: u64 ["a checkpoint interval"],
        },
        /// Fold the journal into a fresh snapshot now.
        Checkpoint = "checkpoint",
        /// Restore the project from `snapshot + journal tail`.
        Recover = "recover" {
            /// Durability directory (server-side path).
            dir: String ["a directory path"],
            /// Fewest records between folds after recovery (see
            /// [`Request::EnableJournal`]).
            every: u64 ["a checkpoint interval"],
        },
        /// Persist database + payloads to a file (server-side path).
        SaveProject = "save" {
            /// Destination file.
            path: String ["a file path"],
        },
        /// Restore database + payloads from a file (server-side path).
        LoadProject = "load" {
            /// Source file.
            path: String ["a file path"],
        },
        /// Full textual database dump.
        Dump = "dump",
        /// Graphviz dump of the live design state.
        Dot = "dot",
        /// Engine audit counters.
        Audit = "audit",
        /// Server statistics (database size, queue depth, journal state).
        Stat = "stat",
        /// A no-op kept for wire compatibility: waves always drain one event
        /// at a time, so the worker count is ignored and the reply is `ok`.
        SetWaveWorkers = "waveworkers" {
            /// Ignored.
            workers: u64 ["a worker count"],
        },
        /// Set the retry policy for detached tool invocations: how many times
        /// a failed attempt is retried, the exponential backoff between
        /// attempts, and the per-attempt wall-clock budget. With `script:
        /// None` this sets the default policy; with `Some(name)` it overrides
        /// the policy for that script only. Survives `Init` server swaps,
        /// like group-commit mode.
        SetRetryPolicy = "retry" {
            /// The script (tool) the policy applies to; `None` = the default
            /// policy for scripts without an override.
            script: Option<String> ["a script (`-` = default policy)"],
            /// Retries after the first failed attempt (`0` = one attempt
            /// only).
            max_retries: u64 ["a retry count"],
            /// Delay before the first retry, in milliseconds.
            base_delay_ms: u64 ["a base delay (ms)"],
            /// Backoff multiplier: retry *n* waits `base_delay ·
            /// multiplier^(n-1)`.
            multiplier: u64 ["a backoff multiplier"],
            /// Per-attempt wall-clock budget in milliseconds; an attempt
            /// finishing later counts as failed.
            timeout_ms: u64 ["a per-attempt timeout (ms)"],
        },
        /// Absorb finished detached invocations and run one non-blocking
        /// queue drain. The command loop issues this to itself when the
        /// worker pool signals finished work, so results flow back between
        /// client commands; clients may also send it to poll.
        PumpInvocations = "pump",
        /// Replication handshake: stream committed journal records from
        /// `(epoch, seq)` on. Requires journaling on the receiving server.
        ///
        /// Over a streaming transport (the TCP front door) the
        /// [`Response::Tailing`] reply is followed by tail frames
        /// ([`TailFrame`](crate::engine::tail::TailFrame) lines) until the
        /// client disconnects; a brand-new follower sends `(0, 0)` and is
        /// bootstrapped with a snapshot. See `PROTOCOL.md` §5.
        TailFrom = "tailfrom" {
            /// The checkpoint epoch the follower is at.
            epoch: u64 ["a checkpoint epoch"],
            /// The next record sequence number the follower expects.
            seq: u64 ["a record sequence number"],
        },
        /// Promote a caught-up follower into a leader under a new fencing
        /// term: enable a local journal at the replica's cursor (its epoch
        /// strictly exceeds the consumed one), open the node's own tail hub
        /// under `term`, and start accepting mutations. Refused with
        /// [`ApiError::StaleTerm`] when `term` does not exceed the highest
        /// term the node has seen, and with [`ApiError::Lagging`] before the
        /// first bootstrap. On a node that is already a leader the request is
        /// [`ApiError::StaleTerm`] unless `term` beats its current term —
        /// re-promoting a live leader to a higher term is a legal no-op-ish
        /// re-journal. See `PROTOCOL.md` §7 and `DESIGN.md` §13.
        Promote = "promote" {
            /// Durability directory for the promoted node's own journal
            /// (server-side path).
            dir: String ["a directory path"],
            /// Fewest records between folds; a fold also waits until the
            /// journal has grown by the snapshot's byte length.
            every: u64 ["a checkpoint interval"],
            /// The new leadership term; must strictly exceed every term this
            /// node has observed.
            term: u64 ["a leadership term"],
        },
        /// Fence this node out of leadership term `term`: a barrier that
        /// flushes the group-commit window, then terminally disables the
        /// node's durability and refuses every later mutation with
        /// [`ApiError::StaleTerm`]. Sent to a deposed (revived) leader so it
        /// can never dual-commit against the reign that replaced it. Refused
        /// with [`ApiError::StaleTerm`] when `term` does not exceed the
        /// node's current term (a stale fencer cannot depose a newer reign).
        Fence = "fence" {
            /// The newer term doing the fencing.
            term: u64 ["a leadership term"],
        },
        /// Deterministic time-travel replay: rebuild the image the server had
        /// at journal cursor `(epoch, seq)` — the snapshot of `epoch` plus the
        /// first `seq` journal records — in a scratch database, leaving the
        /// live server untouched. Requires journaling; only the current epoch
        /// is addressable (earlier snapshots are folded away by checkpoints).
        /// The reply carries the reconstructed image so "journal dir +
        /// cursor" is a complete bug report. See `PROTOCOL.md` §6.
        Replay = "replay" {
            /// The checkpoint epoch to replay within.
            epoch: u64 ["a checkpoint epoch"],
            /// Journal records to replay on top of the snapshot (`0` = the
            /// snapshot alone).
            seq: u64 ["a journal cursor sequence"],
        },
        /// Control execution tracing ([`TraceLog`](crate::engine::trace::TraceLog)):
        /// turn per-wave step retention on or off, or drain the records
        /// captured since the last get. Retention is off by default and costs
        /// nothing when off.
        Trace = "trace" {
            /// What to do with the trace log.
            mode: TraceMode ["a trace mode (`on`, `off` or `get`)"],
        },
        /// Attach this session to a fleet project: subsequent requests on the
        /// session route to that tenant's engine (see
        /// [`fleet`](crate::engine::fleet)). Wire form `project <name>`, with
        /// a trailing `new` to register the project on first attach. A
        /// single-project node answers [`ApiError::NoFleet`].
        Attach = "project" {
            /// The project (tenant) name — one path component under the fleet
            /// root, no separators.
            project: String ["a project name"],
            /// Register the project if it does not exist yet; without it an
            /// unknown name answers [`ApiError::NoSuchProject`].
            create: bool as NewFlag ["`new` or end of line"],
        },
        /// List the fleet's registered projects and whether each is currently
        /// activated in memory. Wire form `projects`; a single-project node
        /// answers [`ApiError::NoFleet`].
        ListProjects = "projects",
    }
}

/// The operation of a [`Request::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Start retaining per-wave step records.
    On,
    /// Stop retaining and drop anything captured.
    Off,
    /// Drain the records captured since the last `Get`.
    Get,
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceMode::On => "on",
            TraceMode::Off => "off",
            TraceMode::Get => "get",
        })
    }
}

impl Request {
    /// Whether this request must run against a flushed journal, outside
    /// any group-commit window (it swaps or re-bases durable state — or,
    /// for `Replay`, reads the on-disk journal files directly).
    pub fn is_barrier(&self) -> bool {
        matches!(
            self,
            Request::Init { .. }
                | Request::Reinit { .. }
                | Request::EnableJournal { .. }
                | Request::Checkpoint
                | Request::Recover { .. }
                | Request::SaveProject { .. }
                | Request::LoadProject { .. }
                | Request::Replay { .. }
                | Request::Promote { .. }
                | Request::Fence { .. }
        )
    }

    /// Whether this request can mutate durable state (used by the command
    /// loop to decide what a group-commit flush failure poisons).
    /// `SetRetryPolicy` and `PumpInvocations` count as mutations (a pump
    /// journals invocation completions) but not barriers — they ride
    /// inside group-commit windows.
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            Request::Query { .. }
                | Request::Show { .. }
                | Request::WorkLeft { .. }
                | Request::Summary { .. }
                | Request::ListSnapshots
                | Request::Dump
                | Request::Dot
                | Request::Audit
                | Request::Stat
                | Request::TailFrom { .. }
                | Request::Replay { .. }
                | Request::Trace { .. }
                | Request::Attach { .. }
                | Request::ListProjects
        )
    }

    /// Renders the canonical single-line form (no trailing newline).
    ///
    /// ```
    /// use blueprint_core::engine::api::Request;
    ///
    /// let req = Request::Checkin {
    ///     block: "CPU".into(),
    ///     view: "HDL_model".into(),
    ///     user: "yves".into(),
    ///     payload: b"module".to_vec(),
    /// };
    /// assert_eq!(req.encode(), "checkin CPU HDL_model yves 6d6f64756c65");
    /// ```
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.put_words(&mut out);
        out
    }

    /// Parses the canonical single-line form. The codec round-trips
    /// byte-identically: `decode(encode(r)) == r` and re-encoding a
    /// decoded line reproduces it (property-tested in
    /// `tests/api_roundtrip.rs`).
    ///
    /// ```
    /// use blueprint_core::engine::api::Request;
    ///
    /// let line = "post simwrap hdl_sim up reg,verilog,4 logic%20sim%20passed";
    /// let req = Request::decode(line).unwrap();
    /// assert_eq!(req.encode(), line);
    /// assert!(matches!(req, Request::Post { user, .. } if user == "simwrap"));
    /// ```
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] (with byte offset, found token and expectation)
    /// or [`ApiError::UnknownCommand`].
    pub fn decode(line: &str) -> Result<Request, ApiError> {
        let mut c = Cursor::new(line);
        let req = Request::take_words(&mut c)?;
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

wire_enum! {
    /// One blocking item of a [`Response::Work`] result.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkLeftItem {
        /// The blocking object.
        pub oid: Oid ["an OID"],
        /// The unsatisfied state property.
        pub prop: String ["a property name"],
        /// Its current value (`None` when unset).
        pub current: Option<Value> ["an optional value"],
    }
}

wire_enum! {
    /// One per-view row of a [`Response::ViewSummary`] result.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SummaryRow {
        /// The view type.
        pub view: String ["a view name"],
        /// Live objects of this view.
        pub total: u64 ["a total"],
        /// Objects whose state property is truthy.
        pub satisfied: u64 ["a satisfied count"],
        /// Objects lacking the property entirely.
        pub untracked: u64 ["an untracked count"],
    }
}

wire_enum! {
    /// One registered project of a [`Response::Projects`] result.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProjectEntry {
        /// The project (tenant) name.
        pub name: String ["a project name"],
        /// Whether the project is currently activated in memory (a cold
        /// project is just snapshot + journal tail on disk).
        pub active: bool ["an active flag (0/1)"],
    }
}

wire_enum! {
    /// One stored configuration of a [`Response::SnapshotList`] result.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapshotInfo {
        /// Configuration name.
        pub name: String ["a configuration name"],
        /// Pinned OIDs.
        pub oids: u64 ["an OID count"],
        /// Pinned links.
        pub links: u64 ["a link count"],
        /// Addresses that no longer resolve.
        pub dangling: u64 ["a dangling count"],
    }
}

wire_enum! {
    /// Engine audit counters, as carried by [`Response::Audit`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AuditCounters {
        /// Rule-executing deliveries.
        pub deliveries: u64 ["deliveries"],
        /// Property writes.
        pub assignments: u64 ["assignments"],
        /// Continuous-assignment evaluations.
        pub reevaluations: u64 ["reevaluations"],
        /// Script invocations.
        pub scripts: u64 ["scripts"],
        /// Events posted by rules.
        pub posts: u64 ["posts"],
        /// Link crossings.
        pub propagations: u64 ["propagations"],
        /// Cycle-guard skips.
        pub cycle_skips: u64 ["cycle skips"],
        /// Depth truncations.
        pub depth_truncations: u64 ["depth truncations"],
        /// Template applications.
        pub templates: u64 ["templates"],
        /// Detached invocation attempts that were retried after a failure.
        pub invoke_retries: u64 ["invoke retries"],
        /// Detached invocation attempts that exceeded their wall-clock
        /// budget.
        pub invoke_timeouts: u64 ["invoke timeouts"],
        /// Detached invocations that exhausted their whole retry budget.
        pub invoke_exhaustions: u64 ["invoke exhaustions"],
    }
}

/// Which replication role a node answers `stat` as.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NodeRole {
    /// Accepts mutations and journals them — the default for a
    /// single-node server, and what a promoted follower becomes.
    #[default]
    Leader,
    /// Applies a leader's tail stream and serves reads only.
    Follower,
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeRole::Leader => "leader",
            NodeRole::Follower => "follower",
        })
    }
}

impl std::str::FromStr for NodeRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "leader" => Ok(NodeRole::Leader),
            "follower" => Ok(NodeRole::Follower),
            other => Err(format!("not a role (leader/follower): `{other}`")),
        }
    }
}

wire_enum! {
    /// Server statistics, as carried by [`Response::Stat`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerStat {
        /// Live objects in the meta-database.
        pub oids: u64 ["an OID count"],
        /// Live links.
        pub links: u64 ["a link count"],
        /// Events queued and not yet processed.
        pub pending_events: u64 ["a pending-event count"],
        /// Current checkpoint epoch, when journaling.
        pub journal_epoch: Option<u64> ["an optional epoch"],
        /// Ops appended since the last checkpoint, when journaling.
        pub journal_records: Option<u64> ["an optional record count"],
        /// Always `1`: waves drain sequentially. Kept so the `stat` line
        /// stays at its fixed width.
        pub wave_workers: u64 ["a wave worker count"],
        /// Detached invocations waiting for a worker.
        pub pending_invocations: u64 ["a pending-invocation count"],
        /// Detached invocations executing on a worker right now.
        pub running_invocations: u64 ["a running-invocation count"],
        /// Detached invocations sitting out a backoff delay before their
        /// next attempt.
        pub retrying_invocations: u64 ["a retrying-invocation count"],
        /// Detached invocations that exhausted their retry budget (lifetime
        /// count for this pool).
        pub failed_invocations: u64 ["a failed-invocation count"],
        /// The replay cursor's epoch: the checkpoint epoch whose journal the
        /// server is appending to (`0` when journaling is off — epochs count
        /// from 1).
        pub cursor_epoch: u64 ["a cursor epoch"],
        /// The replay cursor's sequence: committed journal records in that
        /// epoch. `Replay { epoch: cursor_epoch, seq: cursor_seq }`
        /// reconstructs exactly the image this `stat` describes.
        pub cursor_seq: u64 ["a cursor sequence"],
        /// Fleet only: projects currently activated in memory (bounded by
        /// `--max-active`). `0` on a single-project node.
        pub active_projects: u64 ["an active-project count"],
        /// Fleet only: projects registered under the fleet root — the tenant
        /// roster, resident on disk whether activated or not. `0` on a
        /// single-project node.
        pub resident_projects: u64 ["a resident-project count"],
        /// Fleet only: lifetime cold→active transitions (first activations
        /// plus journal reactivations after eviction).
        pub activations: u64 ["an activation count"],
        /// Fleet only: lifetime active→cold transitions (LRU checkpoints plus
        /// panic poisonings, which also leave residency).
        pub evictions: u64 ["an eviction count"],
        /// The leadership term this node operates under: the term its journal
        /// commits carry on a leader, the highest term observed in the tail
        /// stream on a follower. Terms count from 1; a node that has never
        /// seen a term-bearing stream reports 1.
        pub term: u64 ["a leadership term"],
        /// Whether this node is a mutation-accepting leader or a read-only
        /// follower (a promoted follower flips to `Leader`).
        pub role: NodeRole ["a role (leader/follower)"],
    }
}

wire_enum! {
    /// The typed result of one [`Request`]. Structured data, not rendered
    /// text — clients (the shell, wrapper libraries) decide presentation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum Response: "a response keyword" else parse_error {
        /// The request succeeded and has no further payload.
        Ok = "ok",
        /// A blueprint was (re-)initialized.
        Blueprint = "blueprint" {
            /// The blueprint's declared name.
            name: String ["a blueprint name"],
        },
        /// An object was created (check-in or bare create).
        Created = "created" {
            /// The new triplet.
            oid: Oid ["an OID"],
        },
        /// An event-queue drain completed.
        Processed = "processed" {
            /// Events processed.
            events: u64 ["an event count"],
            /// Rule-executing deliveries.
            deliveries: u64 ["a delivery count"],
            /// Wrapper invocations dispatched.
            scripts: u64 ["a script count"],
            /// Messages wrappers posted back.
            emitted: u64 ["an emitted count"],
        },
        /// Continuous assignments were re-evaluated.
        Refreshed = "refreshed" {
            /// `let` properties written.
            written: u64 ["a write count"],
        },
        /// Properties of one OID.
        Props = "props" {
            /// The shown triplet.
            oid: Oid ["an OID"],
            /// `(name, value)` pairs in name order.
            props: Vec<(String, Value)> ["a property count", "a property name", "a tagged value"],
        },
        /// Query hits.
        Hits = "hits" {
            /// Matching triplets in address order.
            oids: Vec<Oid> ["a hit count", "an OID"],
        },
        /// Work-remaining analysis.
        Work = "work" {
            /// The queried target.
            target: Oid ["the target OID"],
            /// The blocking items.
            items: Vec<WorkLeftItem> ["an item count"],
        },
        /// Per-view state summary.
        ViewSummary = "viewsummary" {
            /// One row per view, in view order.
            rows: Vec<SummaryRow> ["a row count"],
        },
        /// A configuration was pinned.
        Snapped = "snapped" {
            /// Its name.
            name: String ["a configuration name"],
            /// OIDs pinned.
            oids: u64 ["an OID count"],
        },
        /// The stored configurations.
        SnapshotList = "snaplist" {
            /// One entry per configuration, in name order.
            entries: Vec<SnapshotInfo> ["an entry count"],
        },
        /// A checkpoint epoch (journal enable / checkpoint).
        Epoch = "epoch" {
            /// The epoch.
            epoch: u64 ["an epoch"],
        },
        /// A recovery completed.
        Recovered = "recovered" {
            /// The snapshot's epoch.
            epoch: u64 ["an epoch"],
            /// Objects restored from the snapshot alone.
            snapshot_oids: u64 ["a snapshot OID count"],
            /// Journal ops replayed on top.
            replayed_ops: u64 ["a replayed-op count"],
            /// Why the tail was cut short, if it was.
            torn_tail: Option<String> ["an optional torn-tail reason"],
            /// Whether a stale journal was ignored.
            stale_journal: bool ["a stale flag (0/1)"],
        },
        /// A project image was adopted.
        Loaded = "loaded" {
            /// Objects in the restored database.
            oids: u64 ["an OID count"],
        },
        /// A text artifact (DOT graph, database dump).
        Text = "text" {
            /// The artifact.
            text: String ["a text artifact (escaped)"],
        },
        /// Audit counters.
        Audit = "audit" {
            /// The counters.
            counters: AuditCounters [],
        },
        /// Server statistics.
        Stat = "stat" {
            /// The statistics.
            stat: ServerStat [],
        },
        /// A [`Request::Promote`] succeeded: this node is now a leader,
        /// journaling `epoch` under fencing `term`.
        Promoted = "promoted" {
            /// The promoted node's first journal epoch (strictly above the
            /// cursor epoch it consumed as a follower).
            epoch: u64 ["an epoch"],
            /// The leadership term it journals under.
            term: u64 ["a leadership term"],
        },
        /// A [`Request::TailFrom`] was accepted: the leader's committed
        /// stream position is `(epoch, seq)`. On a streaming transport, tail
        /// frames follow this line on the same connection.
        Tailing = "tailing" {
            /// The leader's current checkpoint epoch.
            epoch: u64 ["a checkpoint epoch"],
            /// Committed records in that epoch (== the next sequence number).
            seq: u64 ["a record sequence number"],
        },
        /// A [`Request::Replay`] reconstructed a historical image.
        Replayed = "replayed" {
            /// The cursor's epoch.
            epoch: u64 ["a checkpoint epoch"],
            /// Journal records replayed on top of the snapshot.
            seq: u64 ["a journal cursor sequence"],
            /// Objects in the reconstructed database.
            oids: u64 ["an OID count"],
            /// The full reconstructed project image (the `save` format) —
            /// byte-identical to what `save` would have produced at that
            /// cursor, so clients can diff, load, or inspect it offline.
            image: String ["a project image (escaped)"],
        },
        /// Execution-trace records drained by a [`Request::Trace`] get, each
        /// in the [`TraceRecord`](crate::engine::trace::TraceRecord) line
        /// form, in execution order.
        Trace = "trace" {
            /// The encoded records.
            records: Vec<String> ["a record count", "an encoded trace record"],
        },
        /// A [`Request::Attach`] succeeded: the session now routes to
        /// `project`.
        Attached = "attached" {
            /// The attached project.
            project: String ["a project name"],
            /// Whether the attach registered the project (`create` on a name
            /// the fleet had not seen).
            created: bool ["a created flag (0/1)"],
        },
        /// The fleet's project roster, from [`Request::ListProjects`].
        Projects = "projects" {
            /// One entry per registered project, in name order.
            entries: Vec<ProjectEntry> ["an entry count"],
        },
        /// The request failed.
        Error = "err" (ApiError),
    }
}

impl Response {
    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }

    /// Renders the canonical single-line form (no trailing newline).
    ///
    /// ```
    /// use blueprint_core::engine::api::{ApiError, Response};
    ///
    /// let resp = Response::Error(ApiError::ReadOnly {
    ///     leader: "10.0.0.7:7425".into(),
    /// });
    /// assert_eq!(resp.encode(), "err read-only 10.0.0.7:7425");
    /// ```
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.put_words(&mut out);
        out
    }

    /// Parses the canonical single-line form.
    ///
    /// ```
    /// use blueprint_core::engine::api::Response;
    ///
    /// match Response::decode("processed 2 3 1 0").unwrap() {
    ///     Response::Processed { events, .. } => assert_eq!(events, 2),
    ///     other => panic!("{other:?}"),
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] with byte offset, found token and expectation.
    pub fn decode(line: &str) -> Result<Response, ApiError> {
        let mut c = Cursor::new(line);
        let resp = Response::take_words(&mut c)?;
        c.finish()?;
        Ok(resp)
    }
}

impl From<ProcessReport> for Response {
    fn from(r: ProcessReport) -> Self {
        Response::Processed {
            events: r.events,
            deliveries: r.deliveries,
            scripts: r.scripts,
            emitted: r.emitted,
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

wire_enum! {
    /// A structured, serializable API error carrying the [`EngineError`]
    /// taxonomy — precise variants for the failures a client can act on, a
    /// tagged catch-all for the rest. Never a bare pre-formatted string for
    /// the actionable cases.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum ApiError: "an error kind" else parse_error {
        /// A command or wire line failed to parse.
        Parse = "parse" {
            /// Byte offset of the offending token.
            at: u64 ["a byte offset"],
            /// The token found there (`"end of line"` when input ran out).
            found: String ["the found token"],
            /// What the grammar expected.
            expected: String ["the expectation"],
        },
        /// The first word of a command line names no known command.
        UnknownCommand = "unknown-command" {
            /// Byte offset of the word.
            at: u64 ["a byte offset"],
            /// The word.
            found: String ["the found token"],
        },
        /// No blueprint is loaded yet; `Init` must come first.
        NoProject = "no-project",
        /// The targeted triplet does not exist.
        UnknownOid = "unknown-oid" {
            /// The unresolved triplet.
            oid: Oid ["an OID"],
        },
        /// The triplet already exists.
        DuplicateOid = "duplicate-oid" {
            /// The duplicated triplet.
            oid: Oid ["an OID"],
        },
        /// A workspace operation conflicted with check-out state.
        CheckoutConflict = "checkout-conflict" {
            /// The object in conflict.
            oid: Oid ["an OID"],
            /// Who holds it, if anyone.
            holder: Option<String> ["an optional holder"],
        },
        /// A check-in targeted a frozen view.
        FrozenView = "frozen-view" {
            /// The frozen view.
            view: String ["a view name"],
        },
        /// Another project-policy rejection.
        Policy = "policy" {
            /// The rendered violation.
            detail: String ["a violation rendering"],
        },
        /// Blueprint source failed static validation.
        InvalidBlueprint = "invalid-blueprint" {
            /// The rendered validation errors.
            issues: Vec<String> ["an issue count", "an issue rendering"],
        },
        /// Blueprint source failed to parse.
        BlueprintSyntax = "blueprint-syntax" {
            /// The rendered parse error (carries its own position).
            message: String ["a parse-error rendering"],
        },
        /// `ProcessAll` exceeded the server's event budget.
        Runaway = "runaway" {
            /// Events processed before giving up.
            processed: u64 ["an event count"],
        },
        /// A durability operation failed.
        Journal = "journal" {
            /// What went wrong.
            reason: String ["a reason"],
        },
        /// A detached tool invocation exhausted its retry budget. The same
        /// failure also lands in-band as a `tool_failed` event at the
        /// invocation's origin; this is the out-of-band form for clients
        /// that watch invocations directly.
        InvocationFailed = "invocation-failed" {
            /// The script (tool) that failed.
            script: String ["a script name"],
            /// Attempts consumed (≥ 1).
            attempts: u64 ["an attempt count"],
            /// The last failure reason.
            reason: String ["a reason"],
        },
        /// Another meta-database failure.
        Meta = "meta" {
            /// The rendered error.
            reason: String ["a reason"],
        },
        /// A server-side file operation failed.
        Io = "io" {
            /// The rendered error.
            reason: String ["a reason"],
        },
        /// The receiving node is a read-only replication follower; mutations
        /// must go to the leader.
        ReadOnly = "read-only" {
            /// The leader's address, as the follower was configured with.
            leader: String ["a leader address"],
        },
        /// The follower has not finished catching up with the leader's
        /// stream; `(epoch, seq)` is how far it has applied. Retry shortly,
        /// or read from the leader.
        Lagging = "lagging" {
            /// The follower's applied checkpoint epoch.
            epoch: u64 ["a checkpoint epoch"],
            /// Records applied within that epoch.
            seq: u64 ["a record sequence number"],
        },
        /// The operation ran under a stale leadership term: a newer reign
        /// fenced this node (or the request itself carried an outdated term).
        /// Committing it could dual-commit against the current leader, so it
        /// is refused structurally — chase the current leader instead.
        StaleTerm = "stale-term" {
            /// The stale term the operation ran (or was requested) under.
            term: u64 ["a stale term"],
            /// The newer term holding the reign.
            current: u64 ["the current term"],
        },
        /// A fleet session sent a routable request before attaching to a
        /// project (`project <name>` must come first).
        NotAttached = "not-attached",
        /// An attach named a project the fleet has not registered (and did
        /// not ask to create it).
        NoSuchProject = "no-such-project" {
            /// The unknown project name.
            project: String ["a project name"],
        },
        /// The fleet could not take the request right now: the project's
        /// activation backlog is full (every active slot is pinned and the
        /// parked queue hit its limit). Backpressure — retry shortly.
        ProjectBusy = "project-busy" {
            /// The congested project.
            project: String ["a project name"],
        },
        /// An engine worker panicked while serving this project; the
        /// project's unflushed group-commit window is lost and it left
        /// residency. Re-attaching recovers it from its journal (crash
        /// semantics), and other projects on the same worker are unaffected.
        ProjectPoisoned = "project-poisoned" {
            /// The poisoned project.
            project: String ["a project name"],
        },
        /// `project`/`projects` was sent to a single-project node; fleet
        /// routing needs a fleet front door (`damocles_server --fleet`).
        NoFleet = "no-fleet",
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse {
                at,
                found,
                expected,
            } => write!(
                f,
                "parse error at byte {at}: expected {expected}, found `{found}`"
            ),
            ApiError::UnknownCommand { at, found } => {
                write!(f, "unknown command `{found}` at byte {at} (try `help`)")
            }
            ApiError::NoProject => write!(f, "no blueprint loaded; use `init <file>` first"),
            ApiError::UnknownOid { oid } => write!(f, "meta-database error: unknown OID {oid}"),
            ApiError::DuplicateOid { oid } => {
                write!(f, "meta-database error: OID {oid} already exists")
            }
            ApiError::CheckoutConflict { oid, holder } => match holder {
                Some(h) => write!(f, "meta-database error: {oid} is checked out by {h}"),
                None => write!(f, "meta-database error: {oid} is not checked out"),
            },
            ApiError::FrozenView { view } => {
                write!(
                    f,
                    "policy violation: view `{view}` is frozen by project policy"
                )
            }
            ApiError::Policy { detail } => write!(f, "policy violation: {detail}"),
            ApiError::InvalidBlueprint { issues } => {
                write!(f, "blueprint validation failed: {}", issues.join("; "))
            }
            ApiError::BlueprintSyntax { message } => {
                write!(f, "blueprint parse error: {message}")
            }
            ApiError::Runaway { processed } => {
                write!(f, "event budget exhausted after {processed} events")
            }
            ApiError::Journal { reason } => write!(f, "durability error: {reason}"),
            ApiError::InvocationFailed {
                script,
                attempts,
                reason,
            } => write!(
                f,
                "invocation of `{script}` failed after {attempts} attempt(s): {reason}"
            ),
            ApiError::Meta { reason } => write!(f, "meta-database error: {reason}"),
            ApiError::Io { reason } => write!(f, "I/O error: {reason}"),
            ApiError::ReadOnly { leader } => {
                write!(
                    f,
                    "read-only follower: send mutations to the leader at {leader}"
                )
            }
            ApiError::Lagging { epoch, seq } => write!(
                f,
                "follower still catching up (applied epoch {epoch}, seq {seq}); retry shortly"
            ),
            ApiError::StaleTerm { term, current } => write!(
                f,
                "stale leadership term {term}: term {current} holds the reign"
            ),
            ApiError::NotAttached => {
                write!(f, "no project attached; use `project <name>` first")
            }
            ApiError::NoSuchProject { project } => write!(
                f,
                "no such project `{project}` in the fleet (use `project {project} new` to register it)"
            ),
            ApiError::ProjectBusy { project } => write!(
                f,
                "project `{project}` is busy (activation backlog full); retry shortly"
            ),
            ApiError::ProjectPoisoned { project } => write!(
                f,
                "project `{project}` was poisoned by an engine-worker panic; \
                 its unflushed window is lost — retry to recover it from the journal"
            ),
            ApiError::NoFleet => write!(
                f,
                "not a fleet front door; `project`/`projects` need `damocles_server --fleet`"
            ),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Meta(MetaError::UnknownOid { oid }) => ApiError::UnknownOid { oid },
            EngineError::Meta(MetaError::DuplicateOid { oid }) => ApiError::DuplicateOid { oid },
            EngineError::Meta(MetaError::CheckoutConflict { oid, holder }) => {
                ApiError::CheckoutConflict { oid, holder }
            }
            EngineError::Meta(other) => ApiError::Meta {
                reason: other.to_string(),
            },
            EngineError::Policy(PolicyViolation::FrozenView { view }) => {
                ApiError::FrozenView { view }
            }
            EngineError::Policy(other) => ApiError::Policy {
                detail: other.to_string(),
            },
            EngineError::Parse(e) => ApiError::BlueprintSyntax {
                message: e.to_string(),
            },
            EngineError::Invalid { issues } => ApiError::InvalidBlueprint { issues },
            EngineError::Runaway { processed } => ApiError::Runaway { processed },
            EngineError::Journal { reason } => ApiError::Journal { reason },
            EngineError::Fenced { term, current } => ApiError::StaleTerm { term, current },
            EngineError::InvocationFailed {
                script,
                attempts,
                reason,
            } => ApiError::InvocationFailed {
                script,
                attempts,
                reason,
            },
        }
    }
}

impl From<MetaError> for ApiError {
    fn from(e: MetaError) -> Self {
        EngineError::Meta(e).into()
    }
}

impl From<damocles_meta::WireDiag> for ApiError {
    fn from(d: damocles_meta::WireDiag) -> Self {
        ApiError::Parse {
            at: d.at as u64,
            found: d.found,
            expected: d.expected,
        }
    }
}

// ---------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------

/// Encodes a string as one word: `%` for the empty string, otherwise the
/// shared percent-escaping. Unambiguous because `escape` renders a lone
/// `%` as `%25`. Crate-shared so the tail-frame codec cannot drift from
/// the request codec.
pub(crate) fn enc_str(s: &str) -> String {
    if s.is_empty() {
        "%".to_string()
    } else {
        damocles_meta::persist::escape(s)
    }
}

pub(crate) fn dec_str(word: &str) -> Result<String, String> {
    if word == "%" {
        Ok(String::new())
    } else {
        damocles_meta::persist::unescape(word)
    }
}

/// A field codec: `put` appends the field's words, each after a space;
/// `take` reads them back, naming `ex` — the grammar element(s) the field
/// spans — in its parse errors. `Codec: Wire<T>` is a codec for `T`
/// other than `T`'s own.
trait Wire<T = Self> {
    fn put(v: &T, out: &mut String);
    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<T, ApiError>;
}

/// A one-word field codec. Every `Word` is a [`Wire`] field, and `-` or
/// `+<word>` carries it as an `Option`.
trait Word: Sized {
    /// What an `Option` parse error says follows the `+`.
    const SOME: &'static str = "…";
    fn word(&self, out: &mut String);
    fn parse(w: &str) -> Result<Self, String>;
}

impl<T: Word> Wire for T {
    fn put(v: &T, out: &mut String) {
        out.push(' ');
        v.word(out);
    }

    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<T, ApiError> {
        c.parse_with(ex[0], T::parse)
    }
}

impl Word for String {
    fn word(&self, out: &mut String) {
        out.push_str(&enc_str(self));
    }

    fn parse(w: &str) -> Result<Self, String> {
        dec_str(w)
    }
}

impl Word for u64 {
    const SOME: &'static str = "<n>";

    fn word(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(w: &str) -> Result<Self, String> {
        w.parse().map_err(|_| "not a number".to_string())
    }
}

impl Word for Oid {
    fn word(&self, out: &mut String) {
        out.push_str(&enc_str(&self.to_string()));
    }

    fn parse(w: &str) -> Result<Self, String> {
        dec_str(w)?.parse().map_err(|e: MetaError| e.short_reason())
    }
}

impl Word for Value {
    fn word(&self, out: &mut String) {
        out.push_str(&encode_value(self));
    }

    fn parse(w: &str) -> Result<Self, String> {
        decode_value(w)
    }
}

/// `0` or `1`.
impl Word for bool {
    fn word(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }

    fn parse(w: &str) -> Result<Self, String> {
        match w {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err("not 0/1".to_string()),
        }
    }
}

/// Hex bytes, or `-` for none.
impl Word for Vec<u8> {
    fn word(&self, out: &mut String) {
        if self.is_empty() {
            out.push('-');
        } else {
            out.push_str(&encode_hex(self));
        }
    }

    fn parse(w: &str) -> Result<Self, String> {
        if w == "-" {
            Ok(Vec::new())
        } else {
            decode_hex(w)
        }
    }
}

impl<T: Word> Word for Option<T> {
    fn word(&self, out: &mut String) {
        match self {
            None => out.push('-'),
            Some(v) => {
                out.push('+');
                v.word(out);
            }
        }
    }

    fn parse(w: &str) -> Result<Self, String> {
        match w.strip_prefix('+') {
            Some(body) => T::parse(body).map(Some),
            None if w == "-" => Ok(None),
            None => Err(format!("expected `-` or `+{}`, found `{w}`", T::SOME)),
        }
    }
}

impl Word for Direction {
    fn word(&self, out: &mut String) {
        out.push_str(self.as_keyword());
    }

    fn parse(w: &str) -> Result<Self, String> {
        w.parse()
    }
}

impl Word for TraceMode {
    fn word(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(w: &str) -> Result<Self, String> {
        match w {
            "on" => Ok(TraceMode::On),
            "off" => Ok(TraceMode::Off),
            "get" => Ok(TraceMode::Get),
            _ => Err("not on/off/get".to_string()),
        }
    }
}

impl Word for NodeRole {
    fn word(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse(w: &str) -> Result<Self, String> {
        w.parse()
    }
}

/// A count, then the items. `ex` names the count, then the item's words.
impl<T: Wire> Wire for Vec<T> {
    fn put(v: &Vec<T>, out: &mut String) {
        u64::put(&(v.len() as u64), out);
        for item in v {
            T::put(item, out);
        }
    }

    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<Vec<T>, ApiError> {
        let n = u64::take(c, ex)?;
        // Counts come off the wire: never pre-size from them (a hostile
        // line could demand a huge allocation before any item parses).
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(T::take(c, &ex[1..])?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put((a, b): &(A, B), out: &mut String) {
        A::put(a, out);
        B::put(b, out);
    }

    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<(A, B), ApiError> {
        Ok((A::take(c, &ex[..1])?, B::take(c, &ex[1..])?))
    }
}

/// Event, direction, target, then every argument to the end of the line
/// — field-wise, not the rendered §3.1 wire line: that grammar cannot
/// carry whitespace inside event names or OID components, but escaped
/// words can, so every creatable object stays addressable.
impl Wire for EventMessage {
    fn put(m: &Self, out: &mut String) {
        String::put(&m.event, out);
        Direction::put(&m.direction, out);
        Oid::put(&m.target, out);
        for arg in &m.args {
            String::put(arg, out);
        }
    }

    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<Self, ApiError> {
        let mut message = EventMessage::new(
            String::take(c, ex)?,
            Direction::take(c, &ex[1..])?,
            Oid::take(c, &ex[2..])?,
        );
        while !c.at_end() {
            message.args.push(String::take(c, &ex[3..])?);
        }
        Ok(message)
    }
}

/// The trailing `new` of `project <name> [new]`: present or absent.
struct NewFlag;

impl Wire<bool> for NewFlag {
    fn put(create: &bool, out: &mut String) {
        if *create {
            out.push_str(" new");
        }
    }

    fn take(c: &mut Cursor<'_>, ex: &[&str]) -> Result<bool, ApiError> {
        if c.at_end() {
            return Ok(false);
        }
        c.parse_with(ex[0], |w| match w {
            "new" => Ok(true),
            _ => Err("not `new`".to_string()),
        })
    }
}

fn unknown_command(at: u64, found: &str, _expected: &str) -> ApiError {
    ApiError::UnknownCommand {
        at,
        found: found.to_string(),
    }
}

fn parse_error(at: u64, found: &str, expected: &str) -> ApiError {
    ApiError::Parse {
        at,
        found: found.to_string(),
        expected: expected.to_string(),
    }
}

/// A positioned word cursor over one protocol line — the shared
/// [`WordCursor`](damocles_meta::WordCursor) tokenizer plus [`ApiError::Parse`] reporting (byte
/// offset, found token, expectation). The shell's command grammar builds
/// on the same type, so every surface positions diagnostics identically.
pub struct Cursor<'a> {
    words: damocles_meta::WordCursor<'a>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `line`.
    pub fn new(line: &'a str) -> Self {
        Cursor {
            words: damocles_meta::WordCursor::new(line),
        }
    }

    /// The next word and its byte offset.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] naming `expected` when the line ran out.
    pub fn next_word(&mut self, expected: &str) -> Result<(usize, &'a str), ApiError> {
        let at_end = self.words.skip_ws();
        self.words
            .next_word()
            .ok_or_else(|| parse_error(at_end as u64, "end of line", expected))
    }

    /// The unconsumed remainder of the line (whitespace-trimmed).
    pub fn rest(&mut self) -> &'a str {
        self.words.rest()
    }

    /// Parses the next word with `parse`, folding its failure reason into
    /// a positioned [`ApiError::Parse`].
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] at the word (or at end of line).
    pub fn parse_with<T>(
        &mut self,
        expected: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, ApiError> {
        let (at, word) = self.next_word(expected)?;
        parse(word)
            .map_err(|reason| parse_error(at as u64, word, &format!("{expected} ({reason})")))
    }

    /// Whether no word remains on the line.
    pub fn at_end(&mut self) -> bool {
        self.words.peek_word().is_none()
    }

    fn finish(mut self) -> Result<(), ApiError> {
        match self.words.peek_word() {
            Some((at, word)) => Err(parse_error(at as u64, word, "end of line")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::Direction;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Init {
                source: "blueprint x\nview v endview\nendblueprint".into(),
            },
            // A spacey block survives the CODEC (escaped fields); the
            // server itself rejects it at execution time, since OID
            // components forbid separator characters.
            Request::Checkin {
                block: "CPU core".into(),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: b"\xff\x00module cpu;".to_vec(),
            },
            Request::Checkin {
                block: "b".into(),
                view: "v".into(),
                user: String::new(),
                payload: Vec::new(),
            },
            Request::Post {
                message: EventMessage::new("hdl_sim", Direction::Up, Oid::new("reg", "verilog", 4))
                    .with_arg("logic sim passed")
                    .with_arg("4 errors"),
                user: "sim wrapper".into(),
            },
            Request::ProcessAll,
            Request::Query {
                terms: "view=schematic stale.uptodate latest".into(),
            },
            // Characters that are Unicode whitespace but NOT codec
            // separators (vertical tab, NBSP, line separator) must ride
            // inside one word unescaped.
            Request::Query {
                terms: "a\u{0B}b\u{A0}c\u{2028}d".into(),
            },
            Request::EnableJournal {
                dir: "/tmp/dura dir".into(),
                every: 1024,
            },
            Request::Stat,
            Request::SetWaveWorkers { workers: 4 },
            Request::SetRetryPolicy {
                script: None,
                max_retries: 5,
                base_delay_ms: 10,
                multiplier: 2,
                timeout_ms: 30_000,
            },
            Request::SetRetryPolicy {
                script: Some("hdl sim".into()),
                max_retries: 0,
                base_delay_ms: 0,
                multiplier: 1,
                timeout_ms: 1,
            },
            Request::PumpInvocations,
            Request::TailFrom { epoch: 3, seq: 117 },
            Request::Promote {
                dir: "/tmp/dura dir".into(),
                every: 1024,
                term: 3,
            },
            Request::Fence { term: 4 },
            Request::Replay { epoch: 2, seq: 40 },
            Request::Trace {
                mode: TraceMode::On,
            },
            Request::Trace {
                mode: TraceMode::Off,
            },
            Request::Trace {
                mode: TraceMode::Get,
            },
            Request::Attach {
                project: "asic 9".into(),
                create: false,
            },
            Request::Attach {
                project: "fpga".into(),
                create: true,
            },
            Request::ListProjects,
            Request::Reinit {
                source: String::new(),
            },
            Request::Checkout {
                block: "CPU".into(),
                view: "layout".into(),
                user: "ann".into(),
            },
            Request::CreateObject {
                oid: Oid::new("cpu", "schematic", 1),
            },
            Request::Connect {
                from: Oid::new("cpu", "schematic", 1),
                to: Oid::new("cpu", "netlist", 2),
            },
            Request::Post {
                message: EventMessage::new("ckin", Direction::Down, Oid::new("alu", "layout", 3)),
                user: "ann".into(),
            },
            Request::RefreshLets,
            Request::Show {
                oid: Oid::new("cpu", "schematic", 1),
            },
            Request::WorkLeft {
                oid: Oid::new("cpu", "netlist", 2),
                prop: "uptodate".into(),
            },
            Request::Summary {
                prop: "uptodate".into(),
            },
            Request::Snapshot {
                name: "tape out".into(),
                root: Oid::new("cpu", "netlist", 2),
            },
            Request::ListSnapshots,
            Request::Freeze {
                view: "layout".into(),
            },
            Request::Thaw {
                view: "layout".into(),
            },
            Request::Checkpoint,
            Request::Recover {
                dir: "dura".into(),
                every: 64,
            },
            Request::SaveProject {
                path: "/tmp/p.img".into(),
            },
            Request::LoadProject {
                path: "/tmp/p.img".into(),
            },
            Request::Dump,
            Request::Dot,
            Request::Audit,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Created {
                oid: Oid::new("cpu", "schematic", 2),
            },
            Response::Props {
                oid: Oid::new("cpu", "schematic", 2),
                props: vec![
                    ("uptodate".into(), Value::Bool(false)),
                    ("note".into(), Value::Str("4 errors\nbad ✗".into())),
                    ("count".into(), Value::Int(-3)),
                ],
            },
            Response::Work {
                target: Oid::new("cpu", "netlist", 1),
                items: vec![WorkLeftItem {
                    oid: Oid::new("cpu", "schematic", 2),
                    prop: "uptodate".into(),
                    current: None,
                }],
            },
            Response::Recovered {
                epoch: 3,
                snapshot_oids: 10,
                replayed_ops: 4,
                torn_tail: Some("checksum mismatch".into()),
                stale_journal: false,
            },
            Response::Stat {
                stat: ServerStat {
                    oids: 5,
                    links: 2,
                    pending_events: 1,
                    journal_epoch: Some(2),
                    journal_records: Some(17),
                    wave_workers: 4,
                    pending_invocations: 3,
                    running_invocations: 2,
                    retrying_invocations: 1,
                    failed_invocations: 7,
                    cursor_epoch: 2,
                    cursor_seq: 17,
                    active_projects: 2,
                    resident_projects: 120,
                    activations: 9,
                    evictions: 7,
                    term: 3,
                    role: NodeRole::Follower,
                },
            },
            Response::Replayed {
                epoch: 2,
                seq: 17,
                oids: 5,
                image: "damocles-project v1\noids 0\n".into(),
            },
            Response::Trace {
                records: vec![
                    "begin ckin cpu,HDL_model,2 yves 7 - -".into(),
                    "end 2".into(),
                ],
            },
            Response::Trace {
                records: Vec::new(),
            },
            Response::Error(ApiError::Parse {
                at: 14,
                found: "sideways".into(),
                expected: "a direction (`up` or `down`)".into(),
            }),
            Response::Error(ApiError::CheckoutConflict {
                oid: Oid::new("a", "v", 1),
                holder: Some("yves".into()),
            }),
            Response::Tailing { epoch: 5, seq: 42 },
            Response::Promoted { epoch: 6, term: 2 },
            Response::Error(ApiError::ReadOnly {
                leader: "127.0.0.1:7425".into(),
            }),
            Response::Error(ApiError::Lagging { epoch: 2, seq: 9 }),
            Response::Error(ApiError::StaleTerm {
                term: 2,
                current: 3,
            }),
            Response::Error(ApiError::InvocationFailed {
                script: "hdl_sim".into(),
                attempts: 6,
                reason: "simulation crashed".into(),
            }),
            Response::Attached {
                project: "asic 9".into(),
                created: true,
            },
            Response::Projects {
                entries: vec![
                    ProjectEntry {
                        name: "asic 9".into(),
                        active: true,
                    },
                    ProjectEntry {
                        name: "fpga".into(),
                        active: false,
                    },
                ],
            },
            Response::Projects {
                entries: Vec::new(),
            },
            Response::Error(ApiError::NotAttached),
            Response::Error(ApiError::NoSuchProject {
                project: "ghost".into(),
            }),
            Response::Error(ApiError::ProjectBusy {
                project: "asic 9".into(),
            }),
            Response::Error(ApiError::ProjectPoisoned {
                project: "fpga".into(),
            }),
            Response::Error(ApiError::NoFleet),
            Response::Blueprint {
                name: "edtc".into(),
            },
            Response::Processed {
                events: 2,
                deliveries: 3,
                scripts: 1,
                emitted: 0,
            },
            Response::Refreshed { written: 4 },
            Response::Hits {
                oids: vec![Oid::new("a", "v", 1), Oid::new("b", "v", 2)],
            },
            Response::ViewSummary {
                rows: vec![SummaryRow {
                    view: "layout".into(),
                    total: 5,
                    satisfied: 3,
                    untracked: 1,
                }],
            },
            Response::Snapped {
                name: "tape out".into(),
                oids: 12,
            },
            Response::SnapshotList {
                entries: vec![SnapshotInfo {
                    name: "tape out".into(),
                    oids: 12,
                    links: 11,
                    dangling: 0,
                }],
            },
            Response::Epoch { epoch: 3 },
            Response::Loaded { oids: 40 },
            Response::Text {
                text: "digraph {\n}".into(),
            },
            Response::Audit {
                counters: AuditCounters {
                    deliveries: 1,
                    assignments: 2,
                    reevaluations: 3,
                    scripts: 4,
                    posts: 5,
                    propagations: 6,
                    cycle_skips: 7,
                    depth_truncations: 8,
                    templates: 9,
                    invoke_retries: 10,
                    invoke_timeouts: 11,
                    invoke_exhaustions: 12,
                },
            },
            Response::Recovered {
                epoch: 1,
                snapshot_oids: 0,
                replayed_ops: 0,
                torn_tail: None,
                stale_journal: true,
            },
            Response::Work {
                target: Oid::new("cpu", "netlist", 1),
                items: vec![WorkLeftItem {
                    oid: Oid::new("cpu", "layout", 1),
                    prop: "drc".into(),
                    current: Some(Value::Str("bad".into())),
                }],
            },
            Response::Error(ApiError::UnknownCommand {
                at: 0,
                found: "frob".into(),
            }),
            Response::Error(ApiError::NoProject),
            Response::Error(ApiError::UnknownOid {
                oid: Oid::new("a", "v", 9),
            }),
            Response::Error(ApiError::DuplicateOid {
                oid: Oid::new("a", "v", 1),
            }),
            Response::Error(ApiError::CheckoutConflict {
                oid: Oid::new("a", "v", 1),
                holder: None,
            }),
            Response::Error(ApiError::FrozenView {
                view: "layout".into(),
            }),
            Response::Error(ApiError::Policy {
                detail: "no checkin after signoff".into(),
            }),
            Response::Error(ApiError::InvalidBlueprint {
                issues: vec!["unknown view `x`".into(), "duplicate rule".into()],
            }),
            Response::Error(ApiError::BlueprintSyntax {
                message: "line 3: expected `endview`".into(),
            }),
            Response::Error(ApiError::Runaway { processed: 50 }),
            Response::Error(ApiError::Journal {
                reason: "disk full".into(),
            }),
            Response::Error(ApiError::Meta {
                reason: "bad link".into(),
            }),
            Response::Error(ApiError::Io {
                reason: "no such file".into(),
            }),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let line = req.encode();
            let back = Request::decode(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, req, "`{line}`");
            assert_eq!(back.encode(), line, "canonical re-encode of `{line}`");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let line = resp.encode();
            let back = Response::decode(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, resp, "`{line}`");
            assert_eq!(back.encode(), line, "canonical re-encode of `{line}`");
        }
    }

    /// What `decode` makes of malformed copies of every sample's encoding,
    /// one `req|resp <tab> input <tab> outcome` line each: the outcome is
    /// `= <re-encoding>` or `! <err line>`. The inputs are each word-boundary
    /// cut, one extra trailing word, and each word replaced by a few bad
    /// tokens. Duplicate inputs are listed once.
    fn decode_diagnostics() -> String {
        use std::fmt::Write as _;
        fn outcome<T>(decoded: Result<T, ApiError>, encode: impl Fn(&T) -> String) -> String {
            match decoded {
                Ok(v) => format!("= {}", encode(&v)),
                Err(e) => format!("! {}", Response::Error(e).encode()),
            }
        }
        let lines = sample_requests()
            .iter()
            .map(|r| ("req", r.encode()))
            .chain(sample_responses().iter().map(|r| ("resp", r.encode())))
            .collect::<Vec<_>>();
        let mut seen = std::collections::HashSet::new();
        let mut out = String::new();
        for (kind, line) in lines {
            let words: Vec<&str> = line.split(' ').collect();
            let mut inputs: Vec<String> = (0..words.len()).map(|k| words[..k].join(" ")).collect();
            inputs.push(format!("{line} x"));
            for i in 0..words.len() {
                for bad in ["@", "+x", "x,y", "%zz", "-1"] {
                    let mut bent = words.clone();
                    bent[i] = bad;
                    inputs.push(bent.join(" "));
                }
            }
            for input in inputs {
                if !seen.insert((kind, input.clone())) {
                    continue;
                }
                let result = if kind == "req" {
                    outcome(Request::decode(&input), Request::encode)
                } else {
                    outcome(Response::decode(&input), Response::encode)
                };
                let _ = writeln!(out, "{kind}\t{input}\t{result}");
            }
        }
        out
    }

    /// The decoder's diagnostics are part of the wire contract: the fixture
    /// pins every position, found token and expectation.
    #[test]
    fn decode_diagnostics_match_the_fixture() {
        let fixture = include_str!("../../tests/fixtures/api_decode_diagnostics.txt");
        let got = decode_diagnostics();
        for (n, (got, want)) in got.lines().zip(fixture.lines()).enumerate() {
            assert_eq!(got, want, "fixture line {}", n + 1);
        }
        assert_eq!(got.lines().count(), fixture.lines().count());
    }

    #[test]
    fn decode_errors_carry_positions() {
        let e = Request::decode("frobnicate all the things").unwrap_err();
        assert!(matches!(e, ApiError::UnknownCommand { at: 0, .. }), "{e:?}");

        let e = Request::decode("connect cpu,v,1").unwrap_err();
        match e {
            ApiError::Parse { at, found, .. } => {
                assert_eq!(at, 15);
                assert_eq!(found, "end of line");
            }
            other => panic!("{other:?}"),
        }

        let e = Request::decode("checkin b v u zz-not-hex").unwrap_err();
        assert!(matches!(e, ApiError::Parse { at: 14, .. }), "{e:?}");

        // Trailing garbage is rejected, positioned at the extra token.
        let e = Request::decode("process now").unwrap_err();
        assert!(matches!(e, ApiError::Parse { at: 8, .. }), "{e:?}");
    }

    #[test]
    fn engine_errors_map_onto_the_taxonomy() {
        let e: ApiError = EngineError::Meta(MetaError::UnknownOid {
            oid: Oid::new("cpu", "v", 9),
        })
        .into();
        assert!(matches!(e, ApiError::UnknownOid { .. }));
        assert_eq!(e.to_string(), "meta-database error: unknown OID cpu,v,9");

        let e: ApiError = EngineError::Policy(PolicyViolation::FrozenView {
            view: "layout".into(),
        })
        .into();
        assert!(matches!(e, ApiError::FrozenView { .. }));
        assert!(e.to_string().contains("frozen"));

        let e: ApiError = EngineError::Runaway { processed: 50 }.into();
        assert!(matches!(e, ApiError::Runaway { processed: 50 }));
    }

    #[test]
    fn barrier_and_mutation_classification() {
        assert!(Request::Checkpoint.is_barrier());
        assert!(Request::LoadProject { path: "x".into() }.is_barrier());
        assert!(!Request::ProcessAll.is_barrier());
        assert!(Request::ProcessAll.is_mutation());
        assert!(!Request::Stat.is_mutation());
        assert!(!Request::Dump.is_mutation());
        let retry = Request::SetRetryPolicy {
            script: None,
            max_retries: 3,
            base_delay_ms: 10,
            multiplier: 2,
            timeout_ms: 30_000,
        };
        assert!(retry.is_mutation() && !retry.is_barrier());
        assert!(Request::PumpInvocations.is_mutation());
        assert!(!Request::PumpInvocations.is_barrier());
        // Replay reads the on-disk journal: barrier (needs a flushed
        // window) but never a mutation (the live image is untouched).
        let replay = Request::Replay { epoch: 1, seq: 0 };
        assert!(replay.is_barrier() && !replay.is_mutation());
        let trace = Request::Trace {
            mode: TraceMode::On,
        };
        assert!(!trace.is_barrier() && !trace.is_mutation());
        // Promotion and fencing re-base durable state AND mutate it: both
        // must flush the group-commit window before running.
        let promote = Request::Promote {
            dir: "d".into(),
            every: 8,
            term: 2,
        };
        assert!(promote.is_barrier() && promote.is_mutation());
        let fence = Request::Fence { term: 2 };
        assert!(fence.is_barrier() && fence.is_mutation());
    }

    #[test]
    fn fenced_engine_error_maps_to_stale_term() {
        let e: ApiError = EngineError::Fenced {
            term: 2,
            current: 3,
        }
        .into();
        assert_eq!(
            e,
            ApiError::StaleTerm {
                term: 2,
                current: 3
            }
        );
        assert!(e.to_string().contains("stale leadership term 2"));
    }
}
