//! Append-only operation journal, incremental checkpoints and crash
//! recovery for the meta-database.
//!
//! [`crate::persist::save`] writes a full O(db) text image per snapshot;
//! a busy project server mutates a handful of properties per design event
//! and should not pay for the whole database every time durability is
//! wanted. This module provides the standard snapshot-plus-log discipline:
//!
//! * [`JournalOp`] — a typed op record mirroring every mutating method on
//!   [`MetaDb`] (plus a workspace payload record emitted by the server
//!   layer), referencing OIDs by their stable triplet and links by a
//!   journal-assigned *tag* so records survive arena address reshuffling
//!   across restarts.
//! * [`JournalWriter`] — an append-only line-oriented writer. Each journal
//!   file opens with a versioned header carrying the checkpoint *epoch* it
//!   extends, and each record line carries a sequence number and an FNV-1a
//!   checksum, so a torn tail (the crash case) is detected and cleanly
//!   ignored. [`JournalWriter::append_batch`] encodes a group commit once,
//!   writes it with one `write`, and returns the lines for replication.
//! * [`recover`] — loads `snapshot + journal tail` and replays the tail
//!   **through the normal [`MetaDb`] API**, so invariants (interned event
//!   bitsets, version chains, the property index, link incidence) are
//!   rebuilt rather than trusted from the file. When the journal matches
//!   its snapshot and ends cleanly, [`Recovered::append_at`] lets the
//!   server reopen it with [`JournalWriter::open_append`] and keep
//!   journaling into the same epoch.
//! * [`compact`] — folds `snapshot + tail` into a fresh snapshot at the
//!   next epoch.
//! * [`decode_record`] / [`apply_op`] — the per-record halves of recovery,
//!   exposed so a replication follower can verify and apply a *streamed*
//!   journal tail record-by-record through the same code paths (see
//!   `PROTOCOL.md` §5 for the tail-stream framing).
//!
//! # File format
//!
//! ```text
//! damocles-journal v1 epoch=3 term=2
//! 1b0c2f... 0 create cpu,schematic,2
//! 9ee41a... 1 prop cpu,schematic,2 uptodate b:true
//! 77a0d3... 2 link 5 cpu,HDL_model,1 cpu,schematic,2 derive derive_from outofdate
//! ```
//!
//! Records are `<fnv1a-64 hex> <seq> <op…>`; the checksum covers
//! `"<seq> <op…>"`. Values reuse the `persist` encoding (`b:`/`i:`/`s:`
//! tags, percent-escaping), so anything a snapshot can hold a journal can
//! hold.
//!
//! # Epochs and the crash window
//!
//! A checkpoint writes the snapshot (tagged with a fresh epoch) *before*
//! resetting the journal. If the process dies between the two, the old
//! journal's ops are already folded into the new snapshot; replaying them
//! would corrupt the database. Recovery therefore compares the journal
//! header's epoch with the snapshot's and ignores the tail on mismatch
//! (reported via [`RecoveryReport::stale_journal`]).
//!
//! # Terms and fencing
//!
//! The header also carries a leadership **term**: a fencing number bumped
//! on every failover promotion, never reused. A journal written under
//! term *t* belongs to the leadership reign that wrote it; recovery
//! refuses to mix reigns by requiring the journal's `(epoch, term)` to
//! match the snapshot's (a mismatched term is reported as
//! [`RecoveryReport::stale_journal`], exactly like a stale epoch).
//! Headers predating terms parse as term 1, so pre-failover artifacts
//! stay readable. The server layer enforces the live half of the fence:
//! a deposed leader's appends are refused before they reach this file
//! (see `DESIGN.md` §13).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::db::MetaDb;
use crate::error::MetaError;
use crate::link::{LinkClass, LinkId, LinkKind};
use crate::oid::Oid;
use crate::persist;
use crate::property::Value;
use crate::workspace::Workspace;

/// Journal format version written in every header.
const HEADER_PREFIX: &str = "damocles-journal v1 epoch=";
/// Separator between the epoch and term fields of a header line.
const TERM_INFIX: &str = " term=";
/// Marker line appended to checkpoint snapshots (skipped as a comment by
/// [`persist::load`]).
const EPOCH_COMMENT: &str = "# epoch=";
/// Term marker line appended to checkpoint snapshots, after the epoch
/// marker (also a comment to [`persist::load`]).
const TERM_COMMENT: &str = "# term=";

/// Which end of a link a [`JournalOp::MoveLinkEnd`] re-pointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovedEnd {
    /// The source / hierarchical-parent end.
    From,
    /// The derived / hierarchical-child end.
    To,
}

impl MovedEnd {
    fn as_keyword(self) -> &'static str {
        match self {
            MovedEnd::From => "from",
            MovedEnd::To => "to",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "from" => Ok(MovedEnd::From),
            "to" => Ok(MovedEnd::To),
            other => Err(format!("bad link end `{other}`")),
        }
    }
}

/// One journaled mutation. Mirrors the mutating surface of [`MetaDb`]
/// (`create_oid`, `delete_oid`, `set_prop`, `remove_prop`, `add_link_with`,
/// `remove_link`, `allow_event`, `set_link_prop`, `remove_link_prop`,
/// `move_link_end`) plus [`JournalOp::Data`] for workspace payloads, which
/// the project server emits on check-in.
///
/// Links are referenced by a journal *tag*: a monotonically increasing
/// 64-bit id assigned when the link is first journaled (either by its
/// `AddLink` op or, for links predating the journal, in image order at
/// attach time — see [`MetaDb::attach_journal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// `create_oid`.
    CreateOid {
        /// The created triplet.
        oid: Oid,
    },
    /// `delete_oid` (incident-link removals are journaled separately,
    /// before this record).
    DeleteOid {
        /// The deleted triplet.
        oid: Oid,
    },
    /// `set_prop`.
    SetProp {
        /// Target object.
        oid: Oid,
        /// Property name.
        name: String,
        /// New value.
        value: Value,
    },
    /// `remove_prop`.
    RemoveProp {
        /// Target object.
        oid: Oid,
        /// Property name.
        name: String,
    },
    /// `add_link_with` (and `add_link`, whose PROPAGATE set is empty).
    AddLink {
        /// Journal tag assigned to the new link.
        tag: u64,
        /// Source end triplet.
        from: Oid,
        /// Destination end triplet.
        to: Oid,
        /// Use or derive.
        class: LinkClass,
        /// The TYPE annotation.
        kind: LinkKind,
        /// The PROPAGATE set at creation.
        propagates: Vec<String>,
    },
    /// `remove_link`.
    RemoveLink {
        /// Tag of the removed link.
        tag: u64,
    },
    /// `allow_event`.
    AllowEvent {
        /// Tag of the link gaining the event.
        tag: u64,
        /// The event name.
        event: String,
    },
    /// `set_link_prop`.
    SetLinkProp {
        /// Tag of the annotated link.
        tag: u64,
        /// Property name.
        name: String,
        /// New value.
        value: Value,
    },
    /// `remove_link_prop`.
    RemoveLinkProp {
        /// Tag of the link.
        tag: u64,
        /// Property name.
        name: String,
    },
    /// `move_link_end`.
    MoveLinkEnd {
        /// Tag of the shifted link.
        tag: u64,
        /// Which end moved.
        end: MovedEnd,
        /// The triplet the end now points at.
        new: Oid,
    },
    /// A workspace payload store (server-level; not a [`MetaDb`] mutation).
    Data {
        /// The object whose payload this is.
        oid: Oid,
        /// The opaque design data.
        payload: Vec<u8>,
    },
    /// A design event accepted into the durable event queue (server-level).
    /// Journals *accepted work*, not database state: recovery re-enqueues
    /// the event instead of applying anything to the image.
    EventQueued {
        /// Queue sequence number, monotonic per project lifetime.
        seq: u64,
        /// Event name.
        event: String,
        /// Travel direction: `up` or `down`.
        direction: String,
        /// `true` when delivery fans out from the target's links instead
        /// of starting at the target itself.
        propagate: bool,
        /// The addressed triplet.
        target: Oid,
        /// Event arguments.
        args: Vec<String>,
        /// Posting user.
        user: String,
    },
    /// The queued event with this sequence number was fully processed.
    EventDone {
        /// Matching [`JournalOp::EventQueued`] sequence number.
        seq: u64,
    },
    /// A tool invocation was dispatched (server-level). Like
    /// [`JournalOp::EventQueued`], this records accepted work: recovery
    /// re-dispatches invocations that never reached a terminal record.
    InvokeQueued {
        /// Invocation id, monotonic per project lifetime.
        id: u64,
        /// Script (tool) name.
        script: String,
        /// Script arguments.
        args: Vec<String>,
        /// Notification-only invocation (no tool run expected).
        notify: bool,
        /// The OID string of the rule site that requested the run.
        origin: String,
        /// The triggering event name.
        event: String,
    },
    /// The invocation completed; its result events were enqueued.
    InvokeCompleted {
        /// Matching [`JournalOp::InvokeQueued`] id.
        id: u64,
    },
    /// The invocation exhausted its retry policy.
    InvokeFailed {
        /// Matching [`JournalOp::InvokeQueued`] id.
        id: u64,
        /// Attempts made before giving up.
        attempts: u64,
        /// Last failure reason.
        reason: String,
    },
}

impl JournalOp {
    /// The line body of this op (no checksum/seq prefix, no newline).
    pub fn encode(&self) -> String {
        use persist::{encode_value, escape};
        match self {
            JournalOp::CreateOid { oid } => format!("create {oid}"),
            JournalOp::DeleteOid { oid } => format!("delete {oid}"),
            JournalOp::SetProp { oid, name, value } => {
                format!("prop {oid} {} {}", escape(name), encode_value(value))
            }
            JournalOp::RemoveProp { oid, name } => {
                format!("unprop {oid} {}", escape(name))
            }
            JournalOp::AddLink {
                tag,
                from,
                to,
                class,
                kind,
                propagates,
            } => {
                let events = if propagates.is_empty() {
                    "-".to_string()
                } else {
                    propagates
                        .iter()
                        .map(|e| escape(e))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "link {tag} {from} {to} {class} {} {events}",
                    escape(kind.as_keyword())
                )
            }
            JournalOp::RemoveLink { tag } => format!("unlink {tag}"),
            JournalOp::AllowEvent { tag, event } => {
                format!("allow {tag} {}", escape(event))
            }
            JournalOp::SetLinkProp { tag, name, value } => {
                format!("lprop {tag} {} {}", escape(name), encode_value(value))
            }
            JournalOp::RemoveLinkProp { tag, name } => {
                format!("unlprop {tag} {}", escape(name))
            }
            JournalOp::MoveLinkEnd { tag, end, new } => {
                format!("move {tag} {} {new}", end.as_keyword())
            }
            JournalOp::Data { oid, payload } => {
                format!("data {oid} {}", persist::encode_hex(payload))
            }
            JournalOp::EventQueued {
                seq,
                event,
                direction,
                propagate,
                target,
                args,
                user,
            } => {
                let mut s = format!(
                    "evq {seq} {} {direction} {} {target} {}",
                    escape(event),
                    if *propagate { "fan" } else { "at" },
                    args.len()
                );
                for arg in args {
                    s.push(' ');
                    s.push_str(&escape(arg));
                }
                s.push(' ');
                s.push_str(&escape(user));
                s
            }
            JournalOp::EventDone { seq } => format!("evdone {seq}"),
            JournalOp::InvokeQueued {
                id,
                script,
                args,
                notify,
                origin,
                event,
            } => {
                let mut s = format!("invq {id} {} {}", escape(script), args.len());
                for arg in args {
                    s.push(' ');
                    s.push_str(&escape(arg));
                }
                s.push_str(&format!(
                    " {} {} {}",
                    if *notify { 1 } else { 0 },
                    escape(origin),
                    escape(event)
                ));
                s
            }
            JournalOp::InvokeCompleted { id } => format!("invdone {id}"),
            JournalOp::InvokeFailed {
                id,
                attempts,
                reason,
            } => {
                format!("invfail {id} {attempts} {}", escape(reason))
            }
        }
    }

    /// Parses a line body produced by [`JournalOp::encode`].
    ///
    /// # Errors
    ///
    /// A human-readable reason on any grammar violation.
    pub fn decode(s: &str) -> Result<JournalOp, String> {
        use persist::{decode_value, unescape};
        let mut words = s.split(' ');
        let opcode = words.next().ok_or("empty op")?;
        let mut next = |what: &str| words.next().ok_or(format!("missing {what}"));
        let parse_oid = |w: &str| w.parse::<Oid>().map_err(|e| e.to_string());
        let parse_tag = |w: &str| w.parse::<u64>().map_err(|_| format!("bad tag `{w}`"));
        let parse_num = |w: &str| w.parse::<u64>().map_err(|_| format!("bad number `{w}`"));
        let op = match opcode {
            "create" => JournalOp::CreateOid {
                oid: parse_oid(next("oid")?)?,
            },
            "delete" => JournalOp::DeleteOid {
                oid: parse_oid(next("oid")?)?,
            },
            "prop" => JournalOp::SetProp {
                oid: parse_oid(next("oid")?)?,
                name: unescape(next("name")?)?,
                value: decode_value(next("value")?)?,
            },
            "unprop" => JournalOp::RemoveProp {
                oid: parse_oid(next("oid")?)?,
                name: unescape(next("name")?)?,
            },
            "link" => {
                let tag = parse_tag(next("tag")?)?;
                let from = parse_oid(next("from")?)?;
                let to = parse_oid(next("to")?)?;
                let class = match next("class")? {
                    "use" => LinkClass::Use,
                    "derive" => LinkClass::Derive,
                    other => return Err(format!("unknown link class `{other}`")),
                };
                let kind: LinkKind = unescape(next("kind")?)?
                    .parse()
                    .expect("LinkKind::from_str is infallible");
                let propagates_word = next("propagates")?;
                let propagates: Vec<String> = if propagates_word == "-" {
                    Vec::new()
                } else {
                    propagates_word
                        .split(',')
                        .map(unescape)
                        .collect::<Result<_, _>>()?
                };
                JournalOp::AddLink {
                    tag,
                    from,
                    to,
                    class,
                    kind,
                    propagates,
                }
            }
            "unlink" => JournalOp::RemoveLink {
                tag: parse_tag(next("tag")?)?,
            },
            "allow" => JournalOp::AllowEvent {
                tag: parse_tag(next("tag")?)?,
                event: unescape(next("event")?)?,
            },
            "lprop" => JournalOp::SetLinkProp {
                tag: parse_tag(next("tag")?)?,
                name: unescape(next("name")?)?,
                value: decode_value(next("value")?)?,
            },
            "unlprop" => JournalOp::RemoveLinkProp {
                tag: parse_tag(next("tag")?)?,
                name: unescape(next("name")?)?,
            },
            "move" => JournalOp::MoveLinkEnd {
                tag: parse_tag(next("tag")?)?,
                end: MovedEnd::parse(next("end")?)?,
                new: parse_oid(next("new")?)?,
            },
            "data" => {
                let oid = parse_oid(next("oid")?)?;
                let payload = persist::decode_hex(words.next().unwrap_or(""))?;
                JournalOp::Data { oid, payload }
            }
            "evq" => {
                let seq = parse_num(next("seq")?)?;
                let event = unescape(next("event")?)?;
                let direction = match next("direction")? {
                    d @ ("up" | "down") => d.to_string(),
                    other => return Err(format!("bad direction `{other}`")),
                };
                let propagate = match next("delivery mode")? {
                    "fan" => true,
                    "at" => false,
                    other => return Err(format!("bad delivery mode `{other}`")),
                };
                let target = parse_oid(next("target")?)?;
                let count = parse_num(next("arg count")?)?;
                let mut args = Vec::new();
                for _ in 0..count {
                    args.push(unescape(next("arg")?)?);
                }
                let user = unescape(next("user")?)?;
                JournalOp::EventQueued {
                    seq,
                    event,
                    direction,
                    propagate,
                    target,
                    args,
                    user,
                }
            }
            "evdone" => JournalOp::EventDone {
                seq: parse_num(next("seq")?)?,
            },
            "invq" => {
                let id = parse_num(next("id")?)?;
                let script = unescape(next("script")?)?;
                let count = parse_num(next("arg count")?)?;
                let mut args = Vec::new();
                for _ in 0..count {
                    args.push(unescape(next("arg")?)?);
                }
                let notify = match next("notify flag")? {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("bad notify flag `{other}`")),
                };
                let origin = unescape(next("origin")?)?;
                let event = unescape(next("event")?)?;
                JournalOp::InvokeQueued {
                    id,
                    script,
                    args,
                    notify,
                    origin,
                    event,
                }
            }
            "invdone" => JournalOp::InvokeCompleted {
                id: parse_num(next("id")?)?,
            },
            "invfail" => JournalOp::InvokeFailed {
                id: parse_num(next("id")?)?,
                attempts: parse_num(next("attempts")?)?,
                reason: unescape(next("reason")?)?,
            },
            other => return Err(format!("unknown op `{other}`")),
        };
        if let Some(extra) = words.next() {
            return Err(format!("trailing token `{extra}`"));
        }
        Ok(op)
    }
}

/// The in-database op buffer and link-tag allocator behind
/// [`MetaDb::attach_journal`]. Mutators push ops here; the owner drains
/// them into a [`JournalWriter`].
#[derive(Debug, Clone, Default)]
pub struct JournalRecorder {
    ops: Vec<JournalOp>,
    tags: HashMap<LinkId, u64>,
    next_tag: u64,
}

impl JournalRecorder {
    /// A recorder continuing an existing journal: `tags` maps journal tag
    /// → live link (as [`recover`] rebuilt it) and `next_tag` is the first
    /// tag the journal has not used yet.
    pub(crate) fn resumed(tags: &HashMap<u64, LinkId>, next_tag: u64) -> Self {
        JournalRecorder {
            ops: Vec::new(),
            tags: tags.iter().map(|(&tag, &id)| (id, tag)).collect(),
            next_tag,
        }
    }

    pub(crate) fn record(&mut self, op: JournalOp) {
        self.ops.push(op);
    }

    pub(crate) fn assign_tag(&mut self, id: LinkId) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(id, tag);
        tag
    }

    pub(crate) fn release_tag(&mut self, id: LinkId) -> u64 {
        self.tags
            .remove(&id)
            .expect("every live link has a journal tag")
    }

    pub(crate) fn tag_of(&self, id: LinkId) -> u64 {
        *self
            .tags
            .get(&id)
            .expect("every live link has a journal tag")
    }

    pub(crate) fn drain(&mut self) -> Vec<JournalOp> {
        std::mem::take(&mut self.ops)
    }

    pub(crate) fn backlog(&self) -> usize {
        self.ops.len()
    }
}

/// Errors produced by journal encoding, I/O, and recovery.
#[derive(Debug)]
pub enum JournalError {
    /// File-system failure.
    Io(std::io::Error),
    /// A complete journal header line that is not this version's header.
    BadHeader {
        /// The line found instead.
        found: String,
    },
    /// A record before the final one failed its checksum, sequence or
    /// grammar check — damage truncation cannot explain.
    Corrupt {
        /// 1-based line number in the journal file.
        line: usize,
        /// What failed.
        reason: String,
    },
    /// A well-formed record could not be replayed against the database —
    /// the journal does not belong to this snapshot.
    Replay {
        /// Sequence number of the failing op.
        seq: u64,
        /// Why replay failed.
        reason: String,
    },
    /// The snapshot image itself failed to load.
    Snapshot(MetaError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader { found } => {
                write!(f, "not a damocles journal (header `{found}`)")
            }
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::Replay { seq, reason } => {
                write!(f, "journal op {seq} failed to replay: {reason}")
            }
            JournalError::Snapshot(e) => write!(f, "snapshot failed to load: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// FNV-1a 64 over a record body — the per-record checksum. Standard
/// offset basis and prime (`0x100000001b3`), matching
/// `workspace::fnv1a`, so external tools computing real FNV-1a-64 over
/// `"<seq> <op…>"` reproduce these checksums.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Renders one journal record line (with trailing newline).
///
/// The record grammar is `<fnv1a-64 hex> <seq> <op…>`; the checksum covers
/// `"<seq> <op…>"`. [`decode_record`] is the inverse.
///
/// ```
/// use damocles_meta::journal::{decode_record, encode_record, JournalOp};
/// use damocles_meta::Oid;
///
/// let op = JournalOp::CreateOid { oid: Oid::new("cpu", "schematic", 2) };
/// let line = encode_record(7, &op);
/// assert!(line.ends_with('\n'));
/// assert_eq!(decode_record(line.trim_end(), 7), Ok(op));
/// ```
pub fn encode_record(seq: u64, op: &JournalOp) -> String {
    let mut line = record_line(seq, op);
    line.push('\n');
    line
}

/// One record line without its newline: the form the journal file holds
/// (newline-terminated) and the tail stream carries (newline-stripped).
fn record_line(seq: u64, op: &JournalOp) -> String {
    let payload = format!("{seq} {}", op.encode());
    format!("{:016x} {payload}", fnv1a(payload.as_bytes()))
}

/// Renders the journal header line for `epoch` under leadership `term`
/// (with trailing newline).
pub fn encode_header(epoch: u64, term: u64) -> String {
    format!("{HEADER_PREFIX}{epoch}{TERM_INFIX}{term}\n")
}

/// Whether an incomplete final line could be a truncation artifact of a
/// valid header: a strict prefix of
/// `damocles-journal v1 epoch=<digits> term=<digits>` (the term suffix
/// is optional — pre-term headers stop after the epoch digits).
fn is_torn_header(h: &str) -> bool {
    match h.strip_prefix(HEADER_PREFIX) {
        Some(rest) => {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            let after = &rest[digits..];
            after.is_empty()
                || (digits > 0
                    && (TERM_INFIX.starts_with(after)
                        || after
                            .strip_prefix(TERM_INFIX)
                            .is_some_and(|t| t.bytes().all(|b| b.is_ascii_digit()))))
        }
        None => HEADER_PREFIX.starts_with(h),
    }
}

/// Parses a complete header line into `(epoch, term)`. Headers written
/// before terms existed carry no ` term=` field and parse as term 1.
fn parse_header_fields(h: &str) -> Option<(u64, u64)> {
    let rest = h.strip_prefix(HEADER_PREFIX)?;
    match rest.split_once(TERM_INFIX) {
        Some((epoch, term)) => Some((epoch.parse().ok()?, term.parse().ok()?)),
        None => Some((rest.parse().ok()?, 1)),
    }
}

/// Parses one journal record line (no trailing newline): verifies the
/// FNV-1a checksum, checks the sequence number against `expected_seq`,
/// and decodes the op body. The exact inverse of [`encode_record`] —
/// replication tailers use it to verify streamed records before applying
/// them.
///
/// # Errors
///
/// A human-readable reason on checksum mismatch, sequence gap, or a
/// malformed op body.
///
/// ```
/// use damocles_meta::journal::{decode_record, encode_record, JournalOp};
/// use damocles_meta::{Oid, Value};
///
/// let op = JournalOp::SetProp {
///     oid: Oid::new("cpu", "schematic", 2),
///     name: "uptodate".into(),
///     value: Value::Bool(false),
/// };
/// let line = encode_record(0, &op);
/// // A flipped byte fails the checksum; a wrong sequence is a gap.
/// assert!(decode_record(&line.replace("cpu", "gpu"), 0).is_err());
/// assert!(decode_record(line.trim_end(), 1).unwrap_err().contains("sequence"));
/// assert_eq!(decode_record(line.trim_end(), 0), Ok(op));
/// ```
pub fn decode_record(line: &str, expected_seq: u64) -> Result<JournalOp, String> {
    parse_record(line.trim_end_matches(['\r', '\n']), expected_seq)
}

fn parse_record(line: &str, expected_seq: u64) -> Result<JournalOp, String> {
    let (checksum, payload) = line
        .split_once(' ')
        .ok_or_else(|| "record missing checksum".to_string())?;
    let checksum =
        u64::from_str_radix(checksum, 16).map_err(|_| format!("bad checksum `{checksum}`"))?;
    if checksum != fnv1a(payload.as_bytes()) {
        return Err("checksum mismatch".to_string());
    }
    let (seq, body) = payload
        .split_once(' ')
        .ok_or_else(|| "record missing sequence number".to_string())?;
    let seq: u64 = seq.parse().map_err(|_| format!("bad sequence `{seq}`"))?;
    if seq != expected_seq {
        return Err(format!(
            "sequence gap: expected {expected_seq}, found {seq}"
        ));
    }
    JournalOp::decode(body)
}

/// A parsed journal file: its epoch, the valid op prefix, and whether the
/// tail was torn (the crash artifact — a final partial record).
#[derive(Debug, Clone, Default)]
pub struct JournalTail {
    /// Epoch from the header; `None` when even the header was torn.
    pub epoch: Option<u64>,
    /// Leadership term from the header (1 for pre-term headers); `None`
    /// when even the header was torn.
    pub term: Option<u64>,
    /// Ops of the valid prefix, in sequence order.
    pub ops: Vec<JournalOp>,
    /// Why parsing stopped early, if it did.
    pub torn: Option<String>,
}

/// Parses journal bytes into the valid op prefix.
///
/// A failure on the **final** record (or a partial header) is the signature
/// of a torn write and is reported via [`JournalTail::torn`], not an error;
/// a failure followed by further records is corruption and errors.
///
/// # Errors
///
/// [`JournalError::BadHeader`] for a complete-but-foreign header line,
/// [`JournalError::Corrupt`] for mid-file damage.
pub fn parse_journal(bytes: &[u8]) -> Result<JournalTail, JournalError> {
    let mut tail = JournalTail::default();
    // Split into complete lines; a trailing fragment without '\n' is kept as
    // a (possibly torn) final line.
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if let Some(last) = lines.last() {
        if last.is_empty() {
            lines.pop();
        }
    }
    let Some((header_bytes, records)) = lines.split_first() else {
        tail.torn = Some("empty journal".to_string());
        return Ok(tail);
    };
    let header_complete = bytes.len() > header_bytes.len(); // a '\n' follows
    match std::str::from_utf8(header_bytes) {
        Ok(h) if header_complete => match parse_header_fields(h) {
            Some((epoch, term)) => {
                tail.epoch = Some(epoch);
                tail.term = Some(term);
            }
            None => {
                return Err(JournalError::BadHeader {
                    found: h.to_string(),
                })
            }
        },
        // No newline yet: a crash mid-header-write leaves a strict prefix
        // of "damocles-journal v1 epoch=<digits>" — torn, not foreign.
        Ok(h) if is_torn_header(h) => {
            tail.torn = Some("torn header".to_string());
            return Ok(tail);
        }
        Ok(h) => {
            return Err(JournalError::BadHeader {
                found: h.to_string(),
            })
        }
        Err(_) => {
            tail.torn = Some("torn header (invalid UTF-8)".to_string());
            return Ok(tail);
        }
    }

    // Truncation can only damage the final line, and only by cutting it
    // short of its newline. A complete (newline-terminated) record that
    // fails its checks is corruption wherever it sits.
    let final_line_incomplete = !bytes.ends_with(b"\n");
    for (i, raw) in records.iter().enumerate() {
        let last = i + 1 == records.len();
        let parsed = std::str::from_utf8(raw)
            .map_err(|_| "invalid UTF-8".to_string())
            .and_then(|line| parse_record(line.trim_end_matches('\r'), tail.ops.len() as u64));
        match parsed {
            Ok(op) => tail.ops.push(op),
            Err(reason) if last && final_line_incomplete => {
                tail.torn = Some(reason);
                return Ok(tail);
            }
            Err(reason) => {
                return Err(JournalError::Corrupt {
                    line: i + 2, // 1-based, after the header line
                    reason,
                });
            }
        }
    }
    Ok(tail)
}

/// Append-only journal file writer.
///
/// Either created fresh at a checkpoint ([`JournalWriter::create`], record
/// space from sequence 0) or reopened by recovery to continue a journal
/// whose header matches its snapshot and whose tail is clean
/// ([`JournalWriter::open_append`], from [`Recovered::append_at`]). A
/// stale or torn journal is never appended to: recovery folds it into a
/// checkpoint instead.
///
/// The writer counts the records and bytes of its file, so a continued
/// journal resumes both where the previous process left them — the
/// inputs of the server's fold policy.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    epoch: u64,
    term: u64,
    seq: u64,
    bytes: u64,
}

impl JournalWriter {
    /// Creates (atomically: tmp + rename) a fresh journal at `path` for
    /// `epoch` under leadership `term`, truncating any previous file.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn create(path: impl AsRef<Path>, epoch: u64, term: u64) -> Result<Self, std::io::Error> {
        let path = path.as_ref().to_path_buf();
        let tmp = tmp_sibling(&path);
        let mut file = File::create(&tmp)?;
        let header = encode_header(epoch, term);
        file.write_all(header.as_bytes())?;
        file.sync_all()?;
        fs::rename(&tmp, &path)?;
        sync_parent_dir(&path)?;
        Ok(JournalWriter {
            file,
            path,
            epoch,
            term,
            seq: 0,
            bytes: header.len() as u64,
        })
    }

    /// Reopens the journal at `path` for append, continuing at record
    /// `seq` — the restart half of a journal's life. The caller has
    /// verified (through [`recover`]) that the file's header is
    /// `(epoch, term)` and that it holds exactly `seq` valid records
    /// ending on a newline ([`Recovered::append_at`]), so new records
    /// extend it without a gap.
    ///
    /// The adopted prefix is synced before the writer is returned: a
    /// record that was written but not yet synced when the previous
    /// process died is part of the recovered state, so it must be on
    /// stable storage before anything built on it is acknowledged.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn open_append(
        path: impl AsRef<Path>,
        epoch: u64,
        term: u64,
        seq: u64,
    ) -> Result<Self, std::io::Error> {
        let path = path.as_ref().to_path_buf();
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        file.sync_data()?;
        let bytes = file.metadata()?.len();
        Ok(JournalWriter {
            file,
            path,
            epoch,
            term,
            seq,
            bytes,
        })
    }

    /// Appends `ops` as consecutive records — each encoded once, all of
    /// them written with a single `write` — and returns their record lines
    /// (no trailing newline) in sequence order: exactly the bytes the file
    /// now holds, ready for the tail stream. Buffered by the OS until
    /// [`JournalWriter::sync`].
    ///
    /// ```
    /// use damocles_meta::journal::{decode_record, JournalOp, JournalWriter};
    /// use damocles_meta::Oid;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-append-{}.djl", std::process::id()));
    /// let mut writer = JournalWriter::create(&path, 1, 1).unwrap();
    /// let ops = [
    ///     JournalOp::CreateOid { oid: Oid::new("cpu", "schematic", 1) },
    ///     JournalOp::DeleteOid { oid: Oid::new("cpu", "schematic", 1) },
    /// ];
    /// let lines = writer.append_batch(&ops).unwrap();
    /// assert_eq!(writer.record_count(), 2);
    /// assert_eq!(decode_record(&lines[1], 1), Ok(ops[1].clone()));
    /// let file = std::fs::read_to_string(&path).unwrap();
    /// assert!(file.ends_with(&format!("{}\n{}\n", lines[0], lines[1])));
    /// assert_eq!(writer.byte_len(), file.len() as u64);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// File-system errors. The write may have landed partially; the
    /// caller must not append after a failure (the counts do not move).
    pub fn append_batch(&mut self, ops: &[JournalOp]) -> Result<Vec<String>, std::io::Error> {
        let lines: Vec<String> = (self.seq..)
            .zip(ops)
            .map(|(seq, op)| record_line(seq, op))
            .collect();
        let mut buf = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in &lines {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        self.file.write_all(&buf)?;
        self.seq += lines.len() as u64;
        self.bytes += buf.len() as u64;
        Ok(lines)
    }

    /// Forces appended records to stable storage.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn sync(&mut self) -> Result<(), std::io::Error> {
        self.file.sync_data()
    }

    /// Records appended so far (== the next sequence number).
    pub fn record_count(&self) -> u64 {
        self.seq
    }

    /// The file's length in bytes: its header plus every record so far.
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// The epoch in this journal's header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The leadership term in this journal's header.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Makes a just-performed rename durable: on POSIX, a rename is not on
/// stable storage until the parent directory is fsynced. Best-effort on
/// platforms where directories cannot be opened/fsynced.
fn sync_parent_dir(path: &Path) -> Result<(), std::io::Error> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// Writes a checkpoint snapshot image: the [`persist::save_project`] text
/// (database + workspace payloads) plus epoch and term marker lines that
/// [`recover`] matches against the journal header.
pub fn write_snapshot(db: &MetaDb, workspace: &Workspace, epoch: u64, term: u64) -> String {
    let mut image = persist::save_project(db, workspace);
    image.push_str(&format!("{EPOCH_COMMENT}{epoch}\n{TERM_COMMENT}{term}\n"));
    image
}

/// The epoch marker of a snapshot image (0 for plain [`persist::save`]
/// images without one).
pub fn snapshot_epoch(image: &str) -> u64 {
    image
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(EPOCH_COMMENT))
        .and_then(|e| e.trim().parse().ok())
        .unwrap_or(0)
}

/// The leadership-term marker of a snapshot image (1 for images written
/// before terms existed, matching the pre-term journal-header default).
pub fn snapshot_term(image: &str) -> u64 {
    image
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(TERM_COMMENT))
        .and_then(|t| t.trim().parse().ok())
        .unwrap_or(1)
}

/// Writes `content` to `path` atomically (tmp sibling + fsync + rename).
///
/// # Errors
///
/// File-system errors.
pub fn write_file_atomic(path: impl AsRef<Path>, content: &str) -> Result<(), std::io::Error> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    let mut file = File::create(&tmp)?;
    file.write_all(content.as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// What [`recover`] produced.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt database (journal detached; the caller re-attaches /
    /// re-checkpoints as appropriate).
    pub db: MetaDb,
    /// The rebuilt workspace (payloads from the snapshot and `data` ops).
    pub workspace: Workspace,
    /// What happened during recovery.
    pub report: RecoveryReport,
    /// Accepted-but-unfinished work the journal recorded: unprocessed
    /// events and in-flight invocations for the server layer to
    /// re-dispatch.
    pub pending: PendingWork,
    /// The replay's journal-tag map (tag → link address in [`Recovered::db`]):
    /// snapshot links in image order, then every replayed `AddLink` /
    /// `RemoveLink`. Together with [`Recovered::next_tag`] it is what
    /// [`MetaDb::attach_journal_resumed`] needs to keep journaling into the
    /// same file.
    pub tags: HashMap<u64, LinkId>,
    /// The first journal tag never used in this epoch: past every snapshot
    /// link's image-order tag and every replayed `AddLink` tag (including
    /// links unlinked since), so a continued journal never reuses one.
    pub next_tag: u64,
    /// `Some(n)` when the journal can be continued in place: its header
    /// matches the snapshot's `(epoch, term)`, the whole file parsed as `n`
    /// records with no torn tail, and it ends on a newline. `None` when
    /// the journal is missing, stale, torn, or cut by a replay cursor — the
    /// caller must fold into a fresh checkpoint instead.
    pub append_at: Option<u64>,
}

/// Work-queue records of a journal that never reached their terminal
/// record: [`JournalOp::EventQueued`] without a matching
/// [`JournalOp::EventDone`], and [`JournalOp::InvokeQueued`] without a
/// matching [`JournalOp::InvokeCompleted`] / [`JournalOp::InvokeFailed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingWork {
    /// Unprocessed [`JournalOp::EventQueued`] ops, in queue order.
    pub events: Vec<JournalOp>,
    /// In-flight [`JournalOp::InvokeQueued`] ops, in dispatch order.
    pub invocations: Vec<JournalOp>,
    /// The next free event-queue sequence number (max seen + 1).
    pub next_event_seq: u64,
    /// The next free invocation id (max seen + 1).
    pub next_invoke_id: u64,
}

impl PendingWork {
    /// Whether any accepted work is still outstanding.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.invocations.is_empty()
    }
}

/// Scans a journal's op stream for accepted-but-unfinished work. Both
/// sets come back in journal (= acceptance) order, which is the order the
/// server must re-dispatch them in.
///
/// Unlike database mutations, work-queue records have **no snapshot
/// representation** — the journal is their only durable home — so this
/// scan is meaningful even on a stale journal (crash between checkpoint
/// snapshot and journal reset): the mutations are folded into the
/// snapshot, but the pending set is still exactly what this scan yields.
pub fn pending_work(ops: &[JournalOp]) -> PendingWork {
    let mut out = PendingWork::default();
    let mut done_events = BTreeSet::new();
    let mut done_invokes = BTreeSet::new();
    for op in ops {
        match op {
            JournalOp::EventQueued { seq, .. } => {
                out.next_event_seq = out.next_event_seq.max(seq + 1);
            }
            JournalOp::EventDone { seq } => {
                done_events.insert(*seq);
            }
            JournalOp::InvokeQueued { id, .. } => {
                out.next_invoke_id = out.next_invoke_id.max(id + 1);
            }
            JournalOp::InvokeCompleted { id } | JournalOp::InvokeFailed { id, .. } => {
                done_invokes.insert(*id);
            }
            _ => {}
        }
    }
    for op in ops {
        match op {
            JournalOp::EventQueued { seq, .. } if !done_events.contains(seq) => {
                out.events.push(op.clone());
            }
            JournalOp::InvokeQueued { id, .. } if !done_invokes.contains(id) => {
                out.invocations.push(op.clone());
            }
            _ => {}
        }
    }
    out
}

/// Diagnostics from a [`recover`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot's epoch.
    pub epoch: u64,
    /// The snapshot's leadership term (1 for pre-term images).
    pub term: u64,
    /// Live objects restored from the snapshot alone.
    pub snapshot_oids: usize,
    /// Journal ops replayed on top of the snapshot.
    pub replayed_ops: usize,
    /// Why the journal's tail was cut short (torn final record), if it was.
    pub torn_tail: Option<String>,
    /// The journal belonged to an older checkpoint epoch or a different
    /// leadership term and was ignored (a stale epoch's ops are already
    /// folded into the snapshot; a stale term's belong to a deposed
    /// leader and must never be applied).
    pub stale_journal: bool,
}

/// Rebuilds database + workspace from a snapshot image and journal bytes.
///
/// The journal's valid op prefix is replayed through the normal [`MetaDb`]
/// API — `create_oid`, `set_prop`, `add_link_with`, … — so every derived
/// structure (version chains, the view index, interned event bitsets, the
/// property index) is rebuilt by the same code paths that built it the
/// first time. A torn final record (the crash artifact) is ignored and
/// reported; damage anywhere else is a structured error, never a panic or
/// a half-applied database.
///
/// # Errors
///
/// [`JournalError::Snapshot`] when the snapshot fails to load;
/// [`JournalError::BadHeader`] / [`JournalError::Corrupt`] for journal
/// damage truncation cannot explain; [`JournalError::Replay`] when a valid
/// record does not apply (the journal belongs to a different snapshot).
pub fn recover(snapshot: &str, journal: &[u8]) -> Result<Recovered, JournalError> {
    recover_until(snapshot, journal, None)
}

/// [`recover`], stopped at a journal cursor: replays only the first
/// `limit` ops of the journal's valid prefix, reconstructing exactly the
/// image the database had when record `limit` was the next to be written
/// — the unit step of time-travel replay (`limit = Some(0)` is the
/// snapshot alone, `None` is a full recovery).
///
/// Pending-work scanning honors the same cut: work accepted after the
/// cursor does not exist yet at that point in time.
///
/// # Errors
///
/// Everything [`recover`] reports, plus [`JournalError::Corrupt`] when
/// `limit` exceeds the journal's valid op count — the cursor names a
/// point this journal never reached.
pub fn recover_until(
    snapshot: &str,
    journal: &[u8],
    limit: Option<u64>,
) -> Result<Recovered, JournalError> {
    let (mut db, mut workspace) =
        persist::load_project(snapshot).map_err(JournalError::Snapshot)?;
    let mut report = RecoveryReport {
        epoch: snapshot_epoch(snapshot),
        term: snapshot_term(snapshot),
        snapshot_oids: db.oid_count(),
        ..Default::default()
    };

    let mut tail = parse_journal(journal)?;
    let available = tail.ops.len() as u64;
    if let Some(limit) = limit {
        if limit > available {
            return Err(JournalError::Corrupt {
                line: 0,
                reason: format!(
                    "replay cursor seq {limit} is beyond the journal's {available} valid op(s)"
                ),
            });
        }
        tail.ops.truncate(limit as usize);
    }
    // The tail extends this snapshot only when BOTH coordinates match:
    // a stale epoch's ops are already folded in; a stale (or future)
    // term's were written by a different leadership reign.
    let replay = match (tail.epoch, tail.term) {
        (Some(e), Some(t)) if e == report.epoch && t == report.term => true,
        (Some(_), _) => {
            report.stale_journal = true;
            false
        }
        _ => false, // torn header: no usable tail
    };
    // A writer may continue the file only where it ends: every record
    // replayed, none torn, the last one newline-terminated.
    let append_at = (replay
        && tail.torn.is_none()
        && limit.is_none_or(|l| l == available)
        && journal.ends_with(b"\n"))
    .then_some(available);
    report.torn_tail = tail.torn;

    // Tag map: links already in the snapshot get tags in image order —
    // the same assignment MetaDb::attach_journal made after the
    // checkpoint that wrote this snapshot.
    let mut tags: HashMap<u64, LinkId> = db
        .links_in_image_order()
        .into_iter()
        .enumerate()
        .map(|(i, id)| (i as u64, id))
        .collect();
    let mut next_tag = tags.len() as u64;
    if replay {
        for (i, op) in tail.ops.iter().enumerate() {
            apply_op(&mut db, &mut workspace, &mut tags, op).map_err(|reason| {
                JournalError::Replay {
                    seq: i as u64,
                    reason,
                }
            })?;
            if let JournalOp::AddLink { tag, .. } = op {
                next_tag = next_tag.max(tag + 1);
            }
            report.replayed_ops += 1;
        }
    }

    // Pending work is scanned regardless of `replay`: a stale journal's
    // *mutations* are already folded into the snapshot, but its work-queue
    // records are the only durable record of accepted-but-unfinished work.
    let pending = pending_work(&tail.ops);

    Ok(Recovered {
        db,
        workspace,
        report,
        pending,
        tags,
        next_tag,
        append_at,
    })
}

/// Applies one op to a live database + workspace through the normal
/// [`MetaDb`] API, so every derived structure (version chains, indices,
/// interned event bitsets) is rebuilt by the same code paths that built it
/// on the leader. `tags` is the replay-side journal-tag map (tag →
/// [`LinkId`]); seed it from [`MetaDb::links_in_image_order`] after
/// adopting a snapshot, exactly as [`recover`] does, and let this function
/// maintain it across `AddLink`/`RemoveLink` ops.
///
/// This is the unit step of both [`recover`] and a replication follower
/// applying a streamed journal tail.
///
/// # Errors
///
/// A human-readable reason when the op does not apply (unknown OID or
/// tag, duplicate creation, …) — the op stream does not belong to this
/// database image.
pub fn apply_op(
    db: &mut MetaDb,
    workspace: &mut Workspace,
    tags: &mut HashMap<u64, LinkId>,
    op: &JournalOp,
) -> Result<(), String> {
    let meta = |e: MetaError| e.to_string();
    let resolve_tag = |tags: &HashMap<u64, LinkId>, tag: u64| {
        tags.get(&tag)
            .copied()
            .ok_or_else(|| format!("unknown link tag {tag}"))
    };
    match op {
        JournalOp::CreateOid { oid } => {
            db.create_oid(oid.clone()).map_err(meta)?;
        }
        JournalOp::DeleteOid { oid } => {
            let id = db.require(oid).map_err(meta)?;
            // The delete's incident-link unlinks were journaled before this
            // record, so no tags dangle here; any remaining incident link
            // would indicate a foreign journal and fails below on its tag.
            db.delete_oid(id).map_err(meta)?;
        }
        JournalOp::SetProp { oid, name, value } => {
            let id = db.require(oid).map_err(meta)?;
            db.set_prop(id, name, value.clone()).map_err(meta)?;
        }
        JournalOp::RemoveProp { oid, name } => {
            let id = db.require(oid).map_err(meta)?;
            db.remove_prop(id, name).map_err(meta)?;
        }
        JournalOp::AddLink {
            tag,
            from,
            to,
            class,
            kind,
            propagates,
        } => {
            if tags.contains_key(tag) {
                return Err(format!("duplicate link tag {tag}"));
            }
            let from_id = db.require(from).map_err(meta)?;
            let to_id = db.require(to).map_err(meta)?;
            let id = db
                .add_link_with(from_id, to_id, *class, kind.clone(), propagates.clone())
                .map_err(meta)?;
            tags.insert(*tag, id);
        }
        JournalOp::RemoveLink { tag } => {
            let id = resolve_tag(tags, *tag)?;
            db.remove_link(id).map_err(meta)?;
            tags.remove(tag);
        }
        JournalOp::AllowEvent { tag, event } => {
            let id = resolve_tag(tags, *tag)?;
            db.allow_event(id, event).map_err(meta)?;
        }
        JournalOp::SetLinkProp { tag, name, value } => {
            let id = resolve_tag(tags, *tag)?;
            db.set_link_prop(id, name, value.clone()).map_err(meta)?;
        }
        JournalOp::RemoveLinkProp { tag, name } => {
            let id = resolve_tag(tags, *tag)?;
            db.remove_link_prop(id, name).map_err(meta)?;
        }
        JournalOp::MoveLinkEnd { tag, end, new } => {
            let link_id = resolve_tag(tags, *tag)?;
            let link = db.link(link_id).map_err(meta)?;
            let old = match end {
                MovedEnd::From => link.from,
                MovedEnd::To => link.to,
            };
            let new_id = db.require(new).map_err(meta)?;
            db.move_link_end(link_id, old, new_id).map_err(meta)?;
        }
        JournalOp::Data { oid, payload } => {
            let id = db.require(oid).map_err(meta)?;
            workspace.store(id, payload.clone());
        }
        // Work-queue records journal *accepted work*, not database state.
        // Recovery re-dispatches them via [`pending_work`]; applying them
        // to an image is deliberately a no-op, so replication followers
        // streaming the leader's journal skip them transparently.
        JournalOp::EventQueued { .. }
        | JournalOp::EventDone { .. }
        | JournalOp::InvokeQueued { .. }
        | JournalOp::InvokeCompleted { .. }
        | JournalOp::InvokeFailed { .. } => {}
    }
    Ok(())
}

/// Folds `snapshot + journal tail` into a fresh snapshot at the next
/// epoch, under the same leadership term — offline compaction. The
/// live-server equivalent is `ProjectServer::checkpoint`.
///
/// # Errors
///
/// As [`recover`].
pub fn compact(snapshot: &str, journal: &[u8]) -> Result<(String, RecoveryReport), JournalError> {
    let recovered = recover(snapshot, journal)?;
    let next_epoch = recovered.report.epoch + 1;
    Ok((
        write_snapshot(
            &recovered.db,
            &recovered.workspace,
            next_epoch,
            recovered.report.term,
        ),
        recovered.report,
    ))
}

/// Replays a journaled op stream against an **empty** database and
/// workspace — the degenerate `recover` with an empty snapshot, used by
/// tests and tools that treat a journal as a self-contained op script.
///
/// # Errors
///
/// [`JournalError::Replay`] when an op does not apply.
pub fn replay_ops(ops: &[JournalOp]) -> Result<(MetaDb, Workspace), JournalError> {
    let mut db = MetaDb::new();
    let mut workspace = Workspace::new("replayed");
    let mut tags = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        apply_op(&mut db, &mut workspace, &mut tags, op).map_err(|reason| {
            JournalError::Replay {
                seq: i as u64,
                reason,
            }
        })?;
    }
    Ok((db, workspace))
}

/// A set-valued view of which `(block, view, version)` triplets a journal
/// mentions — handy for audit tooling and tests.
pub fn touched_oids(ops: &[JournalOp]) -> BTreeSet<Oid> {
    let mut out = BTreeSet::new();
    for op in ops {
        match op {
            JournalOp::CreateOid { oid }
            | JournalOp::DeleteOid { oid }
            | JournalOp::SetProp { oid, .. }
            | JournalOp::RemoveProp { oid, .. }
            | JournalOp::Data { oid, .. }
            | JournalOp::MoveLinkEnd { new: oid, .. }
            | JournalOp::EventQueued { target: oid, .. } => {
                out.insert(oid.clone());
            }
            JournalOp::AddLink { from, to, .. } => {
                out.insert(from.clone());
                out.insert(to.clone());
            }
            JournalOp::RemoveLink { .. }
            | JournalOp::AllowEvent { .. }
            | JournalOp::SetLinkProp { .. }
            | JournalOp::RemoveLinkProp { .. }
            | JournalOp::EventDone { .. }
            | JournalOp::InvokeQueued { .. }
            | JournalOp::InvokeCompleted { .. }
            | JournalOp::InvokeFailed { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkClass, LinkKind};

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::CreateOid {
                oid: Oid::new("cpu", "HDL_model", 1),
            },
            JournalOp::CreateOid {
                oid: Oid::new("cpu", "schematic", 1),
            },
            JournalOp::SetProp {
                oid: Oid::new("cpu", "HDL_model", 1),
                name: "sim result".into(),
                value: Value::Str("4 errors\nbad".into()),
            },
            JournalOp::AddLink {
                tag: 0,
                from: Oid::new("cpu", "HDL_model", 1),
                to: Oid::new("cpu", "schematic", 1),
                class: LinkClass::Derive,
                kind: LinkKind::DeriveFrom,
                propagates: vec!["outofdate".into(), "nl sim".into()],
            },
            JournalOp::AllowEvent {
                tag: 0,
                event: "lvs".into(),
            },
            JournalOp::SetLinkProp {
                tag: 0,
                name: "weight".into(),
                value: Value::Int(3),
            },
            JournalOp::MoveLinkEnd {
                tag: 0,
                end: MovedEnd::To,
                new: Oid::new("cpu", "schematic", 1),
            },
            JournalOp::RemoveLinkProp {
                tag: 0,
                name: "weight".into(),
            },
            JournalOp::RemoveLink { tag: 0 },
            JournalOp::RemoveProp {
                oid: Oid::new("cpu", "HDL_model", 1),
                name: "sim result".into(),
            },
            JournalOp::Data {
                oid: Oid::new("cpu", "HDL_model", 1),
                payload: b"\xff\x00raw".to_vec(),
            },
            JournalOp::DeleteOid {
                oid: Oid::new("cpu", "schematic", 1),
            },
            JournalOp::EventQueued {
                seq: 7,
                event: "hdl sim".into(),
                direction: "up".into(),
                propagate: true,
                target: Oid::new("cpu", "HDL_model", 1),
                args: vec!["logic sim passed".into(), String::new()],
                user: "net 3".into(),
            },
            JournalOp::EventDone { seq: 7 },
            JournalOp::InvokeQueued {
                id: 12,
                script: "simulator".into(),
                args: vec!["cpu,netlist,1".into(), String::new()],
                notify: false,
                origin: "cpu,netlist,1".into(),
                event: "ckin".into(),
            },
            JournalOp::InvokeCompleted { id: 12 },
            JournalOp::InvokeFailed {
                id: 13,
                attempts: 5,
                reason: "simulation crashed\n(timeout)".into(),
            },
        ]
    }

    #[test]
    fn ops_roundtrip_through_text() {
        for op in sample_ops() {
            let encoded = op.encode();
            let decoded = JournalOp::decode(&encoded).unwrap_or_else(|e| {
                panic!("decode failed for `{encoded}`: {e}");
            });
            assert_eq!(decoded, op, "roundtrip for `{encoded}`");
        }
    }

    #[test]
    fn record_checksum_detects_flips() {
        let op = JournalOp::CreateOid {
            oid: Oid::new("cpu", "schematic", 1),
        };
        let line = encode_record(0, &op);
        assert!(parse_record(line.trim_end(), 0).is_ok());
        let flipped = line.trim_end().replace("schematic", "schematiC");
        assert_eq!(
            parse_record(&flipped, 0).unwrap_err(),
            "checksum mismatch".to_string()
        );
        // Wrong expected sequence is also rejected.
        assert!(parse_record(line.trim_end(), 1)
            .unwrap_err()
            .contains("sequence"));
    }

    #[test]
    fn parse_journal_accepts_torn_tail() {
        let mut bytes = encode_header(4, 2).into_bytes();
        let ops = sample_ops();
        bytes.extend_from_slice(encode_record(0, &ops[0]).as_bytes());
        bytes.extend_from_slice(encode_record(1, &ops[1]).as_bytes());
        let full = bytes.clone();
        // A torn final record: keep half of the last line.
        bytes.truncate(full.len() - 7);
        let tail = parse_journal(&bytes).unwrap();
        assert_eq!(tail.epoch, Some(4));
        assert_eq!(tail.term, Some(2));
        assert_eq!(tail.ops.len(), 1);
        assert!(tail.torn.is_some());
        // The untouched journal parses fully.
        let tail = parse_journal(&full).unwrap();
        assert_eq!(tail.ops.len(), 2);
        assert!(tail.torn.is_none());
    }

    #[test]
    fn parse_journal_rejects_midfile_corruption() {
        let mut text = encode_header(0, 1);
        let ops = sample_ops();
        let mut bad = encode_record(0, &ops[0]);
        bad = bad.replace("cpu", "gpu"); // breaks the checksum
        text.push_str(&bad);
        text.push_str(&encode_record(1, &ops[1]));
        assert!(matches!(
            parse_journal(text.as_bytes()),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn complete_final_record_with_bad_checksum_is_corrupt_not_torn() {
        // A newline-terminated final record cannot be a truncation
        // artifact: a bit flip there must error, exactly like mid-file.
        let ops = sample_ops();
        let mut text = encode_header(0, 1);
        text.push_str(&encode_record(0, &ops[0]));
        text.push_str(&encode_record(1, &ops[1]).replace("cpu", "gpu"));
        assert!(text.ends_with('\n'));
        assert!(matches!(
            parse_journal(text.as_bytes()),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
        // The same damage WITHOUT the trailing newline is a torn tail.
        let tail = parse_journal(text.trim_end().as_bytes()).unwrap();
        assert_eq!(tail.ops.len(), 1);
        assert!(tail.torn.is_some());
    }

    #[test]
    fn parse_journal_handles_header_damage() {
        // Torn header: strict prefix of the real one.
        let tail = parse_journal(b"damocles-jour").unwrap();
        assert!(tail.torn.is_some());
        assert!(tail.epoch.is_none());
        assert!(tail.term.is_none());
        // Complete foreign header errors.
        assert!(matches!(
            parse_journal(b"some other file\n"),
            Err(JournalError::BadHeader { .. })
        ));
        // Empty file is a torn (not yet written) journal.
        assert!(parse_journal(b"").unwrap().torn.is_some());
    }

    #[test]
    fn header_term_grammar() {
        // A full header round-trips both coordinates.
        let tail = parse_journal(encode_header(4, 3).as_bytes()).unwrap();
        assert_eq!((tail.epoch, tail.term), (Some(4), Some(3)));
        // A pre-term header parses as term 1.
        let tail = parse_journal(b"damocles-journal v1 epoch=4\n").unwrap();
        assert_eq!((tail.epoch, tail.term), (Some(4), Some(1)));
        // Truncation anywhere inside ` term=<digits>` is torn, not foreign.
        for cut in [
            "epoch=4 ",
            "epoch=4 ter",
            "epoch=4 term=",
            "epoch=4 term=12",
        ] {
            let bytes = format!("damocles-journal v1 {cut}");
            let tail = parse_journal(bytes.as_bytes()).unwrap();
            assert!(tail.torn.is_some(), "`{cut}` should be torn");
            assert!(tail.epoch.is_none());
        }
        // A complete header with a mangled term field is foreign.
        for bad in [
            "damocles-journal v1 epoch=4 tern=2\n",
            "damocles-journal v1 epoch=4 term=x\n",
            "damocles-journal v1 epoch= term=2\n",
        ] {
            assert!(
                matches!(
                    parse_journal(bad.as_bytes()),
                    Err(JournalError::BadHeader { .. })
                ),
                "`{bad}` should be foreign"
            );
        }
    }

    #[test]
    fn replay_rebuilds_state_and_reports_errors() {
        let ops = vec![
            JournalOp::CreateOid {
                oid: Oid::new("a", "v", 1),
            },
            JournalOp::SetProp {
                oid: Oid::new("a", "v", 1),
                name: "x".into(),
                value: Value::Int(1),
            },
        ];
        let (db, _ws) = replay_ops(&ops).unwrap();
        assert_eq!(db.oid_count(), 1);
        // Replaying an op against a missing OID is a structured error.
        let err = replay_ops(&[JournalOp::SetProp {
            oid: Oid::new("ghost", "v", 1),
            name: "x".into(),
            value: Value::Int(1),
        }])
        .unwrap_err();
        assert!(matches!(err, JournalError::Replay { seq: 0, .. }));
    }

    #[test]
    fn snapshot_epoch_roundtrip() {
        let db = MetaDb::new();
        let ws = Workspace::new("w");
        let image = write_snapshot(&db, &ws, 7, 3);
        assert_eq!(snapshot_epoch(&image), 7);
        assert_eq!(snapshot_term(&image), 3);
        // Plain persist images default to epoch 0, term 1 (the pre-term
        // journal-header default, so legacy pairs still match up).
        assert_eq!(snapshot_epoch(&persist::save(&db)), 0);
        assert_eq!(snapshot_term(&persist::save(&db)), 1);
        // The markers are comments: persist::load still accepts the image.
        assert!(persist::load(&image).is_ok());
    }

    #[test]
    fn journal_from_a_different_term_is_stale() {
        let db = MetaDb::new();
        let ws = Workspace::new("w");
        let snapshot = write_snapshot(&db, &ws, 3, 2);
        let op = JournalOp::CreateOid {
            oid: Oid::new("a", "v", 1),
        };
        let journal = |term: u64| {
            let mut j = encode_header(3, term);
            j.push_str(&encode_record(0, &op));
            j
        };
        // Matching (epoch, term): the tail replays.
        let r = recover(&snapshot, journal(2).as_bytes()).unwrap();
        assert_eq!((r.report.term, r.report.replayed_ops), (2, 1));
        assert!(!r.report.stale_journal);
        // A deposed leader's term (older OR newer than the snapshot's)
        // never replays — its reign did not write this snapshot.
        for stale in [1, 3] {
            let r = recover(&snapshot, journal(stale).as_bytes()).unwrap();
            assert!(r.report.stale_journal, "term {stale}");
            assert_eq!(r.report.replayed_ops, 0);
            assert_eq!(r.db.oid_count(), 0);
        }
    }

    #[test]
    fn recover_until_cuts_history_at_the_cursor() {
        let db = MetaDb::new();
        let ws = Workspace::new("w");
        let snapshot = write_snapshot(&db, &ws, 3, 1);
        let ops = [
            JournalOp::CreateOid {
                oid: Oid::new("a", "v", 1),
            },
            JournalOp::CreateOid {
                oid: Oid::new("b", "v", 1),
            },
            JournalOp::SetProp {
                oid: Oid::new("a", "v", 1),
                name: "x".into(),
                value: Value::Int(1),
            },
        ];
        let mut journal = encode_header(3, 1);
        for (seq, op) in ops.iter().enumerate() {
            journal.push_str(&encode_record(seq as u64, op));
        }
        let bytes = journal.as_bytes();
        // Cursor 0 is the snapshot alone; each step adds exactly one op.
        for (limit, oids) in [(0u64, 0usize), (1, 1), (2, 2), (3, 2)] {
            let r = recover_until(&snapshot, bytes, Some(limit)).unwrap();
            assert_eq!(r.db.oid_count(), oids, "cursor {limit}");
        }
        let full = recover_until(&snapshot, bytes, Some(2)).unwrap();
        assert!(full
            .db
            .resolve(&Oid::new("a", "v", 1))
            .map(|id| full.db.get_prop(id, "x").unwrap().is_none())
            .unwrap());
        // None means the whole valid prefix, same as `recover`.
        let all = recover_until(&snapshot, bytes, None).unwrap();
        assert_eq!(all.db.oid_count(), 2);
        // A cursor past the end is a structured error naming the bound.
        let err = recover_until(&snapshot, bytes, Some(4)).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("beyond the journal's 3"), "{err}");
    }

    #[test]
    fn pending_work_is_queued_minus_done() {
        let evq = |seq: u64| JournalOp::EventQueued {
            seq,
            event: "ckin".into(),
            direction: "down".into(),
            propagate: false,
            target: Oid::new("cpu", "HDL_model", 1),
            args: vec![],
            user: "yves".into(),
        };
        let invq = |id: u64| JournalOp::InvokeQueued {
            id,
            script: "drc".into(),
            args: vec!["cpu,layout,1".into()],
            notify: false,
            origin: "cpu,layout,1".into(),
            event: "ckin".into(),
        };
        let ops = vec![
            evq(0),
            JournalOp::EventDone { seq: 0 },
            evq(1),
            invq(0),
            JournalOp::InvokeCompleted { id: 0 },
            invq(1),
            invq(2),
            JournalOp::InvokeFailed {
                id: 2,
                attempts: 3,
                reason: "gave up".into(),
            },
            evq(2),
        ];
        let pending = pending_work(&ops);
        assert_eq!(pending.events, vec![evq(1), evq(2)]);
        assert_eq!(pending.invocations, vec![invq(1)]);
        assert_eq!(pending.next_event_seq, 3);
        assert_eq!(pending.next_invoke_id, 3);
        // Work-queue records are state no-ops: replay accepts them.
        let (db, _ws) = replay_ops(&[
            JournalOp::CreateOid {
                oid: Oid::new("cpu", "HDL_model", 1),
            },
            evq(0),
            invq(0),
            JournalOp::EventDone { seq: 0 },
            JournalOp::InvokeCompleted { id: 0 },
        ])
        .unwrap();
        assert_eq!(db.oid_count(), 1);
    }

    #[test]
    fn touched_oids_collects_endpoints() {
        let ops = sample_ops();
        let touched = touched_oids(&ops);
        assert!(touched.contains(&Oid::new("cpu", "HDL_model", 1)));
        assert!(touched.contains(&Oid::new("cpu", "schematic", 1)));
    }
}
