//! # damocles-meta — the DAMOCLES meta-database
//!
//! This crate implements the substrate described in Section 2 of *Controlling
//! Change Propagation and Project Policies in IC Design* (Mathys, Morgan,
//! Soudagar — DATE 1995): a meta-database that "modelizes the project data and
//! the relationship among design views".
//!
//! The meta-database stores three classes of meta-data objects:
//!
//! * **OIDs** ([`Oid`], stored as [`OidId`] handles): each design object is a
//!   triplet of block-name, view-type and version number, annotated with
//!   property/value pairs ([`Value`]).
//! * **Links** ([`Link`], stored as [`LinkId`] handles): typed relations
//!   between OIDs. *Use* links represent hierarchy; *derive* links represent
//!   all other relationships (derivation, equivalence, depend-on). Every link
//!   carries a `PROPAGATE` set enumerating the events allowed to travel
//!   through it.
//! * **Configurations** ([`Configuration`]): lightweight sets of database
//!   addresses referencing OIDs and Links, used as snapshots of the design
//!   hierarchy or as stored query results.
//!
//! [`MetaDb`] is the database itself; [`Workspace`] associates a data
//! repository (simulated design payloads with check-in/check-out state) with a
//! meta-database, and [`query`] provides the designer-facing project-state
//! queries of Section 3.1.
//!
//! # Example
//!
//! ```
//! use damocles_meta::{MetaDb, Oid, Value, LinkClass, LinkKind, Direction};
//!
//! # fn main() -> Result<(), damocles_meta::MetaError> {
//! let mut db = MetaDb::new();
//! let hdl = db.create_oid(Oid::new("cpu", "HDL_model", 1))?;
//! let sch = db.create_oid(Oid::new("cpu", "schematic", 1))?;
//! let link = db.add_link(hdl, sch, LinkClass::Derive, LinkKind::DeriveFrom)?;
//! db.allow_event(link, "outofdate")?;
//! db.set_prop(sch, "uptodate", Value::from_atom("true"))?;
//!
//! // Which OIDs would an `outofdate` event travelling *down* reach from hdl?
//! let reached = db.neighbors(hdl, Direction::Down, Some("outofdate"))?;
//! assert_eq!(reached, vec![sch]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod db;
pub mod dump;
pub mod error;
pub mod intern;
pub mod journal;
pub mod link;
pub mod oid;
pub mod persist;
pub mod property;
pub mod qlang;
pub mod query;
pub mod version;
pub mod wire;
pub mod workspace;

pub use arena::{Arena, ArenaIndex};
pub use config::{Configuration, ConfigurationBuilder, SnapshotRule};
pub use db::{DbStats, MetaDb, OidEntry, OidId};
pub use error::MetaError;
pub use intern::{Sym, SymSet, SymbolTable};
pub use journal::{JournalError, JournalOp, JournalWriter, Recovered, RecoveryReport};
pub use link::{Direction, Link, LinkClass, LinkId, LinkKind};
pub use oid::{BlockName, Oid, ViewType};
pub use property::{PropIndex, PropertyMap, Value};
pub use query::{ProjectQuery, StateSummary, WorkItem};
pub use version::VersionHistory;
pub use wire::{EventMessage, WireDiag, WordCursor};
pub use workspace::{CheckoutState, DesignDatum, Workspace};
