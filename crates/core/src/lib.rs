//! # blueprint-core — the project BluePrint
//!
//! This crate implements the primary contribution of *Controlling Change
//! Propagation and Project Policies in IC Design* (Mathys, Morgan, Soudagar —
//! DATE 1995): the **project BluePrint**, an event-driven design-data-flow
//! management layer over the DAMOCLES meta-database (`damocles-meta`).
//!
//! Two halves, mirroring the paper's split of configuration vs run-time
//! information:
//!
//! * [`lang`] — the ASCII rule language: template rules (`property …`,
//!   `link_from …`, `use_link …`), continuous assignments (`let state = …`)
//!   and run-time rules (`when <event> do <actions> done`), with a lexer,
//!   recursive-descent parser, pretty-printer and static validator.
//! * [`engine`] — the run-time engine: a FIFO design-event queue, rule
//!   execution, selective change propagation across PROPAGATE-filtered
//!   links, template application on version creation, project policies, an
//!   audit trail, and the [`engine::server::ProjectServer`] façade that ties
//!   everything to a meta-database and a workspace.
//!
//! # Quickstart
//!
//! ```
//! use blueprint_core::engine::server::ProjectServer;
//!
//! # fn main() -> Result<(), blueprint_core::engine::error::EngineError> {
//! let mut server = ProjectServer::from_source(r#"
//!     blueprint demo
//!     view default
//!         property uptodate default true
//!         when ckin do uptodate = true; post outofdate down done
//!         when outofdate do uptodate = false done
//!     endview
//!     view HDL_model endview
//!     view schematic
//!         link_from HDL_model move propagates outofdate type derived
//!     endview
//!     endblueprint
//! "#)?;
//! let hdl = server.checkin("cpu", "HDL_model", "yves", b"module cpu;".to_vec())?;
//! let sch = server.checkin("cpu", "schematic", "yves", b"cell cpu".to_vec())?;
//! server.connect_oids(&hdl, &sch)?;
//! server.process_all()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lang;

pub use engine::api::{ApiError, Request, Response, SessionId};
pub use engine::error::EngineError;
pub use engine::server::{ProcessReport, ProjectServer};
pub use engine::service::{
    run_command_loop, serve_listener, spawn_project_loop, ClientSession, ProjectHandle,
    ProjectService, MAX_GROUP_COMMIT_WINDOW,
};
pub use lang::ast::Blueprint;
pub use lang::parser::parse;
