//! Recovery that continues the journal in place.
//!
//! A journal whose header matches its snapshot's `(epoch, term)` and whose
//! tail is clean is reopened for append by `recover_journal`: same epoch,
//! next sequence number, link tags and pending work resumed from the
//! replay. These tests hold that path to the image of a server that never
//! restarted, and pin the fold path that a stale, torn or missing journal
//! still takes.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use damocles::core::engine::exec::{ScriptExecutor, ScriptInvocation, ToolCtx};
use damocles::prelude::*;
use damocles_meta::journal::{self, parse_journal, JournalOp};
use damocles_meta::{persist, EventMessage, LinkId, Value};

/// Check-ins propagate `outofdate` through `move` links; an `edit` event
/// hands its target and argument to the `editor` tool, which edits a
/// link incident to the target.
const EDITS: &str = r#"
blueprint edits
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
    when edit do exec editor "$oid" "$arg" done
endview
view HDL_model endview
view schematic
    link_from HDL_model move propagates outofdate type derived
endview
endblueprint
"#;

/// Edits the first link (in `(from, to)` order) incident to the target:
/// `unlink`, `note` (annotate), `unnote` (drop the annotation) or `allow`
/// (grow the PROPAGATE set). Stateless, so a recovered server behaves
/// exactly like one that never restarted.
#[derive(Debug, Default)]
struct Editor;

impl ScriptExecutor for Editor {
    fn execute(
        &mut self,
        invocation: &ScriptInvocation,
        ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        let [target, op] = &invocation.args[..] else {
            return Vec::new();
        };
        let Some(id) = target.parse().ok().and_then(|oid| ctx.db.resolve(&oid)) else {
            return Vec::new();
        };
        let mut links: Vec<(Oid, Oid, LinkId)> = ctx
            .db
            .links_of(id)
            .unwrap()
            .into_iter()
            .map(|(link_id, link)| {
                let from = ctx.db.oid(link.from).unwrap().clone();
                let to = ctx.db.oid(link.to).unwrap().clone();
                (from, to, link_id)
            })
            .collect();
        links.sort();
        let Some(&(_, _, link)) = links.first() else {
            return Vec::new();
        };
        match op.as_str() {
            "unlink" => {
                ctx.db.remove_link(link).unwrap();
            }
            "note" => {
                let n = ctx.db.link(link).unwrap().props.len() as i64;
                ctx.db.set_link_prop(link, "note", Value::Int(n)).unwrap();
            }
            "unnote" => {
                ctx.db.remove_link_prop(link, "note").unwrap();
            }
            _ => {
                ctx.db.allow_event(link, "lvs").unwrap();
            }
        }
        Vec::new()
    }
}

fn editor_server() -> ProjectServer<Editor> {
    ProjectServer::with_executor(damocles::core::parse(EDITS).unwrap(), Editor).unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-continue-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const VIEWS: [&str; 2] = ["HDL_model", "schematic"];
const EDIT_OPS: [&str; 4] = ["unlink", "note", "unnote", "allow"];

/// One step of a generated stream, applied identically to every server
/// (`Restart` only to the one that restarts).
#[derive(Debug, Clone, Copy)]
enum Step {
    Checkin { block: u8, view: usize },
    Connect { from: u8, to: u8 },
    Process,
    Edit { block: u8, view: usize, op: usize },
    Restart,
}

fn decode(kind: u8, a: u8, b: u8) -> Step {
    match kind {
        0 | 1 => Step::Checkin {
            block: a,
            view: usize::from(kind),
        },
        2 => Step::Connect { from: a, to: b },
        3 => Step::Process,
        4 => Step::Edit {
            block: a,
            view: usize::from(b % 2),
            op: usize::from(b),
        },
        _ => Step::Restart,
    }
}

/// Applies `step` to `server`; `latest` tracks the newest version of each
/// `(block, view)`, which both servers agree on.
fn apply(server: &mut ProjectServer<Editor>, latest: &mut HashMap<(u8, usize), Oid>, step: Step) {
    match step {
        Step::Checkin { block, view } => {
            let oid = server
                .checkin(&format!("B{block}"), VIEWS[view], "yves", vec![block])
                .unwrap();
            latest.insert((block, view), oid);
        }
        Step::Connect { from, to } => {
            let (Some(hdl), Some(sch)) = (latest.get(&(from, 0)), latest.get(&(to, 1))) else {
                return;
            };
            let (hdl_id, sch_id) = (server.resolve(hdl).unwrap(), server.resolve(sch).unwrap());
            let linked = server
                .db()
                .links_of(hdl_id)
                .unwrap()
                .iter()
                .any(|(_, l)| l.to == sch_id);
            if !linked {
                server.connect_oids(hdl, sch).unwrap();
            }
        }
        Step::Process => {
            server.process_all().unwrap();
        }
        Step::Edit { block, view, op } => {
            if let Some(oid) = latest.get(&(block, view)) {
                let message =
                    EventMessage::new("edit", Direction::Up, oid.clone()).with_arg(EDIT_OPS[op]);
                server.post(&message, "editor").unwrap();
            }
        }
        Step::Restart => {}
    }
}

/// No `AddLink` tag repeats within the epoch on disk, and none reuses the
/// image-order tag of a link already in the snapshot.
fn assert_tags_unique(dir: &std::path::Path) -> Result<(), TestCaseError> {
    let snapshot = std::fs::read_to_string(dir.join("snapshot.ddb")).unwrap();
    let snapshot_links = persist::load_project(&snapshot).unwrap().0.link_count() as u64;
    let tail = parse_journal(&std::fs::read(dir.join("journal.djl")).unwrap()).unwrap();
    let mut tags = BTreeSet::new();
    for op in &tail.ops {
        if let JournalOp::AddLink { tag, .. } = op {
            prop_assert!(
                *tag >= snapshot_links,
                "tag {} reuses a snapshot link's",
                tag
            );
            prop_assert!(tags.insert(*tag), "tag {} repeats within the epoch", tag);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Restarts at random points of an op stream — including unlinking,
    /// re-annotating and moving links created before the restart — leave
    /// the image of a server that never restarted, both live and through
    /// a fresh offline recovery of the directory; every restart continues
    /// the journal at its cursor, and no link tag repeats in an epoch.
    #[test]
    fn restarts_continue_the_journal_without_changing_the_image(
        every in 12..64u64,
        raw in proptest::collection::vec((0..6u8, 0..4u8, 0..4u8), 10..80),
    ) {
        let steps: Vec<Step> = raw.iter().map(|&(k, a, b)| decode(k, a, b)).collect();
        let dir = temp_dir(&format!("prop-{every}-{}", raw.len()));
        let solo_dir = temp_dir(&format!("prop-solo-{every}-{}", raw.len()));
        let mut solo = editor_server();
        solo.enable_journal(&solo_dir, every).unwrap();
        let mut server = editor_server();
        server.enable_journal(&dir, every).unwrap();
        let (mut solo_latest, mut latest) = (HashMap::new(), HashMap::new());
        let mut restarts = 0;

        for &step in &steps {
            if let Step::Restart = step {
                let cursor = (server.journal_epoch(), server.journal_records());
                server = editor_server();
                let report = server.recover_journal(&dir, every).unwrap();
                prop_assert!(!report.stale_journal && report.torn_tail.is_none());
                prop_assert_eq!(
                    (server.journal_epoch(), server.journal_records()),
                    cursor,
                    "the restart did not continue the journal"
                );
                restarts += 1;
            } else {
                apply(&mut solo, &mut solo_latest, step);
                apply(&mut server, &mut latest, step);
            }
            prop_assert_eq!(server.project_image(), solo.project_image(), "after {:?}", step);
            prop_assert_eq!(server.pending_events(), solo.pending_events());
            assert_tags_unique(&dir)?;
        }
        server.process_all().unwrap();
        solo.process_all().unwrap();
        let expected = solo.project_image();
        prop_assert_eq!(&server.project_image(), &expected);

        let snapshot = std::fs::read_to_string(dir.join("snapshot.ddb")).unwrap();
        let offline = journal::recover(&snapshot, &std::fs::read(dir.join("journal.djl")).unwrap())
            .unwrap();
        prop_assert_eq!(
            &persist::save_project(&offline.db, &offline.workspace),
            &expected,
            "offline recovery of the continued journal diverged ({} restarts)",
            restarts
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&solo_dir);
    }
}

// ---------------------------------------------------------------------
// The fold path: stale, torn or missing journals
// ---------------------------------------------------------------------

/// A journaled server under `term` at `dir` with a few objects, a link
/// and unprocessed work; returns the snapshot epoch in force.
fn journaled(dir: &std::path::Path, term: u64) -> (ProjectServer<Editor>, u64) {
    let mut server = editor_server();
    let epoch = if term == 1 {
        server.enable_journal(dir, 1_000_000).unwrap()
    } else {
        server.promote_journal(dir, 1_000_000, 0, term).unwrap()
    };
    let hdl = server
        .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
        .unwrap();
    let sch = server
        .checkin("cpu", "schematic", "yves", b"s1".to_vec())
        .unwrap();
    server.connect_oids(&hdl, &sch).unwrap();
    server.process_all().unwrap();
    server
        .checkin("cpu", "HDL_model", "yves", b"v2".to_vec())
        .unwrap();
    (server, epoch)
}

/// Recovers `dir` on a fresh server and checks the fold: a new snapshot
/// and journal one epoch on, under the recovered snapshot's `term`.
fn assert_folds(
    dir: &std::path::Path,
    epoch: u64,
    term: u64,
) -> (ProjectServer<Editor>, journal::RecoveryReport) {
    let mut server = editor_server();
    let report = server.recover_journal(dir, 1_000_000).unwrap();
    assert_eq!(report.epoch, epoch);
    assert_eq!(server.journal_epoch(), Some(epoch + 1));
    assert_eq!(server.current_term(), term);
    let snapshot = std::fs::read_to_string(dir.join("snapshot.ddb")).unwrap();
    assert_eq!(journal::snapshot_epoch(&snapshot), epoch + 1);
    assert_eq!(journal::snapshot_term(&snapshot), term);
    let tail = parse_journal(&std::fs::read(dir.join("journal.djl")).unwrap()).unwrap();
    assert_eq!((tail.epoch, tail.term), (Some(epoch + 1), Some(term)));
    (server, report)
}

#[test]
fn stale_epoch_journal_folds_to_the_next_epoch() {
    let dir = temp_dir("stale-epoch");
    let (mut server, _) = journaled(&dir, 1);
    // A crash between a checkpoint's snapshot and its journal reset
    // leaves the new snapshot next to the previous epoch's journal.
    let old_journal = std::fs::read(dir.join("journal.djl")).unwrap();
    let epoch = server.checkpoint().unwrap();
    let image = server.project_image();
    std::fs::write(dir.join("journal.djl"), old_journal).unwrap();
    let (recovered, report) = assert_folds(&dir, epoch, 1);
    assert!(report.stale_journal);
    assert_eq!(recovered.project_image(), image);
    // The stale journal's pending `ckin` is still owed, exactly once.
    assert_eq!(recovered.pending_events(), 1);
}

#[test]
fn stale_term_journal_folds_under_the_snapshot_term() {
    let dir = temp_dir("stale-term");
    let (server, epoch) = journaled(&dir, 3);
    let snapshot = std::fs::read_to_string(dir.join("snapshot.ddb")).unwrap();
    let image = persist::load_project(&snapshot).unwrap();
    drop(server);
    // A journal from another reign at the same epoch must not replay.
    let bytes = std::fs::read_to_string(dir.join("journal.djl")).unwrap();
    let forged = bytes.replacen(" term=3\n", " term=2\n", 1);
    assert_ne!(forged, bytes);
    std::fs::write(dir.join("journal.djl"), forged).unwrap();
    let (recovered, report) = assert_folds(&dir, epoch, 3);
    assert!(report.stale_journal);
    assert_eq!(
        recovered.project_image(),
        persist::save_project(&image.0, &image.1)
    );
}

#[test]
fn torn_or_missing_journal_folds_to_the_next_epoch() {
    let dir = temp_dir("torn");
    let (server, epoch) = journaled(&dir, 1);
    drop(server);
    let bytes = std::fs::read(dir.join("journal.djl")).unwrap();
    std::fs::write(dir.join("journal.djl"), &bytes[..bytes.len() - 5]).unwrap();
    let (server, report) = assert_folds(&dir, epoch, 1);
    assert!(report.torn_tail.is_some());
    drop(server);
    // The fold rewrote the directory; now lose its journal entirely.
    std::fs::remove_file(dir.join("journal.djl")).unwrap();
    assert_folds(&dir, epoch + 1, 1);
}

#[test]
fn a_final_record_without_its_newline_is_folded_not_appended_to() {
    let dir = temp_dir("no-newline");
    let (mut server, epoch) = journaled(&dir, 1);
    server.process_all().unwrap();
    let image = server.project_image();
    drop(server);
    let bytes = std::fs::read(dir.join("journal.djl")).unwrap();
    std::fs::write(dir.join("journal.djl"), &bytes[..bytes.len() - 1]).unwrap();
    let (recovered, report) = assert_folds(&dir, epoch, 1);
    assert!(report.torn_tail.is_none() && !report.stale_journal);
    assert_eq!(recovered.project_image(), image);
}
