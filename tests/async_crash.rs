//! Crash-injection property tests for durable async tool execution.
//!
//! The contract (in the spirit of `journal_crash.rs`, lifted to the full
//! server stack): kill the server anywhere between an `InvokeQueued`
//! record and its terminal record, and recovery re-dispatches **exactly**
//! the in-flight set — no invocation lost, none duplicated — then drains
//! to the same final image the uninterrupted run produced. A clean
//! journal is continued in place (nothing acked is rewritten, no work
//! record is journaled twice); a torn one is folded into a checkpoint
//! whose fresh journal carries the pending set exactly once.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::prelude::*;

use damocles::prelude::*;
use damocles::tools::design_data;
use damocles_meta::journal::{self, parse_journal, pending_work, JournalOp};
use damocles_meta::persist;

const AUTOMATED: &str = r#"
blueprint automated
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
    when ckin do exec synthesizer "$oid" done
endview
view schematic
    property nl_sim_res default bad
    link_from HDL_model move propagates outofdate type derived
    use_link move propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when ckin do exec netlister "$oid"; exec layout_gen "$oid" done
endview
view netlist
    property sim_result default bad
    link_from schematic move propagates nl_sim, outofdate type derived
    when nl_sim do sim_result = $arg done
    when ckin do exec simulator "$oid" done
endview
view layout
    property drc_result default bad
    property lvs_result default not_equiv
    link_from schematic move propagates lvs, outofdate type equivalence
    when drc do drc_result = $arg done
    when lvs do lvs_result = $arg done
    when ckin do exec drc "$oid"; exec lvs "$oid" done
endview
endblueprint
"#;

fn detached_server(seed: u64, rate: f64) -> ProjectServer<ToolExecutor> {
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let executor = ToolExecutor::standard(FaultPlan::new(seed, rate)).detached();
    let mut s = ProjectServer::with_executor(bp, executor).unwrap();
    // Backoffs long enough that crash captures land inside the
    // dispatch→completion window, short enough to converge in test time.
    s.set_retry_policy(
        None,
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(5),
            multiplier: 2,
            timeout: Duration::from_secs(30),
        },
    );
    s
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-async-crash-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn queued_invocation_ids(ops: &[JournalOp]) -> Vec<u64> {
    ops.iter()
        .filter_map(|op| match op {
            JournalOp::InvokeQueued { id, .. } => Some(*id),
            _ => None,
        })
        .collect()
}

fn checkin_version(s: &mut ProjectServer<ToolExecutor>, v: u32) {
    s.checkin(
        "CPU",
        "HDL_model",
        "yves",
        design_data::hdl_source("CPU", v, &["REG"], false),
    )
    .unwrap();
}

/// One crash candidate: the journal bytes an fsync left on disk, plus how
/// many check-ins the designer had issued by then (a recovery must replay
/// the rest of the scenario before images can be compared).
struct CrashState {
    bytes: Vec<u8>,
    submitted: u32,
}

/// Runs the workload one cascade at a time, capturing the on-disk journal
/// after every fsync boundary (checkin, each processing round) — each
/// capture is a state a real crash could leave behind. Returns the
/// snapshot image, the captured states, and the uninterrupted run's
/// final image.
///
/// Cascades are drained to quiescence before the next check-in so every
/// in-flight invocation's inputs (link topology, payloads) are stable
/// between its dispatch and any captured crash point — the window where
/// re-dispatch reproduces the lost run exactly. (A re-dispatched tool
/// re-prepares against the *recovered* database: results reflect the
/// design data as journaled, which under concurrent mutation may be newer
/// than what the lost run read. See `DESIGN.md` §10.)
fn run_and_capture(
    dir: &std::path::Path,
    seed: u64,
    rate: f64,
    checkins: u32,
) -> (Vec<u8>, Vec<CrashState>, String) {
    let jpath = dir.join("journal.djl");
    let mut s = detached_server(seed, rate);
    s.enable_journal(dir, 1_000_000).unwrap();
    let snapshot = std::fs::read(dir.join("snapshot.ddb")).unwrap();

    let mut states = Vec::new();
    let capture = |states: &mut Vec<CrashState>, v: u32| {
        let bytes = std::fs::read(&jpath).unwrap();
        if states.last().is_none_or(|s: &CrashState| s.bytes != bytes) {
            states.push(CrashState {
                bytes,
                submitted: v,
            });
        }
    };
    for v in 1..=checkins {
        checkin_version(&mut s, v);
        capture(&mut states, v);
        loop {
            s.process_round().unwrap();
            capture(&mut states, v);
            if s.invocations_in_flight() == 0 && s.pending_events() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let final_image = persist::save(s.db());
    (snapshot, states, final_image)
}

/// The continued-journal contract after recovering from `crashed`
/// (a clean journal): recovery rewrote nothing that was acked (`crashed`
/// is a byte prefix of the journal `after` recovery), appended no
/// `invq`/`evq` for work the journal already held, and the journal's
/// pending set is still exactly the in-flight invocations `want` plus
/// the unprocessed events it held before.
fn check_continued(
    crashed: &[u8],
    after: &[u8],
    want: &BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    prop_assert!(
        after.starts_with(crashed),
        "recovery rewrote acked journal bytes"
    );
    let before = parse_journal(crashed).unwrap().ops;
    let now = parse_journal(after).unwrap().ops;
    let journaled_events: BTreeSet<u64> = before
        .iter()
        .filter_map(|op| match op {
            JournalOp::EventQueued { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    let journaled_invocations: BTreeSet<u64> = queued_invocation_ids(&before).into_iter().collect();
    for op in &now[before.len()..] {
        match op {
            JournalOp::EventQueued { seq, .. } => prop_assert!(
                !journaled_events.contains(seq),
                "event {} re-journaled by recovery",
                seq
            ),
            JournalOp::InvokeQueued { id, .. } => prop_assert!(
                !journaled_invocations.contains(id),
                "invocation {} re-journaled by recovery",
                id
            ),
            _ => {}
        }
    }
    let pending = pending_work(&now);
    let invocations: BTreeSet<u64> = queued_invocation_ids(&pending.invocations)
        .into_iter()
        .collect();
    prop_assert_eq!(
        &invocations,
        want,
        "journal pending set differs from the in-flight set"
    );
    prop_assert_eq!(pending.events, pending_work(&before).events);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash at any fsync boundary between dispatch and completion:
    /// recovery continues the journal without rewriting or re-journaling
    /// anything, the journal's pending work (accepted events without
    /// `evdone`, invocations without a terminal record) is exactly the
    /// in-flight set, and the drained replica's image equals the
    /// uninterrupted run's.
    #[test]
    fn crash_between_dispatch_and_completion_redispatches_and_converges(
        seed in any::<u64>(),
        rate in prop_oneof![Just(0.1), Just(0.5)],
        checkins in 1..3u32,
    ) {
        let dir = temp_dir(&format!("window-{seed}"));
        let (snapshot, states, final_image) = run_and_capture(&dir, seed, rate, checkins);
        let jpath = dir.join("journal.djl");
        let spath = dir.join("snapshot.ddb");

        let mut saw_in_flight = false;
        for state in &states {
            // What this crash state owes a recovery.
            let tail = parse_journal(&state.bytes).expect("fsync boundary parses clean");
            prop_assert!(tail.torn.is_none());
            let pend = pending_work(&tail.ops);
            let want: BTreeSet<u64> =
                queued_invocation_ids(&pend.invocations).into_iter().collect();
            saw_in_flight |= !want.is_empty();

            std::fs::write(&spath, &snapshot).unwrap();
            std::fs::write(&jpath, &state.bytes).unwrap();
            let mut r = detached_server(seed, rate);
            r.recover_journal(&dir, 1_000_000).unwrap();

            // An fsync boundary is a clean tail: recovery continues the
            // journal instead of folding it.
            let after = std::fs::read(&jpath).unwrap();
            prop_assert_eq!(&std::fs::read(&spath).unwrap(), &snapshot, "recovery folded a clean journal");
            check_continued(&state.bytes, &after, &want)?;

            // Re-run the lost window, then the rest of the scenario: the
            // recovered timeline converges to the uninterrupted image.
            r.process_all().unwrap();
            for v in state.submitted + 1..=checkins {
                checkin_version(&mut r, v);
                r.process_all().unwrap();
            }
            prop_assert_eq!(&persist::save(r.db()), &final_image);
            let after = pending_work(&parse_journal(&std::fs::read(&jpath).unwrap()).unwrap().ops);
            prop_assert!(after.events.is_empty() && after.invocations.is_empty());
        }
        prop_assert!(
            saw_in_flight,
            "no captured state had an invocation in the crash window"
        );
    }

    /// Crash at ANY byte offset (torn tails included): recovery never
    /// panics, re-dispatches exactly what the surviving record prefix
    /// says is pending — continuing a clean cut in place, folding a torn
    /// one with the pending set re-journaled exactly once — and drains
    /// back to quiescence.
    #[test]
    fn recovery_from_any_truncation_redispatches_exactly_the_pending_set(
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0..100u32, 4),
    ) {
        let dir = temp_dir(&format!("truncate-{seed}"));
        let (snapshot, states, _) = run_and_capture(&dir, seed, 0.5, 2);
        let full = states.last().unwrap().bytes.clone();
        let jpath = dir.join("journal.djl");
        let spath = dir.join("snapshot.ddb");
        let snapshot_str = String::from_utf8(snapshot.clone()).unwrap();

        for pct in cuts {
            let cut = full.len() * pct as usize / 100;
            let bytes = &full[..cut];
            // The oracle: what the journal layer itself says survives.
            let (want, continued): (BTreeSet<u64>, bool) =
                match journal::recover(&snapshot_str, bytes) {
                    Ok(rec) => (
                        queued_invocation_ids(&rec.pending.invocations)
                            .into_iter()
                            .collect(),
                        rec.append_at.is_some(),
                    ),
                    Err(_) => continue, // structured error is an accepted outcome
                };

            std::fs::write(&spath, &snapshot).unwrap();
            std::fs::write(&jpath, bytes).unwrap();
            let mut r = detached_server(seed, 0.5);
            r.recover_journal(&dir, 1_000_000).unwrap();
            let after = std::fs::read(&jpath).unwrap();
            if continued {
                prop_assert_eq!(&std::fs::read(&spath).unwrap(), &snapshot);
                check_continued(bytes, &after, &want)?;
            } else {
                // The fold path (torn tail or header): a fresh checkpoint
                // one epoch on, its journal re-seeded with the pending
                // set exactly once.
                let folded = String::from_utf8(std::fs::read(&spath).unwrap()).unwrap();
                prop_assert_eq!(
                    journal::snapshot_epoch(&folded),
                    journal::snapshot_epoch(&snapshot_str) + 1
                );
                let reseeded = parse_journal(&after).unwrap();
                let redispatched = queued_invocation_ids(&reseeded.ops);
                let got: BTreeSet<u64> = redispatched.iter().copied().collect();
                prop_assert_eq!(redispatched.len(), got.len());
                prop_assert_eq!(&got, &want, "cut at byte {} of {}", cut, full.len());
            }

            // At-least-once replay drains cleanly — every re-dispatched
            // invocation reaches a terminal record again.
            r.process_all().unwrap();
            let after = pending_work(&parse_journal(&std::fs::read(&jpath).unwrap()).unwrap().ops);
            prop_assert!(after.events.is_empty() && after.invocations.is_empty());
        }
    }
}
