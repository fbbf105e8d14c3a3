//! End-to-end replication tests (ISSUE 4): a read-only follower
//! bootstraps from `snapshot + tail` over TCP, reaches the leader's
//! image byte-identically, serves reads while rejecting mutations, and
//! survives a leader checkpoint (epoch rollover) mid-stream.

use std::net::TcpListener;
use std::time::Duration;

use damocles::core::engine::api::{ApiError, Request, Response};
use damocles::core::engine::follower::{spawn_follower_loop, FollowerHandle, FollowerMsg};
use damocles::core::engine::service::{
    serve_listener, serve_with, spawn_project_loop, ProjectService,
};
use damocles::core::engine::tail::{TailCursor, TailFrame};
use damocles::prelude::*;
use damocles::tools::remote::{RemoteWrapper, TailHandshake};

const SIMPLE: &str = r#"
    blueprint repl
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

/// Binds a loopback listener, spawns the leader command loop with
/// journaling under `dir`, and returns the address clients connect to.
fn spawn_leader(dir: &std::path::Path) -> std::net::SocketAddr {
    let _ = std::fs::remove_dir_all(dir);
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: SIMPLE.into()
        })
        .is_error());
    assert!(matches!(
        service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        }),
        Response::Epoch { .. }
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (handle, _join) = spawn_project_loop(service);
    std::thread::spawn(move || {
        let _ = serve_listener(listener, &handle);
    });
    addr
}

/// Spawns a follower (loop + TCP pump with reconnect, exactly the
/// `damocles_server --follow` wiring) and its read-only front door.
fn spawn_follower(leader: std::net::SocketAddr) -> (FollowerHandle, std::net::SocketAddr) {
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
    let (handle, _join) = spawn_follower_loop(service, leader.to_string());
    spawn_pump(leader, handle.clone());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let front = handle.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });
    (handle, addr)
}

/// The tail pump: connect, handshake from the applied cursor, feed
/// frames; on any failure report and retry.
fn spawn_pump(leader: std::net::SocketAddr, handle: FollowerHandle) {
    let status = handle.status();
    let feed = handle.feed();
    std::thread::spawn(move || loop {
        let (epoch, seq) = status.handshake_cursor();
        let outcome = RemoteWrapper::connect(leader, "follower")
            .and_then(|wrapper| wrapper.tail_from(epoch, seq));
        match outcome {
            Ok(TailHandshake::Accepted { mut stream, .. }) => loop {
                match stream.next_frame() {
                    Ok(frame) => {
                        if feed.send(FollowerMsg::Frame(frame)).is_err() {
                            return; // follower loop gone
                        }
                        if status.needs_reset() {
                            break; // reconnect for a snapshot reset
                        }
                    }
                    Err(e) => {
                        if feed
                            .send(FollowerMsg::LeaderGone {
                                reason: e.to_string(),
                            })
                            .is_err()
                        {
                            return;
                        }
                        break;
                    }
                }
            },
            Ok(TailHandshake::Refused(resp)) => {
                if feed
                    .send(FollowerMsg::LeaderGone {
                        reason: format!("refused: {}", resp.encode()),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

/// The leader's committed stream position, via its own front door.
fn leader_position(client: &mut RemoteWrapper) -> (u64, u64) {
    match client.request(&Request::Stat).expect("stat") {
        Response::Stat { stat } => (
            stat.journal_epoch.expect("journaling on"),
            stat.journal_records.expect("journaling on"),
        ),
        other => panic!("{other:?}"),
    }
}

/// The leader's full project image, via `save` + read-back.
fn leader_image(client: &mut RemoteWrapper, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("damocles-repl-image-{tag}.ddb"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        client
            .request(&Request::SaveProject {
                path: path.display().to_string()
            })
            .expect("save"),
        Response::Ok
    );
    std::fs::read_to_string(&path).expect("read image")
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
fn follower_bootstraps_tails_and_survives_rollover() {
    let dir = std::env::temp_dir().join("damocles-repl-e2e");
    let leader_addr = spawn_leader(&dir);
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");

    // Build real state: versions, a link, a propagation wave.
    let hdl = match client.request(&checkin("cpu", "HDL_model")).unwrap() {
        Response::Created { oid } => oid,
        other => panic!("{other:?}"),
    };
    let sch = match client.request(&checkin("cpu", "schematic")).unwrap() {
        Response::Created { oid } => oid,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        client
            .request(&Request::Connect {
                from: hdl.clone(),
                to: sch.clone()
            })
            .unwrap(),
        Response::Ok
    );
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));

    // The follower bootstraps from snapshot + tail over TCP.
    let (follower, follower_addr) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "follower caught up to ({epoch}, {seq}); at {:?}",
        follower.status().cursor()
    );
    assert_eq!(
        follower.image().unwrap(),
        leader_image(&mut client, "bootstrap"),
        "follower image is byte-identical to the leader's after catch-up"
    );

    // The follower serves reads through its own front door…
    let mut reader = RemoteWrapper::connect(follower_addr, "reader").expect("connect follower");
    match reader
        .request(&Request::Query {
            terms: "view=HDL_model".into(),
        })
        .unwrap()
    {
        Response::Hits { oids } => assert_eq!(oids, vec![hdl.clone()]),
        other => panic!("{other:?}"),
    }
    match reader.request(&Request::Show { oid: sch.clone() }).unwrap() {
        Response::Props { props, .. } => {
            assert!(props.iter().any(|(n, _)| n == "uptodate"));
        }
        other => panic!("{other:?}"),
    }
    // …and rejects mutations with a structured error naming the leader.
    match reader.request(&checkin("evil", "HDL_model")).unwrap() {
        Response::Error(ApiError::ReadOnly { leader }) => {
            assert_eq!(leader, leader_addr.to_string());
        }
        other => panic!("{other:?}"),
    }
    match reader.request(&Request::ProcessAll).unwrap() {
        Response::Error(ApiError::ReadOnly { .. }) => {}
        other => panic!("{other:?}"),
    }

    // Mid-stream leader checkpoint: the epoch rolls over and the
    // follower keeps tracking (cheap marker path, no re-bootstrap).
    let epoch_before = follower.status().cursor().0;
    assert!(matches!(
        client.request(&Request::Checkpoint).unwrap(),
        Response::Epoch { .. }
    ));
    // New mutations land in the new epoch; a fresh HDL version flips the
    // derived schematic stale — link state replicated across the fold.
    assert!(matches!(
        client.request(&checkin("cpu", "HDL_model")).unwrap(),
        Response::Created { .. }
    ));
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));
    let (epoch, seq) = leader_position(&mut client);
    assert!(epoch > epoch_before, "checkpoint advanced the epoch");
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "follower crossed the rollover; at {:?}",
        follower.status().cursor()
    );
    assert_eq!(
        follower.image().unwrap(),
        leader_image(&mut client, "rollover"),
        "byte-identical across the epoch rollover"
    );
    // The replicated propagation outcome is queryable on the follower.
    match reader.request(&Request::Show { oid: sch }).unwrap() {
        Response::Props { props, .. } => {
            let up = props.iter().find(|(n, _)| n == "uptodate").unwrap();
            assert_eq!(up.1, Value::Bool(false), "staleness replicated");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn crashed_follower_rejoins_from_scratch() {
    let dir = std::env::temp_dir().join("damocles-repl-rejoin");
    let leader_addr = spawn_leader(&dir);
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");
    for i in 0..6 {
        assert!(matches!(
            client
                .request(&checkin(&format!("blk{i}"), "HDL_model"))
                .unwrap(),
            Response::Created { .. }
        ));
    }
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));

    // First follower catches up, then "crashes" (all its state dropped).
    let (follower, _) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(follower
        .status()
        .wait_applied(epoch, seq, Duration::from_secs(10)));
    drop(follower);

    // The leader moves on while no follower is attached.
    for i in 6..9 {
        client
            .request(&checkin(&format!("blk{i}"), "HDL_model"))
            .unwrap();
    }
    client.request(&Request::ProcessAll).unwrap();

    // A rejoining follower starts cold at (0, 0): the stale cursor gets
    // a fresh snapshot bootstrap, then the live tail.
    let (rejoined, rejoined_addr) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(
        rejoined
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "rejoined follower caught up; at {:?}",
        rejoined.status().cursor()
    );
    assert_eq!(
        rejoined.image().unwrap(),
        leader_image(&mut client, "rejoin")
    );

    // All nine objects are visible through the rejoined front door.
    let mut reader = RemoteWrapper::connect(rejoined_addr, "reader").unwrap();
    match reader.request(&Request::Stat).unwrap() {
        Response::Stat { stat } => assert_eq!(stat.oids, 9),
        other => panic!("{other:?}"),
    }
}

/// A follower with no leader link yet answers reads with `Lagging` (not
/// a hang, not a misleading empty result) and mutations with `ReadOnly`.
#[test]
fn unbootstrapped_follower_reports_lagging() {
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
    let (handle, _join) = spawn_follower_loop(service, "203.0.113.1:7425");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let front = handle.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });
    let mut reader = RemoteWrapper::connect(addr, "reader").unwrap();
    match reader.request(&Request::Stat).unwrap() {
        Response::Error(ApiError::Lagging { epoch: 0, seq: 0 }) => {}
        other => panic!("{other:?}"),
    }
    match reader.request(&checkin("x", "HDL_model")).unwrap() {
        Response::Error(ApiError::ReadOnly { leader }) => {
            assert_eq!(leader, "203.0.113.1:7425");
        }
        other => panic!("{other:?}"),
    }
}

/// The record lines the tail hub streams are the journal file's own
/// lines, byte for byte: each record is encoded once and the same string
/// goes to disk and to the wire. Checked across several group-commit
/// flushes, one fold the byte rule triggers, the carried work that fold
/// re-seeds the fresh journal with, and the flushes after it.
#[test]
fn streamed_records_are_the_journal_file_lines() {
    let dir = std::env::temp_dir().join("damocles-repl-tail-equals-file");
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = ProjectServer::from_source(SIMPLE).unwrap();
    // An image several flushes' worth of journal large.
    for i in 0..4 {
        server
            .checkin(&format!("big{i}"), "HDL_model", "yves", vec![b'x'; 256])
            .unwrap();
    }
    server.process_all().unwrap();
    let epoch0 = server.enable_journal(&dir, 2).unwrap();
    server.set_group_commit(true).unwrap();
    let hub = server.tail_hub();
    let mut cursor = TailCursor {
        epoch: epoch0,
        seq: 0,
    };
    // The current epoch's streamed record lines.
    let mut streamed: Vec<String> = Vec::new();
    let drain = |streamed: &mut Vec<String>, cursor: &mut TailCursor| loop {
        match hub.next_frames(cursor, Duration::from_millis(1)).unwrap()[..] {
            [TailFrame::Ping] => return,
            ref frames => {
                for frame in frames {
                    match frame {
                        TailFrame::Record { line, .. } => streamed.push(line.clone()),
                        TailFrame::Reset { .. } | TailFrame::Epoch { .. } => streamed.clear(),
                        TailFrame::Ping => {}
                    }
                }
            }
        }
    };
    let file_lines = || {
        let text = std::fs::read_to_string(dir.join("journal.djl")).unwrap();
        assert!(text.ends_with('\n'), "the file ends on a whole record");
        // Split on the newline alone: a stray byte (a `\r`, say) must
        // show up as a difference.
        text.split_terminator('\n')
            .skip(1)
            .map(str::to_string)
            .collect::<Vec<_>>()
    };

    // Check-ins left queued: each flush journals a few records, and
    // their `evq` records are the work a fold must carry over.
    let mut flushes = 0;
    while server.journal_epoch() == Some(epoch0) {
        server
            .checkin(&format!("blk{flushes}"), "HDL_model", "yves", b"v".to_vec())
            .unwrap();
        server.flush_journal().unwrap();
        flushes += 1;
        drain(&mut streamed, &mut cursor);
        if server.journal_epoch() == Some(epoch0) {
            assert!(!streamed.is_empty());
            assert_eq!(streamed, file_lines(), "flush {flushes}");
        }
    }
    assert!(
        flushes > 2,
        "the fold waited for the journal to outgrow its snapshot"
    );
    // The fold re-seeded the queued work into the fresh journal.
    assert_eq!(server.journal_epoch(), Some(epoch0 + 1));
    assert_eq!(server.pending_events(), flushes);
    assert_eq!(server.journal_records(), Some(flushes as u64));
    assert_eq!(cursor.epoch, epoch0 + 1);
    assert_eq!(streamed, file_lines(), "re-seeded records");

    // Draining the carried work journals its completion after them.
    server.process_all().unwrap();
    server.flush_journal().unwrap();
    drain(&mut streamed, &mut cursor);
    assert!(streamed.len() > flushes);
    assert_eq!(streamed, file_lines(), "after the drain");
}
