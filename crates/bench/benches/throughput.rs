//! Experiment THROUGHPUT — durable requests/sec through the command loop:
//! fsync-per-op vs group commit (ISSUE 3).
//!
//! The claim under measurement: the journal fsync (~0.2 ms, flat in db
//! size — BENCH_pr2) dominates per-request durability cost, so letting
//! the session command loop execute a *batch* of queued requests and
//! journal them with **one** append+fsync multiplies durable request
//! throughput by roughly the batch size, while keeping the same crash
//! contract (a reply in hand means the effect is on disk).
//!
//! Series (burst = 128 pipelined `checkin` requests per iteration, each
//! creating an OID, applying templates and journaling its payload):
//!
//! * `throughput/checkin_fsync_per_op/128` — a fixed window of 1: every
//!   request pays its own fsync (the PR 2 behaviour).
//! * `throughput/checkin_group_commit_16/128` — a fixed window of 16.
//! * `throughput/checkin_group_commit_64/128` — a fixed window of 64.
//! * `throughput/checkin_group_commit_adaptive/128` — the command loop,
//!   whose window is the pipelined backlog at batch formation.
//! * `throughput/checkin_no_journal/128` — the command loop with
//!   durability off: the engine + protocol ceiling the group commit
//!   converges towards.
//!
//! A fixed window drives a group-commit [`ProjectService`] in the bench
//! thread: `window` calls, then one flush (one append+fsync). It pays the
//! command loop's execution and journal cost but not its channel hops.
//!
//! Acceptance (ISSUE 3): group commit at batch ≥ 16 sustains ≥ 5× the
//! durable event throughput of fsync-per-op.
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr3.json` is produced.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::{spawn_project_loop, ClientSession, ProjectService};
use damocles_meta::{persist, MetaDb, Workspace};

/// Pipelined requests per measured iteration.
const BURST: usize = 128;

fn edtc_service() -> ProjectService {
    let server = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
    ProjectService::with_server(server)
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-bench-throughput-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An empty project image; `LoadProject`ing it resets database, journal
/// and workspace, so every measured iteration sees the same steady
/// state instead of an ever-growing database.
fn empty_image_path() -> std::path::PathBuf {
    let path = bench_dir("reset").join("empty.ddb");
    let image = persist::save_project(&MetaDb::new(), &Workspace::new("bench"));
    std::fs::write(&path, image).unwrap();
    path
}

/// An EDTC service, optionally journaled.
fn service(tag: &str, journaled: bool) -> ProjectService {
    let mut service = edtc_service();
    if journaled {
        let dir = bench_dir(tag);
        let resp = service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            // Never fold during a burst: measure append+fsync, not
            // checkpoint writes (the per-iteration reset folds anyway).
            every: u64::MAX,
        });
        assert!(matches!(resp, Response::Epoch { .. }), "{resp:?}");
    }
    service
}

fn reset_request(reset: &str) -> Request {
    Request::LoadProject {
        path: reset.to_string(),
    }
}

fn checkin(n: usize) -> Request {
    Request::Checkin {
        block: format!("b{n}"),
        view: "HDL_model".to_string(),
        user: "bench".to_string(),
        payload: b"module m;".to_vec(),
    }
}

fn loaded(resp: Response) {
    assert!(
        matches!(resp, Response::Loaded { .. }),
        "reset failed: {resp:?}"
    );
}

fn created(resp: Response) -> usize {
    assert!(
        matches!(resp, Response::Created { .. }),
        "unexpected reply {resp:?}"
    );
    1
}

/// One measured iteration through the command loop: reset to the empty
/// project (identical cost in every series), then pipeline BURST
/// check-ins and drain every reply — each reply implies the request is
/// journaled+fsynced when durability is on.
fn burst(session: &ClientSession, reset: &str) -> usize {
    loaded(session.call(reset_request(reset)));
    let pending: Vec<_> = (0..BURST).map(|n| session.submit(checkin(n))).collect();
    pending
        .into_iter()
        .map(|rx| created(rx.recv().expect("the loop replies")))
        .sum()
}

/// One measured iteration at a fixed window: the same reset, then BURST
/// check-ins with one flush after every `window` of them.
fn burst_windowed(service: &mut ProjectService, window: usize, reset: &str) -> usize {
    loaded(service.call(reset_request(reset)));
    let mut total = 0;
    for n in 0..BURST {
        total += created(service.call(checkin(n)));
        if (n + 1) % window == 0 || n + 1 == BURST {
            service.flush().expect("the window flushes");
        }
    }
    total
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.throughput(Throughput::Elements(BURST as u64));
    let reset = empty_image_path();
    let reset = reset.display().to_string();

    let windows: &[(&str, usize)] = &[
        ("checkin_fsync_per_op", 1),
        ("checkin_group_commit_16", 16),
        ("checkin_group_commit_64", 64),
    ];
    for &(name, window) in windows {
        let mut service = service(name, true);
        service
            .set_group_commit(true)
            .expect("group commit turns on");
        group.bench_with_input(BenchmarkId::new(name, BURST), &(), |b, ()| {
            b.iter(|| black_box(burst_windowed(&mut service, window, &reset)));
        });
    }
    // The production default: no knob, the window is the pipelined
    // backlog at batch formation.
    let looped: &[(&str, bool)] = &[
        ("checkin_group_commit_adaptive", true),
        ("checkin_no_journal", false),
    ];
    for &(name, journaled) in looped {
        let (handle, _join) = spawn_project_loop(service(name, journaled));
        let session = handle.session();
        group.bench_with_input(BenchmarkId::new(name, BURST), &(), |b, ()| {
            b.iter(|| black_box(burst(&session, &reset)));
        });
    }
    group.finish();
}

fn config() -> Criterion {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let (measure_ms, warm_ms, samples) = if smoke {
        (250, 80, 5)
    } else {
        (2_000, 400, 20)
    };
    Criterion::default()
        .measurement_time(std::time::Duration::from_millis(measure_ms))
        .warm_up_time(std::time::Duration::from_millis(warm_ms))
        .sample_size(samples)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_throughput
}
criterion_main!(benches);
