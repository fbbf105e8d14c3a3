//! Experiment PERSIST — durability cost: full text-image snapshots vs the
//! append-only op journal (ISSUE 2).
//!
//! The claim under measurement: incremental checkpointing cost scales with
//! the number of ops since the last checkpoint (the *dirty set*), not with
//! database size — so at 10k+ OIDs a small mutation batch is folded into
//! the journal orders of magnitude faster than `persist::save` can write
//! the full image.
//!
//! Series:
//! * `persist/full_save/{oids}` — `persist::save` + file write + fsync
//!   (the seed's only durability path).
//! * `persist/incremental_checkpoint/{oids}` — journal a 16-op dirty set:
//!   mutate, drain, one `JournalWriter::append_batch`, fsync — the group
//!   commit the server ships. Same database sizes; near-constant.
//! * `persist/journal_append/{ops}` — raw buffered `append_batch`
//!   throughput: each batch encoded once and written with one `write`.
//! * `persist/recover/{oids}` — `journal::recover` of snapshot + a 64-op
//!   tail (cold-start latency after a crash).
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` (vendored-criterion feature) to append results
//! as JSON lines — that is how `BENCH_pr2.json` is produced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use damocles_meta::journal::{self, JournalWriter};
use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid, OidId, Value, Workspace};

const DIRTY_SET: usize = 16;

fn sizes() -> Vec<usize> {
    vec![1_000, 10_000]
}

/// A design-shaped database: one netlist chain per block, two properties
/// per OID, links carrying a PROPAGATE set.
fn build_db(oids: usize) -> (MetaDb, Vec<OidId>) {
    let mut db = MetaDb::with_capacity(oids);
    let mut ids = Vec::with_capacity(oids);
    let mut prev: Option<OidId> = None;
    for i in 0..oids {
        let id = db
            .create_oid(Oid::new(format!("blk{i}"), "netlist", 1))
            .unwrap();
        db.set_prop(id, "uptodate", Value::Bool(i % 2 == 0))
            .unwrap();
        db.set_prop(id, "owner", Value::Str(format!("user{}", i % 7)))
            .unwrap();
        if let Some(p) = prev {
            db.add_link_with(
                p,
                id,
                LinkClass::Derive,
                LinkKind::DeriveFrom,
                ["outofdate"],
            )
            .unwrap();
        }
        prev = Some(id);
        ids.push(id);
    }
    (db, ids)
}

fn bench_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("damocles-bench-persist");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The seed durability path: full image + file write + fsync.
fn bench_full_save(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/full_save");
    let dir = bench_dir();
    for oids in sizes() {
        let (db, _) = build_db(oids);
        let path = dir.join(format!("full-{oids}.ddb"));
        group.throughput(Throughput::Elements(oids as u64));
        group.bench_with_input(BenchmarkId::from_parameter(oids), &db, |b, db| {
            b.iter(|| {
                let image = damocles_meta::persist::save(black_box(db));
                journal::write_file_atomic(&path, &image).unwrap();
                black_box(image.len())
            });
        });
    }
    group.finish();
}

/// The journal durability path for the same databases: a 16-op dirty set
/// is mutated, drained and fsynced. Cost tracks the dirty set, not `oids`.
fn bench_incremental_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/incremental_checkpoint");
    let dir = bench_dir();
    for oids in sizes() {
        let (mut db, ids) = build_db(oids);
        db.attach_journal();
        let mut writer = JournalWriter::create(dir.join(format!("incr-{oids}.djl")), 1, 1).unwrap();
        let mut cursor = 0usize;
        group.throughput(Throughput::Elements(DIRTY_SET as u64));
        group.bench_with_input(BenchmarkId::from_parameter(oids), &(), |b, ()| {
            b.iter(|| {
                for k in 0..DIRTY_SET {
                    let id = ids[(cursor + k * 37) % ids.len()];
                    db.set_prop(id, "uptodate", Value::Bool(k % 2 == 0))
                        .unwrap();
                }
                cursor += 1;
                let ops = db.drain_journal_ops();
                black_box(writer.append_batch(&ops).unwrap());
                writer.sync().unwrap();
                black_box(ops.len())
            });
        });
    }
    group.finish();
}

/// Raw buffered append throughput (no fsync): the per-op journal tax.
fn bench_journal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/journal_append");
    let dir = bench_dir();
    for ops in [64usize, 512] {
        let (mut db, ids) = build_db(256);
        db.attach_journal();
        let mut writer = JournalWriter::create(dir.join(format!("app-{ops}.djl")), 1, 1).unwrap();
        group.throughput(Throughput::Elements(ops as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &(), |b, ()| {
            b.iter(|| {
                for k in 0..ops {
                    let id = ids[k % ids.len()];
                    db.set_prop(id, "drc", Value::Int(k as i64)).unwrap();
                }
                let drained = db.drain_journal_ops();
                black_box(writer.append_batch(&drained).unwrap());
                black_box(drained.len())
            });
        });
    }
    group.finish();
}

/// Crash-recovery latency: load snapshot + replay a 64-op tail.
fn bench_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/recover");
    for oids in sizes() {
        let (mut db, ids) = build_db(oids);
        let ws = Workspace::new("bench");
        let snapshot = journal::write_snapshot(&db, &ws, 1, 1);
        db.attach_journal();
        for k in 0..64usize {
            let id = ids[(k * 131) % ids.len()];
            db.set_prop(id, "uptodate", Value::Bool(k % 3 == 0))
                .unwrap();
        }
        let ops = db.drain_journal_ops();
        let mut tail = journal::encode_header(1, 1).into_bytes();
        for (seq, op) in ops.iter().enumerate() {
            tail.extend_from_slice(journal::encode_record(seq as u64, op).as_bytes());
        }
        group.throughput(Throughput::Elements(oids as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(oids),
            &(snapshot, tail),
            |b, (snapshot, tail)| {
                b.iter(|| {
                    let recovered = journal::recover(black_box(snapshot), black_box(tail)).unwrap();
                    black_box(recovered.report.replayed_ops)
                });
            },
        );
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
    targets = bench_full_save, bench_incremental_checkpoint, bench_journal_append, bench_recover
}
criterion_main!(benches);
