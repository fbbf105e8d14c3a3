//! The damocles benchmark: open-loop TCP load on real `damocles_server`
//! processes, with a separate traced in-process run for the per-layer
//! breakdown.
//!
//! ```console
//! $ perfbench --workload edtc_flow --seed 1 --seconds 12 --trace 0 \
//!       --server .bench_build/release/damocles_server --work .bench_work
//! ```
//!
//! Prints every metric as `name value unit`, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits 1 when an output check fails.

mod load;
mod node;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use blueprint_core::engine::api::DEFAULT_CHECKPOINT_EVERY;

use load::{run_phase, Conn, PhaseResult};
use node::{audit_scripts, Client, Node, Result, Stat};
use stats::{Latency, Rng, Spread};
use workload::{Class, Gen, Limit, Profile, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Restarts per run; `restart_s` is their median.
const RESTARTS: usize = 5;
/// Share of `--seconds` the fixed-rate phase gets when the ladder or the
/// traced replay follows it.
const FIXED_SHARE: f64 = 0.6;
/// Most steps the rate ladder takes.
const LADDER_STEPS: usize = 6;
/// The ladder stops once its bracket is this narrow (highest/lowest).
const LADDER_RESOLUTION: f64 = 1.08;
/// Pause between ladder steps.
const STEP_GAP: Duration = Duration::from_millis(250);
/// Acked OIDs sampled for `show` after the restart.
const RESTART_SAMPLE: usize = 32;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    scale: Scale,
}

fn parse_args() -> Result<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut server = PathBuf::from(".bench_build/release/damocles_server");
    let mut work = PathBuf::from(".bench_work");
    let mut scale = Scale::Full;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or(format!("no workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed wants a number")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds wants a number")?,
            "--trace" => trace = value()? == "1",
            "--server" => server = PathBuf::from(value()?),
            "--work" => work = PathBuf::from(value()?),
            "--smoke" => scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server,
        work,
        scale,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            (f.len() > 2 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// One measured quantity, printed as `name value unit`.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    failures: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        debug_assert!(stats::valid_metric_name(name), "{name}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    fn latency(&mut self, prefix: &str, samples: &[f64]) {
        match Latency::of(samples) {
            Some(l) => {
                self.add(
                    &format!("{prefix}_p50_ms"),
                    l.p50,
                    "ms",
                    format!("n={}", l.n),
                );
                let note = format!("n={} at=p{:.2}", l.n, l.tail_pct);
                self.add(&format!("{prefix}_p99_ms"), l.tail, "ms", note);
            }
            None => self.fail(format!("no {prefix} samples")),
        }
    }

    fn spread(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let s = Spread::of(values);
        let note = format!(
            "median of {} q1={:.6} q3={:.6} min={:.6} max={:.6}",
            s.n, s.q1, s.q3, s.min, s.max
        );
        self.add(name, s.median, unit, note);
    }

    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failures.push(why);
    }
}

/// The leader (and follower) of one workload, with the design loaded.
struct Cluster {
    leader: Node,
    follower: Option<Node>,
    /// The leader's journal directory, or the fleet root.
    dir: PathBuf,
    blueprint: PathBuf,
}

fn leader_args(profile: &Profile, dir: &Path) -> Vec<String> {
    let dir = dir.display().to_string();
    match (profile.fleet_max_active, profile.journal_after_load) {
        (Some(m), _) => vec!["--fleet".into(), dir, "--max-active".into(), m.to_string()],
        (None, None) => vec!["--journal".into(), dir],
        (None, Some(_)) => Vec::new(),
    }
}

/// The checkpoint cadence the leader journals at.
fn checkpoint_every(profile: &Profile) -> u64 {
    profile
        .journal_after_load
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY)
}

/// Starts the nodes and brings the design to its starting state, with
/// the follower bootstrapped to the leader's cursor.
fn set_up(args: &Args, gen: &mut Gen, dir: &Path) -> Result<Cluster> {
    let profile = args.workload.profile();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let blueprint = dir.join("blueprint.bp");
    std::fs::write(&blueprint, args.workload.blueprint(args.scale)).map_err(|e| e.to_string())?;
    let data = dir.join("data");
    let leader = Node::start(
        &args.server,
        &blueprint,
        &leader_args(&profile, &data),
        dir.join("leader.log"),
    )?;
    let mut client = leader.connect()?;
    client.run_checked(&gen.setup())?;
    if let (None, Some(every)) = (profile.fleet_max_active, profile.journal_after_load) {
        let line = format!("journal {} {every}", data.display());
        let reply = client.call(&line)?;
        if !reply.starts_with("epoch ") {
            return Err(format!("`{line}` answered `{reply}`"));
        }
    }
    let follower = if profile.follower {
        let node = Node::start(
            &args.server,
            &blueprint,
            &["--follow".to_string(), leader.addr.clone()],
            dir.join("follower.log"),
        )?;
        wait_caught_up(&mut client, &mut node.connect()?)?;
        Some(node)
    } else {
        None
    };
    Ok(Cluster {
        leader,
        follower,
        dir: data,
        blueprint,
    })
}

/// Waits until the follower's cursor and object count match the
/// leader's.
fn wait_caught_up(l: &mut Client, f: &mut Client) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let ls = Stat::parse(&l.call("stat")?)?;
        if let Ok(fs) = Stat::parse(&f.call("stat")?) {
            if (fs.cursor_epoch, fs.cursor_seq, fs.oids)
                == (ls.cursor_epoch, ls.cursor_seq, ls.oids)
            {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("follower never caught up with the leader".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Checkpoint and invocation counters summed over every tenant, read
/// through `conn` (fleet attachments change: detach the generator).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    checkpoints: f64,
    scripts: f64,
    activations: f64,
    evictions: f64,
}

fn counters(conn: &mut Conn, tenants: &[String]) -> Result<Counters> {
    let mut c = Counters::default();
    let single = [String::new()];
    let names: &[String] = if tenants.is_empty() { &single } else { tenants };
    for (i, name) in names.iter().enumerate() {
        if !name.is_empty() {
            conn.call(&format!("project {name}"))?;
        }
        let stat = Stat::parse(&conn.call("stat")?)?;
        c.checkpoints += stat.epoch as f64;
        c.scripts += audit_scripts(&conn.call("audit")?)? as f64;
        // The fleet-wide counters, read before this pass's own attaches
        // activate the other tenants.
        if i == 0 {
            c.activations = stat.activations as f64;
            c.evictions = stat.evictions as f64;
        }
    }
    Ok(c)
}

/// Whether a ladder step met the limit, and by how much: the smaller of
/// the latency headroom and the throughput headroom, minus one.
fn headroom(r: &PhaseResult, limit: Limit) -> f64 {
    if r.failed > 0 {
        return -1.0;
    }
    let tail = Latency::of(r.class(limit.class)).map_or(f64::INFINITY, |l| l.tail);
    (limit.tail_ms / tail).min(r.keep_up() / 0.95) - 1.0
}

/// The highest offered rate whose limited class's tail meets the limit
/// with achieved ≥ 0.95 × offered: doubling from the fixed rate to
/// bracket the crossing, bisecting until the bracket is under 8% wide,
/// then interpolating the headroom linearly across it.
fn ladder(
    gen: &mut Gen,
    leaders: &mut [Conn],
    mut follower: Option<&mut Conn>,
    (start_rps, limit): (f64, Limit),
    step_s: f64,
    log: &mut String,
) -> f64 {
    let mut step = |rate: f64| -> f64 {
        let ops = gen.schedule(rate, step_s, follower.is_some());
        let r = run_phase(&ops, leaders, follower.as_deref_mut(), false);
        let h = headroom(&r, limit);
        let tail = Latency::of(r.class(limit.class)).map_or(f64::NAN, |l| l.tail);
        let _ = writeln!(
            log,
            "# ladder rate={rate:.1} tail_ms={tail:.3} keep_up={:.4} headroom={h:.4} failed={}",
            r.keep_up(),
            r.failed
        );
        // Let work the step left behind (evictions, checkpoints) settle.
        std::thread::sleep(STEP_GAP);
        h
    };
    let mut lo: Option<(f64, f64)> = None;
    let mut hi: Option<(f64, f64)> = None;
    let mut rate = start_rps;
    for _ in 0..LADDER_STEPS {
        let h = step(rate);
        if h >= 0.0 {
            lo = Some((rate, h));
        } else {
            hi = Some((rate, h));
        }
        rate = match (lo, hi) {
            (Some((l, _)), Some((u, _))) if u / l <= LADDER_RESOLUTION => break,
            (Some((l, _)), Some((u, _))) => (l * u).sqrt(),
            (Some((l, _)), None) => l * 2.0,
            (None, Some((u, _))) => u / 2.0,
            (None, None) => unreachable!("a step always lands on one side"),
        };
    }
    match (lo, hi) {
        (Some((l, hl)), Some((u, hu))) => l + (u - l) * hl / (hl - hu),
        (Some((l, _)), None) => l,
        (None, Some((u, _))) => u / 2.0,
        (None, None) => 0.0,
    }
}

fn run(args: &Args, out: &mut String) -> Result<(Report, usize, usize)> {
    let w = args.workload;
    let profile = w.profile();
    let tenants = w.tenants(args.scale);
    let n = nproc();
    // The load generator holds at most `nproc` connections: the follower probe
    // connection counts against the leader connections.
    let leader_conns = n.saturating_sub(usize::from(profile.follower)).max(1);
    let run_dir = args
        .work
        .join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let _ = writeln!(
        out,
        "# host nproc={n} kernel={} fs={} commit={}",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
        filesystem_of(&run_dir),
        git_commit()
    );
    let limit = profile.ladder.map_or_else(
        || "none (no ladder)".to_string(),
        |l| format!("{:?} tail {} ms", l.class, l.tail_ms),
    );
    let _ = writeln!(
        out,
        "# workload {} seed={} offered_rps={} limit={limit} connections={} follower={} trace={}",
        w.name(),
        args.seed,
        profile.rate_rps,
        leader_conns,
        profile.follower,
        args.trace
    );
    let mut report = Report::default();

    // Set-up, several times; the last cluster serves the run.
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let mut gen = Gen::new(w, args.scale, args.seed, leader_conns);
        let t = Instant::now();
        let cluster = set_up(args, &mut gen, &run_dir.join(format!("setup{k}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((cluster, gen));
    }
    let (mut cluster, mut gen) = last.expect("SETUPS > 0");
    report.spread("setup_s", &setup_s, "s");
    gen.detach_all();

    // The fixed-rate phase.
    let laddered = profile.ladder.filter(|_| !args.trace);
    // The traced run keeps the TCP phase short: its in-process replay of
    // the same stream takes longer than the stream itself.
    let fixed_s = if laddered.is_some() || args.trace {
        args.seconds * FIXED_SHARE
    } else {
        args.seconds
    };
    let setup_ops = Gen::new(w, args.scale, args.seed, leader_conns).setup();
    let stream = gen.schedule(profile.rate_rps, fixed_s, profile.follower);
    let mut leaders: Vec<Conn> = (0..leader_conns)
        .map(|_| Conn::open(&cluster.leader.addr))
        .collect::<Result<_>>()?;
    let mut follower_conn = match &cluster.follower {
        Some(f) => Some(Conn::open(&f.addr)?),
        None => None,
    };
    let before = if args.trace {
        let c = counters(&mut leaders[0], &tenants)?;
        gen.detach_all();
        Some(c)
    } else {
        None
    };
    let cpu = |c: &Cluster| c.leader.cpu_ms() + c.follower.as_ref().map_or(0.0, Node::cpu_ms);
    let cpu0 = cpu(&cluster);
    let io0 = cluster.leader.write_bytes();
    let phase = run_phase(&stream, &mut leaders, follower_conn.as_mut(), args.trace);
    let cpu_ms = cpu(&cluster) - cpu0;
    let io_bytes = cluster.leader.write_bytes() - io0;
    let rss_mb = cluster.leader.peak_rss_mb();
    for f in &phase.failures {
        report.fail(f.clone());
    }
    let (attempted, failed) = (phase.attempted, phase.failed);
    let writes = (phase.class(Class::Write).len() + phase.class(Class::Process).len()) as f64;

    if args.trace {
        let after = counters(&mut leaders[0], &tenants)?;
        gen.detach_all();
        let b = before.expect("taken when tracing");
        let late = Latency::of(&phase.late_ms).map_or(0.0, |l| l.tail);
        report.add("driver.late_p99_ms", late, "ms", String::new());
        let per_write = |x: f64| x / writes.max(1.0);
        let per_k = |x: f64, base: f64| 1e3 * x / base.max(1.0);
        let requests = phase.done_s.len() as f64;
        let counts = [
            ("journal.disk_bytes_per_write", per_write(io_bytes), "bytes"),
            (
                "journal.checkpoints_per_kwrite",
                per_k(after.checkpoints - b.checkpoints, writes),
                "count",
            ),
            (
                "fleet.activations_per_kreq",
                per_k(after.activations - b.activations, requests),
                "count",
            ),
            (
                "fleet.evictions_per_kreq",
                per_k(after.evictions - b.evictions, requests),
                "count",
            ),
            (
                "invoke.scripts_per_kwrite",
                per_k(after.scripts - b.scripts, writes),
                "count",
            ),
        ];
        for (name, value, unit) in counts {
            report.add(name, value, unit, String::new());
        }
        if let Some(l) = Latency::of(&phase.lag_records) {
            let note = format!("n={} at=p{:.2}", l.n, l.tail_pct);
            report.add("follower.lag_records_p99", l.tail, "count", note);
        }
    } else {
        report.latency("write", phase.class(Class::Write));
        report.latency("process", phase.class(Class::Process));
        report.latency("read", phase.class(Class::Read));
        report.add(
            "achieved_rps",
            profile.rate_rps * phase.keep_up(),
            "req/s",
            format!("offered={}", profile.rate_rps),
        );
        report.add(
            "cpu_ms_per_op",
            cpu_ms / phase.done_s.len().max(1) as f64,
            "ms",
            format!("server_cpu_ms={cpu_ms:.1}"),
        );
        report.add("server_rss_mb", rss_mb, "MB", "leader VmHWM".into());
    }
    report.add(
        "error_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("failed={failed} attempted={attempted}"),
    );
    if profile.follower {
        report.latency("repl_visible", &phase.visible_ms);
    }

    if let Some(limit) = laddered {
        let steps = LADDER_STEPS as f64;
        let step_s = args.seconds * (1.0 - FIXED_SHARE) / steps - STEP_GAP.as_secs_f64();
        let mut log = String::new();
        let max_rate = ladder(
            &mut gen,
            &mut leaders,
            follower_conn.as_mut(),
            (profile.rate_rps, limit),
            step_s,
            &mut log,
        );
        out.push_str(&log);
        report.add(
            "max_rate_rps",
            max_rate,
            "req/s",
            format!("limit_ms={}", limit.tail_ms),
        );
    }
    drop(leaders);
    drop(follower_conn);

    check_and_restart(args, &mut cluster, &mut gen, &tenants, &mut report)?;

    if args.trace {
        let spans = args
            .work
            .join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        let metrics = traced::run(
            &w.blueprint(args.scale),
            &setup_ops,
            &stream,
            checkpoint_every(&profile),
            profile.fleet_max_active,
            &run_dir.join("traced"),
            &spans,
        )?;
        for (name, value, unit) in metrics {
            report.add(&name, value, unit, String::new());
        }
        let _ = writeln!(out, "# spans written to {}", spans.display());
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok((report, attempted, failed))
}

/// Post-run output checks, then `restart_s`: SIGKILL the leader, start a
/// fresh server and time `recover` (a fleet recovers lazily, on the first
/// routed request). SIGKILL leaves the OS page cache intact, so this is a
/// crash check, not a power-loss check.
fn check_and_restart(
    args: &Args,
    cluster: &mut Cluster,
    gen: &mut Gen,
    tenants: &[String],
    report: &mut Report,
) -> Result<()> {
    let single = [String::new()];
    let names: &[String] = if tenants.is_empty() { &single } else { tenants };
    let attach = |c: &mut Client, name: &str| -> Result<()> {
        if !name.is_empty() {
            c.call(&format!("project {name}"))?;
        }
        Ok(())
    };
    let mut client = cluster.leader.connect()?;
    let mut before = Vec::new();
    for name in names {
        attach(&mut client, name)?;
        let reply = client.call("process")?;
        if workload::processed_deliveries(&reply).is_none() {
            report.fail(format!("final process answered `{reply}`"));
        }
        let stat = Stat::parse(&client.call("stat")?)?;
        if stat.pending != 0 {
            report.fail(format!(
                "{name}: {} events pending after the final process",
                stat.pending
            ));
        }
        before.push(stat);
    }
    if let Some(follower) = &cluster.follower {
        let mut f = follower.connect()?;
        wait_caught_up(&mut client, &mut f)?;
        if client.call("dump")? != f.call("dump")? {
            report.fail("follower dump differs from the leader's".into());
        }
    }
    drop(client);
    if let Some(mut f) = cluster.follower.take() {
        f.kill();
    }
    let mut rng = Rng::new(args.seed ^ 0xc0ffee);
    let sample = gen.sample_oids(&mut rng, RESTART_SAMPLE);
    let profile = args.workload.profile();
    let mut restart_s = Vec::new();
    for k in 0..RESTARTS {
        cluster.leader.kill();
        let t = Instant::now();
        let fleet = profile.fleet_max_active.is_some();
        let node_args = if fleet {
            leader_args(&profile, &cluster.dir)
        } else {
            Vec::new()
        };
        let log = cluster.dir.with_file_name(format!("restart{k}.log"));
        cluster.leader = Node::start(&args.server, &cluster.blueprint, &node_args, log)?;
        let mut client = cluster.leader.connect()?;
        if fleet {
            attach(&mut client, &names[0])?;
            client.call("stat")?;
        } else {
            let every = checkpoint_every(&profile);
            let line = format!("recover {} {every}", cluster.dir.display());
            let reply = client.call(&line)?;
            if !reply.starts_with("recovered ") {
                return Err(format!("`{line}` answered `{reply}`"));
            }
        }
        restart_s.push(t.elapsed().as_secs_f64());
        for (name, old) in names.iter().zip(&before) {
            attach(&mut client, name)?;
            let stat = Stat::parse(&client.call("stat")?)?;
            if (stat.oids, stat.links) != (old.oids, old.links) {
                report.fail(format!(
                    "{name}: after restart {} OIDs / {} links, before {} / {}",
                    stat.oids, stat.links, old.oids, old.links
                ));
            }
        }
        for (tenant, oid) in &sample {
            attach(&mut client, names.get(*tenant).map_or("", String::as_str))?;
            let reply = client.call(&format!("show {oid}"))?;
            if !reply.starts_with(&format!("props {oid} ")) {
                report.fail(format!("after restart `show {oid}` answered `{reply}`"));
            }
        }
    }
    cluster.leader.kill();
    report.spread("restart_s", &restart_s, "s");
    Ok(())
}

/// The end-to-end metrics of the JSON line with `--trace 0`.
const END_TO_END: [&str; 4] = ["setup_s", "achieved_rps", "cpu_ms_per_op", "server_rss_mb"];

/// Metrics the JSON line leaves out, printed for the reader only.
/// `error_frac` reads 0 by design; the JSON carries `failed` and
/// `attempted`. The follower figures exist only where a follower runs.
/// The rest move too much from run to run on a host whose disk other
/// machines share to gate a change: every acked write waits for an fsync,
/// and when the disk is contended the fsync time, and with it every
/// latency, `max_rate_rps` and `restart_s`, doubles for minutes at a time.
const PRINT_ONLY: [&str; 12] = [
    "error_frac",
    "write_p50_ms",
    "write_p99_ms",
    "process_p50_ms",
    "process_p99_ms",
    "read_p50_ms",
    "read_p99_ms",
    "max_rate_rps",
    "restart_s",
    "repl_visible_p50_ms",
    "repl_visible_p99_ms",
    "follower.lag_records_p99",
];

fn json_line(report: &Report, trace: bool, attempted: usize, failed: usize) -> String {
    let mut metrics = String::new();
    for m in &report.metrics {
        let name = m.name.as_str();
        let wanted = if trace {
            !END_TO_END.contains(&name) && !PRINT_ONLY.contains(&name)
        } else {
            END_TO_END.contains(&name)
        };
        if !wanted || !m.value.is_finite() {
            continue;
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        report.failures.is_empty() && failed == 0
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = String::new();
    match run(&args, &mut out) {
        Ok((report, attempted, failed)) => {
            print!("{out}");
            for m in &report.metrics {
                println!("{} {} {} {}", m.name, m.value, m.unit, m.note);
            }
            let correct = report.failures.is_empty() && failed == 0;
            println!("{}", json_line(&report, args.trace, attempted, failed));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            print!("{out}");
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
