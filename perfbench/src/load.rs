//! The open-loop load generator: one thread multiplexing every connection.
//!
//! Requests go out at their scheduled times whether or not earlier ones
//! were answered, pipelined on their connection, and each latency is
//! measured from the *intended* send time, so a stall is charged to every
//! request queued behind it (no coordinated omission). How late the
//! generator itself ran is recorded too.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::node::{Result, Stat};
use crate::workload::{Class, Timed};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a socket is ready or `timeout` passes, with the
/// nanosecond timer resolution `poll`'s millisecond argument lacks.
fn wait_ready(conns: &[&mut Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a live, exclusively owned array of `fds.len()`
    // `struct pollfd` values (same layout: int, short, short) for the
    // whole call; `ts` is a valid `struct timespec` on the stack; a null
    // signal mask leaves the mask unchanged. The result only says which
    // sockets are ready, and every socket is read non-blocking anyway, so
    // an error or early return costs one loop turn.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

#[derive(Debug)]
enum Pending {
    Op { index: usize, due: Instant },
    Probe { oid: String, acked: Instant },
    Stat { sample: usize },
}

/// One non-blocking connection with its output buffer and the queue of
/// requests awaiting replies, in send order.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn push(&mut self, line: &str, pending: Pending) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.inflight.push_back(pending);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived and returns the complete lines. `Err` means
    /// the peer closed the connection or it failed.
    fn read_lines(&mut self) -> std::io::Result<Vec<String>> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut lines = Vec::new();
        while let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=end).collect();
            lines.push(String::from_utf8_lossy(&line).trim_end().to_string());
        }
        Ok(lines)
    }

    /// One request and its reply, outside a measured phase.
    pub fn call(&mut self, line: &str) -> Result<String> {
        assert!(self.inflight.is_empty(), "call on a busy connection");
        self.out.extend_from_slice(format!("{line}\n").as_bytes());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            self.flush().map_err(|e| format!("send `{line}`: {e}"))?;
            let lines = self
                .read_lines()
                .map_err(|e| format!("reply to `{line}`: {e}"))?;
            if let Some(reply) = lines.into_iter().next() {
                return Ok(reply);
            }
            if Instant::now() > deadline {
                return Err(format!("no reply to `{line}`"));
            }
            wait_ready(&[self], Duration::from_millis(50));
        }
    }
}

/// Everything one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latencies from the intended send time, ms, indexed by
    /// [`class_index`].
    pub latency_ms: [Vec<f64>; 4],
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// How late each request left against its schedule, ms.
    pub late_ms: Vec<f64>,
    /// When each successful reply arrived, seconds from the phase start;
    /// fleet attaches not counted.
    pub done_s: Vec<f64>,
    /// When each request other than a fleet attach was due.
    pub due_s: Vec<f64>,
    /// The schedule's span, seconds.
    pub span_s: f64,
    /// Follower visibility of acked probe writes, ms.
    pub visible_ms: Vec<f64>,
    /// Follower lag behind the leader in journal records, per sample.
    pub lag_records: Vec<f64>,
}

pub fn class_index(class: Class) -> usize {
    match class {
        Class::Write => 0,
        Class::Process => 1,
        Class::Read => 2,
        Class::Attach => 3,
    }
}

impl PhaseResult {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn class(&self, class: Class) -> &[f64] {
        &self.latency_ms[class_index(class)]
    }

    /// Completions over arrivals in the schedule's last 80%: 1 while the
    /// server keeps up, its capacity over the offered rate once it does
    /// not. The first 20% is left out so the window sees a steady state,
    /// and replies after the schedule ends so that latency itself is not
    /// counted as lost throughput. Counting the window's own arrivals
    /// rather than multiplying the offered rate by its length keeps the
    /// arrival process's sampling noise out.
    pub fn keep_up(&self) -> f64 {
        let from = 0.2 * self.span_s;
        let within = |xs: &[f64]| {
            xs.iter()
                .filter(|&&t| t >= from && t <= self.span_s)
                .count()
        };
        within(&self.done_s) as f64 / within(&self.due_s).max(1) as f64
    }
}

/// How often the traced run samples `stat` on leader and follower.
const STAT_EVERY: Duration = Duration::from_millis(100);
/// Re-poll interval while a probe write is not yet visible.
const PROBE_POLL: Duration = Duration::from_micros(100);
/// How long a request may stay unanswered after the schedule ends.
const DRAIN: Duration = Duration::from_secs(20);

/// Plays `ops` open-loop over `leaders` (indexed by each op's `conn`),
/// polling `follower` for probe visibility and, with `sample_lag`,
/// sampling both nodes' `stat` cursors.
pub fn run_phase(
    ops: &[Timed],
    leaders: &mut [Conn],
    mut follower: Option<&mut Conn>,
    sample_lag: bool,
) -> PhaseResult {
    let mut r = PhaseResult {
        attempted: ops.len(),
        ..PhaseResult::default()
    };
    let start = Instant::now() + Duration::from_millis(5);
    let span = Duration::from_nanos(ops.last().map_or(0, |t| t.due_ns));
    let mut next = 0;
    // Probes acked but not yet visible: (oid, acked, poll no earlier than).
    let mut probes: VecDeque<(String, Instant, Instant)> = VecDeque::new();
    let mut stats: Vec<[Option<Stat>; 2]> = Vec::new();
    let mut next_stat = start;
    let mut broken = false;
    loop {
        let now = Instant::now();
        while next < ops.len() && start + Duration::from_nanos(ops[next].due_ns) <= now {
            let t = &ops[next];
            let due = start + Duration::from_nanos(t.due_ns);
            r.late_ms.push(ms(now - due));
            leaders[t.op.conn].push(&t.op.line, Pending::Op { index: next, due });
            next += 1;
        }
        if let Some(f) = follower.as_deref_mut() {
            while probes.front().is_some_and(|p| p.2 <= now) {
                let (oid, acked, _) = probes.pop_front().expect("front checked");
                f.push(&format!("show {oid}"), Pending::Probe { oid, acked });
            }
            if sample_lag && next < ops.len() && now >= next_stat {
                let sample = stats.len();
                stats.push([None, None]);
                leaders[0].push("stat", Pending::Stat { sample });
                f.push("stat", Pending::Stat { sample });
                next_stat = now + STAT_EVERY;
            }
        }
        let mut all: Vec<&mut Conn> = leaders.iter_mut().collect();
        let follower_at = all.len();
        if let Some(f) = follower.as_deref_mut() {
            all.push(f);
        }
        for (i, conn) in all.iter_mut().enumerate() {
            let lines = conn.flush().and_then(|()| conn.read_lines());
            let lines = match lines {
                Ok(lines) => lines,
                Err(e) => {
                    r.fail(format!("connection {i}: {e}"));
                    broken = true;
                    Vec::new()
                }
            };
            let now = Instant::now();
            for line in lines {
                let Some(pending) = conn.inflight.pop_front() else {
                    r.fail(format!("unrequested reply `{line}`"));
                    continue;
                };
                match pending {
                    Pending::Op { index, due } => {
                        let op = &ops[index].op;
                        if !op.expect.accepts(&line) {
                            r.fail(format!("`{}` answered `{line}`", op.line));
                            continue;
                        }
                        // A fleet attach rides along with the request it
                        // routes; it is not an arrival of its own.
                        if op.class != Class::Attach {
                            r.done_s.push((now - start).as_secs_f64());
                        }
                        r.latency_ms[class_index(op.class)].push(ms(now - due));
                        if let Some(oid) = &op.probe {
                            probes.push_back((oid.clone(), now, now));
                        }
                    }
                    Pending::Probe { oid, acked } => {
                        if line.starts_with("props ") {
                            r.visible_ms.push(ms(now - acked));
                        } else if line.starts_with("err unknown-oid") && now - acked < DRAIN {
                            probes.push_back((oid, acked, now + PROBE_POLL));
                        } else {
                            r.fail(format!("probe `show {oid}` answered `{line}`"));
                        }
                    }
                    Pending::Stat { sample } => match Stat::parse(&line) {
                        Ok(stat) => stats[sample][usize::from(i == follower_at)] = Some(stat),
                        Err(e) => r.fail(e),
                    },
                }
            }
        }
        let idle = all
            .iter()
            .all(|c| c.inflight.is_empty() && c.out.is_empty());
        if broken || (next == ops.len() && idle && probes.is_empty()) {
            break;
        }
        let now = Instant::now();
        if now > start + span + DRAIN {
            break;
        }
        let mut wake = start + span + DRAIN;
        if let Some(t) = ops.get(next) {
            wake = wake.min(start + Duration::from_nanos(t.due_ns));
        }
        if let Some(p) = probes.front() {
            wake = wake.min(p.2);
        }
        if sample_lag && next < ops.len() {
            wake = wake.min(next_stat);
        }
        if wake > now {
            wait_ready(&all, wake - now);
        }
    }
    // Anything still unanswered, or never sent, is a failure.
    for conn in leaders.iter_mut().chain(follower) {
        for pending in conn.inflight.drain(..) {
            if let Pending::Op { index, .. } = pending {
                r.fail(format!("`{}` got no reply", ops[index].op.line));
            }
        }
    }
    for t in &ops[next..] {
        r.fail(format!("`{}` was never sent", t.op.line));
    }
    for (oid, _, _) in probes {
        r.fail(format!("probe {oid} never became visible"));
    }
    r.span_s = span.as_secs_f64();
    r.due_s = ops
        .iter()
        .filter(|t| t.op.class != Class::Attach)
        .map(|t| t.due_ns as f64 / 1e9)
        .collect();
    r.lag_records = stats
        .iter()
        .filter_map(|[l, f]| {
            let (l, f) = ((*l)?, (*f)?);
            Some(if l.cursor_epoch == f.cursor_epoch {
                l.cursor_seq.saturating_sub(f.cursor_seq) as f64
            } else {
                l.cursor_seq as f64
            })
        })
        .collect();
    r
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
