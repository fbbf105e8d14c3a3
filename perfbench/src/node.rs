//! `damocles_server` processes seen from outside: spawning them at their
//! default flags, a blocking line client, and `/proc/<pid>` readings.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::Op;

pub type Result<T> = std::result::Result<T, String>;

/// A running server process.
#[derive(Debug)]
pub struct Node {
    child: Child,
    pub addr: String,
}

impl Node {
    /// Starts `server <blueprint> --listen 127.0.0.1:0 <args…>` with its
    /// stderr in `log`, and waits for the line there announcing its bound
    /// address.
    pub fn start(server: &Path, blueprint: &Path, args: &[String], log: PathBuf) -> Result<Node> {
        let err = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(server)
            .arg(blueprint)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server.display()))?;
        let mut node = Node {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(&log).unwrap_or_default();
            let bound = text.lines().find_map(|l| {
                l.strip_prefix("listening on ")
                    .or_else(|| l.split_once("front door on ").map(|(_, a)| a))
                    .and_then(|a| a.split_whitespace().next())
            });
            if let Some(addr) = bound {
                node.addr = addr.to_string();
                return Ok(node);
            }
            if let Ok(Some(status)) = node.child.try_wait() {
                return Err(format!(
                    "server exited ({status}) before listening:\n{text}"
                ));
            }
            if Instant::now() > deadline {
                node.kill();
                return Err(format!("server did not start listening:\n{text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    pub fn connect(&self) -> Result<Client> {
        Client::connect(&self.addr)
    }

    /// Server CPU time so far (user + system), in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name: utime and stime
        // are the 12th and 13th, in clock ticks of 10 ms.
        let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick(11) + tick(12)) * 10.0
    }

    /// Peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_field(self.pid(), "status", "VmHWM:") / 1024.0
    }

    /// Bytes this process caused to be written to storage.
    pub fn write_bytes(&self) -> f64 {
        proc_field(self.pid(), "io", "write_bytes:")
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

fn proc_field(pid: u32, file: &str, key: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/{file}"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A blocking, pipelining line client for setup and checks.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn call(&mut self, line: &str) -> Result<String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send `{line}`: {e}"))?;
        self.read_reply(line)
    }

    fn read_reply(&mut self, line: &str) -> Result<String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => Err(format!("no reply to `{line}`")),
            Ok(_) => Ok(reply.trim_end().to_string()),
        }
    }

    /// Sends `ops` pipelined and checks every reply's form. At most 256
    /// go unanswered, so neither side's socket buffer fills up.
    pub fn run_checked(&mut self, ops: &[Op]) -> Result<()> {
        let mut next_reply = 0;
        for (i, op) in ops.iter().enumerate() {
            if i - next_reply >= 256 {
                self.check(&ops[next_reply])?;
                next_reply += 1;
            }
            self.writer
                .write_all(format!("{}\n", op.line).as_bytes())
                .map_err(|e| format!("send `{}`: {e}", op.line))?;
        }
        for op in &ops[next_reply..] {
            self.check(op)?;
        }
        Ok(())
    }

    fn check(&mut self, op: &Op) -> Result<()> {
        let reply = self.read_reply(&op.line)?;
        if op.expect.accepts(&reply) {
            Ok(())
        } else {
            Err(format!("`{}` answered `{reply}`", op.line))
        }
    }
}

/// The fields of a `stat` reply this benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat {
    pub oids: u64,
    pub links: u64,
    pub pending: u64,
    pub epoch: u64,
    pub cursor_epoch: u64,
    pub cursor_seq: u64,
    pub activations: u64,
    pub evictions: u64,
}

impl Stat {
    pub fn parse(reply: &str) -> Result<Stat> {
        let f: Vec<&str> = reply.split(' ').collect();
        if f.first() != Some(&"stat") || f.len() < 19 {
            return Err(format!("not a stat reply: `{reply}`"));
        }
        let num = |i: usize| -> Result<u64> {
            let word = f[i].trim_start_matches('+');
            if word == "-" {
                return Ok(0);
            }
            word.parse()
                .map_err(|_| format!("bad stat field {i}: `{reply}`"))
        };
        Ok(Stat {
            oids: num(1)?,
            links: num(2)?,
            pending: num(3)?,
            epoch: num(4)?,
            cursor_epoch: num(11)?,
            cursor_seq: num(12)?,
            activations: num(15)?,
            evictions: num(16)?,
        })
    }
}

/// The `scripts` counter of an `audit` reply.
pub fn audit_scripts(reply: &str) -> Result<u64> {
    reply
        .strip_prefix("audit ")
        .and_then(|r| r.split(' ').nth(3)?.parse().ok())
        .ok_or_else(|| format!("not an audit reply: `{reply}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_and_audit() {
        let s = Stat::parse("stat 12 9 0 +1 +208 2 0 0 0 0 1 208 0 0 3 4 1 leader").unwrap();
        assert_eq!((s.oids, s.links, s.pending, s.epoch), (12, 9, 0, 1));
        assert_eq!(
            (s.cursor_epoch, s.cursor_seq, s.activations, s.evictions),
            (1, 208, 3, 4)
        );
        let s = Stat::parse("stat 3 1 0 - - 2 0 0 0 0 0 0 0 0 0 0 1 follower").unwrap();
        assert_eq!(s.epoch, 0);
        assert!(Stat::parse("err no-project").is_err());
        assert_eq!(audit_scripts("audit 55 84 35 3 17 39 0 0 12 0 0 0"), Ok(3));
    }
}
