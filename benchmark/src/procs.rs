//! Server child processes: the benchmark binary re-executes itself as
//! `--role node` / `--role router`. A child serves until its stdin reaches
//! EOF, so it cannot outlive the parent; the parent also kills and reaps it
//! on drop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::surface::{self, Click};

/// How long a child gets to exit after its stdin closes before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(2);

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at 100
/// for userspace on every Linux architecture the benchmark runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// A spawned server process.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl ServerProcess {
    /// Spawns `current_exe() <args>` and returns it with its first stdout
    /// line, which carries the addresses the child bound.
    fn spawn(args: &[String]) -> Result<(Self, String), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout not captured")?;
        let mut process = Self { child, stdin };
        let mut line = String::new();
        match BufReader::new(stdout).read_line(&mut line) {
            Ok(n) if n > 0 => Ok((process, line)),
            _ => {
                let status = process.stop();
                Err(format!(
                    "child {args:?} exited before it was ready ({status})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's stdin, waits [`EXIT_GRACE`] for it to exit, then
    /// kills it; always reaps it.
    fn stop(&mut self) -> String {
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.to_string(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => format!("killed: {status}"),
            Err(e) => format!("unreaped: {e}"),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.stop();
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// A serving-node child.
pub struct NodeProcess {
    pub process: ServerProcess,
    pub id: u64,
    pub data: SocketAddr,
    pub ctrl: SocketAddr,
}

/// Spawns a node that loads the artefact at `index`; with `ingest_clicks`
/// it also runs live ingest seeded with that click log.
pub fn spawn_node(
    id: u64,
    index: &Path,
    ingest_clicks: Option<&Path>,
) -> Result<NodeProcess, String> {
    let mut args = vec![
        String::from("--role"),
        String::from("node"),
        String::from("--id"),
        id.to_string(),
        String::from("--index"),
        index.display().to_string(),
    ];
    if let Some(path) = ingest_clicks {
        args.extend([String::from("--ingest-clicks"), path.display().to_string()]);
    }
    let (process, line) = ServerProcess::spawn(&args)?;
    let parse = |key| field(&line, key).and_then(|v| v.parse().ok());
    match (parse("data"), parse("ctrl")) {
        (Some(data), Some(ctrl)) => Ok(NodeProcess {
            process,
            id,
            data,
            ctrl,
        }),
        _ => Err(format!("unreadable node banner: {line:?}")),
    }
}

/// A router child.
pub struct RouterProcess {
    pub process: ServerProcess,
    pub addr: SocketAddr,
}

pub fn spawn_router(nodes: &[NodeProcess]) -> Result<RouterProcess, String> {
    let mut args = vec![String::from("--role"), String::from("router")];
    for node in nodes {
        args.extend([
            String::from("--node"),
            format!("{},{},{}", node.id, node.data, node.ctrl),
        ]);
    }
    let (process, line) = ServerProcess::spawn(&args)?;
    match field(&line, "data").and_then(|v| v.parse().ok()) {
        Some(addr) => Ok(RouterProcess { process, addr }),
        None => Err(format!("unreadable router banner: {line:?}")),
    }
}

/// CPU time (user + system) a process has used so far, in microseconds.
pub fn cpu_us(pid: u32) -> Option<f64> {
    cpu_us_at(&format!("/proc/{pid}/stat"))
}

/// CPU time the calling thread has used so far, in microseconds.
pub fn thread_cpu_us() -> Option<f64> {
    cpu_us_at("/proc/thread-self/stat")
}

fn cpu_us_at(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name may hold spaces; the fixed fields follow the last ')'.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND * 1e6)
}

/// Peak resident set size (`VmHWM`) of a process, in megabytes.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Writes a click log as little-endian `(session, item, timestamp)` triples.
pub fn write_clicks(path: &Path, clicks: &[Click]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(clicks.len() * 24);
    for c in clicks {
        bytes.extend_from_slice(&c.session_id.to_le_bytes());
        bytes.extend_from_slice(&c.item_id.to_le_bytes());
        bytes.extend_from_slice(&c.timestamp.to_le_bytes());
    }
    std::fs::write(path, bytes)
}

fn read_clicks(path: &str) -> Result<Vec<Click>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable click log {path}: {e}"))?;
    if bytes.len() % 24 != 0 {
        return Err(format!("click log {path} is not a whole number of records"));
    }
    let word = |chunk: &[u8], i: usize| {
        u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8-byte slice"))
    };
    Ok(bytes
        .chunks_exact(24)
        .map(|c| Click::new(word(c, 0), word(c, 1), word(c, 2)))
        .collect())
}

/// Serves until the parent closes our stdin (or exits, which closes it).
fn serve_until_stdin_eof(banner: &str) {
    println!("{banner}");
    let _ = std::io::stdout().flush();
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
}

/// Entry point of a `--role` child; `args` are the arguments after the role.
pub fn role_main(role: &str, args: &[String]) -> ExitCode {
    let outcome = match role {
        "node" => node_role(args),
        "router" => router_role(args),
        other => Err(format!("unknown role {other:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serenade-benchmark --role {role}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn node_role(args: &[String]) -> Result<(), String> {
    let (mut id, mut index, mut ingest_clicks) = (0u64, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--id" => {
                id = value
                    .parse()
                    .map_err(|_| format!("bad node id {value:?}"))?
            }
            "--index" => index = Some(value),
            "--ingest-clicks" => ingest_clicks = Some(value),
            _ => return Err(format!("unknown node flag {flag:?}")),
        }
    }
    let index = index.ok_or("--index is required")?;
    let bytes = std::fs::read(index).map_err(|e| format!("unreadable index {index}: {e}"))?;
    let index = surface::decode_index(&bytes)?;
    drop(bytes);
    let seed = ingest_clicks.map(|path| read_clicks(path)).transpose()?;
    let node = surface::Node::start(id, index, seed.as_deref())?;
    drop(seed);
    serve_until_stdin_eof(&format!(
        "node id={} data={} ctrl={}",
        node.id(),
        node.data_addr(),
        node.ctrl_addr()
    ));
    Ok(())
}

fn router_role(args: &[String]) -> Result<(), String> {
    let mut members = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag != "--node" {
            return Err(format!("unknown router flag {flag:?}"));
        }
        let mut parts = value.splitn(3, ',');
        let mut part = || parts.next().ok_or_else(|| format!("bad member {value:?}"));
        let id = part()?.parse::<u64>().map_err(|e| e.to_string())?;
        let data = part()?.parse::<SocketAddr>().map_err(|e| e.to_string())?;
        let ctrl = part()?.parse::<SocketAddr>().map_err(|e| e.to_string())?;
        members.push((id, data, ctrl));
    }
    let router = surface::Router::start(&members)?;
    serve_until_stdin_eof(&format!("router data={}", router.addr()));
    Ok(())
}
