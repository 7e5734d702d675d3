//! The `qre serve` child process: spawning, readiness, `/proc/<pid>`
//! readers, and a watchdog that kills every live child if the run
//! overruns its time limit.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Live child pids, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kill every live child and exit with code 3 once `limit` has passed, so
/// a hung server can never keep the run alive (or running) past its bound.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; killing the server");
        for pid in LIVE.lock().expect("live-child registry lock").iter() {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        std::process::exit(3);
    });
}

/// The linux `USER_HZ`: `/proc/<pid>/stat` reports CPU time in these ticks.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) the process has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    let after = stat.rsplit_once(") ").ok_or("malformed /proc stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc status")?;
    Ok(kib as f64 / 1024.0)
}

/// A running `qre serve` child.
pub struct Server {
    child: Child,
    /// Time from spawn until the server could take its first job.
    pub setup: Duration,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn spawn(
        qre: &Path,
        args: &[&str],
        stdout: Stdio,
        stderr: Stdio,
    ) -> Result<(Child, Instant), String> {
        let start = Instant::now();
        let child = Command::new(qre)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", qre.display()))?;
        LIVE.lock()
            .expect("live-child registry lock")
            .push(child.id());
        Ok((child, start))
    }

    /// A pipe session (`qre serve ARGS` on stdin/stdout). Ready once it
    /// answers a probe line: `{"control":"ready"}` is not a command the
    /// server knows, so it replies at once with an error record, touching
    /// neither the design store nor the job gates.
    pub fn pipe(qre: &Path, args: &[&str]) -> Result<(Server, PipeSession), String> {
        let (mut child, start) = Self::spawn(qre, args, Stdio::piped(), Stdio::inherit())?;
        let mut stdin = child.stdin.take().ok_or("no server stdin")?;
        let mut stdout =
            BufReader::with_capacity(1 << 16, child.stdout.take().ok_or("no server stdout")?);
        stdin
            .write_all(b"{\"id\":\"ready\",\"control\":\"ready\"}\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server probe: {e}"))?;
        let mut reply = Vec::new();
        stdout
            .read_until(b'\n', &mut reply)
            .map_err(|e| format!("server probe: {e}"))?;
        if !reply.starts_with(b"{\"job\":\"ready\"") {
            return Err(format!(
                "unexpected probe reply: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        let setup = start.elapsed();
        Ok((
            Server { child, setup },
            PipeSession {
                stdin: Some(stdin),
                stdout,
            },
        ))
    }

    /// A TCP service (`qre serve --listen 127.0.0.1:0 ARGS`). Ready once it
    /// reports its address, which it does after loading any snapshot.
    pub fn listen(qre: &Path, args: &[&str]) -> Result<(Server, String), String> {
        let mut full = vec!["--listen", "127.0.0.1:0"];
        full.extend_from_slice(args);
        let (mut child, start) = Self::spawn(qre, &full, Stdio::null(), Stdio::piped())?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no server stderr")?);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
                break addr.to_string();
            }
            eprint!("{line}");
        };
        let setup = start.elapsed();
        // Keep draining the server's log so it never blocks on a full pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok((Server { child, setup }, addr))
    }

    /// Drain a TCP service through its operator stdin and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.child.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        self.wait()
    }

    /// Stop the process at once (no drain, no snapshot save) and reap it.
    pub fn kill(mut self) -> Result<(), String> {
        let _ = self.child.kill();
        self.child.wait().map_err(|e| e.to_string())?;
        self.deregister();
        Ok(())
    }

    /// Wait for the process to exit on its own; a failure exit is an error.
    pub fn wait(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.deregister();
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }

    fn deregister(&self) {
        let pid = self.child.id();
        LIVE.lock()
            .expect("live-child registry lock")
            .retain(|&p| p != pid);
    }
}

/// The stdin/stdout pair of a pipe session.
pub struct PipeSession {
    stdin: Option<ChildStdin>,
    pub stdout: BufReader<ChildStdout>,
}

impl PipeSession {
    /// Send one job line; `line` must end in a newline.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("session input already closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("failed to send a job: {e}"))
    }

    /// Close the server's input: a pipe server finishes and exits at EOF.
    pub fn close(&mut self) {
        self.stdin = None;
    }

    /// Read the rest of the output to EOF (the server's exit).
    pub fn drain(&mut self) {
        let _ = std::io::copy(&mut self.stdout, &mut std::io::sink());
    }
}

/// Read one line into `buf` without its newline; `false` at EOF.
pub fn read_record(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Result<bool, String> {
    buf.clear();
    let n = reader
        .read_until(b'\n', buf)
        .map_err(|e| format!("failed to read a record: {e}"))?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    Ok(n > 0)
}
