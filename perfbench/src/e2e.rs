//! End-to-end runs: the shipped `qre serve` binary as a child process,
//! driven by this process as a closed-loop load generator (at most two
//! client threads and two connections), with tracing off.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use qre_arith::MulAlgorithm;
use qre_circuit::LogicalCounts;
use qre_core::Shard;
use qre_json::Value;

use crate::check::{classify, fresh_engine, paper_counts_mismatches, JobCheck, Record, Reference};
use crate::gen::{paper_jobs, Matrix, SHARDS};
use crate::server::{cpu_seconds, peak_rss_mib, read_record, Server};
use crate::stats::median;
use crate::Metric;

/// Extra server start-ups per run, on top of the measured server, whose
/// median is `setup_s`.
const SETUP_SAMPLES: usize = 10;

/// Jobs each warm-sweep connection keeps in flight: the server's default
/// per-connection admission bound (`--per-conn 2`).
const PER_CONNECTION: usize = 2;

/// Jobs run before the measured window of a long-lived server, so its
/// allocator and caches have settled. Their output is still checked.
const WARMUP: Duration = Duration::from_secs(1);

/// What one end-to-end run measured.
#[derive(Default)]
pub struct Run {
    /// Items the run's jobs asked for.
    pub attempted: usize,
    /// Items missing, duplicated, wrong, or in a failed job.
    pub failed: usize,
    /// Item records delivered.
    pub items: usize,
    /// Wall time from first submit to last `stats` record, summed over the
    /// run's measured windows.
    pub window: Duration,
    /// Per job: submit → first item record, in ms.
    pub first_record_ms: Vec<f64>,
    /// Per job: submit → `stats` record, in ms.
    pub job_ms: Vec<f64>,
    /// Server CPU seconds over the measured windows.
    pub server_cpu_s: f64,
    /// Server `VmHWM` at the end of each measured server's run, in MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Spawn → ready, in seconds, per server start-up.
    pub setup_s: Vec<f64>,
}

/// One job in flight on a connection.
struct Active {
    id: String,
    check: JobCheck,
    sent: Instant,
    first: Option<Instant>,
    done: Option<Instant>,
    /// Parsed item records, when the job's counts are checked.
    records: Option<Vec<Value>>,
}

impl Active {
    fn new(id: String, check: JobCheck, keep_records: bool) -> Active {
        Active {
            id,
            check,
            sent: Instant::now(),
            first: None,
            done: None,
            records: keep_records.then(Vec::new),
        }
    }

    /// Fold the finished job into `run`: its check always, its timing
    /// only when `timed` (a warm-up job is not).
    fn finish(self, run: &mut Run, timed: bool) -> Option<Vec<Value>> {
        let done = self.done.expect("finished job");
        run.attempted += self.check.attempted();
        run.failed += self.check.failed();
        if !timed {
            return self.records;
        }
        run.items += self.check.items;
        run.job_ms.push(ms(done - self.sent));
        if let Some(first) = self.first {
            run.first_record_ms.push(ms(first - self.sent));
        }
        self.records
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Read records until one job of `active` ends (its `stats` or job-level
/// error record arrives); remove and return it.
fn next_done(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    active: &mut Vec<Active>,
) -> Result<Active, String> {
    loop {
        if !read_record(reader, buf)? {
            return Err("server closed the session with jobs in flight".into());
        }
        let (id, record) = classify(buf);
        let Some(k) = active.iter().position(|a| a.id.as_bytes() == id) else {
            return Err(format!(
                "unexpected record: {}",
                String::from_utf8_lossy(buf)
            ));
        };
        let job = &mut active[k];
        match record {
            Record::Item { index, body } => {
                job.first.get_or_insert_with(Instant::now);
                job.check.item(index, body);
                if let Some(records) = &mut job.records {
                    let text = std::str::from_utf8(buf).map_err(|e| e.to_string())?;
                    records.push(qre_json::parse(text).map_err(|e| e.to_string())?);
                }
                continue;
            }
            Record::Stats => {}
            Record::Error => {
                eprintln!("perfbench: job error: {}", String::from_utf8_lossy(buf));
                job.check.job_error();
            }
            Record::Other => {
                return Err(format!(
                    "unexpected record: {}",
                    String::from_utf8_lossy(buf)
                ));
            }
        }
        job.done = Some(Instant::now());
        return Ok(active.swap_remove(k));
    }
}

/// `warm-sweep-tcp`: ~10k logical-counts items cut into shard jobs, sent
/// over loopback by two closed-loop connections to `qre serve --listen`,
/// whose store was loaded from a snapshot of the same matrix.
pub fn warm_sweep_tcp(qre: &Path, work: &Path, seed: u64, seconds: f64) -> Result<Run, String> {
    let matrix = Matrix::new(seed);
    let (engine, store) = fresh_engine();
    let reference = Reference::build(&engine, &matrix.submission())?;
    let snapshot = work.join("warm-sweep-tcp.snapshot.json");
    store.save(&snapshot)?;
    let snapshot_arg = snapshot.to_str().ok_or("non-UTF-8 work path")?;
    // Saves only at shutdown: the run measures serving, not persistence.
    let args = ["--cache-file", snapshot_arg, "--save-every", "0"];

    let mut run = Run::default();
    for _ in 0..SETUP_SAMPLES {
        let (server, _) = Server::listen(qre, &args)?;
        run.setup_s.push(server.setup.as_secs_f64());
        server.kill()?;
    }
    let (server, addr) = Server::listen(qre, &args)?;
    run.setup_s.push(server.setup.as_secs_f64());

    let next_job = AtomicUsize::new(0);
    let barrier = Barrier::new(3);
    let deadline = Duration::from_secs_f64(seconds);
    let finished = Mutex::new((Vec::new(), Vec::new()));
    let client = || -> Result<(), String> {
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        let mut buf = Vec::new();
        // The session's hello record: the server has admitted us.
        read_record(&mut reader, &mut buf)?;
        let mut send = || -> Result<Active, String> {
            let n = next_job.fetch_add(1, Ordering::Relaxed);
            let shard = n % SHARDS;
            let range = Shard::new(shard, SHARDS)
                .map_err(|e| e.to_string())?
                .range(matrix.items);
            let id = format!("w{n}");
            let line = matrix.job_line(&id, Some((shard, SHARDS)));
            let job = Active::new(
                id,
                JobCheck::new(range.clone(), reference.digest(range)),
                false,
            );
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            Ok(job)
        };
        // Keep PER_CONNECTION jobs in flight until `phase` has passed, then
        // drain.
        let mut run_phase = |phase: Duration, done: &mut Vec<Active>| -> Result<(), String> {
            let start = Instant::now();
            let mut active = Vec::new();
            loop {
                while active.len() < PER_CONNECTION && start.elapsed() < phase {
                    active.push(send()?);
                }
                if active.is_empty() {
                    return Ok(());
                }
                done.push(next_done(&mut reader, &mut buf, &mut active)?);
            }
        };
        let mut warmup = Vec::new();
        run_phase(WARMUP, &mut warmup)?;
        barrier.wait();
        let mut jobs = Vec::new();
        run_phase(deadline, &mut jobs)?;
        writer
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
        // The session's bye record, then EOF.
        while read_record(&mut reader, &mut buf)? {}
        let mut finished = finished.lock().expect("job list lock");
        finished.0.extend(warmup);
        finished.1.extend(jobs);
        Ok(())
    };

    let pid = server.pid();
    let (cpu_start, results) = std::thread::scope(|scope| {
        let clients = [scope.spawn(client), scope.spawn(client)];
        // Both clients are warmed up and idle once the barrier opens.
        let cpu_start = cpu_seconds(pid);
        barrier.wait();
        let results: Vec<Result<(), String>> = clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (cpu_start, results)
    });
    let cpu_end = cpu_seconds(pid);
    let hwm = peak_rss_mib(pid);
    server.shutdown()?;
    for r in results {
        r?;
    }
    let (warmup, jobs) = finished.into_inner().expect("job list lock");
    let first_sent = jobs.iter().map(|j| j.sent).min().ok_or("no job ran")?;
    let last_done = jobs
        .iter()
        .filter_map(|j| j.done)
        .max()
        .ok_or("no job ran")?;
    run.window = last_done - first_sent;
    run.server_cpu_s = cpu_end? - cpu_start?;
    run.peak_rss_mib.push(hwm?);
    for job in warmup {
        job.finish(&mut run, false);
    }
    for job in jobs {
        job.finish(&mut run, true);
    }
    Ok(run)
}

/// The design-store cap of the cold workload: half the matrix's distinct
/// designs, so inserts past the cap evict.
pub fn cold_cap(distinct_designs: usize) -> usize {
    (distinct_designs / 2).max(1)
}

/// The seed of the cold matrix, distinct from the warm one for the same
/// `--seed`.
pub fn cold_seed(seed: u64) -> u64 {
    seed ^ 0xc01d_5eed_c01d_5eed
}

/// `cold-sweep-capped`: the same matrix shape from another seed, as one
/// job per fresh pipe session (`qre serve --cache-cap N`, empty store,
/// N = half the distinct designs), repeated until the time is up.
pub fn cold_sweep_capped(qre: &Path, seed: u64, seconds: f64) -> Result<Run, String> {
    let matrix = Matrix::new(cold_seed(seed));
    let (engine, store) = fresh_engine();
    let reference = Reference::build(&engine, &matrix.submission())?;
    let cap = cold_cap(store.stats().entries).to_string();
    let expected = reference.digest(0..matrix.items);

    let mut run = Run::default();
    let start = Instant::now();
    let mut n = 0usize;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        let (server, mut session) = Server::pipe(qre, &["--cache-cap", &cap])?;
        run.setup_s.push(server.setup.as_secs_f64());
        let cpu_start = cpu_seconds(server.pid())?;
        let id = format!("c{n}");
        let line = matrix.job_line(&id, None);
        let mut active = vec![Active::new(
            id,
            JobCheck::new(0..matrix.items, expected),
            false,
        )];
        session.send(&line)?;
        let job = next_done(&mut session.stdout, &mut Vec::new(), &mut active)?;
        run.window += job.done.expect("finished job") - job.sent;
        run.server_cpu_s += cpu_seconds(server.pid())? - cpu_start;
        run.peak_rss_mib.push(peak_rss_mib(server.pid())?);
        job.finish(&mut run, true);
        session.close();
        session.drain();
        server.wait()?;
        n += 1;
    }
    Ok(run)
}

/// Direct `multiplication_counts` results for every entry of the paper
/// jobs, computed on two threads.
fn direct_counts(
    entries: &[(MulAlgorithm, usize)],
) -> HashMap<(MulAlgorithm, usize), LogicalCounts> {
    let mut distinct: Vec<(MulAlgorithm, usize)> = entries.to_vec();
    distinct.sort_by_key(|&(a, b)| (b, a.name()));
    distinct.dedup();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(alg, bits)) = distinct.get(i) else {
                    break;
                };
                let counts = qre_arith::multiplication_counts(alg, bits);
                out.lock().expect("counts lock").insert((alg, bits), counts);
            });
        }
    });
    out.into_inner().expect("counts lock")
}

/// `paper-multipliers`: the paper's Fig. 3 and Fig. 4 job lines, sent
/// together to one pipe session, round after round.
pub fn paper_multipliers(qre: &Path, seed: u64, seconds: f64) -> Result<Run, String> {
    let jobs = paper_jobs(seed);
    let entries: Vec<(MulAlgorithm, usize)> = jobs
        .iter()
        .flat_map(|j| j.entries.iter().copied())
        .collect();
    let (references, direct) = std::thread::scope(|scope| {
        let direct = scope.spawn(|| direct_counts(&entries));
        let bodies: Vec<&str> = jobs.iter().map(|j| j.body.as_str()).collect();
        let references = Reference::build_all(&fresh_engine().1, &bodies);
        (references, direct.join().expect("counting thread"))
    });
    let references = references?;
    let lookup = |alg: MulAlgorithm, bits: usize| direct.get(&(alg, bits)).copied();

    let mut run = Run::default();
    for _ in 0..SETUP_SAMPLES {
        let (server, mut session) = Server::pipe(qre, &[])?;
        run.setup_s.push(server.setup.as_secs_f64());
        session.close();
        session.drain();
        server.wait()?;
    }
    let (server, mut session) = Server::pipe(qre, &[])?;
    run.setup_s.push(server.setup.as_secs_f64());
    let mut cpu_start = 0.0;
    let mut start = Instant::now();
    let mut buf = Vec::new();
    // Round 0 warms the server up (its first lookups search); the
    // measured rounds follow it.
    let mut round = 0usize;
    while round <= 1 || start.elapsed().as_secs_f64() < seconds {
        let timed = round > 0;
        if round == 1 {
            cpu_start = cpu_seconds(server.pid())?;
            start = Instant::now();
        }
        let mut active: Vec<Active> = jobs
            .iter()
            .zip(&references)
            .map(|(job, reference)| {
                let n = reference.hashes.len();
                Active::new(
                    format!("p{round}-{}", job.name),
                    JobCheck::new(0..n, reference.digest(0..n)),
                    true,
                )
            })
            .collect();
        for (job, a) in jobs.iter().zip(&mut active) {
            a.sent = Instant::now();
            session.send(&job.job_line(&a.id))?;
        }
        let round_start = active[0].sent;
        let mut finished = Vec::new();
        while !active.is_empty() {
            finished.push(next_done(&mut session.stdout, &mut buf, &mut active)?);
        }
        if timed {
            run.window +=
                finished.last().and_then(|a| a.done).expect("finished jobs") - round_start;
        }
        for job in finished {
            let records = job.finish(&mut run, timed).unwrap_or_default();
            let wrong = paper_counts_mismatches(&records, &lookup);
            if wrong > 0 {
                eprintln!(
                    "perfbench: {wrong} served record(s) disagree with multiplication_counts"
                );
                run.failed += records.len();
            }
        }
        round += 1;
    }
    run.server_cpu_s = cpu_seconds(server.pid())? - cpu_start;
    run.peak_rss_mib.push(peak_rss_mib(server.pid())?);
    session.close();
    session.drain();
    server.wait()?;
    Ok(run)
}

impl Run {
    /// The end-to-end metrics, by name, with their units.
    pub fn metrics(&self) -> Vec<Metric> {
        let items = self.items.max(1) as f64;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "items_per_s",
                self.items as f64 / self.window.as_secs_f64(),
                "items/s",
            ),
            m("first_record_ms", median(&self.first_record_ms), "ms"),
            m("job_p50_ms", median(&self.job_ms), "ms"),
            m(
                "server_cpu_us_per_item",
                self.server_cpu_s * 1e6 / items,
                "us",
            ),
            m("peak_rss_mb", median(&self.peak_rss_mib), "MiB"),
            m("setup_s", median(&self.setup_s), "s"),
        ]
    }
}
