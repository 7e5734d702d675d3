//! The traced run: the workload's inputs pushed through each layer's
//! public functions in-process, under the span recorder, at the cache
//! state the end-to-end workload runs at.
//!
//! Layers, in pipeline order: counting (`qre-arith` into `qre-circuit`'s
//! tracer) → parse (`qre_json::parse`, `qre_cli::parse_submission_value`)
//! → engine (`Estimator::sweep_stream`) → record (`EstimationResult::
//! to_json` plus the axis fields) → encode (`Value::to_string_compact`) →
//! session writer (`qre_cli::run_session`) → socket (`qre_cli::
//! listen_serve` on loopback), plus the design store (`FactoryCache`) and
//! its snapshot file. Sessions run closed loop like the end-to-end
//! clients: a round of job lines, then wait for their `stats` records.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qre_arith::{emit_multiplication, multiplication_counts, MulAlgorithm, MulWorkloadConfig};
use qre_circuit::{Builder, CountingTracer, Gate, LogicalCounts, QubitId, Sink, TeeSink};
use qre_cli::{ServeOptions, ServeShared, SessionConfig, SubmissionKind};
use qre_core::{Estimator, FactoryCache, Shard, SweepOutcome, SweepSpec};
use qre_json::{ObjectBuilder, Value};

use crate::check::{classify, JobCheck, Record, Reference};
use crate::e2e::{cold_cap, cold_seed};
use crate::gen::{paper_jobs, Matrix, SHARDS};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::{Metric, Workload};

/// How the design store starts for every pass of a workload.
enum StoreState {
    /// Loaded from a snapshot file (every lookup of the workload hits).
    Snapshot(PathBuf),
    /// Empty, with a capacity bound.
    Capped(usize),
}

impl StoreState {
    fn store(&self) -> Result<Arc<FactoryCache>, String> {
        match self {
            StoreState::Snapshot(path) => {
                let store = FactoryCache::new();
                store.load(path)?;
                Ok(Arc::new(store))
            }
            StoreState::Capped(cap) => Ok(Arc::new(FactoryCache::with_capacity(*cap))),
        }
    }

    fn serve_options(&self) -> ServeOptions {
        let mut options = ServeOptions {
            save_every: 0,
            ..ServeOptions::default()
        };
        match self {
            StoreState::Snapshot(path) => options.cache_file = Some(path.clone()),
            StoreState::Capped(cap) => options.cache_capacity = Some(*cap),
        }
        options
    }
}

/// One serve job line with what its output must be.
struct Job {
    id: String,
    line: String,
    shard: Option<(usize, usize)>,
    range: Range<usize>,
    expected: u64,
}

/// A workload's inputs: job lines grouped into closed-loop rounds.
struct Plan {
    jobs: Vec<Job>,
    /// Jobs per round, in order; a round's lines are sent together.
    rounds: Vec<usize>,
    state: StoreState,
}

impl Plan {
    fn items(&self) -> usize {
        self.jobs.iter().map(|j| j.range.len()).sum()
    }

    fn new(workload: Workload, work: &Path, seed: u64) -> Result<Plan, String> {
        match workload {
            Workload::WarmSweepTcp => {
                let matrix = Matrix::new(seed);
                let store = Arc::new(FactoryCache::new());
                let reference = Reference::build(
                    &Estimator::with_cache(Arc::clone(&store)),
                    &matrix.submission(),
                )?;
                let path = work.join("ledger-warm.snapshot.json");
                store.save(&path)?;
                let jobs = (0..SHARDS)
                    .map(|shard| {
                        let id = format!("t{shard}");
                        let range = Shard::new(shard, SHARDS)
                            .expect("valid shard")
                            .range(matrix.items);
                        Job {
                            line: matrix.job_line(&id, Some((shard, SHARDS))),
                            id,
                            shard: Some((shard, SHARDS)),
                            expected: reference.digest(range.clone()),
                            range,
                        }
                    })
                    .collect();
                Ok(Plan {
                    jobs,
                    rounds: vec![1; SHARDS],
                    state: StoreState::Snapshot(path),
                })
            }
            Workload::ColdSweepCapped => {
                let matrix = Matrix::new(cold_seed(seed));
                let store = Arc::new(FactoryCache::new());
                let reference = Reference::build(
                    &Estimator::with_cache(Arc::clone(&store)),
                    &matrix.submission(),
                )?;
                let cap = cold_cap(store.stats().entries);
                Ok(Plan {
                    jobs: vec![Job {
                        id: "t0".into(),
                        line: matrix.job_line("t0", None),
                        shard: None,
                        range: 0..matrix.items,
                        expected: reference.digest(0..matrix.items),
                    }],
                    rounds: vec![1],
                    state: StoreState::Capped(cap),
                })
            }
            Workload::PaperMultipliers => {
                let store = Arc::new(FactoryCache::new());
                let paper = paper_jobs(seed);
                let bodies: Vec<&str> = paper.iter().map(|j| j.body.as_str()).collect();
                let references = Reference::build_all(&store, &bodies)?;
                let path = work.join("ledger-paper.snapshot.json");
                store.save(&path)?;
                let jobs = paper
                    .iter()
                    .zip(references)
                    .map(|(job, reference)| {
                        let id = format!("t-{}", job.name);
                        let range = 0..reference.hashes.len();
                        Job {
                            line: job.job_line(&id),
                            id,
                            shard: None,
                            expected: reference.digest(range.clone()),
                            range,
                        }
                    })
                    .collect();
                Ok(Plan {
                    jobs,
                    rounds: vec![2],
                    state: StoreState::Snapshot(path),
                })
            }
        }
    }
}

/// A `Sink` that counts gate events, teed next to the counting tracer.
#[derive(Default)]
struct GateCounter(u64);

impl Sink for GateCounter {
    fn on_allocate(&mut self, _q: QubitId) {}
    fn on_release(&mut self, _q: QubitId) {}
    fn on_gate(&mut self, _gate: Gate, _qubits: &[QubitId]) {
        self.0 += 1;
    }
}

fn multiplication_entry(entry: &Value) -> Option<(MulAlgorithm, usize)> {
    let m = entry.get("multiplication")?;
    let name = m.get("algorithm")?.as_str()?;
    let alg = MulAlgorithm::ALL.into_iter().find(|a| a.name() == name)?;
    Some((alg, usize::try_from(m.get("bits")?.as_u64()?).ok()?))
}

/// The counting layer: an algorithm entry to its logical counts.
fn count_entry(entry: &Value) -> Result<LogicalCounts, String> {
    if let Some((alg, bits)) = multiplication_entry(entry) {
        Ok(multiplication_counts(alg, bits))
    } else if let Some(counts) = entry.get("logicalCounts") {
        LogicalCounts::from_json(counts)
    } else {
        Err("unsupported algorithm entry".into())
    }
}

/// The submission without its serve envelope (`id`, `shard`), with every
/// algorithm entry replaced by its counts.
fn counted_submission(doc: Value, counted: &[LogicalCounts]) -> Result<Value, String> {
    let Value::Object(mut fields) = doc else {
        return Err("job line is not an object".into());
    };
    fields.retain(|(key, _)| key != "id" && key != "shard");
    let sweep = fields
        .iter_mut()
        .find_map(|(key, value)| (key == "sweep").then_some(value));
    let Some(Value::Object(sweep)) = sweep else {
        return Err("job line without a sweep object".into());
    };
    let algorithms = counted
        .iter()
        .map(|c| {
            ObjectBuilder::new()
                .field("logicalCounts", c.to_json())
                .build()
        })
        .collect();
    for (key, value) in sweep.iter_mut() {
        if key == "algorithms" {
            *value = Value::Array(algorithms);
            break;
        }
    }
    Ok(Value::Object(fields))
}

/// The sweep label `qre_cli` gives algorithm entry `index`.
fn workload_label(entry: &Value, index: usize) -> String {
    match entry.get("multiplication") {
        Some(m) => format!(
            "{}/{}",
            m.get("algorithm")
                .and_then(Value::as_str)
                .unwrap_or_default(),
            m.get("bits").and_then(Value::as_u64).unwrap_or_default()
        ),
        None => format!("logicalCounts[{index}]"),
    }
}

/// Gate events the counting layer traces for one pass over `plan`, each
/// multiplier traced once through a `TeeSink` and checked against
/// `multiplication_counts`. Returns (gates, mismatching entries).
fn gates_traced(plan: &Plan) -> Result<(u64, usize), String> {
    let mut gates = 0;
    let mut mismatches = 0;
    let mut seen: Vec<((MulAlgorithm, usize), u64)> = Vec::new();
    for job in &plan.jobs {
        let doc = qre_json::parse(job.line.trim_end()).map_err(|e| e.to_string())?;
        let entries = algorithm_entries(&doc)?;
        for (alg, bits) in entries.iter().filter_map(multiplication_entry) {
            if let Some((_, g)) = seen.iter().find(|(k, _)| *k == (alg, bits)) {
                gates += g;
                continue;
            }
            let mut builder =
                Builder::new(TeeSink::new(CountingTracer::new(), GateCounter::default()));
            emit_multiplication(&mut builder, alg, bits, MulWorkloadConfig::default());
            let sink = builder.into_sink();
            if sink.first.counts() != multiplication_counts(alg, bits) {
                mismatches += 1;
            }
            seen.push(((alg, bits), sink.second.0));
            gates += sink.second.0;
        }
    }
    Ok((gates, mismatches))
}

fn algorithm_entries(doc: &Value) -> Result<Vec<Value>, String> {
    doc.get("sweep")
        .and_then(|s| s.get("algorithms"))
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| "job line without sweep algorithms".into())
}

/// A serve sweep-item record, built the way the session builds it: the
/// job envelope, the axis fields, then the result.
fn item_record(id: &str, o: &SweepOutcome) -> Value {
    let c = &o.point.constraints;
    let constraints = ObjectBuilder::new()
        .field_opt("logicalDepthFactor", c.logical_depth_factor)
        .field_opt("maxTFactories", c.max_t_factories)
        .field_opt("maxDurationNs", c.max_duration_ns)
        .field_opt("maxPhysicalQubits", c.max_physical_qubits)
        .build();
    let base = ObjectBuilder::new()
        .field("job", id)
        .field("index", o.point.index as u64)
        .field("workload", o.point.workload.as_str())
        .field("profile", o.point.profile.as_str())
        .field("qecScheme", o.point.scheme.as_str())
        .field("errorBudget", o.point.budget.total())
        .field("constraints", constraints);
    match &o.outcome {
        Ok(result) => base
            .field("status", "success")
            .field("result", result.to_json())
            .build(),
        Err(e) => base
            .field("status", "error")
            .field("message", e.to_string())
            .build(),
    }
}

/// Verdicts over checked outputs.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Check NDJSON serve output `lines` against `jobs`.
    fn serve_output<'a>(&mut self, jobs: &[Job], lines: impl Iterator<Item = &'a [u8]>) {
        let mut checks: Vec<JobCheck> = jobs
            .iter()
            .map(|j| JobCheck::new(j.range.clone(), j.expected))
            .collect();
        for line in lines {
            let (id, record) = classify(line);
            let Some(k) = jobs.iter().position(|j| j.id.as_bytes() == id) else {
                continue;
            };
            match record {
                Record::Item { index, body } => checks[k].item(index, body),
                Record::Error => checks[k].job_error(),
                Record::Stats | Record::Other => {}
            }
        }
        for check in checks {
            self.attempted += check.attempted();
            self.failed += check.failed();
        }
    }
}

/// Layer totals of one decomposed pass.
#[derive(Default)]
struct Pass {
    wall: Duration,
    parse: Duration,
    parse_json: Duration,
    counting: Duration,
    engine: Duration,
    record: Duration,
    encode: Duration,
    job: Duration,
    first_outcome: Vec<Duration>,
    items: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    searches: u64,
    nodes_expanded: u64,
    specs: Vec<SweepSpec>,
}

fn set_threads(threads: usize) {
    std::env::set_var("QRE_THREADS", threads.to_string());
}

/// Push every job of `plan` through parse → counting → engine → record →
/// encode on this thread (the engine fans out to `threads` workers), from
/// a fresh store in the workload's state.
fn decompose(
    plan: &Plan,
    threads: usize,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Pass, String> {
    set_threads(threads);
    let store = plan.state.store()?;
    let mut pass = Pass::default();
    let start = Instant::now();
    for (k, job) in plan.jobs.iter().enumerate() {
        let n = k as u64;
        let root = spans.open("job", SpanId::NONE, n);
        let doc = spans
            .time("parse.json", root, n, || {
                qre_json::parse(job.line.trim_end())
            })
            .map_err(|e| e.to_string())?;
        let entries = algorithm_entries(&doc)?;
        // Count first and hand the submission parser the counts: given
        // multiplier entries, `parse_submission_value` would run the tracer
        // inside the parse span.
        let counted = spans.time("counting", root, n, || {
            entries
                .iter()
                .map(count_entry)
                .collect::<Result<Vec<_>, String>>()
        })?;
        let doc = counted_submission(doc, &counted)?;
        let submission = spans.time("parse.submission", root, n, || {
            qre_cli::parse_submission_value(&doc)
        })?;
        let SubmissionKind::Sweep(mut spec) = submission.kind else {
            return Err("job line is not a sweep".into());
        };
        for (i, (label, _)) in spec.workloads.iter_mut().enumerate() {
            *label = workload_label(&entries[i], i);
        }
        let spec = match job.shard {
            Some((index, count)) => spec.shard_of(index, count).map_err(|e| e.to_string())?,
            None => *spec,
        };

        let engine = Estimator::with_cache(Arc::new(store.scoped()));
        let span = spans.open("engine", root, n);
        let started = Instant::now();
        let mut stream = engine.sweep_stream(&spec).map_err(|e| e.to_string())?;
        let mut outcomes = Vec::with_capacity(spec.len());
        if let Some(first) = stream.next() {
            pass.first_outcome.push(started.elapsed());
            outcomes.push(first);
        }
        outcomes.extend(stream);
        spans.close(span);
        let records: Vec<Value> = spans.time("record", root, n, || {
            outcomes.iter().map(|o| item_record(&job.id, o)).collect()
        });
        let encoded: Vec<String> = spans.time("encode", root, n, || {
            records.iter().map(Value::to_string_compact).collect()
        });
        spans.close(root);

        pass.items += outcomes.len();
        pass.bytes += encoded.iter().map(String::len).sum::<usize>();
        let cache = engine.cache_stats();
        pass.hits += cache.hits;
        pass.misses += cache.misses;
        let search = engine.search_stats();
        pass.searches += search.searches;
        pass.nodes_expanded += search.totals.nodes_expanded;
        tally.serve_output(
            std::slice::from_ref(job),
            encoded.iter().map(String::as_bytes),
        );
        pass.specs.push(spec);
    }
    pass.wall = start.elapsed();
    pass.evictions = store.stats().evictions;
    pass.parse_json = spans.total("parse.json");
    pass.parse = pass.parse_json + spans.total("parse.submission");
    pass.counting = spans.total("counting");
    pass.engine = spans.total("engine");
    pass.record = spans.total("record");
    pass.encode = spans.total("encode");
    pass.job = spans.total("job");
    Ok(pass)
}

/// Session input that hands out one round of job lines at a time, and the
/// next round only after the writer has seen every job of the current one
/// end: the closed loop of the end-to-end clients.
struct RoundInput {
    rounds: Vec<(Vec<u8>, usize)>,
    round: usize,
    pos: usize,
    ended: Receiver<()>,
}

impl Read for RoundInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let Some((bytes, jobs)) = self.rounds.get(self.round) else {
                return Ok(0);
            };
            if self.pos < bytes.len() {
                let n = buf.len().min(bytes.len() - self.pos);
                buf[..n].copy_from_slice(&bytes[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            for _ in 0..*jobs {
                self.ended
                    .recv_timeout(Duration::from_secs(60))
                    .map_err(|_| std::io::Error::other("a job of the round never ended"))?;
            }
            self.round += 1;
            self.pos = 0;
        }
    }
}

/// The session's output: kept in memory, with its `write` and `flush`
/// calls counted, signalling each job's terminal record to the input.
struct CountingWriter {
    out: Vec<u8>,
    writes: usize,
    flushes: usize,
    line_start: usize,
    ended: Sender<()>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.out.extend_from_slice(buf);
        while let Some(nl) = self.out[self.line_start..].iter().position(|&b| b == b'\n') {
            let end = self.line_start + nl;
            if matches!(
                classify(&self.out[self.line_start..end]).1,
                Record::Stats | Record::Error
            ) {
                let _ = self.ended.send(());
            }
            self.line_start = end + 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

fn rounds_of(plan: &Plan) -> Vec<(Vec<u8>, usize)> {
    let mut jobs = plan.jobs.iter();
    plan.rounds
        .iter()
        .map(|&n| {
            let bytes: Vec<u8> = jobs.by_ref().take(n).flat_map(|j| j.line.bytes()).collect();
            (bytes, n)
        })
        .collect()
}

struct SessionRun {
    wall: Duration,
    records: usize,
    writes: usize,
    flushes: usize,
}

/// The pipe session engine over in-memory I/O.
fn session(plan: &Plan, tally: &mut Tally) -> Result<SessionRun, String> {
    set_threads(2);
    let shared = ServeShared::new(&plan.state.serve_options());
    let (tx, rx) = channel();
    let input = RoundInput {
        rounds: rounds_of(plan),
        round: 0,
        pos: 0,
        ended: rx,
    };
    let mut writer = CountingWriter {
        out: Vec::new(),
        writes: 0,
        flushes: 0,
        line_start: 0,
        ended: tx,
    };
    let start = Instant::now();
    qre_cli::run_session(
        &shared,
        &SessionConfig::default(),
        BufReader::new(input),
        &mut writer,
    )?;
    let wall = start.elapsed();
    let lines: Vec<&[u8]> = writer
        .out
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    tally.serve_output(&plan.jobs, lines.iter().copied());
    Ok(SessionRun {
        wall,
        records: lines.len(),
        writes: writer.writes,
        flushes: writer.flushes,
    })
}

/// Counts the bytes read through it.
struct CountingRead<R> {
    inner: R,
    bytes: usize,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

/// The same session over loopback TCP through `listen_serve`, one client
/// connection, closed loop. Returns (wall, bytes received).
fn socket(plan: &Plan, tally: &mut Tally) -> Result<(Duration, usize), String> {
    set_threads(2);
    let shared = ServeShared::new(&plan.state.serve_options());
    let (tx, rx) = channel();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            qre_cli::listen_serve(&shared, "127.0.0.1:0", 2, move |addr| {
                let _ = tx.send(addr);
            })
        });
        let client = || -> Result<(Duration, usize, Vec<Vec<u8>>), String> {
            let addr = rx
                .recv_timeout(Duration::from_secs(30))
                .map_err(|_| "listener never bound")?;
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
            let mut reader = BufReader::with_capacity(
                1 << 16,
                CountingRead {
                    inner: stream,
                    bytes: 0,
                },
            );
            let mut lines = Vec::new();
            let mut buf = Vec::new();
            crate::server::read_record(&mut reader, &mut buf)?; // hello
            let start = Instant::now();
            for (bytes, jobs) in rounds_of(plan) {
                writer.write_all(&bytes).map_err(|e| e.to_string())?;
                let mut ended = 0;
                while ended < jobs {
                    if !crate::server::read_record(&mut reader, &mut buf)? {
                        return Err("connection closed with jobs in flight".into());
                    }
                    if matches!(classify(&buf).1, Record::Stats | Record::Error) {
                        ended += 1;
                    }
                    lines.push(buf.clone());
                }
            }
            let wall = start.elapsed();
            let bytes = reader.get_ref().bytes;
            writer
                .shutdown(Shutdown::Write)
                .map_err(|e| e.to_string())?;
            while crate::server::read_record(&mut reader, &mut buf)? {}
            Ok((wall, bytes, lines))
        };
        let result = client();
        shared.shutdown_signal().signal();
        let served = server
            .join()
            .map_err(|_| "listener thread panicked".to_string())?;
        served?;
        let (wall, bytes, lines) = result?;
        tally.serve_output(&plan.jobs, lines.iter().map(Vec::as_slice));
        Ok((wall, bytes))
    })
}

fn median_duration(samples: impl Iterator<Item = Duration>) -> Duration {
    let values: Vec<f64> = samples.map(|d| d.as_secs_f64()).collect();
    Duration::from_secs_f64(median(&values))
}

/// Run the ledger for `workload`, repeating its passes until `seconds`
/// have passed (at least once) and reporting each metric's median over
/// the repetitions; returns (correct, attempted, failed, per-layer
/// metrics).
pub fn run(
    workload: Workload,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let plan = Plan::new(workload, work, seed)?;
    let mut tally = Tally::default();
    let (gates, gate_mismatches) = gates_traced(&plan)?;
    tally.failed += gate_mismatches;

    let start = Instant::now();
    let mut repetitions: Vec<Vec<Metric>> = Vec::new();
    while repetitions.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut traced = Spans::new(true);
        repetitions.push(measure(&plan, work, gates, &mut traced, &mut tally)?);
        traced.write(&work.join(format!("spans-{}.json", workload.name())))?;
    }
    let metrics: Vec<Metric> = (0..repetitions[0].len())
        .map(|i| {
            let values: Vec<f64> = repetitions.iter().map(|r| r[i].value).collect();
            m(
                repetitions[0][i].name,
                median(&values),
                repetitions[0][i].unit,
            )
        })
        .collect();
    println!("medians over {} repetition(s):", repetitions.len());
    for metric in &metrics {
        println!("{:<30} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    Ok((correct, tally.attempted, tally.failed, metrics))
}

/// One repetition of every pass of the ledger; prints its per-item table.
fn measure(
    plan: &Plan,
    work: &Path,
    gates: u64,
    traced: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let t1 = decompose(plan, 1, &mut Spans::new(true), tally)?;
    let t2 = decompose(plan, 2, traced, tally)?;
    let untraced = decompose(plan, 2, &mut Spans::new(false), tally)?;
    let session_run = session(plan, tally)?;
    let (tcp_wall, tcp_bytes) = socket(plan, tally)?;

    // Factory search cost: a cold single-thread engine pass.
    set_threads(1);
    let cold = Estimator::new();
    let cold_start = Instant::now();
    for spec in &t1.specs {
        cold.sweep_with(spec, |_| {}).map_err(|e| e.to_string())?;
    }
    let cold_wall = cold_start.elapsed();
    let cold_searches = cold.search_stats().searches.max(1);

    // The snapshot file of the workload's store, after a pass.
    let store = plan.state.store()?;
    if let StoreState::Capped(_) = plan.state {
        let engine = Estimator::with_cache(Arc::clone(&store));
        for spec in &t1.specs {
            engine.sweep_with(spec, |_| {}).map_err(|e| e.to_string())?;
        }
    }
    let snapshot = work.join("ledger-roundtrip.snapshot.json");
    let mut saves = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        store.save(&snapshot)?;
        saves.push(start.elapsed());
        let start = Instant::now();
        FactoryCache::new().load(&snapshot)?;
        loads.push(start.elapsed());
    }
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();

    let items = plan.items() as f64;
    let jobs = plan.jobs.len() as f64;
    let per_item = |d: Duration| d.as_nanos() as f64 / items;
    let layers = per_item(t2.counting + t2.parse + t2.engine + t2.record + t2.encode);
    let session_ns = per_item(session_run.wall);
    let residual = session_ns - layers;
    let socket_ns = per_item(tcp_wall) - session_ns;
    let engine_t1 = per_item(t1.engine);
    let engine_t2 = per_item(t2.engine);
    let lookups = (t2.hits + t2.misses).max(1) as f64;

    println!(
        "per-item ledger at matched cache state, 2 engine threads ({} items, {} jobs):",
        items, jobs
    );
    for (name, ns) in [
        ("counting", per_item(t2.counting)),
        ("parse", per_item(t2.parse)),
        ("engine", engine_t2),
        ("record", per_item(t2.record)),
        ("encode", per_item(t2.encode)),
        ("session residual", residual),
        ("socket", socket_ns),
    ] {
        println!("  {name:<26} {ns:>14.1} ns/item");
    }
    println!(
        "  {:<26} {:>14.1} ns/item (in-process TCP, closed loop)",
        "= sum",
        per_item(tcp_wall)
    );
    println!("self time by span (ns): {:?}", traced.self_times());

    Ok(vec![
        m("counting.busy_ms", t2.counting.as_secs_f64() * 1e3, "ms"),
        m("counting.gates_traced", gates as f64, "count"),
        m(
            "counting.ns_per_gate",
            t2.counting.as_nanos() as f64 / gates.max(1) as f64,
            "ns",
        ),
        m(
            "counting.share_of_job",
            t2.counting.as_secs_f64() / t2.job.as_secs_f64(),
            "ratio",
        ),
        m(
            "parse.us_per_job",
            t2.parse.as_secs_f64() * 1e6 / jobs,
            "us",
        ),
        m(
            "parse.ns_per_byte",
            t2.parse_json.as_nanos() as f64
                / plan.jobs.iter().map(|j| j.line.len()).sum::<usize>() as f64,
            "ns",
        ),
        m("engine.ns_per_item.t1", engine_t1, "ns"),
        m("engine.ns_per_item.t2", engine_t2, "ns"),
        m("engine.scaling_t2_over_t1", engine_t1 / engine_t2, "ratio"),
        m(
            "engine.first_outcome_us",
            median_duration(t2.first_outcome.iter().copied()).as_secs_f64() * 1e6,
            "us",
        ),
        m("cache.hits", t2.hits as f64, "count"),
        m("cache.misses", t2.misses as f64, "count"),
        m("cache.hit_ratio", t2.hits as f64 / lookups, "ratio"),
        m("cache.evictions", t2.evictions as f64, "count"),
        m("tfactory.searches", t2.searches as f64, "count"),
        m("tfactory.nodes_expanded", t2.nodes_expanded as f64, "count"),
        m(
            "tfactory.us_per_search",
            cold_wall.as_secs_f64() * 1e6 / cold_searches as f64,
            "us",
        ),
        m("record.ns_per_item", per_item(t2.record), "ns"),
        m("encode.ns_per_item", per_item(t2.encode), "ns"),
        m(
            "encode.bytes_per_record",
            t2.bytes as f64 / t2.items.max(1) as f64,
            "bytes",
        ),
        m("session.ns_per_item", session_ns, "ns"),
        m("session.residual_ns_per_item", residual, "ns"),
        m(
            "session.writes_per_record",
            session_run.writes as f64 / session_run.records.max(1) as f64,
            "1/record",
        ),
        m(
            "session.flushes_per_record",
            session_run.flushes as f64 / session_run.records.max(1) as f64,
            "1/record",
        ),
        m("socket.ns_per_item", socket_ns, "ns"),
        m("socket.bytes_per_item", tcp_bytes as f64 / items, "bytes"),
        m(
            "snapshot.load_ms",
            median_duration(loads.into_iter()).as_secs_f64() * 1e3,
            "ms",
        ),
        m(
            "snapshot.save_ms",
            median_duration(saves.into_iter()).as_secs_f64() * 1e3,
            "ms",
        ),
        m("snapshot.bytes", snapshot_bytes as f64, "bytes"),
        m(
            "trace.overhead_share",
            (t2.wall.as_secs_f64() - untraced.wall.as_secs_f64()) / untraced.wall.as_secs_f64(),
            "ratio",
        ),
    ])
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
