//! # qre-cli
//!
//! The job-spec layer behind the `qre` command-line tool: a local stand-in
//! for the cloud estimation target of paper Section IV-A ("the tool will act
//! like a cloud target to which one can submit a resource estimation job").
//!
//! A job is a JSON document:
//!
//! ```json
//! {
//!   "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000 } },
//!   "qubitParams": { "name": "qubit_maj_ns_e4" },
//!   "qecScheme": { "name": "floquet_code" },
//!   "errorBudget": 1e-4,
//!   "constraints": { "maxTFactories": 4 },
//!   "estimateType": "single"
//! }
//! ```
//!
//! Algorithms can be given as logical counts (Section IV-B.3), inline
//! QIR-lite text (Section IV-B.2), or a built-in multiplication workload
//! (Section V). Hardware profiles are the six defaults, optionally with
//! field overrides. `errorBudget` is a total (split into even thirds) or an
//! explicit partition object `{"logical": ..., "tStates": ...,
//! "rotations": ...}`. `estimateType` is `"single"` (default) or
//! `"frontier"`; frontier jobs may add `"searchBudgetPartition": true` to
//! search the error-budget split alongside the factory-count cap (each
//! frontier point then reports the partition that produced it).
//!
//! Beyond single jobs, a submission can be a **batch** (`{"items": [job,
//! ...]}`, the service's job arrays) or a **sweep** declaring axes whose
//! cartesian product the engine expands:
//!
//! ```json
//! {
//!   "sweep": {
//!     "algorithms": [ { "multiplication": { "algorithm": "windowed", "bits": 2048 } } ],
//!     "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
//!     "qecSchemes": [ { "name": "default" } ],
//!     "errorBudgets": [ 1e-4 ],
//!     "constraints": [ {} ]
//!   }
//! }
//! ```
//!
//! Batches and sweeps execute in parallel through one [`qre_core::Estimator`]
//! engine (shared T-factory cache); failing items report their error in
//! place instead of failing the submission. Unknown top-level fields are
//! rejected with an error naming the field and the accepted set, so typos
//! like `"errorBudgets"` in a single job never pass silently.
//!
//! Any submission may set top-level `"stream": true` to emit **NDJSON**
//! instead of one monolithic document ([`run_submission_streamed_via`]): one
//! JSON object per finished item, written in completion order as workers
//! finish (each record carries its `index` in submission/expansion order),
//! interleaved with periodic `{"progress": k, "total": n}` records — the
//! right shape for the paper's large Fig. 3/4-scale sweeps where waiting on
//! the slowest item before printing anything wastes the session.
//!
//! Beyond one-shot submissions, [`serve()`] runs a **long-lived job server**:
//! one JSON job per input line, completion-order NDJSON records out, a
//! process-wide factory cache kept warm across jobs — optionally bounded
//! ([`ServeOptions::cache_capacity`]) and persisted to a snapshot file
//! between sessions ([`ServeOptions::cache_file`]) — and per-job `"shard"`
//! fields so several server processes can split one sweep deterministically
//! (`crates/cli/src/serve.rs` documents the line protocol). The shard
//! sessions' output files are re-joined by [`merge_files`] (the `qre merge`
//! verb), which validates that the union covers the sweep exactly.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod merge;
mod net_serve;
mod serve;
mod stress;

pub use merge::{merge_files, merge_shard_records, MergeSummary};
pub use net_serve::{listen_serve, ListenSummary};
pub use serve::{run_session, serve, ServeOptions, ServeShared, ServeSummary, SessionConfig};
pub use stress::{stress_job_line, stress_spec, write_stress_jobs, StressShape, StressSummary};

use std::io::Write;

use qre_arith::MulAlgorithm;
use qre_circuit::{qir, LogicalCounts};
use qre_core::{
    Constraints, ErrorBudget, EstimateRequest, EstimationResult, Estimator, FrontierPoint,
    PartitionSearch, PhysicalQubit, QecSchemeKind, SweepOutcome, SweepScheme, SweepSpec,
    SweepStream,
};
use qre_json::{Value, Writer};

/// Parsed job specification.
#[derive(Debug)]
pub struct JobSpec {
    /// The assembled estimation request.
    pub request: EstimateRequest,
    /// Whether to produce a frontier instead of a single estimate.
    pub frontier: bool,
    /// Whether the frontier also searches the error-budget partition
    /// (`"searchBudgetPartition": true`): the default
    /// [`PartitionSearch`] grid is crossed with the factory-cap axis.
    pub search_partition: bool,
}

/// A parsed submission: its payload plus delivery options.
#[derive(Debug)]
pub struct Submission {
    /// Emit NDJSON records in completion order (top-level `"stream": true`)
    /// instead of one collecting JSON document.
    pub stream: bool,
    /// The submission's payload.
    pub kind: SubmissionKind,
}

/// Submission payload: a single job, a batch (`{"items": [job, ...]}`)
/// mirroring the service's job-array submissions, or a declared sweep
/// (`{"sweep": {...}}`).
#[derive(Debug)]
pub enum SubmissionKind {
    /// One job.
    Single(Box<JobSpec>),
    /// A batch of independent jobs, executed in parallel with outcomes in
    /// submission order.
    Batch(Vec<JobSpec>),
    /// A declared cartesian sweep, expanded and executed by the engine.
    Sweep(Box<SweepSpec>),
}

/// Reject unknown object fields, naming the offender and the accepted set.
fn check_fields(v: &Value, context: &str, accepted: &[&str]) -> Result<(), String> {
    let Some(obj) = v.as_object() else {
        return Ok(());
    };
    for (key, _) in obj {
        if !accepted.contains(&key.as_str()) {
            let place = if context.is_empty() {
                String::new()
            } else {
                format!(" in `{context}`")
            };
            return Err(format!(
                "unknown field `{key}`{place}; accepted fields: {}",
                accepted.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parse a submission: a single job object, `{"items": [...]}`, or
/// `{"sweep": {...}}`, each optionally with top-level `"stream": true`.
pub fn parse_submission(text: &str) -> Result<Submission, String> {
    let doc = qre_json::parse(text).map_err(|e| e.to_string())?;
    parse_submission_value(&doc)
}

/// [`parse_submission`] over an already-parsed JSON document — the entry
/// point for callers (like the serve loop) that strip transport-level
/// fields from the document before submission parsing.
pub fn parse_submission_value(doc: &Value) -> Result<Submission, String> {
    let stream = match doc.get("stream") {
        None => false,
        Some(v) => v.as_bool().ok_or("`stream` must be a boolean")?,
    };
    let kind = if let Some(items) = doc.get("items") {
        check_fields(doc, "", &["items", "stream"])?;
        let items = items
            .as_array()
            .ok_or("`items` must be an array of job objects")?;
        if items.is_empty() {
            return Err("`items` must contain at least one job".into());
        }
        let mut jobs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            // `stream` is a submission-level option; inside an item it would
            // validate (JOB_FIELDS accepts it for top-level single jobs) and
            // then be silently ignored — reject it instead.
            if item.get("stream").is_some() {
                return Err(format!(
                    "items[{i}]: `stream` is a submission-level option; set it at the top level"
                ));
            }
            let spec = parse_job_value(item).map_err(|e| format!("items[{i}]: {e}"))?;
            jobs.push(spec);
        }
        SubmissionKind::Batch(jobs)
    } else if let Some(sweep) = doc.get("sweep") {
        check_fields(doc, "", &["sweep", "stream"])?;
        SubmissionKind::Sweep(Box::new(parse_sweep(sweep)?))
    } else {
        SubmissionKind::Single(Box::new(parse_job_value(doc)?))
    };
    Ok(Submission { stream, kind })
}

/// One compact NDJSON record line, newline included: the object whose
/// members `fields` writes. Every streamed and served record is built here,
/// straight from the typed results, so each reaches its output with one
/// `write_all`.
pub(crate) fn record_line(fields: impl FnOnce(&mut Writer)) -> String {
    // Room for a whole result record (about 3 KB), so the buffer is
    // allocated once instead of regrown while the record is written.
    let mut w = Writer::compact().with_capacity(4096);
    w.object(fields);
    let mut line = w.into_string();
    line.push('\n');
    line
}

/// Write one finished sweep item's members — its axis coordinates plus the
/// result or in-place error. Shared by the collecting, streamed, and serve
/// output paths, so a streamed record is field-for-field identical to the
/// matching entry of the monolithic document.
pub(crate) fn write_sweep_item(w: &mut Writer, o: &SweepOutcome) {
    let p = &o.point;
    w.field("index", p.index);
    w.field("workload", &p.workload);
    w.field("profile", &p.profile);
    w.field("qecScheme", &p.scheme);
    w.field("errorBudget", p.budget.total());
    let c = &p.constraints;
    w.key("constraints");
    w.object(|w| {
        w.field_opt("logicalDepthFactor", c.logical_depth_factor);
        w.field_opt("maxTFactories", c.max_t_factories);
        w.field_opt("maxDurationNs", c.max_duration_ns);
        w.field_opt("maxPhysicalQubits", c.max_physical_qubits);
    });
    match &o.outcome {
        Ok(result) => {
            w.field("status", "success");
            w.field("result", result);
        }
        Err(e) => write_error(w, &e.to_string()),
    }
}

/// Write an engine's aggregated pipeline-search counters as the
/// `searchStats` JSON object (the `--search-stats` surface, shared by the
/// one-shot CLI and the serve service).
pub fn write_search_stats(w: &mut Writer, engine: &Estimator) {
    let s = engine.search_stats();
    w.object(|w| {
        w.field("searches", s.searches);
        w.field("seededSearches", s.seeded_searches);
        w.field("nodesExpanded", s.totals.nodes_expanded);
        w.field("nodesPrunedBound", s.totals.nodes_pruned_bound);
        w.field("nodesPrunedDominated", s.totals.nodes_pruned_dominated);
        w.field("memoHits", s.totals.memo_hits);
        w.field("factoriesRealised", s.totals.factories_realised);
    });
}

/// Run a submission through `engine`: a single result object, `{"items":
/// [...]}` for a batch, or `{"estimateType": "sweep", "items": [...]}` for a
/// sweep. Batch and sweep items that fail estimation report their error in
/// place instead of failing the whole submission. Ignores the submission's
/// `stream` flag; callers honouring it use [`run_submission_streamed_via`].
/// The caller keeps the engine's cache and search counters after the run
/// (the `--search-stats` flow) or shares one warm cache across submissions.
///
/// This is [`write_submission_via`]'s compact document parsed back, for
/// callers that inspect the document rather than print it.
pub fn run_submission_via(engine: &Estimator, submission: &Submission) -> Result<Value, String> {
    let mut text = Vec::new();
    write_submission_via(engine, submission, &mut text, true)?;
    let text = std::str::from_utf8(&text).expect("the writer emits UTF-8");
    Ok(qre_json::parse(text).expect("the writer emits valid JSON"))
}

/// Most batch/sweep item results resident while [`write_submission_via`]
/// emits a monolithic document.
///
/// This is the documented memory bound of the non-streamed delivery path:
/// a 10k-item sweep document is *written* as one JSON value, but it is
/// *executed* in chunks of at most this many items — each chunk's results
/// are rendered, flushed into the output, and dropped before the next
/// chunk runs — so resident results never scale with submission size.
/// (The streamed paths are bounded separately and more tightly: the serve
/// session engine and `"stream": true` delivery hold at most
/// [`qre_par::streamed_buffer_bound`] undelivered results plus one
/// in-flight item per worker.)
pub const MONOLITHIC_CHUNK_ITEMS: usize = 512;

/// The writer of a one-shot output document: one line, or pretty-printed.
fn document_writer(compact: bool) -> Writer {
    if compact {
        Writer::compact()
    } else {
        Writer::pretty(0)
    }
}

/// Incremental writer for the monolithic `{..., "items": [...]}` document:
/// one [`Writer`] walks the whole document, and each item's bytes are
/// handed to the output as soon as it is written, so the document never has
/// to exist in memory.
struct ItemsDocWriter<'a> {
    out: &'a mut dyn Write,
    doc: Writer,
    total: usize,
    written: usize,
}

impl<'a> ItemsDocWriter<'a> {
    const IO: fn(std::io::Error) -> String = |e| format!("failed to write submission output: {e}");

    /// Write the document head: the fixed leading fields plus the opening
    /// of the `items` array sized for `total` entries.
    fn open(
        out: &'a mut dyn Write,
        compact: bool,
        head: &[(&str, &str)],
        total: usize,
    ) -> Result<Self, String> {
        let mut doc = document_writer(compact);
        doc.begin_object();
        for (k, v) in head {
            doc.field(k, *v);
        }
        doc.key("items");
        doc.begin_array();
        doc.drain_to(out).map_err(Self::IO)?;
        Ok(ItemsDocWriter {
            out,
            doc,
            total,
            written: 0,
        })
    }

    /// Write one item: the object whose members `fields` writes.
    fn item(&mut self, fields: impl FnOnce(&mut Writer)) -> Result<(), String> {
        self.written += 1;
        self.doc.object(fields);
        self.doc.drain_to(self.out).map_err(Self::IO)
    }

    fn finish(mut self) -> Result<(), String> {
        if self.written != self.total {
            return Err(format!(
                "submission produced {} item(s), expected {}",
                self.written, self.total
            ));
        }
        self.doc.end_array();
        self.doc.end_object();
        let mut tail = self.doc.into_string();
        tail.push('\n');
        self.out.write_all(tail.as_bytes()).map_err(Self::IO)?;
        self.out.flush().map_err(Self::IO)
    }
}

/// Write a submission's monolithic JSON document to `out` — byte-for-byte
/// the pretty (or compact) rendering of [`run_submission_via`]'s value,
/// plus a trailing newline — while executing batches and sweeps in bounded
/// chunks of [`MONOLITHIC_CHUNK_ITEMS`] items.
///
/// This is the delivery path behind plain `qre <job.json>`: the document
/// reaches the consumer as one JSON value, but at no point are more than a
/// chunk's results resident, so a 10k-item non-streamed sweep costs the
/// process a bounded amount of memory instead of the full result set.
/// Chunking cannot change results: estimation is a pure function of each
/// item's coordinates (the shared factory cache only accelerates repeats),
/// so the chunked document is identical to the collected one.
pub fn write_submission_via(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
    compact: bool,
) -> Result<(), String> {
    write_submission_chunked(engine, submission, out, compact, MONOLITHIC_CHUNK_ITEMS)
}

/// [`write_submission_via`] with an explicit chunk size (tests shrink it to
/// force multi-chunk execution on small submissions).
fn write_submission_chunked(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
    compact: bool,
    chunk: usize,
) -> Result<(), String> {
    let chunk = chunk.max(1);
    match &submission.kind {
        SubmissionKind::Single(spec) => {
            // One result: nothing to chunk.
            let output = run_job_via(engine, spec)?;
            let mut doc = document_writer(compact);
            doc.object(|w| output.write_fields(w));
            let mut text = doc.into_string();
            text.push('\n');
            out.write_all(text.as_bytes())
                .and_then(|()| out.flush())
                .map_err(ItemsDocWriter::IO)
        }
        SubmissionKind::Batch(jobs) => {
            let mut doc = ItemsDocWriter::open(out, compact, &[("status", "success")], jobs.len())?;
            for block in jobs.chunks(chunk) {
                for item in qre_par::parallel_map(block, |spec| run_job_via(engine, spec)) {
                    doc.item(|w| write_job_outcome(w, &item))?;
                }
            }
            doc.finish()
        }
        SubmissionKind::Sweep(spec) => {
            let head = [("status", "success"), ("estimateType", "sweep")];
            let total = spec.total_len().map_err(|e| e.to_string())?;
            let blocks = total.div_ceil(chunk).max(1);
            // Run the first block before emitting any output: expansion
            // errors (an empty mandatory axis, or a spec that is already
            // sharded) are spec-global, so they either fail here — with
            // stdout untouched, exactly like the collecting path — or
            // nowhere.
            let first = engine
                .sweep(
                    &spec
                        .clone()
                        .shard_of(0, blocks)
                        .map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?;
            let mut doc = ItemsDocWriter::open(out, compact, &head, total)?;
            for o in &first {
                doc.item(|w| write_sweep_item(w, o))?;
            }
            for i in 1..blocks {
                let block = spec
                    .clone()
                    .shard_of(i, blocks)
                    .map_err(|e| e.to_string())?;
                for o in &engine.sweep(&block).map_err(|e| e.to_string())? {
                    doc.item(|w| write_sweep_item(w, o))?;
                }
            }
            doc.finish()
        }
    }
}

/// Streamed NDJSON writer shared by the batch and sweep paths: one record
/// line per finished item in completion order, a `{"progress": k, "total":
/// n}` line after every `stride` completions, and a final progress line.
struct NdjsonSink<'a> {
    out: &'a mut dyn Write,
    total: usize,
    done: usize,
    stride: usize,
    io_error: Option<std::io::Error>,
}

impl<'a> NdjsonSink<'a> {
    fn new(out: &'a mut dyn Write, total: usize) -> Self {
        NdjsonSink {
            out,
            total,
            done: 0,
            // ~10 progress records per run, at least one per item batch.
            stride: (total / 10).max(1),
            io_error: None,
        }
    }

    fn write_line(&mut self, fields: impl FnOnce(&mut Writer)) {
        if self.io_error.is_some() {
            return;
        }
        // One write per record, newline included (an unbuffered socket
        // would otherwise carry each record in two pieces), and a flush per
        // record: streaming output is only useful if each finished item
        // reaches the consumer (a pipe, a log follower) immediately.
        let line = record_line(fields);
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush())
        {
            self.io_error = Some(e);
        }
    }

    /// Write one item record: the object whose members `fields` writes.
    fn record(&mut self, fields: impl FnOnce(&mut Writer)) {
        self.write_line(fields);
        self.done += 1;
        if self.done.is_multiple_of(self.stride) && self.done != self.total {
            self.progress();
        }
    }

    /// `true` once a write has failed (e.g. the consumer closed the pipe);
    /// producers should stop estimating — nothing further can be delivered.
    fn failed(&self) -> bool {
        self.io_error.is_some()
    }

    fn progress(&mut self) {
        let (done, total) = (self.done, self.total);
        self.write_line(|w| {
            w.field("progress", done);
            w.field("total", total);
        });
    }

    fn finish(mut self) -> Result<(), String> {
        self.progress();
        match self.io_error {
            None => Ok(()),
            Some(e) => Err(format!("failed to write streamed output: {e}")),
        }
    }
}

/// Run a submission through `engine`, streaming NDJSON to `out`: one
/// record per finished item **in completion order** (each record's `index`
/// names its submission/expansion position) plus periodic `{"progress": k,
/// "total": n}` records and a final one. Sweep records are field-for-field
/// identical to the corresponding entries of [`run_submission_via`]'s
/// monolithic document, and batch records are those entries plus an
/// `index` field; failing batch/sweep items report their error in place. A
/// failing *single* job returns `Err`, exactly as in [`run_submission_via`],
/// so exit codes do not depend on the delivery mode. A streamed *frontier*
/// job emits one record per Pareto point (the monolithic document's
/// `frontier` entries plus an `index` field) instead of one document.
pub fn run_submission_streamed_via(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
) -> Result<(), String> {
    let items = match &submission.kind {
        SubmissionKind::Single(spec) if spec.frontier => {
            // A streamed frontier delivers one NDJSON record per Pareto
            // point, in frontier order (descending qubits), each carrying
            // its `index`, cap, partition, and full result.
            let points = run_frontier_points_via(engine, spec)?;
            let mut sink = NdjsonSink::new(out, points.len());
            for (i, p) in points.iter().enumerate() {
                sink.record(|w| write_frontier_point(w, i, p));
                if sink.failed() {
                    break;
                }
            }
            return sink.finish();
        }
        SubmissionKind::Single(spec) => {
            let output = run_job_via(engine, spec)?;
            let mut sink = NdjsonSink::new(out, 1);
            sink.record(|w| output.write_fields(w));
            return sink.finish();
        }
        SubmissionKind::Batch(jobs) => ItemRun::Batch(jobs),
        SubmissionKind::Sweep(spec) => ItemRun::sweep(engine, spec)?,
    };
    let mut sink = NdjsonSink::new(out, items.total());
    items.run(engine, |fields| {
        sink.record(fields);
        !sink.failed()
    });
    sink.finish()
}

/// Item/error tally of one executed submission.
#[derive(Default)]
pub(crate) struct ItemCounts {
    pub(crate) items: usize,
    pub(crate) errors: usize,
}

/// A batch or sweep ready for completion-order delivery: the one dispatcher
/// behind both the one-shot `"stream": true` path and `qre serve`, which
/// differ only in how they frame each record.
pub(crate) enum ItemRun<'a> {
    Batch(&'a [JobSpec]),
    Sweep(SweepStream),
}

impl<'a> ItemRun<'a> {
    /// Expand and start a sweep; expansion errors (an empty mandatory axis,
    /// an item count that overflows) surface here, before any record.
    pub(crate) fn sweep(engine: &Estimator, spec: &SweepSpec) -> Result<Self, String> {
        engine
            .sweep_stream(spec)
            .map(ItemRun::Sweep)
            .map_err(|e| e.to_string())
    }

    /// Number of records [`ItemRun::run`] delivers.
    pub(crate) fn total(&self) -> usize {
        match self {
            ItemRun::Batch(jobs) => jobs.len(),
            ItemRun::Sweep(stream) => stream.total(),
        }
    }

    /// Execute every item, handing each record to `emit` as it finishes,
    /// as a writer of the record's members: batch records are the item's
    /// result (or error) led by its `index`, sweep records are
    /// [`write_sweep_item`]. The caller frames and encodes the record on the
    /// thread that runs this loop. Once `emit` returns `false` (a dead
    /// consumer) no further items start; only the in-flight ones finish.
    pub(crate) fn run(
        self,
        engine: &Estimator,
        mut emit: impl FnMut(&dyn Fn(&mut Writer)) -> bool,
    ) -> ItemCounts {
        let mut counts = ItemCounts::default();
        match self {
            ItemRun::Batch(jobs) => {
                counts.items = jobs.len();
                qre_par::parallel_map_streamed_until(
                    jobs.len(),
                    |index| run_job_via(engine, &jobs[index]),
                    |index, item| {
                        counts.errors += usize::from(item.is_err());
                        if emit(&|w| {
                            w.field("index", index);
                            write_job_outcome(w, &item);
                        }) {
                            std::ops::ControlFlow::Continue(())
                        } else {
                            std::ops::ControlFlow::Break(())
                        }
                    },
                );
            }
            ItemRun::Sweep(stream) => {
                for outcome in stream {
                    counts.items += 1;
                    counts.errors += usize::from(outcome.outcome.is_err());
                    if !emit(&|w| write_sweep_item(w, &outcome)) {
                        // Dropping the stream cancels the remaining items.
                        break;
                    }
                }
            }
        }
        counts
    }
}

/// Accepted top-level fields of a single job document. `stream` is a
/// submission-level delivery option ([`parse_submission`] consumes it); it
/// is accepted here so a single-job submission validates as a job document.
const JOB_FIELDS: &[&str] = &[
    "algorithm",
    "qubitParams",
    "qecScheme",
    "errorBudget",
    "constraints",
    "estimateType",
    "searchBudgetPartition",
    "stream",
];

/// Parse and validate a JSON job document.
pub fn parse_job(text: &str) -> Result<JobSpec, String> {
    let doc = qre_json::parse(text).map_err(|e| e.to_string())?;
    parse_job_value(&doc)
}

/// [`parse_job`] over an already-parsed JSON document.
pub fn parse_job_value(doc: &Value) -> Result<JobSpec, String> {
    if doc.as_object().is_none() {
        return Err("job specification must be a JSON object".into());
    }
    check_fields(doc, "", JOB_FIELDS)?;

    let counts = parse_algorithm(
        doc.get("algorithm")
            .ok_or("missing required field `algorithm`")?,
    )?;
    let qubit = parse_qubit_params(doc.get("qubitParams"))?;
    let qec = parse_qec(doc.get("qecScheme"))?;

    let mut builder = EstimateRequest::builder()
        .counts(counts)
        .profile(qubit)
        .qec(qec);

    builder = match doc.get("errorBudget") {
        None => builder.total_error_budget(1e-3),
        Some(v) => {
            let budget = parse_error_budget(v, "errorBudget")?;
            builder.error_budget_parts(budget.logical, budget.t_states, budget.rotations)
        }
    };

    if let Some(c) = doc.get("constraints") {
        let parsed = parse_constraints(c)?;
        if let Some(v) = parsed.logical_depth_factor {
            builder = builder.logical_depth_factor(v);
        }
        if let Some(v) = parsed.max_t_factories {
            builder = builder.max_t_factories(v);
        }
        if let Some(v) = parsed.max_duration_ns {
            builder = builder.max_duration_ns(v);
        }
        if let Some(v) = parsed.max_physical_qubits {
            builder = builder.max_physical_qubits(v);
        }
    }

    let frontier = match doc.get("estimateType").and_then(Value::as_str) {
        None | Some("single") => false,
        Some("frontier") => true,
        Some(other) => return Err(format!("unknown estimateType `{other}`")),
    };

    let search_partition = match doc.get("searchBudgetPartition") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or("`searchBudgetPartition` must be a boolean")?,
    };
    if search_partition && !frontier {
        return Err("`searchBudgetPartition` requires `estimateType: \"frontier\"`".into());
    }

    let request = builder.build().map_err(|e| e.to_string())?;
    Ok(JobSpec {
        request,
        frontier,
        search_partition,
    })
}

/// Parse an error-budget value: a bare number is the total budget (split in
/// even thirds), an object names the parts explicitly. `ctx` names the
/// field in errors (`errorBudget`, `sweep.errorBudgets[i]`). The object
/// form requires `logical`; `tStates` and `rotations` default to 0.
fn parse_error_budget(v: &Value, ctx: &str) -> Result<ErrorBudget, String> {
    if let Some(total) = v.as_f64() {
        return ErrorBudget::from_total(total).map_err(|e| format!("{ctx}: {e}"));
    }
    if v.as_object().is_some() {
        check_fields(v, ctx, &["logical", "tStates", "rotations"])?;
        let logical = match v.get("logical") {
            None => return Err(format!("`{ctx}.logical` is missing")),
            Some(x) => x
                .as_f64()
                .ok_or_else(|| format!("{ctx}.logical must be a number"))?,
        };
        let optional = |name: &str| -> Result<f64, String> {
            v.get(name)
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("{ctx}.{name} must be a number"))
                })
                .transpose()
                .map(|o| o.unwrap_or(0.0))
        };
        return ErrorBudget::from_parts(logical, optional("tStates")?, optional("rotations")?)
            .map_err(|e| format!("{ctx}: {e}"));
    }
    Err(format!("`{ctx}` must be a number or an object"))
}

/// Parse a `constraints` object.
fn parse_constraints(c: &Value) -> Result<Constraints, String> {
    if c.as_object().is_none() {
        return Err("`constraints` must be an object".into());
    }
    check_fields(
        c,
        "constraints",
        &[
            "logicalDepthFactor",
            "maxTFactories",
            "maxDurationNs",
            "maxPhysicalQubits",
        ],
    )?;
    let mut out = Constraints::default();
    if let Some(v) = c.get("logicalDepthFactor") {
        out.logical_depth_factor = Some(v.as_f64().ok_or("logicalDepthFactor must be a number")?);
    }
    if let Some(v) = c.get("maxTFactories") {
        out.max_t_factories = Some(v.as_u64().ok_or("maxTFactories must be an integer")?);
    }
    if let Some(v) = c.get("maxDurationNs") {
        out.max_duration_ns = Some(v.as_f64().ok_or("maxDurationNs must be a number")?);
    }
    if let Some(v) = c.get("maxPhysicalQubits") {
        out.max_physical_qubits = Some(v.as_u64().ok_or("maxPhysicalQubits must be an integer")?);
    }
    Ok(out)
}

/// Parse the `sweep` object into a [`SweepSpec`].
fn parse_sweep(v: &Value) -> Result<SweepSpec, String> {
    if v.as_object().is_none() {
        return Err("`sweep` must be an object".into());
    }
    check_fields(
        v,
        "sweep",
        &[
            "algorithms",
            "qubitParams",
            "qecSchemes",
            "errorBudgets",
            "constraints",
        ],
    )?;

    let algorithms = v
        .get("algorithms")
        .ok_or("`sweep` requires an `algorithms` array")?
        .as_array()
        .ok_or("`sweep.algorithms` must be an array")?;
    if algorithms.is_empty() {
        return Err("`sweep.algorithms` must contain at least one algorithm".into());
    }
    let mut spec = SweepSpec::new();
    for (i, alg) in algorithms.iter().enumerate() {
        let counts = parse_algorithm(alg).map_err(|e| format!("algorithms[{i}]: {e}"))?;
        spec = spec.workload(algorithm_label(alg, i), counts);
    }

    match v.get("qubitParams") {
        None => {
            // The paper's Figure 4 default: all six profiles.
            spec = spec.profiles(PhysicalQubit::default_profiles());
        }
        Some(list) => {
            let list = list
                .as_array()
                .ok_or("`sweep.qubitParams` must be an array")?;
            if list.is_empty() {
                return Err("`sweep.qubitParams` must contain at least one profile".into());
            }
            for (i, q) in list.iter().enumerate() {
                let qubit =
                    parse_qubit_params(Some(q)).map_err(|e| format!("qubitParams[{i}]: {e}"))?;
                spec = spec.profile(qubit);
            }
        }
    }

    if let Some(list) = v.get("qecSchemes") {
        let list = list
            .as_array()
            .ok_or("`sweep.qecSchemes` must be an array")?;
        for (i, s) in list.iter().enumerate() {
            check_fields(s, &format!("qecSchemes[{i}]"), &["name"])?;
            let scheme = match s.get("name").and_then(Value::as_str) {
                Some("default") => SweepScheme::ProfileDefault,
                Some("surface_code") => SweepScheme::Kind(QecSchemeKind::SurfaceCode),
                Some("floquet_code") => SweepScheme::Kind(QecSchemeKind::FloquetCode),
                Some(other) => {
                    return Err(format!("qecSchemes[{i}]: unknown QEC scheme `{other}`"))
                }
                None => return Err(format!("qecSchemes[{i}]: `qecScheme` requires a `name`")),
            };
            spec = spec.scheme(scheme);
        }
    }

    if let Some(list) = v.get("errorBudgets") {
        let list = list
            .as_array()
            .ok_or("`sweep.errorBudgets` must be an array")?;
        for (i, b) in list.iter().enumerate() {
            // Both forms the top-level `errorBudget` field accepts: a bare
            // total or a `{"logical": …, "tStates": …, "rotations": …}`
            // partition object.
            let budget = parse_error_budget(b, &format!("sweep.errorBudgets[{i}]"))?;
            spec = spec.budget(budget);
        }
    }

    if let Some(list) = v.get("constraints") {
        let list = list
            .as_array()
            .ok_or("`sweep.constraints` must be an array of constraint objects")?;
        for (i, c) in list.iter().enumerate() {
            let parsed = parse_constraints(c).map_err(|e| format!("constraints[{i}]: {e}"))?;
            spec = spec.constraint(parsed);
        }
    }

    Ok(spec)
}

/// Human-readable workload label for a sweep's algorithm entry.
fn algorithm_label(v: &Value, index: usize) -> String {
    if let Some(m) = v.get("multiplication") {
        let alg = m
            .get("algorithm")
            .and_then(Value::as_str)
            .unwrap_or("multiplication");
        match m.get("bits").and_then(Value::as_u64) {
            Some(bits) => format!("{alg}/{bits}"),
            None => alg.to_string(),
        }
    } else if v.get("qir").is_some() {
        format!("qir[{index}]")
    } else {
        format!("logicalCounts[{index}]")
    }
}

fn parse_algorithm(v: &Value) -> Result<LogicalCounts, String> {
    check_fields(v, "algorithm", &["logicalCounts", "qir", "multiplication"])?;
    if let Some(counts) = v.get("logicalCounts") {
        return LogicalCounts::from_json(counts);
    }
    if let Some(qir_text) = v.get("qir") {
        let qir_text = qir_text
            .as_str()
            .ok_or("`algorithm.qir` must be a string of QIR text")?;
        let circuit = qir::parse_qir(qir_text).map_err(|e| e.to_string())?;
        let counts = circuit.counts();
        if counts.num_qubits == 0 {
            return Err("QIR program uses no qubits".into());
        }
        return Ok(counts);
    }
    if let Some(m) = v.get("multiplication") {
        check_fields(m, "multiplication", &["algorithm", "bits"])?;
        let alg = match m.get("algorithm").and_then(Value::as_str) {
            Some("standard" | "schoolbook") => MulAlgorithm::Schoolbook,
            Some("karatsuba") => MulAlgorithm::Karatsuba,
            Some("windowed") => MulAlgorithm::Windowed,
            Some(other) => return Err(format!("unknown multiplication algorithm `{other}`")),
            None => return Err("multiplication requires an `algorithm` field".into()),
        };
        let raw_bits = m
            .get("bits")
            .and_then(Value::as_u64)
            .ok_or("multiplication requires integer `bits`")?;
        // `try_into` instead of `as`: on 32-bit targets a u64 would silently
        // truncate before the range check, turning e.g. 2^32+64 into 64.
        let bits: usize = raw_bits
            .try_into()
            .ok()
            .filter(|b| (2..=1 << 20).contains(b))
            .ok_or_else(|| {
                format!("multiplication `bits` must lie in 2..=1048576 (2^20), got {raw_bits}")
            })?;
        return Ok(qre_arith::multiplication_counts(alg, bits));
    }
    Err("`algorithm` must contain `logicalCounts`, `qir`, or `multiplication`".into())
}

fn parse_qubit_params(v: Option<&Value>) -> Result<PhysicalQubit, String> {
    let Some(v) = v else {
        return Ok(PhysicalQubit::qubit_gate_ns_e3());
    };
    if v.as_object().is_none() {
        return Err("`qubitParams` must be an object".into());
    }
    check_fields(
        v,
        "qubitParams",
        &[
            "name",
            "oneQubitGateTimeNs",
            "twoQubitGateTimeNs",
            "oneQubitMeasurementTimeNs",
            "twoQubitMeasurementTimeNs",
            "tGateTimeNs",
            "oneQubitGateError",
            "twoQubitGateError",
            "oneQubitMeasurementError",
            "twoQubitMeasurementError",
            "tGateError",
            "idleError",
        ],
    )?;
    let mut qubit = match v.get("name").and_then(Value::as_str) {
        Some(name) => {
            PhysicalQubit::by_name(name).ok_or_else(|| format!("unknown qubit profile `{name}`"))?
        }
        None => PhysicalQubit::qubit_gate_ns_e3(),
    };
    // Field overrides (Section IV-C.1: "customize a subset of the
    // parameters of the default models").
    let set = |field: &mut f64, key: &str| -> Result<(), String> {
        if let Some(x) = v.get(key) {
            *field = x
                .as_f64()
                .ok_or_else(|| format!("`qubitParams.{key}` must be a number"))?;
        }
        Ok(())
    };
    set(&mut qubit.one_qubit_gate_time_ns, "oneQubitGateTimeNs")?;
    set(&mut qubit.two_qubit_gate_time_ns, "twoQubitGateTimeNs")?;
    set(
        &mut qubit.one_qubit_measurement_time_ns,
        "oneQubitMeasurementTimeNs",
    )?;
    set(
        &mut qubit.two_qubit_measurement_time_ns,
        "twoQubitMeasurementTimeNs",
    )?;
    set(&mut qubit.t_gate_time_ns, "tGateTimeNs")?;
    set(&mut qubit.one_qubit_gate_error, "oneQubitGateError")?;
    set(&mut qubit.two_qubit_gate_error, "twoQubitGateError")?;
    set(
        &mut qubit.one_qubit_measurement_error,
        "oneQubitMeasurementError",
    )?;
    set(
        &mut qubit.two_qubit_measurement_error,
        "twoQubitMeasurementError",
    )?;
    set(&mut qubit.t_gate_error, "tGateError")?;
    set(&mut qubit.idle_error, "idleError")?;
    qubit.validate().map_err(|e| e.to_string())?;
    Ok(qubit)
}

fn parse_qec(v: Option<&Value>) -> Result<QecSchemeKind, String> {
    let Some(v) = v else {
        return Ok(QecSchemeKind::SurfaceCode);
    };
    check_fields(v, "qecScheme", &["name"])?;
    match v.get("name").and_then(Value::as_str) {
        None => Err("`qecScheme` requires a `name`".into()),
        Some("surface_code") => Ok(QecSchemeKind::SurfaceCode),
        Some("floquet_code") => Ok(QecSchemeKind::FloquetCode),
        Some(other) => Err(format!("unknown QEC scheme `{other}`")),
    }
}

/// What one job produced: a single estimate or a frontier.
pub(crate) enum JobOutput {
    Estimate(Box<EstimationResult>),
    Frontier {
        search_partition: bool,
        points: Vec<FrontierPoint>,
    },
}

impl JobOutput {
    /// Write the job's result document members: the estimate's groups, or
    /// the frontier document with one entry per Pareto point.
    pub(crate) fn write_fields(&self, w: &mut Writer) {
        match self {
            JobOutput::Estimate(result) => result.write_fields(w),
            JobOutput::Frontier {
                search_partition,
                points,
            } => {
                w.field("status", "success");
                w.field("estimateType", "frontier");
                w.field("searchBudgetPartition", *search_partition);
                w.key("frontier");
                w.array(|w| {
                    for p in points {
                        w.object(|w| write_frontier_entry(w, p));
                    }
                });
            }
        }
    }
}

/// Run a job through a caller-owned engine, sharing its factory cache: a
/// single estimate, or a frontier.
fn run_job_via(engine: &Estimator, spec: &JobSpec) -> Result<JobOutput, String> {
    if spec.frontier {
        Ok(JobOutput::Frontier {
            search_partition: spec.search_partition,
            points: run_frontier_points_via(engine, spec)?,
        })
    } else {
        engine
            .estimate(&spec.request)
            .map(|result| JobOutput::Estimate(Box::new(result)))
            .map_err(|e| e.to_string())
    }
}

/// Write a batch item's members: its result document, or the in-place
/// error that stands for it.
fn write_job_outcome(w: &mut Writer, outcome: &Result<JobOutput, String>) {
    match outcome {
        Ok(output) => output.write_fields(w),
        Err(message) => write_error(w, message),
    }
}

/// Write the `"status": "error", "message": …` members reporting a failure
/// in place of a result.
pub(crate) fn write_error(w: &mut Writer, message: &str) {
    w.field("status", "error");
    w.field("message", message);
}

/// Explore a frontier job's Pareto set: the plain factory-cap frontier, or
/// the two-axis (budget partition × cap) search when the job asked for
/// `"searchBudgetPartition": true`.
pub(crate) fn run_frontier_points_via(
    engine: &Estimator,
    spec: &JobSpec,
) -> Result<Vec<FrontierPoint>, String> {
    let points = if spec.search_partition {
        engine.frontier_searched(&spec.request, &PartitionSearch::default())
    } else {
        engine.frontier(&spec.request)
    };
    points.map_err(|e| e.to_string())
}

/// Write one frontier document entry's members: the point's factory cap,
/// budget partition, and result.
fn write_frontier_entry(w: &mut Writer, p: &FrontierPoint) {
    w.field("maxTFactories", p.max_t_factories);
    w.field("errorBudget", p.budget);
    w.field("result", &p.result);
}

/// Write one streamed frontier-point record's members: the point's `index`
/// along the frontier, then the monolithic document's entry fields.
pub(crate) fn write_frontier_point(w: &mut Writer, index: usize, p: &FrontierPoint) {
    w.field("index", index);
    write_frontier_entry(w, p);
}

/// Run a job and return the human-readable report instead of JSON.
pub fn run_job_report(spec: &JobSpec) -> Result<String, String> {
    let result = Estimator::new()
        .estimate(&spec.request)
        .map_err(|e| e.to_string())?;
    Ok(result.to_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job's result document, parsed back from its written bytes.
    fn job_value(engine: &Estimator, spec: &JobSpec) -> Result<Value, String> {
        let output = run_job_via(engine, spec)?;
        let line = record_line(|w| output.write_fields(w));
        Ok(qre_json::parse(&line).unwrap())
    }

    const COUNTS_JOB: &str = r#"{
        "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000, "cczCount": 1000, "measurementCount": 20000 } },
        "qubitParams": { "name": "qubit_gate_ns_e3" },
        "qecScheme": { "name": "surface_code" },
        "errorBudget": 0.001
    }"#;

    #[test]
    fn counts_job_round_trip() {
        let spec = parse_job(COUNTS_JOB).unwrap();
        assert!(!spec.frontier);
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert_eq!(out.get("status").unwrap().as_str(), Some("success"));
        assert!(
            out.get_path("physicalCounts.physicalQubits")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn qir_job() {
        let job = r#"{
            "algorithm": { "qir": "call void @__quantum__qis__t__body(%Qubit* null)\ncall void @__quantum__qis__mz__body(%Qubit* null, %Result* null)" },
            "qubitParams": { "name": "qubit_gate_ns_e4" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.01
        }"#;
        let spec = parse_job(job).unwrap();
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("preLayoutLogicalResources.tCount")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // A non-string `qir` is named as such, not reported as missing.
        let err = parse_job(r#"{ "algorithm": { "qir": 5 } }"#).unwrap_err();
        assert!(
            err.contains("`algorithm.qir` must be a string of QIR text"),
            "{err}"
        );
    }

    #[test]
    fn multiplication_job() {
        let job = r#"{
            "algorithm": { "multiplication": { "algorithm": "windowed", "bits": 128 } },
            "qubitParams": { "name": "qubit_maj_ns_e4" },
            "qecScheme": { "name": "floquet_code" },
            "errorBudget": 1e-4
        }"#;
        let spec = parse_job(job).unwrap();
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert!(
            out.get_path("breakdown.numTstates")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn frontier_job() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "estimateType": "frontier"
        }"#;
        let spec = parse_job(job).unwrap();
        assert!(spec.frontier);
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert_eq!(out.get("estimateType").unwrap().as_str(), Some("frontier"));
        assert!(!out.get("frontier").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn searched_frontier_job_carries_partitions_and_dominates_fixed() {
        let body = r#"
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "estimateType": "frontier""#;
        let fixed = parse_job(&format!("{{{body}}}")).unwrap();
        let searched = parse_job(&format!("{{{body}, \"searchBudgetPartition\": true}}")).unwrap();
        assert!(!fixed.search_partition);
        assert!(searched.frontier && searched.search_partition);

        let fixed = job_value(&Estimator::new(), &fixed).unwrap();
        let searched = job_value(&Estimator::new(), &searched).unwrap();
        assert_eq!(
            searched.get("searchBudgetPartition").unwrap().as_bool(),
            Some(true)
        );
        let coords = |doc: &Value| -> Vec<(u64, f64)> {
            doc.get("frontier")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|p| {
                    // Every point names the partition that produced it.
                    assert!(p.get_path("errorBudget.logical").unwrap().as_f64().unwrap() > 0.0);
                    (
                        p.get_path("result.physicalCounts.physicalQubits")
                            .unwrap()
                            .as_u64()
                            .unwrap(),
                        p.get_path("result.physicalCounts.runtimeNs")
                            .unwrap()
                            .as_f64()
                            .unwrap(),
                    )
                })
                .collect()
        };
        let searched = coords(&searched);
        for (q, t) in coords(&fixed) {
            assert!(
                searched.iter().any(|&(sq, st)| sq <= q && st <= t),
                "fixed point ({q}, {t}) not weakly dominated"
            );
        }
    }

    #[test]
    fn search_partition_requires_frontier_type() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "searchBudgetPartition": true
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("estimateType"), "{err}");
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "estimateType": "frontier",
            "searchBudgetPartition": 1
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn streamed_frontier_emits_one_record_per_point() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "errorBudget": 0.001,
            "estimateType": "frontier",
            "searchBudgetPartition": true,
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        let mut bytes = Vec::new();
        run_submission_streamed_via(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        assert!(records.len() >= 2, "expected a real trade-off curve");
        // Records arrive in frontier order with their coordinates attached.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("index").unwrap().as_u64(), Some(i as u64));
            assert!(r.get("maxTFactories").unwrap().as_u64().is_some());
            assert!(r.get_path("errorBudget.total").unwrap().as_f64().is_some());
            assert!(r.get_path("result.physicalCounts").is_some());
        }
        // Streamed records are field-identical to the monolithic document's
        // entries, plus the index.
        let spec = match &submission.kind {
            SubmissionKind::Single(spec) => spec,
            _ => unreachable!(),
        };
        let doc = job_value(&Estimator::new(), spec).unwrap();
        let entries = doc.get("frontier").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), records.len());
        for (i, (entry, record)) in entries.iter().zip(&records).enumerate() {
            let mut expected = vec![("index".to_string(), Value::from(i))];
            expected.extend(entry.as_object().unwrap().iter().cloned());
            assert_eq!(&Value::Object(expected), *record);
        }
    }

    #[test]
    fn sweep_error_budget_accepts_object_form() {
        // The same partition, written as the object form the top-level
        // `errorBudget` field accepts and as an equivalent explicit total.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" } ],
            "errorBudgets": [ { "logical": 1e-4, "tStates": 2e-4, "rotations": 0 }, 1e-3 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        let out = run_submission_via(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        let total = items[0].get_path("errorBudget").unwrap().as_f64().unwrap();
        assert!((total - 3e-4).abs() < 1e-15, "got {total}");
        assert_eq!(
            items[0]
                .get_path("result.errorBudget.tStates")
                .unwrap()
                .as_f64(),
            Some(2e-4)
        );
    }

    #[test]
    fn sweep_error_budget_object_errors_name_fields() {
        let missing = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "tStates": 2e-4 } ]
        } }"#;
        let err = parse_submission(missing).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(err.contains("errorBudgets[0].logical"), "{err}");

        let not_a_number = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "logical": "big" } ]
        } }"#;
        let err = parse_submission(not_a_number).unwrap_err();
        assert!(err.contains("must be a number"), "{err}");

        let typo = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "logical": 1e-4, "tState": 2e-4 } ]
        } }"#;
        let err = parse_submission(typo).unwrap_err();
        assert!(err.contains("tState"), "{err}");
        assert!(err.contains("tStates"), "{err}");

        let neither = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ true ]
        } }"#;
        let err = parse_submission(neither).unwrap_err();
        assert!(err.contains("number or an object"), "{err}");
    }

    #[test]
    fn qubit_overrides() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
            "qubitParams": { "name": "qubit_gate_ns_e3", "tGateError": 0.0002 },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001
        }"#;
        let spec = parse_job(job).unwrap();
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("physicalQubitParameters.tGateError")
                .unwrap()
                .as_f64(),
            Some(2e-4)
        );
    }

    #[test]
    fn constraints_respected() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "constraints": { "maxTFactories": 2 }
        }"#;
        let out = job_value(&Estimator::new(), &parse_job(job).unwrap()).unwrap();
        assert!(
            out.get_path("breakdown.numTfactories")
                .unwrap()
                .as_u64()
                .unwrap()
                <= 2
        );
    }

    #[test]
    fn defaults_applied() {
        let job = r#"{ "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } } }"#;
        let spec = parse_job(job).unwrap();
        let out = job_value(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("physicalQubitParameters.name")
                .unwrap()
                .as_str(),
            Some("qubit_gate_ns_e3")
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job("{}").unwrap_err().contains("algorithm"));
        let bad_alg = r#"{ "algorithm": { "something": 1 } }"#;
        assert!(parse_job(bad_alg).unwrap_err().contains("logicalCounts"));
        let bad_profile = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "qubitParams": { "name": "qubit_unobtainium" }
        }"#;
        assert!(parse_job(bad_profile)
            .unwrap_err()
            .contains("unknown qubit profile"));
        let bad_scheme = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "qecScheme": { "name": "wormhole_code" }
        }"#;
        assert!(parse_job(bad_scheme)
            .unwrap_err()
            .contains("unknown QEC scheme"));
        let bad_type = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "estimateType": "quantum"
        }"#;
        assert!(parse_job(bad_type).unwrap_err().contains("estimateType"));
    }

    #[test]
    fn batch_submission() {
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 200 } },
              "qubitParams": { "name": "qubit_maj_ns_e4" },
              "qecScheme": { "name": "floquet_code" } }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        assert!(!submission.stream);
        assert!(matches!(submission.kind, SubmissionKind::Batch(ref jobs) if jobs.len() == 2));
        let out = run_submission_via(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.get("status").unwrap().as_str(), Some("success"));
        }
        // Distinct profiles flowed through.
        assert_eq!(
            items[1]
                .get_path("physicalQubitParameters.name")
                .unwrap()
                .as_str(),
            Some("qubit_maj_ns_e4")
        );
    }

    #[test]
    fn batch_reports_per_item_errors() {
        // The second item is infeasible (error budget unreachable on that
        // hardware); the batch still succeeds with an in-place error.
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        let out = run_submission_via(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("status").unwrap().as_str(), Some("success"));
        assert_eq!(items[1].get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn batch_rejects_malformed_items() {
        assert!(parse_submission(r#"{ "items": [] }"#).is_err());
        assert!(parse_submission(r#"{ "items": 5 }"#).is_err());
        let err = parse_submission(r#"{ "items": [ { "nope": 1 } ] }"#).unwrap_err();
        assert!(err.contains("items[0]"), "{err}");
    }

    #[test]
    fn single_submission_passthrough() {
        let submission = parse_submission(COUNTS_JOB).unwrap();
        assert!(matches!(submission.kind, SubmissionKind::Single(_)));
        let out = run_submission_via(&Estimator::new(), &submission).unwrap();
        assert!(out.get("physicalCounts").is_some());
    }

    #[test]
    fn report_mode() {
        let spec = parse_job(COUNTS_JOB).unwrap();
        let report = run_job_report(&spec).unwrap();
        assert!(report.contains("Physical resource estimates"));
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        // The classic typo: plural `errorBudgets` on a single job.
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "errorBudgets": [0.001]
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("errorBudgets"), "{err}");
        assert!(err.contains("accepted fields"), "{err}");
        assert!(err.contains("errorBudget"), "{err}");
    }

    #[test]
    fn unknown_nested_fields_are_rejected() {
        let bad_constraint = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "constraints": { "maxTFactory": 2 }
        }"#;
        let err = parse_job(bad_constraint).unwrap_err();
        assert!(
            err.contains("maxTFactory") && err.contains("maxTFactories"),
            "{err}"
        );

        let bad_qubit = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "qubitParams": { "name": "qubit_gate_ns_e3", "tGateErr": 1e-4 }
        }"#;
        let err = parse_job(bad_qubit).unwrap_err();
        assert!(
            err.contains("tGateErr") && err.contains("tGateError"),
            "{err}"
        );

        let err = parse_submission(r#"{ "items": [], "extra": 1 }"#).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn sweep_submission_expands_and_runs() {
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "multiplication": { "algorithm": "windowed", "bits": 64 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
            "errorBudgets": [ 1e-4 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        assert!(matches!(submission.kind, SubmissionKind::Sweep(_)));
        let out = run_submission_via(&Estimator::new(), &submission).unwrap();
        assert_eq!(out.get("estimateType").unwrap().as_str(), Some("sweep"));
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("workload").unwrap().as_str(),
            Some("windowed/64")
        );
        assert_eq!(
            items[0].get("profile").unwrap().as_str(),
            Some("qubit_gate_ns_e3")
        );
        // The profile-default pairing resolved per item.
        assert_eq!(
            items[0].get("qecScheme").unwrap().as_str(),
            Some("surface_code")
        );
        assert_eq!(
            items[1].get("qecScheme").unwrap().as_str(),
            Some("floquet_code")
        );
        for item in items {
            assert_eq!(item.get("status").unwrap().as_str(), Some("success"));
            assert!(
                item.get_path("result.physicalCounts.physicalQubits")
                    .unwrap()
                    .as_u64()
                    .unwrap()
                    > 0
            );
        }
    }

    #[test]
    fn sweep_defaults_to_all_profiles() {
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ]
        } }"#;
        let out = run_submission_via(&Estimator::new(), &parse_submission(sweep).unwrap()).unwrap();
        assert_eq!(out.get("items").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn sweep_reports_item_errors_in_place() {
        // Floquet on gate-based hardware fails that item only.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
            "qecSchemes": [ { "name": "floquet_code" } ]
        } }"#;
        let out = run_submission_via(&Estimator::new(), &parse_submission(sweep).unwrap()).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("status").unwrap().as_str(), Some("error"));
        assert!(items[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Majorana"));
        assert_eq!(items[1].get("status").unwrap().as_str(), Some("success"));
    }

    #[test]
    fn multiplication_bits_out_of_range_is_rejected() {
        // In range: fine.
        assert!(parse_job(
            r#"{ "algorithm": { "multiplication": { "algorithm": "windowed", "bits": 64 } } }"#
        )
        .is_ok());
        // Out of the accepted range (and, on 32-bit targets, out of usize):
        // must be rejected with the range named, never truncated.
        let big = r#"{ "algorithm": { "multiplication":
            { "algorithm": "windowed", "bits": 4294967360 } } }"#;
        let err = parse_job(big).unwrap_err();
        assert!(err.contains("2..=1048576"), "{err}");
        assert!(err.contains("4294967360"), "{err}");
        let small = r#"{ "algorithm": { "multiplication":
            { "algorithm": "windowed", "bits": 1 } } }"#;
        let err = parse_job(small).unwrap_err();
        assert!(err.contains("2..=1048576"), "{err}");
    }

    fn parse_ndjson_lines(bytes: &[u8]) -> Vec<Value> {
        std::str::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|line| qre_json::parse(line).expect("every NDJSON line parses"))
            .collect()
    }

    #[test]
    fn streamed_sweep_emits_ndjson_equal_to_collecting_run() {
        let sweep = r#"{ "stream": true, "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 20, "tCount": 2000 } } ],
            "errorBudgets": [ 1e-4 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        assert!(submission.stream);
        let mut bytes = Vec::new();
        run_submission_streamed_via(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);

        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        let progress: Vec<&Value> = lines
            .iter()
            .filter(|v| v.get("progress").is_some())
            .collect();
        assert_eq!(records.len(), 6, "one record per sweep item");
        assert!(!progress.is_empty(), "progress records interleave");
        // The final line is the completed progress record.
        let last = lines.last().unwrap();
        assert_eq!(last.get("progress").unwrap().as_u64(), Some(6));
        assert_eq!(last.get("total").unwrap().as_u64(), Some(6));

        // Streamed records are field-for-field the collecting document's
        // items, matched up by index.
        let collected = run_submission_via(&Estimator::new(), &submission).unwrap();
        let items = collected.get("items").unwrap().as_array().unwrap();
        for record in records {
            let index = record.get("index").unwrap().as_u64().unwrap() as usize;
            assert_eq!(
                record.to_string_compact(),
                items[index].to_string_compact(),
                "record {index} diverges from the collecting API"
            );
        }
    }

    #[test]
    fn streamed_batch_records_carry_indices() {
        let batch = r#"{ "stream": true, "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        let mut bytes = Vec::new();
        run_submission_streamed_via(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        assert_eq!(records.len(), 3);
        let mut indices: Vec<u64> = records
            .iter()
            .map(|r| r.get("index").unwrap().as_u64().unwrap())
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
        // The infeasible item reports its error in place.
        let failing = records
            .iter()
            .find(|r| r.get("index").unwrap().as_u64() == Some(1))
            .unwrap();
        assert_eq!(failing.get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn streamed_single_job_emits_one_record_and_progress() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        assert!(submission.stream);
        let mut bytes = Vec::new();
        run_submission_streamed_via(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].get("physicalCounts").is_some());
        assert_eq!(lines[1].get("progress").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn streamed_single_job_failure_propagates_like_collecting() {
        // A failing single job must error out (exit code 1 at the binary)
        // whether streamed or collected — not degrade to an NDJSON record.
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "errorBudget": 1e-60,
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        let mut bytes = Vec::new();
        let streamed = run_submission_streamed_via(&Estimator::new(), &submission, &mut bytes);
        let collected = run_submission_via(&Estimator::new(), &submission);
        assert!(streamed.is_err());
        assert_eq!(streamed.unwrap_err(), collected.unwrap_err());
        assert!(bytes.is_empty(), "no partial output on a failed single job");
    }

    #[test]
    fn chunked_monolithic_writer_is_byte_identical_to_collecting() {
        // The chunk-flushed document writer must emit the exact bytes of
        // pretty/compact-printing the collected value (plus the trailing
        // newline the CLI adds) — with a chunk size small enough that this
        // sweep and batch genuinely cross chunk boundaries.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 20, "tCount": 2000 } } ],
            "errorBudgets": [ 1e-3, 1e-4 ]
        } }"#;
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 12, "tCount": 500 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 14, "tCount": 700 } } }
        ] }"#;
        let single = r#"{ "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } } }"#;
        for text in [sweep, batch, single] {
            let submission = parse_submission(text).unwrap();
            let engine = Estimator::new();
            let collected = run_submission_via(&engine, &submission).unwrap();
            for (compact, expected) in [
                (false, format!("{}\n", collected.to_string_pretty())),
                (true, format!("{}\n", collected.to_string_compact())),
            ] {
                let mut bytes = Vec::new();
                write_submission_chunked(&engine, &submission, &mut bytes, compact, 2).unwrap();
                assert_eq!(
                    String::from_utf8(bytes).unwrap(),
                    expected,
                    "compact={compact} output diverges for {text}"
                );
            }
        }
    }

    #[test]
    fn chunked_writer_failures_leave_stdout_untouched() {
        // A sweep whose expansion fails must produce no partial document,
        // exactly like the collecting path: an empty mandatory axis, or a
        // spec that is already sharded (the writer shards it into chunks).
        let empty_axis = SweepSpec::new().profile(PhysicalQubit::qubit_gate_ns_e3());
        let sharded = SweepSpec::new()
            .workload("w", LogicalCounts::builder().logical_qubits(2).build())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .shard_of(0, 2)
            .unwrap();
        let engine = Estimator::new();
        for (spec, expected) in [(empty_axis, "workload"), (sharded, "already sharded")] {
            let submission = Submission {
                stream: false,
                kind: SubmissionKind::Sweep(Box::new(spec)),
            };
            let mut bytes = Vec::new();
            let err = write_submission_via(&engine, &submission, &mut bytes, false).unwrap_err();
            assert!(err.contains(expected), "{err}");
            assert!(bytes.is_empty(), "no partial output on a failed sweep");
        }
    }

    #[test]
    fn stream_flag_must_be_boolean() {
        let err = parse_submission(r#"{ "stream": 1, "items": [] }"#).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn stream_flag_inside_batch_items_is_rejected() {
        // Submission-level option misplaced on an item: must error, not be
        // silently ignored.
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
              "stream": true }
        ] }"#;
        let err = parse_submission(batch).unwrap_err();
        assert!(err.contains("items[0]"), "{err}");
        assert!(err.contains("top level"), "{err}");
    }

    #[test]
    fn sweep_rejects_unknown_and_missing_fields() {
        let err = parse_submission(r#"{ "sweep": { "algorithm": [] } }"#).unwrap_err();
        assert!(err.contains("algorithms"), "{err}");
        let err = parse_submission(r#"{ "sweep": { "algorithms": [] } }"#).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = parse_submission(
            r#"{ "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 2 } } ],
                 "qecSchemes": [ { "name": "wormhole_code" } ] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("wormhole_code"), "{err}");
        // Scheme entries reject unknown fields like the single-job `qecScheme`.
        let err = parse_submission(
            r#"{ "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 2 } } ],
                 "qecSchemes": [ { "name": "surface_code", "extra": 1 } ] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("`extra` in `qecSchemes[0]`"), "{err}");
    }
}
