//! Output checks: per-job shard coverage, error records, and an
//! order-independent digest of the item records compared against the
//! in-process one-shot path (`run_submission_streamed_via`) on the same
//! submission.

use std::ops::Range;
use std::sync::Arc;

use qre_arith::MulAlgorithm;
use qre_circuit::LogicalCounts;
use qre_core::{Estimator, FactoryCache};
use qre_json::Value;

/// 64-bit hash of a record's bytes, eight bytes at a time, so the load
/// generator spends little CPU next to the server it measures. Not
/// cryptographic; it only has to make an accidental match implausible.
pub fn record_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of eight bytes"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

/// What one NDJSON record line of a serve job is.
pub enum Record<'a> {
    /// A sweep item: its index and its fields after the job envelope
    /// (`"index":...}`), the bytes the digest covers.
    Item { index: usize, body: &'a [u8] },
    /// The job's closing `stats` record.
    Stats,
    /// A job-level error record.
    Error,
    /// Anything else (lifecycle records, unparseable lines).
    Other,
}

/// Split a serve record `{"job":"<id>",<body>` into id and kind. Job ids
/// are generated by the benchmark and never contain quotes.
pub fn classify(line: &[u8]) -> (&[u8], Record<'_>) {
    const PREFIX: &[u8] = b"{\"job\":\"";
    let Some(rest) = line.strip_prefix(PREFIX) else {
        return (&[], Record::Other);
    };
    let Some(quote) = rest.iter().position(|&b| b == b'"') else {
        return (&[], Record::Other);
    };
    let id = &rest[..quote];
    let Some(body) = rest[quote + 1..].strip_prefix(b",") else {
        return (id, Record::Other);
    };
    let record = if let Some(digits) = body.strip_prefix(b"\"index\":") {
        let end = digits.iter().position(|b| !b.is_ascii_digit()).unwrap_or(0);
        match std::str::from_utf8(&digits[..end])
            .ok()
            .and_then(|s| s.parse().ok())
        {
            Some(index) => Record::Item { index, body },
            None => Record::Other,
        }
    } else if body.starts_with(b"\"stats\":") {
        Record::Stats
    } else if body.starts_with(b"\"status\":\"error\"") {
        Record::Error
    } else {
        Record::Other
    };
    (id, record)
}

/// Per-index record hashes of one submission, from the in-process one-shot
/// path.
pub struct Reference {
    pub hashes: Vec<u64>,
}

impl Reference {
    /// Run `submission` through `run_submission_streamed_via` on `engine`
    /// and hash every item record the way [`JobCheck`] hashes served ones.
    pub fn build(engine: &Estimator, submission: &str) -> Result<Reference, String> {
        let parsed = qre_cli::parse_submission(submission)?;
        let mut out = Vec::new();
        qre_cli::run_submission_streamed_via(engine, &parsed, &mut out)?;
        let mut hashes = Vec::new();
        for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            if line.starts_with(b"{\"progress\":") {
                continue;
            }
            let body = line
                .strip_prefix(b"{")
                .filter(|b| b.starts_with(b"\"index\":"))
                .ok_or("reference record without an index")?;
            let digits = &body[8..];
            let end = digits.iter().position(|b| !b.is_ascii_digit()).unwrap_or(0);
            let index: usize = std::str::from_utf8(&digits[..end])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or("reference record with a bad index")?;
            if index >= hashes.len() {
                hashes.resize(index + 1, 0);
            }
            if body.windows(16).any(|w| w == b"\"status\":\"error\"") {
                return Err(format!(
                    "reference item {index} failed; the workload must not fail"
                ));
            }
            hashes[index] = record_hash(body);
        }
        Ok(Reference { hashes })
    }

    /// [`Reference::build`] for each submission on its own thread, every
    /// engine over `store`.
    pub fn build_all(
        store: &Arc<FactoryCache>,
        submissions: &[&str],
    ) -> Result<Vec<Reference>, String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = submissions
                .iter()
                .map(|&submission| {
                    let engine = Estimator::with_cache(Arc::clone(store));
                    scope.spawn(move || Reference::build(&engine, submission))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("reference thread panicked".into()))
                })
                .collect()
        })
    }

    /// The order-independent digest of the items in `range`.
    pub fn digest(&self, range: Range<usize>) -> u64 {
        self.hashes[range]
            .iter()
            .fold(0u64, |acc, &h| acc.wrapping_add(h))
    }
}

/// A fresh engine over its own unbounded store, returned with the store so
/// the caller can read its size or save it.
pub fn fresh_engine() -> (Estimator, Arc<FactoryCache>) {
    let store = Arc::new(FactoryCache::new());
    (Estimator::with_cache(Arc::clone(&store)), store)
}

/// The check state of one served job.
pub struct JobCheck {
    range: Range<usize>,
    expected: u64,
    seen: Vec<bool>,
    digest: u64,
    pub items: usize,
    duplicates: usize,
    out_of_range: usize,
    errors: usize,
}

impl JobCheck {
    /// A job expected to deliver exactly the items `range`, whose digest
    /// must equal `expected`.
    pub fn new(range: Range<usize>, expected: u64) -> JobCheck {
        JobCheck {
            seen: vec![false; range.len()],
            range,
            expected,
            digest: 0,
            items: 0,
            duplicates: 0,
            out_of_range: 0,
            errors: 0,
        }
    }

    pub fn item(&mut self, index: usize, body: &[u8]) {
        self.items += 1;
        if !self.range.contains(&index) {
            self.out_of_range += 1;
            return;
        }
        let slot = &mut self.seen[index - self.range.start];
        if *slot {
            self.duplicates += 1;
            return;
        }
        *slot = true;
        // An in-place item error differs from the reference record, so the
        // digest catches it without scanning every record here.
        self.digest = self.digest.wrapping_add(record_hash(body));
    }

    pub fn job_error(&mut self) {
        self.errors += 1;
    }

    /// Items attempted by this job.
    pub fn attempted(&self) -> usize {
        self.range.len()
    }

    /// Failed items once the job has ended: none when the job covered its
    /// range exactly once with the reference digest and no error record;
    /// otherwise every item of the job, plus any surplus records.
    pub fn failed(&self) -> usize {
        let missing = self.seen.iter().filter(|&&s| !s).count();
        if missing == 0
            && self.duplicates == 0
            && self.out_of_range == 0
            && self.errors == 0
            && self.digest == self.expected
        {
            0
        } else {
            self.range.len() + self.duplicates + self.out_of_range
        }
    }
}

/// Check the counts of paper-job item records against direct
/// `multiplication_counts` results. Returns the number of mismatching
/// records.
pub fn paper_counts_mismatches(
    records: &[Value],
    direct: &dyn Fn(MulAlgorithm, usize) -> Option<LogicalCounts>,
) -> usize {
    records
        .iter()
        .filter(|record| {
            let expected = record
                .get("workload")
                .and_then(Value::as_str)
                .and_then(parse_workload_label)
                .and_then(|(alg, bits)| direct(alg, bits));
            let served = record
                .get("result")
                .and_then(|r| r.get("preLayoutLogicalResources"));
            match (expected, served) {
                (Some(counts), Some(served)) => counts.to_json() != *served,
                _ => true,
            }
        })
        .count()
}

/// `"standard/2048"` → (schoolbook, 2048): the sweep label of a
/// multiplication entry.
fn parse_workload_label(label: &str) -> Option<(MulAlgorithm, usize)> {
    let (name, bits) = label.split_once('/')?;
    let alg = MulAlgorithm::ALL.into_iter().find(|a| a.name() == name)?;
    Some((alg, bits.parse().ok()?))
}
