//! Seeded input generator: every line the server receives is built here
//! from the run's `--seed`, so the same seed always sends the same work.

use qre_arith::MulAlgorithm;
use qre_circuit::LogicalCounts;
use qre_json::{ObjectBuilder, Value};

/// Workload rows of a sweep matrix. With the six default profiles and
/// [`BUDGETS`] error budgets this gives 120 × 6 × 14 = 10,080 items.
pub const ROWS: usize = 120;

/// Error budgets per workload row, log-spaced over `1e-5..=1e-2`.
pub const BUDGETS: usize = 14;

/// Shard jobs one pass over the warm matrix is cut into (84 items each).
pub const SHARDS: usize = 120;

/// Bit widths of the paper's Fig. 3 series that a job can count in a few
/// seconds (the figure itself continues to 16,384 bits).
pub const FIG3_BITS: [usize; 7] = [32, 64, 128, 256, 512, 1024, 2048];

/// Bit width of the paper's Fig. 4 sweep.
pub const FIG4_BITS: usize = 2048;

/// splitmix64 (Steele, Lea, Flood): small, well mixed and reproducible.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A logical-counts sweep matrix: seeded workloads × the six default
/// profiles × [`BUDGETS`] budgets.
pub struct Matrix {
    /// The compact `"sweep"` object every job line of the matrix carries.
    pub sweep_json: String,
    /// Items the matrix expands to.
    pub items: usize,
}

impl Matrix {
    pub fn new(seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let algorithms: Vec<Value> = (0..ROWS)
            .map(|_| {
                let counts = LogicalCounts {
                    num_qubits: rng.range(40, 4_000),
                    t_count: rng.range(10_000, 1_000_000),
                    rotation_count: 0,
                    rotation_depth: 0,
                    ccz_count: rng.range(0, 100_000),
                    ccix_count: 0,
                    measurement_count: rng.range(0, 500_000),
                };
                ObjectBuilder::new()
                    .field("logicalCounts", counts.to_json())
                    .build()
            })
            .collect();
        let budgets: Vec<Value> = (0..BUDGETS)
            .map(|j| Value::from(1e-2 * 10f64.powf(-3.0 * j as f64 / (BUDGETS - 1) as f64)))
            .collect();
        let sweep = ObjectBuilder::new()
            .field("algorithms", Value::Array(algorithms))
            .field("errorBudgets", Value::Array(budgets))
            .build();
        Matrix {
            sweep_json: sweep.to_string_compact(),
            items: ROWS * 6 * BUDGETS,
        }
    }

    /// The unsharded submission, as the in-process one-shot path takes it.
    pub fn submission(&self) -> String {
        format!("{{\"sweep\":{}}}", self.sweep_json)
    }

    /// A serve job line (newline-terminated): the whole matrix, optionally
    /// restricted to one shard, under the job id `id`.
    pub fn job_line(&self, id: &str, shard: Option<(usize, usize)>) -> String {
        match shard {
            Some((index, count)) => format!(
                "{{\"id\":\"{id}\",\"shard\":{{\"index\":{index},\"count\":{count}}},\"sweep\":{}}}\n",
                self.sweep_json
            ),
            None => format!("{{\"id\":\"{id}\",\"sweep\":{}}}\n", self.sweep_json),
        }
    }
}

/// One of the paper's Section V jobs.
pub struct PaperJob {
    /// Short name used in job ids (`fig3`, `fig4`).
    pub name: &'static str,
    /// The submission body (a `"sweep"` object document), without serve
    /// envelope.
    pub body: String,
    /// The multiplier entries in the order the job lists them.
    pub entries: Vec<(MulAlgorithm, usize)>,
}

impl PaperJob {
    /// The serve job line (newline-terminated) for this job under id `id`.
    pub fn job_line(&self, id: &str) -> String {
        // The body is `{"sweep":...}`; splice the id in as the first field.
        format!("{{\"id\":\"{id}\",{}\n", &self.body[1..])
    }
}

fn multiplication_entry(alg: MulAlgorithm, bits: usize) -> Value {
    ObjectBuilder::new()
        .field(
            "multiplication",
            ObjectBuilder::new()
                .field("algorithm", alg.name())
                .field("bits", bits as u64)
                .build(),
        )
        .build()
}

fn named(name: &str) -> Value {
    ObjectBuilder::new().field("name", name).build()
}

/// The two job lines of the paper's Section V: the Fig. 3 series (three
/// algorithms over [`FIG3_BITS`] on `qubit_maj_ns_e4` with the floquet
/// code) and the Fig. 4 sweep (three algorithms at 2048 bits on the six
/// default profiles), both at the paper's 1e-4 budget. The seed only
/// permutes the entry order.
pub fn paper_jobs(seed: u64) -> [PaperJob; 2] {
    let mut rng = Rng::new(seed);
    let mut fig3: Vec<(MulAlgorithm, usize)> = MulAlgorithm::ALL
        .iter()
        .flat_map(|&alg| FIG3_BITS.iter().map(move |&bits| (alg, bits)))
        .collect();
    rng.shuffle(&mut fig3);
    let mut fig4: Vec<(MulAlgorithm, usize)> = MulAlgorithm::ALL
        .iter()
        .map(|&alg| (alg, FIG4_BITS))
        .collect();
    rng.shuffle(&mut fig4);

    let algorithms = |entries: &[(MulAlgorithm, usize)]| -> Value {
        entries
            .iter()
            .map(|&(a, b)| multiplication_entry(a, b))
            .collect::<Vec<_>>()
            .into()
    };
    let fig3_body = ObjectBuilder::new()
        .field(
            "sweep",
            ObjectBuilder::new()
                .field("algorithms", algorithms(&fig3))
                .field("qubitParams", Value::Array(vec![named("qubit_maj_ns_e4")]))
                .field("qecSchemes", Value::Array(vec![named("floquet_code")]))
                .field("errorBudgets", Value::Array(vec![Value::from(1e-4)]))
                .build(),
        )
        .build();
    let fig4_body = ObjectBuilder::new()
        .field(
            "sweep",
            ObjectBuilder::new()
                .field("algorithms", algorithms(&fig4))
                .field("errorBudgets", Value::Array(vec![Value::from(1e-4)]))
                .build(),
        )
        .build();
    [
        PaperJob {
            name: "fig3",
            body: fig3_body.to_string_compact(),
            entries: fig3,
        },
        PaperJob {
            name: "fig4",
            body: fig4_body.to_string_compact(),
            entries: fig4,
        },
    ]
}
