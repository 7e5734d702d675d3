//! Declarative estimation inputs: single requests and multi-axis sweeps.
//!
//! The paper's workloads are inherently batched — Figure 3 sweeps three
//! multipliers over ten bit-widths, Figure 4 sweeps six hardware profiles,
//! and the trade-off frontier re-estimates one scenario dozens of times — so
//! the estimation engine treats *many related estimates* as the unit of
//! work (the service's job arrays, Section IV-A). This module defines the
//! inputs:
//!
//! * [`EstimateRequest`] — one fully resolved scenario (a labelled
//!   [`PhysicalResourceEstimation`]), assembled through
//!   [`EstimateRequestBuilder`],
//! * [`SweepSpec`] — declared axes (workloads × hardware profiles × QEC
//!   schemes × error budgets × constraints) whose cartesian product the
//!   engine runs in deterministic row-major order, decoding each item from
//!   its index instead of materialising the product,
//! * [`SweepPoint`] — the coordinates of one sweep item, carried
//!   alongside its outcome so callers can attribute results without
//!   re-deriving the expansion order.

use crate::budget::ErrorBudget;
use crate::error::{Error, Result};
use crate::estimate::{Constraints, PhysicalResourceEstimation};
use crate::physical_qubit::{InstructionSet, PhysicalQubit};
use crate::qec::{QecScheme, QecSchemeKind};
use crate::tfactory::{DistillationUnit, TFactoryBuilder};
use qre_circuit::LogicalCounts;
use std::borrow::Cow;

/// One fully resolved estimation scenario.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// Free-form label for the caller's bookkeeping (may be empty);
    /// estimation ignores it.
    pub label: String,
    /// The assembled estimation task.
    pub estimation: PhysicalResourceEstimation,
}

impl EstimateRequest {
    /// Start building a request.
    pub fn builder() -> EstimateRequestBuilder {
        EstimateRequestBuilder::default()
    }

    /// Wrap an already-assembled estimation task.
    pub fn from_estimation(estimation: PhysicalResourceEstimation) -> Self {
        EstimateRequest {
            label: String::new(),
            estimation,
        }
    }
}

/// QEC selection: a built-in kind or a fully custom scheme.
#[derive(Debug, Clone)]
enum QecChoice {
    Kind(QecSchemeKind),
    Custom(QecScheme),
}

/// Budget selection: total (split in thirds) or explicit parts.
#[derive(Debug, Clone, Copy)]
enum BudgetChoice {
    Total(f64),
    Parts {
        logical: f64,
        t_states: f64,
        rotations: f64,
    },
}

/// Builder for [`EstimateRequest`]: the algorithm (as logical counts), a
/// hardware profile, a QEC scheme, an error budget, and optional constraints
/// — the job-submission shape of paper Section IV-A.
#[derive(Debug, Clone, Default)]
pub struct EstimateRequestBuilder {
    label: Option<String>,
    counts: Option<LogicalCounts>,
    profile: Option<PhysicalQubit>,
    qec: Option<QecChoice>,
    budget: Option<BudgetChoice>,
    constraints: Constraints,
    distillation_units: Option<Vec<DistillationUnit>>,
    max_factory_rounds: Option<usize>,
}

impl EstimateRequestBuilder {
    /// Free-form label for the caller's bookkeeping.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The algorithm, as pre-layout logical counts (Section IV-B.3; counts
    /// from the circuit tracer or QIR front end plug in here too).
    pub fn counts(mut self, counts: LogicalCounts) -> Self {
        self.counts = Some(counts);
        self
    }

    /// The hardware profile (Section IV-C.1).
    pub fn profile(mut self, profile: PhysicalQubit) -> Self {
        self.profile = Some(profile);
        self
    }

    /// A built-in QEC scheme, resolved against the profile's instruction set.
    pub fn qec(mut self, kind: QecSchemeKind) -> Self {
        self.qec = Some(QecChoice::Kind(kind));
        self
    }

    /// A fully custom QEC scheme (Section IV-C.2).
    pub fn qec_custom(mut self, scheme: QecScheme) -> Self {
        self.qec = Some(QecChoice::Custom(scheme));
        self
    }

    /// Total error budget, split evenly across logical / T states /
    /// rotations (Section IV-C.3).
    pub fn total_error_budget(mut self, total: f64) -> Self {
        self.budget = Some(BudgetChoice::Total(total));
        self
    }

    /// Explicit per-part error budgets.
    pub fn error_budget_parts(mut self, logical: f64, t_states: f64, rotations: f64) -> Self {
        self.budget = Some(BudgetChoice::Parts {
            logical,
            t_states,
            rotations,
        });
        self
    }

    /// Logical-cycle slowdown factor (≥ 1; Section IV-C.4).
    pub fn logical_depth_factor(mut self, factor: f64) -> Self {
        self.constraints.logical_depth_factor = Some(factor);
        self
    }

    /// Cap on parallel T-factory copies (Section IV-C.4).
    pub fn max_t_factories(mut self, max: u64) -> Self {
        self.constraints.max_t_factories = Some(max);
        self
    }

    /// Cap on total runtime in nanoseconds.
    pub fn max_duration_ns(mut self, max: f64) -> Self {
        self.constraints.max_duration_ns = Some(max);
        self
    }

    /// Cap on total physical qubits.
    pub fn max_physical_qubits(mut self, max: u64) -> Self {
        self.constraints.max_physical_qubits = Some(max);
        self
    }

    /// Replace the distillation unit set (Section IV-C.5).
    pub fn distillation_units(mut self, units: Vec<DistillationUnit>) -> Self {
        self.distillation_units = Some(units);
        self
    }

    /// Cap the number of distillation rounds.
    pub fn max_factory_rounds(mut self, rounds: usize) -> Self {
        self.max_factory_rounds = Some(rounds);
        self
    }

    /// Validate and assemble the request.
    pub fn build(self) -> Result<EstimateRequest> {
        let counts = self
            .counts
            .ok_or_else(|| Error::InvalidInput("missing algorithm counts".into()))?;
        let qubit = self
            .profile
            .ok_or_else(|| Error::InvalidInput("missing hardware profile".into()))?;
        qubit.validate()?;
        let scheme = match self
            .qec
            .ok_or_else(|| Error::InvalidInput("missing QEC scheme".into()))?
        {
            QecChoice::Kind(kind) => QecScheme::resolve(kind, &qubit)?,
            QecChoice::Custom(scheme) => scheme,
        };
        let budget = match self
            .budget
            .ok_or_else(|| Error::InvalidInput("missing error budget".into()))?
        {
            BudgetChoice::Total(total) => ErrorBudget::from_total(total)?,
            BudgetChoice::Parts {
                logical,
                t_states,
                rotations,
            } => ErrorBudget::from_parts(logical, t_states, rotations)?,
        };
        let mut factory_builder = TFactoryBuilder {
            units: self
                .distillation_units
                .unwrap_or_else(crate::tfactory::default_distillation_units),
            ..TFactoryBuilder::default()
        };
        if let Some(rounds) = self.max_factory_rounds {
            if rounds == 0 {
                return Err(Error::InvalidInput(
                    "maxFactoryRounds must be at least 1".into(),
                ));
            }
            factory_builder.max_rounds = rounds;
        }
        Ok(EstimateRequest {
            label: self.label.unwrap_or_default(),
            estimation: PhysicalResourceEstimation {
                counts,
                qubit,
                scheme,
                budget,
                constraints: self.constraints,
                factory_builder,
            },
        })
    }
}

/// One value on a sweep's QEC-scheme axis.
#[derive(Debug, Clone)]
pub enum SweepScheme {
    /// The paper's Figure 4 pairing: surface code for gate-based profiles,
    /// floquet code for Majorana profiles.
    ProfileDefault,
    /// A built-in kind, resolved against each profile's instruction set.
    Kind(QecSchemeKind),
    /// A fully custom scheme, used as-is for every profile.
    Custom(QecScheme),
}

impl SweepScheme {
    /// Resolve against a profile; errors (e.g. floquet on gate-based
    /// hardware) surface as the affected sweep item's outcome.
    pub(crate) fn resolve(&self, qubit: &PhysicalQubit) -> Result<QecScheme> {
        match self {
            SweepScheme::ProfileDefault => {
                let kind = match qubit.instruction_set {
                    InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
                    InstructionSet::Majorana => QecSchemeKind::FloquetCode,
                };
                QecScheme::resolve(kind, qubit)
            }
            SweepScheme::Kind(kind) => QecScheme::resolve(*kind, qubit),
            SweepScheme::Custom(scheme) => Ok(scheme.clone()),
        }
    }

    /// Axis label used in [`SweepPoint`] when resolution fails.
    pub(crate) fn label(&self) -> String {
        match self {
            SweepScheme::ProfileDefault => "default".into(),
            SweepScheme::Kind(QecSchemeKind::SurfaceCode) => "surface_code".into(),
            SweepScheme::Kind(QecSchemeKind::FloquetCode) => "floquet_code".into(),
            SweepScheme::Custom(scheme) => scheme.name.clone(),
        }
    }
}

/// One shard of a sweep's row-major expansion: shard `index` of `count`
/// owns a contiguous block of the expanded item range, with block sizes
/// balanced to within one item. Shard boundaries are a pure function of
/// `(index, count, total items)`, so `count` cooperating processes that
/// each apply their own shard to the *same* [`SweepSpec`] partition the
/// sweep deterministically with no coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (`0..count`).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Validate and build a shard descriptor. `count` must be at least 1
    /// and `index` strictly less than `count`.
    pub fn new(index: usize, count: usize) -> Result<Shard> {
        if count == 0 {
            return Err(Error::InvalidInput(
                "`shard.count` must be at least 1".into(),
            ));
        }
        if index >= count {
            return Err(Error::InvalidInput(format!(
                "`shard.index` must be less than `shard.count`, got index {index} with count {count}"
            )));
        }
        Ok(Shard { index, count })
    }

    /// The contiguous range of expanded item indices this shard owns, given
    /// the sweep's total item count. The first `total % count` shards get
    /// one extra item; with `count > total` the trailing shards are empty.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        let base = total / self.count;
        let remainder = total % self.count;
        let start = self.index * base + self.index.min(remainder);
        let len = base + usize::from(self.index < remainder);
        start..start + len
    }
}

/// Declared axes of a sweep; the engine runs the cartesian product
/// workloads × profiles × schemes × budgets × constraints in row-major
/// order (workloads outermost, constraints innermost).
///
/// Unset axes default to a single neutral value: the profile-default QEC
/// pairing, a 10⁻³ total error budget, and unconstrained execution. The
/// workload and profile axes are mandatory.
///
/// ```
/// use qre_core::{Estimator, PhysicalQubit, SweepSpec};
/// use qre_circuit::LogicalCounts;
///
/// let counts = LogicalCounts::builder()
///     .logical_qubits(50)
///     .t_gates(10_000)
///     .measurements(5_000)
///     .build();
/// let spec = SweepSpec::new()
///     .workload("demo", counts)
///     .profiles(PhysicalQubit::default_profiles())
///     .total_error_budget(1e-4);
/// let outcomes = Estimator::new().sweep(&spec).unwrap();
/// assert_eq!(outcomes.len(), 6);
/// assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Labelled workloads (pre-layout logical counts).
    pub workloads: Vec<(String, LogicalCounts)>,
    /// Hardware profiles.
    pub profiles: Vec<PhysicalQubit>,
    /// QEC schemes (default: the profile pairing).
    pub schemes: Vec<SweepScheme>,
    /// Error budgets (default: total 10⁻³ split in thirds).
    pub budgets: Vec<ErrorBudget>,
    /// Component constraints (default: unconstrained).
    pub constraints: Vec<Constraints>,
    /// T-factory search configuration shared by every item.
    pub factory_builder: TFactoryBuilder,
    /// Restrict execution to one shard of the row-major expansion (`None`
    /// runs the full product). Expanded [`SweepPoint`]s keep their *global*
    /// indices, so the union of all shards' outcomes is item-for-item the
    /// unsharded sweep.
    pub shard: Option<Shard>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty spec with neutral defaults on the optional axes.
    pub fn new() -> Self {
        SweepSpec {
            workloads: Vec::new(),
            profiles: Vec::new(),
            schemes: Vec::new(),
            budgets: Vec::new(),
            constraints: Vec::new(),
            factory_builder: TFactoryBuilder::default(),
            shard: None,
        }
    }

    /// Append one labelled workload.
    pub fn workload(mut self, label: impl Into<String>, counts: LogicalCounts) -> Self {
        self.workloads.push((label.into(), counts));
        self
    }

    /// Append many labelled workloads.
    pub fn workloads(mut self, items: impl IntoIterator<Item = (String, LogicalCounts)>) -> Self {
        self.workloads.extend(items);
        self
    }

    /// Append one hardware profile.
    pub fn profile(mut self, profile: PhysicalQubit) -> Self {
        self.profiles.push(profile);
        self
    }

    /// Append many hardware profiles.
    pub fn profiles(mut self, profiles: impl IntoIterator<Item = PhysicalQubit>) -> Self {
        self.profiles.extend(profiles);
        self
    }

    /// Append one scheme-axis value.
    pub fn scheme(mut self, scheme: SweepScheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Append a built-in QEC scheme kind to the scheme axis.
    pub fn qec(self, kind: QecSchemeKind) -> Self {
        self.scheme(SweepScheme::Kind(kind))
    }

    /// Append one explicit error budget.
    pub fn budget(mut self, budget: ErrorBudget) -> Self {
        self.budgets.push(budget);
        self
    }

    /// Append a whole error-budget axis (e.g. a searched partition grid).
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = ErrorBudget>) -> Self {
        self.budgets.extend(budgets);
        self
    }

    /// Append a total error budget (split in thirds). Invalid totals surface
    /// as [`Error::InvalidInput`] on the affected sweep items.
    pub fn total_error_budget(mut self, total: f64) -> Self {
        // Defer validation to the sweep run so the fluent chain stays infallible;
        // encode the pending total as an even split.
        self.budgets.push(ErrorBudget {
            logical: total / 3.0,
            t_states: total / 3.0,
            rotations: total / 3.0,
        });
        self
    }

    /// Append one constraint set.
    pub fn constraint(mut self, constraints: Constraints) -> Self {
        self.constraints.push(constraints);
        self
    }

    /// Append many constraint sets (the frontier's cap axis).
    pub fn constraint_axis(mut self, constraints: impl IntoIterator<Item = Constraints>) -> Self {
        self.constraints.extend(constraints);
        self
    }

    /// Replace the shared T-factory search configuration.
    pub fn factory_builder(mut self, builder: TFactoryBuilder) -> Self {
        self.factory_builder = builder;
        self
    }

    /// Restrict this spec to shard `index` of `count` (row-major contiguous
    /// partition; see [`Shard`]). Sharding an already-sharded spec is
    /// rejected — nested partitions of a partition are ambiguous.
    pub fn shard_of(mut self, index: usize, count: usize) -> Result<SweepSpec> {
        if self.shard.is_some() {
            return Err(Error::InvalidInput(
                "sweep is already sharded; shard the original spec instead".into(),
            ));
        }
        self.shard = Some(Shard::new(index, count)?);
        Ok(self)
    }

    /// Split this spec into `count` shards covering the whole row-major
    /// expansion: `spec.shard(n)[i]` equals `spec.shard_of(i, n)`. Shards
    /// beyond the item count come back empty ([`SweepSpec::len`] of 0), so
    /// `count` may exceed the number of expanded items. The join side is
    /// [`crate::merge_indexed`] in-process, or the `qre merge` CLI verb
    /// over the shard sessions' NDJSON output files.
    pub fn shard(&self, count: usize) -> Result<Vec<SweepSpec>> {
        (0..count)
            .map(|index| self.clone().shard_of(index, count))
            .collect::<Result<Vec<_>>>()
            .and_then(|shards| {
                if shards.is_empty() {
                    Err(Error::InvalidInput(
                        "`shard.count` must be at least 1".into(),
                    ))
                } else {
                    Ok(shards)
                }
            })
    }

    /// Number of items *this spec executes*: the shard's block when sharded,
    /// the whole cartesian product otherwise. A spec whose product does not
    /// fit in `usize` executes nothing — every execution path rejects it
    /// with the error [`SweepSpec::total_len`] returns — so its length is 0.
    pub fn len(&self) -> usize {
        self.item_range().map_or(0, |range| range.len())
    }

    /// Number of items the full cartesian product expands to, ignoring any
    /// shard restriction. A product that overflows `usize` is an
    /// [`Error::InvalidInput`] naming the axis lengths.
    pub fn total_len(&self) -> Result<usize> {
        let axes = [
            self.workloads.len(),
            self.profiles.len(),
            self.schemes.len().max(1),
            self.budgets.len().max(1),
            self.constraints.len().max(1),
        ];
        axes.iter()
            .try_fold(1usize, |product, &len| product.checked_mul(len))
            .ok_or_else(|| {
                let [w, p, s, b, c] = axes;
                Error::InvalidInput(format!(
                    "sweep of {w} workloads × {p} profiles × {s} QEC schemes × {b} error \
                     budgets × {c} constraints has more items than fit in a usize"
                ))
            })
    }

    /// The global item indices this spec executes: the shard's block when
    /// sharded, the whole product otherwise.
    fn item_range(&self) -> Result<std::ops::Range<usize>> {
        let total = self.total_len()?;
        Ok(match self.shard {
            Some(shard) => shard.range(total),
            None => 0..total,
        })
    }

    /// `true` when a mandatory axis is empty or the shard's block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve this spec for O(1) index decoding ([`SweepItems::item`]):
    /// scheme resolution per (profile, scheme) pair and validation per
    /// budget run once here. Only an empty mandatory axis or an overflowing
    /// product fails the whole sweep; item-level failures are reported in
    /// place by the decoded item.
    pub(crate) fn items(&self) -> Result<SweepItems<'_>> {
        if self.workloads.is_empty() {
            return Err(Error::InvalidInput(
                "sweep needs at least one workload".into(),
            ));
        }
        if self.profiles.is_empty() {
            return Err(Error::InvalidInput(
                "sweep needs at least one hardware profile".into(),
            ));
        }
        let range = self.item_range()?;
        let default_scheme = [SweepScheme::ProfileDefault];
        let scheme_axis = match self.schemes.as_slice() {
            [] => &default_scheme,
            axis => axis,
        };
        let schemes = self
            .profiles
            .iter()
            .flat_map(|qubit| scheme_axis.iter().map(move |axis| (qubit, axis)))
            .map(|(qubit, axis)| {
                let resolved = qubit.validate().and_then(|()| axis.resolve(qubit));
                let label = resolved
                    .as_ref()
                    .map_or_else(|_| axis.label(), |s| s.name.clone());
                (label, resolved)
            })
            .collect();
        let default_budget = [ErrorBudget::from_total(1e-3)?];
        let budget_axis = match self.budgets.as_slice() {
            [] => &default_budget,
            axis => axis,
        };
        Ok(SweepItems {
            spec: Cow::Borrowed(self),
            schemes,
            scheme_count: scheme_axis.len(),
            budgets: budget_axis
                .iter()
                .map(|b| (*b, validated_budget(b)))
                .collect(),
            range,
        })
    }
}

/// A [`SweepSpec`] resolved for decoding: item `i` of the row-major product
/// (workloads outermost, constraints innermost) is decoded by mixed radix
/// over the axis lengths, so a shard touches only its own indices plus
/// these per-sweep tables.
#[derive(Debug)]
pub(crate) struct SweepItems<'a> {
    spec: Cow<'a, SweepSpec>,
    /// `(point label, resolved scheme)` per (profile, scheme) pair.
    schemes: Vec<(String, Result<QecScheme>)>,
    scheme_count: usize,
    /// The budget axis (default applied), each value with its validation.
    budgets: Vec<(ErrorBudget, Result<ErrorBudget>)>,
    /// The global item indices this spec executes (its shard's block).
    pub(crate) range: std::ops::Range<usize>,
}

impl SweepItems<'_> {
    /// Detach from the borrowed spec, for execution off the calling thread.
    pub(crate) fn into_owned(self) -> SweepItems<'static> {
        SweepItems {
            spec: Cow::Owned(self.spec.into_owned()),
            schemes: self.schemes,
            scheme_count: self.scheme_count,
            budgets: self.budgets,
            range: self.range,
        }
    }

    /// Decode global item `index` into its coordinates and assembled
    /// estimation task. A failed scheme resolution takes precedence over an
    /// invalid budget.
    pub(crate) fn item(&self, index: usize) -> (SweepPoint, Result<PhysicalResourceEstimation>) {
        let spec = &*self.spec;
        let constraint_count = spec.constraints.len().max(1);
        let (rest, c) = (index / constraint_count, index % constraint_count);
        let (rest, b) = (rest / self.budgets.len(), rest % self.budgets.len());
        let (rest, s) = (rest / self.scheme_count, rest % self.scheme_count);
        let (w, p) = (rest / spec.profiles.len(), rest % spec.profiles.len());
        let (workload, counts) = &spec.workloads[w];
        let qubit = &spec.profiles[p];
        let (scheme_label, resolved) = &self.schemes[p * self.scheme_count + s];
        let (budget, validated) = &self.budgets[b];
        // An empty constraint axis is the single unconstrained value.
        let constraints = spec.constraints.get(c).copied().unwrap_or_default();
        let point = SweepPoint {
            index,
            workload: workload.clone(),
            profile: qubit.name.clone(),
            scheme: scheme_label.clone(),
            budget: *budget,
            constraints,
        };
        let estimation = resolved.clone().and_then(|scheme| {
            Ok(PhysicalResourceEstimation {
                counts: *counts,
                qubit: qubit.clone(),
                scheme,
                budget: validated.clone()?,
                constraints,
                factory_builder: spec.factory_builder.clone(),
            })
        });
        (point, estimation)
    }
}

/// Re-validate a sweep budget (fluent setters defer validation).
/// The total is checked first so a bad [`SweepSpec::total_error_budget`]
/// value is reported as the total the caller passed, not as a derived part.
pub(crate) fn validated_budget(budget: &ErrorBudget) -> Result<ErrorBudget> {
    let total = budget.total();
    if !(total.is_finite() && total > 0.0 && total < 1.0) {
        return Err(Error::InvalidInput(format!(
            "errorBudget total must lie strictly between 0 and 1, got {total}"
        )));
    }
    ErrorBudget::from_parts(budget.logical, budget.t_states, budget.rotations)
}

/// Coordinates of one expanded sweep item.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the expanded (row-major) order.
    pub index: usize,
    /// Workload label.
    pub workload: String,
    /// Hardware profile name.
    pub profile: String,
    /// Resolved QEC scheme name (or the axis label when resolution failed).
    pub scheme: String,
    /// Error budget of this item.
    pub budget: ErrorBudget,
    /// Constraints of this item.
    pub constraints: Constraints,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every item this spec executes, decoded in index order.
    fn decode(spec: &SweepSpec) -> Result<Vec<(SweepPoint, Result<PhysicalResourceEstimation>)>> {
        spec.items()
            .map(|items| items.range.clone().map(|i| items.item(i)).collect())
    }

    fn counts() -> LogicalCounts {
        LogicalCounts {
            num_qubits: 32,
            t_count: 2_000,
            measurement_count: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn expansion_is_row_major_and_complete() {
        let spec = SweepSpec::new()
            .workload("a", counts())
            .workload("b", counts())
            .profiles([
                PhysicalQubit::qubit_gate_ns_e3(),
                PhysicalQubit::qubit_maj_ns_e4(),
            ])
            .total_error_budget(1e-3)
            .total_error_budget(1e-4);
        assert_eq!(spec.len(), 8);
        let items = decode(&spec).unwrap();
        assert_eq!(items.len(), 8);
        // Workloads outermost, budgets inside profiles.
        assert_eq!(items[0].0.workload, "a");
        assert_eq!(items[0].0.profile, "qubit_gate_ns_e3");
        assert!((items[0].0.budget.total() - 1e-3).abs() < 1e-12);
        assert!((items[1].0.budget.total() - 1e-4).abs() < 1e-13);
        assert_eq!(items[2].0.profile, "qubit_maj_ns_e4");
        assert_eq!(items[4].0.workload, "b");
        for (i, (point, est)) in items.iter().enumerate() {
            assert_eq!(point.index, i);
            assert!(est.is_ok());
        }
        // The default pairing resolved per profile.
        assert_eq!(items[0].0.scheme, "surface_code");
        assert_eq!(items[2].0.scheme, "floquet_code");
    }

    #[test]
    fn incompatible_pairings_fail_in_place() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::FloquetCode);
        let items = decode(&spec).unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].1.is_err());
        assert_eq!(items[0].0.scheme, "floquet_code");
    }

    #[test]
    fn empty_mandatory_axes_are_rejected() {
        assert!(decode(&SweepSpec::new()).is_err());
        assert!(decode(&SweepSpec::new().workload("w", counts())).is_err());
        assert!(decode(&SweepSpec::new().profile(PhysicalQubit::qubit_gate_ns_e3())).is_err());
    }

    #[test]
    fn invalid_budget_fails_the_item_not_the_sweep() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .total_error_budget(1e-3)
            .total_error_budget(-1.0);
        let items = decode(&spec).unwrap();
        assert_eq!(items.len(), 2);
        assert!(items[0].1.is_ok());
        assert!(items[1].1.is_err());
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        // 10 items over 3 shards: 4 + 3 + 3, in order, no gaps.
        let ranges: Vec<_> = (0..3)
            .map(|i| Shard::new(i, 3).unwrap().range(10))
            .collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        // More shards than items: one item each, then empty tails.
        let ranges: Vec<_> = (0..5).map(|i| Shard::new(i, 5).unwrap().range(3)).collect();
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..3, 3..3]);
        // One shard is the whole range.
        assert_eq!(Shard::new(0, 1).unwrap().range(7), 0..7);
    }

    #[test]
    fn shard_validation_names_the_fields() {
        let err = Shard::new(0, 0).unwrap_err().to_string();
        assert!(err.contains("shard.count"), "{err}");
        let err = Shard::new(3, 3).unwrap_err().to_string();
        assert!(err.contains("shard.index"), "{err}");
        assert!(err.contains("shard.count"), "{err}");
    }

    fn multi_axis_spec() -> SweepSpec {
        SweepSpec::new()
            .workload("a", counts())
            .workload("b", counts())
            .profiles([
                PhysicalQubit::qubit_gate_ns_e3(),
                PhysicalQubit::qubit_maj_ns_e4(),
            ])
            .total_error_budget(1e-3)
            .total_error_budget(1e-4)
    }

    #[test]
    fn sharded_expansion_keeps_global_indices_and_unions_to_the_whole() {
        let spec = multi_axis_spec();
        assert_eq!(spec.total_len().unwrap(), 8);
        let full = decode(&spec).unwrap();

        let shards = spec.shard(3).unwrap();
        assert_eq!(shards.len(), 3);
        let lens: Vec<usize> = shards.iter().map(SweepSpec::len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
        assert_eq!(lens.iter().sum::<usize>(), spec.total_len().unwrap());

        let mut union: Vec<(SweepPoint, _)> = Vec::new();
        for shard in &shards {
            assert_eq!(shard.total_len().unwrap(), 8, "total_len ignores the shard");
            union.extend(decode(shard).unwrap());
        }
        union.sort_by_key(|(p, _)| p.index);
        assert_eq!(union.len(), full.len());
        for ((a, _), (b, _)) in union.iter().zip(&full) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.scheme, b.scheme);
        }
    }

    #[test]
    fn more_shards_than_items_leaves_trailing_shards_empty() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3());
        assert_eq!(spec.total_len().unwrap(), 1);
        let shards = spec.shard(4).unwrap();
        assert_eq!(shards[0].len(), 1);
        for shard in &shards[1..] {
            assert!(shard.is_empty());
            assert!(decode(shard).unwrap().is_empty());
        }
    }

    #[test]
    fn sharding_twice_is_rejected() {
        let spec = multi_axis_spec().shard_of(0, 2).unwrap();
        let err = spec.shard_of(1, 2).unwrap_err().to_string();
        assert!(err.contains("already sharded"), "{err}");
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(multi_axis_spec().shard(0).is_err());
        assert!(multi_axis_spec().shard_of(0, 0).is_err());
        assert!(multi_axis_spec().shard_of(2, 2).is_err());
    }

    #[test]
    fn overflowing_sweep_size_is_an_error_not_a_wrap() {
        // 8000^5 ≈ 3.3e19 > u64::MAX: the product must be rejected, never
        // wrapped (release) or panicked on (debug).
        const AXIS: usize = 8_000;
        let spec = SweepSpec::new()
            .workloads((0..AXIS).map(|i| (format!("w{i}"), counts())))
            .profiles(std::iter::repeat_n(PhysicalQubit::qubit_gate_ns_e3(), AXIS))
            .constraint_axis(std::iter::repeat_n(Constraints::default(), AXIS));
        let spec = (0..AXIS).fold(spec, |spec, _| {
            spec.qec(QecSchemeKind::SurfaceCode)
                .budget(ErrorBudget::from_total(1e-3).unwrap())
        });
        let err = spec.total_len().unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
        let message = err.to_string();
        assert_eq!(message.matches("8000").count(), 5, "{message}");
        assert_eq!(spec.len(), 0);
        assert!(spec.is_empty());
        assert!(decode(&spec).is_err());
        let sharded = spec.clone().shard_of(1, 3).unwrap();
        assert_eq!(sharded.len(), 0);
        assert!(decode(&sharded).is_err());
        let engine = crate::engine::Estimator::new();
        assert!(engine.sweep(&spec).is_err());
        assert!(engine.sweep_with(&spec, |_| {}).is_err());
        assert!(engine.sweep_stream(&spec).is_err());
    }

    #[test]
    fn a_shard_of_a_huge_sweep_decodes_only_its_block() {
        // 20k workloads × 1 profile × 10k budgets × 10k constraints = 2·10¹²
        // items: the product fits in a usize, but walking it would not
        // finish. A ten-item shard must cost ten items plus the tables.
        const WORKLOADS: usize = 20_000;
        const AXIS: usize = 10_000;
        let spec =
            SweepSpec::new()
                .workloads((0..WORKLOADS).map(|i| (format!("w{i}"), counts())))
                .profile(PhysicalQubit::qubit_gate_ns_e3())
                .budgets((0..AXIS).map(|i| {
                    ErrorBudget::from_total(1e-4 * (1.0 + i as f64 / AXIS as f64)).unwrap()
                }))
                .constraint_axis((0..AXIS).map(|i| Constraints {
                    max_t_factories: Some(i as u64 + 1),
                    ..Constraints::default()
                }));
        let total = spec.total_len().unwrap();
        assert_eq!(total, WORKLOADS * AXIS * AXIS);
        assert!(total > 1_000_000_000_000);

        let count = total / 10;
        let shard = spec.shard_of(count / 2 + 12_345, count).unwrap();
        let range = shard.shard.unwrap().range(total);
        assert_eq!(range.len(), 10);
        let outcomes = crate::engine::Estimator::new().sweep(&shard).unwrap();
        assert_eq!(outcomes.len(), 10);
        for (o, index) in outcomes.iter().zip(range) {
            assert_eq!(o.point.index, index);
            let (w, b, c) = (index / (AXIS * AXIS), index / AXIS % AXIS, index % AXIS);
            assert_eq!(o.point.workload, format!("w{w}"));
            assert_eq!(o.point.constraints.max_t_factories, Some(c as u64 + 1));
            let expected = 1e-4 * (1.0 + b as f64 / AXIS as f64);
            assert!((o.point.budget.total() - expected).abs() < 1e-15);
            assert!(o.outcome.is_ok(), "{:?}", o.outcome);
        }
    }

    fn request_builder() -> EstimateRequestBuilder {
        EstimateRequest::builder()
            .counts(counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
    }

    #[test]
    fn builder_requires_all_mandatory_fields() {
        assert!(EstimateRequest::builder().build().is_err());
        assert!(EstimateRequest::builder().counts(counts()).build().is_err());
        assert!(EstimateRequest::builder()
            .counts(counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .build()
            .is_err());
        assert!(EstimateRequest::builder()
            .counts(counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .build()
            .is_err());
        assert!(request_builder().build().is_ok());
    }

    #[test]
    fn floquet_on_gate_based_rejected_at_build() {
        let err = request_builder()
            .qec(QecSchemeKind::FloquetCode)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn invalid_factory_rounds_rejected() {
        let err = request_builder().max_factory_rounds(0).build().unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn custom_scheme_with_explicit_parts_and_zero_rotation_budget() {
        let request = request_builder()
            .qec_custom(QecScheme::surface_code_gate_based())
            .error_budget_parts(1e-4, 1e-4, 0.0)
            .build()
            .unwrap();
        let r = crate::engine::Estimator::new().estimate(&request).unwrap();
        assert_eq!(r.qec_scheme.name, "surface_code");
        assert_eq!(r.error_budget.rotations, 0.0);
    }

    #[test]
    fn end_to_end_with_constraints() {
        let request = request_builder()
            .profile(PhysicalQubit::qubit_maj_ns_e4())
            .qec(QecSchemeKind::FloquetCode)
            .total_error_budget(1e-4)
            .max_t_factories(2)
            .build()
            .unwrap();
        let r = crate::engine::Estimator::new().estimate(&request).unwrap();
        assert!(r.breakdown.num_t_factories <= 2);
        assert!(r.physical_counts.rqops > 0.0);
    }

    #[test]
    fn frontier_through_request_api() {
        let request = request_builder().build().unwrap();
        let frontier = crate::engine::Estimator::new().frontier(&request).unwrap();
        assert!(!frontier.is_empty());
    }

    #[test]
    fn request_builder_matches_job_semantics() {
        let req = EstimateRequest::builder()
            .label("demo")
            .counts(counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .max_t_factories(2)
            .build()
            .unwrap();
        assert_eq!(req.label, "demo");
        assert_eq!(req.estimation.constraints.max_t_factories, Some(2));
        let r = req.estimation.estimate().unwrap();
        assert!(r.breakdown.num_t_factories <= 2);
    }
}
