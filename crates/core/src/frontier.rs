//! Qubit/runtime trade-off frontier estimation.
//!
//! Beyond the single default estimate, the tool can explore the trade-off
//! the paper's Section IV-C.4 describes: slowing the computation down lets
//! fewer T-factory copies feed the same T-state demand, shrinking the qubit
//! footprint at the cost of runtime. [`Estimator::frontier`] sweeps the
//! factory-copy cap from the unconstrained optimum down to one copy and
//! returns the Pareto-optimal (physical qubits, runtime) points.
//!
//! [`Estimator::frontier_searched`] widens the search to the second design
//! axis the paper's Section IV-C.3 leaves free: the error-budget partition.
//! A deterministic [`PartitionSearch`] grid of ε_log/ε_dis splits (ε_syn
//! charged only when the program has rotations) is crossed with the cap
//! axis, and the whole two-axis product reduces to one exact Pareto set.
//! Because the request's own partition is always a grid point and its full
//! cap ladder is always explored, the searched frontier weakly dominates
//! the fixed-partition frontier point-for-point by construction.
//!
//! Both sweeps are expressed as [`SweepSpec`] axes and executed by
//! [`Estimator::sweep`] — the same parallel, cache-backed path as every
//! other batch workload — so the (expensive) T-factory design is searched
//! once per required-T-error family and shared by every re-estimate in that
//! family.

use crate::budget::{ErrorBudget, PartitionSearch};
use crate::engine::Estimator;
use crate::error::Result;
use crate::estimate::{Constraints, PhysicalResourceEstimation};
use crate::request::{SweepScheme, SweepSpec};
use crate::result::EstimationResult;

/// One point on the qubit/runtime frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The factory-copy cap that produced this point.
    pub max_t_factories: u64,
    /// The error-budget partition that produced this point (the request's
    /// own partition for fixed-partition frontiers).
    pub budget: ErrorBudget,
    /// The full estimate at that cap and partition.
    pub result: EstimationResult,
}

/// Frontier exploration through a caller-owned engine (the implementation
/// behind [`Estimator::frontier`] and [`Estimator::frontier_with`]).
///
/// Returns points sorted by descending physical qubits (i.e. ascending
/// runtime), reduced to the Pareto frontier. For T-free programs the result
/// is the single unconstrained estimate. `on_point` observes each cap
/// re-estimate in completion order, before the Pareto reduction drops
/// dominated and failed points.
pub(crate) fn frontier_via<F>(
    engine: &Estimator,
    estimation: &PhysicalResourceEstimation,
    on_point: F,
) -> Result<Vec<FrontierPoint>>
where
    F: FnMut(&crate::engine::SweepOutcome),
{
    let mut on_point = on_point;
    let base = estimation.estimate_with(engine.cache())?;
    let max_factories = base.breakdown.num_t_factories;
    if max_factories <= 1 {
        return Ok(vec![FrontierPoint {
            max_t_factories: max_factories,
            budget: estimation.budget,
            result: base,
        }]);
    }

    let caps = cap_ladder(max_factories);

    // The cap axis as a sweep over one scenario; infeasible caps report
    // their error in place and are dropped below.
    let spec = scenario_spec(estimation)
        .budget(estimation.budget)
        .constraint_axis(caps.iter().map(|&cap| Constraints {
            max_t_factories: Some(cap),
            ..estimation.constraints
        }));
    // The cap axis is the only multi-valued axis, so a sweep item's
    // expansion index is its cap index; stream outcomes to the observer and
    // stitch them back by that index.
    let mut slots: Vec<Option<crate::engine::SweepOutcome>> =
        (0..caps.len()).map(|_| None).collect();
    engine.sweep_with(&spec, |outcome| {
        on_point(&outcome);
        let index = outcome.point.index;
        slots[index] = Some(outcome);
    })?;

    let points: Vec<FrontierPoint> = caps
        .into_iter()
        .zip(slots)
        .filter_map(|(cap, item)| {
            item.expect("every sweep item delivered exactly once")
                .outcome
                .ok()
                .map(|result| FrontierPoint {
                    max_t_factories: cap,
                    budget: estimation.budget,
                    result,
                })
        })
        .collect();
    Ok(pareto_reduce(points))
}

/// Two-axis frontier exploration through a caller-owned engine (the
/// implementation behind [`Estimator::frontier_searched`]).
///
/// The candidate partitions come from `search`'s grid over the estimation's
/// own total budget (the estimation's partition is always the first grid
/// point); the cap axis is the union of every feasible partition's cap
/// ladder, so the fixed-partition frontier's entire search space is a
/// subset of this one and the result weakly dominates it point-for-point.
/// Returns points in the same descending-qubits order as [`frontier_via`],
/// each carrying the partition that produced it.
///
/// `on_point` observes every exploratory re-estimate in completion order:
/// first the per-partition unconstrained base estimates (one sweep over the
/// budget axis), then the full (partition × cap) product (a second sweep,
/// budgets outer and caps inner). Indices restart between the two sweeps.
pub(crate) fn frontier_searched_via<F>(
    engine: &Estimator,
    estimation: &PhysicalResourceEstimation,
    search: &PartitionSearch,
    on_point: F,
) -> Result<Vec<FrontierPoint>>
where
    F: FnMut(&crate::engine::SweepOutcome),
{
    let mut on_point = on_point;
    let has_rotations = estimation.counts.rotation_count > 0;
    let budgets = search.grid(&estimation.budget, has_rotations);

    // Phase 1: unconstrained base estimate per candidate partition, as one
    // budget-axis sweep — every partition family's factory design lands in
    // the shared cache before the two-axis product reuses it, and each
    // family's natural factory count sizes the cap axis below.
    let base_spec = scenario_spec(estimation)
        .budgets(budgets.iter().copied())
        .constraint(estimation.constraints);
    let mut bases: Vec<Option<Result<EstimationResult>>> =
        (0..budgets.len()).map(|_| None).collect();
    engine.sweep_with(&base_spec, |outcome| {
        on_point(&outcome);
        let index = outcome.point.index;
        bases[index] = Some(outcome.outcome);
    })?;
    let bases: Vec<Result<EstimationResult>> = bases
        .into_iter()
        .map(|slot| slot.expect("every sweep item delivered exactly once"))
        .collect();

    // If no candidate partition is feasible, surface the estimation's own
    // partition's error — the same failure the fixed frontier reports.
    if bases.iter().all(|b| b.is_err()) {
        let first = bases.into_iter().next().expect("grid is never empty");
        return Err(first.expect_err("all bases checked to be errors"));
    }

    // Cap axis: the union of each feasible partition's own ladder. A cap
    // above a partition's natural count is a non-binding constraint that
    // reproduces its unconstrained point, so every family's full trade-off
    // range — including the base point itself — is covered by the product.
    let mut caps: Vec<u64> = bases
        .iter()
        .filter_map(|b| b.as_ref().ok())
        .flat_map(|r| cap_ladder(r.breakdown.num_t_factories.max(1)))
        .collect();
    caps.sort_unstable();
    caps.dedup();

    // Phase 2: the full (partition × cap) product as one two-axis sweep.
    // Expansion is row-major with budgets outer and constraints inner, so a
    // sweep item's index is `budget_idx * caps.len() + cap_idx`.
    let spec = scenario_spec(estimation)
        .budgets(budgets.iter().copied())
        .constraint_axis(caps.iter().map(|&cap| Constraints {
            max_t_factories: Some(cap),
            ..estimation.constraints
        }));
    let mut slots: Vec<Option<crate::engine::SweepOutcome>> =
        (0..budgets.len() * caps.len()).map(|_| None).collect();
    engine.sweep_with(&spec, |outcome| {
        on_point(&outcome);
        let index = outcome.point.index;
        slots[index] = Some(outcome);
    })?;

    let mut points: Vec<FrontierPoint> = Vec::new();
    for (b_idx, budget) in budgets.iter().enumerate() {
        for (c_idx, &cap) in caps.iter().enumerate() {
            let slot = slots[b_idx * caps.len() + c_idx]
                .take()
                .expect("every sweep item delivered exactly once");
            if let Ok(result) = slot.outcome {
                points.push(FrontierPoint {
                    max_t_factories: cap,
                    budget: *budget,
                    result,
                });
            }
        }
    }
    Ok(pareto_reduce(points))
}

/// The scenario-under-sweep common to both frontier forms: one workload,
/// profile, scheme, and factory-search configuration, axes added by the
/// caller.
fn scenario_spec(estimation: &PhysicalResourceEstimation) -> SweepSpec {
    SweepSpec::new()
        .workload("frontier", estimation.counts)
        .profile(estimation.qubit.clone())
        .scheme(SweepScheme::Custom(estimation.scheme.clone()))
        .factory_builder(estimation.factory_builder.clone())
}

/// The factory-cap ladder from one copy up to `max_factories`: every value
/// when small, geometrically thinned (×5/4) when large, always ending at
/// `max_factories`.
fn cap_ladder(max_factories: u64) -> Vec<u64> {
    let mut caps: Vec<u64> = Vec::new();
    let mut f = 1u64;
    while f < max_factories {
        caps.push(f);
        f = if max_factories <= 32 {
            f + 1
        } else {
            (f * 5 / 4).max(f + 1)
        };
    }
    caps.push(max_factories);
    caps
}

/// Warn about non-finite runtimes, then keep only the Pareto-optimal points
/// in descending-qubits (ascending-runtime) order.
fn pareto_reduce(points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    // A non-finite runtime has no place on the frontier and would poison the
    // strict-improvement walk (every NaN comparison is false);
    // `pareto_indices` never selects such points — here we only warn.
    for p in &points {
        if !p.result.physical_counts.runtime_ns.is_finite() {
            eprintln!(
                "warning: dropping frontier point at max_t_factories={} with non-finite \
                 runtime {}",
                p.max_t_factories, p.result.physical_counts.runtime_ns
            );
        }
    }
    let kept = pareto_indices(
        &points
            .iter()
            .map(|p| {
                (
                    p.result.physical_counts.physical_qubits,
                    p.result.physical_counts.runtime_ns,
                )
            })
            .collect::<Vec<_>>(),
    );
    let mut points: Vec<Option<FrontierPoint>> = points.into_iter().map(Some).collect();
    kept.into_iter()
        .map(|i| points[i].take().expect("pareto indices are distinct"))
        .collect()
}

/// Pareto-reduce `(physical_qubits, runtime_ns)` pairs: the returned indices
/// select the non-dominated points, ordered by strictly decreasing qubits
/// and strictly increasing runtime. A point is dominated when another needs
/// no more qubits and no more runtime; among exact (qubits, runtime) ties
/// the earliest index survives. Non-finite runtimes are never selected.
fn pareto_indices(points: &[(u64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].1.is_finite())
        .collect();
    // Ascending qubits; ties broken by ascending runtime (total_cmp: no
    // NaN-induced incomparability even for the non-finite values filtered
    // above), then by index for a deterministic survivor.
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
            .then(a.cmp(&b))
    });
    // Walking from fewest qubits up, a point survives only by strictly
    // beating the best runtime seen so far: equal-qubit ties keep exactly
    // their fastest member, and spending more qubits must buy speed.
    let mut kept: Vec<usize> = Vec::new();
    let mut best_runtime = f64::INFINITY;
    for i in order {
        if points[i].1 < best_runtime {
            best_runtime = points[i].1;
            kept.push(i);
        }
    }
    // Restore the descending-qubits (ascending-runtime) frontier order.
    kept.reverse();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ErrorBudget;
    use crate::physical_qubit::PhysicalQubit;
    use crate::qec::QecScheme;
    use crate::tfactory::TFactoryBuilder;
    use qre_circuit::LogicalCounts;

    /// The fixed-partition frontier on a fresh engine.
    fn fixed_frontier(estimation: &PhysicalResourceEstimation) -> Result<Vec<FrontierPoint>> {
        frontier_via(&Estimator::new(), estimation, |_| {})
    }

    /// The searched frontier on a fresh engine.
    fn searched_frontier(estimation: &PhysicalResourceEstimation) -> Result<Vec<FrontierPoint>> {
        frontier_searched_via(
            &Estimator::new(),
            estimation,
            &PartitionSearch::default(),
            |_| {},
        )
    }

    fn estimation() -> PhysicalResourceEstimation {
        PhysicalResourceEstimation {
            counts: LogicalCounts {
                num_qubits: 100,
                t_count: 50_000,
                ccz_count: 20_000,
                measurement_count: 50_000,
                ..Default::default()
            },
            qubit: PhysicalQubit::qubit_gate_ns_e3(),
            scheme: QecScheme::surface_code_gate_based(),
            budget: ErrorBudget::from_total(1e-3).unwrap(),
            constraints: Constraints::default(),
            factory_builder: TFactoryBuilder::default(),
        }
    }

    #[test]
    fn frontier_is_monotone() {
        let frontier = fixed_frontier(&estimation()).unwrap();
        assert!(frontier.len() >= 2, "expected a real trade-off curve");
        for w in frontier.windows(2) {
            let (a, b) = (&w[0].result.physical_counts, &w[1].result.physical_counts);
            assert!(
                a.physical_qubits > b.physical_qubits,
                "qubits must strictly decrease along the frontier"
            );
            assert!(
                a.runtime_ns < b.runtime_ns,
                "runtime must strictly increase along the frontier"
            );
        }
    }

    #[test]
    fn frontier_ends_at_single_factory() {
        let frontier = fixed_frontier(&estimation()).unwrap();
        let last = frontier.last().unwrap();
        assert_eq!(last.result.breakdown.num_t_factories, 1);
    }

    #[test]
    fn frontier_contains_unconstrained_point() {
        let base = estimation().estimate().unwrap();
        let frontier = fixed_frontier(&estimation()).unwrap();
        let first = &frontier[0].result;
        assert_eq!(
            first.physical_counts.runtime_ns,
            base.physical_counts.runtime_ns
        );
    }

    #[test]
    fn t_free_program_has_singleton_frontier() {
        let mut est = estimation();
        est.counts = LogicalCounts {
            num_qubits: 10,
            measurement_count: 100,
            ..Default::default()
        };
        let frontier = fixed_frontier(&est).unwrap();
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn pareto_reduction_resolves_qubit_ties_to_one_survivor() {
        // Two points with equal qubit counts: the old strict-runtime walk
        // kept both, violating the strictly-decreasing-qubits invariant.
        let points = [(300, 50.0), (200, 100.0), (200, 80.0), (100, 400.0)];
        let kept = pareto_indices(&points);
        assert_eq!(kept, vec![0, 2, 3]);
        for w in kept.windows(2) {
            assert!(points[w[0]].0 > points[w[1]].0, "qubits strictly decrease");
            assert!(
                points[w[0]].1 < points[w[1]].1,
                "runtime strictly increases"
            );
        }
    }

    #[test]
    fn pareto_reduction_breaks_exact_ties_by_earliest_index() {
        let kept = pareto_indices(&[(200, 80.0), (200, 80.0)]);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn pareto_reduction_drops_non_finite_runtimes() {
        // A NaN runtime used to poison best_runtime (every comparison with
        // NaN is false), silently shadowing later points; infinities are
        // equally meaningless on the frontier.
        let points = [
            (400, f64::NAN),
            (300, 50.0),
            (250, f64::INFINITY),
            (200, 100.0),
        ];
        assert_eq!(pareto_indices(&points), vec![1, 3]);
        assert_eq!(pareto_indices(&[(10, f64::NAN)]), Vec::<usize>::new());
    }

    #[test]
    fn pareto_reduction_drops_dominated_points() {
        // (250, 70) dominates (300, 70): same runtime, fewer qubits.
        let points = [(300, 70.0), (250, 70.0), (200, 90.0)];
        assert_eq!(pareto_indices(&points), vec![1, 2]);
    }

    #[test]
    fn frontier_observer_sees_every_cap_outcome() {
        let engine = Estimator::new();
        let mut observed = Vec::new();
        let frontier = frontier_via(&engine, &estimation(), |o| {
            observed.push((o.point.index, o.outcome.is_ok()));
        })
        .unwrap();
        // Every cap re-estimate is observed (pre-reduction), so at least as
        // many outcomes as surviving frontier points, each exactly once.
        assert!(observed.len() >= frontier.len());
        let mut indices: Vec<usize> = observed.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..observed.len()).collect::<Vec<_>>());
    }

    #[test]
    fn searched_frontier_weakly_dominates_fixed() {
        let engine = Estimator::new();
        let est = estimation();
        let fixed = frontier_via(&engine, &est, |_| {}).unwrap();
        let searched =
            frontier_searched_via(&engine, &est, &PartitionSearch::default(), |_| {}).unwrap();
        for p in &fixed {
            let dominated = searched.iter().any(|q| {
                q.result.physical_counts.physical_qubits <= p.result.physical_counts.physical_qubits
                    && q.result.physical_counts.runtime_ns <= p.result.physical_counts.runtime_ns
            });
            assert!(
                dominated,
                "fixed point ({}, {}) not weakly dominated",
                p.result.physical_counts.physical_qubits, p.result.physical_counts.runtime_ns
            );
        }
    }

    #[test]
    fn searched_frontier_is_monotone_and_carries_partitions() {
        let est = estimation();
        let searched = searched_frontier(&est).unwrap();
        assert!(searched.len() >= 2);
        for w in searched.windows(2) {
            let (a, b) = (&w[0].result.physical_counts, &w[1].result.physical_counts);
            assert!(a.physical_qubits > b.physical_qubits);
            assert!(a.runtime_ns < b.runtime_ns);
        }
        for p in &searched {
            // Provenance: the partition that produced the point is the one
            // the estimate ran under, and shares the request's total.
            assert_eq!(p.budget, p.result.error_budget);
            assert!((p.budget.total() - est.budget.total()).abs() < 1e-12);
        }
    }

    #[test]
    fn searched_frontier_improves_on_fixed_for_rotation_free_program() {
        // The test workload has no rotations, so the default even-thirds
        // partition wastes a third of the budget on synthesis errors that
        // cannot occur; the grid reclaims it, and the searched frontier's
        // extreme points must strictly beat the fixed frontier's.
        let engine = Estimator::new();
        let est = estimation();
        assert_eq!(est.counts.rotation_count, 0);
        let fixed = frontier_via(&engine, &est, |_| {}).unwrap();
        let searched =
            frontier_searched_via(&engine, &est, &PartitionSearch::default(), |_| {}).unwrap();
        let min_qubits = |f: &[FrontierPoint]| {
            f.iter()
                .map(|p| p.result.physical_counts.physical_qubits)
                .min()
                .unwrap()
        };
        let min_runtime = |f: &[FrontierPoint]| {
            f.iter()
                .map(|p| p.result.physical_counts.runtime_ns)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_qubits(&searched) <= min_qubits(&fixed));
        assert!(min_runtime(&searched) <= min_runtime(&fixed));
        assert!(
            min_qubits(&searched) < min_qubits(&fixed)
                || min_runtime(&searched) < min_runtime(&fixed),
            "reclaiming the synthesis slice should improve at least one extreme"
        );
    }

    #[test]
    fn searched_frontier_handles_rotation_workloads() {
        let mut est = estimation();
        est.counts = LogicalCounts {
            num_qubits: 80,
            t_count: 20_000,
            measurement_count: 30_000,
            rotation_count: 500,
            rotation_depth: 500,
            ..Default::default()
        };
        let searched = searched_frontier(&est).unwrap();
        assert!(!searched.is_empty());
        for p in &searched {
            assert!(
                p.budget.rotations > 0.0,
                "rotation workloads must keep a synthesis slice"
            );
        }
    }

    #[test]
    fn searched_frontier_singleton_for_t_free_program() {
        let mut est = estimation();
        est.counts = LogicalCounts {
            num_qubits: 10,
            measurement_count: 100,
            ..Default::default()
        };
        let searched = searched_frontier(&est).unwrap();
        // Partitions differ only in slices a T-free program never spends,
        // except ε_log — the Pareto set collapses to the best logical slice.
        assert_eq!(searched.len(), 1);
        let fixed = fixed_frontier(&est).unwrap();
        assert!(
            searched[0].result.physical_counts.physical_qubits
                <= fixed[0].result.physical_counts.physical_qubits
        );
    }

    #[test]
    fn searched_frontier_observer_sees_both_phases() {
        let engine = Estimator::new();
        let mut observed = 0usize;
        let est = estimation();
        let grid_len = PartitionSearch::default().grid(&est.budget, false).len();
        let searched = frontier_searched_via(&engine, &est, &PartitionSearch::default(), |_| {
            observed += 1;
        })
        .unwrap();
        // Phase 1 contributes one outcome per grid partition; phase 2 the
        // full (partition × cap) product.
        assert!(observed > grid_len);
        assert_eq!((observed - grid_len) % grid_len, 0);
        assert!(searched.len() <= observed);
    }
}
