//! Property-based tests for the estimation pipeline's invariants, plus the
//! engine-level metamorphic laws (budget monotonicity, frontier Pareto
//! properties, shard/merge equivalence, snapshot round trips).

use crate::budget::{ErrorBudget, PartitionSearch};
use crate::cache::FactoryCache;
use crate::engine::{merge_indexed, Estimator};
use crate::estimate::{Constraints, PhysicalResourceEstimation};
use crate::physical_qubit::PhysicalQubit;
use crate::qec::{QecScheme, QecSchemeKind};
use crate::request::{validated_budget, EstimateRequest, SweepPoint, SweepScheme, SweepSpec};
use crate::tfactory::{
    default_distillation_units, DistillationUnit, LogicalUnitSpec, PhysicalUnitSpec,
    TFactoryBuilder,
};
use proptest::prelude::*;
use qre_circuit::LogicalCounts;
use qre_expr::Formula;
use qre_json::{ObjectBuilder, Value};
use std::sync::Arc;

fn arb_counts() -> impl Strategy<Value = LogicalCounts> {
    (
        1u64..5_000,
        0u64..200_000,
        0u64..500,
        0u64..50_000,
        0u64..50_000,
        0u64..200_000,
    )
        .prop_map(|(q, t, r, ccz, ccix, m)| LogicalCounts {
            num_qubits: q,
            t_count: t,
            rotation_count: r,
            rotation_depth: r.min(64),
            ccz_count: ccz,
            ccix_count: ccix,
            measurement_count: m,
        })
}

fn arb_profile() -> impl Strategy<Value = (PhysicalQubit, QecSchemeKind)> {
    prop_oneof![
        Just((
            PhysicalQubit::qubit_gate_ns_e3(),
            QecSchemeKind::SurfaceCode
        )),
        Just((
            PhysicalQubit::qubit_gate_ns_e4(),
            QecSchemeKind::SurfaceCode
        )),
        Just((
            PhysicalQubit::qubit_gate_us_e3(),
            QecSchemeKind::SurfaceCode
        )),
        Just((
            PhysicalQubit::qubit_gate_us_e4(),
            QecSchemeKind::SurfaceCode
        )),
        Just((PhysicalQubit::qubit_maj_ns_e4(), QecSchemeKind::FloquetCode)),
        Just((PhysicalQubit::qubit_maj_ns_e6(), QecSchemeKind::FloquetCode)),
    ]
}

fn make(
    counts: LogicalCounts,
    profile: (PhysicalQubit, QecSchemeKind),
    budget: f64,
) -> PhysicalResourceEstimation {
    let scheme = QecScheme::resolve(profile.1, &profile.0).unwrap();
    PhysicalResourceEstimation {
        counts,
        qubit: profile.0,
        scheme,
        budget: ErrorBudget::from_total(budget).unwrap(),
        constraints: Constraints::default(),
        factory_builder: TFactoryBuilder::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants that every successful estimate obeys.
    #[test]
    fn estimate_invariants(
        counts in arb_counts(),
        profile in arb_profile(),
        budget_exp in 2u32..8,
    ) {
        let est = make(counts, profile, 10f64.powi(-(budget_exp as i32)));
        let Ok(r) = est.estimate() else {
            return Ok(()); // infeasible points are allowed to error
        };
        let b = &r.breakdown;
        // Totals add up.
        prop_assert_eq!(
            r.physical_counts.physical_qubits,
            b.physical_qubits_for_algorithm + b.physical_qubits_for_t_factories
        );
        // Algorithm footprint is logical qubits × code footprint.
        prop_assert_eq!(
            b.physical_qubits_for_algorithm,
            b.algorithmic_logical_qubits * r.logical_qubit.physical_qubits
        );
        // Odd distance within scheme limits.
        prop_assert!(r.logical_qubit.code_distance % 2 == 1);
        prop_assert!(r.logical_qubit.code_distance <= r.qec_scheme.max_code_distance);
        // The achieved logical error rate meets the requirement.
        prop_assert!(r.logical_qubit.logical_error_rate <= b.required_logical_error_rate);
        // Runtime consistency.
        let runtime = b.num_cycles as f64 * r.logical_qubit.cycle_time_ns;
        prop_assert!((r.physical_counts.runtime_ns - runtime).abs() <= 1.0);
        // Total logical failure within the logical budget.
        let total_logical_risk = r.logical_qubit.logical_error_rate
            * b.algorithmic_logical_qubits as f64
            * b.num_cycles as f64;
        prop_assert!(total_logical_risk <= r.error_budget.logical * (1.0 + 1e-9));
        // Factory output meets the T-state requirement.
        if let Some(f) = &r.t_factory {
            prop_assert!(f.output_error_rate <= b.required_t_state_error_rate.unwrap());
            // Enough factory runs fit in the runtime.
            let runs_per = (r.physical_counts.runtime_ns / f.duration_ns).floor() as u64;
            prop_assert!(runs_per >= 1);
            prop_assert!(b.num_t_factories * runs_per >= b.num_t_factory_runs);
        } else {
            prop_assert_eq!(b.physical_qubits_for_t_factories, 0);
        }
        // rQOPS identity (Section III-E).
        let rqops = b.algorithmic_logical_qubits as f64
            * r.logical_qubit.logical_cycles_per_second();
        prop_assert!((r.physical_counts.rqops - rqops).abs() / rqops < 1e-9);
    }

    /// Tightening the total budget never shrinks the code distance.
    #[test]
    fn distance_monotone_in_budget(
        counts in arb_counts(),
        profile in arb_profile(),
    ) {
        let loose = make(counts, profile.clone(), 1e-2).estimate();
        let tight = make(counts, profile, 1e-6).estimate();
        if let (Ok(a), Ok(b)) = (loose, tight) {
            prop_assert!(b.logical_qubit.code_distance >= a.logical_qubit.code_distance);
            prop_assert!(
                b.physical_counts.physical_qubits >= a.physical_counts.physical_qubits
            );
        }
    }

    /// Estimation is deterministic.
    #[test]
    fn estimate_deterministic(counts in arb_counts(), profile in arb_profile()) {
        let est = make(counts, profile, 1e-3);
        let a = est.estimate();
        let b = est.estimate();
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "nondeterministic success"),
        }
    }

    /// A factory-copy cap is always respected and only slows things down.
    #[test]
    fn factory_cap_respected(
        counts in arb_counts(),
        profile in arb_profile(),
        cap in 1u64..8,
    ) {
        let base = make(counts, profile.clone(), 1e-3);
        let Ok(r0) = base.estimate() else { return Ok(()) };
        if r0.breakdown.num_t_factories == 0 {
            return Ok(());
        }
        let mut capped = make(counts, profile, 1e-3);
        capped.constraints.max_t_factories = Some(cap);
        let Ok(r1) = capped.estimate() else { return Ok(()) };
        prop_assert!(r1.breakdown.num_t_factories <= cap);
        prop_assert!(
            r1.physical_counts.runtime_ns >= r0.physical_counts.runtime_ns * (1.0 - 1e-9)
        );
    }

    /// Scaling every gate count by k scales T-state demand by exactly k and
    /// never decreases runtime.
    #[test]
    fn workload_scaling(profile in arb_profile(), k in 2u64..10) {
        let counts = LogicalCounts {
            num_qubits: 100,
            t_count: 1_000,
            ccz_count: 500,
            measurement_count: 2_000,
            ..Default::default()
        };
        let scaled = counts.repeat(k);
        let a = make(counts, profile.clone(), 1e-3).estimate();
        let b = make(scaled, profile, 1e-3).estimate();
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert_eq!(b.breakdown.num_t_states, k * a.breakdown.num_t_states);
            prop_assert!(b.physical_counts.runtime_ns > a.physical_counts.runtime_ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level metamorphic laws: relations between whole estimation runs
// (budget tightening, frontier sweeps, sharded execution, cache snapshots)
// that must hold across the parameter space, not just at the paper's points.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tightening the total error budget never reduces the code distance,
    /// the physical qubit count, or the runtime — the ordering every
    /// budget-axis sweep figure relies on.
    #[test]
    fn budget_monotonicity(
        counts in arb_counts(),
        profile in arb_profile(),
        loose_exp in 2u32..6,
        extra_exp in 1u32..4,
    ) {
        let loose = make(counts, profile.clone(), 10f64.powi(-(loose_exp as i32)));
        let tight = make(
            counts,
            profile,
            10f64.powi(-((loose_exp + extra_exp) as i32)),
        );
        if let (Ok(a), Ok(b)) = (loose.estimate(), tight.estimate()) {
            prop_assert!(b.logical_qubit.code_distance >= a.logical_qubit.code_distance);
            prop_assert!(
                b.physical_counts.physical_qubits >= a.physical_counts.physical_qubits,
                "tighter budget shrank qubits: {} < {}",
                b.physical_counts.physical_qubits,
                a.physical_counts.physical_qubits
            );
            prop_assert!(
                b.physical_counts.runtime_ns >= a.physical_counts.runtime_ns,
                "tighter budget shrank runtime: {} < {}",
                b.physical_counts.runtime_ns,
                a.physical_counts.runtime_ns
            );
        }
    }

    /// Frontier points are mutually non-dominated (strictly fewer qubits
    /// must cost strictly more runtime) and every point is a genuine sweep
    /// member: re-estimating with that point's factory cap reproduces it.
    #[test]
    fn frontier_points_non_dominated_and_in_sweep(
        counts in arb_counts(),
        profile in arb_profile(),
    ) {
        let request = EstimateRequest::from_estimation(make(counts, profile, 1e-3));
        let estimation = &request.estimation;
        let engine = Estimator::new();
        let Ok(frontier) = engine.frontier(&request) else {
            return Ok(()); // infeasible scenarios have no frontier
        };
        prop_assert!(!frontier.is_empty());
        for pair in frontier.windows(2) {
            let (a, b) = (&pair[0].result.physical_counts, &pair[1].result.physical_counts);
            prop_assert!(
                a.physical_qubits > b.physical_qubits,
                "qubits must strictly decrease along the frontier"
            );
            prop_assert!(
                a.runtime_ns < b.runtime_ns,
                "runtime must strictly increase along the frontier"
            );
        }
        for point in &frontier {
            let mut capped = estimation.clone();
            // A T-free scenario's singleton frontier reports a zero cap;
            // `Some(0)` is not a valid constraint, and the unconstrained
            // estimate is already the membership witness there.
            if point.max_t_factories > 0 {
                capped.constraints.max_t_factories = Some(point.max_t_factories);
            }
            // Through the engine's cache: the shared factory design is
            // bit-identical to a cold search (proven by the cache suite),
            // so this is the sweep membership check at warm-cache cost.
            let direct = capped.estimate_with(engine.cache());
            prop_assert!(direct.is_ok(), "frontier kept an infeasible cap");
            prop_assert_eq!(&point.result, &direct.unwrap());
        }
    }

    /// Snapshot codec round trip: loading a snapshot document and
    /// re-snapshotting is the identity on entries, bit patterns included —
    /// for arbitrary stores, not just ones a real search produced.
    #[test]
    fn cache_snapshot_round_trip_is_identity(entries in arb_snapshot_entries()) {
        let distinct = entries.len();
        let doc = snapshot_doc(entries);
        let first = FactoryCache::new();
        prop_assert_eq!(first.load_snapshot(&doc).unwrap(), distinct);

        let snap1 = first.snapshot();
        // Through the printed form, as the file flow does.
        let reparsed = qre_json::parse(&snap1.to_string_compact()).unwrap();
        let second = FactoryCache::new();
        prop_assert_eq!(second.load_snapshot(&reparsed).unwrap(), distinct);
        let snap2 = second.snapshot();
        prop_assert_eq!(
            snap1.to_string_compact(),
            snap2.to_string_compact(),
            "save→load→save must be byte-stable"
        );
    }
}

proptest! {
    // Each case runs a fixed frontier plus a searched frontier (the whole
    // partition-grid × factory-cap sweep); a handful of random scenarios is
    // the coverage target.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Searching the error-budget partition can only help: the searched
    /// frontier weakly dominates the fixed-partition frontier
    /// point-for-point (for every fixed point some searched point is at
    /// least as good on *both* objectives), every searched point's
    /// partition conserves the request's total budget, and whenever the
    /// fixed frontier exists the searched one does too.
    #[test]
    fn searched_frontier_weakly_dominates_fixed_everywhere(
        counts in arb_counts(),
        profile in arb_profile(),
        budget_exp in 2u32..6,
    ) {
        let request = EstimateRequest::from_estimation(
            make(counts, profile, 10f64.powi(-(budget_exp as i32))),
        );
        let engine = Estimator::new();
        let Ok(fixed) = engine.frontier(&request) else {
            return Ok(()); // infeasible scenarios have no frontier
        };
        // The base partition is the searched grid's first point, so a
        // scenario with a fixed frontier always has a searched one.
        let searched = engine.frontier_searched(&request, &PartitionSearch::default());
        prop_assert!(searched.is_ok(), "searched frontier lost feasibility");
        let searched = searched.unwrap();
        for fp in &fixed {
            let (q, t) = (
                fp.result.physical_counts.physical_qubits,
                fp.result.physical_counts.runtime_ns,
            );
            // Exact comparisons: every fixed (budget, cap) point is a
            // member of the searched sweep, and estimation is
            // deterministic, so the dominating point is found bit-exactly.
            prop_assert!(
                searched.iter().any(|sp| {
                    sp.result.physical_counts.physical_qubits <= q
                        && sp.result.physical_counts.runtime_ns <= t
                }),
                "fixed point ({q} qubits, {t} ns) not weakly dominated"
            );
        }
        let total = request.estimation.budget.total();
        for sp in &searched {
            prop_assert!(
                (sp.budget.total() - total).abs() <= total * 1e-9,
                "searched point's partition must conserve the total budget"
            );
            prop_assert_eq!(
                &sp.budget,
                &sp.result.error_budget,
                "point provenance must match the result's own budget"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The branch-and-bound pipeline searcher is an exact optimisation of
    /// exhaustive enumeration: identical minimal-volume winner (or identical
    /// infeasibility), and identical winner again when the incumbent is
    /// seeded with an achievable bound — over random unit sets (physical-only, logical-only, multi-output,
    /// `first_round_only`), random search limits, and requirements spanning
    /// trivially reachable to unreachable.
    #[test]
    fn pruned_search_equals_exhaustive(
        units in arb_unit_set(),
        profile in arb_profile(),
        max_rounds in 1usize..4,
        half_distance in 2u32..8,
        required_exp in 1i32..26,
    ) {
        let (qubit, kind) = profile;
        let scheme = QecScheme::resolve(kind, &qubit).unwrap();
        let builder = TFactoryBuilder {
            units,
            max_rounds,
            max_code_distance: 2 * half_distance + 1,
        };
        let required = 10f64.powi(-required_exp);

        let (pruned, _stats) =
            builder.find_factory_with_stats(&qubit, &scheme, required, None);
        let exhaustive = builder.find_factory_exhaustive(&qubit, &scheme, required);
        match (pruned, exhaustive) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "minimal-volume winner diverged");
                // An achievable incumbent seed must not change the winner.
                let (seeded, _) = builder.find_factory_with_stats(
                    &qubit,
                    &scheme,
                    required,
                    Some(a.volume()),
                );
                prop_assert_eq!(&seeded.unwrap(), &b, "seeded winner diverged");
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "feasibility diverged: pruned ok={} exhaustive ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

proptest! {
    // Each case runs a full sweep twice (sharded and unsharded); a handful
    // of cases over random axes is the coverage target, not volume.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sweep split into shards and merged back is item-for-item the
    /// unsharded sweep — global indices, coordinates, and results — for
    /// arbitrary axis combinations and shard counts.
    #[test]
    fn sharded_sweep_equals_unsharded(
        spec in arb_sweep_spec(),
        shard_count in 1usize..6,
    ) {
        // One shared design store: determinism is proven elsewhere
        // (`estimate_deterministic`), so warm re-estimates keep this law
        // cheap without weakening it.
        let store = Arc::new(FactoryCache::new());
        let full = Estimator::with_cache(Arc::clone(&store)).sweep(&spec).unwrap();

        let per_shard: Vec<_> = spec
            .shard(shard_count)
            .unwrap()
            .iter()
            .map(|shard| {
                Estimator::with_cache(Arc::new(store.scoped()))
                    .sweep(shard)
                    .unwrap()
            })
            .collect();
        let merged = merge_indexed(per_shard, |o| o.point.index).unwrap();

        prop_assert_eq!(merged.len(), full.len());
        for (m, f) in merged.iter().zip(&full) {
            prop_assert_eq!(m.point.index, f.point.index);
            prop_assert_eq!(&m.point.workload, &f.point.workload);
            prop_assert_eq!(&m.point.profile, &f.point.profile);
            prop_assert_eq!(&m.point.scheme, &f.point.scheme);
            prop_assert_eq!(&m.outcome, &f.outcome);
        }
    }
}

proptest! {
    // Decoding never estimates, so cases are cheap.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index decoding is item-for-item the row-major nested loop: for every
    /// shard of arbitrary axes — empty optional axes, incompatible
    /// profile/scheme pairs and invalid budgets included — the decoded items
    /// carry the reference loop's index, coordinates, and assembled
    /// estimation inputs (or the same error).
    #[test]
    fn decoded_sweep_items_equal_the_nested_loop(
        spec in arb_decodable_spec(),
        shard_count in 1usize..6,
        shard_pick in 0usize..6,
    ) {
        let reference = nested_loop_items(&spec);
        let shard = spec.shard_of(shard_pick % shard_count, shard_count).unwrap();
        let items = shard.items().unwrap();
        let range = items.range.clone();
        prop_assert_eq!(range.len(), shard.len());
        for index in range.clone() {
            let (point, estimation) = items.item(index);
            let (want_point, want_estimation) = &reference[index];
            prop_assert_eq!(point.index, want_point.index);
            prop_assert_eq!(&point.workload, &want_point.workload);
            prop_assert_eq!(&point.profile, &want_point.profile);
            prop_assert_eq!(&point.scheme, &want_point.scheme);
            for (a, b) in [
                (point.budget.logical, want_point.budget.logical),
                (point.budget.t_states, want_point.budget.t_states),
                (point.budget.rotations, want_point.budget.rotations),
            ] {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(point.constraints, want_point.constraints);
            match (&estimation, want_estimation) {
                (Ok(a), Ok(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "decoded {a:?}, reference {b:?}"),
            }
        }
    }
}

/// The reference expansion: every item of the full product, built by the
/// row-major nested loop (workloads outermost, constraints innermost) with
/// per-item scheme resolution and budget validation.
fn nested_loop_items(
    spec: &SweepSpec,
) -> Vec<(SweepPoint, crate::Result<PhysicalResourceEstimation>)> {
    let schemes = if spec.schemes.is_empty() {
        vec![SweepScheme::ProfileDefault]
    } else {
        spec.schemes.clone()
    };
    let budgets = if spec.budgets.is_empty() {
        vec![ErrorBudget {
            logical: 1e-3 / 3.0,
            t_states: 1e-3 / 3.0,
            rotations: 1e-3 / 3.0,
        }]
    } else {
        spec.budgets.clone()
    };
    let constraints = if spec.constraints.is_empty() {
        vec![Constraints::default()]
    } else {
        spec.constraints.clone()
    };
    let mut items = Vec::new();
    for (workload, counts) in &spec.workloads {
        for qubit in &spec.profiles {
            for scheme_axis in &schemes {
                for budget in &budgets {
                    for constraint in &constraints {
                        let resolved = qubit.validate().and_then(|()| scheme_axis.resolve(qubit));
                        let point = SweepPoint {
                            index: items.len(),
                            workload: workload.clone(),
                            profile: qubit.name.clone(),
                            scheme: match &resolved {
                                Ok(scheme) => scheme.name.clone(),
                                Err(_) => scheme_axis.label(),
                            },
                            budget: *budget,
                            constraints: *constraint,
                        };
                        let estimation = resolved.and_then(|scheme| {
                            Ok(PhysicalResourceEstimation {
                                counts: *counts,
                                qubit: qubit.clone(),
                                scheme,
                                budget: validated_budget(budget)?,
                                constraints: *constraint,
                                factory_builder: spec.factory_builder.clone(),
                            })
                        });
                        items.push((point, estimation));
                    }
                }
            }
        }
    }
    items
}

/// [`arb_sweep_spec`] widened with the axes decoding must get right: an
/// optional scheme axis (empty, incompatible with gate-based profiles, or
/// mixed), an emptied or invalid-extended budget axis, and an optional
/// constraint axis.
fn arb_decodable_spec() -> impl Strategy<Value = SweepSpec> {
    (arb_sweep_spec(), 0usize..4, 0usize..3, 0usize..4).prop_map(
        |(mut spec, schemes, budgets, constraints)| {
            spec.schemes = match schemes {
                0 => vec![],
                1 => vec![SweepScheme::Kind(QecSchemeKind::FloquetCode)],
                2 => vec![
                    SweepScheme::Kind(QecSchemeKind::SurfaceCode),
                    SweepScheme::ProfileDefault,
                    SweepScheme::Kind(QecSchemeKind::FloquetCode),
                ],
                _ => vec![SweepScheme::Custom(QecScheme::surface_code_gate_based())],
            };
            match budgets {
                0 => spec.budgets.clear(),
                1 => spec = spec.total_error_budget(-1.0).total_error_budget(1e-3),
                _ => {}
            }
            spec.constraints = (0..constraints as u64)
                .map(|cap| Constraints {
                    max_t_factories: Some(cap + 1),
                    ..Constraints::default()
                })
                .collect();
            spec
        },
    )
}

/// One random distillation unit: integer-coefficient formulas in the paper's
/// shape (`a·e_in + b·p` failure, `c·e_inᵖ + d·p` output), optional
/// physical/logical specs (either may be absent), multi-output yields, and
/// a random `first_round_only` flag. Names are assigned per set.
fn arb_distillation_unit() -> impl Strategy<Value = DistillationUnit> {
    (
        (2u64..6, 50u64..400),         // failure: a·e_in + b·p
        (5u64..40, 2u32..4, 1u64..12), // output: c·e_in^p + d·p
        (4u64..16, 1u64..3),           // inputs consumed, outputs
        // physical (qubits, cycles), sometimes absent
        (any::<bool>(), 4u64..40, 5u64..50).prop_map(|(p, q, c)| p.then_some((q, c))),
        // logical (qubits, cycles), sometimes absent
        (any::<bool>(), 4u64..40, 2u64..20).prop_map(|(p, q, c)| p.then_some((q, c))),
        any::<bool>(), // first_round_only
    )
        .prop_map(
            |((fa, fb), (oc, op, od), (n_in, n_out), physical, logical, first)| DistillationUnit {
                name: String::new(),
                num_input_ts: n_in,
                num_output_ts: n_out,
                failure_probability: Formula::parse(&format!(
                    "{fa} * inputErrorRate + {fb} * cliffordErrorRate"
                ))
                .unwrap(),
                output_error_rate: Formula::parse(&format!(
                    "{oc} * inputErrorRate ^ {op} + {od} * cliffordErrorRate"
                ))
                .unwrap(),
                physical: physical.map(|(qubits, duration_cycles)| PhysicalUnitSpec {
                    qubits,
                    duration_cycles,
                }),
                logical: logical.map(
                    |(logical_qubits, duration_logical_cycles)| LogicalUnitSpec {
                        logical_qubits,
                        duration_logical_cycles,
                    },
                ),
                first_round_only: first,
            },
        )
}

/// Random unit sets for the search-equivalence law: usually one to three
/// random units (distinct names assigned by position), sometimes the real
/// built-in 15-to-1 family.
fn arb_unit_set() -> impl Strategy<Value = Vec<DistillationUnit>> {
    prop_oneof![
        3 => prop::collection::vec(arb_distillation_unit(), 1..4).prop_map(|mut units| {
            for (i, unit) in units.iter_mut().enumerate() {
                unit.name = format!("unit-{i}");
            }
            units
        }),
        1 => Just(default_distillation_units()),
    ]
}

/// Random multi-axis sweep specs over a compact value pool (so the shard
/// law explores axis shapes, not expensive scenario diversity).
fn arb_sweep_spec() -> impl Strategy<Value = SweepSpec> {
    let workload_axis = 1usize..3;
    let profile_axis = 1usize..4;
    let budget_axis = 1usize..3;
    (workload_axis, profile_axis, budget_axis, any::<bool>()).prop_map(
        |(workloads, profiles, budgets, include_floquet)| {
            let mut spec = SweepSpec::new();
            for (i, t_count) in [800u64, 2_400, 5_600].iter().take(workloads).enumerate() {
                spec = spec.workload(
                    format!("w{i}"),
                    LogicalCounts {
                        num_qubits: 24 + 8 * i as u64,
                        t_count: *t_count,
                        measurement_count: 1_000,
                        ..Default::default()
                    },
                );
            }
            // The floquet-pairing Majorana profile sits in the pool's
            // second slot, so any spec with ≥ 2 profiles can exercise the
            // mixed gate-based/Majorana scheme resolution.
            let second = if include_floquet {
                PhysicalQubit::qubit_maj_ns_e4()
            } else {
                PhysicalQubit::qubit_gate_ns_e4()
            };
            let pool = [
                PhysicalQubit::qubit_gate_ns_e3(),
                second,
                PhysicalQubit::qubit_gate_us_e3(),
            ];
            spec = spec.profiles(pool.into_iter().take(profiles));
            for budget in [1e-3, 1e-4].iter().take(budgets) {
                spec = spec.total_error_budget(*budget);
            }
            spec
        },
    )
}

/// Random snapshot `entries` arrays: structurally valid entries (the codec's
/// input contract) with arbitrary bit patterns, including non-finite floats
/// — distinct keys guaranteed by an embedded ordinal.
fn arb_snapshot_entries() -> impl Strategy<Value = Vec<Value>> {
    let round = (
        0u64..20,      // code distance (0 = physical round)
        1u64..1_000,   // copies
        any::<u64>(),  // input error rate bits
        any::<u64>(),  // output error rate bits
        1u64..100_000, // physical qubits per unit
        any::<u64>(),  // duration bits
    )
        .prop_map(
            |(distance, copies, in_bits, out_bits, qubits, duration_bits)| {
                ObjectBuilder::new()
                    .field("unit", "15-to-1 RM")
                    .field("codeDistance", distance)
                    .field("copies", copies)
                    .field("inputErrorRateBits", in_bits)
                    .field("outputErrorRateBits", out_bits)
                    .field("failureProbabilityBits", 0.5f64.to_bits())
                    .field("physicalQubitsPerUnit", qubits)
                    .field("durationNsBits", duration_bits)
                    .build()
            },
        );
    let design = (
        prop::collection::vec(round, 0..3),
        1u64..1_000_000, // physical qubits
        any::<u64>(),    // duration bits
        any::<u64>(),    // output error bits
        1u64..100,       // output T states
    )
        .prop_map(|(rounds, qubits, duration_bits, error_bits, t_states)| {
            ObjectBuilder::new()
                .field(
                    "design",
                    ObjectBuilder::new()
                        .field("physicalQubits", qubits)
                        .field("durationNsBits", duration_bits)
                        .field("outputErrorRateBits", error_bits)
                        .field("outputTStates", t_states)
                        .field("inputErrorRateBits", 1e-4f64.to_bits())
                        .field("rounds", Value::Array(rounds))
                        .build(),
                )
                .build()
        });
    let failure = any::<u64>().prop_map(|bits| {
        ObjectBuilder::new()
            .field(
                "noTFactory",
                ObjectBuilder::new().field("requiredBits", bits).build(),
            )
            .build()
    });
    let payload = prop_oneof![3 => design, 1 => failure];
    prop::collection::vec((prop::collection::vec(any::<u64>(), 0..6), payload), 0..8).prop_map(
        |entries| {
            entries
                .into_iter()
                .enumerate()
                .map(|(i, (words, payload))| {
                    let key = ObjectBuilder::new()
                        .field(
                            "words",
                            Value::Array(words.into_iter().map(Value::from).collect()),
                        )
                        // The ordinal keeps every generated key distinct.
                        .field("text", format!("entry-{i}"))
                        .build();
                    let mut entry = ObjectBuilder::new().field("key", key).build();
                    if let (Value::Object(pairs), Value::Object(tail)) = (&mut entry, payload) {
                        pairs.extend(tail);
                    }
                    entry
                })
                .collect()
        },
    )
}

/// Wrap generated entries in a well-formed snapshot document.
fn snapshot_doc(entries: Vec<Value>) -> Value {
    ObjectBuilder::new()
        .field("format", crate::cache::SNAPSHOT_FORMAT)
        .field("version", crate::cache::SNAPSHOT_VERSION)
        .field("entries", Value::Array(entries))
        .build()
}
