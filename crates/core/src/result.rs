//! Estimation results: the eight output groups of paper Section IV-D.

use crate::budget::ErrorBudget;
use crate::physical_qubit::PhysicalQubit;
use crate::qec::{LogicalQubit, QecScheme};
use crate::tfactory::TFactory;
use qre_circuit::LogicalCounts;
use qre_json::{Value, WriteJson, Writer};
use std::fmt::Write as _;

/// Group 1: the headline physical resource estimates (Section IV-D.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalCounts {
    /// Total physical qubits (algorithm + T factories).
    pub physical_qubits: u64,
    /// Algorithm runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Reliable quantum operations per second (Section III-E).
    pub rqops: f64,
}

/// Group 2: the resource-estimates breakdown (Section IV-D.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBreakdown {
    /// Post-layout logical qubits `Q_alg`.
    pub algorithmic_logical_qubits: u64,
    /// Algorithmic logical depth `C` before any stretching.
    pub algorithmic_depth: u64,
    /// Executed logical cycles (equals `C` unless stretched by constraints).
    pub num_cycles: u64,
    /// The stretch factor actually applied (≥ 1).
    pub logical_depth_factor: f64,
    /// Logical clock frequency (cycles per second).
    pub clock_frequency_hz: f64,
    /// Total T states consumed.
    pub num_t_states: u64,
    /// T-factory copies running in parallel.
    pub num_t_factories: u64,
    /// Total factory invocations across all copies.
    pub num_t_factory_runs: u64,
    /// Physical qubits serving the algorithm.
    pub physical_qubits_for_algorithm: u64,
    /// Physical qubits serving the factories.
    pub physical_qubits_for_t_factories: u64,
    /// Required logical error rate per qubit per cycle.
    pub required_logical_error_rate: f64,
    /// Required T-state error rate (absent for T-free programs).
    pub required_t_state_error_rate: Option<f64>,
    /// T states per arbitrary rotation (0 without rotations).
    pub t_states_per_rotation: u64,
}

/// A complete estimation result: all output groups of Section IV-D.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationResult {
    /// Group 1: physical resource estimates.
    pub physical_counts: PhysicalCounts,
    /// Group 2: breakdown.
    pub breakdown: ResourceBreakdown,
    /// Group 3: logical qubit parameters.
    pub logical_qubit: LogicalQubit,
    /// The QEC scheme behind group 3.
    pub qec_scheme: QecScheme,
    /// Group 4: T factory parameters (absent when raw T states suffice or
    /// the program is T-free).
    pub t_factory: Option<TFactory>,
    /// Group 5: pre-layout logical resources.
    pub pre_layout: LogicalCounts,
    /// Group 6: assumed error budget.
    pub error_budget: ErrorBudget,
    /// Group 7: physical qubit parameters.
    pub physical_qubit: PhysicalQubit,
    /// Group 8: assumptions of the estimation process.
    pub assumptions: Vec<String>,
}

impl EstimationResult {
    /// Render all eight groups as a JSON document (the service's result
    /// contract), as written by [`WriteJson`].
    pub fn to_json(&self) -> Value {
        qre_json::to_value(self)
    }

    /// Write the result document's members into an object the caller has
    /// open: the single definition of the eight groups and their order.
    /// Records that lead with their own fields (a serve job id, a batch
    /// index) splice the result in through this.
    pub fn write_fields(&self, w: &mut Writer) {
        w.field("status", "success");
        w.key("physicalCounts");
        w.object(|w| {
            w.field("physicalQubits", self.physical_counts.physical_qubits);
            w.field("runtimeNs", self.physical_counts.runtime_ns);
            w.field("rqops", self.physical_counts.rqops);
        });
        let b = &self.breakdown;
        w.key("breakdown");
        w.object(|w| {
            w.field("algorithmicLogicalQubits", b.algorithmic_logical_qubits);
            w.field("algorithmicLogicalDepth", b.algorithmic_depth);
            w.field("numCycles", b.num_cycles);
            w.field("logicalDepthFactor", b.logical_depth_factor);
            w.field("clockFrequencyHz", b.clock_frequency_hz);
            w.field("numTstates", b.num_t_states);
            w.field("numTfactories", b.num_t_factories);
            w.field("numTfactoryRuns", b.num_t_factory_runs);
            w.field(
                "physicalQubitsForAlgorithm",
                b.physical_qubits_for_algorithm,
            );
            w.field(
                "physicalQubitsForTfactories",
                b.physical_qubits_for_t_factories,
            );
            w.field(
                "requiredLogicalQubitErrorRate",
                b.required_logical_error_rate,
            );
            w.field_opt("requiredTstateErrorRate", b.required_t_state_error_rate);
            w.field("numTstatesPerRotation", b.t_states_per_rotation);
        });
        w.key("logicalQubit");
        w.object(|w| {
            w.field("codeDistance", self.logical_qubit.code_distance);
            w.field("physicalQubits", self.logical_qubit.physical_qubits);
            w.field("logicalCycleTimeNs", self.logical_qubit.cycle_time_ns);
            w.field("logicalErrorRate", self.logical_qubit.logical_error_rate);
            w.field("qecScheme", &self.qec_scheme);
        });
        w.field_opt("tfactory", self.t_factory.as_ref());
        w.field("preLayoutLogicalResources", self.pre_layout);
        w.field("errorBudget", self.error_budget);
        w.field("physicalQubitParameters", &self.physical_qubit);
        w.field("assumptions", self.assumptions.as_slice());
    }

    /// Human-readable report covering every output group.
    pub fn to_report(&self) -> String {
        let mut out = String::with_capacity(2048);
        let b = &self.breakdown;
        let _ = writeln!(out, "Physical resource estimates");
        let _ = writeln!(
            out,
            "  Runtime:                      {}",
            format_duration_ns(self.physical_counts.runtime_ns)
        );
        let _ = writeln!(
            out,
            "  rQOPS:                        {}",
            format_sci(self.physical_counts.rqops)
        );
        let _ = writeln!(
            out,
            "  Physical qubits:              {}",
            group_digits(self.physical_counts.physical_qubits)
        );
        let _ = writeln!(out, "Resource estimates breakdown");
        let _ = writeln!(
            out,
            "  Logical algorithmic qubits:   {}",
            group_digits(b.algorithmic_logical_qubits)
        );
        let _ = writeln!(
            out,
            "  Algorithmic depth:            {}",
            group_digits(b.algorithmic_depth)
        );
        let _ = writeln!(
            out,
            "  Executed cycles:              {}",
            group_digits(b.num_cycles)
        );
        let _ = writeln!(
            out,
            "  Logical clock frequency:      {} Hz",
            format_sci(b.clock_frequency_hz)
        );
        let _ = writeln!(
            out,
            "  T states:                     {}",
            group_digits(b.num_t_states)
        );
        let _ = writeln!(
            out,
            "  T factories:                  {}",
            group_digits(b.num_t_factories)
        );
        let _ = writeln!(
            out,
            "  Qubits (algorithm/factories): {} / {}",
            group_digits(b.physical_qubits_for_algorithm),
            group_digits(b.physical_qubits_for_t_factories)
        );
        let _ = writeln!(out, "Logical qubit parameters");
        let _ = writeln!(
            out,
            "  QEC scheme:                   {}",
            self.qec_scheme.name
        );
        let _ = writeln!(
            out,
            "  Code distance:                {}",
            self.logical_qubit.code_distance
        );
        let _ = writeln!(
            out,
            "  Physical qubits per logical:  {}",
            group_digits(self.logical_qubit.physical_qubits)
        );
        let _ = writeln!(
            out,
            "  Logical cycle time:           {}",
            format_duration_ns(self.logical_qubit.cycle_time_ns)
        );
        let _ = writeln!(
            out,
            "  Logical error rate:           {}",
            format_sci(self.logical_qubit.logical_error_rate)
        );
        match &self.t_factory {
            Some(f) => {
                let _ = writeln!(out, "T factory parameters");
                let _ = writeln!(out, "  Rounds:                       {}", f.num_rounds());
                let _ = writeln!(
                    out,
                    "  Physical qubits per factory:  {}",
                    group_digits(f.physical_qubits)
                );
                let _ = writeln!(
                    out,
                    "  Factory runtime:              {}",
                    format_duration_ns(f.duration_ns)
                );
                let _ = writeln!(
                    out,
                    "  Output T-state error rate:    {}",
                    format_sci(f.output_error_rate)
                );
                for (i, r) in f.rounds.iter().enumerate() {
                    let level = match r.level {
                        crate::tfactory::RoundLevel::Physical => "physical".to_string(),
                        crate::tfactory::RoundLevel::Logical { code_distance } => {
                            format!("logical d={code_distance}")
                        }
                    };
                    let _ = writeln!(
                        out,
                        "  Round {}: {} × {} ({level})",
                        i + 1,
                        group_digits(r.copies),
                        r.unit_name
                    );
                }
            }
            None => {
                let _ = writeln!(out, "T factory parameters");
                let _ = writeln!(out, "  (no distillation required)");
            }
        }
        let p = &self.pre_layout;
        let _ = writeln!(out, "Pre-layout logical resources");
        let _ = writeln!(
            out,
            "  Logical qubits:               {}",
            group_digits(p.num_qubits)
        );
        let _ = writeln!(
            out,
            "  T gates:                      {}",
            group_digits(p.t_count)
        );
        let _ = writeln!(
            out,
            "  Rotation gates (depth):       {} ({})",
            group_digits(p.rotation_count),
            group_digits(p.rotation_depth)
        );
        let _ = writeln!(
            out,
            "  CCZ / CCiX gates:             {} / {}",
            group_digits(p.ccz_count),
            group_digits(p.ccix_count)
        );
        let _ = writeln!(
            out,
            "  Measurements:                 {}",
            group_digits(p.measurement_count)
        );
        let eb = &self.error_budget;
        let _ = writeln!(out, "Assumed error budget");
        let _ = writeln!(
            out,
            "  Total:                        {}",
            format_sci(eb.total())
        );
        let _ = writeln!(
            out,
            "  Logical:                      {}",
            format_sci(eb.logical)
        );
        let _ = writeln!(
            out,
            "  T states:                     {}",
            format_sci(eb.t_states)
        );
        let _ = writeln!(
            out,
            "  Rotations:                    {}",
            format_sci(eb.rotations)
        );
        let _ = writeln!(out, "Physical qubit parameters");
        let _ = writeln!(
            out,
            "  Profile:                      {} ({})",
            self.physical_qubit.name,
            self.physical_qubit.instruction_set.name()
        );
        let _ = writeln!(
            out,
            "  Clifford error rate:          {}",
            format_sci(self.physical_qubit.clifford_error_rate())
        );
        let _ = writeln!(
            out,
            "  T gate error rate:            {}",
            format_sci(self.physical_qubit.t_gate_error)
        );
        let _ = writeln!(out, "Assumptions");
        for a in &self.assumptions {
            let _ = writeln!(out, "  - {a}");
        }
        out
    }
}

/// The result document: every output group of Section IV-D.
impl WriteJson for EstimationResult {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| self.write_fields(w));
    }
}

/// Format a nanosecond duration with a natural unit.
pub fn format_duration_ns(ns: f64) -> String {
    const UNITS: [(f64, &str); 6] = [
        (1e9 * 86_400.0, "days"),
        (1e9 * 3_600.0, "hours"),
        (1e9, "s"),
        (1e6, "ms"),
        (1e3, "µs"),
        (1.0, "ns"),
    ];
    for (scale, unit) in UNITS {
        if ns >= scale {
            return format!("{:.2} {unit}", ns / scale);
        }
    }
    format!("{ns:.2} ns")
}

/// Scientific-notation formatting for rates and frequencies.
pub fn format_sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.2e}")
    }
}

/// Thousands separators for counts.
pub fn group_digits(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration_ns(12.0), "12.00 ns");
        assert_eq!(format_duration_ns(4_500.0), "4.50 µs");
        assert_eq!(format_duration_ns(2.5e6), "2.50 ms");
        assert_eq!(format_duration_ns(1.2e10), "12.00 s");
        assert_eq!(format_duration_ns(7.2e12), "2.00 hours");
        assert_eq!(format_duration_ns(2.0 * 86_400.0 * 1e9), "2.00 days");
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(20_597), "20,597");
        assert_eq!(group_digits(1_234_567_890), "1,234,567,890");
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(1.12e11), "1.12e11");
        assert_eq!(format_sci(3.33e-5), "3.33e-5");
    }
}
