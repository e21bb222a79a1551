//! Dynamic Circuit Partition (DCP) — paper §3.2.
//!
//! One planner over a **prefix-cost vector**: `costs[i]` prices the first
//! `i` gates. By default the price is `i` itself, the paper's gate units;
//! under [`DcpConfig::plan_aware`] it is the fused amplitude-pass count of
//! the compiled prefix. DCP then operates in two phases: (1) the first
//! subcircuit is the shortest prefix whose cost covers the state-copy cost,
//! and its shot count `A0` comes from the statistical sample-size bound
//! (Eq. 5) applied to the prefix's aggregate error rate (Eq. 4); (2) the
//! remainder is cut into `k` subcircuits of equal cost and uniform arity
//! `Ar = ⌊(N/A0)^{1/k}⌋ ≥ 2` (Eq. 6), with `k` capped by the shot budget,
//! by one copy's cost per subcircuit and by one gate per subcircuit, and
//! `A0` raised until the tree yields at least `N` outcomes.

use crate::partition::{Partition, PlanError};
use crate::tree::TreeStructure;
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;

/// Confidence level `z` for Eq. 5 (1.96 ≙ 95 %).
pub const CONFIDENCE_Z: f64 = 1.96;

/// Tunables of the DCP planner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcpConfig {
    /// Margin of error `ε` for Eq. 5.
    pub margin: f64,
    /// State-copy cost in the units of the cost vector: gate-equivalents
    /// by default (Fig. 10; measure with [`tqsim_statevec::profile`] or take
    /// a [`tqsim_statevec::CostProfile`] ratio), amplitude passes under
    /// `plan_aware`. Rounded up to a whole step of at least 1, it is also
    /// the cost each subcircuit after the first must pay for (§3.6).
    pub copy_cost: f64,
    /// Selects the cost vector, and nothing else: `false` charges a prefix
    /// its source gate count (the paper's plans), `true` its compiled
    /// amplitude-pass count (the fusion-aware
    /// [`tqsim_statevec::CompiledCircuit::amp_pass_estimate`] of the
    /// prefix), so cuts favour fusion-friendly splits and land on
    /// equal-pass quantiles.
    pub plan_aware: bool,
}

impl Default for DcpConfig {
    fn default() -> Self {
        DcpConfig {
            margin: 0.03,
            copy_cost: 20.0,
            plan_aware: false,
        }
    }
}

impl DcpConfig {
    /// Validate parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadConfig`] unless `ε` and the copy cost are
    /// both finite and positive.
    pub fn validate(&self) -> Result<(), PlanError> {
        let ok = |x: f64| x.is_finite() && x > 0.0;
        if !(ok(self.margin) && ok(self.copy_cost)) {
            return Err(PlanError::BadConfig(format!(
                "margin={}, copy_cost={} must both be finite and positive",
                self.margin, self.copy_cost
            )));
        }
        Ok(())
    }
}

/// Eq. 5: minimum sample size for a finite population of `n_shots` with
/// estimated proportion `p_hat`, confidence `z` and margin `margin`.
///
/// Clamped to `[1, n_shots]`.
pub fn sample_size(z: f64, margin: f64, p_hat: f64, n_shots: u64) -> u64 {
    let p = p_hat.clamp(1e-12, 1.0 - 1e-12);
    let raw = z * z * p * (1.0 - p) / (margin * margin);
    let corrected = raw / (1.0 + raw / n_shots as f64);
    (corrected.ceil() as u64).clamp(1, n_shots)
}

/// Eq. 4: aggregate error rate `1 − ∏(1 − e_i)` of a gate slice.
pub fn aggregate_error_rate(
    circuit: &Circuit,
    range: std::ops::Range<usize>,
    noise: &NoiseModel,
) -> f64 {
    let survive: f64 = circuit.gates()[range]
        .iter()
        .map(|g| 1.0 - noise.gate_error_rate(g))
        .product();
    1.0 - survive
}

/// Run the DCP planner.
///
/// Falls back to the baseline partition `(N)` whenever reuse cannot pay for
/// itself: no proper prefix covers the copy cost, or `A0` already exhausts
/// the shot budget.
///
/// # Errors
///
/// Returns [`PlanError`] for an empty circuit, zero shots, or invalid
/// configuration.
pub fn plan_dcp(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    cfg: &DcpConfig,
) -> Result<Partition, PlanError> {
    cfg.validate()?;
    if circuit.is_empty() {
        return Err(PlanError::EmptyCircuit);
    }
    if shots == 0 {
        return Err(PlanError::ZeroShots);
    }
    let len = circuit.len();
    let costs: Vec<u64> = if cfg.plan_aware {
        fused_prefix_costs(circuit)
    } else {
        (0..=len as u64).collect()
    };
    let step = (cfg.copy_cost.ceil() as u64).max(1);

    // Phase 1: first subcircuit = shortest prefix covering the copy cost.
    let Some(l0) = (1..len).find(|&i| costs[i] as f64 >= cfg.copy_cost) else {
        return Partition::baseline(len, shots);
    };
    let p_hat = aggregate_error_rate(circuit, 0..l0, noise);
    let a0 = sample_size(CONFIDENCE_Z, cfg.margin, p_hat, shots);

    // Phase 2: how many equal-cost subcircuits can the remainder support?
    // Each covers one copy's cost and holds a gate, and each level at least
    // doubles the outcomes (`2^k ≤ N / A0`). A pass-priced prefix can cost
    // more than the whole circuit; its remainder then supports none.
    let remaining = costs[len].saturating_sub(costs[l0]);
    let ratio = shots as f64 / a0 as f64;
    let k_shots = if ratio >= 2.0 {
        ratio.log2().floor() as usize
    } else {
        0
    };
    let k = ((remaining / step) as usize).min(k_shots).min(len - l0);
    if k == 0 {
        return Partition::baseline(len, shots);
    }

    // Eq. 6: uniform arity for the remaining subcircuits.
    let ar = (ratio.powf(1.0 / k as f64).floor() as u64).max(2);
    // Raise A0 until the tree yields at least `shots` outcomes (this is how
    // the paper's QFT-14 example reaches A0 = 500 from Eq. 5's estimate).
    let reuse: u64 = ar.pow(k as u32);
    let a0 = a0.max(shots.div_ceil(reuse));

    let mut arities = Vec::with_capacity(k + 1);
    arities.push(a0);
    arities.extend(std::iter::repeat_n(ar, k));
    let tree = TreeStructure::new(arities)?;

    // Boundaries: the prefix, then the remainder cut at equal-cost
    // quantiles. Under gate costs the cuts fall at `l0 + remaining·i/k`.
    let mut boundaries = Vec::with_capacity(k + 2);
    boundaries.extend([0, l0]);
    for i in 1..k {
        let prev = boundaries[i];
        let target = costs[l0] + remaining * i as u64 / k as u64;
        let cut = ((prev + 1)..len)
            .find(|&j| costs[j] >= target)
            .unwrap_or(len)
            .min(len - (k - i)) // leave ≥ 1 gate per remaining subcircuit
            .max(prev + 1);
        boundaries.push(cut);
    }
    boundaries.push(len);
    Partition::new(boundaries, tree)
}

/// `costs[i]` = estimated fused amplitude passes of the length-`i` prefix —
/// the cost [`tqsim_statevec::CompiledCircuit::amp_pass_estimate`] reports
/// for the prefix compiled in isolation — computed online in one O(len)
/// sweep by streaming gate classifications through a [`Fuser`] and counting
/// emitted sweeps plus the pending buffer.
fn fused_prefix_costs(circuit: &Circuit) -> Vec<u64> {
    use tqsim_statevec::{classify, Fuser};
    let mut costs = Vec::with_capacity(circuit.len() + 1);
    costs.push(0);
    let mut fuser = Fuser::new();
    let mut emitted = 0u64;
    for gate in circuit {
        if let Some(op) = classify(gate) {
            fuser.push(&op, &mut |_, noise_only| {
                if !noise_only {
                    emitted += 1;
                }
            });
        }
        costs.push(emitted + fuser.pending_passes());
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;

    #[test]
    fn sample_size_matches_textbook_values() {
        // Classic cochran example: p=0.5, z=1.96, e=0.05, infinite N ≈ 385.
        let n = sample_size(1.96, 0.05, 0.5, 1_000_000_000);
        assert!((380..=390).contains(&n), "{n}");
        // Finite-population correction shrinks it.
        let n_small = sample_size(1.96, 0.05, 0.5, 1000);
        assert!(n_small < n);
        assert!((270..=290).contains(&n_small), "{n_small}");
    }

    #[test]
    fn sample_size_clamps() {
        assert_eq!(sample_size(1.96, 0.03, 0.0, 100), 1);
        assert!(sample_size(1.96, 0.001, 0.5, 100) <= 100);
    }

    #[test]
    fn qft14_reproduces_paper_plan() {
        // Paper §5.1: QFT_14 (472 gates), 0.1 %/1.5 % depolarizing, 32 000
        // shots → 7 subcircuits, 500 shots on the first, theoretical max
        // speedup 3.53×.
        let c = generators::qft(14);
        let noise = tqsim_noise::NoiseModel::sycamore();
        let cfg = DcpConfig {
            copy_cost: 20.0,
            ..DcpConfig::default()
        };
        let p = plan_dcp(&c, &noise, 32_000, &cfg).unwrap();
        assert_eq!(p.k(), 7, "subcircuits: {}", p.k());
        let arities = p.tree.arities();
        assert_eq!(arities[0], 500, "A0 = {}", arities[0]);
        assert!(arities[1..].iter().all(|&a| a == 2));
        assert!(p.tree.outcomes() >= 32_000);
    }

    #[test]
    fn short_circuit_falls_back_to_baseline() {
        let c = generators::bv(6); // 16 gates
        let noise = tqsim_noise::NoiseModel::sycamore();
        let cfg = DcpConfig {
            copy_cost: 30.0,
            ..DcpConfig::default()
        };
        let p = plan_dcp(&c, &noise, 1000, &cfg).unwrap();
        assert_eq!(p.k(), 1);
        assert_eq!(p.tree.outcomes(), 1000);
    }

    #[test]
    fn bv_gets_two_subcircuits_with_moderate_copy_cost() {
        // The paper's BV observation: only 2 subcircuits fit.
        let c = generators::bv(16); // 46 gates
        let noise = tqsim_noise::NoiseModel::sycamore();
        let cfg = DcpConfig {
            copy_cost: 20.0,
            ..DcpConfig::default()
        };
        let p = plan_dcp(&c, &noise, 32_000, &cfg).unwrap();
        assert_eq!(p.k(), 2, "tree = {}", p.tree);
    }

    #[test]
    fn outcomes_always_cover_shots() {
        let noise = tqsim_noise::NoiseModel::sycamore();
        for shots in [100u64, 777, 1000, 4096, 32_000] {
            for gen in [
                generators::qft(10),
                generators::bv(12),
                generators::qv(10, 1),
            ] {
                let p = plan_dcp(&gen, &noise, shots, &DcpConfig::default()).unwrap();
                assert!(
                    p.tree.outcomes() >= shots,
                    "{} < {shots} for {}",
                    p.tree.outcomes(),
                    p.tree
                );
            }
        }
    }

    #[test]
    fn plan_aware_charges_compiled_passes_not_gates() {
        // QFT fuses ≈2.4×, so covering a 20-*pass* copy cost needs far more
        // than 20 source gates: the plan-aware prefix must be longer.
        let c = generators::qft(14);
        let noise = tqsim_noise::NoiseModel::sycamore();
        let classic = plan_dcp(&c, &noise, 32_000, &DcpConfig::default()).unwrap();
        let aware = plan_dcp(
            &c,
            &noise,
            32_000,
            &DcpConfig {
                plan_aware: true,
                ..DcpConfig::default()
            },
        )
        .unwrap();
        assert!(
            aware.boundaries()[1] > classic.boundaries()[1],
            "plan-aware prefix {} must exceed gate-counted prefix {}",
            aware.boundaries()[1],
            classic.boundaries()[1]
        );
        assert_eq!(aware.covered_gates(), c.len());
        assert!(aware.tree.outcomes() >= 32_000);
        // The prefix's compiled cost actually covers the copy cost, and the
        // one-gate-shorter prefix does not (shortest qualifying prefix).
        let costs = fused_prefix_costs(&c);
        let l0 = aware.boundaries()[1];
        assert!(costs[l0] >= 20);
        assert!(costs[l0 - 1] < 20);
    }

    #[test]
    fn plan_aware_boundaries_are_pass_balanced() {
        let c = generators::qft(14);
        let noise = tqsim_noise::NoiseModel::sycamore();
        let cfg = DcpConfig {
            plan_aware: true,
            ..DcpConfig::default()
        };
        let p = plan_dcp(&c, &noise, 32_000, &cfg).unwrap();
        let costs = fused_prefix_costs(&c);
        let bounds = p.boundaries();
        assert!(bounds.len() >= 3, "expected a real partition, got {p:?}");
        // Per-subcircuit compiled costs past the prefix stay within 2× of
        // each other (equal-pass quantile cuts on a discrete cost curve).
        let seg_costs: Vec<u64> = bounds
            .windows(2)
            .skip(1)
            .map(|w| costs[w[1]] - costs[w[0]])
            .collect();
        let (min, max) = (
            *seg_costs.iter().min().unwrap(),
            *seg_costs.iter().max().unwrap(),
        );
        assert!(
            max <= 2 * min.max(1),
            "unbalanced compiled costs: {seg_costs:?}"
        );
    }

    #[test]
    fn plan_aware_short_circuit_falls_back_to_baseline() {
        let noise = tqsim_noise::NoiseModel::sycamore();
        // Too short to cover the pass-denominated copy cost: baseline.
        let short = generators::bv(6);
        let p = plan_dcp(
            &short,
            &noise,
            1000,
            &DcpConfig {
                plan_aware: true,
                copy_cost: 60.0,
                ..DcpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(p.k(), 1);
    }

    #[test]
    fn plan_aware_outcomes_always_cover_shots() {
        let noise = tqsim_noise::NoiseModel::sycamore();
        let cfg = DcpConfig {
            plan_aware: true,
            ..DcpConfig::default()
        };
        for shots in [100u64, 777, 4096, 32_000] {
            for gen in [
                generators::qft(10),
                generators::bv(12),
                generators::qv(10, 1),
            ] {
                let p = plan_dcp(&gen, &noise, shots, &cfg).unwrap();
                assert!(p.tree.outcomes() >= shots);
                assert_eq!(p.covered_gates(), gen.len());
            }
        }
    }

    #[test]
    fn prefix_costs_match_compiled_estimates() {
        for c in [generators::qft(8), generators::qv(8, 2)] {
            let costs = fused_prefix_costs(&c);
            assert_eq!(costs.len(), c.len() + 1);
            assert_eq!(costs[0], 0);
            // One more gate drops the prefix cost by at most one pass: a
            // gate that absorbs the whole pending diagonal run (pending
            // `Mat4(a, b)` + `diag(b)`, then a gate on `(a, b)`: 2 → 1).
            assert!(costs.windows(2).all(|w| w[1] + 1 >= w[0]));
            // The full-circuit entry equals the compiled estimate.
            let compiled = tqsim_statevec::CompiledCircuit::compile(&c, |_| 0);
            assert_eq!(costs[c.len()], compiled.amp_pass_estimate());
            // And fusion makes it strictly cheaper than the gate count.
            assert!(costs[c.len()] < c.len() as u64);
        }
    }

    #[test]
    fn config_validation() {
        // `x <= 0.0` is false for NaN, so a sign check alone lets it
        // through, and a NaN copy cost plans one-gate subcircuits.
        let c = generators::qft(8);
        let noise = tqsim_noise::NoiseModel::sycamore();
        for x in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for bad in [
                DcpConfig {
                    margin: x,
                    ..DcpConfig::default()
                },
                DcpConfig {
                    copy_cost: x,
                    ..DcpConfig::default()
                },
            ] {
                assert!(bad.validate().is_err(), "{bad:?}");
                assert!(
                    matches!(
                        plan_dcp(&c, &noise, 1000, &bad),
                        Err(PlanError::BadConfig(_))
                    ),
                    "{bad:?}"
                );
            }
        }
    }
}
