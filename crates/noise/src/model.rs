//! [`NoiseModel`]: binding channels to gates, plus readout error.

use crate::channel::{draw, Branch, Channel, Site};
use rand::{Rng, RngExt};
use tqsim_circuit::{Circuit, Gate};
use tqsim_statevec::plan::{CompiledCircuit, FlushCtx};
use tqsim_statevec::QuantumState;

/// Classical readout error: each measured bit flips with the given
/// direction-dependent probability (the paper's "R" channel, §4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadoutError {
    /// P(read 1 | true 0).
    pub p0to1: f64,
    /// P(read 0 | true 1).
    pub p1to0: f64,
}

impl ReadoutError {
    /// Symmetric readout error with flip probability `p` in both directions.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn symmetric(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "readout probability {p} outside [0,1]"
        );
        ReadoutError { p0to1: p, p1to0: p }
    }

    /// Apply the error to an `n_qubits`-bit outcome.
    pub fn apply<R: Rng + ?Sized>(&self, outcome: u64, n_qubits: u16, rng: &mut R) -> u64 {
        let mut out = outcome;
        for q in 0..n_qubits {
            let bit = (outcome >> q) & 1;
            let p = if bit == 0 { self.p0to1 } else { self.p1to0 };
            if p > 0.0 && rng.random::<f64>() < p {
                out ^= 1 << q;
            }
        }
        out
    }
}

/// A noise model: channels applied after every gate (separately configured
/// for single- and multi-qubit gates) plus optional readout error.
///
/// ```
/// use tqsim_noise::NoiseModel;
/// let nm = NoiseModel::sycamore();
/// assert!(!nm.is_ideal());
/// assert!((nm.error_rate_1q() - 0.001).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NoiseModel {
    name: String,
    channels_1q: Vec<Channel>,
    channels_2q: Vec<Channel>,
    readout: Option<ReadoutError>,
}

impl NoiseModel {
    /// The noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            name: "ideal".into(),
            ..Default::default()
        }
    }

    /// Depolarizing noise with separate single-/two-qubit error rates
    /// (the paper's default "DC" configuration).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities.
    pub fn depolarizing(p1: f64, p2: f64) -> Self {
        NoiseModel::ideal()
            .named("depolarizing")
            .with_channel_1q(Channel::Depolarizing { p: p1 })
            .with_channel_2q(Channel::Depolarizing { p: p2 })
    }

    /// The Google Sycamore-derived rates the paper evaluates with
    /// (§4.3): 0.1 % single-qubit, 1.5 % two-qubit depolarizing.
    pub fn sycamore() -> Self {
        NoiseModel::depolarizing(0.001, 0.015).named("sycamore-dc")
    }

    /// Thermal relaxation ("TR") with Sycamore-flavoured constants:
    /// T1 = 15 µs, T2 = 16 µs, 25 ns single-qubit / 32 ns two-qubit gates.
    pub fn thermal_relaxation_sycamore() -> Self {
        NoiseModel::ideal()
            .named("thermal-relaxation")
            .with_channel_1q(Channel::ThermalRelaxation {
                t1: 15e-6,
                t2: 16e-6,
                gate_time: 25e-9,
            })
            .with_channel_2q(Channel::ThermalRelaxation {
                t1: 15e-6,
                t2: 16e-6,
                gate_time: 32e-9,
            })
    }

    /// Amplitude damping ("AD") with the paper's ratio 0.01 on every gate.
    pub fn amplitude_damping(gamma: f64) -> Self {
        NoiseModel::ideal()
            .named("amplitude-damping")
            .with_channel_1q(Channel::AmplitudeDamping { gamma })
            .with_channel_2q(Channel::AmplitudeDamping { gamma })
    }

    /// Phase damping ("PD") with the paper's ratio 0.01 on every gate.
    pub fn phase_damping(lambda: f64) -> Self {
        NoiseModel::ideal()
            .named("phase-damping")
            .with_channel_1q(Channel::PhaseDamping { lambda })
            .with_channel_2q(Channel::PhaseDamping { lambda })
    }

    /// Rename the model (used by harness tables).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Add a channel applied after every single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters are invalid.
    pub fn with_channel_1q(mut self, ch: Channel) -> Self {
        ch.validate().expect("invalid channel");
        self.channels_1q.push(ch);
        self
    }

    /// Add a channel applied after every multi-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters are invalid.
    pub fn with_channel_2q(mut self, ch: Channel) -> Self {
        ch.validate().expect("invalid channel");
        self.channels_2q.push(ch);
        self
    }

    /// Attach readout error.
    pub fn with_readout(mut self, ro: ReadoutError) -> Self {
        self.readout = Some(ro);
        self
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the model has no gate channels and no readout error.
    pub fn is_ideal(&self) -> bool {
        self.channels_1q.is_empty() && self.channels_2q.is_empty() && self.readout.is_none()
    }

    /// Channels bound to single-qubit gates.
    pub fn channels_1q(&self) -> &[Channel] {
        &self.channels_1q
    }

    /// Channels bound to multi-qubit gates.
    pub fn channels_2q(&self) -> &[Channel] {
        &self.channels_2q
    }

    /// The readout error, if any.
    pub fn readout(&self) -> Option<ReadoutError> {
        self.readout
    }

    /// Combined per-gate error probability for single-qubit gates
    /// (`1 − ∏(1 − e_ch)`).
    pub fn error_rate_1q(&self) -> f64 {
        combine(self.channels_1q.iter().map(Channel::error_probability))
    }

    /// Combined per-gate error probability for multi-qubit gates.
    pub fn error_rate_2q(&self) -> f64 {
        combine(self.channels_2q.iter().map(Channel::error_probability))
    }

    /// The per-gate error rate `e_i` DCP's Eq. 4 consumes for `gate`: each
    /// bound channel counts once per gate, not once per
    /// [`NoiseModel::sites`] application.
    pub fn gate_error_rate(&self, gate: &Gate) -> f64 {
        if gate.arity() == 1 {
            self.error_rate_1q()
        } else {
            self.error_rate_2q()
        }
    }

    /// The channel applications after `gate`, in draw order. This is the
    /// only code that binds channels to gates (paper Fig. 2):
    /// - a single-qubit gate gets each 1q channel on its qubit;
    /// - a wider gate gets each 2q channel: depolarizing drawn jointly on
    ///   `(q0, q1)`, plus `(q0, q2)` for a Toffoli's third qubit, and
    ///   damping-style channels once per touched qubit.
    #[inline]
    pub fn sites<'a>(&'a self, gate: &'a Gate) -> impl Iterator<Item = Site> + 'a {
        let qs = gate.qubits();
        let channels = if qs.len() == 1 {
            &self.channels_1q
        } else {
            &self.channels_2q
        };
        channels.iter().flat_map(move |&channel| {
            // After a wider gate, depolarizing pairs q0 with each other qubit.
            let (anchor, targets) = match (channel, qs) {
                (Channel::Depolarizing { .. }, [q0, rest @ ..]) if !rest.is_empty() => {
                    (Some(*q0), rest)
                }
                _ => (None, qs),
            };
            targets.iter().map(move |&q| Site {
                channel,
                qubit: anchor.unwrap_or(q),
                partner: anchor.and(Some(q)),
            })
        })
    }

    /// Stochastically apply the model's channels after `gate` was executed
    /// on `sv`, site by site ([`NoiseModel::sites`]). Returns the number of
    /// noise-operator applications performed (for
    /// [`tqsim_statevec::OpCounts`] accounting).
    pub fn apply_after_gate<S, R>(&self, sv: &mut S, gate: &Gate, rng: &mut R) -> u64
    where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        let mut ops = 0u64;
        for site in self.sites(gate) {
            site.apply(sv, rng);
            ops += 1;
        }
        ops
    }

    /// Compile `circuit` into a fused replay plan
    /// ([`tqsim_statevec::plan`]) with a noise marker, and its site count,
    /// exactly where this model attaches channels. Replay the result with
    /// [`NoiseModel::apply_after_gate_deferred`] as the noise hook.
    pub fn compile(&self, circuit: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile(circuit, |g| self.sites(g).count())
    }

    /// The fused-execution counterpart of [`NoiseModel::apply_after_gate`]:
    /// semantically identical (same sites, same RNG draws in the same
    /// order), but each branch is **drawn before the state is touched**.
    /// Identity branches leave the fusion buffer pending — fusion continues
    /// across the noise point — fired Paulis are fed back into the buffer,
    /// and only state-dependent channels (damping families) force
    /// [`FlushCtx::flush`]. The replay charges the marker's site count to
    /// `noise_ops`, as the unfused path counts its applications.
    pub fn apply_after_gate_deferred<S, R>(
        &self,
        gate: &Gate,
        ctx: &mut FlushCtx<'_, S>,
        rng: &mut R,
    ) where
        S: QuantumState + ?Sized,
        R: Rng + ?Sized,
    {
        for site in self.sites(gate) {
            match draw(&site, rng) {
                Branch::Identity => {}
                Branch::Paulis(paulis) => {
                    for pauli in site.pauli_gates(paulis) {
                        ctx.push_branch_gate(&pauli);
                    }
                }
                Branch::NeedsState => {
                    site.channel.damp(ctx.flush(), site.qubit, rng);
                }
            }
        }
    }

    /// Where this model's realization of `plan` on `rng` first leaves the
    /// error-free path: the ordinal of the first of the plan's noise
    /// markers ([`CompiledCircuit::markers`]) where some site fires a
    /// branch or needs the state to pick one (damping families), with
    /// `rng` put back to just before that marker's draws. `None` when every
    /// site at every marker draws its identity branch, with `rng` where a
    /// replay of the plan leaves it. `plan` must be this model's
    /// [`NoiseModel::compile`] output.
    ///
    /// Consumes exactly the draws [`NoiseModel::apply_after_gate`] and
    /// [`NoiseModel::apply_after_gate_deferred`] consume up to that point.
    /// Executors call it on a clone of a tree node's RNG: error-free nodes
    /// of one parent state are the same state bit for bit, and an
    /// erroneous node's replay equals the clean replay up to its marker, so
    /// it can fork from a clean replay there and resume on the returned
    /// `rng`.
    pub fn first_fired_marker<R: Rng + Clone>(
        &self,
        plan: &CompiledCircuit,
        rng: &mut R,
    ) -> Option<usize> {
        plan.markers().iter().position(|(gate, _)| {
            let before = rng.clone();
            let fired = !self
                .sites(gate)
                .all(|site| draw(&site, rng) == Branch::Identity);
            if fired {
                *rng = before;
            }
            fired
        })
    }

    /// Apply readout error (if configured) to a sampled outcome.
    pub fn apply_readout<R: Rng + ?Sized>(&self, outcome: u64, n_qubits: u16, rng: &mut R) -> u64 {
        match self.readout {
            Some(ro) => ro.apply(outcome, n_qubits, rng),
            None => outcome,
        }
    }

    /// If the model is purely depolarizing (one DC channel per arity, no
    /// readout), return `(p1, p2)` — consumed by the redundancy-elimination
    /// baseline, which needs discrete error tags.
    pub fn depolarizing_rates(&self) -> Option<(f64, f64)> {
        match (
            self.channels_1q.as_slice(),
            self.channels_2q.as_slice(),
            self.readout,
        ) {
            ([Channel::Depolarizing { p: p1 }], [Channel::Depolarizing { p: p2 }], None) => {
                Some((*p1, *p2))
            }
            _ => None,
        }
    }
}

fn combine(rates: impl Iterator<Item = f64>) -> f64 {
    1.0 - rates.fold(1.0, |acc, e| acc * (1.0 - e))
}

/// The nine noise-model combinations of the paper's Fig. 16, in x-axis
/// order: DC, DCR, TR, TRR, AD, ADR, PD, PDR, ALL.
pub fn fig16_models() -> Vec<NoiseModel> {
    let ro = ReadoutError::symmetric(0.02);
    let dc = NoiseModel::sycamore().named("DC");
    let tr = NoiseModel::thermal_relaxation_sycamore().named("TR");
    let ad = NoiseModel::amplitude_damping(0.01).named("AD");
    let pd = NoiseModel::phase_damping(0.01).named("PD");
    let all = NoiseModel::sycamore()
        .named("ALL")
        .with_channel_1q(Channel::ThermalRelaxation {
            t1: 15e-6,
            t2: 16e-6,
            gate_time: 25e-9,
        })
        .with_channel_2q(Channel::ThermalRelaxation {
            t1: 15e-6,
            t2: 16e-6,
            gate_time: 32e-9,
        })
        .with_channel_1q(Channel::AmplitudeDamping { gamma: 0.01 })
        .with_channel_2q(Channel::AmplitudeDamping { gamma: 0.01 })
        .with_channel_1q(Channel::PhaseDamping { lambda: 0.01 })
        .with_channel_2q(Channel::PhaseDamping { lambda: 0.01 })
        .with_readout(ro);
    vec![
        dc.clone(),
        dc.with_readout(ro).named("DCR"),
        tr.clone(),
        tr.with_readout(ro).named("TRR"),
        ad.clone(),
        ad.with_readout(ro).named("ADR"),
        pd.clone(),
        pd.with_readout(ro).named("PDR"),
        all,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tqsim_circuit::{Gate, GateKind};
    use tqsim_statevec::StateVector;

    #[test]
    fn sycamore_rates() {
        let nm = NoiseModel::sycamore();
        assert!((nm.error_rate_1q() - 0.001).abs() < 1e-12);
        assert!((nm.error_rate_2q() - 0.015).abs() < 1e-12);
        assert_eq!(nm.depolarizing_rates(), Some((0.001, 0.015)));
    }

    #[test]
    fn ideal_model_is_inert() {
        let nm = NoiseModel::ideal();
        assert!(nm.is_ideal());
        let mut rng = StdRng::seed_from_u64(0);
        let mut sv = StateVector::zero(2);
        let before = sv.clone();
        let ops = nm.apply_after_gate(&mut sv, &Gate::new(GateKind::H, &[0]), &mut rng);
        assert_eq!(ops, 0);
        assert_eq!(sv.amplitudes(), before.amplitudes());
        assert_eq!(nm.apply_readout(0b11, 2, &mut rng), 0b11);
    }

    #[test]
    fn combined_error_rate_stacks() {
        let nm = NoiseModel::depolarizing(0.1, 0.2)
            .with_channel_1q(Channel::AmplitudeDamping { gamma: 0.1 });
        // 1 - 0.9*0.9 = 0.19
        assert!((nm.error_rate_1q() - 0.19).abs() < 1e-12);
        assert_eq!(
            nm.depolarizing_rates(),
            None,
            "extra channel disables DC fast path"
        );
    }

    #[test]
    fn gate_error_rate_by_arity() {
        let nm = NoiseModel::sycamore();
        assert!((nm.gate_error_rate(&Gate::new(GateKind::H, &[0])) - 0.001).abs() < 1e-12);
        assert!((nm.gate_error_rate(&Gate::new(GateKind::Cx, &[0, 1])) - 0.015).abs() < 1e-12);
        assert!((nm.gate_error_rate(&Gate::new(GateKind::Ccx, &[0, 1, 2])) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn readout_flip_rate() {
        let ro = ReadoutError::symmetric(0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut flips = 0u32;
        for _ in 0..2000 {
            if ro.apply(0b0, 1, &mut rng) == 1 {
                flips += 1;
            }
        }
        let rate = f64::from(flips) / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn asymmetric_readout() {
        let ro = ReadoutError {
            p0to1: 0.0,
            p1to0: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(ro.apply(0b111, 3, &mut rng), 0b000);
        assert_eq!(ro.apply(0b000, 3, &mut rng), 0b000);
    }

    #[test]
    fn fig16_lineup() {
        let models = fig16_models();
        let names: Vec<&str> = models.iter().map(NoiseModel::name).collect();
        assert_eq!(
            names,
            ["DC", "DCR", "TR", "TRR", "AD", "ADR", "PD", "PDR", "ALL"]
        );
        for m in &models {
            assert!(!m.is_ideal());
        }
        // Readout variants carry the R channel.
        assert!(models[1].readout().is_some());
        assert!(models[0].readout().is_none());
    }

    #[test]
    fn deferred_noise_matches_unfused_stream_and_state() {
        // Replay a compiled plan with the deferred hook against the classic
        // apply-per-gate loop on a cloned RNG: the draw stream must match
        // exactly and the states must agree to fusion reordering tolerance.
        use tqsim_statevec::OpCounts;
        for noise in [
            NoiseModel::sycamore(),
            fig16_models().pop().unwrap(), // ALL: stacks every channel family
        ] {
            let mut circuit = tqsim_circuit::Circuit::new(3);
            circuit
                .h(0)
                .t(0)
                .cx(0, 1)
                .rz(0.4, 1)
                .cz(1, 2)
                .sx(2)
                .ccx(0, 1, 2)
                .h(2);
            let compiled = noise.compile(&circuit);

            for seed in 0..20u64 {
                let mut rng_fused = StdRng::seed_from_u64(seed);
                let mut rng_plain = StdRng::seed_from_u64(seed);

                let mut fused = StateVector::zero(3);
                let mut ops = OpCounts::new();
                compiled.replay(&mut fused, &mut ops, |gate, ctx| {
                    noise.apply_after_gate_deferred(gate, ctx, &mut rng_fused)
                });

                let mut plain = StateVector::zero(3);
                let mut plain_noise_ops = 0;
                for gate in &circuit {
                    plain.apply_gate(gate);
                    plain_noise_ops += noise.apply_after_gate(&mut plain, gate, &mut rng_plain);
                }

                assert_eq!(ops.noise_ops, plain_noise_ops, "seed {seed}");
                assert_eq!(
                    rand::RngExt::random::<f64>(&mut rng_fused),
                    rand::RngExt::random::<f64>(&mut rng_plain),
                    "RNG streams diverged at seed {seed}"
                );
                for (i, (a, b)) in fused
                    .amplitudes()
                    .iter()
                    .zip(plain.amplitudes())
                    .enumerate()
                {
                    assert!(
                        (a - b).norm() < 1e-10,
                        "seed {seed} amp {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_free_probe_leaves_the_rng_where_a_clean_replay_does() {
        use rand::Rng;
        use tqsim_statevec::OpCounts;
        // 1q, 2q and Toffoli noise sites (the Toffoli draws twice).
        let mut circuit = tqsim_circuit::Circuit::new(3);
        circuit
            .h(0)
            .cx(0, 1)
            .t(1)
            .ccx(0, 1, 2)
            .rz(0.4, 2)
            .cz(1, 2)
            .ccx(2, 0, 1)
            .sx(0);
        let mut reference = StateVector::zero(3);
        for gate in &circuit {
            reference.apply_gate(gate);
        }
        for noise in [
            NoiseModel::ideal(),
            NoiseModel::sycamore(),
            NoiseModel::depolarizing(0.05, 0.2),
            NoiseModel::sycamore().with_channel_2q(Channel::Depolarizing { p: 0.01 }),
        ] {
            let compiled = noise.compile(&circuit);
            let (mut clean, mut dirty) = (0, 0);
            for seed in 0..300u64 {
                let mut probe = StdRng::seed_from_u64(seed);
                if noise.first_fired_marker(&compiled, &mut probe).is_some() {
                    dirty += 1;
                    continue;
                }
                clean += 1;
                let after_probe = probe.next_u64();

                let mut rng = StdRng::seed_from_u64(seed);
                let mut plain = StateVector::zero(3);
                for gate in &circuit {
                    plain.apply_gate(gate);
                    noise.apply_after_gate(&mut plain, gate, &mut rng);
                }
                assert_eq!(rng.next_u64(), after_probe, "{} seed {seed}", noise.name());
                assert_eq!(plain.amplitudes(), reference.amplitudes());

                let mut rng = StdRng::seed_from_u64(seed);
                let mut fused = StateVector::zero(3);
                compiled.replay(&mut fused, &mut OpCounts::new(), |gate, ctx| {
                    noise.apply_after_gate_deferred(gate, ctx, &mut rng)
                });
                assert_eq!(rng.next_u64(), after_probe, "{} seed {seed}", noise.name());
            }
            if noise.is_ideal() {
                assert_eq!(dirty, 0, "nothing to draw, nothing to fire");
            } else {
                assert!(
                    clean > 0 && dirty > 0,
                    "{}: {clean} / {dirty}",
                    noise.name()
                );
            }
        }
        // Damping families read the state to pick a branch: never error-free,
        // however small the ratio.
        for noise in [
            NoiseModel::amplitude_damping(1e-9),
            NoiseModel::phase_damping(1e-9),
            NoiseModel::thermal_relaxation_sycamore(),
            NoiseModel::sycamore().with_channel_1q(Channel::PhaseDamping { lambda: 1e-9 }),
        ] {
            let compiled = noise.compile(&circuit);
            for seed in 0..20u64 {
                let mut probe = StdRng::seed_from_u64(seed);
                assert!(noise.first_fired_marker(&compiled, &mut probe).is_some());
            }
        }
    }

    #[test]
    fn sites_and_draws_follow_the_pinned_order() {
        use crate::channel::Pauli;
        use rand::{Rng, RngExt};
        let (p1, p2) = (0.4, 0.6);
        let ad = Channel::AmplitudeDamping { gamma: 0.01 };
        let noise = NoiseModel::depolarizing(p1, p2)
            .with_channel_1q(ad)
            .with_channel_2q(ad);
        let (dc1, dc2) = (
            Channel::Depolarizing { p: p1 },
            Channel::Depolarizing { p: p2 },
        );
        let site = |channel, qubit, partner| Site {
            channel,
            qubit,
            partner,
        };
        let h = Gate::new(GateKind::H, &[3]);
        let cx = Gate::new(GateKind::Cx, &[2, 0]);
        let ccx = Gate::new(GateKind::Ccx, &[1, 3, 0]);
        let sites = |gate| noise.sites(gate).collect::<Vec<_>>();
        assert_eq!(sites(&h), [site(dc1, 3, None), site(ad, 3, None)]);
        assert_eq!(
            sites(&cx),
            [site(dc2, 2, Some(0)), site(ad, 2, None), site(ad, 0, None)]
        );
        assert_eq!(
            sites(&ccx),
            [
                site(dc2, 1, Some(3)),
                site(dc2, 1, Some(0)),
                site(ad, 1, None),
                site(ad, 3, None),
                site(ad, 0, None),
            ]
        );

        // The raw draws: one uniform against p, then on a fire a Pauli code
        // (0 = I, 1 = X, 2 = Y, 3 = Z) per slot. Damping draws nothing.
        let code = |c: u8| [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)][usize::from(c)];
        let one = |raw: &mut StdRng, p: f64| {
            if raw.random::<f64>() < p {
                Branch::Paulis([code(raw.random_range(0..3u32) as u8 + 1), None])
            } else {
                Branch::Identity
            }
        };
        let pair = |raw: &mut StdRng, p: f64| {
            if raw.random::<f64>() < p {
                let combo = raw.random_range(1..16u8);
                Branch::Paulis([code(combo >> 2), code(combo & 0b11)])
            } else {
                Branch::Identity
            }
        };
        let mut fired = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raw = rng.clone();
            let expected = [
                one(&mut raw, p1),
                Branch::NeedsState,
                pair(&mut raw, p2),
                Branch::NeedsState,
                Branch::NeedsState,
                pair(&mut raw, p2),
                pair(&mut raw, p2),
                Branch::NeedsState,
                Branch::NeedsState,
                Branch::NeedsState,
            ];
            let drawn: Vec<Branch> = [&h, &cx, &ccx]
                .into_iter()
                .flat_map(|gate| noise.sites(gate))
                .map(|site| draw(&site, &mut rng))
                .collect();
            assert_eq!(drawn, expected, "seed {seed}");
            assert_eq!(rng.next_u64(), raw.next_u64(), "seed {seed}");
            fired += drawn
                .iter()
                .filter(|b| matches!(b, Branch::Paulis(_)))
                .count();
        }
        assert!(fired > 0 && fired < 64 * 4, "both branches drawn: {fired}");
    }

    #[test]
    fn first_fired_marker_follows_the_pinned_draws() {
        use rand::{Rng, RngExt};
        let p2 = 0.3;
        let dc2 = Channel::Depolarizing { p: p2 };
        // Only the 2q gates carry channels, so the 1q gates place no marker:
        // markers 0..4 are the CX, the CZ, the Toffoli (two pair draws) and
        // the SWAP.
        let mut circuit = Circuit::new(3);
        circuit.cx(0, 1).h(2).cz(1, 2).ccx(0, 1, 2).swap(0, 2).t(1);
        let dc = NoiseModel::ideal().with_channel_2q(dc2);
        // With amplitude damping on 1q gates too, the H is marker 1 and
        // needs the state: the probe stops there at the latest.
        let damped = dc
            .clone()
            .with_channel_1q(Channel::AmplitudeDamping { gamma: 1e-9 });
        let (dc_plan, damped_plan) = (dc.compile(&circuit), damped.compile(&circuit));
        // The marker's source gate is the gate the pinned draw fires on.
        let fired_at = |plan: &CompiledCircuit, marker: usize, gate: usize| {
            assert_eq!(plan.markers()[marker].0, circuit.gates()[gate]);
        };
        // The hand-written draws of one pair site: a uniform against p, then
        // on a fire a nonzero two-slot Pauli code.
        let pair_fires = |raw: &mut StdRng| {
            let fired = raw.random::<f64>() < p2;
            if fired {
                raw.random_range(1..16u8);
            }
            fired
        };
        let (mut forks, mut clean) = (0, 0);
        for seed in 0..200u64 {
            // Marker by marker: the draws of each marker's sites, stopping at
            // the first fire, with the stream as it stood before it.
            let mut raw = StdRng::seed_from_u64(seed);
            let mut want = None;
            // (gate index, pair sites) of each marker.
            for (marker, (gate, pairs)) in [(0, 1), (2, 1), (3, 2), (4, 1)].into_iter().enumerate()
            {
                let before = raw.clone();
                if (0..pairs).any(|_| pair_fires(&mut raw)) {
                    want = Some((marker, before, gate));
                    break;
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let got = dc.first_fired_marker(&dc_plan, &mut rng);
            assert_eq!(got, want.as_ref().map(|w| w.0), "seed {seed}");
            if let Some((marker, _, gate)) = want {
                fired_at(&dc_plan, marker, gate);
            }
            let mut after = want.map_or(raw, |w| w.1);
            assert_eq!(rng.next_u64(), after.next_u64(), "seed {seed}: RNG moved");
            match got {
                Some(_) => forks += 1,
                None => clean += 1,
            }

            // Damped: the CX draws, then the H needs the state.
            let mut raw = StdRng::seed_from_u64(seed);
            let before = raw.clone();
            let (want, mut after) = if pair_fires(&mut raw) {
                (0, before)
            } else {
                (1, raw)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                damped.first_fired_marker(&damped_plan, &mut rng),
                Some(want)
            );
            fired_at(&damped_plan, want, want); // the CX, then the H
            assert_eq!(rng.next_u64(), after.next_u64(), "seed {seed}: RNG moved");
        }
        assert!(forks > 0 && clean > 0, "{forks} forks, {clean} clean");
    }

    #[test]
    fn channel_binding_predicate() {
        // A gate gets a noise marker when it has sites.
        let marked = |nm: &NoiseModel, gate| nm.sites(&gate).next().is_some();
        let nm = NoiseModel::sycamore();
        assert!(marked(&nm, Gate::new(GateKind::H, &[0])));
        assert!(marked(&nm, Gate::new(GateKind::Cx, &[0, 1])));
        assert!(!marked(&NoiseModel::ideal(), Gate::new(GateKind::H, &[0])));
        let only_2q = NoiseModel::ideal().with_channel_2q(Channel::Depolarizing { p: 0.01 });
        assert!(!marked(&only_2q, Gate::new(GateKind::H, &[0])));
        assert!(marked(&only_2q, Gate::new(GateKind::Ccx, &[0, 1, 2])));
    }

    #[test]
    fn noisy_gate_application_keeps_norm() {
        let nm = fig16_models().pop().unwrap(); // ALL
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = StateVector::zero(3);
        let mut prep = tqsim_circuit::Circuit::new(3);
        prep.h(0).cx(0, 1).cx(1, 2);
        for g in prep.gates().to_vec() {
            sv.apply_gate(&g);
            nm.apply_after_gate(&mut sv, &g, &mut rng);
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }
}
