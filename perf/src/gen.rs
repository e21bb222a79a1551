//! Seeded input generation. `--seed` drives every simulation seed, the
//! `service_mix` request order, its hot/cold draw and its fresh-circuit
//! seeds; the program under test receives only what is generated here.
//! The generator is the benchmark's own (not the repo's `rand` shim), so a
//! change to the program cannot change the inputs it is measured on.

use tqsim_circuit::{generators, Circuit};

/// SplitMix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A simulation seed for `stream` (a workload-chosen label) under `--seed`.
/// Kept below 2^53 so it survives the JSON wire exactly.
pub fn sim_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64() >> 11
}

/// Table-2 instances by their suite names; `qft_n20` is one width past the
/// suite's widest QFT. The suite is generated once for the whole list.
pub fn circuits(names: &[&str]) -> Vec<Circuit> {
    let suite = generators::table2_suite();
    names
        .iter()
        .map(|&name| {
            if name == "qft_n20" {
                return generators::qft(20);
            }
            suite
                .iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("no Table-2 circuit named {name}"))
                .circuit
                .clone()
        })
        .collect()
}

/// One `service_mix` request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Index into [`HOT_CIRCUITS`], or `None` for a fresh `qsc(9, 45, s)`.
    pub hot: Option<usize>,
    /// Generator seed of a fresh circuit (0 for hot ones).
    pub circuit_seed: u64,
    pub shots: u64,
    pub seed: u64,
}

/// The six hot circuits, n = 4–10.
pub const HOT_CIRCUITS: [&str; 6] = [
    "adder_n4_0",
    "qpe_n6",
    "qft_n8",
    "qaoa_n8",
    "qsc_n9",
    "bv_n10",
];

/// Shots of hot circuit `i`: each hot circuit has one shot count, so the
/// six (circuit, shots) pairs are six plan-cache keys.
pub fn hot_shots(i: usize) -> u64 {
    [1000, 4000][i % 2]
}

/// Requests of one rep: four in five from the hot (circuit, shots) pairs —
/// plan-cache hits once warmed — and one in five a fresh circuit that
/// misses and compiles. The composition is fixed by the count alone (hot
/// pairs in rotation, fresh circuits alternating between the two shot
/// counts) so that time per shot does not depend on the luck of the draw;
/// the seed sets the order, the simulation seeds and the fresh circuits,
/// which are distinct across reps and seeds.
pub fn requests(seed: u64, rep: u64, count: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(sim_seed(seed, 0x5E41 + rep));
    let mut out: Vec<Request> = (0..count)
        .map(|i| {
            let (slot, round) = (i % 5, i / 5);
            let hot = (slot < 4).then(|| (round * 4 + slot) % HOT_CIRCUITS.len());
            Request {
                hot,
                circuit_seed: if hot.is_none() {
                    rng.next_u64() >> 11
                } else {
                    0
                },
                shots: hot.map_or_else(|| hot_shots(round), hot_shots),
                seed: rng.next_u64() >> 11,
            }
        })
        .collect();
    // Fisher–Yates.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// The circuit a request simulates.
pub fn request_circuit(req: &Request, hot: &[Circuit]) -> Circuit {
    match req.hot {
        Some(i) => hot[i].clone(),
        None => generators::qsc(9, 45, req.circuit_seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a = requests(11, 0, 60);
        assert_eq!(a, requests(11, 0, 60));
        assert_ne!(a, requests(12, 0, 60));
        assert_ne!(a, requests(11, 1, 60));
        assert!(a
            .iter()
            .all(|r| r.seed < 1 << 53 && r.circuit_seed < 1 << 53));
        // Fixed composition: 1 in 5 fresh, every hot pair equally often,
        // the same total shots whatever the seed.
        assert_eq!(a.iter().filter(|r| r.hot.is_none()).count(), 12);
        for h in 0..HOT_CIRCUITS.len() {
            assert_eq!(a.iter().filter(|r| r.hot == Some(h)).count(), 8);
        }
        let shots = |reqs: &[Request]| reqs.iter().map(|r| r.shots).sum::<u64>();
        assert_eq!(shots(&a), shots(&requests(12, 3, 60)));
    }

    #[test]
    fn fresh_circuits_differ_and_hot_ones_repeat() {
        let hot = circuits(&HOT_CIRCUITS);
        let reqs = requests(3, 0, 60);
        let fresh: Vec<Circuit> = reqs
            .iter()
            .filter(|r| r.hot.is_none())
            .map(|r| request_circuit(r, &hot))
            .collect();
        assert!(fresh.windows(2).all(|w| w[0] != w[1]));
        let first_hot = reqs
            .iter()
            .find(|r| r.hot.is_some())
            .expect("a hot request");
        assert_eq!(
            request_circuit(first_hot, &hot),
            request_circuit(first_hot, &hot)
        );
    }

    #[test]
    fn sim_seeds_are_wire_safe_and_stream_dependent() {
        assert_eq!(sim_seed(1, 2), sim_seed(1, 2));
        assert_ne!(sim_seed(1, 2), sim_seed(1, 3));
        assert_ne!(sim_seed(1, 2), sim_seed(2, 2));
        assert!(sim_seed(u64::MAX, u64::MAX) < 1 << 53);
    }

    #[test]
    fn named_circuits_have_their_widths() {
        let widths: Vec<u16> = circuits(&["qft_n20", "bv_n16", "adder_n10_0"])
            .iter()
            .map(Circuit::n_qubits)
            .collect();
        assert_eq!(widths, [20, 16, 10]);
    }
}
