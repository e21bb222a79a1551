//! Property test of the lazy qubit layout policy ([`tqsim_cluster::Layout`])
//! on random op sequences over 4–8 qubits and 2, 4 or 8 nodes: every op
//! finds its operands on local positions, the rounds never outnumber the
//! eager scheme's (a swap down and a swap back per global operand), and
//! `settle` restores the canonical layout.

use proptest::prelude::*;
use tqsim_cluster::Layout;

/// Perform `rounds` on `held`, the logical qubit on each physical
/// position, exactly as `half_swap` rounds move amplitudes.
fn perform(rounds: &[(u16, u16)], held: &mut [u16], g: u16, local_n: u16) {
    for &(gb, lq) in rounds {
        assert!(gb < g && lq < local_n, "round ({gb}, {lq})");
        held.swap(usize::from(local_n + gb), usize::from(lq));
    }
}

/// An op on one to three distinct qubits of an `n`-qubit register.
fn op_qubits(n: u16, (a, b, c, k): (u16, u16, u16, usize)) -> Vec<u16> {
    let mut qs: Vec<u16> = Vec::new();
    for q in [a % n, b % n, c % n].into_iter().take(k) {
        if !qs.contains(&q) {
            qs.push(q);
        }
    }
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn lazy_rounds_never_exceed_eager_and_settle_restores_the_identity(
        g in 1u16..4, // 2, 4 or 8 nodes
        extra_local in 0u16..5,
        ops in prop::collection::vec((0u16..8, 0u16..8, 0u16..8, 1usize..4), 0..60),
    ) {
        // At least 3 local qubits, at most 8 qubits.
        let n = (g + 3 + extra_local).min(8);
        let local_n = n - g;
        let mut layout = Layout::new(n, local_n);
        let mut held: Vec<u16> = (0..n).collect();
        let (mut rounds, mut eager) = (0usize, 0usize);
        for op in ops {
            let qs = op_qubits(n, op);
            let step = layout.place(&qs);
            perform(&step, &mut held, g, local_n);
            rounds += step.len();
            eager += 2 * qs.iter().filter(|&&q| q >= local_n).count();
            for &q in &qs {
                prop_assert!(layout.position(q) < local_n, "operand {q} of {qs:?} is global");
            }
            for q in 0..n {
                prop_assert_eq!(held[usize::from(layout.position(q))], q);
            }
            // What has been done plus what settling still owes stays
            // within what the eager scheme has done.
            prop_assert!(rounds + layout.open().count() <= eager, "{rounds} rounds vs {eager} eager");
        }
        let step = layout.settle();
        perform(&step, &mut held, g, local_n);
        rounds += step.len();
        prop_assert!(rounds <= eager, "{rounds} rounds vs {eager} eager");
        prop_assert!(layout.is_canonical());
        prop_assert_eq!(layout.open().count(), 0);
        prop_assert_eq!(held, (0..n).collect::<Vec<u16>>());
    }
}
