//! Deferred-swap layout tracking for exchange batching.
//!
//! Eager distributed execution pays a full dswap round-trip per
//! boundary-straddling op: swap the global qubit down to a scratch local
//! position, apply, swap it straight back. When a *run* of ops shares the
//! same global qubits (a fused window straddling the node boundary, a
//! ladder of `cx(global, local_i)` gates), the swap-backs are pure waste —
//! qsim-style global gate scheduling leaves the swaps in place and only
//! undoes them when a later access conflicts.
//!
//! [`LayoutTracker`] is the single decision procedure for that deferral,
//! shared by the in-process [`crate::DistributedStateVector`] and the
//! multi-process `tqsim-shard` coordinator so both backends perform — and
//! count — **exactly** the same exchange sequence. The tracker never moves
//! amplitudes itself: every decision returns the dswaps the caller must
//! execute, in order, and commits the resulting logical↔physical
//! permutation.

/// How to execute one dense op (gate / Mat2 / Mat4 / Mat8) under the
/// current deferred layout. Swap lists are `(global_bit, local_dst)` pairs
/// in execution order, exactly as
/// [`crate::DistributedStateVector`]'s eager remap would issue them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DensePlan {
    /// Every operand already sits at a node-local physical position: apply
    /// at `phys` (same order as the logical operand list), no exchanges.
    InPlace {
        /// Physical position of each logical operand.
        phys: Vec<u16>,
    },
    /// A conflicting access: undo the active swaps (in the given order),
    /// after which every operand is local at its logical position.
    FlushThenLocal {
        /// Deferred swaps to undo, in execution order.
        undo: Vec<(u16, u16)>,
    },
    /// A conflicting access on an op that itself straddles the boundary:
    /// undo the active swaps, execute `swaps`, apply at `phys`, and leave
    /// `swaps` deferred (they become the new active set).
    FlushThenRemap {
        /// Deferred swaps to undo first, in execution order.
        undo: Vec<(u16, u16)>,
        /// Fresh dswaps to execute, in execution order.
        swaps: Vec<(u16, u16)>,
        /// Physical position of each logical operand afterwards.
        phys: Vec<u16>,
    },
}

/// Tracks the logical→physical qubit permutation induced by deferred
/// distributed swaps (see the module docs).
#[derive(Clone, Debug)]
pub struct LayoutTracker {
    local_n: u16,
    /// Logical qubit → physical position.
    pos: Vec<u16>,
    /// Physical position → logical qubit (inverse of `pos`).
    occ: Vec<u16>,
    /// Deferred dswaps in application order (undone in reverse).
    active: Vec<(u16, u16)>,
}

impl LayoutTracker {
    /// An identity layout over `n_qubits` with the low `local_n` node-local.
    pub fn new(n_qubits: u16, local_n: u16) -> Self {
        debug_assert!(local_n <= n_qubits);
        LayoutTracker {
            local_n,
            pos: (0..n_qubits).collect(),
            occ: (0..n_qubits).collect(),
            active: Vec::new(),
        }
    }

    /// Whether the layout is canonical (no deferred swaps).
    pub fn is_canonical(&self) -> bool {
        self.active.is_empty()
    }

    /// Whether every qubit in `qs` currently sits at its canonical
    /// position (diagonal runs may then apply without a flush even while
    /// *other* qubits are displaced).
    pub fn is_identity_on<'a>(&self, qs: impl IntoIterator<Item = &'a u16>) -> bool {
        qs.into_iter().all(|&q| self.pos[q as usize] == q)
    }

    /// Forget all deferred swaps without undoing them — valid only when the
    /// amplitudes are about to be overwritten wholesale (reset, copy-in).
    pub fn reset(&mut self) {
        for (i, p) in self.pos.iter_mut().enumerate() {
            *p = i as u16;
        }
        for (i, o) in self.occ.iter_mut().enumerate() {
            *o = i as u16;
        }
        self.active.clear();
    }

    /// The dswaps that restore the canonical layout, in execution order.
    /// Commits the restoration: the tracker is canonical on return, and the
    /// caller must execute every returned swap.
    pub fn decide_sync(&mut self) -> Vec<(u16, u16)> {
        let undo: Vec<(u16, u16)> = self.active.drain(..).rev().collect();
        for &(gb, dst) in &undo {
            let pg = self.local_n + gb;
            self.note_swap(pg, dst);
        }
        debug_assert!(self.is_identity_on(self.occ.iter()));
        undo
    }

    /// Decide how to execute a dense op on logical operands `qs` and commit
    /// the resulting permutation. The remap branch reproduces the eager
    /// scratch-selection rule bit for bit (highest local qubits not used by
    /// the op, assigned low-to-high), so an eager and a batched run issue
    /// identical individual dswaps — batching only *elides* the
    /// swap-back/swap-down pairs between compatible ops.
    pub fn decide_dense(&mut self, qs: &[u16]) -> DensePlan {
        let phys: Vec<u16> = qs.iter().map(|&q| self.pos[q as usize]).collect();
        if phys.iter().all(|&p| p < self.local_n) {
            return DensePlan::InPlace { phys };
        }
        let undo = self.decide_sync();
        if qs.iter().all(|&q| q < self.local_n) {
            return DensePlan::FlushThenLocal { undo };
        }
        // Mirror `DistributedStateVector::apply_remapped`: scratch = the
        // highest local qubits not used by the operation itself, popped
        // from the low end of that descending list.
        let mut qubits = qs.to_vec();
        let mut scratch: Vec<u16> = (0..self.local_n)
            .rev()
            .filter(|q| !qubits.contains(q))
            .take(qubits.len())
            .collect();
        let mut swaps: Vec<(u16, u16)> = Vec::new();
        for q in qubits.iter_mut() {
            if *q >= self.local_n {
                let dst = scratch
                    .pop()
                    .expect("cluster layouts guarantee >= 3 local qubits");
                let gb = *q - self.local_n;
                swaps.push((gb, dst));
                self.active.push((gb, dst));
                self.note_swap(self.local_n + gb, dst);
                *q = dst;
            }
        }
        DensePlan::FlushThenRemap {
            undo,
            swaps,
            phys: qubits,
        }
    }

    /// Record that the occupants of physical positions `pa` and `pb`
    /// swapped (a dswap is its own inverse, so undo uses the same update).
    fn note_swap(&mut self, pa: u16, pb: u16) {
        let (a, b) = (self.occ[pa as usize], self.occ[pb as usize]);
        self.occ.swap(pa as usize, pb as usize);
        self.pos.swap(a as usize, b as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(t: &mut LayoutTracker, qs: &[u16]) -> (usize, Vec<u16>) {
        // Count the dswaps a caller would execute and return the physical
        // operand positions.
        match t.decide_dense(qs) {
            DensePlan::InPlace { phys } => (0, phys),
            DensePlan::FlushThenLocal { undo } => (undo.len(), qs.to_vec()),
            DensePlan::FlushThenRemap { undo, swaps, phys } => (undo.len() + swaps.len(), phys),
        }
    }

    #[test]
    fn local_ops_never_swap() {
        let mut t = LayoutTracker::new(8, 6);
        assert_eq!(exec(&mut t, &[0, 1]), (0, vec![0, 1]));
        assert!(t.is_canonical());
    }

    #[test]
    fn shared_global_run_pays_one_remap() {
        let mut t = LayoutTracker::new(8, 6);
        // cx(7, 0): q7 is global → one dswap onto scratch 4 (the eager
        // rule collects descending non-operand locals [5, 4] and pops the
        // back).
        let (n, phys) = exec(&mut t, &[7, 0]);
        assert_eq!((n, &phys[..]), (1, &[4u16, 0][..]));
        assert!(!t.is_canonical());
        // Same global qubit, different local partner: zero dswaps.
        for lq in 1..4u16 {
            assert_eq!(exec(&mut t, &[7, lq]), (0, vec![4, lq]));
        }
        // Final sync undoes the single deferred swap.
        assert_eq!(t.decide_sync(), vec![(1, 4)]);
        assert!(t.is_canonical());
    }

    #[test]
    fn conflicting_access_flushes_then_remaps() {
        let mut t = LayoutTracker::new(8, 6);
        exec(&mut t, &[7, 0]); // q7 ↔ scratch 4
                               // An op on logical q4 conflicts: its physical position is global.
        let (n, phys) = exec(&mut t, &[4]);
        assert_eq!((n, &phys[..]), (1, &[4u16][..]));
        assert!(t.is_canonical());
    }

    #[test]
    fn two_globals_then_sync_restores_identity() {
        let mut t = LayoutTracker::new(8, 5);
        let (n, phys) = exec(&mut t, &[7, 6, 0]);
        assert_eq!(n, 2);
        assert!(phys.iter().all(|&p| p < 5));
        assert_eq!(t.decide_sync().len(), 2);
        assert!(t.is_identity_on([0u16, 1, 2, 3, 4, 5, 6, 7].iter()));
    }

    #[test]
    fn reset_forgets_without_undoing() {
        let mut t = LayoutTracker::new(8, 6);
        exec(&mut t, &[7, 0]);
        t.reset();
        assert!(t.is_canonical());
        assert_eq!(exec(&mut t, &[0]), (0, vec![0]));
    }
}
