//! The lazy qubit layout of a distributed state: which physical bit
//! position each logical qubit sits on.
//!
//! A state over `2^g` nodes keeps its low `local_n` bit positions inside
//! every node slice and its top `g` positions across the nodes. A dense op
//! needs all its operands on local positions. [`Layout`] keeps a set of
//! disjoint (global position ↔ local position) transpositions and decides
//! which ones to open and close for each op; every open or close is one
//! exchange round, a `half_swap` of the local position with the
//! global bit. A global qubit brought down for one op stays local until
//! another op needs its local position or [`Layout::settle`] restores the
//! canonical layout (Häner & Steiger, arXiv 1704.01127, keep swapped-in
//! qubits local in the same way).
//!
//! The type is pure: it moves no amplitude. The distributed state performs
//! the rounds it returns, and the cluster cost estimator prices them, so the
//! state and its cost model run one policy.

/// One exchange round `(gb, lq)`: transpose global bit `gb` (position
/// `local_n + gb`) with local position `lq`.
pub type Round = (u16, u16);

/// The (global ↔ local) transpositions open on a distributed state, with
/// the least-recently-used order of its local positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    local_n: u16,
    /// `pos[q]`: the physical position of logical qubit `q`. An
    /// involution: every entry is `q` or the partner of one transposition.
    pos: Vec<u16>,
    /// `last_use[l]`: the op count at which local position `l` last held
    /// an operand (0: never since [`Layout::new`] or [`Layout::clear`]).
    last_use: Vec<u64>,
    clock: u64,
}

impl Layout {
    /// The canonical layout of `n_qubits` whose low `local_n` positions are
    /// node-local: every qubit on its own position.
    ///
    /// # Panics
    ///
    /// Panics unless `local_n <= n_qubits`.
    pub fn new(n_qubits: u16, local_n: u16) -> Self {
        assert!(local_n <= n_qubits, "more local positions than qubits");
        Layout {
            local_n,
            pos: (0..n_qubits).collect(),
            last_use: vec![0; local_n.into()],
            clock: 0,
        }
    }

    /// The physical position of logical qubit `q`.
    #[inline]
    pub fn position(&self, q: u16) -> u16 {
        self.pos[usize::from(q)]
    }

    /// Whether every qubit sits on its own position (no transposition is
    /// open).
    pub fn is_canonical(&self) -> bool {
        self.open().next().is_none()
    }

    /// The open transpositions as rounds, by global bit.
    pub fn open(&self) -> impl Iterator<Item = Round> + '_ {
        let local_n = self.local_n;
        self.pos[local_n.into()..]
            .iter()
            .enumerate()
            .filter(move |&(_, &l)| l < local_n)
            .map(|(gb, &l)| (gb as u16, l))
    }

    /// Make every operand of an op on logical qubits `qs` (distinct, at
    /// most `local_n`) local, and return the rounds to perform first, in
    /// order:
    /// 1. an operand that is a local qubit sitting on a global position
    ///    comes home (its transposition is undone);
    /// 2. an operand that is a global qubit on its own position is
    ///    transposed with the least-recently-used free local position that
    ///    holds no operand; when no such position is free, the
    ///    least-recently-used transposition that does not serve the op is
    ///    undone first.
    ///
    /// An all-local op returns no round.
    ///
    /// # Panics
    ///
    /// Panics if the op has more qubits than there are local positions.
    pub fn place(&mut self, qs: &[u16]) -> Vec<Round> {
        debug_assert!(
            qs.len() <= usize::from(self.local_n),
            "op wider than a slice"
        );
        let local_n = self.local_n;
        let mut rounds = Vec::new();
        self.clock += 1;
        for &q in qs {
            let p = self.position(q);
            if q < local_n && p >= local_n {
                rounds.push(self.transpose(p, q));
            }
        }
        for &q in qs {
            if q >= local_n && self.position(q) == q {
                let l = match self.lru_local(|l, held| held == l && !qs.contains(&l)) {
                    Some(l) => l,
                    None => {
                        let l = self
                            .lru_local(|l, held| held != l && !qs.contains(&held))
                            .expect("a slice has at least as many positions as an op has qubits");
                        rounds.push(self.transpose(self.position(l), l));
                        l
                    }
                };
                rounds.push(self.transpose(q, l));
            }
        }
        for &q in qs {
            let p = self.position(q);
            debug_assert!(p < local_n);
            self.last_use[usize::from(p)] = self.clock;
        }
        rounds
    }

    /// Undo every open transposition, restoring the canonical layout, and
    /// return the rounds to perform. The use order is kept: the next op
    /// (a child node's replay, on a copy of this state) brings its global
    /// qubits down where this state's ops left local positions idle.
    pub fn settle(&mut self) -> Vec<Round> {
        let rounds: Vec<Round> = self.open().collect();
        for &(gb, l) in &rounds {
            self.transpose(self.local_n + gb, l);
        }
        rounds
    }

    /// Back to [`Layout::new`]'s layout and use order, with no round (the
    /// amplitudes were overwritten in canonical order).
    pub fn clear(&mut self) {
        self.settle();
        self.last_use.fill(0);
        self.clock = 0;
    }

    /// The local position `l` whose qubit `pos[l]` `pick` accepts and that
    /// was used least recently; ties go to the highest position. (`pos` is
    /// an involution, so the qubit on position `l` is `pos[l]`.)
    fn lru_local(&self, pick: impl Fn(u16, u16) -> bool) -> Option<u16> {
        (0..self.local_n)
            .rev()
            .filter(|&l| pick(l, self.position(l)))
            .min_by_key(|&l| self.last_use[usize::from(l)])
    }

    /// Swap the qubits on global position `g` and local position `l`: open
    /// a transposition, or undo the one between them.
    fn transpose(&mut self, g: u16, l: u16) -> Round {
        let (on_g, on_l) = (self.position(g), self.position(l));
        self.pos.swap(usize::from(on_g), usize::from(on_l));
        (g - self.local_n, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 qubits over 4 nodes: local positions 0–3, global qubits 4 and 5.
    #[test]
    fn a_swapped_in_qubit_stays_local_until_its_position_is_needed() {
        let mut layout = Layout::new(6, 4);
        // Qubit 4 comes down to the highest unused local position, once.
        assert_eq!(layout.place(&[4]), [(0, 3)]);
        assert_eq!(layout.place(&[4, 0]), []);
        assert_eq!(layout.position(4), 3);
        // Qubit 5 takes the least recently used free position: 1 and 2
        // were never used, and the tie goes to the higher.
        assert_eq!(layout.place(&[5]), [(1, 2)]);
        // An op on qubit 3 brings it home, which sends qubit 4 back up.
        assert_eq!(layout.place(&[3, 1]), [(0, 3)]);
        assert_eq!(layout.position(4), 4);
        assert_eq!(layout.open().collect::<Vec<_>>(), [(1, 2)]);
        // Qubit 4 again: position 0 is now the least recently used.
        assert_eq!(layout.place(&[4]), [(0, 0)]);
        assert_eq!(layout.settle(), [(0, 0), (1, 2)]);
        assert!(layout.is_canonical());
        // Settling keeps the use order; clearing forgets it too.
        assert_ne!(layout, Layout::new(6, 4));
        layout.clear();
        assert_eq!(layout, Layout::new(6, 4));
    }

    /// 7 qubits over 8 nodes leave 4 local positions. With all three
    /// global qubits down, a Toffoli on two local qubits and a global one
    /// finds no free position for the global one and evicts the least
    /// recently used transposition that does not serve it.
    #[test]
    fn a_toffoli_evicts_when_every_free_position_is_taken() {
        let mut layout = Layout::new(7, 4);
        for q in [4, 5, 6] {
            assert_eq!(layout.place(&[q]).len(), 1);
        }
        assert_eq!(layout.open().count(), 3);
        // Qubit 6 sits on position 1, so qubit 1 is up on position 6.
        assert_eq!(layout.position(6), 1);
        let rounds = layout.place(&[0, 1, 6]);
        // Qubit 1 comes home; qubit 4 (the least recently used) goes back
        // up; qubit 6 takes its position.
        assert_eq!(rounds, [(2, 1), (0, 3), (2, 3)]);
        for q in [0, 1, 6] {
            assert!(layout.position(q) < 4, "qubit {q}");
        }
        layout.settle();
        assert!(layout.is_canonical());
    }
}
