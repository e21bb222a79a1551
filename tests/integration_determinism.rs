//! Determinism and reproducibility: every engine must be a pure function of
//! its seed, and the generated suite must be stable run to run.

use tqsim::{Counts, DcpConfig, OpCounts, Strategy, Tqsim};
use tqsim_baselines::{analyze_redundancy, run_baseline};
use tqsim_circuit::generators::{self, table2_suite};
use tqsim_circuit::Circuit;
use tqsim_cluster::{run_distributed, InterconnectModel};
use tqsim_engine::{Engine, EngineConfig, JobSpec};
use tqsim_noise::{fig16_models, NoiseModel};

#[test]
fn suite_generation_is_reproducible() {
    let a = table2_suite();
    let b = table2_suite();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.circuit.gates(), y.circuit.gates(), "{}", x.name);
    }
}

#[test]
fn every_engine_is_seed_deterministic() {
    let circuit = generators::qsc(8, 38, 2);
    let noise = NoiseModel::sycamore();

    let t1 = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(200)
        .seed(9)
        .run()
        .unwrap();
    let t2 = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(200)
        .seed(9)
        .run()
        .unwrap();
    assert_eq!(t1.counts, t2.counts);
    assert_eq!(t1.ops, t2.ops);

    let b1 = run_baseline(&circuit, &noise, 200, 9);
    let b2 = run_baseline(&circuit, &noise, 200, 9);
    assert_eq!(b1.counts, b2.counts);

    let model = InterconnectModel::commodity_cluster();
    let p = Strategy::Custom {
        arities: vec![20, 10],
    }
    .plan(&circuit, &noise, 200)
    .unwrap();
    let d1 = run_distributed(&circuit, &noise, &p, 4, model, 9).unwrap();
    let d2 = run_distributed(&circuit, &noise, &p, 4, model, 9).unwrap();
    assert_eq!(d1.counts, d2.counts);

    let r1 = analyze_redundancy(&circuit, &noise, 500, 9).unwrap();
    let r2 = analyze_redundancy(&circuit, &noise, 500, 9).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn different_seeds_decorrelate() {
    let circuit = generators::qft(8);
    let noise = NoiseModel::sycamore();
    let a = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(500)
        .seed(1)
        .run()
        .unwrap();
    let b = Tqsim::new(&circuit)
        .noise(noise.clone())
        .shots(500)
        .seed(2)
        .run()
        .unwrap();
    assert_ne!(a.counts, b.counts, "independent seeds should differ");
}

#[test]
fn noise_models_are_deterministically_constructed() {
    let a = fig16_models();
    let b = fig16_models();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y);
    }
}

#[test]
fn plan_is_a_pure_function_of_inputs() {
    let circuit = generators::qft(12);
    let noise = NoiseModel::sycamore();
    let p1 = Strategy::default_dcp()
        .plan(&circuit, &noise, 4_000)
        .unwrap();
    let p2 = Strategy::default_dcp()
        .plan(&circuit, &noise, 4_000)
        .unwrap();
    assert_eq!(p1, p2);
    // And sensitive to its inputs.
    let p3 = Strategy::default_dcp()
        .plan(&circuit, &noise, 8_000)
        .unwrap();
    assert_ne!(
        p1.tree, p3.tree,
        "different shot budgets should plan differently"
    );
}

// ---- pins of the default execution path -----------------------------------
//
// Exact values recorded at commit 2daf237 (the last one that carried wide
// fusion clusters, cross-boundary fusion and exchange batching beside the
// default path). They are the proof that removing those paths did not move
// the surviving one: a histogram or a counter that changes here is a changed
// RNG stream or a changed sweep sequence, never noise.
//
// The sweep sequence changed once on purpose: when a pending diagonal began
// folding into the next dense op, `amp_passes`, `fused_gates` and the
// cluster's `exchanges`, `bytes_exchanged`, `local_gates` and `global_gates`
// were re-recorded. Every histogram and every other field read unchanged.
//
// The exchange schedule changed once on purpose: when the distributed state
// began keeping a swapped-in global qubit local (the lazy layout) instead of
// swapping it back after every op, the same four cluster fields were
// re-recorded. Every histogram and every `OpCounts` field read unchanged.
//
// The work done changed once on purpose: when error-free root nodes began
// sharing one state, as error-free nodes below the root already did, every
// `ops` row and the cluster's five fields were re-recorded (fewer copies,
// passes and noise draws; `state_copies + nodes_shared` unchanged). Every
// histogram read unchanged.
//
// The engine's work changed once more on purpose: when an erroneous child
// began forking from its parent group's clean replay at its first fired
// noise marker instead of replaying its segment from the parent state, the
// engine `ops` rows were re-recorded in `amp_passes`, `fused_gates` and
// `noise_ops` only (QFT seed 1 [1147, 4811, .., 5863] → [832, 3486, ..,
// 4223], seed 7919 [1272, 5325, .., 6494] → [976, 4084, .., 4956]; QAOA
// seed 1 [131, 182, .., 300] → [105, 145, .., 237], seed 7919 [105, 146, ..,
// 240] → [85, 110, .., 184]). Every histogram and every serial and cluster
// row read unchanged.

/// One pinned run: the histogram as a sorted `(outcome, count)` list and
/// `OpCounts::{amp_passes, fused_gates, state_copies, nodes_shared,
/// noise_ops, samples}` in that order.
struct Pin {
    ops: [u64; 6],
    counts: &'static [(u64, u64)],
}

impl Pin {
    fn assert_matches(&self, counts: &Counts, ops: &OpCounts, what: &str) {
        let mut sorted: Vec<(u64, u64)> = counts.iter().collect();
        sorted.sort_unstable();
        assert_eq!(sorted, self.counts, "{what}: counts");
        let fields = [
            ops.amp_passes,
            ops.fused_gates,
            ops.state_copies,
            ops.nodes_shared,
            ops.noise_ops,
            ops.samples,
        ];
        assert_eq!(fields, self.ops, "{what}: ops");
    }
}

/// `qft(10)`, 64 shots, DCP at margin 0.2: plans the tree `(16,2,2)`.
fn pinned_qft() -> (Circuit, Strategy, u64) {
    let dcp = DcpConfig {
        margin: 0.2,
        ..Default::default()
    };
    (generators::qft(10), Strategy::Dynamic(dcp), 64)
}

/// A 9-qubit, 14-edge QAOA instance under a custom `(4,4,2)` tree.
fn pinned_qaoa() -> (Circuit, Strategy, u64) {
    let (circuit, _) = generators::qaoa_random(9, 14, 3, 0.4, 0.7);
    let arities = vec![4, 4, 2];
    (circuit, Strategy::Custom { arities }, 32)
}

#[test]
fn default_path_serial_pins() {
    let cases = [
        (pinned_qft(), [QFT_SERIAL_1, QFT_SERIAL_7919]),
        (pinned_qaoa(), [QAOA_SERIAL_1, QAOA_SERIAL_7919]),
    ];
    for ((circuit, strategy, shots), pins) in &cases {
        for (seed, pin) in [1u64, 7919].into_iter().zip(pins) {
            let r = Tqsim::new(circuit)
                .noise(NoiseModel::sycamore())
                .shots(*shots)
                .strategy(strategy.clone())
                .seed(seed)
                .run()
                .unwrap();
            pin.assert_matches(&r.counts, &r.ops, &format!("serial, seed {seed}"));
        }
    }
}

/// The engine seeds per node, so its histogram is its own pin — and it is
/// the same histogram at every worker count.
#[test]
fn default_path_engine_pins() {
    let cases = [
        (pinned_qft(), [QFT_ENGINE_1, QFT_ENGINE_7919]),
        (pinned_qaoa(), [QAOA_ENGINE_1, QAOA_ENGINE_7919]),
    ];
    for parallelism in [1usize, 2] {
        let engine = Engine::new(EngineConfig::default().parallelism(parallelism));
        for ((circuit, strategy, shots), pins) in &cases {
            for (seed, pin) in [1u64, 7919].into_iter().zip(pins) {
                let job = JobSpec::new(circuit)
                    .noise(NoiseModel::sycamore())
                    .shots(*shots)
                    .strategy(strategy.clone())
                    .seed(seed);
                let batch = engine.submit(vec![job]).run().unwrap();
                let r = &batch.jobs[0];
                let what = format!("engine x{parallelism}, seed {seed}");
                pin.assert_matches(&r.counts, &r.ops, &what);
            }
        }
    }
}

/// The 4-node cluster walks the serial tree with the serial RNG: its
/// histogram is the serial pin, and its exchange traffic is pinned beside it
/// as `ClusterCounters::{exchanges, bytes_exchanged, local_gates,
/// global_gates, state_copies}`.
#[test]
fn default_path_cluster_pins() {
    let (circuit, strategy, shots) = pinned_qft();
    let noise = NoiseModel::sycamore();
    let partition = strategy.plan(&circuit, &noise, shots).unwrap();
    let model = InterconnectModel::commodity_cluster();
    let pins = [
        (1u64, QFT_SERIAL_1, QFT_CLUSTER_1),
        (7919, QFT_SERIAL_7919, QFT_CLUSTER_7919),
    ];
    for (seed, serial, cluster) in pins {
        let d = run_distributed(&circuit, &noise, &partition, 4, model, seed).unwrap();
        serial.assert_matches(&d.counts, &d.ops, &format!("cluster, seed {seed}"));
        let c = &d.counters;
        let fields = [
            c.exchanges,
            c.bytes_exchanged,
            c.local_gates,
            c.global_gates,
            c.state_copies,
        ];
        assert_eq!(fields, cluster, "cluster counters, seed {seed}");
    }
}

#[rustfmt::skip]
const QFT_SERIAL_1: Pin = Pin {
    ops: [1568, 6517, 76, 36, 7994, 64],
    counts: &[
        (37, 1), (44, 1), (54, 1), (71, 1), (89, 1), (111, 1), (117, 1), (122, 1), (125, 1),
        (154, 1), (165, 1), (182, 1), (185, 1), (234, 1), (262, 1), (265, 1), (272, 2), (283, 1),
        (307, 1), (343, 1), (344, 1), (348, 1), (400, 1), (405, 1), (415, 1), (431, 1), (436, 1),
        (477, 1), (488, 1), (503, 1), (512, 1), (521, 1), (529, 1), (534, 1), (535, 1), (552, 1),
        (556, 1), (580, 1), (585, 1), (601, 1), (646, 1), (663, 1), (680, 1), (685, 1), (708, 1),
        (710, 1), (725, 1), (733, 1), (752, 1), (755, 1), (768, 1), (773, 1), (786, 1), (815, 1),
        (873, 1), (899, 1), (904, 1), (906, 1), (926, 1), (945, 1), (990, 1), (992, 1), (1003, 1),
    ],
};

#[rustfmt::skip]
const QFT_SERIAL_7919: Pin = Pin {
    ops: [1732, 7188, 82, 30, 8822, 64],
    counts: &[
        (41, 1), (49, 1), (70, 1), (83, 1), (87, 1), (88, 1), (94, 1), (96, 1), (129, 1), (142, 1),
        (156, 2), (174, 1), (220, 1), (228, 1), (240, 1), (246, 1), (258, 1), (283, 1), (304, 1),
        (312, 2), (350, 1), (378, 1), (379, 1), (396, 1), (441, 1), (443, 1), (445, 1), (454, 1),
        (463, 1), (470, 1), (515, 1), (534, 1), (584, 1), (589, 1), (594, 1), (619, 1), (627, 1),
        (671, 1), (704, 1), (745, 1), (752, 1), (754, 1), (784, 1), (850, 1), (861, 1), (867, 1),
        (889, 1), (909, 1), (925, 1), (927, 1), (940, 1), (954, 1), (961, 1), (975, 1), (978, 1),
        (983, 1), (984, 1), (985, 1), (986, 1), (998, 1), (1004, 1), (1019, 1),
    ],
};

#[rustfmt::skip]
const QAOA_SERIAL_1: Pin = Pin {
    ops: [77, 106, 9, 43, 180, 32],
    counts: &[
        (4, 1), (71, 1), (72, 2), (98, 1), (123, 1), (124, 1), (143, 1), (144, 1), (173, 1),
        (175, 1), (177, 1), (195, 1), (204, 1), (208, 1), (225, 1), (233, 1), (241, 1), (253, 1),
        (257, 1), (269, 1), (283, 1), (291, 1), (292, 1), (308, 1), (324, 1), (344, 3), (345, 1),
        (509, 2),
    ],
};

#[rustfmt::skip]
const QAOA_SERIAL_7919: Pin = Pin {
    ops: [113, 154, 13, 39, 260, 32],
    counts: &[
        (52, 1), (59, 1), (75, 1), (83, 1), (144, 1), (167, 1), (183, 1), (188, 1), (223, 1),
        (225, 1), (228, 1), (229, 2), (238, 1), (254, 1), (257, 1), (270, 1), (291, 1), (303, 1),
        (326, 1), (335, 1), (346, 1), (349, 1), (351, 1), (365, 1), (395, 1), (416, 1), (419, 1),
        (420, 1), (472, 1), (486, 1), (509, 1),
    ],
};

#[rustfmt::skip]
const QFT_ENGINE_1: Pin = Pin {
    ops: [832, 3486, 58, 54, 4223, 64],
    counts: &[
        (25, 1), (32, 1), (38, 1), (76, 1), (85, 1), (121, 1), (144, 1), (172, 1), (182, 1),
        (187, 1), (206, 1), (209, 1), (216, 1), (254, 1), (270, 1), (283, 1), (286, 1), (316, 1),
        (361, 1), (363, 1), (366, 1), (374, 1), (408, 1), (417, 1), (445, 1), (476, 2), (477, 1),
        (479, 1), (492, 1), (495, 1), (500, 1), (512, 1), (514, 1), (550, 1), (553, 1), (557, 1),
        (575, 1), (610, 1), (616, 1), (626, 2), (634, 1), (653, 1), (659, 1), (685, 1), (686, 1),
        (694, 1), (727, 1), (733, 1), (746, 1), (754, 1), (794, 1), (806, 2), (846, 1), (894, 1),
        (926, 1), (934, 1), (941, 1), (961, 1), (987, 1), (989, 1), (1015, 1),
    ],
};

#[rustfmt::skip]
const QFT_ENGINE_7919: Pin = Pin {
    ops: [976, 4084, 63, 49, 4956, 64],
    counts: &[
        (0, 1), (13, 1), (14, 1), (19, 1), (35, 1), (63, 1), (70, 1), (119, 1), (135, 1), (142, 1),
        (163, 1), (184, 1), (194, 1), (210, 1), (242, 1), (248, 1), (256, 1), (297, 1), (302, 1),
        (313, 1), (323, 1), (335, 1), (356, 1), (393, 1), (403, 1), (420, 1), (444, 1), (461, 1),
        (482, 1), (488, 1), (504, 1), (513, 1), (520, 1), (530, 1), (550, 1), (582, 1), (613, 1),
        (634, 1), (643, 1), (647, 1), (693, 1), (705, 1), (729, 1), (743, 1), (745, 1), (765, 1),
        (769, 1), (773, 1), (820, 1), (823, 1), (836, 1), (846, 1), (865, 1), (866, 2), (877, 1),
        (912, 1), (945, 1), (970, 1), (983, 1), (988, 1), (1007, 2), (1014, 1),
    ],
};

#[rustfmt::skip]
const QAOA_ENGINE_1: Pin = Pin {
    ops: [105, 145, 15, 37, 237, 32],
    counts: &[
        (7, 1), (21, 1), (39, 1), (62, 1), (94, 1), (99, 2), (131, 1), (161, 1), (166, 1),
        (171, 1), (184, 1), (192, 1), (226, 1), (228, 1), (253, 1), (254, 1), (282, 1), (287, 1),
        (288, 1), (307, 1), (322, 1), (323, 1), (347, 1), (349, 1), (410, 1), (418, 1), (421, 1),
        (485, 1), (488, 1), (497, 1), (503, 1),
    ],
};

#[rustfmt::skip]
const QAOA_ENGINE_7919: Pin = Pin {
    ops: [85, 110, 12, 40, 184, 32],
    counts: &[
        (18, 1), (34, 1), (35, 1), (56, 2), (67, 1), (71, 2), (78, 1), (93, 1), (135, 2), (164, 1),
        (167, 1), (176, 2), (208, 1), (219, 1), (229, 1), (262, 1), (266, 1), (282, 2), (285, 1),
        (308, 1), (344, 1), (346, 1), (389, 1), (451, 1), (452, 1), (499, 1), (506, 1),
    ],
};

const QFT_CLUSTER_1: [u64; 5] = [430, 3522560, 1307, 261, 76];

const QFT_CLUSTER_7919: [u64; 5] = [486, 3981312, 1435, 297, 82];
