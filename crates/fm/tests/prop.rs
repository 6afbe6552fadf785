//! Property-based tests for the FM/CLIP engines and the gain-bucket
//! structure: refinement never worsens a solution, always respects balance,
//! reports cuts consistently, and the buckets behave like a priority
//! structure under arbitrary operation sequences.

use mlpart_fm::{
    fm_partition, fm_partition_budgeted_in, refine, refine_budgeted_in, BucketPolicy, BudgetMeter,
    Engine, FmConfig, GainBuckets, RefineWorkspace,
};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{
    metrics, BipartBalance, Hypergraph, HypergraphBuilder, ModuleId, Partition,
};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (2usize..32).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..6, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 2..6), 1..50);
        (areas, nets)
    })
}

fn build(areas: Vec<u64>, nets: &[Vec<usize>]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for net in nets {
        b.add_net(net.iter().copied()).expect("in range");
    }
    b.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refinement_never_worsens_and_stays_feasible(
        (areas, nets) in arb_netlist(),
        engine_clip in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let h = build(areas, &nets);
        let cfg = FmConfig {
            engine: if engine_clip { Engine::Clip } else { Engine::Fm },
            ..FmConfig::default()
        };
        let balance = BipartBalance::new(&h, cfg.balance_r);
        let mut rng = seeded_rng(seed);
        // Start from a feasible random solution.
        let p0 = Partition::random(&h, 2, &mut rng);
        prop_assume!(balance.is_partition_feasible(&p0));
        let start_cut = metrics::cut(&h, &p0);
        let mut p = p0;
        let r = refine(&h, &mut p, &cfg, &mut rng);
        prop_assert!(r.cut <= start_cut, "cut worsened: {} -> {}", start_cut, r.cut);
        prop_assert!(balance.is_partition_feasible(&p), "balance violated");
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert!(p.validate(&h));
    }

    #[test]
    fn result_statistics_are_consistent(
        (areas, nets) in arb_netlist(),
        seed in 0u64..1000,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(seed);
        let (p, r) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert!(r.internal_cut <= r.cut);
        prop_assert!(r.kept_moves <= r.attempted_moves);
        prop_assert!(r.passes >= 1);
    }

    #[test]
    fn policies_agree_on_reachability(
        (areas, nets) in arb_netlist(),
        seed in 0u64..200,
    ) {
        // All three policies must produce valid, feasible solutions (quality
        // differs; correctness must not).
        let h = build(areas, &nets);
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let cfg = FmConfig { policy, ..FmConfig::default() };
            let balance = BipartBalance::new(&h, cfg.balance_r);
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
            prop_assert!(balance.is_partition_feasible(&p));
            prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn buckets_behave_like_priority_structure(
        ops in proptest::collection::vec((0u8..3, 0usize..16, -5i32..=5), 1..200),
    ) {
        // Model-based test: mirror GainBuckets with a simple map; selection
        // must always return a module of maximal key.
        let mut b = GainBuckets::new(16, 5, BucketPolicy::Lifo);
        let mut model: std::collections::HashMap<usize, i32> = Default::default();
        let mut rng = seeded_rng(0);
        for (op, vi, key) in ops {
            let v = ModuleId::new(vi);
            match op {
                0 => {
                    model.entry(vi).or_insert_with(|| {
                        b.insert(v, key);
                        key
                    });
                }
                1 => {
                    if model.remove(&vi).is_some() {
                        b.remove(v);
                    }
                }
                _ => {
                    if model.contains_key(&vi) {
                        b.update_key(v, key);
                        model.insert(vi, key);
                    }
                }
            }
            prop_assert_eq!(b.len(), model.len());
            let selected = b.select_where(&mut rng, |_| true);
            match selected {
                None => prop_assert!(model.is_empty()),
                Some(m) => {
                    let max = model.values().copied().max().expect("non-empty");
                    prop_assert_eq!(b.key_of(m), max);
                    prop_assert_eq!(model[&m.index()], max);
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation(
        (areas, nets) in arb_netlist(),
        engine_clip in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // The engine runs on a shared, reused `RefineState`. For any netlist
        // and seed, a workspace that has already been bound to *other*
        // problems must yield the same move sequence, cut, and per-pass
        // statistics as a fresh one.
        let h = build(areas, &nets);
        let cfg = FmConfig {
            engine: if engine_clip { Engine::Clip } else { Engine::Fm },
            ..FmConfig::default()
        };
        let mut ws = RefineWorkspace::new();
        // Dirty the workspace on an unrelated problem so reuse is real.
        {
            let dirty = build(vec![1, 2, 3], &[vec![0, 1], vec![1, 2]]);
            let mut rng = seeded_rng(seed ^ 0xdead);
            let _ = fm_partition_budgeted_in(&dirty, None, &cfg, &mut rng, &mut ws, &mut BudgetMeter::unlimited());
        }
        let fresh = || RefineWorkspace::new();
        let unlimited = || BudgetMeter::unlimited();

        let mut rng_a = seeded_rng(seed);
        let (p_fresh, r_fresh) =
            fm_partition_budgeted_in(&h, None, &cfg, &mut rng_a, &mut fresh(), &mut unlimited());
        let mut rng_b = seeded_rng(seed);
        let (p_reuse, r_reuse) =
            fm_partition_budgeted_in(&h, None, &cfg, &mut rng_b, &mut ws, &mut unlimited());
        prop_assert_eq!(p_fresh.assignment(), p_reuse.assignment());
        prop_assert_eq!(&r_fresh, &r_reuse);

        // Same property for pure refinement from a shared starting point.
        let mut rng = seeded_rng(seed.wrapping_add(1));
        let p0 = Partition::random(&h, 2, &mut rng);
        let balance = BipartBalance::new(&h, cfg.balance_r);
        prop_assume!(balance.is_partition_feasible(&p0));
        let mut p1 = p0.clone();
        let mut p2 = p0;
        let mut rng1 = seeded_rng(seed);
        let r1 = refine_budgeted_in(&h, &mut p1, &cfg, &mut rng1, &mut fresh(), &mut unlimited());
        let mut rng2 = seeded_rng(seed);
        let r2 = refine_budgeted_in(&h, &mut p2, &cfg, &mut rng2, &mut ws, &mut unlimited());
        prop_assert_eq!(p1.assignment(), p2.assignment());
        prop_assert_eq!(r1.cut, r2.cut);
        prop_assert_eq!(r1.kept_moves, r2.kept_moves);
        prop_assert_eq!(r1.attempted_moves, r2.attempted_moves);
        prop_assert_eq!(&r1.pass_stats, &r2.pass_stats);
    }

    #[test]
    fn clip_and_fm_find_equal_or_better_than_initial_on_feasible_start(
        (areas, nets) in arb_netlist(),
        assignment_bits in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let h = build(areas, &nets);
        let assignment: Vec<u32> = (0..h.num_modules())
            .map(|i| u32::from(assignment_bits[i % assignment_bits.len()]))
            .collect();
        let p0 = Partition::from_assignment(&h, 2, assignment).expect("valid");
        let balance = BipartBalance::new(&h, 0.1);
        prop_assume!(balance.is_partition_feasible(&p0));
        let start = metrics::cut(&h, &p0);
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig { engine, ..FmConfig::default() };
            let mut rng = seeded_rng(5);
            let (_, r) = fm_partition(&h, Some(p0.clone()), &cfg, &mut rng);
            prop_assert!(r.cut <= start);
        }
    }
}
