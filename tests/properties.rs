//! Property-based tests (proptest): invariants over random graphs, seeds,
//! and construction parameters.

use proptest::prelude::*;
use ule_core::Algorithm;
use ule_graph::clique_cycle::CliqueCycle;
use ule_graph::dumbbell::{clique_path_base, clique_path_dumbbell, BridgeOrientation, Dumbbell};
use ule_graph::gen::Family;
use ule_graph::{analysis, gen, Graph};
use ule_sim::{Knowledge, SimConfig};

/// A random connected graph strategy: (n, extra edge factor, seed).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 0usize..3, 0u64..1000).prop_map(|(n, density, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let m = (n - 1 + density * n).min(max_m);
        gen::random_connected(n, m, &mut rng).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn least_el_all_always_elects(g in arb_graph(), seed in 0u64..500) {
        let out = Algorithm::LeastElAll.run(&g, seed);
        prop_assert!(out.election_succeeded());
        prop_assert_eq!(out.congest_violations, 0);
    }

    #[test]
    fn size_estimate_always_elects(g in arb_graph(), seed in 0u64..500) {
        let out = Algorithm::SizeEstimate.run(&g, seed);
        prop_assert!(out.election_succeeded());
    }

    #[test]
    fn las_vegas_always_elects(g in arb_graph(), seed in 0u64..500) {
        let out = Algorithm::LasVegas.run(&g, seed);
        prop_assert!(out.election_succeeded());
    }

    #[test]
    fn dfs_message_bound_is_hard(g in arb_graph()) {
        // Theorem 4.1's deterministic bound, as an inviolable property:
        // messages <= 4m + 2n under simultaneous wakeup.
        let out = Algorithm::DfsAgent.run(&g, 0);
        prop_assert!(out.election_succeeded());
        let bound = 4 * g.edge_count() as u64 + 2 * g.len() as u64;
        prop_assert!(
            out.messages <= bound,
            "{} messages > 4m + 2n = {}", out.messages, bound
        );
    }

    #[test]
    fn kingdom_elects_max_id(g in arb_graph(), seed in 0u64..100) {
        let cfg = Algorithm::KingdomKnownD.config_for(&g, seed);
        let ids = match &cfg.ids {
            ule_sim::IdMode::Explicit(a) => a.clone(),
            _ => unreachable!(),
        };
        let out = Algorithm::KingdomKnownD.run_with(&g, &cfg);
        prop_assert!(out.election_succeeded());
        prop_assert_eq!(out.leader(), Some(ids.argmax()));
    }

    #[test]
    fn least_el_time_is_linear_in_d(g in arb_graph(), seed in 0u64..100) {
        let d = analysis::diameter_exact(&g).unwrap().max(1) as u64;
        let out = Algorithm::LeastElAll.run(&g, seed);
        prop_assert!(out.election_succeeded());
        prop_assert!(
            out.rounds <= 6 * d + 10,
            "rounds {} vs D {}", out.rounds, d
        );
    }

    #[test]
    fn dumbbell_structure(n in 6usize..20, m_extra in 0usize..40, el in 0usize..50, er in 0usize..50) {
        let m = (n + m_extra).min(n * (n - 1) / 2);
        let (g0, openable) = clique_path_base(n, m).unwrap();
        prop_assume!(!openable.is_empty());
        let d = Dumbbell::build(
            &g0,
            openable[el % openable.len()],
            &g0,
            openable[er % openable.len()],
            BridgeOrientation::Straight,
        ).unwrap();
        // Node/edge conservation.
        prop_assert_eq!(d.graph.len(), 2 * g0.len());
        prop_assert_eq!(d.graph.edge_count(), 2 * g0.edge_count());
        prop_assert!(d.graph.is_connected());
        // Degrees preserved exactly.
        for v in 0..g0.len() {
            prop_assert_eq!(d.graph.degree(v), g0.degree(v));
            prop_assert_eq!(d.graph.degree(v + g0.len()), g0.degree(v));
        }
        // Both bridges exist and connect opposite sides.
        for (a, b) in d.bridges {
            prop_assert!(d.graph.has_edge(a, b));
            prop_assert_ne!(d.side(a), d.side(b));
        }
    }

    #[test]
    fn bounded_diameter_equals_all_pairs(
        n in 1usize..160,
        seed in 0u64..1000,
        m_extra in 0usize..40,
        edges in (0usize..50, 0usize..50),
        d in 3usize..20,
    ) {
        // Every materialized family at a random size.
        let mut graphs: Vec<(String, Graph)> = Family::ALL
            .iter()
            .filter_map(|&f| gen::workload_graph(seed, f, n).ok().map(|g| (f.name().to_string(), g)))
            .collect();
        // The Theorem 3.1 dumbbell, the Figure 1 clique-cycle, and a
        // random connected graph.
        let k = 6 + n % 14;
        let dumbbell = clique_path_dumbbell(k, (k + m_extra).min(k * (k - 1) / 2), edges.0, edges.1);
        if let Ok(db) = dumbbell {
            graphs.push(("dumbbell".into(), db.graph));
        }
        if let Ok(cc) = CliqueCycle::build(n.max(d + 1), d) {
            graphs.push(("clique-cycle".into(), cc.graph));
        }
        if n >= 2 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = (n - 1 + m_extra).min(n * (n - 1) / 2);
            graphs.push(("random".into(), gen::random_connected(n, m, &mut rng).unwrap()));
        }
        for (name, g) in &graphs {
            let want = analysis::diameter_all_pairs(g);
            prop_assert!(want.is_some(), "{} is connected", name);
            prop_assert_eq!(analysis::diameter_exact(g), want, "{} on {} nodes", name, g.len());
            prop_assert_eq!(analysis::diameter_exact(g), want, "{} memo", name);
            // A disjoint union is disconnected: no diameter, either way.
            let u = g.disjoint_union(g);
            prop_assert_eq!(analysis::diameter_all_pairs(&u), None);
            prop_assert_eq!(analysis::diameter_exact(&u), None);
        }
        let single = Graph::from_edges(1, &[]).unwrap();
        prop_assert_eq!(analysis::diameter_exact(&single), Some(0));
        prop_assert_eq!(analysis::diameter_all_pairs(&single), Some(0));
    }

    #[test]
    fn dumbbell_diameter_invariance(el in 0usize..30, er in 0usize..30) {
        // The "weaker algorithms" fix of Theorem 3.1: diameter does not
        // depend on which clique edges were opened.
        let (g0, openable) = clique_path_base(12, 26).unwrap();
        let build = |i: usize, j: usize| {
            let d = Dumbbell::build(
                &g0, openable[i % openable.len()],
                &g0, openable[j % openable.len()],
                BridgeOrientation::Straight,
            ).unwrap();
            analysis::diameter_exact(&d.graph).unwrap()
        };
        prop_assert_eq!(build(el, er), build(0, 1));
    }

    #[test]
    fn clique_cycle_structure(n in 10usize..120, d in 3usize..20) {
        prop_assume!(d < n);
        let cc = CliqueCycle::build(n, d).unwrap();
        prop_assert_eq!(cc.d_prime % 4, 0);
        prop_assert!(cc.graph.len() >= n);
        prop_assert_eq!(cc.graph.len(), cc.gamma * cc.d_prime);
        prop_assert!(cc.graph.is_connected());
        // Rotation is an automorphism of order 4.
        for &(u, v) in cc.graph.edges() {
            prop_assert!(cc.graph.has_edge(cc.rotate(u), cc.rotate(v)));
        }
        // Diameter is Θ(D').
        let diam = analysis::diameter_exact(&cc.graph).unwrap() as usize;
        prop_assert!(diam >= cc.d_prime / 2);
        prop_assert!(diam <= 2 * cc.d_prime);
    }

    #[test]
    fn spanner_stretch_property(seed in 0u64..200, k in 2u32..5) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::random_connected(24, 90, &mut rng).unwrap();
        let sim = SimConfig::seeded(seed).with_knowledge(Knowledge::n(g.len()));
        let sc = ule_spanner::SpannerConfig { k };
        let (out, edges) = ule_spanner::elect_probed(&g, &sim, &sc);
        prop_assert!(out.election_succeeded());
        let sp = Graph::from_edges(g.len(), &edges).unwrap();
        prop_assert!(sp.is_connected());
        for &(u, v) in g.edges() {
            let dist = analysis::bfs_distances(&sp, u)[v];
            prop_assert!(dist <= sc.stretch(), "stretch {} > {}", dist, sc.stretch());
        }
    }

    #[test]
    fn broadcast_covers_and_counts(g in arb_graph(), src_raw in 0usize..100) {
        let src = src_raw % g.len();
        let out = ule_core::broadcast::flood_broadcast(&g, &SimConfig::seeded(0), src);
        prop_assert_eq!(ule_core::broadcast::informed_count(&out), g.len());
        prop_assert_eq!(
            out.messages,
            2 * g.edge_count() as u64 - (g.len() as u64 - 1)
        );
        // Coverage completes within ecc rounds; the last forwarded copies
        // are absorbed (without reply) one round later.
        let ecc = analysis::eccentricity(&g, src).unwrap() as u64;
        prop_assert!(out.rounds <= ecc + 2);
    }

    #[test]
    fn parallel_engine_equals_sequential(
        alg_idx in 0usize..12,
        fam_idx in 0usize..6,
        n in 8usize..80,
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        // The Parallelism determinism contract, sampled: any algorithm on
        // any workload produces the *identical* RunOutcome — every field,
        // including per-edge statistics and per-round totals — at any
        // thread count. The families sampled here include rigid ones
        // (torus, hypercube round n) and irregular ones (star's hub,
        // lollipop's clique) so shard boundaries fall on heterogeneous
        // degree profiles.
        let alg = Algorithm::ALL[alg_idx];
        let fam = [
            gen::Family::Cycle,
            gen::Family::Torus,
            gen::Family::SparseRandom,
            gen::Family::Star,
            gen::Family::Hypercube,
            gen::Family::Lollipop,
        ][fam_idx];
        let g = gen::workload_graph(seed, fam, n).unwrap();
        let mut cfg = alg.config_for(&g, seed);
        cfg.parallelism = ule_sim::Parallelism::Off;
        let sequential = alg.run_with(&g, &cfg);
        cfg.parallelism = ule_sim::Parallelism::Threads(threads);
        let parallel = alg.run_with(&g, &cfg);
        prop_assert_eq!(
            parallel, sequential,
            "{} on {}/{} seed {} diverged at {} threads", alg, fam, n, seed, threads
        );
    }

    #[test]
    fn explicit_lockstep_and_zero_delay_reproduce_the_legacy_engine(
        alg_idx in 0usize..12,
        fam_idx in 0usize..6,
        n in 8usize..80,
        seed in 0u64..1000,
        threads in 1usize..5,
    ) {
        // The adversary layer's backward-compatibility contract, sampled:
        // running any algorithm on any workload under an explicit
        // `Lockstep` schedule or a `BoundedDelay { max_delay: 0 }`
        // schedule produces the *identical* RunOutcome — every field — as
        // the default engine (whose behaviour is itself pinned against
        // pre-adversary recordings by tests/scheduler_equivalence.rs), at
        // any thread count.
        let alg = Algorithm::ALL[alg_idx];
        let fam = [
            gen::Family::Cycle,
            gen::Family::Torus,
            gen::Family::SparseRandom,
            gen::Family::Star,
            gen::Family::Hypercube,
            gen::Family::Lollipop,
        ][fam_idx];
        let g = gen::workload_graph(seed, fam, n).unwrap();
        let mut cfg = alg.config_for(&g, seed);
        cfg.parallelism = if threads == 1 {
            ule_sim::Parallelism::Off
        } else {
            ule_sim::Parallelism::Threads(threads)
        };
        let reference = alg.run_with(&g, &cfg);
        for adversary in [
            ule_sim::Adversary::Lockstep,
            ule_sim::Adversary::BoundedDelay { max_delay: 0 },
        ] {
            let mut faulty_cfg = cfg.clone();
            faulty_cfg.adversary = adversary.clone();
            let out = alg.run_with(&g, &faulty_cfg);
            prop_assert_eq!(
                &out, &reference,
                "{} on {}/{} seed {} under {:?} diverged from the legacy engine",
                alg, fam, n, seed, adversary
            );
            prop_assert_eq!(out.messages_dropped, 0);
            prop_assert!(out.crashed.is_empty() && out.late_deliveries.is_empty());
        }
    }

    #[test]
    fn calendar_queue_matches_a_btreemap_reference(
        len in 1usize..120,
        ops_seed in 0u64..100_000,
        horizon_pow in 1u32..7,
    ) {
        // The flat-memory delivery queue's ordering contract, sampled: a
        // random interleaving of pushes and earliest-round drains through
        // `CalendarQueue` must produce the identical (round, push-order)
        // item sequence as a plain `BTreeMap<round, Vec<_>>` reference.
        // Horizons of 2..=64 against offsets up to 200 force items
        // through the overflow tier and back into the ring on advance —
        // the boundary the engine crosses under long adversary delays.
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut op_rng = rand::rngs::StdRng::seed_from_u64(ops_seed);
        let horizon = 1usize << horizon_pow;
        let mut cal: ule_sim::CalendarQueue<(u64, u8)> =
            ule_sim::CalendarQueue::with_horizon(horizon);
        let mut reference: BTreeMap<u64, Vec<(u64, u8)>> = BTreeMap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut cal_drained = Vec::new();
        let mut ref_drained = Vec::new();
        let drain_earliest = |cal: &mut ule_sim::CalendarQueue<(u64, u8)>,
                                  reference: &mut BTreeMap<u64, Vec<(u64, u8)>>,
                                  cal_drained: &mut Vec<(u64, u8)>,
                                  ref_drained: &mut Vec<(u64, u8)>|
         -> Option<u64> {
            let next = cal.next_event_round();
            assert_eq!(next, reference.keys().next().copied());
            let r = next?;
            let bucket = cal.take_at(r);
            cal_drained.extend(bucket.iter().copied());
            cal.recycle(bucket);
            ref_drained.extend(reference.remove(&r).unwrap());
            Some(r)
        };
        for _ in 0..len {
            let (offset, payload, drain): (u64, u8, bool) =
                (op_rng.gen_range(0..200), op_rng.gen(), op_rng.gen());
            let round = now + offset;
            cal.push(round, (seq, payload));
            reference.entry(round).or_default().push((seq, payload));
            seq += 1;
            if drain {
                if let Some(r) = drain_earliest(
                    &mut cal, &mut reference, &mut cal_drained, &mut ref_drained,
                ) {
                    now = r;
                }
            }
        }
        while drain_earliest(&mut cal, &mut reference, &mut cal_drained, &mut ref_drained)
            .is_some()
        {}
        prop_assert!(cal.is_empty() && reference.is_empty());
        prop_assert_eq!(cal_drained, ref_drained);
    }

    #[test]
    fn delay_past_the_calendar_horizon_is_thread_count_invariant(
        fam_idx in 0usize..6,
        n in 8usize..48,
        seed in 0u64..1000,
        max_delay in 65u64..160,
        threads in 2usize..6,
    ) {
        // The overflow boundary at engine level: a bounded-delay
        // adversary with max_delay past the calendar's default horizon
        // (64) routes deliveries through the BTreeMap overflow tier and
        // back into the ring via migration. The determinism contract
        // must hold across that boundary: outcomes byte-identical at any
        // thread count. FloodMax is the one registry algorithm whose
        // correctness survives arbitrary delays (the phase-structured
        // protocols assert lockstep arrival), so it carries the sweep
        // across every family.
        let alg = Algorithm::FloodMax;
        let fam = [
            gen::Family::Cycle,
            gen::Family::Torus,
            gen::Family::SparseRandom,
            gen::Family::Star,
            gen::Family::Hypercube,
            gen::Family::Lollipop,
        ][fam_idx];
        let g = gen::workload_graph(seed, fam, n).unwrap();
        let mut cfg = alg.config_for(&g, seed);
        cfg.adversary = ule_sim::Adversary::BoundedDelay { max_delay };
        // Stretch the known diameter so FloodMax's deadline covers the
        // worst-case delayed flood: every hop may sit max_delay extra
        // rounds in the queue.
        cfg.knowledge.diameter = cfg
            .knowledge
            .diameter
            .map(|d| d * (max_delay as usize + 1));
        cfg.parallelism = ule_sim::Parallelism::Off;
        let sequential = alg.run_with(&g, &cfg);
        cfg.parallelism = ule_sim::Parallelism::Threads(threads);
        let parallel = alg.run_with(&g, &cfg);
        prop_assert_eq!(
            parallel, sequential,
            "{} on {}/{} seed {} delay {} diverged at {} threads",
            alg, fam, n, seed, max_delay, threads
        );
        prop_assert!(sequential.election_succeeded());
    }

    #[test]
    fn engine_and_async_agree_under_adversaries(
        alg_idx in 0usize..12,
        fam_idx in 0usize..6,
        n in 8usize..48,
        seed in 0u64..1000,
        max_delay in 0u64..4,
        crash_permille in 0u64..300,
        threads in 1usize..5,
    ) {
        // The per-edge fate-stream contract, sampled: a message's fate is
        // a pure function of (run seed, directed edge, per-edge send
        // index), so the engine (at any shard thread count) and the async
        // threads+channels runtime compute identical fates and identical
        // RunOutcomes under bounded delays and fail-stop crashes alike.
        // The round cap keeps crash-stalled deadline protocols fast;
        // conformance is asserted on the truncated run all the same.
        let alg = Algorithm::ALL[alg_idx];
        let fam = [
            gen::Family::Cycle,
            gen::Family::Torus,
            gen::Family::SparseRandom,
            gen::Family::Star,
            gen::Family::Hypercube,
            gen::Family::Lollipop,
        ][fam_idx];
        let g = gen::workload_graph(seed, fam, n).unwrap();
        let mut cfg = alg.config_for(&g, seed);
        let cap = cfg.max_rounds.min(2_000);
        cfg = cfg.with_max_rounds(cap);
        for adversary in [
            ule_sim::Adversary::BoundedDelay { max_delay },
            ule_sim::Adversary::CrashStop {
                schedule: ule_sim::adversary::sampled_crashes(
                    seed, g.len(), crash_permille, 16,
                ),
            },
        ] {
            let mut faulty = cfg.clone();
            faulty.adversary = adversary.clone();
            faulty.parallelism = if threads == 1 {
                ule_sim::Parallelism::Off
            } else {
                ule_sim::Parallelism::Threads(threads)
            };
            let engine = alg.run_with(&g, &faulty);
            let over_channels = alg.run_on(ule_sim::RuntimeKind::Async, &g, &faulty);
            prop_assert_eq!(
                &over_channels, &engine,
                "{} on {}/{} seed {} under {:?} diverged between runtimes",
                alg, fam, n, seed, adversary
            );
        }
    }

    #[test]
    fn async_replay_conforms_past_the_calendar_horizon(
        n in 8usize..32,
        seed in 0u64..500,
        max_delay in 65u64..160,
    ) {
        // The async runtime's delivery calendar shares the engine's
        // default ring horizon (64): delays past it route deliveries
        // through the overflow tier. Across that boundary a recorded
        // delivery trace must still replay byte-for-byte and the
        // recorded outcome must still equal the engine's. FloodMax (with
        // a stretched deadline) is the registry algorithm whose
        // correctness survives arbitrary delays.
        let alg = Algorithm::FloodMax;
        let g = gen::workload_graph(seed, gen::Family::Cycle, n).unwrap();
        let mut cfg = alg.config_for(&g, seed);
        cfg.adversary = ule_sim::Adversary::BoundedDelay { max_delay };
        cfg.knowledge.diameter = cfg
            .knowledge
            .diameter
            .map(|d| d * (max_delay as usize + 1));
        let factory = |_: usize, _: &ule_sim::NodeSetup, _: &mut rand::rngs::StdRng| {
            ule_core::baseline::FloodMax::new()
        };
        let recorded = ule_sim::AsyncRuntime::new().run(&g, &cfg, factory);
        let replayed = ule_sim::replay(&g, &cfg, factory, &recorded.trace);
        prop_assert_eq!(&replayed, &recorded);
        prop_assert_eq!(&recorded.outcome, &alg.run_with(&g, &cfg));
        prop_assert!(recorded.outcome.election_succeeded());
    }

    #[test]
    fn truncation_never_reports_quiescence_early(g in arb_graph(), t in 1u64..10) {
        let mut cfg = Algorithm::LeastElAll.config_for(&g, 3);
        cfg.max_rounds = t;
        let full = Algorithm::LeastElAll.run(&g, 3);
        let cut = Algorithm::LeastElAll.run_with(&g, &cfg);
        if cut.termination == ule_sim::Termination::Quiescent {
            // Quiescent truncated run ⇒ it genuinely finished within t.
            prop_assert!(full.rounds <= t);
        } else {
            prop_assert!(cut.rounds <= t);
        }
    }
}

proptest! {
    // Fewer cases than the blocks above: each case sweeps every node of a
    // graph up to n = 4096, so the work per case is already substantial.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn implicit_topology_is_indistinguishable_from_materialized(
        fam_idx in 0usize..gen::Family::ALL.len(),
        n in 1usize..=4096,
        probe_seed in 0u64..1000,
    ) {
        use ule_graph::Topology;

        let fam = gen::Family::ALL[fam_idx];
        // Random families (and sizes the generator rejects) have no
        // procedural form — nothing to conform.
        let Some(topo) = fam.implicit(n) else { return Ok(()) };
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let g = fam.build(n, &mut rng).unwrap();

        prop_assert_eq!(topo.n(), g.len(), "{}", fam);
        prop_assert_eq!(topo.directed_edge_count(), g.directed_edge_count());
        prop_assert_eq!(Topology::max_degree(&topo), g.max_degree());
        for v in 0..g.len() {
            prop_assert_eq!(topo.degree(v), g.degree(v), "degree of {} on {}", v, fam);
        }

        // Every port of a seeded node sample (every node when small):
        // endpoint, reverse port round trip, and the flat directed index
        // the adversary keys message fates by.
        let mut probe = rand::rngs::StdRng::seed_from_u64(probe_seed);
        use rand::Rng;
        let nodes: Vec<usize> = if g.len() <= 256 {
            (0..g.len()).collect()
        } else {
            (0..64).map(|_| probe.gen_range(0..g.len())).collect()
        };
        for &v in &nodes {
            for p in 0..g.degree(v) {
                let (u, q, idx) = topo.endpoint_indexed(v, p);
                prop_assert_eq!((u, q, idx), g.endpoint_indexed(v, p), "port ({}, {}) on {}", v, p, fam);
                prop_assert_eq!(topo.endpoint(u, q), (v, p), "round trip ({}, {}) on {}", v, p, fam);
                prop_assert_eq!(topo.directed_index(v, p), idx);
            }
        }
        for _ in 0..64 {
            let u = probe.gen_range(0..g.len());
            let v = probe.gen_range(0..g.len());
            prop_assert_eq!(topo.has_edge(u, v), g.has_edge(u, v), "has_edge({}, {}) on {}", u, v, fam);
        }

        // The closed-form diameter matches BFS (kept to small n: on
        // vertex-transitive families diameter_exact needs n passes).
        if g.len() <= 128 {
            let exact = analysis::diameter_exact(&g).map(|d| d as usize);
            prop_assert_eq!(topo.diameter_hint(), exact, "diameter of {}", fam);
        }
    }
}

/// Concurrent first calls on one graph, from the harness's trial threads,
/// compute the memoized diameter once and all see that value.
#[test]
fn concurrent_first_diameter_calls_agree() {
    let g = gen::workload_graph(3, Family::SparseRandom, 600).unwrap();
    let want = analysis::diameter_all_pairs(&g);
    assert!(want.is_some());
    let got = ule_sim::harness::parallel_trials(16, |_| analysis::diameter_exact(&g));
    assert!(got.iter().all(|&d| d == want), "{got:?} vs {want:?}");
    assert_eq!(analysis::diameter_exact(&g), want);
}
