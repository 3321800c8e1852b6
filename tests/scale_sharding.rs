//! Property tests over the city-plant generator and the multi-gateway
//! sharding pipeline: for arbitrary plant layouts and seeds, the generated
//! plant is connected, the shard partition is an exact cover, every
//! generated flow rides links the plant actually provides, and the stitched
//! whole-network schedule passes the independent validator — byte-identical
//! whether the shards were scheduled sequentially or on the worker pool.
//! A fixed 1,200-node workload pins its stitched digest at every shard count.

use proptest::prelude::*;
use wsan::core::shard::{self, ShardConfig};
use wsan::expr::sharding::{schedule_digest, schedule_sharded};
use wsan::expr::Algorithm;
use wsan::net::plants::{generate, PlantConfig};
use wsan::net::propagation::PropagationModel;
use wsan::net::{ChannelId, Prr};

/// Small-but-varied plant layouts: 1–4 buildings, 1–2 floors, dense enough
/// per floor that the generator can find a connected candidate and shards
/// can still route peer-to-peer flows.
fn arb_plant() -> impl Strategy<Value = (PlantConfig, u64)> {
    (1usize..=2, 1usize..=2, 1usize..=2, 12usize..=18, 8.0f64..13.0, 0u64..1_000).prop_map(
        |(bx, by, floors, npf, gap, seed)| {
            let config = PlantConfig {
                name: format!("prop-{bx}x{by}x{floors}x{npf}"),
                buildings_x: bx,
                buildings_y: by,
                floors,
                nodes_per_floor: npf,
                building_width_m: 40.0,
                building_depth_m: 20.0,
                street_gap_m: gap,
                model: PropagationModel::default(),
                channel_offset_sigma_db: 1.5,
            };
            (config, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated plant is connected at the scheduling threshold and
    /// regenerating with the same seed reproduces the topology exactly.
    #[test]
    fn plant_is_connected_and_seed_reproducible((config, seed) in arb_plant()) {
        let plant = generate(&config, seed);
        prop_assert_eq!(plant.node_count(), config.node_count());
        let comm = plant.comm_graph(&ChannelId::all(), Prr::new(0.9).unwrap());
        prop_assert!(comm.is_connected(), "plant {} seed {seed} is disconnected", plant.name());
        let again = generate(&config, seed);
        prop_assert_eq!(plant.links(), again.links(), "topology is not seed-deterministic");
    }

    /// The gateway partition is an exact cover: every node lands in exactly
    /// one shard, and the inverse map agrees with the shard node lists.
    #[test]
    fn shard_partition_covers_every_node_exactly_once(
        (config, seed) in arb_plant(),
        shards in 1usize..=3,
    ) {
        let plant = generate(&config, seed);
        let plan = shard::plan(&plant, &ChannelId::all(), &ShardConfig::new(shards, seed, 2), 1)
            .expect("planning a small connected plant");
        let mut owners = vec![0usize; plant.node_count()];
        for s in plan.shards() {
            for &node in &s.nodes {
                owners[node.index()] += 1;
                prop_assert_eq!(plan.shard_of(node), s.index, "inverse map disagrees");
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "partition is not an exact cover");
    }

    /// Every flow a shard problem carries routes over links the plant
    /// really provides at the admission threshold, in both directions on
    /// every channel, entirely inside its own shard.
    #[test]
    fn every_generated_flow_route_exists_on_the_plant(
        (config, seed) in arb_plant(),
        shards in 1usize..=2,
    ) {
        let plant = generate(&config, seed);
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(shards, seed, 2);
        let plan = shard::plan(&plant, &channels, &cfg, 1).expect("planning");
        for index in 0..shards {
            let problem = shard::build_problem(&plant, &channels, &plan, &cfg, index, 1)
                .expect("building the shard problem");
            for flow in problem.flows.iter() {
                for route in flow.segments() {
                    for pair in route.nodes().windows(2) {
                        let tx = problem.local_to_global[pair[0].index()];
                        let rx = problem.local_to_global[pair[1].index()];
                        prop_assert_eq!(plan.shard_of(tx), index, "route leaves its shard");
                        prop_assert_eq!(plan.shard_of(rx), index, "route leaves its shard");
                        for ch in channels.iter() {
                            let fwd = plant.prr(tx, rx, ch).value();
                            let rev = plant.prr(rx, tx, ch).value();
                            prop_assert!(
                                fwd >= cfg.prr_t.value() && rev >= cfg.prr_t.value(),
                                "flow rides {tx}->{rx} with PRR {fwd:.3}/{rev:.3} on {ch}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    // End-to-end sharded scheduling is the expensive property; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The stitched whole-network schedule passes the independent validator
    /// and is byte-identical between a sequential run and the worker pool.
    #[test]
    fn stitched_schedule_validates_and_is_pool_deterministic(
        (config, seed) in arb_plant(),
        shards in 1usize..=2,
    ) {
        let plant = generate(&config, seed);
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(shards, seed, 2);
        let algo = Algorithm::Rc { rho_t: 2 };
        let sequential = schedule_sharded(&plant, &channels, &cfg, &algo, 1)
            .expect("sequential sharded scheduling");
        let pooled = schedule_sharded(&plant, &channels, &cfg, &algo, 4)
            .expect("pooled sharded scheduling");
        prop_assert_eq!(&sequential.schedule, &pooled.schedule, "pool changed the schedule");
        prop_assert_eq!(sequential.report.digest, pooled.report.digest);
        prop_assert_eq!(
            schedule_digest(&sequential.schedule),
            sequential.report.digest,
            "reported digest does not match the stitched schedule"
        );
        let verdict =
            shard::validate_stitched(&plant, &channels, cfg.reuse_floor, &sequential.schedule);
        prop_assert!(verdict.is_ok(), "stitched schedule violates: {:?}", verdict.unwrap_err());
    }
}

/// The acceptance-scale pin: a 1,000+-node city plant schedules across four
/// gateway shards, the stitched schedule passes the whole-network validator,
/// and the worker pool reproduces the sequential bytes exactly.
#[test]
fn thousand_node_plant_schedules_across_four_shards() {
    let config = PlantConfig::city("city-1000", 1_000);
    let plant = generate(&config, 7);
    assert!(plant.node_count() >= 1_000, "city preset undershot: {}", plant.node_count());
    let channels = ChannelId::all();
    let cfg = ShardConfig { flows_per_shard: 4, ..ShardConfig::new(4, 7, 0) };
    let algo = Algorithm::Rc { rho_t: 2 };
    let sequential =
        schedule_sharded(&plant, &channels, &cfg, &algo, 1).expect("sequential sharded scheduling");
    let pooled =
        schedule_sharded(&plant, &channels, &cfg, &algo, 0).expect("pooled sharded scheduling");
    assert_eq!(sequential.plan.shards().len(), 4);
    assert_eq!(sequential.report.flows, 16);
    assert_eq!(sequential.schedule, pooled.schedule, "pool changed the schedule");
    assert_eq!(sequential.report.digest, pooled.report.digest);
    shard::validate_stitched(&plant, &channels, cfg.reuse_floor, &sequential.schedule)
        .expect("stitched 1,000-node schedule must be interference-free");
}

/// The 1,200-node shard-count pins: one 24-flow RC workload split over
/// 1, 2, 4 and 8 gateways stitches exactly these schedules, sequentially
/// and on the worker pool.
#[test]
fn twelve_hundred_node_digests_are_pinned_for_every_shard_count() {
    let plant = generate(&PlantConfig::city("city-1200", 1_200), 42);
    let channels = ChannelId::all();
    let algo = Algorithm::Rc { rho_t: 2 };
    for (shards, digest) in [
        (1, 0x79cc_4398_d3db_39aa),
        (2, 0xe3d5_8e21_fe6c_6d3e),
        (4, 0xc896_4e7d_947a_46fb),
        (8, 0xa47f_a0c5_49d8_76ea),
    ] {
        let cfg = ShardConfig { flows_per_shard: 24 / shards, ..ShardConfig::new(shards, 42, 0) };
        for jobs in [1, 0] {
            let out = schedule_sharded(&plant, &channels, &cfg, &algo, jobs)
                .expect("the pinned workload schedules");
            assert_eq!(out.report.digest, digest, "{shards} shard(s), jobs {jobs}");
        }
    }
}
