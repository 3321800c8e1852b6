//! Golden pins for plant generation.
//!
//! Plant generation is performance-sensitive (pair pruning, a worker
//! pool); these pins freeze the exact link table of two small plants so
//! any drift — a link dropped or added, one PRR bit changed, an RNG draw
//! moved — fails loudly, at any worker count. Both digests were recorded
//! on the unpruned, single-threaded generator.
//!
//! If an *intentional* model change invalidates a pin, rerun with
//! `WSAN_GOLDEN_DUMP=1 cargo test -p wsan-net --test golden_plants -- --nocapture`
//! and update the constants after reviewing the change.

use wsan_net::fnv::Fnv1a;
use wsan_net::plants::{generate, try_generate, Plant, PlantConfig};
use wsan_net::propagation::PropagationModel;

/// FNV-1a 64 over every link's `(a, b)` and the bits of its 32 PRRs, in
/// the plant's `(a, b)` order.
fn link_digest(plant: &Plant) -> u64 {
    let mut hash = Fnv1a::new();
    let mut eat = |word: u32| hash.write(&word.to_le_bytes());
    for link in plant.links() {
        eat(link.a.index() as u32);
        eat(link.b.index() as u32);
        for prr in link.prr_ab.iter().chain(&link.prr_ba) {
            eat(prr.to_bits());
        }
    }
    hash.finish()
}

/// Checks `plant` against its pins, printing them under `WSAN_GOLDEN_DUMP`.
fn assert_pinned(label: &str, plant: &Plant, links: usize, digest: u64) {
    let got = link_digest(plant);
    if std::env::var("WSAN_GOLDEN_DUMP").is_ok() {
        println!(
            "{label}: {} nodes, {} links, digest {got:#018x}",
            plant.node_count(),
            plant.links().len()
        );
    }
    assert_eq!(plant.links().len(), links, "{label}: link count drifted");
    assert_eq!(got, digest, "{label}: link table drifted");
}

/// Five floors with strong per-channel, per-direction and campus-wide
/// spread: the case where the most pairs sit near the PRR floor.
fn tower_config() -> PlantConfig {
    PlantConfig {
        name: "tower-300".to_string(),
        buildings_x: 3,
        buildings_y: 1,
        floors: 5,
        nodes_per_floor: 20,
        building_width_m: 30.0,
        building_depth_m: 20.0,
        street_gap_m: 10.0,
        model: PropagationModel {
            channel_shadowing_sigma_db: 3.0,
            asymmetry_sigma_db: 1.5,
            ..PropagationModel::default()
        },
        channel_offset_sigma_db: 3.0,
    }
}

/// `config` at `seed`, through [`generate`] (every core) and through
/// [`try_generate`] at one and two workers.
fn plants(config: &PlantConfig, seed: u64) -> Vec<(String, Plant)> {
    let mut out = vec![("every core".to_string(), generate(config, seed))];
    for jobs in [1, 2] {
        out.push((format!("jobs {jobs}"), try_generate(config, seed, jobs).unwrap()));
    }
    out
}

#[test]
fn multi_floor_plant_matches_its_pin() {
    for (how, plant) in plants(&tower_config(), 2018) {
        assert_eq!(plant.node_count(), 300);
        assert_pinned(&format!("tower-300, {how}"), &plant, 12_599, 0xe410_2b93_1286_20bf);
    }
}

#[test]
fn city_plant_matches_its_pin() {
    for (how, plant) in plants(&PlantConfig::city("city-400", 400), 42) {
        assert_eq!(plant.node_count(), 400);
        assert_pinned(&format!("city-400, {how}"), &plant, 15_849, 0x5562_c596_ec45_fcec);
    }
}
