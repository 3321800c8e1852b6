//! `graph_bench` — the tracked graph-core (hop structure) benchmark.
//!
//! Generates one ~1200-node city plant, builds its channel reuse graph,
//! and times the all-pairs hop-distance structure three ways: the dense
//! `u32` matrix built by sequential per-source BFS, and the capped table
//! ([`wsan_net::CappedHops`]) built by the bit-parallel multi-source BFS
//! kernel at `jobs = 1` and `jobs = N`. Writes `BENCH_graph.json`
//! (schema-checked by ci.sh) so the hop-structure build trajectory —
//! the single input every scheduler run pays for first — is comparable
//! across PRs. Every run also re-checks that the capped table answers
//! every `hops`/`at_least` query exactly as the dense matrix does and
//! that the parallel build is byte-identical to the sequential one.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin graph_bench [-- --iters 5 --quick --out PATH]
//! ```
//!
//! * `--iters N` — timed repetitions per variant (default 5),
//! * `--seed S` — plant seed (default 42),
//! * `--quick` — caps iterations at 2 for a smoke pass,
//! * `--out PATH` — output path (default `results/BENCH_graph.json`).

use serde::Serialize;
use std::process::ExitCode;
use wsan_bench::harness::{time_runs, BenchArgs};
use wsan_bench::{run_main, BenchError};
use wsan_net::plants::{generate, PlantConfig};
use wsan_net::{ChannelId, NodeId, UNREACHABLE};

/// The file-format tag checked by ci.sh's smoke step.
const SCHEMA: &str = "wsan.graph_bench/1";

/// Target plant size: the 1,200-node city the committed snapshot tracks.
const NODES: usize = 1200;

/// Workers for the parallel capped build.
const JOBS: usize = 4;

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    iters: u64,
    seed: u64,
    target_nodes: u64,
    /// Nodes in the generated plant (= rows of every hop structure).
    nodes: u64,
    /// Undirected edges in the channel reuse graph.
    edges: u64,
    /// Workers used by the parallel variant.
    jobs: u64,
    /// Reuse-graph diameter `λ_R` (agreed by all three builds).
    diameter: u64,
    /// Saturation cap of the capped table (`≥ λ_R + 1`, exact mode).
    cap: u64,
    /// Bytes of the dense `u32` matrix (`n² · 4`).
    dense_bytes: u64,
    /// Bytes of the capped table's cell storage.
    capped_bytes: u64,
    /// `capped_bytes / dense_bytes` — the storage acceptance series
    /// (≤ 0.25 whenever the cap fits in a byte).
    capped_over_dense_bytes: f64,
    /// Median wall-clock of the dense sequential per-source BFS build.
    median_dense_build_ns: u64,
    /// Median wall-clock of the capped bit-parallel build at `jobs = 1`.
    median_capped_jobs1_build_ns: u64,
    /// Median wall-clock of the capped bit-parallel build at `jobs = N`.
    median_capped_par_build_ns: u64,
    /// `median_dense_build_ns / median_capped_jobs1_build_ns`.
    speedup_capped_jobs1_vs_dense: f64,
    /// `median_dense_build_ns / median_capped_par_build_ns` — the
    /// hop-structure acceptance series.
    speedup_parallel_vs_dense: f64,
    /// The capped table answered every query exactly like the dense one.
    queries_equivalent: bool,
    /// `jobs = 1` and `jobs = N` built byte-identical tables.
    parallel_identical: bool,
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = BenchArgs::try_parse(5, 2)?;
        let plant_cfg = PlantConfig::city(format!("city-{NODES}"), NODES);
        let plant = generate(&plant_cfg, opts.seed);
        let channels = ChannelId::all();
        let reuse = plant.reuse_graph(&channels);
        let n = reuse.node_count();
        println!(
            "== graph_bench: {} iters, seed {}, {} nodes, {} reuse edges ==",
            opts.iters,
            opts.seed,
            n,
            reuse.edge_count()
        );

        let (median_dense_build_ns, dense) =
            time_runs("dense build", opts.iters, || reuse.hop_matrix())?;
        let (median_capped_jobs1_build_ns, capped_seq) =
            time_runs("capped build, jobs=1", opts.iters, || reuse.exact_hops(1))?;
        let (median_capped_par_build_ns, capped_par) =
            time_runs("capped build, jobs=N", opts.iters, || reuse.exact_hops(JOBS))?;

        // Correctness gates: the capped table must be schedule-identical to
        // the dense matrix (DESIGN.md §16) and independent of `jobs`.
        let parallel_identical = capped_seq == capped_par;
        if !parallel_identical {
            return Err(BenchError::Run(
                "jobs=1 and jobs=N capped builds diverged — BFS kernel is nondeterministic"
                    .to_string(),
            ));
        }
        let cap = capped_seq.cap();
        let mut queries_equivalent = capped_seq.diameter() == dense.diameter()
            && !capped_seq.saturated()
            && cap > dense.diameter();
        'outer: for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let d = dense.hops(a, b);
                let want = if d == UNREACHABLE { cap } else { d };
                if capped_seq.hops(a, b) != want {
                    queries_equivalent = false;
                    break 'outer;
                }
            }
        }
        if !queries_equivalent {
            return Err(BenchError::Run(
                "capped table disagrees with the dense matrix — exact-mode build is broken"
                    .to_string(),
            ));
        }

        let dense_bytes = (n * n * std::mem::size_of::<u32>()) as u64;
        let capped_bytes = capped_seq.bytes() as u64;
        let report = Report {
            schema: SCHEMA.to_string(),
            iters: opts.iters as u64,
            seed: opts.seed,
            target_nodes: NODES as u64,
            nodes: n as u64,
            edges: reuse.edge_count() as u64,
            jobs: JOBS as u64,
            diameter: u64::from(dense.diameter()),
            cap: u64::from(cap),
            dense_bytes,
            capped_bytes,
            capped_over_dense_bytes: capped_bytes as f64 / dense_bytes as f64,
            median_dense_build_ns,
            median_capped_jobs1_build_ns,
            median_capped_par_build_ns,
            speedup_capped_jobs1_vs_dense: median_dense_build_ns as f64
                / median_capped_jobs1_build_ns as f64,
            speedup_parallel_vs_dense: median_dense_build_ns as f64
                / median_capped_par_build_ns as f64,
            queries_equivalent,
            parallel_identical,
        };
        println!(
            "  dense   {:>9.2} ms  {:>11} bytes",
            median_dense_build_ns as f64 / 1e6,
            dense_bytes,
        );
        println!(
            "  capped  {:>9.2} ms  {:>11} bytes  (jobs=1, {:.1}x vs dense, {:.0}% of bytes)",
            median_capped_jobs1_build_ns as f64 / 1e6,
            capped_bytes,
            report.speedup_capped_jobs1_vs_dense,
            100.0 * report.capped_over_dense_bytes,
        );
        println!(
            "  capped  {:>9.2} ms  {:>11} bytes  (jobs={}, {:.1}x vs dense)",
            median_capped_par_build_ns as f64 / 1e6,
            capped_bytes,
            JOBS,
            report.speedup_parallel_vs_dense,
        );

        opts.write_report("BENCH_graph.json", &report)?;
        Ok(())
    })
}
