//! `city-plan`: one op is one `wsan_expr::sharding::schedule_sharded` call
//! on a fixed city plant, with its own `ShardConfig.seed` so gateways and
//! flow sets vary while the plant stays. Graph and shard planning do
//! nearly all the work; the scheduler is a small share.

use crate::trace::{self, median, quantile, Paired, Tracer};
use crate::{chunk, mix, op_count, timed, Digest, Opts, Outcome};
use wsan_core::shard::{
    build_problem, plan, schedule_shard, stitch, validate_stitched, ShardConfig, ShardPart,
};
use wsan_core::SchedulerConfig;
use wsan_expr::sharding::{schedule_digest, schedule_sharded};
use wsan_expr::Algorithm;
use wsan_net::plants::{generate, Plant, PlantConfig};
use wsan_net::{ChannelId, ChannelSet};

/// Pool workers of the untraced ops: fixed, so runs on machines with
/// different core counts do the same work; sized for two cores.
pub const JOBS: usize = 2;
/// The plant is the same for every seed; only the op seeds vary.
const PLANT_SEED: u64 = 2018;
const ALGORITHM: Algorithm = Algorithm::Rc { rho_t: 2 };

struct Shape {
    nodes: usize,
    shards: usize,
    flows_per_shard: usize,
    setup_reps: usize,
    warmup: usize,
    ops: usize,
}

fn shape(opts: &Opts) -> Shape {
    if opts.tiny {
        Shape { nodes: 200, shards: 3, flows_per_shard: 3, setup_reps: 1, warmup: 1, ops: 3 }
    } else {
        Shape {
            nodes: 2000,
            shards: 8,
            flows_per_shard: 6,
            setup_reps: 3,
            warmup: 2,
            ops: op_count(opts, 8),
        }
    }
}

/// The deterministic result of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpResult {
    digest: u64,
    colors: usize,
    entries: usize,
}

/// What the stepwise pass adds per op: bytes of the per-shard hop tables.
struct StepResult {
    result: OpResult,
    hop_bytes: usize,
}

fn op_config(opts: &Opts, s: &Shape, i: usize) -> ShardConfig {
    ShardConfig::new(s.shards, mix(opts.seed, i as u64), s.flows_per_shard)
}

/// One op at `jobs` workers through the program's own `schedule_sharded`.
fn pooled_op(
    plant: &Plant,
    channels: &ChannelSet,
    cfg: &ShardConfig,
    jobs: usize,
) -> Result<OpResult, String> {
    let out =
        schedule_sharded(plant, channels, cfg, &ALGORITHM, jobs).map_err(|e| e.to_string())?;
    Ok(OpResult {
        digest: out.report.digest,
        colors: out.report.colors,
        entries: out.report.entries,
    })
}

/// The same op re-run stage by stage at one worker, each call into a
/// layer under its own span.
fn stepwise_op(
    t: &mut Tracer,
    plant: &Plant,
    channels: &ChannelSet,
    cfg: &ShardConfig,
) -> Result<StepResult, String> {
    let plan =
        t.span("core.shard.plan", |_| plan(plant, channels, cfg, 1)).map_err(|e| e.to_string())?;
    let scheduler = ALGORITHM.build();
    let sched_cfg = SchedulerConfig::default();
    let mut parts = Vec::with_capacity(cfg.shards);
    let mut hop_bytes = 0;
    for shard in 0..cfg.shards {
        let problem = t
            .span("core.shard.build_problem", |_| {
                build_problem(plant, channels, &plan, cfg, shard, 1)
            })
            .map_err(|e| e.to_string())?;
        hop_bytes += problem.model.hops().bytes();
        let schedule = t
            .span("core.sched.schedule", |_| {
                schedule_shard(&problem, scheduler.as_ref(), &sched_cfg)
            })
            .map_err(|e| e.to_string())?;
        parts.push(ShardPart {
            shard,
            flow_count: problem.flows.len(),
            local_to_global: problem.local_to_global,
            offset_base: problem.offset_base,
            schedule,
        });
    }
    let stitched = t
        .span("core.shard.stitch", |_| stitch(plant.node_count(), channels.len(), &parts))
        .map_err(|e| e.to_string())?;
    t.span("core.shard.validate", |_| {
        validate_stitched(plant, channels, cfg.reuse_floor, &stitched)
    })
    .map_err(|v| format!("stitched schedule has {} violation(s)", v.len()))?;
    Ok(StepResult {
        result: OpResult {
            digest: schedule_digest(&stitched),
            colors: plan.color_count,
            entries: stitched.entry_count(),
        },
        hop_bytes,
    })
}

fn median_of_runs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let s = shape(opts);
    let plant_cfg = PlantConfig::city(format!("city-{}", s.nodes), s.nodes);
    let channels = ChannelId::all();
    let cfgs: Vec<ShardConfig> = (0..s.warmup + s.ops).map(|i| op_config(opts, &s, i)).collect();
    let timed_cfgs = &cfgs[s.warmup..];
    // A traced run re-runs each op of the first chunk right after it,
    // stage by stage at one worker.
    let traced_ops = if opts.trace { chunk(s.ops, s.setup_reps, 0).end } else { 0 };
    let mut paired = Paired::new();
    let mut steps = Vec::with_capacity(traced_ops);

    // Set-up repetitions interleave with chunks of the timed ops; the
    // plant is the same every time, so the first one serves all ops.
    let (plant, first_setup) = timed(|| generate(&plant_cfg, PLANT_SEED));
    let mut setup_samples = vec![first_setup];
    for cfg in &cfgs[..s.warmup] {
        pooled_op(&plant, &channels, cfg, JOBS)?;
    }
    let mut op_ms = Vec::with_capacity(s.ops);
    let mut results = Vec::with_capacity(s.ops);
    for rep in 0..s.setup_reps {
        if rep > 0 {
            setup_samples
                .push(timed(|| drop(std::hint::black_box(generate(&plant_cfg, PLANT_SEED)))).1);
        }
        for k in chunk(s.ops, s.setup_reps, rep) {
            let cfg = &timed_cfgs[k];
            let (result, secs) = timed(|| pooled_op(&plant, &channels, cfg, JOBS));
            op_ms.push(secs * 1e3);
            results.push(result);
            if k < traced_ops {
                steps.push(paired.run(k as u32, |t, _| stepwise_op(t, &plant, &channels, cfg)));
            }
        }
    }
    let setup_s = median(&setup_samples);

    let mut gate_errors = Vec::new();
    let mut digest = Digest::default();
    for r in &results {
        match r {
            Ok(r) => {
                digest.eat(r.digest);
                digest.eat(r.colors as u64);
                digest.eat(r.entries as u64);
            }
            Err(e) => digest.eat_str(e),
        }
    }
    // Determinism gate: the first timed op again at one worker must give
    // the same stitched schedule.
    if let Some(Ok(pooled)) = results.first() {
        let mut sequential = pooled_op(&plant, &channels, &timed_cfgs[0], 1)?;
        if opts.corrupt {
            sequential.digest ^= 1;
        }
        if sequential != *pooled {
            gate_errors.push(format!(
                "city-plan op 0: jobs=1 gave {sequential:?}, jobs={JOBS} gave {pooled:?}"
            ));
        }
    }
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let attempted = results.len() as u64;
    let mut outcome = Outcome {
        attempted,
        failed: attempted - ok as u64,
        metrics: Vec::new(),
        gate_errors,
        outputs_digest: digest.value(),
        tracer: None,
    };
    if !opts.trace {
        outcome.metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", median(&op_ms)),
            ("op_p90_ms", quantile(&op_ms, 0.9)),
            ("ok_ratio", ok as f64 / attempted.max(1) as f64),
            // Nothing is simulated at city scale; see README.
            ("residual_pdr", 1.0),
        ];
        return Ok(outcome);
    }

    let mut totals = (0usize, 0usize, 0usize);
    for (i, (step, pooled)) in steps.iter().zip(&results).enumerate() {
        let result = step.as_ref().map(|s| s.result);
        if result.as_ref().ok() != pooled.as_ref().ok() {
            outcome
                .gate_errors
                .push(format!("city-plan op {i}: traced {result:?} vs untraced {pooled:?}"));
        }
        if let Ok(step) = step {
            totals.0 += step.hop_bytes;
            totals.1 += step.result.colors;
            totals.2 += step.result.entries;
        }
    }
    let graph_reps = if opts.tiny { 1 } else { 5 };
    let comm_s = median_of_runs(graph_reps, || {
        std::hint::black_box(plant.comm_graph(&channels, timed_cfgs[0].prr_t));
    });
    let reuse_s = median_of_runs(graph_reps, || {
        std::hint::black_box(plant.reuse_graph(&channels));
    });
    let per_op = paired.traced.self_by_op();
    let traced_ms = median(&paired.traced.op_ms());
    let n = traced_ops.max(1) as f64;
    outcome.metrics = vec![
        ("net.plants.generate_s", setup_s),
        ("net.graph.reuse_graph_ms", reuse_s * 1e3),
        ("net.graph.comm_graph_ms", comm_s * 1e3),
        ("core.shard.plan_ms", trace::stage_median_ms(&per_op, "core.shard.plan")),
        (
            "core.shard.build_problem_ms",
            trace::stage_median_ms(&per_op, "core.shard.build_problem"),
        ),
        ("core.shard.stitch_ms", trace::stage_median_ms(&per_op, "core.shard.stitch")),
        ("core.shard.validate_ms", trace::stage_median_ms(&per_op, "core.shard.validate")),
        ("core.shard.hop_bytes", totals.0 as f64 / n),
        ("core.shard.colors", totals.1 as f64 / n),
        ("core.shard.entries", totals.2 as f64 / n),
        ("expr.sharding.pool_speedup", traced_ms / median(&op_ms[..traced_ops])),
        ("core.sched.schedule_ms", trace::stage_median_ms(&per_op, "core.sched.schedule")),
        ("trace.op_ms", traced_ms),
        ("trace.overhead", paired.overhead()),
    ];
    outcome.tracer = Some(paired.traced);
    Ok(outcome)
}
