//! `health-epochs`: one op is one seeded WUSTL-60 flow set supervised under
//! RC and under RA by `wsan_expr::recovery::supervise`. Each set's fault
//! plan collapses the busiest links of its schedule halfway through epoch
//! 0, and WiFi interferers sit on every floor, so the classifier and the
//! recovery ladder both run. The simulator does most of the work.
//!
//! The traced run re-runs `supervise`'s epoch loop step by step through
//! the same public calls (`Simulator::try_run_faulted`,
//! `DetectionPolicy::classify`, `wsan_core::recovery::recover`), one span
//! per call, and must reproduce `supervise`'s `RecoverySummary` exactly.

use crate::trace::{self, durations_ms, median, quantile, Paired, Tracer};
use crate::{chunk, mix, op_count, timed, Digest, Opts, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use wsan_core::recovery::recover;
use wsan_core::{NetworkModel, Schedule};
use wsan_detect::LinkVerdict;
use wsan_expr::recovery::{
    baseline_pdr, supervise, EpochAction, EpochRecord, RecoverySummary, SupervisorConfig,
};
use wsan_expr::schedulable::set_seed;
use wsan_expr::Algorithm;
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, ChannelSet, DirectedLink, Prr, Topology};
use wsan_sim::{FaultPlan, LinkCondition, SimConfig, Simulator};

/// The testbed is the same for every seed; flow sets and faults vary.
const TOPOLOGY_SEED: u64 = 1;
const ALGORITHMS: [Algorithm; 2] = [Algorithm::Rc { rho_t: 2 }, Algorithm::Ra { rho: 2 }];
/// Busiest scheduled links collapsed to PRR 0 mid-epoch 0.
const COLLAPSED_LINKS: usize = 2;

struct Shape {
    /// Distinct flow sets generated in set-up; op `i` supervises set
    /// `i mod sets` with its own supervisor seed.
    sets: usize,
    flows: usize,
    epochs: u32,
    samples_per_epoch: u32,
    window_reps: u32,
    setup_reps: usize,
    warmup: usize,
    ops: usize,
}

fn shape(opts: &Opts) -> Shape {
    if opts.tiny {
        Shape {
            sets: 4,
            flows: 10,
            epochs: 3,
            samples_per_epoch: 4,
            window_reps: 2,
            setup_reps: 1,
            warmup: 1,
            ops: 3,
        }
    } else {
        // The supervisor's default epochs and sampling: an op then takes
        // ~40 ms, long enough that a stall of the shared VM slows every op
        // a little rather than some ops a lot, which kept a ~12 ms op's
        // median swinging between runs by a quarter.
        let d = SupervisorConfig::default();
        Shape {
            sets: 200,
            flows: 30,
            epochs: d.epochs,
            samples_per_epoch: d.samples_per_epoch,
            window_reps: d.window_reps,
            setup_reps: 3,
            warmup: 3,
            ops: op_count(opts, 20),
        }
    }
}

/// The generated inputs: flow sets, and per (set, algorithm) the
/// supervisor configuration with its fault plan and the fault-free
/// baseline PDR.
struct Inputs {
    seed: u64,
    topology: Topology,
    channels: ChannelSet,
    sets: Vec<FlowSet>,
    configs: Vec<[SupervisorConfig; 2]>,
    baselines: Vec<[f64; 2]>,
}

fn build_inputs(opts: &Opts, s: &Shape) -> Result<Inputs, String> {
    let topology = testbeds::wustl(TOPOLOGY_SEED);
    let channels = ChannelId::range(11, 14).map_err(|e| e.to_string())?;
    let comm = topology.comm_graph(&channels, Prr::new(0.9).map_err(|e| e.to_string())?);
    let model = NetworkModel::new(&topology, &channels);
    let interferers = wsan_expr::detection::per_floor_interferers(&topology, -3.0, 0.10);
    let periods = PeriodRange::new(0, 1).map_err(|e| e.to_string())?;
    let flow_cfg = FlowSetConfig::new(s.flows, periods, TrafficPattern::PeerToPeer);
    let (mut sets, mut configs, mut baselines) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..s.sets {
        let set = FlowSetGenerator::new(mix(opts.seed, i as u64))
            .generate(&comm, &flow_cfg)
            .map_err(|e| format!("flow set {i}: {e}"))?;
        let base = SupervisorConfig {
            seed: mix(opts.seed, 0x5eed_0000 + i as u64),
            epochs: s.epochs,
            samples_per_epoch: s.samples_per_epoch,
            window_reps: s.window_reps,
            interferers: interferers.clone(),
            ..SupervisorConfig::default()
        };
        let mut per_algo = Vec::with_capacity(2);
        let mut pdrs = [0.0; 2];
        for (a, algo) in ALGORITHMS.into_iter().enumerate() {
            let schedule =
                algo.build().schedule(&set, &model).map_err(|e| format!("flow set {i}: {e}"))?;
            let faults = collapse_busiest(&schedule, &base, mix(base.seed, a as u64));
            per_algo.push(SupervisorConfig { faults, ..base.clone() });
            pdrs[a] =
                baseline_pdr(&topology, &channels, &set, algo, &base).map_err(|e| e.to_string())?;
        }
        let pair: [SupervisorConfig; 2] = per_algo.try_into().expect("two algorithms");
        sets.push(set);
        configs.push(pair);
        baselines.push(pdrs);
    }
    Ok(Inputs { seed: opts.seed, topology, channels, sets, configs, baselines })
}

/// A fault plan collapsing the busiest scheduled links halfway through
/// epoch 0, as `wsan_expr::recovery::intensity_point` builds it.
fn collapse_busiest(schedule: &Schedule, cfg: &SupervisorConfig, seed: u64) -> FaultPlan {
    let mut load: BTreeMap<DirectedLink, usize> = BTreeMap::new();
    for entry in schedule.entries() {
        *load.entry(entry.tx.link).or_default() += 1;
    }
    let mut by_load: Vec<(DirectedLink, usize)> = load.into_iter().collect();
    by_load.sort_by_key(|&(link, count)| (std::cmp::Reverse(count), link));
    let reps = cfg.samples_per_epoch * cfg.window_reps;
    let onset = u64::from(schedule.horizon()) * u64::from(reps / 2);
    by_load
        .iter()
        .take(COLLAPSED_LINKS)
        .fold(FaultPlan::new(seed), |plan, &(link, _)| plan.collapse_link_at(onset, link, 0.0))
}

/// Counts taken at the span boundaries of the stepwise re-run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    slots: u64,
    busy_slots: u64,
    links_classified: u64,
    reuse_degraded: u64,
    reschedules: u64,
    moved_transmissions: u64,
    shed_flows: u64,
}

/// `supervise`'s closed loop, call by call, each call under a span.
fn stepwise(
    t: &mut Tracer,
    inputs: &Inputs,
    flows: &FlowSet,
    algorithm: Algorithm,
    cfg: &SupervisorConfig,
    counts: &mut Counts,
) -> Result<RecoverySummary, String> {
    let (topology, channels) = (&inputs.topology, &inputs.channels);
    let model = t.span("core.model.new", |_| NetworkModel::new(topology, channels));
    let scheduler = algorithm.build();
    let mut schedule = t
        .span("core.sched.schedule", |_| scheduler.schedule(flows, &model))
        .map_err(|e| e.to_string())?;
    let mut current = flows.clone();
    let mut survivors: Vec<usize> = (0..flows.len()).collect();
    let mut shed_total: Vec<usize> = Vec::new();
    let (mut attempts, mut backoff_left) = (0u32, 0u32);
    let mut epochs = Vec::new();
    let mut residual_pdr = 0.0;
    let reps = cfg.samples_per_epoch * cfg.window_reps;
    for epoch in 0..cfg.epochs {
        if current.is_empty() {
            residual_pdr = 0.0;
            epochs.push(EpochRecord {
                epoch,
                reuse_degraded: 0,
                dead_links: 0,
                faults_fired: 0,
                network_pdr: 0.0,
                surviving_flows: 0,
                action: EpochAction::Healthy,
            });
            continue;
        }
        let plan = if epoch == 0 { cfg.faults.clone() } else { cfg.faults.settled() };
        let sim = t
            .span("sim.build", |_| Simulator::try_new(topology, channels, &current, &schedule))
            .map_err(|e| e.to_string())?;
        let sim_cfg = SimConfig {
            seed: set_seed(cfg.seed, epoch as usize),
            repetitions: reps,
            window_reps: cfg.window_reps,
            capture: cfg.capture,
            interferers: cfg.interferers.clone(),
            discovery_probes: 1,
            faults: plan,
        };
        let (report, fault_log) =
            t.span("sim.run", |_| sim.try_run_faulted(&sim_cfg)).map_err(|e| e.to_string())?;
        let busy: BTreeSet<u32> = schedule.entries().iter().map(|e| e.slot).collect();
        counts.slots += u64::from(schedule.horizon()) * u64::from(reps);
        counts.busy_slots += busy.len() as u64 * u64::from(reps);
        residual_pdr = report.network_pdr();

        let (mut degraded, classified) = t.span("detect.classify", |_| {
            let links = report.links_with_reuse();
            let degraded: Vec<DirectedLink> = links
                .iter()
                .copied()
                .filter(|&link| {
                    let reuse = report.prr_distribution(link, LinkCondition::Reuse);
                    let cf = report.prr_distribution(link, LinkCondition::ContentionFree);
                    cfg.policy.classify(&reuse, &cf) == LinkVerdict::ReuseDegraded
                })
                .collect();
            (degraded, links.len())
        });
        counts.links_classified += classified as u64;
        counts.reuse_degraded += degraded.len() as u64;
        let mut dead: Vec<DirectedLink> = t.span("sim.dead_links", |_| {
            let scheduled: BTreeSet<DirectedLink> =
                schedule.entries().iter().map(|e| e.tx.link).collect();
            scheduled
                .into_iter()
                .filter(|l| {
                    report
                        .overall_prr(*l, LinkCondition::ContentionFree)
                        .is_some_and(|p| p < cfg.dead_prr)
                })
                .collect()
        });
        let (reuse_degraded, dead_links) = (degraded.len(), dead.len());
        let record = |action| EpochRecord {
            epoch,
            reuse_degraded,
            dead_links,
            faults_fired: fault_log.fired(),
            network_pdr: residual_pdr,
            surviving_flows: current.len(),
            action,
        };
        if degraded.is_empty() && dead.is_empty() {
            attempts = 0;
            backoff_left = 0;
            epochs.push(record(EpochAction::Healthy));
            continue;
        }
        if backoff_left > 0 {
            backoff_left -= 1;
            epochs.push(record(EpochAction::Backoff { remaining: backoff_left }));
            continue;
        }
        attempts += 1;
        if attempts > cfg.max_attempts {
            dead.append(&mut degraded);
        }
        let out = t
            .span("core.recovery.recover", |_| {
                recover(
                    &schedule,
                    &model,
                    &current,
                    scheduler.as_ref(),
                    &cfg.recovery,
                    &degraded,
                    &dead,
                )
            })
            .map_err(|e| e.to_string())?;
        let shed_this: Vec<usize> = out.shed.iter().map(|id| survivors[id.index()]).collect();
        survivors = out.survivors.iter().map(|id| survivors[id.index()]).collect();
        shed_total.extend(shed_this.iter().copied());
        counts.reschedules += u64::from(out.reschedules);
        counts.moved_transmissions += out.repair.moved_transmissions as u64;
        counts.shed_flows += shed_this.len() as u64;
        backoff_left = cfg.backoff_epochs.saturating_mul(1u32 << (attempts - 1).min(16));
        let surviving = out.flows.len();
        let action = EpochAction::Recovered {
            moved_transmissions: out.repair.moved_transmissions,
            reschedules: out.reschedules,
            shed: shed_this,
        };
        epochs.push(EpochRecord { surviving_flows: surviving, ..record(action) });
        schedule = out.schedule;
        current = out.flows;
    }
    let converged =
        matches!(epochs.last(), None | Some(EpochRecord { action: EpochAction::Healthy, .. }));
    Ok(RecoverySummary {
        algorithm: algorithm.to_string(),
        epochs,
        shed_flows: shed_total,
        residual_pdr,
        converged,
    })
}

/// Op `i`'s flow set and its per-algorithm supervisor configurations,
/// re-seeded for the op.
fn op_input(inputs: &Inputs, i: usize) -> (&FlowSet, [SupervisorConfig; 2]) {
    let set = i % inputs.sets.len();
    let seed = mix(inputs.seed, 0x0e90_c000 + i as u64);
    let configs = inputs.configs[set].clone().map(|cfg| SupervisorConfig { seed, ..cfg });
    (&inputs.sets[set], configs)
}

/// Runs `f` on op `i`'s flow set under RC and then RA.
fn both_algorithms(
    inputs: &Inputs,
    i: usize,
    mut f: impl FnMut(&FlowSet, Algorithm, &SupervisorConfig) -> Result<RecoverySummary, String>,
) -> Result<[RecoverySummary; 2], String> {
    let (flows, configs) = op_input(inputs, i);
    Ok([f(flows, ALGORITHMS[0], &configs[0])?, f(flows, ALGORITHMS[1], &configs[1])?])
}

/// One op through the program's own supervisor: the RC and RA summaries.
fn supervised_op(inputs: &Inputs, i: usize) -> Result<[RecoverySummary; 2], String> {
    both_algorithms(inputs, i, |flows, algo, cfg| {
        supervise(&inputs.topology, &inputs.channels, flows, algo, cfg)
            .map(|run| run.summary)
            .map_err(|e| e.to_string())
    })
}

/// The same op, step by step under `t`.
fn stepwise_op(
    t: &mut Tracer,
    inputs: &Inputs,
    i: usize,
    counts: &mut Counts,
) -> Result<[RecoverySummary; 2], String> {
    both_algorithms(inputs, i, |flows, algo, cfg| stepwise(t, inputs, flows, algo, cfg, counts))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let s = shape(opts);
    // A traced run re-runs each op of the first chunk right after it, step
    // by step, untraced and then traced; counts are kept per re-run.
    let traced_ops = if opts.trace { chunk(s.ops, s.setup_reps, 0).end } else { 0 };
    let mut paired = Paired::new();
    let mut counts = [Counts::default(); 2];
    let mut steps = Vec::with_capacity(traced_ops.max(1));

    // Set-up repetitions interleave with chunks of the timed ops; every
    // repetition builds the same inputs, so the first serves all ops.
    let (inputs, first_setup) = timed(|| build_inputs(opts, &s));
    let inputs = inputs?;
    let mut setup_samples = vec![first_setup];
    for i in 0..s.warmup {
        supervised_op(&inputs, i)?;
    }
    let mut op_ms = Vec::with_capacity(s.ops);
    let mut results = Vec::with_capacity(s.ops);
    for rep in 0..s.setup_reps {
        if rep > 0 {
            let (again, secs) = timed(|| build_inputs(opts, &s));
            again?;
            setup_samples.push(secs);
        }
        for k in chunk(s.ops, s.setup_reps, rep) {
            let i = s.warmup + k;
            let (result, secs) = timed(|| supervised_op(&inputs, i));
            op_ms.push(secs * 1e3);
            results.push(result);
            if k < traced_ops {
                let step = paired.run(k as u32, |t, traced| {
                    stepwise_op(t, &inputs, i, &mut counts[usize::from(traced)])
                });
                steps.push(step?);
            }
        }
    }
    let setup_s = median(&setup_samples);

    let mut digest = Digest::default();
    for pdrs in &inputs.baselines {
        digest.eat(pdrs[0].to_bits());
        digest.eat(pdrs[1].to_bits());
    }
    for r in &results {
        match r {
            Ok(pair) => {
                for summary in pair {
                    digest.eat(summary.residual_pdr.to_bits());
                    digest.eat(summary.shed_flows.len() as u64);
                    digest.eat(summary.epochs.len() as u64);
                    digest.eat(u64::from(summary.converged));
                }
            }
            Err(e) => digest.eat_str(e),
        }
    }

    // Gate: the step-by-step re-run reproduces supervise exactly — every
    // re-run op of a traced run, the first timed op of an untraced one.
    let mut gate_errors = Vec::new();
    if !opts.trace {
        steps.push(stepwise_op(
            &mut Tracer::new(false),
            &inputs,
            s.warmup,
            &mut Counts::default(),
        )?);
    }
    for (k, (mut got, expected)) in steps.into_iter().zip(&results).enumerate() {
        if opts.corrupt {
            got[0].residual_pdr = f64::from_bits(got[0].residual_pdr.to_bits() ^ 1);
        }
        if expected.as_ref().ok() != Some(&got) {
            gate_errors
                .push(format!("health-epochs op {k}: step-by-step re-run differs from supervise"));
        }
    }
    let [plain_counts, counts] = counts;
    if counts != plain_counts {
        gate_errors.push(format!(
            "health-epochs: counts differ, traced {counts:?} vs untraced {plain_counts:?}"
        ));
    }

    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
    let attempted = results.len() as u64;
    let mut outcome = Outcome {
        attempted,
        failed: attempted - ok,
        metrics: Vec::new(),
        gate_errors,
        outputs_digest: digest.value(),
        tracer: None,
    };
    if !opts.trace {
        let rc_residual: Vec<f64> =
            results.iter().flatten().map(|pair| pair[0].residual_pdr).collect();
        outcome.metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", median(&op_ms)),
            ("op_p90_ms", quantile(&op_ms, 0.9)),
            ("ok_ratio", ok as f64 / attempted.max(1) as f64),
            ("residual_pdr", median(&rc_residual)),
        ];
        return Ok(outcome);
    }

    let tracer = &paired.traced;
    let per_op = tracer.self_by_op();
    let n = traced_ops.max(1) as f64;
    outcome.metrics = vec![
        ("core.sched.schedule_ms", trace::stage_median_ms(&per_op, "core.sched.schedule")),
        ("sim.run_ms", median(&durations_ms(tracer.spans(), "sim.run"))),
        ("sim.busy_slot_share", counts.busy_slots as f64 / counts.slots.max(1) as f64),
        ("sim.slots", counts.slots as f64 / n),
        ("detect.classify_ms", median(&durations_ms(tracer.spans(), "detect.classify"))),
        ("detect.links_classified", counts.links_classified as f64 / n),
        ("detect.reuse_degraded", counts.reuse_degraded as f64 / n),
        (
            "core.recovery.recover_ms",
            median(&durations_ms(tracer.spans(), "core.recovery.recover")),
        ),
        ("core.recovery.reschedules", counts.reschedules as f64 / n),
        ("core.recovery.moved_transmissions", counts.moved_transmissions as f64 / n),
        ("core.recovery.shed_flows", counts.shed_flows as f64 / n),
        ("trace.op_ms", median(&tracer.op_ms())),
        ("trace.overhead", paired.overhead()),
    ];
    outcome.tracer = Some(paired.traced);
    Ok(outcome)
}
