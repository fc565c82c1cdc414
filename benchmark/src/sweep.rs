//! `sweep_wide`: one cold `tune` of the `sweep --wide` defaults plus the
//! table build and JSON encoding — what each CLI run pays.

use crate::run::{counter_sum, probe, reps, with_registry, Bench, Layers, Timed};
use crate::spans::SpanLog;
use crate::stats;
use hanayo_analyze::{check_deadlock_free, memory::static_peak_mem};
use hanayo_cluster::ClusterSpec;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::replay_timeline;
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_model::{CostTable, ModelConfig, Recompute};
use hanayo_serve::schema::{build_sweep_table, TuneRequest};
use hanayo_sim::tuner::{tune_serial_with, tune_with, Rejection, TuneContext, TuneOptions, Tuning};
use hanayo_sim::{
    compile_schedule, evaluate_plan, try_simulate_compiled, Method, ParallelPlan, SimOptions,
    SweepCaches,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The `sweep` binary's defaults with `--wide`.
pub fn wide_request() -> TuneRequest {
    TuneRequest {
        model: "bert64".to_string(),
        cluster: "tacc".to_string(),
        gpus: 8,
        batch: 16,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial: false,
        top: None,
    }
}

/// The pipeline a plan's method actually simulates:
/// `(scheme, width, micro-batches)` (Chimera-wave is two 1-wave halves).
pub fn pipeline_of(plan: &ParallelPlan) -> (Scheme, u32, u32) {
    match plan.method {
        Method::GPipe => (Scheme::GPipe, plan.pp, plan.micro_batches),
        Method::Dapple => (Scheme::Dapple, plan.pp, plan.micro_batches),
        Method::ChimeraNative => (Scheme::Chimera, plan.pp, plan.micro_batches),
        Method::ChimeraWave => (Scheme::Hanayo { waves: 1 }, plan.pp / 2, plan.micro_batches / 2),
        Method::Hanayo { waves } => (Scheme::Hanayo { waves }, plan.pp, plan.micro_batches),
    }
}

pub struct Sweep {
    req: TuneRequest,
    model: ModelConfig,
    cluster: ClusterSpec,
    opts: TuneOptions,
    /// The document every op must reproduce, byte for byte.
    expected: String,
    /// Candidates one sweep evaluates (ranked + rejected): the work unit.
    candidates: usize,
}

impl Sweep {
    fn encode(&self, tuning: &Tuning) -> Result<String, String> {
        let modes = self.opts.recompute_variants();
        let table = build_sweep_table(&self.req, tuning, &self.cluster, &self.model, &modes);
        serde_json::to_string(&table).map_err(|e| e.to_string())
    }

    fn tune(&self, ctx: &TuneContext) -> Result<Tuning, String> {
        let Sweep { req, model, cluster, opts, .. } = self;
        tune_with(model, cluster, req.batch, req.micro_batch_size, opts, ctx)
            .map_err(|e| e.to_string())
    }

    fn tune_serial(&self) -> Result<Tuning, String> {
        let Sweep { req, model, cluster, opts, .. } = self;
        let ctx = TuneContext::default();
        tune_serial_with(model, cluster, req.batch, req.micro_batch_size, opts, &ctx)
            .map_err(|e| e.to_string())
    }

    /// One op: cold tune (fresh caches), table build, JSON encoding.
    fn op(&self) -> Result<String, String> {
        self.encode(&self.tune(&TuneContext::default())?)
    }

    /// The sweep has no random input; the seed is recorded only. The
    /// parallel sweep's bytes are checked against the serial reference.
    pub fn setup() -> Result<Sweep, String> {
        let req = wide_request();
        let (model, cluster, opts) = req.resolve()?;
        let mut sweep = Sweep { req, model, cluster, opts, expected: String::new(), candidates: 0 };
        let reference = sweep.tune_serial()?;
        sweep.candidates = reference.ranked.len() + reference.rejected.len();
        sweep.expected = sweep.encode(&reference)?;
        for _ in 0..8 {
            if sweep.op()? != sweep.expected {
                return Err("set-up: tune bytes differ from tune_serial".to_string());
            }
        }
        Ok(sweep)
    }

    /// Time the public building blocks over the distinct pipeline shapes
    /// the sweep evaluated.
    fn shape_probes(&self, tuning: &Tuning, scale: f64, log: &mut SpanLog, out: &mut Layers) {
        let plans = tuning.ranked.iter().map(|c| c.plan).chain(tuning.rejected.iter().filter_map(
            |r| match r {
                Rejection::Oom { plan, .. } => Some(*plan),
                Rejection::InvalidShape { .. } => None,
            },
        ));
        let mut shapes: Vec<(Scheme, u32, u32, u32, Recompute)> = Vec::new();
        let mut first_plan: Vec<ParallelPlan> = Vec::new();
        for plan in plans {
            let (scheme, pp, b) = pipeline_of(&plan);
            let shape = (scheme, pp, b, plan.micro_batch_size, plan.recompute);
            if !shapes.contains(&shape) {
                shapes.push(shape);
                first_plan.push(plan);
            }
        }
        let n = reps(4, scale, 1);
        let sim = SimOptions::default();
        let mut sim_s = 0.0;
        let (_, snap) = with_registry(|| {
            for (op, &(scheme, pp, b, mbs, recompute)) in shapes.iter().enumerate() {
                let op = op as u64;
                let Ok(cfg) = PipelineConfig::new(pp, b, scheme) else { continue };
                for _ in 0..n {
                    let cs = log.time("core.build_compute", op, |_| build_compute_schedule(&cfg));
                    let schedule = log.time("core.build_schedule", op, |_| build_schedule(&cfg));
                    let (Ok(cs), Ok(schedule)) = (cs, schedule) else { break };
                    log.time("core.replay_timeline", op, |_| {
                        black_box(replay_timeline(&cs, 1, 2, 0));
                    });
                    let cost = log.time("model.cost_table", op, |_| {
                        CostTable::build_with(&self.model, cfg.stages(), mbs, recompute)
                    });
                    log.time("analyze.static_check", op, |_| {
                        black_box(check_deadlock_free(&schedule).is_ok());
                        black_box(static_peak_mem(&schedule, &cost));
                    });
                    let compiled =
                        log.time("sim.compile", op, |_| compile_schedule(&schedule, &sim));
                    let group: Vec<usize> = (0..pp as usize).collect();
                    let sub = self.cluster.select(&group);
                    let t = Instant::now();
                    log.time("sim.simulate", op, |_| {
                        black_box(try_simulate_compiled(&compiled, &schedule, &cost, &sub, sim))
                            .is_ok()
                    });
                    sim_s += t.elapsed().as_secs_f64();
                }
            }
        });
        // Outside the registry window, so the event count above belongs
        // to the directly timed simulate calls alone.
        for (op, plan) in first_plan.iter().enumerate() {
            for _ in 0..n {
                log.time("sim.evaluate_plan", op as u64, |_| {
                    black_box(evaluate_plan(plan, &self.model, &self.cluster, sim)).is_ok()
                });
            }
        }
        let median_us = |name: &str| stats::median(&log.durations_ms(name)) * 1e3;
        out.set("core.build_compute_us", median_us("core.build_compute"));
        out.set("core.build_schedule_us", median_us("core.build_schedule"));
        out.set("core.replay_timeline_us", median_us("core.replay_timeline"));
        out.set("model.cost_table_us", median_us("model.cost_table"));
        out.set("analyze.static_check_us", median_us("analyze.static_check"));
        out.set("sim.compile_us", median_us("sim.compile"));
        out.set("sim.simulate_us", median_us("sim.simulate"));
        out.set("sim.evaluate_plan_us", median_us("sim.evaluate_plan"));
        let events = counter_sum(&snap, "hanayo_sim_events_total", None);
        out.set("sim.events_per_s", if sim_s > 0.0 { events / sim_s } else { 0.0 });
    }
}

impl Bench for Sweep {
    fn timed(&mut self, seconds: f64) -> Timed {
        Timed::closed_loop(seconds, 1.0, || {
            let json = black_box(self.op()).ok()?;
            (json == self.expected).then_some(self.candidates as f64)
        })
    }

    fn traced(&mut self, scale: f64, log: &mut SpanLog) -> Result<Layers, String> {
        let mut out = Layers::default();
        let n = reps(20, scale, 5);
        let (mut cold, mut traced, mut metered) = (Vec::new(), Vec::new(), Vec::new());
        let mut tuning = None;
        for op in 0..n as u64 {
            let t = Instant::now();
            black_box(self.op()?);
            cold.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            log.time("op", op, |log| -> Result<(), String> {
                let t = log.time("sim.tune", op, |_| self.tune(&TuneContext::default()))?;
                let modes = self.opts.recompute_variants();
                let table = log.time("serve.table_build", op, |_| {
                    build_sweep_table(&self.req, &t, &self.cluster, &self.model, &modes)
                });
                log.time("serve.encode", op, |_| black_box(serde_json::to_string(&table)).is_ok());
                tuning = Some(t);
                Ok(())
            })?;
            traced.push(t.elapsed().as_secs_f64() * 1e3);

            hanayo_metrics::set_enabled(true);
            let t = Instant::now();
            let result = black_box(self.op());
            metered.push(t.elapsed().as_secs_f64() * 1e3);
            hanayo_metrics::set_enabled(false);
            result?;
        }
        hanayo_metrics::reset();
        let tuning = tuning.ok_or("no traced op ran")?;
        let cold_ms = stats::median(&log.durations_ms("sim.tune"));
        out.set("sim.tune_cold_ms", cold_ms);
        out.set(
            "serve.table_build_us",
            stats::median(&log.durations_ms("serve.table_build")) * 1e3,
        );
        out.set("serve.encode_us", stats::median(&log.durations_ms("serve.encode")) * 1e3);
        out.set("serve.resp_bytes_mean", self.expected.len() as f64 + 1.0);
        let plain = stats::median(&cold);
        out.set("trace.overhead_share", stats::median(&traced) / plain - 1.0);
        out.set("metrics.overhead_share", stats::median(&metered) / plain - 1.0);

        // Second sweep on the same caches: what a resident service pays.
        let warm_ctx =
            TuneContext { caches: Some(Arc::new(SweepCaches::default())), ..Default::default() };
        self.tune(&warm_ctx)?;
        let warm_ms = probe(log, "sim.tune.warm", 0.5 * scale, 5, || self.tune(&warm_ctx).is_ok());
        out.set("sim.tune_warm_ms", warm_ms);
        let serial_ms =
            probe(log, "sim.tune.serial", 1.0 * scale, 3, || self.tune_serial().is_ok());
        out.set("sim.tune_serial_ms", serial_ms);
        out.set("sim.parallel_speedup", serial_ms / cold_ms);

        // Exact counts, from the serial sweep so the hit/miss split is a
        // pure function of candidate order.
        let (result, snap) = with_registry(|| self.tune_serial());
        result?;
        let hits = counter_sum(&snap, "hanayo_tuner_cache_hits_total", None);
        let misses = counter_sum(&snap, "hanayo_tuner_cache_misses_total", None);
        out.set("sim.cache_hit_share", hits / (hits + misses).max(1.0));
        out.set("sim.candidates_total", (tuning.ranked.len() + tuning.rejected.len()) as f64);
        out.set("sim.ranked_total", tuning.ranked.len() as f64);
        out.set(
            "sim.static_pruned_total",
            counter_sum(&snap, "hanayo_tuner_static_prunes_total", None),
        );
        self.shape_probes(&tuning, scale, log, &mut out);
        Ok(out)
    }
}
