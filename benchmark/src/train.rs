//! `train_gemm` and `train_orch`: one Hanayo `W=2`, `P=2`, `B=8` schedule
//! over the same 16 blocks at two micro-batch shapes, so the same layers
//! carry opposite shares of the iteration.

use crate::run::{counter_sum, probe, reps, with_registry, Bench, Layers, Timed};
use crate::spans::SpanLog;
use crate::spec::SCHEMES;
use crate::stats;
use hanayo_cluster::topology::fc_full_nvlink;
use hanayo_core::analysis::{bubble, CostTerms};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::replay_timeline;
use hanayo_core::schedule::{build_compute_schedule, build_schedule};
use hanayo_model::builders::{micro_cost_table, MicroModel};
use hanayo_model::Recompute;
use hanayo_runtime::trainer::{sequential_reference, synthetic_data, try_train};
use hanayo_runtime::worker::IterationData;
use hanayo_runtime::{LossKind, TrainOutput, TrainerConfig};
use hanayo_sim::{try_simulate_traced, SimOptions};
use hanayo_tensor::rng::{seeded, uniform};
use hanayo_tensor::tensor::matmul_parallelizes;
use hanayo_trace::{calibrate, chrome_trace_json, Trace, TraceKind};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Pipeline width. Two device threads on two cores: with more runnable
/// threads than cores a blocked device donates its core to a peer and
/// wall time stops measuring the bubble.
const P: u32 = 2;
/// Micro-batches per iteration.
const B: u32 = 8;
/// MLP blocks in the model, whatever the scheme's stage count.
const BLOCKS: usize = 16;
const LR: f32 = 0.01;

/// What distinguishes the two train workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: usize,
    pub width: usize,
    /// Iterations per `try_train` call; op time is call time over this.
    pub iters_per_call: usize,
    /// Run the seven-scheme family in the traced phase.
    pub scheme_family: bool,
}

pub const GEMM: Shape = Shape { rows: 32, width: 160, iters_per_call: 3, scheme_family: true };
pub const ORCH: Shape = Shape { rows: 4, width: 32, iters_per_call: 32, scheme_family: false };

fn scheme_of(name: &str) -> Scheme {
    match name {
        "gpipe" => Scheme::GPipe,
        "dapple" => Scheme::Dapple,
        "interleaved2" => Scheme::Interleaved { chunks: 2 },
        "interleaved4" => Scheme::Interleaved { chunks: 4 },
        "hanayo_w1" => Scheme::Hanayo { waves: 1 },
        "hanayo_w4" => Scheme::Hanayo { waves: 4 },
        _ => Scheme::Hanayo { waves: 2 },
    }
}

fn loss_bits(out: &TrainOutput) -> Vec<u32> {
    out.losses.iter().map(|l| l.to_bits()).collect()
}

fn trainer(scheme: Scheme, shape: Shape, seed: u64) -> Result<TrainerConfig, String> {
    let cfg = PipelineConfig::new(P, B, scheme).map_err(|e| format!("{scheme:?}: {e}"))?;
    let schedule = build_schedule(&cfg).map_err(|e| format!("{scheme:?}: {e}"))?;
    let model = MicroModel { width: shape.width, total_blocks: BLOCKS, seed };
    let stages = model.build_stages(schedule.stage_map.stages);
    Ok(TrainerConfig::new(schedule, stages, LR, LossKind::Mse))
}

/// Unit-cost replay bubble at `T_B = 2·T_F`, no communication.
fn replay_bubble(scheme: Scheme) -> Result<f64, String> {
    let cfg = PipelineConfig::new(P, B, scheme).map_err(|e| e.to_string())?;
    let cs = build_compute_schedule(&cfg).map_err(|e| e.to_string())?;
    Ok(replay_timeline(&cs, 1, 2, 0).bubble_ratio())
}

pub struct Train {
    shape: Shape,
    seed: u64,
    out_stem: PathBuf,
    cfg: TrainerConfig,
    data: Vec<IterationData>,
    /// Per-iteration loss bits of `sequential_reference` on `data`.
    expected: Vec<u32>,
}

impl Train {
    /// Generate model and data from the seed, check the pipeline against
    /// the sequential reference bit for bit, warm up.
    pub fn setup(shape: Shape, seed: u64, out_stem: PathBuf) -> Result<Train, String> {
        let cfg = trainer(Scheme::Hanayo { waves: 2 }, shape, seed)?;
        let data = synthetic_data(seed, shape.iters_per_call, B as usize, shape.rows, shape.width);
        let reference = sequential_reference(&cfg.stages, &data, LR, &cfg.loss);
        let expected = loss_bits(&reference);
        for _ in 0..3 {
            let out = try_train(&cfg, &data).map_err(|e| format!("set-up train failed: {e}"))?;
            if loss_bits(&out) != expected {
                return Err(format!(
                    "set-up: pipeline losses {:?} differ from sequential_reference {:?}",
                    out.losses, reference.losses
                ));
            }
        }
        if shape.scheme_family {
            // Where core::analysis::bubble has a closed form at this
            // shape (B != P rules out Eq. 1), the replay must agree.
            let closed = bubble::gpipe(P, B, &CostTerms::paper_default());
            for scheme in [Scheme::GPipe, Scheme::Dapple] {
                let replay = replay_bubble(scheme)?;
                if (replay - closed).abs() > 1e-12 {
                    return Err(format!("{scheme:?}: replay bubble {replay} != closed {closed}"));
                }
            }
        }
        Ok(Train { shape, seed, out_stem, cfg, data, expected })
    }

    fn iters(&self) -> f64 {
        self.shape.iters_per_call as f64
    }

    /// Single-thread direct calls on this workload's stage shape.
    fn tensor_probes(&self, scale: f64, log: &mut SpanLog, out: &mut Layers) -> f64 {
        let Shape { rows, width, .. } = self.shape;
        let budget = 0.4 * scale;
        let stage = &self.cfg.stages[0];
        let x = &self.data[0].inputs[0];
        let (y, stash) = stage.forward(x);
        let fwd_ms = probe(log, "tensor.stage_fwd", budget, 20, || stage.forward(x));
        let bwd_ms = probe(log, "tensor.stage_bwd", budget, 20, || stage.backward(&stash, &y));
        let (_, grads) = stage.backward(&stash, &y);
        let mut scratch = stage.clone();
        // lr 0 keeps the weights (and so the step's cost) fixed across reps.
        let sgd_ms = probe(log, "tensor.sgd_step", budget, 20, || scratch.sgd_step(&grads, 0.0));
        let w = uniform(&mut seeded(self.seed), width, width, 1.0);
        let mm_ms = probe(log, "tensor.matmul", budget, 20, || x.matmul(&w));
        let stages = self.cfg.stages.len() as f64;
        let compute_ms = stages * (B as f64 * (fwd_ms + bwd_ms) + sgd_ms);
        out.set("tensor.stage_fwd_us", fwd_ms * 1e3);
        out.set("tensor.stage_bwd_us", bwd_ms * 1e3);
        out.set("tensor.sgd_step_us", sgd_ms * 1e3);
        out.set("tensor.matmul_gflops", 2.0 * (rows * width * width) as f64 / (mm_ms * 1e6));
        out.set("tensor.compute_ms_per_iter", compute_ms);
        compute_ms
    }

    /// Exact counts from the registry over one instrumented call.
    fn gemm_counts(&self, out: &mut Layers) -> Result<(), String> {
        let Shape { rows, width, .. } = self.shape;
        let (result, snap) = with_registry(|| try_train(&self.cfg, &self.data));
        result.map_err(|e| format!("instrumented train failed: {e}"))?;
        let family = "hanayo_gemm_dispatch_total";
        let kernel = |k: &str| counter_sum(&snap, family, Some(("kernel", k)));
        let (mm, at_b, a_bt) = (kernel("matmul"), kernel("at_b"), kernel("a_bt"));
        // The pool gate is a public pure function of the product shape.
        let pooled = mm * f64::from(u8::from(matmul_parallelizes(rows, width, width)))
            + at_b * f64::from(u8::from(matmul_parallelizes(width, rows, width)))
            + a_bt * f64::from(u8::from(matmul_parallelizes(rows, width, width)));
        let total = mm + at_b + a_bt;
        out.set("tensor.gemm_dispatch_per_iter", total / self.iters());
        out.set("tensor.gemm_pooled_share", if total > 0.0 { pooled / total } else { 0.0 });
        Ok(())
    }

    /// Interleave plain, traced and registry-on calls; split the traced
    /// iteration into its six parts. Returns the plain per-iteration ms
    /// and one representative trace.
    fn runtime_breakdown(
        &self,
        scale: f64,
        log: &mut SpanLog,
        out: &mut Layers,
    ) -> Result<(f64, Trace), String> {
        let traced_cfg = TrainerConfig { trace: true, ..self.cfg.clone() };
        let n = reps(24, scale, 2);
        let (mut plain, mut traced, mut metered) = (Vec::new(), Vec::new(), Vec::new());
        let mut parts = [0.0f64; 5];
        let (mut bubbles, mut last) = (Vec::new(), None);
        let (mut ops, mut msgs, mut stash, mut parked) = (0usize, 0usize, 0usize, 0usize);
        for op in 0..n as u64 {
            let t = Instant::now();
            let result = log.time("runtime.try_train", op, |_| try_train(&self.cfg, &self.data));
            plain.push(t.elapsed().as_secs_f64() * 1e3 / self.iters());
            result.map_err(|e| format!("train failed: {e}"))?;

            let t = Instant::now();
            let result =
                log.time("runtime.try_train.traced", op, |_| try_train(&traced_cfg, &self.data));
            traced.push(t.elapsed().as_secs_f64() * 1e3 / self.iters());
            let result = result.map_err(|e| format!("traced train failed: {e}"))?;
            let trace = result.trace.ok_or("traced train returned no trace")?;
            let per = 1e3 / (trace.devices as f64 * self.iters());
            for e in &trace.events {
                let slot = match e.kind {
                    TraceKind::Fwd => 0,
                    TraceKind::Bwd | TraceKind::Recompute => 1,
                    TraceKind::Optim => 2,
                    TraceKind::Send | TraceKind::Allreduce => 3,
                    TraceKind::Recv => 4,
                };
                parts[slot] += e.duration() * per;
            }
            bubbles.push(trace.bubble_ratio());
            ops = trace.events.iter().filter(|e| e.kind.is_compute()).count();
            msgs = trace.events.iter().filter(|e| e.kind == TraceKind::Send).count();
            stash = result.peak_stash_bytes.iter().copied().max().unwrap_or(0);
            parked = result.peak_mailbox_parked.iter().copied().max().unwrap_or(0);
            last = Some(trace);

            hanayo_metrics::set_enabled(true);
            let t = Instant::now();
            let result =
                log.time("runtime.try_train.metrics", op, |_| try_train(&self.cfg, &self.data));
            metered.push(t.elapsed().as_secs_f64() * 1e3 / self.iters());
            hanayo_metrics::set_enabled(false);
            result.map_err(|e| format!("instrumented train failed: {e}"))?;
        }
        hanayo_metrics::reset();
        let wall = stats::mean(&traced);
        let parts = parts.map(|p| p / n as f64);
        let names = ["fwd", "bwd", "optim", "send", "recv_wait"];
        for (name, value) in names.iter().zip(parts) {
            out.set(&format!("runtime.{name}_ms"), value);
        }
        // Iteration wall minus the five traced kinds: dispatch, clones,
        // spawn/join. Spans are serial per device, so this cannot go
        // negative; a negative value would mean the trace is wrong.
        let untraced = wall - parts.iter().sum::<f64>();
        if untraced < 0.0 {
            return Err(format!("traced spans exceed the iteration wall by {} ms", -untraced));
        }
        out.set("runtime.untraced_ms", untraced);
        out.set("runtime.bubble_measured", stats::mean(&bubbles));
        out.set("runtime.ops_per_iter", ops as f64 / self.iters());
        out.set("runtime.msgs_per_iter", msgs as f64 / self.iters());
        out.set("runtime.peak_stash_bytes_max", stash as f64);
        out.set("runtime.peak_mailbox_parked_max", parked as f64);
        let plain_ms = stats::median(&plain);
        out.set("trace.overhead_share", stats::median(&traced) / plain_ms - 1.0);
        out.set("metrics.overhead_share", stats::median(&metered) / plain_ms - 1.0);
        Ok((plain_ms, last.ok_or("no traced call ran")?))
    }

    /// Intercept of call time against iterations per call in {1,2,4,8}:
    /// what a call costs before its first iteration (spawn, join, clones).
    /// Each round — one call of each length, back to back, so a slow spell
    /// of the machine reaches all four alike — gives one intercept; the
    /// median over the rounds is reported.
    fn call_overhead(&self, scale: f64, iter_ms: f64, log: &mut SpanLog) -> Result<f64, String> {
        let Shape { rows, width, .. } = self.shape;
        let data = synthetic_data(self.seed, 8, B as usize, rows, width);
        // A round trains 15 iterations; the rounds take about 4 s.
        let rounds = ((4000.0 * scale / (15.0 * iter_ms)) as usize).clamp(1, 200);
        let mut intercepts = Vec::new();
        for op in 0..rounds as u64 {
            let mut points = Vec::new();
            for iterations in [1usize, 2, 4, 8] {
                let name = format!("runtime.try_train.iters{iterations}");
                let t = Instant::now();
                let result = log.time(&name, op, |_| try_train(&self.cfg, &data[..iterations]));
                points.push((iterations as f64, t.elapsed().as_secs_f64() * 1e3));
                result.map_err(|e| format!("train failed: {e}"))?;
            }
            intercepts.push(stats::linear_fit(&points).0);
        }
        Ok(stats::median(&intercepts))
    }

    /// One scheme of the family on the same blocks and batch: measured
    /// iteration and bubble, the calibrated simulator's prediction
    /// (single attempt, no retry) and the unit-cost replay.
    fn scheme_row(
        &self,
        name: &str,
        scale: f64,
        log: &mut SpanLog,
        out: &mut Layers,
    ) -> Result<(), String> {
        let Shape { rows, width, .. } = self.shape;
        let scheme = scheme_of(name);
        let cfg = TrainerConfig { trace: true, ..trainer(scheme, self.shape, self.seed)? };
        let span = format!("runtime.try_train.{name}");
        let mut runs: Vec<(f64, Trace)> = Vec::new();
        for op in 0..=reps(5, scale, 1) as u64 {
            let t = Instant::now();
            let result = log.time(&span, op, |_| try_train(&cfg, &self.data));
            let ms = t.elapsed().as_secs_f64() * 1e3 / self.iters();
            let result = result.map_err(|e| format!("{name}: train failed: {e}"))?;
            if loss_bits(&result) != self.expected {
                return Err(format!("{name}: losses differ from sequential_reference"));
            }
            // The first call warms the scheme up and is dropped.
            if op > 0 {
                runs.push((ms, result.trace.ok_or("traced train returned no trace")?));
            }
        }
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (iter_ms, trace) = &runs[runs.len() / 2];
        let stages = cfg.stages.len();
        let cluster = fc_full_nvlink(P as usize);
        let bytes = micro_cost_table(&cfg.stages, rows, width, Recompute::None);
        let table = calibrate(trace, stages)
            .and_then(|c| c.cost_table(&bytes, &cluster))
            .map_err(|e| format!("{name}: calibrate: {e}"))?;
        let opts = SimOptions { trace: true, ..SimOptions::default() };
        let (report, sim_trace) = try_simulate_traced(&cfg.schedule, &table, &cluster, opts)
            .map_err(|e| format!("{name}: simulate: {e}"))?;
        let predicted = sim_trace.map_or(report.bubble_ratio, |t| t.bubble_ratio());
        out.set(&format!("runtime.iter_ms.{name}"), *iter_ms);
        out.set(&format!("runtime.bubble_measured.{name}"), trace.bubble_ratio());
        out.set(&format!("sim.bubble_predicted.{name}"), predicted);
        out.set(&format!("core.bubble_replay.{name}"), replay_bubble(scheme)?);
        if name == "hanayo_w2" {
            let measured = trace.duration() / self.iters();
            out.set("sim.pred_over_measured", report.iteration_time / measured);
        }
        Ok(())
    }
}

impl Bench for Train {
    fn timed(&mut self, seconds: f64) -> Timed {
        let samples = (self.shape.iters_per_call * B as usize * self.shape.rows) as f64;
        Timed::closed_loop(seconds, self.iters(), || {
            let out = try_train(black_box(&self.cfg), black_box(&self.data)).ok()?;
            (loss_bits(&out) == self.expected).then_some(samples)
        })
    }

    fn traced(&mut self, scale: f64, log: &mut SpanLog) -> Result<Layers, String> {
        let mut out = Layers::default();
        let compute_ms = self.tensor_probes(scale, log, &mut out);
        self.gemm_counts(&mut out)?;
        let (iter_ms, trace) = self.runtime_breakdown(scale, log, &mut out)?;
        out.set("runtime.efficiency", compute_ms / (P as f64 * iter_ms));
        out.set("runtime.call_overhead_ms", self.call_overhead(scale, iter_ms, log)?);

        let stages = self.cfg.stages.clone();
        let seq_ms = probe(log, "runtime.sequential_reference", 0.6 * scale, 1, || {
            sequential_reference(&stages, &self.data, LR, &self.cfg.loss)
        });
        out.set("runtime.speedup_vs_sequential", seq_ms / self.iters() / iter_ms);

        out.set(
            "trace.analyze_ms",
            probe(log, "trace.analyze", 0.1 * scale, 5, || hanayo_trace::analyze(&trace)),
        );
        out.set(
            "trace.calibrate_ms",
            probe(log, "trace.calibrate", 0.1 * scale, 5, || calibrate(&trace, stages.len())),
        );
        if self.shape.scheme_family {
            for name in SCHEMES {
                self.scheme_row(name, scale, log, &mut out)?;
            }
        }
        let chrome = chrome_trace_json(&trace)?;
        let path = self.out_stem.with_extension("runtime-trace.json");
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(out)
    }
}
