//! # hanayo
//!
//! A full Rust reproduction of *"Hanayo: Harnessing Wave-like Pipeline
//! Parallelism for Enhanced Large Model Training Efficiency"* (Liu, Cheng,
//! Zhou & You, SC '23).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — schedule IR, the Hanayo wave scheduler and every baseline
//!   (GPipe, DAPPLE, interleaved 1F1B, Chimera), validation, analytic
//!   bubble/memory models, Gantt rendering.
//! * [`tensor`] — the dense-f32 math substrate with hand-written backward
//!   passes.
//! * [`model`] — BERT/GPT cost & memory models and CPU micro-models.
//! * [`cluster`] — the four evaluation clusters (PC, FC, TACC, TC).
//! * [`sim`] — the discrete-event execution engine and `D×P` plans.
//! * [`analyze`] — static schedule verification: the happens-before DAG,
//!   deadlock freedom via cycle detection, exact static peak-memory
//!   bounds, communication well-formedness, and the critical-path lower
//!   bound the tuner prunes with.
//! * [`runtime`] — the threaded action-list runtime with bit-exact
//!   gradient equivalence.
//! * [`trace`] — unified execution tracing for both engines: one event
//!   model, Chrome-trace export, bubble/utilisation/critical-path
//!   analysis, and profile-guided cost calibration
//!   (measure → calibrate → sweep → predict).
//! * [`ckpt`] — fault tolerance: the versioned bit-exact checkpoint
//!   model, failure-injection plans, and the recovery cost model behind
//!   the tuner's checkpoint-interval sweep (resume ≡ uninterrupted, by
//!   construction and by test).
//! * [`metrics`] — zero-perturbation observability: the shard-per-thread
//!   metrics registry, the `HANAYO_LOG` structured-logging facade, and
//!   the Prometheus/JSON expositions every long-running binary can emit.
//! * [`serve`] — the resident planning service: an HTTP/1.1 host over the
//!   tuner with cross-request sweep caches, in-flight request dedup,
//!   cancellable background jobs and graceful drain.
//! * [`repro`] — regeneration of every figure in the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use hanayo::core::config::{PipelineConfig, Scheme};
//! use hanayo::core::schedule::build_schedule;
//! use hanayo::cluster::topology::fc_full_nvlink;
//! use hanayo::model::{CostTable, ModelConfig};
//! use hanayo::sim::{try_simulate_traced, SimOptions};
//!
//! // A 2-wave Hanayo pipeline on 8 devices, 8 micro-batches.
//! let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 }).unwrap();
//! let schedule = build_schedule(&cfg).unwrap();
//!
//! // Execute it on a simulated NVSwitch box training the BERT-style model.
//! let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
//! let (report, _trace) =
//!     try_simulate_traced(&schedule, &cost, &fc_full_nvlink(8), SimOptions::default()).unwrap();
//! assert!(report.bubble_ratio < 0.3);
//! ```

pub use hanayo_analyze as analyze;
pub use hanayo_ckpt as ckpt;
pub use hanayo_cluster as cluster;
pub use hanayo_core as core;
pub use hanayo_metrics as metrics;
pub use hanayo_model as model;
pub use hanayo_repro as repro;
pub use hanayo_runtime as runtime;
pub use hanayo_serve as serve;
pub use hanayo_sim as sim;
pub use hanayo_tensor as tensor;
pub use hanayo_trace as trace;
