//! `hanayo tune` — the auto-tuner's full ranked strategy table as JSON:
//! every candidate evaluated, with throughput, timing split, bubble ratio
//! and memory, and every rejection with its reason.
//!
//! The flags are the fields of [`TuneRequest`], the body of `POST
//! /v1/tune`, and the document comes from [`run_tune`], which answers
//! that endpoint: `--compact` stdout is the served body. The README's
//! "Strategy sweep" section has the JSON schema.

use crate::cli::{compact, flag, metrics, Command, Flag, Output};
use hanayo_serve::schema::{run_tune, TuneRequest};
use hanayo_sim::TuneContext;

impl Command for TuneRequest {
    const ABOUT: &'static str = "rank every pipeline-parallel strategy for a model on a cluster";
    const USAGE: &'static str = "USAGE: hanayo tune [FLAGS]\n";

    fn defaults() -> Self {
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
            wide: false,
            serial: false,
            top: None,
        }
    }

    fn flags() -> Vec<Flag<Self>> {
        vec![
            flag("--model", "<bert64|gpt128>", "architecture to tune [bert64]", |r| &mut r.model),
            flag("--cluster", "<pc|fc|tacc|tc>", "hardware environment [tacc]", |r| &mut r.cluster),
            flag("--gpus", "<N>", "cluster size [8]", |r| &mut r.gpus),
            flag("--batch", "<B>", "global micro-batches/iteration [16]", |r| &mut r.batch),
            flag("--micro-batch-size", "<S>", "sequences per micro-batch [1]", |r| {
                &mut r.micro_batch_size
            }),
            flag("--train-bytes-per-param", "<N>", "8 = ZeRO-1, 16 = full Adam [8]", |r| {
                &mut r.train_bytes_per_param
            }),
            flag("--min-pp", "<P>", "smallest pipeline width [2]", |r| &mut r.min_pp),
            flag("--waves", "<csv>", "Hanayo wave counts [1,2,4,8]", |r| &mut r.waves),
            flag(
                "--recompute",
                "<csv>",
                "activation-recomputation modes to sweep, from {none,full} [none]",
                |r| &mut r.recompute,
            ),
            flag(
                "--wide",
                "",
                "also sweep prefetch on/off, recv lookaheads {1,2,4}, micro-batch merge \
                 factors {1,2} and both recompute modes",
                |r| &mut r.wide,
            ),
            flag(
                "--serial",
                "",
                "evaluate candidates one at a time (identical output; for verification)",
                |r| &mut r.serial,
            ),
            flag("--top", "<N>", "emit only the N best candidates", |r| &mut r.top),
            compact(),
            metrics(),
        ]
    }

    fn run(self, out: &Output) -> Result<(), String> {
        // A default context (no abort, no shared caches) can never cancel.
        out.emit(&run_tune(&self, &TuneContext::default()).map_err(|e| e.to_string())?)
    }
}
