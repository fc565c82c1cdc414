//! Property tests for the trace lowering: on random `(scheme, P, M)`
//! configurations the emitted trace serde-round-trips *exactly*, every
//! device's compute spans are sorted and non-overlapping, and the trace
//! agrees with the report it was lowered alongside.

use hanayo_cluster::topology::paper_clusters;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::{CostTable, ModelConfig};
use hanayo_sim::{try_simulate_traced, SimOptions};
use hanayo_trace::{Trace, TraceKind};
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::GPipe),
        Just(Scheme::Dapple),
        Just(Scheme::Chimera),
        (2u32..=2).prop_map(|c| Scheme::Interleaved { chunks: c }),
        (1u32..=3).prop_map(|w| Scheme::Hanayo { waves: w }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn traces_roundtrip_exactly_and_spans_are_serial(
        p in 2u32..=6,
        b in 2u32..=8,
        scheme in any_scheme(),
        mb in 1u32..=3,
        cluster_idx in 0usize..4,
        prefetch_off in 0u32..=1,
    ) {
        // Chimera needs an even device and micro-batch split; round the
        // random shape up rather than discarding the case.
        let (p, b) = if scheme == Scheme::Chimera {
            (p + p % 2, b + b % 2)
        } else {
            (p, b)
        };
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let cluster = paper_clusters(p as usize).remove(cluster_idx);
        let cost = CostTable::build(&ModelConfig::gpt128(), cfg.stages(), mb);
        let opts = SimOptions { trace: true, prefetch: prefetch_off == 0, ..Default::default() };
        let (report, trace) = try_simulate_traced(&schedule, &cost, &cluster, opts).unwrap();
        let trace = trace.expect("trace requested");

        // Every invariant: finite ordered spans, devices in range,
        // canonical sort, per-device serial compute.
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        prop_assert_eq!(trace.devices, p);

        // The trace and the report describe the same run, exactly.
        prop_assert_eq!(trace.makespan(), report.iteration_time);
        prop_assert_eq!(trace.device_busy(), report.device_busy.clone());

        // Structural counts: one Fwd and one Bwd per (mb, stage).
        let ops = (b * cfg.stages()) as usize;
        let count = |k: TraceKind| trace.events.iter().filter(|e| e.kind == k).count();
        prop_assert_eq!(count(TraceKind::Fwd), ops);
        prop_assert_eq!(count(TraceKind::Bwd), ops);
        prop_assert_eq!(count(TraceKind::Send), count(TraceKind::Recv));

        // Serde round-trip is exact: the shim renders floats shortest
        // round-trip, so re-parsing reproduces every bit.
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, trace);
    }
}
