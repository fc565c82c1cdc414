//! Figure 4: synchronous vs asynchronous pipeline parallelism.
//!
//! The synchronous panel runs one flushed 1F1B iteration; the asynchronous
//! panel shows PipeDream-style execution where iteration `n+1` forwards
//! start while iteration `n` backwards drain — rendered by replaying two
//! iterations back-to-back with the inter-iteration dependency removed
//! (micro-batches 4..8 are iteration `n+1`).

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::{render, render_paper_style, replay_timeline, Timeline};
use hanayo_core::schedule::build_compute_schedule;

/// The synchronous timeline (one iteration, `P = 4`, `B = 4`).
pub(crate) fn sync_timeline() -> Timeline {
    let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).expect("valid");
    replay_timeline(&build_compute_schedule(&cfg).expect("schedulable"), 1, 2, 0)
}

/// The asynchronous timeline: two iterations of micro-batches in one
/// continuous 1F1B stream (no flush between them).
pub(crate) fn async_timeline() -> Timeline {
    // Model "no flush" as a single 8-micro-batch 1F1B stream: exactly what
    // PipeDream's steady state looks like (Fig. 4b).
    let cfg = PipelineConfig::new(4, 8, Scheme::AsyncPipeDream).expect("valid");
    replay_timeline(&build_compute_schedule(&cfg).expect("schedulable"), 1, 2, 0)
}

/// Render both panels.
pub(crate) fn run() -> String {
    let cfg = PipelineConfig::new(4, 4, Scheme::Dapple).expect("valid");
    let sync = render_paper_style(&build_compute_schedule(&cfg).expect("schedulable"));
    let asynch = render(&async_timeline());
    let s = sync_timeline();
    let a = async_timeline();
    format!(
        "Figure 4: synchronous vs asynchronous pipeline parallelism (P=4)\n\n\
         (a) synchronous (flush at iteration end), bubble {:.1}%\n{sync}\n\
         (b) asynchronous (PipeDream-style, no flush; mbs 4-7 are the next \
         iteration), bubble {:.1}%\n{asynch}",
        100.0 * s.bubble_ratio(),
        100.0 * a.bubble_ratio()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_has_lower_bubble_ratio() {
        // "they tend to have a lower bubble ratio and higher performance"
        // (§2.3).
        assert!(async_timeline().bubble_ratio() < sync_timeline().bubble_ratio());
    }

    #[test]
    fn renders_both_panels() {
        let text = run();
        assert!(text.contains("(a) synchronous"));
        assert!(text.contains("(b) asynchronous"));
    }
}
