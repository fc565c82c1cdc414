//! Figure 6: scaling Hanayo to more devices and waves — `W=2` on 8
//! devices, and `W=2` vs `W=4` on 4 devices.

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::{render_paper_style, replay_timeline};
use hanayo_core::schedule::build_compute_schedule;

/// `(caption, gantt, bubble ratio)` per panel.
pub(crate) fn data() -> Vec<(String, String, f64)> {
    [(8u32, 2u32), (4, 2), (4, 4)]
        .into_iter()
        .map(|(p, w)| {
            let cfg = PipelineConfig::new(p, p, Scheme::Hanayo { waves: w }).expect("valid");
            let cs = build_compute_schedule(&cfg).expect("schedulable");
            let bubble = replay_timeline(&cs, 1, 2, 0).bubble_ratio();
            (format!("wave={w}, devices={p}"), render_paper_style(&cs), bubble)
        })
        .collect()
}

/// Render the panels.
pub(crate) fn run() -> String {
    let mut out = String::from("Figure 6: scaling Hanayo to more devices and waves\n\n");
    for (caption, gantt, bubble) in data() {
        out.push_str(&format!("{caption} (bubble {:.1}%)\n{gantt}\n", 100.0 * bubble));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_panels() {
        assert_eq!(data().len(), 3);
    }

    #[test]
    fn doubling_waves_cuts_bubbles_on_four_devices() {
        let d = data();
        let w2 = d[1].2;
        let w4 = d[2].2;
        assert!(w4 < w2, "W=4 {w4} vs W=2 {w2}");
    }

    #[test]
    fn eight_device_panel_has_eight_rows() {
        let d = data();
        assert_eq!(d[0].1.lines().count(), 8);
    }
}
