//! Figure 3: the five synchronous schedules on `P = 4`, `B = 4`, drawn as
//! text Gantt charts with their peak `M_w`/`M_a` unit annotations.

use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::gantt::render_paper_style;
use hanayo_core::memory::{unit_profile, UnitMemoryProfile};
use hanayo_core::schedule::build_compute_schedule;

/// One panel of the figure.
pub(crate) struct Panel {
    /// Panel caption (scheme name).
    pub name: String,
    /// Text Gantt chart.
    pub gantt: String,
    /// Unit memory profile.
    pub memory: UnitMemoryProfile,
}

/// The five panels (a)–(e).
pub(crate) fn data() -> Vec<Panel> {
    let schemes = [
        ("(a) GPipe", Scheme::GPipe),
        ("(b) DAPPLE", Scheme::Dapple),
        ("(c) Chimera", Scheme::Chimera),
        ("(d) Hanayo with one wave", Scheme::Hanayo { waves: 1 }),
        ("(e) Hanayo with two waves", Scheme::Hanayo { waves: 2 }),
    ];
    schemes
        .into_iter()
        .map(|(name, scheme)| {
            let cfg = PipelineConfig::new(4, 4, scheme).expect("valid");
            let cs = build_compute_schedule(&cfg).expect("schedulable");
            Panel {
                name: name.to_string(),
                gantt: render_paper_style(&cs),
                memory: unit_profile(&cs),
            }
        })
        .collect()
}

/// Render all panels.
pub(crate) fn run() -> String {
    let mut out = String::from(
        "Figure 3: synchronous pipeline schedules (P=4, B=4; digits = forward mb, \
         letters = backward mb, '.' = bubble)\n\n",
    );
    for panel in data() {
        out.push_str(&format!("{}\n{}", panel.name, panel.gantt));
        let mw: Vec<String> = panel.memory.mw_units.iter().map(|v| format!("{v:.2}")).collect();
        let ma: Vec<String> =
            panel.memory.ma_peak_units.iter().map(|v| format!("{v:.2}")).collect();
        out.push_str(&format!("  Mw units/device: [{}]\n", mw.join(", ")));
        out.push_str(&format!("  Ma peak units/device: [{}]\n\n", ma.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_panels() {
        assert_eq!(data().len(), 5);
    }

    #[test]
    fn chimera_is_the_only_doubled_mw() {
        for panel in data() {
            let max_mw = panel.memory.mw_units.iter().cloned().fold(0.0, f64::max);
            if panel.name.contains("Chimera") {
                assert_eq!(max_mw, 2.0);
            } else {
                assert!((max_mw - 1.0).abs() < 1e-9, "{}: {max_mw}", panel.name);
            }
        }
    }

    #[test]
    fn gpipe_panel_shows_all_forwards_first() {
        let panels = data();
        let gpipe = &panels[0].gantt;
        let first_line = gpipe.lines().next().unwrap();
        // Device 0 runs forwards 0123 consecutively.
        assert!(first_line.contains("0123"), "{first_line}");
    }
}
