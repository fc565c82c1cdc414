//! Golden snapshot of the schedule-space search: on (bert64, PC) at
//! `P=4, B=7` the searched [`ScheduleTable`] must pass the standalone
//! validity checker and *strictly beat* the best named scheme's simulated
//! iteration time — the paper-facing claim that the tabular IR admits
//! schedules the seven named generators do not emit. The winning table's
//! rendering and scores are frozen under `tests/golden/`.
//!
//! To regenerate after an intentional search/simulator change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_search
//! ```

use hanayo::cluster::topology::pc_partial_nvlink;
use hanayo::core::schedule::search::SearchOptions;
use hanayo::core::schedule::table::check_table;
use hanayo::model::{ModelConfig, Recompute};
use hanayo::sim::{search_schedule, SimOptions};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

#[test]
fn searched_schedule_beats_best_named_scheme() {
    let cluster = pc_partial_nvlink(4);
    let r = search_schedule(
        &ModelConfig::bert64(),
        &cluster,
        4,
        7,
        1,
        Recompute::None,
        SimOptions::default(),
        &SearchOptions::default(),
    )
    .unwrap();

    // The searched table is a legal schedule by the standalone checker...
    check_table(&r.table).unwrap();
    // ...and strictly beats the best named scheme — the acceptance bar.
    assert!(
        r.iteration_time_s < r.baseline_iteration_time_s,
        "searched {} did not beat best named ({}) {}",
        r.iteration_time_s,
        r.seed_scheme,
        r.baseline_iteration_time_s
    );

    // Freeze the full outcome: scores and the winning table's rendering.
    let mut rendered = String::new();
    rendered.push_str("pair        bert64 on PC, P=4 B=7, recompute none\n");
    rendered.push_str(&format!("seed scheme {}\n", r.seed_scheme));
    rendered.push_str(&format!("best named  {:.9} s\n", r.baseline_iteration_time_s));
    rendered.push_str(&format!("searched    {:.9} s\n", r.iteration_time_s));
    rendered.push_str(&format!("improvement {:.4} %\n", r.improvement_pct));
    rendered.push('\n');
    rendered.push_str(&r.table.render());

    let path = golden_dir().join("search_bert64_pc_p4_b7.txt");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); \
             regenerate with GOLDEN_UPDATE=1 cargo test --test golden_search"
        )
    });
    assert_eq!(
        rendered, golden,
        "searched schedule drifted from {path:?}; if the change is intentional, \
         regenerate with GOLDEN_UPDATE=1 cargo test --test golden_search"
    );
}
