//! Figure-regeneration harness: prints every table/figure of the paper's
//! evaluation and writes machine-readable JSON next to them.
//!
//! Usage: `cargo run --release -p mfc-bench --bin figures [fig1|fig2|...|all] [--json DIR]`

use std::path::PathBuf;

use mfc_perfmodel::figures::*;
use mfc_perfmodel::packmodel::{pack_model_report, render_pack_model};
use mfc_perfmodel::projection::{projection_report, render_projection};
use mfc_perfmodel::WorkloadProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let json_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(d) = &json_dir {
        std::fs::create_dir_all(d).expect("create json output dir");
    }
    let dump = |name: &str, json: String| {
        if let Some(d) = &json_dir {
            std::fs::write(d.join(format!("{name}.json")), json).expect("write json");
        }
    };

    let all = which == "all";
    if all || which == "fig1" {
        let profile = WorkloadProfile::measure(20, 2);
        let rows = fig1_roofline(&profile);
        print!("{}", render_fig1(&rows));
        println!();
        dump("fig1", to_json("fig1", &rows));
    }
    if all || which == "fig2" {
        let rows = fig2_weak_scaling();
        print!(
            "{}",
            render_scaling("Fig 2 — weak scaling (Summit & Frontier)", &rows)
        );
        println!();
        dump("fig2", to_json("fig2", &rows));
    }
    if all || which == "fig3" {
        let rows = fig3_strong_scaling();
        print!(
            "{}",
            render_scaling("Fig 3 — strong scaling (Summit & Frontier)", &rows)
        );
        println!();
        dump("fig3", to_json("fig3", &rows));
    }
    if all || which == "fig4" {
        let rows = fig4_gpu_aware();
        print!(
            "{}",
            render_scaling(
                "Fig 4 — Frontier strong scaling, GPU-aware vs host-staged MPI",
                &rows
            )
        );
        println!();
        dump("fig4", to_json("fig4", &rows));
    }
    if all || which == "fig5" {
        let rows = fig5_speedup();
        print!("{}", render_fig5(&rows));
        println!();
        dump("fig5", to_json("fig5", &rows));
    }
    if all || which == "fig6" || which == "fig7" {
        let rows = fig6_fig7_breakdown();
        print!("{}", render_fig6_fig7(&rows));
        println!();
        dump("fig6_fig7", to_json("fig6_fig7", &rows));
    }
    if all || which == "packmodel" {
        let rows = pack_model_report();
        print!("{}", render_pack_model(&rows));
        println!();
        dump("packmodel", to_json("packmodel", &rows));
    }
    if all || which == "projection" {
        let rows = projection_report();
        print!("{}", render_projection(&rows));
        println!();
        dump("projection", to_json("projection", &rows));
    }
}
