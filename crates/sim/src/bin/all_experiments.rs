//! Runs every experiment with quick defaults — a one-shot regeneration of
//! all tables and figures (see the experiment table in `crates/sim/src/lib.rs`).
//!
//! ```text
//! cargo run -p cqac-sim --release --bin all_experiments
//! ```

use std::process::Command;

fn main() {
    let binaries: &[(&str, &[&str])] = &[
        ("table1", &[]),
        ("fig4", &["--all"]),
        ("fig5", &[]),
        ("utilization", &[]),
        ("table4", &[]),
        ("sybil", &[]),
        ("guarantee", &[]),
        ("multi_period", &[]),
        ("energy", &[]),
        ("measured_costs", &[]),
    ];
    let self_path = std::env::current_exe().expect("current exe");
    let bin_dir = self_path.parent().expect("bin dir");
    for (bin, args) in binaries {
        println!("\n################ {bin} ################\n");
        let status = Command::new(bin_dir.join(bin))
            .args(*args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("{bin} exited with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments complete; CSVs in ./results/");
}
