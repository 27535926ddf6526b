//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p helix-bench --bin figures -- all
//! cargo run --release -p helix-bench --bin figures -- fig07 fig12
//! cargo run --release -p helix-bench --bin figures -- --full fig07
//! ```
//!
//! The sweep figures (fig07/fig09/fig12) are campaign-backed: they run
//! `campaigns/paper.toml` over the committed `scenarios/` specs, so run
//! this binary from the repository root.

use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: figures [--full] <figure>...\n\n\
         figures: {}\n\n\
         campaign-backed (campaigns/paper.toml over scenarios/, so every\n\
         committed scenario spec appears automatically): {}\n\
         everything else runs the built-in SPEC stand-in suite.\n",
        helix_bench::FIGURES.join(" "),
        helix_bench::CAMPAIGN_FIGURES.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--full" && *a != "--help")
    {
        eprintln!("figures: unknown option '{flag}'\n\n{}", usage());
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let scale = helix_bench::harness_scale(full);
    let figures: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if figures.is_empty() {
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    for f in figures {
        if let Err(e) = helix_bench::run_figure(f, scale) {
            // Campaign-backed figures fail here (with the offending
            // file named) when a referenced scenario spec is missing or
            // malformed — never mid-run with a panic.
            eprintln!("figures: error running {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
