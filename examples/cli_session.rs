//! A scripted DLHub CLI session (§IV-E): the Git-like workflow of
//! initializing, describing, publishing and invoking a servable from a
//! working directory.
//!
//! ```text
//! cargo run --release -p dlhub-client --example cli_session
//! ```

use dlhub_client::cli::Cli;
use dlhub_core::hub::TestHub;
use dlhub_core::obs::{Obs, Telemetry};
use std::sync::Arc;

fn main() {
    // A loose latency objective on the servable this session publishes:
    // `dlhub slo` below shows its burn rates and (quiet) alert state.
    // The time-series collector is normally off; an `Obs` built with a
    // sampled store lets the session demo `dlhub top`.
    let hub = TestHub::builder()
        .without_eval_servables()
        .obs(Obs::with_telemetry(Telemetry::Sampled(
            std::time::Duration::from_millis(25),
        )))
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/composition-parser",
            std::time::Duration::from_secs(5),
        ))
        .build();
    let cli = Cli::new(Arc::clone(&hub.service), hub.token.clone());

    // A scratch working directory standing in for the user's model
    // repo checkout.
    let workdir = std::env::temp_dir().join(format!("dlhub-session-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("create workdir");

    let script: Vec<Vec<&str>> = vec![
        vec!["init", "composition-parser", "--kind", "matminer-util"],
        vec!["ls"],
        vec![
            "update",
            "--description",
            "Parse chemical formulas into element fractions",
            "--tag",
            "materials",
            "--tag",
            "parser",
        ],
        vec!["publish"],
        vec!["ls"],
        vec!["run", "Ca(OH)2"],
        vec!["run", "BaTiO3"],
        // Republishing bumps the version, Git-style.
        vec!["publish"],
        vec!["ls"],
    ];

    for args in script {
        println!("$ dlhub {}", args.join(" "));
        match cli.execute(&workdir, &args) {
            Ok(output) => println!("{output}\n"),
            Err(err) => println!("error: {err}\n"),
        }
    }

    // Observability rides along with every session: the serving
    // dashboard, the collected request traces, stage-level latency
    // attribution, and the SLO table.
    let run_out = cli
        .execute(&workdir, &["run", "Mg3(PO4)2"])
        .expect("run for trace");
    println!("$ dlhub run Mg3(PO4)2\n{run_out}\n");
    let trace_id = run_out
        .split("trace ")
        .nth(1)
        .and_then(|rest| rest.strip_suffix(')'))
        .expect("run output carries its trace id")
        .to_string();
    // Give the 25 ms time-series collector a few ticks to observe the
    // session before asking for the `dlhub top` dashboard.
    std::thread::sleep(std::time::Duration::from_millis(120));
    for args in [
        vec!["stats"],
        vec!["stats", "--delta"],
        vec!["stats", "--prometheus"],
        vec!["trace", trace_id.as_str()],
        vec!["analyze", trace_id.as_str()],
        vec!["analyze"],
        vec!["slo"],
        vec!["slo", "--json"],
        vec!["top"],
        vec!["top", "--window-s", "5"],
    ] {
        println!("$ dlhub {}", args.join(" "));
        match cli.execute(&workdir, &args) {
            Ok(output) => println!("{output}\n"),
            Err(err) => println!("error: {err}\n"),
        }
    }

    // Errors are first-class too: a second init refuses, unknown
    // commands are reported, and so are bad trace ids.
    for args in [
        vec!["init", "again"],
        vec!["frobnicate"],
        vec!["trace", "not-a-trace-id"],
        vec!["analyze", "0xdeadbeef"],
        vec!["top", "--frames"],
    ] {
        println!("$ dlhub {}", args.join(" "));
        match cli.execute(&workdir, &args) {
            Ok(output) => println!("{output}\n"),
            Err(err) => println!("error: {err}\n"),
        }
    }

    let _ = std::fs::remove_dir_all(&workdir);
}
