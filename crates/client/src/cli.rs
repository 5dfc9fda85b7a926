//! The Git-like CLI (§IV-E): `init`, `update`, `publish`, `run`, `ls`
//! against a local working directory with a `.dlhub/` metadata file.

use crate::kinds::instantiate;
use crate::toolbox::MetadataBuilder;
use dlhub_auth::Token;
use dlhub_core::repository::PublishVisibility;
use dlhub_core::serving::ManagementService;
use dlhub_core::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The on-disk servable description stored at `.dlhub/dlhub.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalServable {
    /// Servable name.
    pub name: String,
    /// Built-in implementation kind (`noop`, `echo`, `matminer-util`,
    /// `matminer-featurize`, `matminer-model`, `inception`,
    /// `cifar10`).
    pub kind: String,
    /// Description (required at publish time).
    pub description: String,
    /// Discovery tags.
    pub tags: Vec<String>,
    /// Last publication receipt, if any.
    pub published_id: Option<String>,
    /// Version from the last publication.
    pub published_version: Option<u32>,
}

/// CLI errors are plain strings (they are printed to the terminal).
pub type CliError = String;

/// The CLI, bound to a service and user token (what `dlhub login`
/// would establish).
pub struct Cli {
    service: Arc<ManagementService>,
    token: Token,
}

fn metadata_path(workdir: &Path) -> PathBuf {
    workdir.join(".dlhub").join("dlhub.json")
}

fn load(workdir: &Path) -> Result<LocalServable, CliError> {
    let path = metadata_path(workdir);
    let text = std::fs::read_to_string(&path).map_err(|_| {
        format!(
            "no servable here; run 'dlhub init' first ({})",
            path.display()
        )
    })?;
    serde_json::from_str(&text).map_err(|e| format!("corrupt {}: {e}", path.display()))
}

fn store(workdir: &Path, local: &LocalServable) -> Result<(), CliError> {
    let dir = workdir.join(".dlhub");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(
        metadata_path(workdir),
        serde_json::to_string_pretty(local).expect("local servable serializes"),
    )
    .map_err(|e| e.to_string())
}

impl Cli {
    /// Bind the CLI to a service and token.
    pub fn new(service: Arc<ManagementService>, token: Token) -> Self {
        Cli { service, token }
    }

    /// Execute one command. `args` is the argv after the program name,
    /// e.g. `["init", "my-model", "--kind", "echo"]`. Returns the text
    /// the command prints.
    pub fn execute(&self, workdir: &Path, args: &[&str]) -> Result<String, CliError> {
        match args {
            ["init", rest @ ..] => self.init(workdir, rest),
            ["update", rest @ ..] => self.update(workdir, rest),
            ["publish"] => self.publish(workdir),
            ["run", input] => self.run(workdir, input),
            ["ls"] => self.ls(workdir),
            ["stats", rest @ ..] => self.stats(rest),
            ["trace", rest @ ..] => self.trace(rest),
            ["analyze", rest @ ..] => self.analyze(rest),
            ["slo", rest @ ..] => self.slo(rest),
            ["top", rest @ ..] => self.top(rest),
            [] => {
                Err("usage: dlhub <init|update|publish|run|ls|stats|trace|analyze|slo|top>".into())
            }
            other => Err(format!("unknown command: {}", other.join(" "))),
        }
    }

    /// `stats [--prometheus|--delta]`: the service's per-servable
    /// serving dashboard, the raw Prometheus text exposition, or —
    /// with `--delta` — only what changed since the previous `--delta`
    /// call (an `iostat`-style window over the same dashboard).
    fn stats(&self, args: &[&str]) -> Result<String, CliError> {
        match args {
            [] => Ok(self.service.obs().snapshot().render_dashboard()),
            ["--prometheus"] => Ok(self.service.obs().snapshot().render_prometheus()),
            ["--delta"] => Ok(self.service.obs().delta().render_dashboard()),
            other => Err(format!(
                "usage: dlhub stats [--prometheus|--delta] (got: {})",
                other.join(" ")
            )),
        }
    }

    /// `trace [<trace-id>] [--json]`: collected request traces as an
    /// indented span tree (or a JSON dump). Trace ids are the values
    /// printed by `run` and accepted in decimal or `0x…` hex.
    fn trace(&self, args: &[&str]) -> Result<String, CliError> {
        let json = args.contains(&"--json");
        let ids: Vec<&&str> = args.iter().filter(|a| **a != "--json").collect();
        let trace = match ids.as_slice() {
            [] => None,
            [id] => Some(parse_trace_id(id)?),
            other => {
                return Err(format!(
                    "usage: dlhub trace [<trace-id>] [--json] (got: {})",
                    other
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                ))
            }
        };
        let export = self.service.obs().tracer.export(trace);
        if json {
            Ok(serde_json::to_string_pretty(&export.to_json()).expect("trace export serializes"))
        } else {
            Ok(export.render_text())
        }
    }

    /// `analyze [<trace-id>] [--json]`: stage-level latency
    /// attribution. With a trace id, decompose that request's wall
    /// time into named serving stages; without one, analyze every
    /// collected trace and print each plus an aggregate stage table.
    fn analyze(&self, args: &[&str]) -> Result<String, CliError> {
        let json = args.contains(&"--json");
        let ids: Vec<&&str> = args.iter().filter(|a| **a != "--json").collect();
        match ids.as_slice() {
            [id] => {
                let trace = parse_trace_id(id)?;
                let analysis = self
                    .service
                    .obs()
                    .analyze(trace)
                    .ok_or_else(|| format!("no spans collected for trace {trace:#x}"))?;
                if json {
                    Ok(serde_json::to_string_pretty(&analysis.to_json())
                        .expect("analysis serializes"))
                } else {
                    Ok(analysis.render_text())
                }
            }
            [] => {
                let export = self.service.obs().tracer.export(None);
                let analyses = dlhub_core::obs::analyze_all(&export);
                if analyses.is_empty() {
                    return Err("no traces collected yet; run something first".into());
                }
                if json {
                    let docs: Vec<_> = analyses.iter().map(|a| a.to_json()).collect();
                    return Ok(serde_json::to_string_pretty(&docs).expect("analyses serialize"));
                }
                let mut out = String::new();
                for analysis in &analyses {
                    out.push_str(&analysis.render_text());
                }
                let total: u64 = analyses.iter().map(|a| a.total_ns).sum();
                let stages = dlhub_core::obs::aggregate_stages(&analyses);
                out.push_str(&format!(
                    "aggregate over {} traces  total {:.2}ms\n",
                    analyses.len(),
                    total as f64 / 1e6
                ));
                dlhub_core::obs::render_stages(&stages, total, &mut out);
                Ok(out)
            }
            other => Err(format!(
                "usage: dlhub analyze [<trace-id>] [--json] (got: {})",
                other
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            )),
        }
    }

    /// `slo [--json]`: per-servable objective status — burn rates over
    /// the fast and slow windows and the current alert state, as a
    /// table or (with `--json`) machine-readable JSON.
    fn slo(&self, args: &[&str]) -> Result<String, CliError> {
        let snapshot = self.service.obs().snapshot();
        match args {
            [] => Ok(snapshot.render_slos()),
            ["--json"] => {
                let slos: Vec<serde_json::Value> =
                    snapshot.slos.iter().map(|s| s.to_json()).collect();
                Ok(
                    serde_json::to_string_pretty(&serde_json::Value::Array(slos))
                        .expect("slo snapshot serializes"),
                )
            }
            other => Err(format!(
                "usage: dlhub slo [--json] (got: {})",
                other.join(" ")
            )),
        }
    }

    /// `top [--follow] [--frames N] [--interval-ms M] [--window-s W]`:
    /// live dashboard over the telemetry time-series store — req/s,
    /// p50/p99, queue depth, memo hit ratio, firing SLOs, each with a
    /// sparkline. One frame by default; `--follow` repaints in place
    /// every `--interval-ms` (default: the collector interval) for
    /// `--frames` frames. Errors while telemetry is disabled.
    fn top(&self, args: &[&str]) -> Result<String, CliError> {
        let store = self
            .service
            .obs()
            .telemetry
            .store()
            .ok_or("telemetry is disabled; build the deployment's Obs with a Telemetry mode")?;
        let mut follow = false;
        let mut frames = 10usize;
        let mut interval = self.service.obs().telemetry.interval();
        let mut window = std::time::Duration::from_secs(60);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match *arg {
                "--follow" => follow = true,
                "--once" => follow = false,
                "--frames" => {
                    frames = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--frames needs a number")?;
                }
                "--interval-ms" => {
                    let ms: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--interval-ms needs a number")?;
                    interval = std::time::Duration::from_millis(ms);
                }
                "--window-s" => {
                    let s: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--window-s needs a number")?;
                    window = std::time::Duration::from_secs(s);
                }
                other => {
                    return Err(format!(
                        "usage: dlhub top [--follow] [--frames N] [--interval-ms M] [--window-s W] (got: {other})"
                    ))
                }
            }
        }
        if !follow {
            return Ok(crate::top::render_frame(
                store,
                &self.service.obs().snapshot(),
                window,
            ));
        }
        if interval.is_zero() {
            interval = std::time::Duration::from_millis(250);
        }
        let mut frame = String::new();
        for i in 0..frames.max(1) {
            if i > 0 {
                std::thread::sleep(interval);
            }
            frame = crate::top::render_frame(store, &self.service.obs().snapshot(), window);
            print!("{}{}", crate::top::REFRESH_PREFIX, frame);
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Ok(frame)
    }

    /// `init <name> [--kind k]`: create `.dlhub/dlhub.json`.
    fn init(&self, workdir: &Path, args: &[&str]) -> Result<String, CliError> {
        let name = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("usage: dlhub init <name> [--kind k]")?;
        let kind = flag_value(args, "--kind").unwrap_or("echo");
        instantiate(kind)?; // validate early
        if metadata_path(workdir).exists() {
            return Err("a servable is already initialized here".into());
        }
        let local = LocalServable {
            name: name.to_string(),
            kind: kind.to_string(),
            description: String::new(),
            tags: Vec::new(),
            published_id: None,
            published_version: None,
        };
        store(workdir, &local)?;
        Ok(format!("Initialized servable '{name}' (kind {kind})"))
    }

    /// `update [--description d] [--tag t]...`: modify local metadata.
    fn update(&self, workdir: &Path, args: &[&str]) -> Result<String, CliError> {
        let mut local = load(workdir)?;
        if let Some(d) = flag_value(args, "--description") {
            local.description = d.to_string();
        }
        for tag in flag_values(args, "--tag") {
            if !local.tags.iter().any(|t| t == tag) {
                local.tags.push(tag.to_string());
            }
        }
        store(workdir, &local)?;
        Ok(format!("Updated metadata for '{}'", local.name))
    }

    /// `publish`: push the local servable to DLHub.
    fn publish(&self, workdir: &Path) -> Result<String, CliError> {
        let mut local = load(workdir)?;
        let (servable, model_type, input, output) = instantiate(&local.kind)?;
        let mut builder = MetadataBuilder::new(&local.name, model_type)
            .description(if local.description.is_empty() {
                format!("{} servable published via the DLHub CLI", local.kind)
            } else {
                local.description.clone()
            })
            .input(input)
            .output(output);
        for tag in &local.tags {
            builder = builder.tag(tag.clone());
        }
        let metadata = builder.build()?;
        // Ship the local metadata file as a model component, like the
        // real CLI uploads the working directory's artifacts.
        let components = BTreeMap::from([(
            ".dlhub/dlhub.json".to_string(),
            serde_json::to_vec(&local).expect("local servable serializes"),
        )]);
        let receipt = self
            .service
            .publish(
                &self.token,
                metadata,
                servable,
                components,
                PublishVisibility::Public,
            )
            .map_err(|e| e.to_string())?;
        local.published_id = Some(receipt.id.clone());
        local.published_version = Some(receipt.version);
        store(workdir, &local)?;
        Ok(format!(
            "Published {} v{} (doi {})",
            receipt.id, receipt.version, receipt.doi
        ))
    }

    /// `run <json-input>`: invoke the published servable.
    fn run(&self, workdir: &Path, input: &str) -> Result<String, CliError> {
        let local = load(workdir)?;
        let id = local
            .published_id
            .ok_or("not published yet; run 'dlhub publish' first")?;
        // Accept either a bare string (shorthand) or a JSON value.
        let value: Value = match serde_json::from_str(input) {
            Ok(v) => v,
            Err(_) => Value::Str(input.to_string()),
        };
        let result = self
            .service
            .run(&self.token, &id, value)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "{}\n(request {:.2} ms, invocation {:.2} ms, inference {:.2} ms{}, trace {:#x})",
            result.value,
            result.timings.request.as_secs_f64() * 1e3,
            result.timings.invocation.as_secs_f64() * 1e3,
            result.timings.inference.as_secs_f64() * 1e3,
            if result.timings.cache_hit {
                ", cached"
            } else {
                ""
            },
            result.trace,
        ))
    }

    /// `ls`: show the tracked servable in this directory.
    fn ls(&self, workdir: &Path) -> Result<String, CliError> {
        let local = load(workdir)?;
        let status = match (&local.published_id, local.published_version) {
            (Some(id), Some(v)) => format!("published as {id} v{v}"),
            _ => "unpublished".to_string(),
        };
        Ok(format!("{} (kind {}) — {status}", local.name, local.kind))
    }
}

fn parse_trace_id(text: &str) -> Result<u64, CliError> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("not a trace id: {text}"))
}

fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1).copied())
}

fn flag_values<'a>(args: &[&'a str], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| **a == flag)
        .filter_map(|(i, _)| args.get(i + 1).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_core::hub::TestHub;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "dlhub-cli-test-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn cli(hub: &TestHub) -> Cli {
        Cli::new(Arc::clone(&hub.service), hub.token.clone())
    }

    #[test]
    fn full_lifecycle_init_update_publish_run_ls() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("lifecycle");
        let out = cli
            .execute(&dir.0, &["init", "parser", "--kind", "matminer-util"])
            .unwrap();
        assert!(out.contains("Initialized"));
        cli.execute(
            &dir.0,
            &[
                "update",
                "--description",
                "Parses compositions",
                "--tag",
                "materials",
            ],
        )
        .unwrap();
        let out = cli.execute(&dir.0, &["publish"]).unwrap();
        assert!(out.contains("Published dlhub/parser v1"), "{out}");
        let out = cli.execute(&dir.0, &["run", "NaCl"]).unwrap();
        assert!(out.contains("formula"), "{out}");
        assert!(out.contains("request"), "{out}");
        let out = cli.execute(&dir.0, &["ls"]).unwrap();
        assert!(out.contains("published as dlhub/parser v1"), "{out}");
        // Republishing bumps the version.
        let out = cli.execute(&dir.0, &["publish"]).unwrap();
        assert!(out.contains("v2"), "{out}");
    }

    #[test]
    fn init_rejects_double_init_and_bad_kind() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("double");
        cli.execute(&dir.0, &["init", "m"]).unwrap();
        assert!(cli.execute(&dir.0, &["init", "m"]).is_err());
        let dir2 = TempDir::new("badkind");
        assert!(cli
            .execute(&dir2.0, &["init", "m", "--kind", "quantum"])
            .is_err());
    }

    #[test]
    fn commands_require_init() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("noinit");
        for cmd in [vec!["ls"], vec!["publish"], vec!["update"]] {
            let err = cli.execute(&dir.0, &cmd).unwrap_err();
            assert!(err.contains("dlhub init"), "{err}");
        }
    }

    #[test]
    fn run_requires_publication() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("nopub");
        cli.execute(&dir.0, &["init", "m"]).unwrap();
        let err = cli.execute(&dir.0, &["run", "x"]).unwrap_err();
        assert!(err.contains("publish"), "{err}");
    }

    #[test]
    fn stats_and_trace_surface_observability() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("stats");
        cli.execute(&dir.0, &["init", "echo"]).unwrap();
        cli.execute(&dir.0, &["publish"]).unwrap();
        let out = cli.execute(&dir.0, &["run", "\"hi\""]).unwrap();
        assert!(out.contains("trace 0x"), "{out}");
        let dash = cli.execute(&dir.0, &["stats"]).unwrap();
        assert!(dash.contains("servable dlhub/echo"), "{dash}");
        assert!(dash.contains("requests 1"), "{dash}");
        // The memo's admission decision sits beside its hit counters.
        assert!(dash.contains("memo_hits_total 0"), "{dash}");
        assert!(dash.contains("memo_rejected_total 0"), "{dash}");
        let prom = cli.execute(&dir.0, &["stats", "--prometheus"]).unwrap();
        assert!(
            prom.contains("dlhub_servable_requests_total{servable=\"dlhub/echo\"} 1"),
            "{prom}"
        );
        // The trace id printed by `run` selects exactly that request.
        let id = out
            .split("trace ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap();
        let tree = cli.execute(&dir.0, &["trace", id]).unwrap();
        assert!(tree.contains("request"), "{tree}");
        assert!(tree.contains("invocation"), "{tree}");
        let json = cli.execute(&dir.0, &["trace", id, "--json"]).unwrap();
        assert!(json.contains("\"spans\""), "{json}");
        assert!(cli.execute(&dir.0, &["trace", "not-a-number"]).is_err());
    }

    #[test]
    fn analyze_and_slo_commands_attribute_latency() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .slo(dlhub_core::obs::SloSpec::new(
                "dlhub/echo",
                std::time::Duration::from_secs(5),
            ))
            .build();
        let cli = cli(&hub);
        let dir = TempDir::new("analyze");
        cli.execute(&dir.0, &["init", "echo"]).unwrap();
        cli.execute(&dir.0, &["publish"]).unwrap();
        let out = cli.execute(&dir.0, &["run", "\"hi\""]).unwrap();
        let id = out
            .split("trace ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap();
        let text = cli.execute(&dir.0, &["analyze", id]).unwrap();
        assert!(text.contains("trace 0x"), "{text}");
        assert!(text.contains("execute"), "{text}");
        let json = cli.execute(&dir.0, &["analyze", id, "--json"]).unwrap();
        assert!(json.contains("\"stages\""), "{json}");
        let all = cli.execute(&dir.0, &["analyze"]).unwrap();
        assert!(all.contains("aggregate over"), "{all}");
        let slo = cli.execute(&dir.0, &["slo"]).unwrap();
        assert!(slo.contains("slo dlhub/echo"), "{slo}");
        assert!(slo.contains("state ok"), "{slo}");
        assert!(cli.execute(&dir.0, &["analyze", "0xdeadbeef"]).is_err());
        assert!(cli.execute(&dir.0, &["analyze", "nope"]).is_err());
    }

    #[test]
    fn slo_json_renders_machine_readable_objectives() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .slo(dlhub_core::obs::SloSpec::new(
                "dlhub/echo",
                std::time::Duration::from_secs(5),
            ))
            .build();
        let cli = cli(&hub);
        let dir = TempDir::new("slojson");
        cli.execute(&dir.0, &["init", "echo"]).unwrap();
        cli.execute(&dir.0, &["publish"]).unwrap();
        cli.execute(&dir.0, &["run", "\"hi\""]).unwrap();
        let json = cli.execute(&dir.0, &["slo", "--json"]).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let slos = doc.as_array().unwrap();
        assert_eq!(slos.len(), 1, "{json}");
        assert_eq!(slos[0]["servable"], "dlhub/echo");
        assert!(slos[0]["latency_burn_fast"].as_f64().is_some(), "{json}");
        assert_eq!(slos[0]["firing"], false);
        assert!(cli.execute(&dir.0, &["slo", "--bogus"]).is_err());
    }

    #[test]
    fn top_renders_live_series_from_a_running_hub() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .obs(dlhub_core::obs::Obs::with_telemetry(
                dlhub_core::obs::Telemetry::Sampled(std::time::Duration::from_millis(10)),
            ))
            .build();
        let cli = cli(&hub);
        let dir = TempDir::new("top");
        cli.execute(&dir.0, &["init", "echo"]).unwrap();
        cli.execute(&dir.0, &["publish"]).unwrap();
        for _ in 0..5 {
            cli.execute(&dir.0, &["run", "\"hi\""]).unwrap();
        }
        // Wait for the collector to take at least two passes so rates
        // have a delta to work from.
        let store = hub
            .service
            .obs()
            .telemetry
            .store()
            .expect("telemetry enabled");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while store.samples_taken() < 3 {
            assert!(std::time::Instant::now() < deadline, "collector never ran");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let frame = cli.execute(&dir.0, &["top"]).unwrap();
        assert!(frame.contains("dlhub top"), "{frame}");
        assert!(frame.contains("dlhub/echo"), "{frame}");
        assert!(frame.contains("REQ/S"), "{frame}");
        assert!(frame.contains("MEMO"), "{frame}");
        assert!(frame.contains("rejected/s"), "{frame}");
        // No admission controller on this hub: the row says so rather
        // than vanishing.
        assert!(frame.contains("ADMISSION"), "{frame}");
        // Sparkline glyphs from the live series are present.
        assert!(frame.contains('█') || frame.contains('▁'), "{frame}");
        // Follow mode returns the final frame.
        let followed = cli
            .execute(
                &dir.0,
                &["top", "--follow", "--frames", "2", "--interval-ms", "5"],
            )
            .unwrap();
        assert!(followed.contains("dlhub top"), "{followed}");
        assert!(cli.execute(&dir.0, &["top", "--frames"]).is_err());
        assert!(cli.execute(&dir.0, &["top", "--bogus"]).is_err());
    }

    #[test]
    fn top_errors_when_telemetry_is_disabled() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("topoff");
        let err = cli.execute(&dir.0, &["top"]).unwrap_err();
        assert!(err.contains("telemetry is disabled"), "{err}");
    }

    #[test]
    fn stats_delta_shows_only_the_new_window() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("delta");
        cli.execute(&dir.0, &["init", "echo"]).unwrap();
        cli.execute(&dir.0, &["publish"]).unwrap();
        cli.execute(&dir.0, &["run", "\"hi\""]).unwrap();
        let first = cli.execute(&dir.0, &["stats", "--delta"]).unwrap();
        assert!(first.contains("requests 1"), "{first}");
        // Quiet window: the previous request must not be re-reported.
        let quiet = cli.execute(&dir.0, &["stats", "--delta"]).unwrap();
        assert!(!quiet.contains("requests 1"), "{quiet}");
        assert!(cli.execute(&dir.0, &["stats", "--nope"]).is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let hub = TestHub::builder().without_eval_servables().build();
        let cli = cli(&hub);
        let dir = TempDir::new("unknown");
        assert!(cli.execute(&dir.0, &["frobnicate"]).is_err());
        assert!(cli.execute(&dir.0, &[]).is_err());
    }
}
