//! `gs serve` and `gs client`: the CLI face of the planning daemon.
//! Argument handling lives in `main.rs`; everything here is a library
//! function so `tests/docs_links.rs` can replay the documented
//! walkthrough in-process.

use std::sync::Arc;

use gs_serve::engine::{Engine, EngineConfig};
use gs_serve::protocol::{Outcome, PlanParams, Request, RequestBody, Response};
use gs_serve::server::{serve_with_span_log, ServerHandle};
use gs_serve::Client;

use crate::CliError;

/// Knobs for `gs serve`, mirroring [`EngineConfig`] plus the bind
/// address.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7070` (port `0` = ephemeral).
    pub addr: String,
    /// Admission budget before requests are shed.
    pub max_inflight: usize,
    /// `--span-log DIR`: enable span tracing and write one Chrome
    /// trace-event file per answered request into this directory.
    pub span_log: Option<std::path::PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7070".into(),
            max_inflight: EngineConfig::default().max_inflight,
            span_log: None,
        }
    }
}

/// Starts the daemon and returns its handle plus the one-line banner
/// the binary prints. The caller decides whether to block
/// ([`ServerHandle::join`], what `gs serve` does) or keep the handle
/// (what tests do).
pub fn start_daemon(opts: &ServeOptions) -> Result<(ServerHandle, String), CliError> {
    let engine = Arc::new(Engine::new(EngineConfig { max_inflight: opts.max_inflight }));
    if opts.span_log.is_some() {
        gs_scatter::obs::span::set_enabled(true);
    }
    let handle = serve_with_span_log(engine, &opts.addr, opts.span_log.clone())
        .map_err(|e| CliError(format!("cannot bind {}: {e}", opts.addr)))?;
    let banner = format!("serving on {} (protocol v{})\n", handle.addr(), gs_serve::PROTOCOL_VERSION);
    Ok((handle, banner))
}

/// One `gs client` operation (the request side of the protocol, minus
/// the envelope bookkeeping).
#[derive(Debug, Clone)]
pub enum ClientCmd {
    /// `gs client <addr> ping`
    Ping,
    /// `gs client <addr> plan <platform> --items N [--strategy S]`
    Plan {
        /// Platform-file text.
        platform: String,
        /// Items to scatter.
        items: u64,
        /// Strategy name.
        strategy: String,
    },
    /// `gs client <addr> simulate <platform> --items N [--strategy S]`
    Simulate {
        /// Platform-file text.
        platform: String,
        /// Items to scatter.
        items: u64,
        /// Strategy name.
        strategy: String,
    },
    /// `gs client <addr> calibrate <trace.json> [...]`
    Calibrate {
        /// One obs-JSON trace document per element.
        traces: Vec<String>,
    },
    /// `gs client <addr> metrics`
    Metrics,
    /// `gs client <addr> shutdown`
    Shutdown,
}

impl ClientCmd {
    fn into_request(self) -> Request {
        let body = match self {
            ClientCmd::Ping => RequestBody::Ping,
            ClientCmd::Plan { platform, items, strategy } => {
                RequestBody::Plan(PlanParams { platform, items, strategy })
            }
            ClientCmd::Simulate { platform, items, strategy } => {
                RequestBody::Simulate(PlanParams { platform, items, strategy })
            }
            ClientCmd::Calibrate { traces } => RequestBody::Calibrate { traces },
            ClientCmd::Metrics => RequestBody::Metrics,
            ClientCmd::Shutdown => RequestBody::Shutdown,
        };
        Request { id: "cli".into(), body }
    }
}

/// Connects to `addr`, performs one operation, and renders the response
/// for the terminal.
pub fn cmd_client(addr: &str, cmd: ClientCmd) -> Result<String, CliError> {
    let mut client =
        Client::connect(addr).map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    let response = client.call(&cmd.into_request()).map_err(|e| CliError(e.to_string()))?;
    render_response(&response)
}

/// Sends one raw protocol line and returns the raw response line — the
/// `--json` escape hatch for scripts.
pub fn cmd_client_raw(addr: &str, line: &str) -> Result<String, CliError> {
    let mut client =
        Client::connect(addr).map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    let mut out = client.call_line(line)?;
    out.push('\n');
    Ok(out)
}

/// Renders a protocol response as terminal output. Error responses
/// become [`CliError`]s (nonzero exit), with the daemon's code intact.
pub fn render_response(resp: &Response) -> Result<String, CliError> {
    Ok(match &resp.outcome {
        Outcome::Pong => "pong\n".to_string(),
        Outcome::Plan(p) => {
            let mut out = format!(
                "plan ({}): {} items, makespan {} s\n",
                cache_word(p.cache),
                p.counts.iter().sum::<u64>(),
                p.makespan,
            );
            out.push_str(&format!("counts: {:?}\n", p.counts));
            out.push_str(&format!("displs: {:?}\n", p.displs));
            out.push_str(&format!("order:  {:?}\n", p.order));
            out
        }
        Outcome::Simulate(s) => format!(
            "simulate ({}): predicted {} s, simulated {} s\n",
            cache_word(s.cache),
            s.predicted_makespan,
            s.simulated_makespan,
        ),
        Outcome::Calibrate { platform } => platform.clone(),
        Outcome::Metrics { prometheus } => prometheus.clone(),
        Outcome::ShuttingDown => "daemon shutting down\n".to_string(),
        Outcome::Error { code, message } => {
            return Err(CliError(format!("daemon error [{code:?}]: {message}")))
        }
    })
}

fn cache_word(c: gs_serve::protocol::CacheStatus) -> &'static str {
    match c {
        gs_serve::protocol::CacheStatus::Miss => "miss",
        gs_serve::protocol::CacheStatus::Hit => "hit",
        gs_serve::protocol::CacheStatus::Coalesced => "coalesced",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLATFORM: &str = "proc root beta=0 alpha=0.009\n\
                            proc fast beta=1e-5 alpha=0.004\n\
                            proc slow beta=2e-5 alpha=0.016\n";

    /// End-to-end through a real socket: daemon up, plan twice (miss
    /// then hit), ping, shut down over the wire.
    #[test]
    fn client_talks_to_daemon_over_tcp() {
        let (handle, banner) =
            start_daemon(&ServeOptions { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let addr = handle.addr().to_string();
        assert!(banner.contains(&addr), "{banner}");

        assert_eq!(cmd_client(&addr, ClientCmd::Ping).unwrap(), "pong\n");
        let plan = |id: &str| {
            let _ = id;
            cmd_client(
                &addr,
                ClientCmd::Plan {
                    platform: PLATFORM.into(),
                    items: 4000,
                    strategy: "exact".into(),
                },
            )
            .unwrap()
        };
        let first = plan("1");
        assert!(first.starts_with("plan (miss): 4000 items"), "{first}");
        let second = plan("2");
        assert!(second.starts_with("plan (hit): 4000 items"), "{second}");
        // Identical payload apart from the cache word.
        assert_eq!(first.replace("(miss)", "(hit)"), second);

        let raw = cmd_client_raw(&addr, "{\"v\": 1, \"id\": \"raw\", \"op\": \"ping\"}").unwrap();
        assert!(raw.contains("\"op\": \"pong\""), "{raw}");

        assert_eq!(cmd_client(&addr, ClientCmd::Shutdown).unwrap(), "daemon shutting down\n");
        handle.join();
    }

    #[test]
    fn daemon_errors_become_cli_errors() {
        let (handle, _) =
            start_daemon(&ServeOptions { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let addr = handle.addr().to_string();
        let e = cmd_client(
            &addr,
            ClientCmd::Plan { platform: "bogus".into(), items: 10, strategy: "exact".into() },
        )
        .unwrap_err();
        assert!(e.0.contains("PlanFailed"), "{e}");
        handle.shutdown();
        handle.join();
    }
}
