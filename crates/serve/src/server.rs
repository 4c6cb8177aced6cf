//! The TCP front end: a listener accepting JSON-lines sessions (one
//! request per line, one response per line, answered in order) and, on
//! the same port, plain `GET /metrics` HTTP requests for Prometheus
//! scrapers. Transport only — every decision is [`Engine::handle`]'s.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use gs_scatter::metrics::Registry;
use gs_scatter::obs::span;

use crate::engine::Engine;
use crate::protocol::{
    decode_request, encode_response, ErrorCode, Outcome, ProtocolError, Request, RequestBody,
    Response,
};

/// A running daemon: the bound address plus the accept-loop thread.
/// Obtain one with [`serve`]; stop it with [`ServerHandle::shutdown`]
/// (or a `shutdown` request over the wire) and then
/// [`ServerHandle::join`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0 to the ephemeral
    /// port the OS picked — how tests avoid collisions).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit after its next accept. Safe to call
    /// more than once, and also triggered by a `shutdown` request.
    pub fn shutdown(&self) {
        request_stop(&self.stop, self.addr);
    }

    /// Waits for the accept loop to exit. Connection threads already
    /// past accept finish their current session independently.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Sets the stop flag and pokes the listener with a throwaway
/// connection so a blocking `accept` observes it.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
}

/// Binds `addr` (e.g. `"127.0.0.1:7070"`, or port `0` for an ephemeral
/// port) and serves requests on it until shut down. Each connection
/// gets its own thread; the engine's admission control bounds the
/// planning work they can queue, not the connection count.
pub fn serve(engine: Arc<Engine>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with_span_log(engine, addr, None)
}

/// [`serve`] with an optional per-request span log: when `span_log`
/// names a directory (created if missing) and span tracing is enabled
/// ([`span::set_enabled`]), every answered request writes
/// `req-<id>.json` there — a Chrome trace-event file of the spans the
/// request recorded on its session thread (root `request` span plus
/// stage children; load it at `chrome://tracing` or in Perfetto).
/// Spans recorded by planner *worker* threads land in the global ring
/// ([`span::drain`]) instead — per-request files capture the
/// session-thread breakdown, which is the whole request except the
/// inside of a multi-threaded DP column sweep.
pub fn serve_with_span_log(
    engine: Arc<Engine>,
    addr: &str,
    span_log: Option<PathBuf>,
) -> std::io::Result<ServerHandle> {
    if let Some(dir) = &span_log {
        std::fs::create_dir_all(dir)?;
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(conn) = conn else { continue };
            // Responses are one small line each; never wait for Nagle.
            let _ = conn.set_nodelay(true);
            Registry::global()
                .counter("serve_connections_total", "TCP connections accepted")
                .inc();
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&accept_stop);
            let span_log = span_log.clone();
            std::thread::spawn(move || {
                let handle = |req| engine.handle(req);
                let _ = session(&handle, conn, &stop, addr, span_log.as_deref());
            });
        }
    });
    Ok(ServerHandle { addr, stop, accept_thread: Some(accept_thread) })
}

/// Serves one connection: either a single HTTP `GET /metrics` exchange
/// or a JSON-lines request/response session, each request answered by
/// `handle` ([`Engine::handle`] in the daemon).
fn session(
    handle: &impl Fn(Request) -> Response,
    conn: TcpStream,
    stop: &AtomicBool,
    addr: SocketAddr,
    span_log: Option<&Path>,
) -> std::io::Result<()> {
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // peer closed
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        if line.starts_with("GET /metrics") {
            return write_metrics_http(&mut writer);
        }
        let (response, shutdown) = respond(line, handle);
        // One write per message: on a no-delay socket a separate newline
        // costs a second syscall and a second segment.
        let mut framed = encode_response(&response);
        framed.push('\n');
        writer.write_all(framed.as_bytes())?;
        if let Some(dir) = span_log {
            write_request_spans(dir, &response.id);
        }
        if shutdown {
            request_stop(stop, addr);
            return Ok(());
        }
    }
}

/// Drains the session thread's span buffer into
/// `dir/req-<sanitized id>.json` as a Chrome trace. Requests are
/// answered serially per session, so everything buffered since the last
/// drain belongs to the request just answered. The file is written under
/// a temporary name and renamed into place, so a reader that polls for
/// it (the response is already on the wire) never sees it half written.
/// Best-effort: a full disk must not take the daemon down.
fn write_request_spans(dir: &Path, id: &str) {
    if !span::enabled() {
        return;
    }
    let spans = span::take_local();
    if spans.is_empty() {
        return;
    }
    let mut name: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if name.is_empty() {
        name.push_str("anon");
    }
    // One temporary name per write: sessions answering equal ids must
    // not rename each other's partial files.
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(".req-{name}.{}.tmp", WRITES.fetch_add(1, Ordering::Relaxed)));
    if std::fs::write(&tmp, span::chrome_trace_json(&spans)).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(format!("req-{name}.json")));
    }
}

/// Decodes and handles one request line; the flag says whether it asked
/// the daemon to shut down. A panic while handling is answered as an
/// `internal` error on the same connection, which keeps serving.
fn respond(line: &str, handle: impl Fn(Request) -> Response) -> (Response, bool) {
    match decode_request(line) {
        Ok(req) => {
            let shutdown = matches!(req.body, RequestBody::Shutdown);
            let id = req.id.clone();
            let response = panic::catch_unwind(AssertUnwindSafe(|| handle(req)))
                .unwrap_or_else(|_| {
                    Registry::global()
                        .counter("serve_errors_total", "requests answered with an error")
                        .inc();
                    Response {
                        id,
                        outcome: Outcome::Error {
                            code: ErrorCode::Internal,
                            message: "the daemon failed while handling this request".into(),
                        },
                    }
                });
            (response, shutdown)
        }
        Err(ProtocolError { code, message, id }) => (
            Response {
                id: id.unwrap_or_default(),
                outcome: Outcome::Error { code, message },
            },
            false,
        ),
    }
}

/// Answers a Prometheus scrape: minimal HTTP/1.1, close-delimited.
fn write_metrics_http(writer: &mut TcpStream) -> std::io::Result<()> {
    let body = Registry::global().snapshot().to_prometheus();
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Op};
    use crate::protocol::{decode_response, encode_request, PlanParams};

    #[test]
    fn a_panicking_request_is_answered_and_its_connection_keeps_serving() {
        let engine = Engine::new(EngineConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (conn, _) = listener.accept().unwrap();
                // Plan requests go through the coalescing path with a
                // leader computation that panics.
                let handle = |req: Request| match &req.body {
                    RequestBody::Plan(params) => Response {
                        outcome: engine.planned_with(Op::Plan, params, 0, || {
                            panic!("injected compute failure")
                        }),
                        id: req.id,
                    },
                    _ => engine.handle(req),
                };
                session(&handle, conn, &stop, addr, None).unwrap();
            });
            let mut writer = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut ask = |req: Request| {
                writeln!(writer, "{}", encode_request(&req)).unwrap();
                let mut line = String::new();
                let answered = reader.read_line(&mut line).unwrap() > 0;
                answered.then(|| decode_response(line.trim_end()).unwrap())
            };
            let params = PlanParams {
                platform: "proc root beta=0 alpha=0.01\nroot root".into(),
                items: 10,
                strategy: "exact".into(),
            };
            let boom = ask(Request { id: "boom".into(), body: RequestBody::Plan(params) })
                .expect("the panicking request gets an answer");
            assert_eq!(boom.id, "boom");
            assert!(
                matches!(boom.outcome, Outcome::Error { code: ErrorCode::Internal, .. }),
                "{boom:?}"
            );
            let after = ask(Request { id: "after".into(), body: RequestBody::Ping })
                .expect("the connection keeps serving");
            assert_eq!(after.outcome, Outcome::Pong);
        });
    }
}
