//! A small blocking client for the daemon, used by `gs client`, the
//! `serve_load` bench, and the integration tests. One [`Client`] owns
//! one connection; requests on it are answered in order.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_response, encode_request, ErrorCode, ProtocolError, Request, Response,
};

/// A connected client. Dropping it closes the connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // One small write per request, then block on the response:
        // Nagle's algorithm only adds latency to this pattern.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        let line = self.call_line(&encode_request(req)).map_err(io_err)?;
        decode_response(&line)
    }

    /// Sends one raw, already-encoded line and returns the raw response
    /// line — the escape hatch `gs client --json` uses, so scripts can
    /// speak protocol extensions this build does not model.
    pub fn call_line(&mut self, line: &str) -> std::io::Result<String> {
        // One write per message: a separate newline would cost a second
        // syscall and, with Nagle off, a second segment.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            ));
        }
        Ok(response.trim_end_matches(['\r', '\n']).to_string())
    }
}

/// Fetches the daemon's `/metrics` endpoint over plain HTTP and returns
/// the Prometheus text body.
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response from daemon",
        )),
    }
}

fn io_err(e: std::io::Error) -> ProtocolError {
    ProtocolError { code: ErrorCode::Other, message: format!("i/o error: {e}"), id: None }
}
