//! The HTTP exporter: a minimal `std::net::TcpListener` server giving
//! operators three scrape surfaces over a [`MetricsRegistry`]:
//!
//! * `/metrics` — the registry in Prometheus text exposition format;
//! * `/healthz` — a JSON liveness probe (status 200/503 from the
//!   owner's health callback);
//! * `/statusz` — a human-readable status page from the owner's status
//!   callback.
//!
//! The server is deliberately tiny: HTTP/1.0 semantics, one request
//! per connection, `Connection: close`, no TLS, no keep-alive — it is
//! an observability side-channel, not a web framework, and it must not
//! pull any dependency into the hermetic build.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::MetricsRegistry;

/// What the owner's health callback reports.
#[derive(Debug, Clone)]
pub struct Health {
    /// `true` → `/healthz` answers 200, `false` → 503.
    pub healthy: bool,
    /// The response body (conventionally JSON).
    pub body: String,
}

/// The callbacks an exporter serves besides the registry itself.
pub struct Endpoints {
    /// Invoked per `/healthz` request.
    pub health: Box<dyn Fn() -> Health + Send + Sync>,
    /// Invoked per `/statusz` request.
    pub status: Box<dyn Fn() -> String + Send + Sync>,
}

impl Default for Endpoints {
    fn default() -> Self {
        Endpoints {
            health: Box::new(|| Health { healthy: true, body: "{\"status\":\"ok\"}".into() }),
            status: Box::new(|| "ok\n".into()),
        }
    }
}

/// A running telemetry server. Dropping it (or calling
/// [`shutdown`](TelemetryServer::shutdown)) stops the accept loop and
/// joins the serving thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks an ephemeral
    /// port — read it back with [`local_addr`](TelemetryServer::local_addr))
    /// and starts the serving thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        endpoints: Endpoints,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scrapes = registry.counter(
            "augur_telemetry_scrapes_total",
            "Scrapes served, by endpoint.",
            &[("endpoint", "/metrics")],
        );
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("augur-telemetry".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A stalled client must not wedge the exporter.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    serve_one(stream, &registry, &endpoints, &scrapes);
                }
            })
            .expect("spawn telemetry server thread");
        Ok(TelemetryServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept call with a throwaway connection; if the
        // listener bound a wildcard address, poke loopback instead.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(std::net::Ipv4Addr::LOCALHOST.into());
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_millis(250));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request off the stream and answers it.
fn serve_one(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    endpoints: &Endpoints,
    scrapes: &crate::registry::Counter,
) {
    let Some((method, path)) = read_request(&mut stream) else {
        return;
    };
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match path.as_str() {
            "/metrics" => {
                scrapes.inc();
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render())
            }
            "/healthz" => {
                let h = (endpoints.health)();
                (
                    if h.healthy { "200 OK" } else { "503 Service Unavailable" },
                    "application/json; charset=utf-8",
                    h.body,
                )
            }
            "/statusz" => ("200 OK", "text/plain; charset=utf-8", (endpoints.status)()),
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        }
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    let _ = stream.write_all(body.as_bytes());
}

/// Parses `GET /path HTTP/1.x` off the wire; query strings are
/// stripped. `None` on anything malformed (the connection is just
/// dropped — this is a scrape endpoint, not a public server).
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.split('?').next()?.to_string();
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocking mini-client for the tests (and reusable shape for the
    /// smoke binaries): returns `(status line, body)`.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
        (head.lines().next().expect("status line").to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_healthz_statusz_and_404() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("augur_test_total", "a test counter", &[]).add(3);
        let endpoints = Endpoints {
            health: Box::new(|| Health { healthy: true, body: "{\"status\":\"ok\"}".into() }),
            status: Box::new(|| "status page\n".into()),
        };
        let server =
            TelemetryServer::start("127.0.0.1:0", Arc::clone(&registry), endpoints).expect("bind");
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("augur_test_total 3"), "{body}");
        // The scrape itself is counted (incremented before the render,
        // so the first scrape already sees itself).
        assert!(body.contains("augur_telemetry_scrapes_total{endpoint=\"/metrics\"} 1"), "{body}");
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("augur_telemetry_scrapes_total{endpoint=\"/metrics\"} 2"), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"status\":\"ok\"}");

        let (status, body) = get(addr, "/statusz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "status page\n");

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn unhealthy_health_answers_503_and_shutdown_is_idempotent() {
        let registry = Arc::new(MetricsRegistry::new());
        let endpoints = Endpoints {
            health: Box::new(|| Health { healthy: false, body: "{\"status\":\"down\"}".into() }),
            ..Default::default()
        };
        let mut server = TelemetryServer::start("127.0.0.1:0", registry, endpoints).expect("bind");
        let (status, body) = get(server.local_addr(), "/healthz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("down"));
        server.shutdown();
        server.shutdown();
    }
}
