//! TCP front end for the daemonized scheduler: `std::net` only, one
//! blocking accept thread plus one reader thread per client.
//!
//! Each connection speaks the line-delimited JSON protocol of
//! [`crate::protocol`]; every frame is answered on the same connection
//! in order. Client misbehavior is contained by construction:
//!
//! * a malformed frame gets a typed `malformed_frame` error *response*
//!   and the connection stays open;
//! * a frame longer than [`MAX_FRAME_BYTES`] gets one `malformed_frame`
//!   response naming the limit and the connection closes, so a client
//!   that never sends a newline cannot make the daemon buffer without
//!   bound;
//! * a disconnect mid-frame (bytes without a final newline at EOF) is
//!   detected and dropped — there is no peer left to answer;
//! * a reader thread only ever touches its own connection and a cloned
//!   [`SchedClient`], so nothing a client does can reach the scheduler
//!   loop except as a typed command;
//! * a client that stops reading its replies is dropped after
//!   [`REPLY_TIMEOUT`] instead of pinning its reader thread.
//!
//! Replies are one `write` each on a `TCP_NODELAY` socket (a response
//! split in two on a Nagle'd socket waits for the peer's delayed ACK —
//! ~40 ms per request), and [`Server::stop`] joins every reader thread,
//! so the reply to the `drain`/`shutdown` that ends the daemon is on the
//! wire before the process can exit.
//!
//! With a tracer attached, `client_connect` / `client_disconnect`
//! instants land on the scheduler timeline (0), interleaved with the
//! queue-depth and occupancy counters — `mfc-trace-report` counts them
//! in the scheduler view.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mfc_trace::{Category, TraceHandle};
use serde_json::json;

use crate::protocol::{self, ProtocolError, Request};
use crate::scheduler::SchedClient;

/// Longest a reply may take to enter the client's socket buffer; also
/// what bounds the joins in [`Server::stop`].
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest frame a client may send, newline included. Frames carry a case
/// path and a few overrides, never a case body.
const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A listening daemon front end. Binding succeeds before any client
/// traffic; [`Server::stop`] (also run on drop) unblocks the accept
/// loop and joins it and every client's reader thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Returns the connections still open when the loop stopped.
    accept: Option<JoinHandle<Vec<ClientConn>>>,
}

/// One accepted connection: its reader thread and a handle on the socket
/// to end that thread's blocking read.
struct ClientConn {
    stream: TcpStream,
    reader: JoinHandle<()>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting clients, each served by its own reader thread holding
    /// a clone of `sched`.
    pub fn bind(
        addr: &str,
        sched: SchedClient,
        tl: Option<Arc<TraceHandle>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("mfc-serve-accept".into())
            .spawn(move || {
                let mut clients: Vec<ClientConn> = Vec::new();
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    clients.retain(|c| !c.reader.is_finished());
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(REPLY_TIMEOUT));
                    let Ok(handle) = stream.try_clone() else {
                        continue;
                    };
                    let sched = sched.clone();
                    let tl = tl.clone();
                    // Reader threads exit on their client's EOF; after the
                    // scheduler loop ends every command they relay answers
                    // ShuttingDown.
                    if let Ok(reader) = std::thread::Builder::new()
                        .name("mfc-serve-client".into())
                        .spawn(move || serve_client(stream, &sched, tl.as_deref()))
                    {
                        clients.push(ClientConn {
                            stream: handle,
                            reader,
                        });
                    }
                }
                clients
            })?;
        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new clients, then end every open connection once
    /// its in-flight reply is written: closing the read half makes the
    /// reader thread's next `read_line` see EOF, which it reaches only
    /// after answering the frame it is working on. Each join is bounded by
    /// [`REPLY_TIMEOUT`] (a peer that does not take its reply).
    pub fn stop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.stop.store(true, Ordering::Relaxed);
            // The accept loop blocks in `incoming()`; a throwaway
            // connection wakes it to observe the stop flag.
            let _ = TcpStream::connect(self.addr);
            for c in h.join().unwrap_or_default() {
                let _ = c.stream.shutdown(Shutdown::Read);
                let _ = c.reader.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_client(stream: TcpStream, sched: &SchedClient, tl: Option<&TraceHandle>) {
    if let Some(tl) = tl {
        tl.instant("client_connect", Category::Phase);
    }
    let mut disconnect_kind = "client_disconnect";
    if let Ok(read_half) = stream.try_clone() {
        let mut reader = BufReader::new(read_half);
        let mut out = stream;
        let mut frame = Vec::new();
        loop {
            frame.clear();
            let read = (&mut reader)
                .take(MAX_FRAME_BYTES as u64)
                .read_until(b'\n', &mut frame);
            let complete = frame.last() == Some(&b'\n');
            let mut resp = match read {
                Ok(0) | Err(_) => break, // clean EOF, or a failed read
                Ok(_) if complete => {
                    // Not UTF-8: drop the connection, as a failed read does.
                    let Ok(line) = std::str::from_utf8(&frame) else {
                        break;
                    };
                    if line.trim().is_empty() {
                        continue; // blank keep-alive line
                    }
                    handle_line(line, sched)
                }
                Ok(n) if n < MAX_FRAME_BYTES => {
                    // Bytes but no newline before EOF: the client died
                    // mid-frame. Nothing is answerable — drop the
                    // partial frame, never feed it to the scheduler.
                    disconnect_kind = "client_disconnect_midframe";
                    break;
                }
                Ok(_) => protocol::error_response(&ProtocolError::MalformedFrame {
                    detail: format!("frame exceeds {MAX_FRAME_BYTES} bytes without a newline"),
                }),
            };
            resp.push('\n');
            // An over-long frame is answered, then its connection closed
            // (the accept loop still holds a handle on the socket).
            if out.write_all(resp.as_bytes()).is_err() || !complete {
                let _ = out.shutdown(Shutdown::Both);
                break;
            }
        }
    }
    if let Some(tl) = tl {
        tl.instant(disconnect_kind, Category::Phase);
    }
}

/// One frame in, one response line out (no trailing newline).
pub fn handle_line(line: &str, sched: &SchedClient) -> String {
    let req = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => return protocol::error_response(&e),
    };
    match req {
        Request::Submit(spec) => match sched.submit(spec) {
            Ok(id) => protocol::ok_response(json!({ "id": id })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Status(id) => match sched.status(id) {
            Ok(rows) => protocol::ok_response(json!({ "jobs": serde_json::to_value(&rows) })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Cancel(id) => match sched.cancel(id) {
            Ok(()) => protocol::ok_response(json!({ "cancelled": id })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Metrics => match sched.metrics() {
            Ok(m) => protocol::ok_response(json!({ "metrics": serde_json::to_value(&m) })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Drain => match sched.drain() {
            Ok(m) => protocol::ok_response(json!({
                "draining": true,
                "metrics": serde_json::to_value(&m)
            })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Shutdown => match sched.shutdown() {
            Ok(m) => protocol::ok_response(json!({
                "shutting_down": true,
                "metrics": serde_json::to_value(&m)
            })),
            Err(e) => protocol::error_response(&e.into()),
        },
        Request::Ping => protocol::ok_response(json!({ "pong": true })),
    }
}
