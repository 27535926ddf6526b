//! Campaign-as-a-service: a resident `helix serve` process on a local
//! Unix-domain socket.
//!
//! The service accepts concurrent connections; each connection streams
//! newline-delimited [`api`] requests and receives one response line
//! per request (see [`api::encode_request`] /
//! [`api::decode_response`]). All submissions execute through the same
//! [`api::execute`] path the CLI uses, with two server-side policies
//! layered on top:
//!
//! * **One journal, always resumed.** Every run is forced onto the
//!   service's journal with `resume = true`, so a resubmitted campaign
//!   (or scenario) is answered from journaled cells without simulating
//!   — the response's `stats.journal_hits` counter proves it.
//! * **Bounded workers, single-flight dedup.** At most `workers`
//!   requests simulate at once; identical in-flight submissions are
//!   held until the first finishes, then answered from its freshly
//!   journaled cells. N concurrent clients submitting the same
//!   campaign get N byte-identical reports from one execution.
//!
//! A malformed or unknown request yields a typed
//! [`Response::Error`] line and the connection — and the server — stay
//! up. [`Request::Shutdown`] wakes the blocked accept loop, which
//! drains in-flight work and removes the socket. A slow or hostile
//! client holds at most one of [`MAX_CONNECTIONS`] connection threads,
//! and for at most [`WRITE_TIMEOUT`] per blocked response write.
//! Protocol details live in `docs/SERVICE.md`.

use crate::api::{self, Request, Response, ServiceStatus};
use crate::error::{ErrorKind, HelixError};
use crate::resilient::{fnv1a, panic_message, Journal, FNV_OFFSET};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Longest request line the service reads, newline excluded. A client
/// that sends more without a newline gets one `E_PROTOCOL` response and
/// the connection is closed, so it cannot grow the buffer without
/// bound. All 23 committed scenarios inline come to about 25 KB.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

/// Most connections served at once. The next one is answered with one
/// `E_IO` "server busy" line and closed, so idle clients can neither
/// grow the thread count without bound nor stall the accept loop.
pub const MAX_CONNECTIONS: usize = 64;

/// Longest a response write may block. A client that pipelines
/// requests and never reads its answers fills the socket buffer; the
/// timed-out write ends its connection, so `Shutdown` cannot be held
/// up behind it for longer than this.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of a `helix serve` instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Path of the Unix-domain socket to listen on. Created on start,
    /// removed on shutdown.
    pub socket: PathBuf,
    /// Journal directory answering repeat submissions. Defaults to
    /// `<socket>.journal`.
    pub journal: PathBuf,
    /// Maximum number of requests simulating concurrently.
    pub workers: usize,
}

impl ServeOptions {
    /// Options for a socket path, with the journal defaulting to
    /// `<socket>.journal` alongside it and a worker per core.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        let socket = socket.into();
        let journal = PathBuf::from(format!("{}.journal", socket.display()));
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServeOptions {
            socket,
            journal,
            workers,
        }
    }
}

/// Running totals; [`ServiceStatus`] minus the static `workers` field.
#[derive(Default)]
struct Counters {
    requests: u64,
    inflight: u64,
    cells: u64,
    journal_hits: u64,
    simulated: u64,
}

struct Shared {
    /// The listening socket, connected to once to wake `accept` on
    /// shutdown.
    socket: PathBuf,
    journal: PathBuf,
    workers: usize,
    shutdown: AtomicBool,
    /// Connection threads currently running (at most
    /// [`MAX_CONNECTIONS`]).
    connections: AtomicUsize,
    counters: Mutex<Counters>,
    /// Available worker permits.
    permits: Mutex<usize>,
    permits_cv: Condvar,
    /// Digests of run requests currently executing (single-flight).
    running: Mutex<HashSet<u64>>,
    running_cv: Condvar,
}

/// Run the service until a shutdown request arrives. Binds the socket,
/// blocks in `accept`, and handles each connection on its own thread;
/// returns after in-flight work drains and the socket file is removed.
///
/// A stale socket left by a crashed server is replaced. A socket with a
/// *live* listener, or a path that is not a socket at all, is refused
/// with [`ErrorKind::Usage`] and left as it is.
pub fn serve(options: &ServeOptions) -> Result<(), HelixError> {
    if let Ok(meta) = std::fs::symlink_metadata(&options.socket) {
        if !meta.file_type().is_socket() {
            return Err(HelixError::usage(format!(
                "'{}' exists and is not a socket; refusing to replace it",
                options.socket.display()
            )));
        }
        if UnixStream::connect(&options.socket).is_ok() {
            return Err(HelixError::usage(format!(
                "socket '{}' already has a listening server",
                options.socket.display()
            )));
        }
        std::fs::remove_file(&options.socket).map_err(|e| {
            HelixError::io(format!(
                "cannot replace stale socket '{}': {e}",
                options.socket.display()
            ))
        })?;
    }
    let listener = UnixListener::bind(&options.socket).map_err(|e| {
        HelixError::io(format!(
            "cannot bind socket '{}': {e}",
            options.socket.display()
        ))
    })?;
    // Fail fast if the journal directory is unusable.
    Journal::open(&options.journal)?;
    let shared = Shared {
        socket: options.socket.clone(),
        journal: options.journal.clone(),
        workers: options.workers.max(1),
        shutdown: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        counters: Mutex::new(Counters::default()),
        permits: Mutex::new(options.workers.max(1)),
        permits_cv: Condvar::new(),
        running: Mutex::new(HashSet::new()),
        running_cv: Condvar::new(),
    };
    eprintln!(
        "helix serve: listening on '{}' ({} workers, journal '{}')",
        options.socket.display(),
        shared.workers,
        options.journal.display()
    );
    let shared = &shared;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                // The wake connection, or a client that lost the race
                // with shutdown: dropped unanswered.
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    // Back off so a persistent error (say, out of file
                    // descriptors) cannot spin the loop.
                    eprintln!("helix serve: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
            };
            // Only this loop increments, so the count cannot pass the cap.
            let open = shared.connections.load(Ordering::SeqCst);
            if open >= MAX_CONNECTIONS {
                refuse_busy(stream, open);
                continue;
            }
            shared.connections.fetch_add(1, Ordering::SeqCst);
            scope.spawn(move || {
                handle_connection(stream, shared);
                shared.connections.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Scope exit joins connection threads: in-flight work drains.
    });
    let _ = std::fs::remove_file(&options.socket);
    eprintln!("helix serve: shut down");
    Ok(())
}

/// Answer a connection over the cap with one `E_IO` line and close it.
/// The write goes to a fresh socket's empty buffer, so it cannot block
/// the accept loop.
fn refuse_busy(mut stream: UnixStream, open: usize) {
    let e = HelixError::io(format!("server busy: {open} connections open"));
    let wire = api::encode_response(&Response::Error(e));
    let _ = stream.write_all(format!("{wire}\n").as_bytes());
}

impl Shared {
    /// Set the shutdown flag and wake the accept loop blocked in
    /// `accept` by connecting to the server's own socket. Only the
    /// first call wakes it.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = UnixStream::connect(&self.socket) {
            eprintln!(
                "helix serve: cannot wake the accept loop through '{}' ({e}); \
                 it stops at the next connection",
                self.socket.display()
            );
        }
    }
}

/// One connection: read request lines, answer each with one response
/// line. Decode failures produce a typed error response and the loop
/// continues — a bad client never takes the server down.
fn handle_connection(stream: UnixStream, shared: &Shared) {
    // A finite read timeout lets an idle connection notice shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // Read one line; timeouts mid-line keep the partial bytes in
        // `buf` (read_until appends) and retry until shutdown. The
        // `take` stops a line one byte past the cap.
        let complete_line = loop {
            let room = (MAX_REQUEST_LINE + 1 - buf.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut buf) {
                Ok(_) if buf.last() == Some(&b'\n') => break true,
                Ok(_) if buf.len() > MAX_REQUEST_LINE => {
                    shared.counters.lock().unwrap().requests += 1;
                    let e = HelixError::protocol(format!(
                        "request line exceeds {MAX_REQUEST_LINE} bytes"
                    ));
                    let wire = api::encode_response(&Response::Error(e));
                    let _ = writer.write_all(format!("{wire}\n").as_bytes());
                    return;
                }
                Ok(0) => break false, // EOF (possibly with a final unterminated line)
                Ok(_) => break false, // EOF mid-line
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            if complete_line {
                continue;
            }
            return;
        }
        let response = respond(line, shared);
        let wire = api::encode_response(&response);
        let sent = writer
            .write_all(wire.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_err() || matches!(response, Response::ShuttingDown) || !complete_line {
            return;
        }
    }
}

/// Decode and dispatch one request line, maintaining the counters.
fn respond(line: &str, shared: &Shared) -> Response {
    let request = match api::decode_request(line) {
        Ok(request) => request,
        Err(e) => {
            // Undecodable lines still count as requests: the status
            // counters should reflect misbehaving clients.
            shared.counters.lock().unwrap().requests += 1;
            return Response::Error(e);
        }
    };
    {
        let mut c = shared.counters.lock().unwrap();
        c.requests += 1;
        c.inflight += 1;
    }
    let response = dispatch(request, shared);
    {
        let mut c = shared.counters.lock().unwrap();
        c.inflight -= 1;
        match &response {
            Response::Scenario { cached, .. } => {
                c.cells += 1;
                if *cached {
                    c.journal_hits += 1;
                } else {
                    c.simulated += 1;
                }
            }
            Response::Campaign { stats, .. } => {
                c.cells += stats.cells as u64;
                c.journal_hits += stats.journal_hits as u64;
                c.simulated += stats.simulated as u64;
            }
            _ => {}
        }
    }
    response
}

fn dispatch(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Status => {
            let c = shared.counters.lock().unwrap();
            Response::Status(ServiceStatus {
                workers: shared.workers,
                requests: c.requests,
                inflight: c.inflight,
                cells: c.cells,
                journal_hits: c.journal_hits,
                simulated: c.simulated,
            })
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            Response::ShuttingDown
        }
        Request::Diff { .. } => api::execute(request),
        // Explore is deterministic but simulation-heavy: gate it on a
        // worker permit like Check (no journal — the report embeds its
        // own reproduction TOMLs, and reruns are cheap relative to the
        // bookkeeping of caching them).
        Request::Explore { .. } => run_gated(request, shared),
        Request::Check { .. } => run_gated(request, shared),
        Request::RunScenario {
            source,
            mut options,
        } => {
            let digest = singleflight_digest(&Request::RunScenario {
                source: source.clone(),
                options: options.clone(),
            });
            options.journal = Some(shared.journal.clone());
            options.resume = true;
            run_singleflight(Request::RunScenario { source, options }, digest, shared)
        }
        Request::RunCampaign {
            source,
            mut options,
        } => {
            let digest = singleflight_digest(&Request::RunCampaign {
                source: source.clone(),
                options: options.clone(),
            });
            options.journal = Some(shared.journal.clone());
            options.resume = true;
            run_singleflight(Request::RunCampaign { source, options }, digest, shared)
        }
    }
}

/// Canonical digest of a run request, computed from its wire form
/// *before* the server forces journal/resume (those are not encodable).
/// Decoded requests always re-encode; a failure falls back to a digest
/// of the debug form.
fn singleflight_digest(request: &Request) -> u64 {
    let canonical = api::encode_request(request).unwrap_or_else(|_| format!("{request:?}"));
    fnv1a(FNV_OFFSET, canonical.as_bytes())
}

/// Hold identical in-flight submissions until the first finishes, then
/// let them re-execute against the freshly journaled cells.
fn run_singleflight(request: Request, digest: u64, shared: &Shared) -> Response {
    {
        let mut running = shared.running.lock().unwrap();
        while running.contains(&digest) {
            running = shared.running_cv.wait(running).unwrap();
        }
        running.insert(digest);
    }
    let response = run_gated(request, shared);
    {
        shared.running.lock().unwrap().remove(&digest);
        shared.running_cv.notify_all();
    }
    response
}

/// Execute under a worker permit, converting a panic into a typed
/// internal error so one bad request cannot take the service down.
fn run_gated(request: Request, shared: &Shared) -> Response {
    {
        let mut permits = shared.permits.lock().unwrap();
        while *permits == 0 {
            permits = shared.permits_cv.wait(permits).unwrap();
        }
        *permits -= 1;
    }
    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| api::execute(request)))
        .unwrap_or_else(|payload| {
            Response::Error(HelixError::new(
                ErrorKind::Internal,
                format!("request panicked: {}", panic_message(payload.as_ref())),
            ))
        });
    {
        let mut permits = shared.permits.lock().unwrap();
        *permits += 1;
    }
    shared.permits_cv.notify_one();
    response
}

/// Submit one request to a running service and wait for its response —
/// the client half of the protocol (`helix submit`). Local-only request
/// options (journal/resume/chaos) and path sources are rejected before
/// connecting; resolve campaigns with
/// [`api::inline_campaign_source`] first.
pub fn submit(socket: &Path, request: &Request) -> Result<Response, HelixError> {
    let line = api::encode_request(request)?;
    let mut stream = UnixStream::connect(socket).map_err(|e| {
        HelixError::io(format!(
            "cannot connect to '{}': {e} (is `helix serve` running?)",
            socket.display()
        ))
    })?;
    let sent = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    // A server at its connection cap answers "server busy" and closes
    // without reading, so the send can fail after the answer arrived:
    // read it either way, and report the send error only without one.
    let mut reader = BufReader::new(stream);
    let mut response_line = String::new();
    let read = reader.read_line(&mut response_line);
    if let (Err(e), "") = (sent, response_line.as_str()) {
        return Err(HelixError::io(format!("cannot send request: {e}")));
    }
    read.map_err(|e| HelixError::io(format!("cannot read response: {e}")))?;
    if response_line.is_empty() {
        return Err(HelixError::protocol(
            "server closed the connection without answering",
        ));
    }
    api::decode_response(response_line.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_socket(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("helix.sock")
    }

    fn start(options: &ServeOptions) -> std::thread::JoinHandle<()> {
        let options = options.clone();
        let server_options = options.clone();
        let handle = std::thread::spawn(move || serve(&server_options).unwrap());
        let mut ready = false;
        for _ in 0..200 {
            if UnixStream::connect(&options.socket).is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ready, "server never bound its socket");
        handle
    }

    #[test]
    fn status_shutdown_and_stale_socket_handling() {
        let socket = scratch_socket("status");
        let options = ServeOptions {
            workers: 2,
            ..ServeOptions::new(&socket)
        };
        assert_eq!(
            options.journal,
            PathBuf::from(format!("{}.journal", socket.display()))
        );
        let handle = start(&options);

        match submit(&socket, &Request::Status).unwrap() {
            Response::Status(status) => {
                assert_eq!(status.workers, 2);
                assert_eq!(status.requests, 1);
                assert_eq!(status.cells, 0);
            }
            other => panic!("expected Status, got {other:?}"),
        }
        assert!(matches!(
            submit(&socket, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();
        assert!(!socket.exists(), "socket removed on shutdown");

        // A stale socket (bound by a server that crashed before removing
        // it) is replaced on restart.
        drop(UnixListener::bind(&socket).unwrap());
        assert!(std::fs::symlink_metadata(&socket)
            .unwrap()
            .file_type()
            .is_socket());
        let handle = start(&options);
        assert!(matches!(
            submit(&socket, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();

        // Any other file at the socket path is refused and left intact.
        // The deadline turns a server that took the path over into a
        // failure instead of a hang.
        std::fs::write(&socket, b"notes").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let refused_options = options.clone();
        std::thread::spawn(move || tx.send(serve(&refused_options)).unwrap());
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("serve must refuse a regular file, not listen on it")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Usage);
        assert!(err.message.contains("not a socket"), "{}", err.message);
        assert_eq!(std::fs::read(&socket).unwrap(), b"notes");
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_server_survives() {
        let socket = scratch_socket("malformed");
        let options = ServeOptions::new(&socket);
        let handle = start(&options);

        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .write_all(b"this is not json\n{\"v\": 1, \"type\": \"frobnicate\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match api::decode_response(line.trim_end()).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol),
            other => panic!("expected Error, got {other:?}"),
        }
        line.clear();
        reader.read_line(&mut line).unwrap();
        match api::decode_response(line.trim_end()).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Protocol);
                assert!(e.message.contains("frobnicate"), "{}", e.message);
            }
            other => panic!("expected Error, got {other:?}"),
        }
        drop(reader);
        drop(stream);

        // The server is still answering after two bad requests, and the
        // bad requests are visible in the counters.
        match submit(&socket, &Request::Status).unwrap() {
            Response::Status(status) => assert_eq!(status.requests, 3),
            other => panic!("expected Status, got {other:?}"),
        }
        assert!(matches!(
            submit(&socket, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();
    }
}
