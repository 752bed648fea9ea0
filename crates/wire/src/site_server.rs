//! A site as a network server: one [`SiteLocal`] behind a [`TcpListener`],
//! serving the PaX protocol with thread-per-connection.
//!
//! The server is deliberately thin: every `Round` request decodes to an
//! [`paxml_core::EpochRequest`] and runs through the
//! same [`paxml_core::dispatch`] the in-process simulator runs — the server
//! adds only the socket, the ops/busy metering around the task, and a clean
//! shutdown path. A panicking task is caught (before the site guard drops,
//! so the site mutex is never poisoned) and reported as a
//! [`WireReply::Error`]; the site stays alive for later rounds.

use crate::msg::{self, WireReply, WireRequest};
use crate::tcp::configure_stream;
use paxml_core::dispatch;
use paxml_core::{EpochRequest, ProtocolResponse};
use paxml_distsim::{SiteId, SiteLocal};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One PaX site listening on a TCP socket.
///
/// The site starts empty and anonymous: the coordinator's
/// [`WireRequest::Hello`] assigns its [`SiteId`] and
/// [`WireRequest::Load`] installs its fragments. Multiple concurrent
/// connections are served (each on its own thread); they share the one
/// [`SiteLocal`] behind a mutex, exactly like the simulator's per-site
/// lock serializes overlapping visits.
pub struct SiteServer {
    listener: TcpListener,
    site: Arc<Mutex<SiteLocal>>,
    shutting_down: Arc<AtomicBool>,
}

impl SiteServer {
    /// Bind a fresh, empty site to `addr` (use port 0 to let the OS pick).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<SiteServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(SiteServer {
            listener,
            site: Arc::new(Mutex::new(SiteLocal::new(SiteId(0)))),
            shutting_down: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the site actually listens on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until a [`WireRequest::Shutdown`] arrives.
    ///
    /// Each accepted connection gets its own handler thread; the `Shutdown`
    /// handler flips the shared flag and pokes the listener with a throwaway
    /// connection so the blocking `accept` observes it. A failed accept or
    /// socket setup costs only that connection: the site keeps serving the
    /// next dial (a probe or repair), and only a shutdown ends the loop.
    pub fn run(self) -> io::Result<()> {
        let local_addr = self.local_addr()?;
        loop {
            let accepted = self.listener.accept();
            if self.shutting_down.load(Ordering::SeqCst) {
                return Ok(());
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(err) => {
                    if let Some(pause) = accept_retry_pause(&err) {
                        std::thread::sleep(pause);
                    }
                    continue;
                }
            };
            if configure_stream(&stream, None).is_err() {
                continue;
            }
            let site = Arc::clone(&self.site);
            let shutting_down = Arc::clone(&self.shutting_down);
            std::thread::spawn(move || {
                serve_connection(stream, site, shutting_down, local_addr);
            });
        }
    }
}

/// How long to wait before the next `accept` after a failed one: errors of
/// one connection retry at once; anything else, typically running out of
/// file descriptors (`EMFILE`/`ENFILE`), pauses so the loop does not spin.
fn accept_retry_pause(err: &io::Error) -> Option<Duration> {
    match err.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted => None,
        _ => Some(Duration::from_millis(10)),
    }
}

/// Serve one coordinator connection until it closes or asks for shutdown.
fn serve_connection(
    mut stream: TcpStream,
    site: Arc<Mutex<SiteLocal>>,
    shutting_down: Arc<AtomicBool>,
    local_addr: SocketAddr,
) {
    loop {
        let request: WireRequest = match msg::recv(&mut stream) {
            Ok(request) => request,
            // The coordinator hung up (or sent garbage): this connection is
            // done, the site itself lives on for the next connection.
            Err(_) => return,
        };
        let reply = match request {
            WireRequest::Hello { site: id } => {
                lock_site(&site).id = id;
                WireReply::Hello { site: id }
            }
            WireRequest::Load { fragments } => {
                let mut guard = lock_site(&site);
                for fragment in fragments {
                    guard.add_fragment(fragment);
                }
                WireReply::Loaded { fragments: guard.fragment_count() }
            }
            WireRequest::Round { body } => match run_round(&site, &body) {
                Ok((ops, busy_nanos, response)) => {
                    let envelope = |body| WireReply::Round { ops, busy_nanos, body };
                    if msg::send_with_body(&mut stream, &response, envelope).is_err() {
                        return;
                    }
                    continue;
                }
                Err(message) => WireReply::Error { message },
            },
            WireRequest::ScratchLen => {
                WireReply::ScratchLen { len: lock_site(&site).scratch_len() }
            }
            WireRequest::SiteLoad => {
                let guard = lock_site(&site);
                WireReply::SiteLoad {
                    report: paxml_distsim::SiteLoadReport {
                        site: guard.id,
                        fragments: guard.fragment_bytes_at(paxml_distsim::LATEST_EPOCH),
                    },
                }
            }
            WireRequest::Reset => {
                lock_site(&site).clear_scratch();
                WireReply::ResetDone
            }
            WireRequest::Shutdown => {
                shutting_down.store(true, Ordering::SeqCst);
                let _ = msg::send(&mut stream, &WireReply::ShuttingDown);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(local_addr);
                return;
            }
        };
        if msg::send(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Decode and dispatch one protocol round, metering ops and busy time the
/// same way the simulator's round does: `(ops, busy_nanos, response)`, or
/// why the round could not be served.
fn run_round(
    site: &Arc<Mutex<SiteLocal>>,
    body: &[u8],
) -> Result<(u64, u64, ProtocolResponse), String> {
    let request: EpochRequest = crate::codec::decode(body).map_err(|err| err.to_string())?;
    let mut guard = lock_site(site);
    let ops_before = guard.ops();
    let start = Instant::now();
    // Catch panics while still holding the guard so the mutex is never
    // poisoned — the same containment the simulator's workers use.
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(&mut guard, request)));
    let busy = start.elapsed();
    let ops = guard.ops() - ops_before;
    drop(guard);
    match outcome {
        Ok(response) => Ok((ops, busy.as_nanos() as u64, response)),
        Err(payload) => Err(panic_message(payload)),
    }
}

fn lock_site(site: &Arc<Mutex<SiteLocal>>) -> std::sync::MutexGuard<'_, SiteLocal> {
    site.lock().expect("site tasks catch their panics before the guard drops")
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("site task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("site task panicked: {s}")
    } else {
        "site task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_level_accept_error_retries_at_once_and_others_pause() {
        assert_eq!(accept_retry_pause(&io::ErrorKind::ConnectionAborted.into()), None);
        // Out of file descriptors has no `ErrorKind` of its own.
        assert!(accept_retry_pause(&io::Error::other("too many open files")).is_some());
    }
}
