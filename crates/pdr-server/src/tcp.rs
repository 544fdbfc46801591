//! The TCP transport: one thread per connection, line in → line out.
//!
//! The listener is optional plumbing around [`crate::Server`] — the
//! service itself is transport-agnostic ([`crate::Server::handle_line`]
//! serves any byte stream, and the binary also runs a stdin loop).
//! Connection reads use a short timeout so handler threads notice
//! shutdown even when a client keeps an idle connection open. A request
//! line longer than 1 MiB gets an error response and the connection is
//! closed, so no client can grow a handler's line buffer without bound.

use crate::{Response, Server};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Longest request line a connection buffers, newline excluded (1 MiB).
const MAX_LINE_BYTES: usize = 1 << 20;

/// A running TCP listener bound to a local address.
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (use `"127.0.0.1:0"` to let the OS pick a port,
    /// then read it back here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Connection handler
    /// threads drain on their own once their client disconnects or their
    /// next read times out.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Bind `addr` and serve the compilation service over it. Returns as soon
/// as the listener is bound; accepting runs on a background thread.
pub fn serve(addr: &str, server: Arc<Server>) -> io::Result<TcpHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = stop.clone();
    let accept_thread = thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !accept_stop.load(Ordering::SeqCst) {
            reap_finished(&mut handlers);
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = server.clone();
                    let stop = accept_stop.clone();
                    let handle = thread::spawn(move || handle_connection(stream, &server, &stop));
                    handlers.push(handle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        for handle in handlers {
            let _ = handle.join();
        }
    });
    Ok(TcpHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Join every finished connection thread, releasing its stack, and keep
/// the running ones. The accept loop calls this on every pass, so a
/// long-running server holds one handle per *open* connection, not one
/// per connection it ever served.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    for handle in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = handle.join();
    }
}

fn handle_connection(stream: TcpStream, server: &Server, stop: &AtomicBool) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut reply = |line: &str| {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
    };
    let mut line: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        // Read at most one byte past the cap: a line that reaches it
        // without a newline is over-long.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // client closed
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                let _ = reply(&Response::Error { id: 0, message }.render());
                break;
            }
            Ok(_) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    break;
                };
                let trimmed = text.trim();
                if !trimmed.is_empty() && reply(&server.handle_line(trimmed)).is_err() {
                    break;
                }
                line.clear();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle or mid-line timeout: whatever was read so far stays
                // in `line`; poll the stop flag and keep accumulating.
                continue;
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reaping_joins_finished_threads_and_keeps_running_ones() {
        let (release, gate) = mpsc::channel::<()>();
        let mut handlers = vec![
            thread::spawn(|| {}),
            thread::spawn(move || {
                let _ = gate.recv();
            }),
            thread::spawn(|| {}),
        ];
        while handlers.iter().filter(|h| h.is_finished()).count() < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the blocked thread stays");
        assert!(!handlers[0].is_finished());
        release.send(()).unwrap();
        while !handlers[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty());
    }
}
