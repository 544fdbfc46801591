//! The `pdr-server` binary: the compilation service on stdin/stdout,
//! optionally also on TCP.
//!
//! ```text
//! pdr-server [--workers N] [--queue-limit N] [--cold] [--addr HOST:PORT]
//! ```
//!
//! `--cold` turns result reuse off (no cache, no coalescing): every
//! request computes fresh.
//!
//! Requests are read line by line from stdin and answered on stdout
//! (one JSON object per line — see `pdr_server::protocol`), so the
//! service works in a pipe with no network at all:
//!
//! ```text
//! echo '{"id":1,"op":"compile","flow":"paper"}' | pdr-server
//! ```
//!
//! With `--addr`, a TCP listener serves the same protocol concurrently;
//! the process exits when stdin closes.

use pdr_server::{Server, ServerConfig};
use std::io::{self, BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    config: ServerConfig,
    addr: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: ServerConfig::default(),
        addr: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                opts.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-limit" => {
                opts.config.queue_limit = value("--queue-limit")?
                    .parse()
                    .map_err(|e| format!("--queue-limit: {e}"))?
            }
            "--cold" => opts.config.reuse = false,
            "--addr" => opts.addr = Some(value("--addr")?),
            "--help" | "-h" => {
                return Err(
                    "usage: pdr-server [--workers N] [--queue-limit N] [--cold] [--addr HOST:PORT]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let server = Arc::new(Server::start(opts.config));
    let tcp_handle = match &opts.addr {
        Some(addr) => match pdr_server::tcp::serve(addr, server.clone()) {
            Ok(handle) => {
                eprintln!("pdr-server listening on {}", handle.local_addr());
                Some(handle)
            }
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    eprintln!(
        "pdr-server ready: {} workers, queue limit {} (reading stdin)",
        server.config().workers,
        server.config().queue_limit
    );
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = server.handle_line(line.trim());
        if writeln!(stdout, "{response}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
    if let Some(handle) = tcp_handle {
        handle.shutdown();
    }
    ExitCode::SUCCESS
}
