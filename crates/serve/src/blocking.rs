//! The blocking connection driver, reported as connection model `pool`:
//! the driver on every platform without `poll.rs` (Linux builds reach it
//! only through the crate's tests). An accept loop hands connections to
//! `connection_workers` threads through a `backlog`-deep queue and answers
//! `503 overloaded` when both are full.
//!
//! A worker owns one connection at a time and does only I/O for its
//! [`crate::conn::Connection`]. Reads wait at most [`READ_POLL_INTERVAL`],
//! so a parked keep-alive connection sees a drain or shutdown within one
//! tick; writes wait at most until the machine's deadline, so a client that
//! stops reading cannot pin a worker (and the shutdown join behind it).

use crate::conn::{self, Action, Connection, Env};
use crate::http::{Ctx, Driver};
use crate::surface::HttpCounter;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The connection model `/stats` reports for this driver.
pub(crate) const NAME: &str = "pool";

/// Longest blocking read, so drain and shutdown flags are seen within one
/// tick even on a completely idle keep-alive socket.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Handles of a running blocking driver.
struct Pool {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Driver for Pool {
    fn wake(&self) {
        // Workers poll the flags every READ_POLL_INTERVAL.
    }

    fn join(&mut self) {
        // The acceptor blocks in accept(); a no-op connection wakes it so
        // it can observe the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Spawn the acceptor and the worker pool over an already-bound listener.
pub(crate) fn start(listener: TcpListener, ctx: &Arc<Ctx>) -> io::Result<Box<dyn Driver>> {
    let addr = listener.local_addr()?;
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(ctx.config.backlog);
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..ctx.config.connection_workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(ctx);
            thread::spawn(move || loop {
                // Hold the lock only to pull the next connection.
                let stream = match rx.lock().expect("hand-off poisoned").recv() {
                    Ok(stream) => stream,
                    Err(_) => return, // acceptor gone and queue drained
                };
                let open = ctx.stats.get(HttpCounter::OpenConnections);
                open.fetch_add(1, Ordering::Relaxed);
                serve(stream, &ctx);
                open.fetch_sub(1, Ordering::Relaxed);
            })
        })
        .collect();

    let acceptor = {
        let ctx = Arc::clone(ctx);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                ctx.stats.bump(HttpCounter::Connections);
                if let Err(
                    TrySendError::Full(mut stream) | TrySendError::Disconnected(mut stream),
                ) = tx.try_send(stream)
                {
                    let answer = conn::shed(&ctx, "connection pool saturated");
                    let _ = stream.write_all(&answer.bytes);
                }
            }
            // Dropping `tx` here releases the workers' recv loops.
        })
    };

    Ok(Box::new(Pool {
        addr,
        acceptor: Some(acceptor),
        workers,
    }))
}

/// Drive one connection to its close.
fn serve(mut stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout.min(READ_POLL_INTERVAL)));
    let _ = stream.set_nodelay(true);
    let mut conn = Connection::new(&ctx.config, Instant::now());
    let mut chunk = [0u8; 8192];
    let mut action = Action::Read;
    loop {
        let env = Env::of(ctx);
        action = match action {
            Action::Close => return,
            Action::Dispatch(request) => {
                let answer = conn::respond(&request, ctx);
                conn.answered(answer, Instant::now())
            }
            waiting => {
                let now = Instant::now();
                if let Some(next) = conn.check(now, &env) {
                    next
                } else if matches!(waiting, Action::Read) {
                    match stream.read(&mut chunk) {
                        Ok(0) => return, // peer closed
                        Ok(n) => conn.read(&chunk[..n], Instant::now(), &env),
                        Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                            Action::Read // a poll tick: re-check flags and deadline
                        }
                        Err(_) => return, // reset: close quietly
                    }
                } else {
                    // Writing: block no longer than the machine's deadline,
                    // which `check` just said lies ahead.
                    let left = conn.deadline(&env).map(|d| d.duration_since(now));
                    let _ = stream.set_write_timeout(left);
                    match stream.write(conn.unflushed()) {
                        Ok(0) => return,
                        Ok(n) => conn.wrote(n, Instant::now(), &env).unwrap_or(Action::Write),
                        Err(e) if e.kind() == Interrupted => Action::Write,
                        Err(_) => return, // timed out against a stalled reader, or reset
                    }
                }
            }
        };
    }
}
