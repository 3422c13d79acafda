//! A small blocking client for the cslack admission protocol — the
//! building block of the load generator, the CI smoke test, and the
//! integration suite.

use crate::proto::{self, Frame, ProtoError};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The engine parameters a `HelloAck` reveals — enough for a client to
/// regenerate the tenant's workload and replay the run offline.
#[derive(Clone, Debug)]
pub struct EngineInfo {
    /// Tenant name (echoed).
    pub tenant: String,
    /// Machines in the tenant's cluster.
    pub m: usize,
    /// System slack.
    pub eps: f64,
    /// Engine shard count.
    pub shards: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Admission algorithm (CLI vocabulary).
    pub algorithm: String,
    /// In-flight quota.
    pub inflight_limit: usize,
}

/// One blocking protocol connection. Reads go through a buffer, so a
/// frame usually costs one `read` syscall (or none, when an earlier
/// read already brought it in); writes go straight to the socket.
pub struct Connection {
    stream: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream: BufReader::new(stream),
        })
    }

    /// A second handle on the same socket, for split reader/writer
    /// threads. Refused while this handle holds buffered bytes the
    /// clone could not see.
    pub fn try_clone(&self) -> std::io::Result<Connection> {
        if !self.stream.buffer().is_empty() {
            return Err(std::io::Error::other(
                "connection holds buffered bytes; clone before reading past them",
            ));
        }
        Ok(Connection {
            stream: BufReader::new(self.stream.get_ref().try_clone()?),
        })
    }

    /// Bounds how long [`Connection::recv`] blocks.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        let socket = self.stream.get_mut();
        proto::write_frame(socket, frame)?;
        socket.flush()
    }

    /// Receives one frame.
    pub fn recv(&mut self) -> Result<Frame, ProtoError> {
        proto::read_frame(&mut self.stream)
    }

    /// Whether at least one byte is ready (or the peer closed), without
    /// consuming it — buffered bytes count. With a read timeout
    /// configured this is the idle poll of a reader loop: `Ok(false)`
    /// means the timeout elapsed with nothing to read and the caller
    /// can check its exit conditions without ever starting (and
    /// possibly truncating) a frame read.
    pub fn poll_ready(&self) -> std::io::Result<bool> {
        if !self.stream.buffer().is_empty() {
            return Ok(true);
        }
        let mut probe = [0u8; 1];
        match self.stream.get_ref().peek(&mut probe) {
            // 0 bytes peeked = the peer closed; report ready so the
            // next `recv` surfaces the clean `Eof`.
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Performs the `Hello` handshake, returning the tenant's engine
    /// parameters.
    pub fn hello(&mut self, tenant: &str) -> Result<EngineInfo, String> {
        self.send(&Frame::Hello {
            tenant: tenant.into(),
        })
        .map_err(|e| format!("send hello: {e}"))?;
        match self.recv().map_err(|e| format!("await hello ack: {e}"))? {
            Frame::HelloAck {
                tenant,
                m,
                eps,
                shards,
                seed,
                algorithm,
                inflight_limit,
            } => Ok(EngineInfo {
                tenant,
                m: m as usize,
                eps,
                shards: shards as usize,
                seed,
                algorithm,
                inflight_limit: inflight_limit as usize,
            }),
            Frame::Reject { code, detail, .. } => {
                Err(format!("hello rejected ({}): {detail}", code.as_str()))
            }
            other => Err(format!("unexpected reply to hello: {other:?}")),
        }
    }

    /// Drains the connection's tenant and returns its final summary,
    /// discarding any still-streaming frames that precede it.
    pub fn drain(&mut self) -> Result<crate::proto::TenantSummary, String> {
        self.send(&Frame::Drain)
            .map_err(|e| format!("send drain: {e}"))?;
        loop {
            match self.recv().map_err(|e| format!("await summary: {e}"))? {
                Frame::Summary(summary) => return Ok(summary),
                // Decisions, rejections, or transient retries for jobs
                // still in flight may legitimately arrive before the
                // summary.
                Frame::Decision(_)
                | Frame::Reject { .. }
                | Frame::Backpressure { .. }
                | Frame::Retry { .. } => {}
                other => return Err(format!("unexpected reply to drain: {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn buffered_frames_count_as_ready_and_block_cloning() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            // Two frames in one write: the first `recv` buffers both.
            let mut bytes = proto::encode_frame(&Frame::Retry { job: 1 });
            bytes.extend(proto::encode_frame(&Frame::Retry { job: 2 }));
            socket.write_all(&bytes).unwrap();
            socket
        });
        let mut conn = Connection::connect(addr).unwrap();
        let socket = peer.join().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(conn.recv().unwrap(), Frame::Retry { job: 1 });
        assert!(conn.poll_ready().unwrap(), "the buffered frame is ready");
        assert!(
            conn.try_clone().is_err(),
            "a clone would lose the buffered frame"
        );
        assert_eq!(conn.recv().unwrap(), Frame::Retry { job: 2 });
        assert!(
            !conn.poll_ready().unwrap(),
            "nothing buffered, nothing sent"
        );
        assert!(conn.try_clone().is_ok());
        drop(socket);
        assert!(conn.poll_ready().unwrap(), "a closed peer reads as ready");
        assert!(matches!(conn.recv(), Err(ProtoError::Eof)));
    }
}
