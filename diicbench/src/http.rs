//! The service under test on loopback, and a minimal HTTP/1.1 client.
//!
//! [`Server::start`] runs `axum::serve` on `127.0.0.1:0` in a thread;
//! [`Server::stop`] shuts the listening socket down, which makes the
//! accept loop return, and joins the thread.

use axum::{Router, ServeOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;

extern "C" {
    fn shutdown(fd: std::os::raw::c_int, how: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// `SHUT_RDWR` from `<sys/socket.h>`.
const SHUT_RDWR: std::os::raw::c_int = 2;

/// A running server.
pub struct Server {
    /// Where it listens.
    pub addr: SocketAddr,
    /// A second handle on the listening socket, kept to shut it down.
    control: TcpListener,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Serves `router` on an ephemeral loopback port.
    pub fn start(router: Router) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let control = listener.try_clone()?;
        let thread =
            std::thread::spawn(move || axum::serve(listener, router, ServeOptions::default()));
        Ok(Server {
            addr,
            control,
            thread,
        })
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// accepted finish on their own threads.
    pub fn stop(self) -> Result<(), String> {
        // SAFETY: `control` owns a valid open socket descriptor for the
        // whole call; shutdown(2) reads no memory of ours.
        let rc = unsafe { shutdown(self.control.as_raw_fd(), SHUT_RDWR) };
        if rc != 0 {
            return Err(format!(
                "shutdown of the listening socket failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        match self.thread.join() {
            Ok(_) => Ok(()),
            Err(_) => Err("the accept loop panicked".into()),
        }
    }
}

/// One request on a fresh connection (the server closes every
/// connection after its response); returns the status and body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut msg = Vec::with_capacity(head.len() + body.len());
    msg.extend_from_slice(head.as_bytes());
    msg.extend_from_slice(body);
    conn.write_all(&msg)?;
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)?;
    parse_response(&reply)
}

fn parse_response(reply: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&reply[..split]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response without a status code"))?;
    Ok((status, reply[split + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_round_trip_and_stop() {
        let app = diic_api::App::new(diic_api::RegistryConfig::default());
        let server = Server::start(diic_api::router(app)).unwrap();
        let (status, body) = request(server.addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("ok"));
        let addr = server.addr;
        server.stop().unwrap();
        assert!(request(addr, "GET", "/healthz", b"").is_err());
    }
}
