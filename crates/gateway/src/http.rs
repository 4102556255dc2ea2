//! A deliberately small HTTP/1.1 server-side codec over blocking
//! [`TcpStream`]s.
//!
//! The gateway speaks HTTP/1.1 persistent connections: a client may send
//! several requests over one socket, each answered in order, until it
//! asks for `Connection: close`, the server's per-connection request cap
//! is reached, or the idle/read timeout expires. The codec needs exactly
//! four wire features: reading a request head + `Content-Length` body
//! with hard size limits (preserving any pipelined bytes that arrive
//! behind the body for the next read), writing a fixed response with an
//! explicit `Connection:` disposition, and writing a `Transfer-Encoding:
//! chunked` streaming response (one chunk per sweep point, flushed as
//! produced, so a client sees results the moment each θ finishes).
//! Everything else — compression, TLS, `Expect: 100-continue` — is out
//! of scope for an offline toolkit service and intentionally absent.
//!
//! Every response head, fixed body and chunk is framed in memory by a
//! pure function (`frame_response`, `frame_chunk`) and leaves in **one**
//! `write_all`. The gateway sets `TCP_NODELAY` on its connections, so
//! each write is sent at once: split writes would each become their own
//! segment, and without `TCP_NODELAY` the second one would wait for the
//! client's delayed ACK (about 40 ms per keep-alive request).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body. Traces are the big payload: the paper
/// suite's largest text form is well under a megabyte, so 16 MiB leaves
/// room for scaled synthetic SoCs without letting a client balloon the
/// server.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`).
    pub method: String,
    /// Request path (`/synthesize`); query strings are not used.
    pub path: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// Case-insensitive header lookup.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] returned without a request.
#[derive(Debug)]
pub enum ReadOutcome {
    /// The peer closed (or the idle timeout fired) cleanly *between*
    /// requests — normal end of a persistent connection, nothing to
    /// answer.
    Closed,
    /// The connection died or timed out mid-request, or the bytes were
    /// not HTTP. The caller may still be able to answer `400`.
    Malformed(io::Error),
}

/// Reads one request from the stream.
///
/// `carry` holds bytes read past the previous request's body (pipelined
/// requests); it is consumed first and refilled with any overshoot from
/// this read, so back-to-back requests on one connection are never
/// dropped. Pass the same buffer for every request of a connection.
///
/// # Errors
///
/// [`ReadOutcome::Closed`] on a clean close before any byte of a new
/// request (EOF or read-timeout with an empty buffer);
/// [`ReadOutcome::Malformed`] for malformed heads, bodies exceeding the
/// size limits, non-UTF-8 payloads, or a connection lost mid-request.
pub fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<Request, ReadOutcome> {
    // Read until the blank line that ends the head, then top up the body.
    let mut buf = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(malformed("request head too large"));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    malformed("connection closed mid-request")
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) && buf.is_empty() => return Err(ReadOutcome::Closed),
            Err(e) => return Err(ReadOutcome::Malformed(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(malformed("malformed request line"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(malformed("request body too large"));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ReadOutcome::Malformed(e)),
        }
    }
    // Bytes past this body belong to the next pipelined request.
    *carry = body.split_off(content_length.min(body.len()));
    let body = String::from_utf8(body).map_err(|_| malformed("non-UTF-8 body"))?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn malformed(message: &str) -> ReadOutcome {
    ReadOutcome::Malformed(io::Error::new(
        io::ErrorKind::InvalidData,
        message.to_string(),
    ))
}

/// Whether a read error is a blocking-socket timeout (platform-dependent
/// kind: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// True when the peer has closed its end of `stream`: EOF (or a reset)
/// on a non-blocking `peek`. `peek`, not `read`, so pipelined request
/// bytes are left in the socket for the next [`read_request`]; a
/// would-block simply means the peer is quiet, not gone. The stream is
/// restored to blocking before returning.
#[must_use]
pub fn peer_closed(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,  // orderly EOF
        Ok(_) => false, // pipelined bytes; leave them in place
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            false
        }
        Err(_) => true, // reset etc.
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Frames a response head: status line, `Content-Type`, the framing
/// header line (`framing`, without CRLF), the `Connection:` disposition,
/// then each of `extra_headers` (verbatim `Name: value` lines, without
/// CRLF) and the blank line.
fn frame_head(
    status: u16,
    reason: &str,
    framing: &str,
    extra_headers: &[&str],
    keep_alive: bool,
) -> String {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         {framing}\r\nConnection: {connection}\r\n"
    );
    for line in extra_headers {
        head.push_str(line);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Frames a complete fixed-length response: the head with its
/// `Content-Length`, then `body`.
#[must_use]
pub(crate) fn frame_response(
    status: u16,
    reason: &str,
    body: &str,
    extra_headers: &[&str],
    keep_alive: bool,
) -> Vec<u8> {
    let head = frame_head(
        status,
        reason,
        &format!("Content-Length: {}", body.len()),
        extra_headers,
        keep_alive,
    );
    let mut framed = Vec::with_capacity(head.len() + body.len());
    framed.extend_from_slice(head.as_bytes());
    framed.extend_from_slice(body.as_bytes());
    framed
}

/// Frames one chunk of a chunked body: hex length, CRLF, data, CRLF.
/// Empty `data` frames to nothing — a zero-length chunk would end the
/// stream.
#[must_use]
pub(crate) fn frame_chunk(data: &str) -> String {
    if data.is_empty() {
        return String::new();
    }
    format!("{:x}\r\n{data}\r\n", data.len())
}

/// Writes a complete fixed-length response in one write.
///
/// `extra_headers` lines are verbatim `Name: value` pairs (no CRLF).
/// `keep_alive` picks the `Connection:` disposition; the caller closes
/// the socket after a `false`.
///
/// # Errors
///
/// Any socket error.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    extra_headers: &[&str],
    keep_alive: bool,
) -> io::Result<()> {
    stream.write_all(&frame_response(
        status,
        reason,
        body,
        extra_headers,
        keep_alive,
    ))
}

/// A `Transfer-Encoding: chunked` response in progress. Each
/// [`ChunkedWriter::chunk`] call sends one chunk to the client, so a
/// streaming route delivers results incrementally; [`ChunkedWriter::end`]
/// writes the terminating zero-length chunk (chunked framing is
/// self-delimiting, so the connection can stay alive afterwards).
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        extra_headers: &[&str],
        keep_alive: bool,
    ) -> io::Result<Self> {
        let head = frame_head(
            status,
            reason,
            "Transfer-Encoding: chunked",
            extra_headers,
            keep_alive,
        );
        stream.write_all(head.as_bytes())?;
        Ok(Self { stream })
    }

    /// Writes one chunk in one write; an empty `data` writes nothing.
    ///
    /// # Errors
    ///
    /// Any socket error — the caller treats a failure as "client went
    /// away" and cancels the work feeding this stream.
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        self.stream.write_all(frame_chunk(data).as_bytes())
    }

    /// Terminates the chunked stream.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn end(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")
    }

    /// Liveness probe between chunks: true when the client has gone away
    /// ([`peer_closed`]). A failed chunk *write* only surfaces at the
    /// next produced chunk — polling this while a slow sweep point is
    /// still solving lets the relay raise the request's cancel token
    /// promptly instead of burning the worker until the next θ finishes.
    #[must_use]
    pub fn client_gone(&self) -> bool {
        peer_closed(self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn serve_bytes(raw: &[u8]) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).expect("connect");
            out.write_all(&raw).expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        (stream, writer)
    }

    fn round_trip(raw: &[u8]) -> Result<Request, ReadOutcome> {
        let (mut stream, writer) = serve_bytes(raw);
        let mut carry = Vec::new();
        let request = read_request(&mut stream, &mut carry);
        writer.join().expect("writer thread");
        request
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            b"POST /synthesize HTTP/1.1\r\nHost: x\r\nX-Tenant: alice\r\n\
              Content-Length: 13\r\n\r\n{\"suite\":\"a\"}",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/synthesize");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-TENANT"), Some("alice"));
        assert_eq!(req.body, "{\"suite\":\"a\"}");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn rejects_truncated_requests() {
        assert!(matches!(
            round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadOutcome::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"garbage"),
            Err(ReadOutcome::Malformed(_))
        ));
    }

    #[test]
    fn clean_eof_between_requests_reads_as_closed() {
        assert!(matches!(round_trip(b""), Err(ReadOutcome::Closed)));
    }

    #[test]
    fn pipelined_requests_survive_in_the_carry_buffer() {
        let (mut stream, writer) = serve_bytes(
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\n\
              Content-Length: 3\r\n\r\ntwo",
        );
        let mut carry = Vec::new();
        let first = read_request(&mut stream, &mut carry).expect("first");
        assert_eq!((first.path.as_str(), first.body.as_str()), ("/a", "one"));
        let second = read_request(&mut stream, &mut carry).expect("second");
        assert_eq!((second.path.as_str(), second.body.as_str()), ("/b", "two"));
        assert!(carry.is_empty());
        writer.join().expect("writer thread");
    }

    #[test]
    fn keep_alive_response_frames_head_and_body_together() {
        let framed = frame_response(
            200,
            "OK",
            "{\"a\":1}\n",
            &["Retry-After: 1", "X-Request-Id: 7"],
            true,
        );
        assert_eq!(
            String::from_utf8(framed).expect("UTF-8"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
             Connection: keep-alive\r\nRetry-After: 1\r\nX-Request-Id: 7\r\n\r\n{\"a\":1}\n"
        );
    }

    #[test]
    fn close_response_announces_the_close() {
        let framed = frame_response(400, "Bad Request", "{}", &[], false);
        assert_eq!(
            String::from_utf8(framed).expect("UTF-8"),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }

    #[test]
    fn chunks_frame_as_hex_length_and_data() {
        let line = "{\"threshold\":0.1}\n";
        assert_eq!(frame_chunk(line), format!("12\r\n{line}\r\n"));
        assert_eq!(frame_chunk("x"), "1\r\nx\r\n");
        assert_eq!(frame_chunk(""), "");
    }

    #[test]
    fn chunked_writer_sends_head_chunks_and_terminator() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        let mut writer =
            ChunkedWriter::begin(&mut server, 200, "OK", &["X-Request-Id: 3"], true).expect("head");
        writer.chunk("ab").expect("chunk");
        writer.chunk("").expect("empty chunk");
        writer.chunk("c").expect("chunk");
        writer.end().expect("end");
        drop(server);
        let mut received = String::new();
        client.read_to_string(&mut received).expect("read");
        assert_eq!(
            received,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Transfer-Encoding: chunked\r\nConnection: keep-alive\r\nX-Request-Id: 3\r\n\r\n\
             2\r\nab\r\n1\r\nc\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn idle_timeout_before_a_request_reads_as_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let holder = TcpStream::connect(addr).expect("connect");
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(30)))
            .expect("timeout");
        let mut carry = Vec::new();
        assert!(matches!(
            read_request(&mut stream, &mut carry),
            Err(ReadOutcome::Closed)
        ));
        drop(holder);
    }
}
