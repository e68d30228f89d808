//! Hand-rolled HTTP/1.1, just enough for the service layer: parse one
//! request (request line, headers, `Content-Length` body), write one
//! response. No chunked encoding, no TLS, no HTTP/2 — clients are the
//! bundled load generator, tests, and `curl`.
//!
//! Framing is strict, because a body read wrong is the next request read
//! wrong: `Content-Length` is `1*DIGIT`, repeated `Content-Length` headers
//! must agree, and a request carrying `Transfer-Encoding` is refused
//! rather than have its chunked body parsed as requests.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (a registered CSV); anything larger is
/// rejected before buffering.
const MAX_BODY: usize = 64 << 20;
/// Largest accepted request line / header line, its line end included.
pub const MAX_LINE: usize = 64 << 10;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/query`).
    pub path: String,
    /// `key=value` pairs from the query string, in order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First query-string value for `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy — SQL and CSV are expected).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read one request off the stream. `Ok(None)` means the client closed
/// the connection cleanly before sending another request (the normal end
/// of a keep-alive conversation). Every malformed request is an
/// `InvalidData` error, and input that ends inside a request an
/// `InvalidData` (in the head) or `UnexpectedEof` (in the body) one.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if read_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let (method, target, version) = {
        let mut parts = line.trim_end().splitn(3, ' ');
        (
            parts.next().unwrap_or("").to_ascii_uppercase(),
            parts.next().unwrap_or("").to_string(),
            parts.next().unwrap_or("").to_string(),
        )
    };
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad("malformed request line"));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        if read_line(reader, &mut line)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT`: `usize::from_str` alone would take a sign.
            let length = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| bad("bad Content-Length"))?;
            if content_length.is_some_and(|earlier| earlier != length) {
                return Err(bad("conflicting Content-Length headers"));
            }
            if length > MAX_BODY {
                return Err(bad("request body too large"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad("Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    // Buffered as it arrives: a length announced is not yet a body sent.
    let content_length = content_length.unwrap_or(0);
    let mut body = Vec::with_capacity(content_length.min(1 << 20));
    reader
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect();

    Ok(Some(Request {
        method,
        path: percent_decode(path),
        query,
        body,
        keep_alive,
    }))
}

/// Write one response. `keep_alive` decides the `Connection:` header the
/// server advertises back (the caller then actually closes or not).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Bounded line read: a request or header line of more than `MAX_LINE`
/// bytes, its line end included, is refused before it is buffered.
fn read_line<R: BufRead>(reader: &mut R, out: &mut String) -> io::Result<usize> {
    let mut buf = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            break;
        }
        let (take, ends) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        if buf.len() + take > MAX_LINE {
            return Err(bad("header line too long"));
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if ends {
            break;
        }
    }
    out.push_str(&String::from_utf8_lossy(&buf));
    Ok(buf.len())
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits: `from_str_radix` alone would take
                // a sign for one (`"+5"` parses as 5).
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut &bytes[..])
    }

    fn refused(bytes: &[u8]) -> String {
        match read(bytes) {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                e.to_string()
            }
            Ok(r) => panic!("accepted {:?}", r.map(|r| r.body)),
        }
    }

    #[test]
    fn content_length_is_digits_only() {
        let ok = read(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(ok.unwrap().body, b"hello");
        for length in ["+5", "-0", "5 5", "0x5", "", "5,5", " +5"] {
            let head = format!("POST /q HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhello");
            assert_eq!(refused(head.as_bytes()), "bad Content-Length", "{length:?}");
        }
    }

    #[test]
    fn disagreeing_content_lengths_are_refused() {
        let head = b"POST /q HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(refused(head), "conflicting Content-Length headers");
        let agreeing = b"POST /q HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(read(agreeing).unwrap().unwrap().body, b"hello");
    }

    /// A chunked body read as the next request would answer bytes the
    /// client never sent as a request.
    #[test]
    fn transfer_encoding_is_refused() {
        let chunked = b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                        5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(refused(chunked), "Transfer-Encoding is not supported");
        let both =
            b"POST /q HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: identity\r\n\r\nhello";
        assert_eq!(refused(both), "Transfer-Encoding is not supported");
    }

    /// A line is bounded with its line end, however the reader's buffer
    /// splits it: one byte under, at and over `MAX_LINE`.
    #[test]
    fn header_lines_are_bounded_at_max_line() {
        for (len, accepted) in [
            (MAX_LINE - 1, true),
            (MAX_LINE, true),
            (MAX_LINE + 1, false),
        ] {
            let pad = "a".repeat(len - "X: \r\n".len());
            let head = format!("GET / HTTP/1.1\r\nX: {pad}\r\n\r\n");
            for capacity in [7, 8 << 10, len + 64] {
                let mut reader = io::BufReader::with_capacity(capacity, head.as_bytes());
                match read_request(&mut reader) {
                    Ok(Some(_)) => assert!(accepted, "{len} bytes, buffer {capacity}"),
                    Err(e) => {
                        assert!(!accepted, "{len} bytes, buffer {capacity}: {e}");
                        assert_eq!(e.to_string(), "header line too long");
                    }
                    Ok(None) => panic!("no request read"),
                }
            }
        }
    }

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("SELECT%3B"), "SELECT;");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // A sign is not a hex digit: the `%` stays, and decoding goes on
        // behind it (so the `+` is still a space).
        assert_eq!(percent_decode("a%+5"), "a% 5");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%%41"), "%A");
    }
}
