//! The benchmark's own keep-alive HTTP/1.1 client: one socket, one request
//! in flight, `content-length` framing only (all the product emits).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response head accepted.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Longest response body accepted (a `/metrics` page is the largest).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// A server silent for this long has failed the request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Response {
    pub status: u16,
    pub body: String,
}

pub struct Client {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    host: String,
}

fn bad_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(8 * 1024),
            host: addr.to_string(),
        })
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.host);
        self.stream.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(bad_data("response head too long"));
            }
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad_data("non-utf8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad_data("bad status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_data("bad content-length"))?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(bad_data("response body too long"));
        }
        let total = head_end + content_length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end..total].to_vec())
            .map_err(|_| bad_data("non-utf8 body"))?;
        self.buf.drain(..total);
        Ok(Response { status, body })
    }
}

/// Sums every series of `family` in a Prometheus text page (labels ignored).
pub fn metric_sum(page: &str, family: &str) -> f64 {
    page.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sum_adds_labelled_series_of_one_family() {
        let page = "# HELP x_total help\n# TYPE x_total counter\nx_total{pod=\"0\"} 3\n\
                    x_total{pod=\"1\"} 4\nx_total_more 100\ny 9\n";
        assert_eq!(metric_sum(page, "x_total"), 7.0);
        assert_eq!(metric_sum(page, "y"), 9.0);
        assert_eq!(metric_sum(page, "absent"), 0.0);
    }
}
