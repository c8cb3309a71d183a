//! End-to-end `gdp serve` exercises over a real TCP socket.
//!
//! The acceptance gate of the cache-answering service:
//!
//! * the **cache proof over the wire** — the default 24-cell spec submitted
//!   twice to one running server yields byte-identical cell payloads, with
//!   the second pass served entirely from the store (`reused == cells`,
//!   `computed == 0`) and a summary digest the client can re-derive from
//!   the stream it received;
//! * the **kill -9 / restart cycle** — a server SIGKILLed mid-sweep loses
//!   at most the cells in flight; a fresh server on the same store resumes
//!   (cells already streamed come back as hits) with **zero quarantines**
//!   from the dead server's own scratch files, which the restart sweeps;
//! * the **request-line cap** — a client that never sends `\n` gets one
//!   non-retryable error and is disconnected, and the server keeps serving
//!   fresh connections;
//! * the **connection cap** — past `MAX_CONNECTIONS` open connections a new
//!   one gets one retryable error, and once one closes a fresh one is
//!   served;
//! * **SIGTERM on an idle server** — the accept loop blocks in the kernel,
//!   and a signal must still drain it and exit 0;
//! * the **once-per-server temp sweep** — a foreign scratch file survives
//!   requests and is swept by the next server start.

use gdp_scenarios::{stable_digest64, DEFAULT_MAX_STATES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The stock 24-cell grid with a test-sized budget (the default 20 x 40 000
/// would dominate the suite's runtime without proving anything extra).
const SWEEP_REQUEST: &str = r#"{"type": "sweep", "trials": 3, "steps": 8000}"#;
const CELLS: u64 = 24;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp_serve_socket_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `gdp serve` child plus a connected client.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    client: TcpStream,
    responses: BufReader<TcpStream>,
}

impl Server {
    /// Spawns `gdp serve` on a free port over `store`, waits for the
    /// `listening` line, and connects.
    fn start(store: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gdp"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                &store.to_string_lossy(),
                "--workers",
                "2",
                "--queue",
                "64",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve child spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"));
        let client = TcpStream::connect(addr).expect("connect to serve");
        client
            .set_read_timeout(Some(Duration::from_secs(300)))
            .unwrap();
        let responses = BufReader::new(client.try_clone().unwrap());
        Server {
            child,
            stdout,
            client,
            responses,
        }
    }

    fn send(&mut self, request: &str) {
        self.client.write_all(request.as_bytes()).unwrap();
        self.client.write_all(b"\n").unwrap();
        self.client.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.responses.read_line(&mut line).expect("response line");
        assert!(!line.is_empty(), "server closed the stream unexpectedly");
        line.trim_end().to_string()
    }

    /// Reads one full sweep response: (cell lines in order, summary line).
    fn read_sweep(&mut self) -> (Vec<String>, String) {
        let start = self.read_line();
        assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
        let mut cells = Vec::new();
        loop {
            let line = self.read_line();
            if line.contains("\"type\":\"summary\"") {
                return (cells, line);
            }
            assert!(line.contains("\"type\":\"cell\""), "{line}");
            cells.push(line);
        }
    }

    /// A fresh connection to the server, with a read timeout.
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.client.peer_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    /// Sends `shutdown`, expects `bye`, and asserts the graceful exit 0.
    fn shutdown(mut self) {
        self.send("{\"type\": \"shutdown\"}");
        assert_eq!(self.read_line(), "{\"type\":\"bye\"}");
        let status = self.child.wait().expect("serve child exits");
        assert!(
            status.success(),
            "graceful shutdown must exit 0, got {status:?}"
        );
        // The drain banner is part of the contract (workers finished).
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("gdp serve stopped"), "{rest}");
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    let tagged = format!("\"{key}\":");
    let rest = &line[line
        .find(&tagged)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tagged.len()..];
    rest.trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Every `*.tmp.*` scratch file under `dir` (recursively).
fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(tmp_files(&path));
        } else if path.to_string_lossy().contains(".tmp.") {
            found.push(path);
        }
    }
    found
}

/// Sends one request line on `stream` and reads one response line.
fn request_once(mut stream: &TcpStream, request: &str) -> std::io::Result<String> {
    stream.write_all(format!("{request}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// Waits for `child` to exit, failing after `limit`.
fn wait_within(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("the server did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn quarantine_count(store: &Path) -> usize {
    std::fs::read_dir(store.join("quarantine")).map_or(0, |entries| entries.count())
}

#[test]
fn second_submission_is_served_entirely_from_the_store_byte_for_byte() {
    let work = temp_dir("cache_proof");
    let store = work.join("store");
    let mut server = Server::start(&store);

    // Cold pass: the full default grid computes.
    server.send(SWEEP_REQUEST);
    let (first_cells, first_summary) = server.read_sweep();
    assert_eq!(first_cells.len() as u64, CELLS);
    assert_eq!(field_u64(&first_summary, "cells"), CELLS);
    assert_eq!(field_u64(&first_summary, "computed"), CELLS);
    assert_eq!(field_u64(&first_summary, "reused"), 0);

    // Warm pass: reused == cells, computed == 0, payloads byte-identical.
    server.send(SWEEP_REQUEST);
    let (second_cells, second_summary) = server.read_sweep();
    assert_eq!(field_u64(&second_summary, "reused"), CELLS);
    assert_eq!(field_u64(&second_summary, "computed"), 0);
    assert_eq!(field_u64(&second_summary, "quarantined"), 0);
    for (position, (first, second)) in first_cells.iter().zip(&second_cells).enumerate() {
        assert!(second.contains("\"source\":\"store\""), "{second}");
        assert_eq!(
            first.replace("\"source\":\"computed\"", "\"source\":\"store\""),
            *second,
            "cell payload at position {position} must be byte-identical"
        );
    }

    // The summary digest is re-derivable from the received stream.
    let mut streamed = String::new();
    for line in &second_cells {
        streamed.push_str(line);
        streamed.push('\n');
    }
    let digest = format!(
        "\"digest\":\"{:016x}\"",
        stable_digest64(streamed.as_bytes())
    );
    assert!(second_summary.contains(&digest), "{second_summary}");

    // The metrics endpoint saw both passes.
    server.send("{\"type\": \"metrics\"}");
    let metrics = server.read_line();
    assert!(metrics.contains("\"type\":\"metrics\""), "{metrics}");
    assert_eq!(field_u64(&metrics, "serve.store_hits"), CELLS);
    assert_eq!(field_u64(&metrics, "serve.cells_computed"), CELLS);
    assert_eq!(field_u64(&metrics, "serve.cells_streamed"), 2 * CELLS);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn an_unterminated_oversized_request_is_rejected_and_the_server_keeps_serving() {
    let work = temp_dir("oversized");
    let server = Server::start(&work.join("store"));
    let addr = server.client.peer_addr().unwrap();
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    };

    let mut flood = connect();
    flood
        .write_all(&vec![b'x'; gdp_serve::protocol::MAX_REQUEST_BYTES + 1])
        .unwrap();
    let mut responses = BufReader::new(flood);
    let mut error = String::new();
    responses.read_line(&mut error).unwrap();
    assert!(error.contains("\"type\":\"error\""), "{error}");
    assert!(error.contains("\"retryable\":false"), "{error}");
    let mut rest = String::new();
    responses.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "the server closes the flooding connection");

    let mut fresh = connect();
    fresh.write_all(b"{\"type\": \"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(fresh).read_line(&mut pong).unwrap();
    assert_eq!(pong.trim_end(), "{\"type\":\"pong\"}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

/// The two exact-check limits over the wire: a budget above the CLI
/// default is refused before any store work, and a cell with more
/// philosophers than the checker supports fails with the checker's reason
/// in place of its cell line while the worker that computed it survives.
/// Each failure is one non-retryable `error` line, and the connection keeps
/// serving.
#[test]
fn exact_check_limits_answer_one_error_line_each() {
    let work = temp_dir("exact_limits");
    let mut server = Server::start(&work.join("store"));

    server.send(&format!(
        "{{\"type\": \"sweep\", \"exact_check\": {}}}",
        DEFAULT_MAX_STATES + 1
    ));
    let error = server.read_line();
    assert!(error.contains("\"retryable\":false"), "{error}");
    assert!(error.contains("exceeds the server's limit"), "{error}");
    server.send("{\"type\": \"ping\"}");
    assert_eq!(server.read_line(), "{\"type\":\"pong\"}");

    let oversized = "{\"type\": \"sweep\", \"families\": \"ring\", \"sizes\": \"70\", \
         \"algorithms\": \"gdp1\", \"trials\": 1, \"steps\": 200, \"exact_check\": 100}";
    for _ in 0..2 {
        // Twice: a panicking check would have killed one of the two
        // workers, and the second request would find a dead pool.
        server.send(oversized);
        let start = server.read_line();
        assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
        let error = server.read_line();
        assert!(error.contains("\"retryable\":false"), "{error}");
        assert!(error.contains("ring/n70/GDP1"), "{error}");
        assert!(error.contains("support at most 64"), "{error}");
    }
    server.send("{\"type\": \"ping\"}");
    assert_eq!(server.read_line(), "{\"type\":\"pong\"}");

    server.send("{\"type\": \"metrics\"}");
    let metrics = server.read_line();
    assert_eq!(field_u64(&metrics, "serve.budget_rejections"), 1);
    assert_eq!(field_u64(&metrics, "serve.cells_computed"), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_sigkilled_server_resumes_from_its_store_without_quarantines() {
    let work = temp_dir("kill9");
    let store = work.join("store");
    let mut server = Server::start(&store);

    // Start the sweep and wait for some cells to stream (each streamed
    // cell was saved to the store before it was emitted), then SIGKILL the
    // server mid-sweep — no drain, no cleanup.
    server.send(SWEEP_REQUEST);
    let start = server.read_line();
    assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
    let mut streamed = 0u64;
    while streamed < 6 {
        let line = server.read_line();
        if line.contains("\"type\":\"cell\"") {
            streamed += 1;
        }
    }
    server.child.kill().expect("SIGKILL serve");
    let _ = server.child.wait();

    // A fresh server on the same store resumes: everything already
    // persisted comes back as a hit, nothing the dead server left behind
    // (scratch files included) quarantines.
    let mut server = Server::start(&store);
    server.send(SWEEP_REQUEST);
    let (cells, summary) = server.read_sweep();
    assert_eq!(cells.len() as u64, CELLS);
    let reused = field_u64(&summary, "reused");
    let computed = field_u64(&summary, "computed");
    assert!(
        reused >= streamed,
        "at least the {streamed} streamed cells must resume as hits, got {reused}"
    );
    assert_eq!(reused + computed, CELLS, "{summary}");
    assert_eq!(
        field_u64(&summary, "quarantined"),
        0,
        "the server's own scratch files must never quarantine: {summary}"
    );
    assert_eq!(quarantine_count(&store), 0);
    assert_eq!(
        tmp_files(&store),
        Vec::<PathBuf>::new(),
        "restart must sweep stale scratch files"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn connections_past_the_cap_get_a_retryable_error_until_one_closes() {
    let work = temp_dir("conn_cap");
    let mut server = Server::start(&work.join("store"));
    // The server's own client holds one slot; fill the rest, each answered
    // once so it is known to be accepted before the next connects.
    let mut idle: Vec<TcpStream> = Vec::new();
    for _ in 1..gdp_serve::MAX_CONNECTIONS {
        let stream = server.connect();
        assert_eq!(
            request_once(&stream, "{\"type\": \"ping\"}").unwrap(),
            "{\"type\":\"pong\"}"
        );
        idle.push(stream);
    }

    let mut responses = BufReader::new(server.connect());
    let mut error = String::new();
    responses.read_line(&mut error).unwrap();
    assert!(error.contains("\"type\":\"error\""), "{error}");
    assert!(error.contains("\"retryable\":true"), "{error}");
    let mut rest = String::new();
    responses.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "the server closes a connection past the cap");

    // Once one connection closes, a retrying client gets served.  A retry
    // that is still rejected reads the error line, or a reset if the server
    // closed it with the ping unread.
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match request_once(&server.connect(), "{\"type\": \"ping\"}") {
            Ok(answer) if answer == "{\"type\":\"pong\"}" => break,
            Ok(answer) => assert!(answer.contains("\"retryable\":true"), "{answer}"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "{e}"
            ),
        }
        assert!(Instant::now() < deadline, "no slot freed up");
        std::thread::sleep(Duration::from_millis(20));
    }

    server.send("{\"type\": \"metrics\"}");
    let metrics = server.read_line();
    assert!(
        field_u64(&metrics, "serve.connection_rejections") >= 1,
        "{metrics}"
    );
    drop(idle);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn sigterm_drains_an_idle_server_and_exits_zero() {
    let work = temp_dir("sigterm");
    let mut server = Server::start(&work.join("store"));
    server.send("{\"type\": \"ping\"}");
    // The answered ping means the accept loop has handed the connection
    // off and is back in its blocking accept.
    assert_eq!(server.read_line(), "{\"type\":\"pong\"}");

    let pid = server.child.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success());
    let status = wait_within(&mut server.child, Duration::from_secs(10));
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
    let mut rest = String::new();
    server.stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("gdp serve stopped:"), "{rest}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn stale_temp_files_are_swept_once_per_server_start() {
    let work = temp_dir("sweep_once");
    let store = work.join("store");
    let request = r#"{"type": "sweep", "families": "ring", "sizes": "4", "algorithms": "gdp1", "trials": 2, "steps": 2000}"#;
    let mut server = Server::start(&store);
    server.send(request);
    let (_, summary) = server.read_sweep();
    assert_eq!(field_u64(&summary, "computed"), 1, "{summary}");

    // A scratch file of a writer in another process: requests leave it be.
    let foreign = store.join("cells").join("x.tmp.999999.0");
    std::fs::write(&foreign, b"half a record").unwrap();
    server.send(request);
    let (_, summary) = server.read_sweep();
    assert_eq!(field_u64(&summary, "reused"), 1, "{summary}");
    assert!(foreign.exists(), "a request must not sweep the store");
    server.shutdown();

    // The next server start sweeps it.
    let server = Server::start(&store);
    assert!(
        !foreign.exists(),
        "a server start must sweep stale scratch files"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}
