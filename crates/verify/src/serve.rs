//! Serve-path differential fuzzing: the daemon must be a transparent
//! transport.
//!
//! The grammar fuzzer ([`crate::fuzz`]) checks the *optimizer* against
//! oracles inside one process. This module checks the *serving stack*:
//! the same deterministic (document, query) stream is executed twice —
//! once directly through [`Session`], once over a socket against a live
//! in-process `xqd` daemon (JSON framing, admission queue, worker pool,
//! hot catalog reload per cell) — and the answers are compared
//! byte-for-byte. Error cells must agree on the error *code*.
//!
//! Profile mapping: the [`FuzzProfile::Unordered`] stream runs under the
//! daemon's default `ordering: indifferent` against an in-process
//! [`QueryOptions::order_indifferent`] arm; the [`FuzzProfile::Ordered`]
//! stream is sent with `ordering: baseline` against
//! [`QueryOptions::baseline`]. Both arms of a cell always use identical
//! options, so any divergence is a serving-layer bug (framing, escaping,
//! snapshot swap, scheduling), never an optimizer disagreement.
//!
//! The **chaos arm** ([`ServeDiffConfig::chaos`]) additionally arms the
//! daemon's deterministic network failpoints (torn writes, trickled
//! frames, mid-frame disconnects, delayed reads) and swaps the raw
//! socket for the retrying [`exrquy_xqc::Client`]: the answers must
//! *still* be byte-for-byte identical, proving the client's retry loop
//! composes with the fault-injected transport without corrupting or
//! dropping a single cell. Panic failpoints are deliberately excluded
//! here — a contained panic answers `EXRQ0009`, which is a legitimate
//! server answer, not a transport fault, so it belongs to the panic
//! containment tests, not the transparency check.

use crate::fuzz::{cell_rng, gen_doc, gen_query, FuzzProfile, FUZZ_DOC_URL};
use exrquy::frontend::pretty;
use exrquy::{QueryOptions, Session};
use exrquy_diag::Failpoints;
use exrquy_xqc::{Client, ClientError, Config as XqcConfig, QueryOpts};
use exrquy_xqd::json::{obj, parse, Value};
use exrquy_xqd::{spawn, ServerConfig};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The failpoint spec the chaos arm arms on the daemon: every `net-*`
/// fault class, on mutually prime cadences so they interleave.
pub const CHAOS_NET_SPEC: &str =
    "net-torn-write:5,net-trickle:9,net-disconnect:17,net-slow-read:13";

/// Configuration of one serve-path differential run.
#[derive(Debug, Clone)]
pub struct ServeDiffConfig {
    /// Base seed; cells reuse [`cell_rng`], so iteration `i` under
    /// profile `p` generates *exactly* the query the in-process fuzzer
    /// would generate for the same (seed, i, p).
    pub seed: u64,
    pub iters: usize,
    pub profiles: Vec<FuzzProfile>,
    /// Intra-query worker threads for the daemon (0 = serial). The
    /// in-process arm always runs serial: parallel execution is
    /// byte-identical by contract, so this also cross-checks that.
    pub threads: usize,
    /// Arm [`CHAOS_NET_SPEC`] on the daemon and drive the socket arm
    /// through the retrying `xqc` client instead of a raw socket.
    pub chaos: bool,
}

impl Default for ServeDiffConfig {
    fn default() -> Self {
        ServeDiffConfig {
            seed: 42,
            iters: 100,
            profiles: vec![FuzzProfile::Ordered, FuzzProfile::Unordered],
            threads: 0,
            chaos: false,
        }
    }
}

/// One cell where the socket answer disagreed with direct execution.
#[derive(Debug, Clone)]
pub struct ServeDivergence {
    pub iteration: usize,
    pub profile: FuzzProfile,
    pub query: String,
    /// What direct [`Session`] execution produced (result or `code`).
    pub direct: String,
    /// What came back over the socket (result or `code: message`).
    pub served: String,
}

/// Outcome of a serve-path differential run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub seed: u64,
    pub cells: usize,
    /// Cells where both arms agreed (same bytes, or same error code).
    pub matched: usize,
    /// Cells the daemon shed (`EXRQ0006/7/8`) — legal under load, so
    /// not a divergence, but they carry no signal either.
    pub skipped: usize,
    /// Client-side retries spent recovering injected transport faults
    /// (always 0 without [`ServeDiffConfig::chaos`]).
    pub retries: u64,
    pub divergences: Vec<ServeDivergence>,
}

impl ServeReport {
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve-fuzz seed {}: {} cells, {} matched, {} skipped, {} divergences, {} retries",
            self.seed,
            self.cells,
            self.matched,
            self.skipped,
            self.divergences.len(),
            self.retries,
        )?;
        for d in &self.divergences {
            write!(
                f,
                "\n  iter {} [{}]\n    query:  {}\n    direct: {}\n    served: {}",
                d.iteration, d.profile, d.query, d.direct, d.served
            )?;
        }
        Ok(())
    }
}

/// How one arm of a cell ended: a rendered result, or an error code.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Arm {
    Result(String),
    Error(String),
    /// Daemon-side shed (overload/deadline/drain) — never a divergence.
    Shed,
}

/// The socket arm's transport: a raw blocking socket in the default
/// mode (any transport hiccup is a harness bug and panics), or the
/// retrying `xqc` client when chaos is armed (transport faults are the
/// point; only an *unrecovered* one panics).
enum Wire {
    Raw {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
    Retrying(Box<Client>),
}

impl Wire {
    fn load(&mut self, id: i64, url: &str, xml: &str) -> Result<(), String> {
        match self {
            Wire::Raw { writer, reader } => {
                let resp = roundtrip(
                    writer,
                    reader,
                    obj(vec![
                        ("id", Value::Int(id)),
                        ("op", Value::Str("load".into())),
                        ("url", Value::Str(url.into())),
                        ("xml", Value::Str(xml.into())),
                    ]),
                );
                if resp.get("ok") == Some(&Value::Bool(true)) {
                    Ok(())
                } else {
                    Err(resp.render())
                }
            }
            Wire::Retrying(client) => client.load(url, xml).map_err(|e| e.to_string()),
        }
    }

    fn query(&mut self, id: i64, query: &str, baseline: bool) -> Arm {
        match self {
            Wire::Raw { writer, reader } => {
                let mut req = vec![
                    ("id", Value::Int(id)),
                    ("op", Value::Str("query".into())),
                    ("query", Value::Str(query.into())),
                ];
                if baseline {
                    req.push(("ordering", Value::Str("baseline".into())));
                }
                let resp = roundtrip(writer, reader, obj(req));
                if resp.get("ok") == Some(&Value::Bool(true)) {
                    Arm::Result(
                        resp.get("result")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                } else {
                    match resp.get("code").and_then(Value::as_str) {
                        Some(code) if code.starts_with("EXRQ000") => Arm::Shed,
                        Some(code) => Arm::Error(code.to_string()),
                        None => Arm::Error(format!("untyped failure: {}", resp.render())),
                    }
                }
            }
            Wire::Retrying(client) => {
                let opts = QueryOpts {
                    baseline,
                    ..QueryOpts::default()
                };
                match client.query_with(query, &opts) {
                    Ok(result) => Arm::Result(result),
                    Err(ClientError::Server { code, .. })
                        if code.as_str().starts_with("EXRQ000") =>
                    {
                        Arm::Shed
                    }
                    Err(ClientError::Server { code, .. }) => Arm::Error(code.as_str().to_string()),
                    // An unrecovered transport/protocol failure under
                    // bounded, deterministic chaos is a client bug.
                    Err(e) => panic!("chaos serve-diff: unrecovered failure: {e}"),
                }
            }
        }
    }

    fn retries(&self) -> u64 {
        match self {
            Wire::Raw { .. } => 0,
            Wire::Retrying(client) => client.stats().retries,
        }
    }
}

/// Run the serve-path differential fuzzer against a freshly spawned
/// in-process daemon. Panics on transport failures (connect, framing):
/// those are harness bugs, not divergences.
pub fn run_serve_diff(cfg: &ServeDiffConfig) -> ServeReport {
    let server = spawn(
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            threads: cfg.threads,
            failpoints: if cfg.chaos {
                Failpoints::parse(CHAOS_NET_SPEC).expect("chaos spec parses")
            } else {
                Failpoints::default()
            },
            ..ServerConfig::default()
        },
        Session::new(),
    )
    .expect("spawn in-process daemon for serve-diff");
    let mut wire = if cfg.chaos {
        Wire::Retrying(Box::new(Client::connect(XqcConfig {
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            read_timeout: Duration::from_secs(120),
            jitter_seed: cfg.seed,
            ..XqcConfig::new(server.addr().to_string())
        })))
    } else {
        let stream = TcpStream::connect(server.addr()).expect("connect to serve-diff daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Wire::Raw {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    };

    let mut report = ServeReport {
        seed: cfg.seed,
        cells: 0,
        matched: 0,
        skipped: 0,
        retries: 0,
        divergences: Vec::new(),
    };

    for i in 0..cfg.iters {
        for &profile in &cfg.profiles {
            report.cells += 1;
            let mut rng = cell_rng(cfg.seed, i, profile);
            let doc = gen_doc(&mut rng);
            let query = pretty(&gen_query(&mut rng, profile));
            let opts = match profile {
                // The daemon's two ordering modes, not the fuzz
                // profiles' oracle options: both arms must run the
                // exact same configuration.
                FuzzProfile::Unordered => QueryOptions::order_indifferent(),
                FuzzProfile::Ordered => QueryOptions::baseline(),
            };

            // Direct arm: a fresh session per cell, like the fuzzer.
            let mut session = Session::new();
            if session.load_document(FUZZ_DOC_URL, &doc).is_err() {
                report.skipped += 1;
                continue;
            }
            let direct = match session.query_with(&query, &opts) {
                Ok(out) => Arm::Result(out.to_xml()),
                Err(e) => Arm::Error(e.code().as_str().to_string()),
            };

            // Served arm: hot-reload the document (exercising the
            // snapshot swap every cell), then query over the wire.
            if let Err(failure) = wire.load((i as i64) * 2, FUZZ_DOC_URL, &doc) {
                // The direct arm loaded this exact document above.
                report.divergences.push(ServeDivergence {
                    iteration: i,
                    profile,
                    query,
                    direct: "document loads".to_string(),
                    served: format!("load failed: {failure}"),
                });
                continue;
            }
            let served = wire.query(
                (i as i64) * 2 + 1,
                &query,
                matches!(profile, FuzzProfile::Ordered),
            );

            match (&direct, &served) {
                (_, Arm::Shed) => report.skipped += 1,
                (a, b) if a == b => report.matched += 1,
                _ => report.divergences.push(ServeDivergence {
                    iteration: i,
                    profile,
                    query,
                    direct: arm_text(&direct),
                    served: arm_text(&served),
                }),
            }
        }
    }

    report.retries = wire.retries();
    drop(wire);
    let stats = server.shutdown();
    assert_eq!(stats.queue_depth, 0, "serve-diff drain left work queued");
    report
}

fn arm_text(arm: &Arm) -> String {
    match arm {
        Arm::Result(s) => format!("result `{s}`"),
        Arm::Error(c) => format!("error {c}"),
        Arm::Shed => "shed".to_string(),
    }
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: Value) -> Value {
    let line = req.render();
    writer.write_all(line.as_bytes()).expect("write request");
    writer.write_all(b"\n").expect("write newline");
    writer.flush().expect("flush request");
    let mut resp = String::new();
    let n = reader.read_line(&mut resp).expect("read response");
    assert!(n > 0, "daemon closed the connection mid-run");
    parse(resp.trim_end()).expect("daemon emitted invalid json")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short run is deterministic and clean: the daemon transports the
    /// exact bytes direct execution produces, for every generated cell.
    #[test]
    fn serve_path_agrees_with_direct_execution() {
        let cfg = ServeDiffConfig {
            seed: 7,
            iters: 12,
            ..ServeDiffConfig::default()
        };
        let a = run_serve_diff(&cfg);
        assert!(a.clean(), "{a}");
        assert_eq!(a.cells, 24);
        assert!(a.matched > 0, "{a}");
        let b = run_serve_diff(&cfg);
        assert_eq!(a.to_string(), b.to_string());
    }

    /// The parallel daemon (threads > 0) stays byte-identical to serial
    /// direct execution — the serving layer composes with the
    /// morsel-parallel determinism contract.
    #[test]
    fn parallel_serve_path_is_byte_identical_to_serial() {
        let report = run_serve_diff(&ServeDiffConfig {
            seed: 11,
            iters: 8,
            threads: 2,
            ..ServeDiffConfig::default()
        });
        assert!(report.clean(), "{report}");
    }

    /// With every network fault armed and the retrying client in the
    /// loop, the serve path is *still* byte-for-byte transparent — and
    /// deterministically so, because the faults are count-based and the
    /// retry jitter is seeded.
    #[test]
    fn chaos_serve_path_stays_byte_identical_through_injected_faults() {
        let cfg = ServeDiffConfig {
            seed: 7,
            iters: 10,
            chaos: true,
            ..ServeDiffConfig::default()
        };
        let a = run_serve_diff(&cfg);
        assert!(a.clean(), "{a}");
        assert!(
            a.retries >= 1,
            "40+ frames through a disconnect-every-17th transport \
             must have needed retries: {a}"
        );
        let b = run_serve_diff(&cfg);
        assert_eq!(a.to_string(), b.to_string(), "chaos run is deterministic");
    }
}
