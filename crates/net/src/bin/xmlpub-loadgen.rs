//! `xmlpub-loadgen` — headless load harness and concurrent smoke test,
//! in-process or over TCP.
//!
//! ```text
//! # in-process closed loop:
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --scale 0.005 --workers 8 --clients 8 --iters 20 [--cold] [--verify]
//!
//! # open loop over a socket (spawns its own TCP server on `auto`):
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --connect auto --workers 2 --dop 2 --clients 4 --requests 200 \
//!     --rate 200 [--verify]
//!
//! # open loop against an already-running server:
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --connect 127.0.0.1:7878 --clients 4 --requests 200 --rate 200
//! ```
//!
//! `--update-mix R` adds writes: in-process, a fraction `R` of each
//! client's requests become update-then-republish operations through
//! the delta-maintained document path; in socket mode (`--connect
//! auto` only — the wire protocol has no update verb) a writer thread
//! churns the hosted server at `rate * R` updates/s while the query
//! load runs, and `--verify` then also checks the final document is
//! byte-identical to a full recompute.
//!
//! `--verify` is the differential mode CI runs: every socket answer must
//! be identical to a serial in-process execution over the same
//! (deterministic) TPC-H data — relations for the five Figure 8
//! queries, *byte-identical XML* for the published views — and the
//! metrics exposition must parse back and account for every request.
//! With `--connect auto` the run also drains the server it spawned and
//! exits non-zero unless the drain was clean (no aborted connections,
//! no lingering server threads past the deadline).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xmlpub::{Database, Error, MetricsSnapshot};
use xmlpub_net::{resolve_view, NetClient, NetConfig, NetServer};
use xmlpub_server::loadgen::{run_load, Arrival};
use xmlpub_server::{run_fig8_load, ChurnSource, LoadOptions, Server, ServerConfig};
use xmlpub_xml::workloads::figure8_workloads;

/// Report a failed check and exit non-zero.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Report a usage error and exit.
fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn num_arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(format!("{what} needs a number")))
}

struct Args {
    scale: f64,
    workers: usize,
    clients: usize,
    iters: usize,
    queue_depth: usize,
    warm: bool,
    verify: bool,
    connect: Option<String>,
    requests: usize,
    rate: f64,
    dop: Option<usize>,
    update_mix: f64,
}

fn main() {
    let mut a = Args {
        scale: 0.005,
        workers: 4,
        clients: 4,
        iters: 20,
        queue_depth: 64,
        warm: true,
        verify: false,
        connect: None,
        requests: 200,
        rate: 200.0,
        dop: None,
        update_mix: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => a.scale = num_arg(&mut args, "--scale"),
            "--workers" => a.workers = num_arg(&mut args, "--workers"),
            "--clients" => a.clients = num_arg(&mut args, "--clients"),
            "--iters" => a.iters = num_arg(&mut args, "--iters"),
            "--queue-depth" => a.queue_depth = num_arg(&mut args, "--queue-depth"),
            "--requests" => a.requests = num_arg(&mut args, "--requests"),
            "--rate" => a.rate = num_arg(&mut args, "--rate"),
            "--dop" => a.dop = Some(num_arg::<usize>(&mut args, "--dop").max(1)),
            "--update-mix" => {
                a.update_mix = num_arg::<f64>(&mut args, "--update-mix").clamp(0.0, 1.0)
            }
            "--connect" => {
                a.connect = Some(
                    args.next().unwrap_or_else(|| usage("--connect needs an address (or 'auto')")),
                )
            }
            "--cold" => a.warm = false,
            "--verify" => a.verify = true,
            other => usage(format!(
                "unknown argument '{other}'\nusage: xmlpub-loadgen [--scale F] [--workers N] \
                 [--clients N] [--iters N] [--queue-depth N] [--cold] [--verify] \
                 [--connect ADDR|auto] [--requests N] [--rate R] [--dop N] [--update-mix R]"
            )),
        }
    }
    match &a.connect {
        Some(target) => socket_mode(&a, target),
        None => in_process_mode(&a),
    }
}

fn tpch(scale: f64) -> Database {
    Database::tpch(scale).unwrap_or_else(|e| fail(format!("generate TPC-H: {e}")))
}

/// The server this process hosts: deterministic TPC-H behind the
/// requested pool, `--dop` as the session default when given.
fn host(a: &Args) -> Server {
    eprintln!("generating TPC-H at scale {}...", a.scale);
    let db = tpch(a.scale);
    let mut defaults = db.config();
    if let Some(dop) = a.dop {
        defaults.engine.dop = dop;
    }
    let config = ServerConfig {
        workers: a.workers,
        queue_depth: a.queue_depth,
        defaults,
        ..ServerConfig::default()
    };
    Server::new(db, config)
}

/// The server's exposition, parsed back — `--verify` fails the run if it
/// does not parse.
fn parsed_metrics(server: &Server) -> MetricsSnapshot {
    xmlpub::parse_text(&server.metrics_text())
        .unwrap_or_else(|e| fail(format!("METRICS: exposition does not parse: {e}")))
}

// ---------------------------------------------------------------------
// Socket mode: open-loop load (and differential verify) over TCP.

fn socket_mode(a: &Args, target: &str) {
    // `auto`: host the server ourselves on an ephemeral localhost port —
    // the single-command shape the CI net-smoke job runs.
    let hosted = (target == "auto").then(|| {
        let server = Arc::new(host(a));
        let net = NetServer::start(Arc::clone(&server), NetConfig::default())
            .unwrap_or_else(|e| fail(format!("start TCP server: {e}")));
        eprintln!(
            "serving on {} ({} workers, dop cap {}, queue depth {})",
            net.local_addr(),
            a.workers,
            server.stats().dop_cap,
            a.queue_depth
        );
        (server, net)
    });
    let addr = match &hosted {
        Some((_, net)) => net.local_addr(),
        None => target
            .parse()
            .unwrap_or_else(|_| usage(format!("--connect: '{target}' is not a socket address"))),
    };

    if a.verify {
        verify_socket_differential(addr, a.scale);
    }

    // `--update-mix` in socket mode: a writer thread churns the hosted
    // server's database and republishes the Figure 1 view while the
    // open-loop query load runs over TCP. The wire protocol has no
    // update verb, so this only works for the server we host ourselves.
    if a.update_mix > 0.0 && hosted.is_none() {
        usage("--update-mix needs --connect auto (the writer mutates the hosted server)");
    }
    let writer = hosted.as_ref().filter(|_| a.update_mix > 0.0).map(|(server, _)| {
        let server = Arc::clone(server);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // Offered write rate rides the query rate: `rate * update_mix`
        // updates per second, each followed by a republish.
        let interval = Duration::from_secs_f64(1.0 / (a.rate * a.update_mix).max(1.0));
        let handle = std::thread::spawn(move || -> Result<(u64, u64), String> {
            let churn = ChurnSource::default();
            let view = resolve_view(server.database(), "supplier_parts")
                .map_err(|e| format!("resolve view: {e}"))?;
            let mut session = server.session();
            session.republish(&view, false).map_err(|e| format!("warm republish: {e}"))?;
            let (mut updates, mut incremental) = (0u64, 0u64);
            while !stop_flag.load(Ordering::Relaxed) {
                churn.mutate_one(&server).map_err(|e| format!("update: {e}"))?;
                match session.republish(&view, false) {
                    Ok((_, outcome)) => {
                        updates += 1;
                        incremental += u64::from(outcome.is_incremental());
                    }
                    // Shed under load: the delta stays queued for the
                    // next round trip, nothing is lost.
                    Err(Error::Busy(_)) => {}
                    Err(e) => return Err(format!("republish: {e}")),
                }
                std::thread::sleep(interval);
            }
            Ok((updates, incremental))
        });
        (stop, handle)
    });

    let options = LoadOptions {
        clients: a.clients,
        requests: a.requests,
        arrival: Arrival::Open { rate_per_sec: a.rate },
        warm: a.warm,
        update_mix: 0.0,
    };
    match run_load(|| NetClient::connect(addr), options) {
        Ok(report) => println!("{report}"),
        Err(e) => fail(format!("socket load run failed: {e}")),
    }

    if let Some((stop, handle)) = writer {
        stop.store(true, Ordering::Relaxed);
        let (updates, incremental) = handle
            .join()
            .expect("writer thread panicked")
            .unwrap_or_else(|e| fail(format!("WRITER: {e}")));
        println!("writer: {updates} update+republish ops, {incremental} incremental");
        if a.verify {
            let (server, _) = hosted.as_ref().expect("writer implies hosted");
            verify_republish_differential(server, updates, incremental);
        }
    }

    if let Some((server, net)) = hosted {
        if a.verify {
            verify_net_metrics(&server, a.requests as u64);
        }
        println!("{}", server.stats());
        print!("{}", server.metrics_text());
        let report = net.drain(Duration::from_secs(10));
        if !report.drained || report.aborted > 0 {
            fail(format!("DRAIN: not clean: {report:?}"));
        }
        eprintln!("drain ok: all connections closed gracefully");
    }
}

/// The CI differential: socket answers must be identical to serial
/// in-process execution over the same deterministic data — relations
/// for the Figure 8 queries, byte-identical XML for the published views.
fn verify_socket_differential(addr: std::net::SocketAddr, scale: f64) {
    eprintln!("verifying socket answers against in-process execution...");
    let local = tpch(scale);
    let mut client = NetClient::connect(addr).expect("connect for verify");
    for w in figure8_workloads() {
        let expected = local.sql(&w.gapply_sql).expect("serial execution");
        let (got, _) = client
            .sql(&w.gapply_sql)
            .expect("socket execution")
            .expect_done()
            .expect("verify run shed");
        if got != expected {
            fail(format!("DIVERGENCE on {}: socket result differs from in-process", w.name));
        }
    }
    let view = resolve_view(&local, "supplier_parts").expect("resolve view");
    for pretty in [false, true] {
        let expected = local.publish(&view, pretty).expect("in-process publish");
        let (got, rows, stats) = client
            .publish("supplier_parts", pretty)
            .expect("socket publish")
            .expect_done()
            .expect("verify publish shed");
        if stats.rows_scanned == 0 {
            fail(format!("publish(pretty={pretty}) End frame carried empty engine counters"));
        }
        if got != expected {
            fail(format!(
                "DIVERGENCE on publish(pretty={pretty}): socket XML differs byte-for-byte"
            ));
        }
        if rows == 0 {
            fail(format!("publish(pretty={pretty}) reported zero rows"));
        }
    }
    client.goodbye().expect("goodbye");
    eprintln!(
        "verify ok: {} workloads + publish (compact & pretty) byte-identical over TCP",
        figure8_workloads().len()
    );
}

/// After a writer run: churn once more, then a warmed incremental
/// session and a threshold-0 full-recompute session must produce
/// byte-identical documents over the same final data — the delta-
/// maintained document differential, under whatever state the
/// concurrent run left behind.
fn verify_republish_differential(server: &Server, updates: u64, incremental: u64) {
    if updates == 0 {
        fail("WRITER: no updates completed; raise --rate or --update-mix");
    }
    let view = resolve_view(server.database(), "supplier_parts").expect("resolve view");
    let mut incr = server.session();
    incr.republish(&view, false).expect("warm incremental session");
    ChurnSource::default().mutate_one(server).expect("final churn");
    let (incr_doc, outcome) = incr.republish(&view, false).expect("incremental republish");
    if !outcome.is_incremental() {
        fail(format!(
            "WRITER: final republish fell back ({outcome}); expected the incremental path"
        ));
    }
    let mut full = server.session();
    full.set_republish_threshold(0.0);
    let (full_doc, _) = full.republish(&view, false).expect("full republish");
    if incr_doc != full_doc {
        fail("DIVERGENCE: incremental republish differs byte-for-byte from full recompute");
    }
    eprintln!(
        "republish ok: {updates} update+republish ops under load ({incremental} incremental), \
         final document byte-identical to full recompute"
    );
}

/// Metrics smoke for the hosted server: the exposition must parse and
/// the net layer must have accounted for the traffic.
fn verify_net_metrics(server: &Server, min_requests: u64) {
    let snap = parsed_metrics(server);
    let net_requests = snap.counter("server.net.requests").unwrap_or(0);
    let frames_out = snap.counter("server.net.frames_out").unwrap_or(0);
    let opened = snap.counter("server.net.connections.opened").unwrap_or(0);
    if net_requests < min_requests || frames_out == 0 || opened == 0 {
        fail(format!(
            "METRICS: net layer unaccounted: requests {net_requests} (expected >= \
             {min_requests}), frames_out {frames_out}, connections.opened {opened}"
        ));
    }
    eprintln!("metrics ok: {net_requests} net requests, {opened} connections in the exposition");
}

// ---------------------------------------------------------------------
// In-process mode: closed loop through sessions on a server we host.

fn in_process_mode(a: &Args) {
    let server = host(a);

    if a.verify {
        // Differential check: each workload's concurrent answer must be
        // identical to a serial execution against the same data.
        eprintln!("verifying concurrent answers against serial execution...");
        let serial = tpch(a.scale);
        let session = server.session();
        for w in figure8_workloads() {
            let expected = serial.sql(&w.gapply_sql).expect("serial execution");
            let (got, _) = session.execute(&w.gapply_sql).expect("server execution");
            if got != expected {
                fail(format!("DIVERGENCE on {}: concurrent result differs from serial", w.name));
            }
        }
        eprintln!("verify ok: all {} workloads match serial", figure8_workloads().len());
    }

    let options = LoadOptions {
        warm: a.warm,
        update_mix: a.update_mix,
        ..LoadOptions::passes(a.clients, a.iters)
    };
    let report =
        run_fig8_load(&server, options).unwrap_or_else(|e| fail(format!("load run failed: {e}")));
    println!("{report}");
    println!("{}", server.stats());
    println!("{}", server.metrics_text());
    if a.verify {
        // Metrics smoke: the exposition must parse back and account for
        // every completed request.
        let snap = parsed_metrics(&server);
        let queries = snap.counter("server.query.count").unwrap_or(0);
        let hist = snap.histogram("server.query_us").map(|h| h.count).unwrap_or(0);
        if queries < report.total_requests || hist != queries {
            fail(format!(
                "METRICS: registry lost requests: counter {queries}, histogram {hist}, \
                 load report {}",
                report.total_requests
            ));
        }
        eprintln!("metrics ok: {queries} requests accounted for in the exposition");
    }
}
