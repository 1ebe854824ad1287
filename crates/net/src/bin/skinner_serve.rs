//! `skinner-serve` — the SkinnerDB TCP server.
//!
//! ```text
//! skinner-serve [--listen ADDR] [--job SCALE] [--seed N] [--threads N]
//!               [--max-conns N] [--max-inflight N]
//!               [--cache FILE] [--persist-secs N]
//! ```
//!
//! Serves the binary wire protocol (see `skinner_net::proto`) over the
//! synthetic JOB-like IMDB catalog. Shutdown is protocol-driven: a
//! client sends a `Shutdown` frame (e.g. `skinner-load --shutdown`),
//! the server stops accepting, drains in-flight connections, flushes
//! the learning cache and the knowledge store, and exits — printing
//! post-drain resource accounting so operators (and CI) can confirm
//! nothing leaked. `--cache FILE` warm-starts both from `FILE` and its
//! `FILE.knowledge` sibling, and flushes both every `--persist-secs N`.

use skinner_net::{NetServer, ServerConfig};
use skinner_service::{repl, CachePersister};
use std::net::TcpListener;
use std::time::Duration;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "skinner-serve [--listen ADDR] [--job SCALE] [--seed N] [--threads N]\n\
             \x20             [--max-conns N] [--max-inflight N]\n\
             \x20             [--cache FILE] [--persist-secs N]\n\
             TCP server for the SkinnerDB binary wire protocol over a synthetic\n\
             IMDB catalog. Stop it with `skinner-load --addr ADDR --shutdown`."
        );
        return;
    }
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:5433".to_string());
    let scale: f64 = arg_value(&args, "--job")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            std::env::var("SKINNER_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(1)
        .max(1);
    let max_conns: usize = arg_value(&args, "--max-conns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
        .max(1);
    let max_inflight: usize = arg_value(&args, "--max-inflight")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cache = arg_value(&args, "--cache").map(std::path::PathBuf::from);
    let persist_secs: u64 = arg_value(&args, "--persist-secs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
        .max(1);

    let service = repl::demo_service(scale, seed, threads);

    // Warm-start the learning cache and the knowledge store from the
    // `--cache` location, then keep flushing both in the background (and
    // once more after the drain).
    let persister = cache.map(|path| {
        service.warm_start(&path).log("skinner-serve");
        CachePersister::start(service.clone(), path, Duration::from_secs(persist_secs))
    });

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skinner-serve: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let cfg = ServerConfig {
        max_conns,
        max_inflight,
        ..Default::default()
    };
    let server = match NetServer::spawn(service.clone(), listener, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skinner-serve: spawn failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "skinner-serve: listening on {} (threads={threads}, max-conns={max_conns})",
        server.addr()
    );

    // Block until a client's Shutdown frame raises the flag and the
    // drain completes.
    if let Err(e) = server.join() {
        eprintln!("skinner-serve: server error: {e}");
    }

    if let Some(p) = persister {
        match p.shutdown() {
            Ok(n) => eprintln!("skinner-serve: cache flushed ({n} entries)"),
            Err(e) => eprintln!("skinner-serve: final cache flush failed: {e}"),
        }
    }

    // Post-drain accounting: every core grant and worker-pool slot must
    // be back (CI greps these lines).
    let st = service.stats();
    let budget = service.core_budget();
    let pool = service.worker_pool();
    println!(
        "skinner-serve: drained: {} queries served, {} connections rejected, {} in flight",
        st.queries, st.connections_rejected, st.queries_in_flight
    );
    println!(
        "skinner-serve: core budget {}/{} available; workers {}/{} live",
        budget.available(),
        budget.total(),
        pool.live_workers(),
        pool.workers()
    );
    let clean = st.queries_in_flight == 0
        && st.connections_open == 0
        && budget.available() == budget.total()
        && pool.live_workers() == pool.workers();
    if clean {
        println!("skinner-serve: clean shutdown");
    } else {
        println!("skinner-serve: UNCLEAN shutdown (leaked resources above)");
        std::process::exit(1);
    }
}
