//! `skinner-repl` — the SkinnerDB shell and local query server.
//!
//! ```text
//! skinner-repl [--job SCALE] [--seed N] [--threads N] [--serve SOCKET]
//!              [--cache FILE] [--persist-secs N]
//! ```
//!
//! * Default mode: an interactive SQL shell (or a script runner when
//!   stdin is piped) over the synthetic JOB-like IMDB catalog.
//!   Commands: `\tables`, `\stats`, `\cache`, `\quit`, `\shutdown`.
//! * `--serve SOCKET`: bind a Unix domain socket and speak the line
//!   protocol (one SQL statement per line; responses terminated by a
//!   `;; ok N rows` / `;; err MESSAGE` line) — the script-facing mode.
//! * `--threads N`: the service's total core budget, shared between
//!   concurrent connections and intra-query join partitioning.
//! * `--cache FILE`: crash-safe persistence of the learning cache (to
//!   `FILE`) and the knowledge store (to `FILE.knowledge`) — loaded at
//!   startup (warm start), flushed every `--persist-secs N` (default
//!   30) in serve mode and at exit in both modes, so learned join
//!   orders and priors survive restarts.
//!
//! ```sh
//! echo 'SELECT COUNT(*) AS n FROM title t' | skinner-repl
//! skinner-repl --serve /tmp/skinner.sock &
//! printf 'SELECT COUNT(*) AS n FROM title t\n' | nc -U /tmp/skinner.sock
//! ```

use skinner_service::repl;
use std::io::BufReader;

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
            "skinner-repl [--job SCALE] [--seed N] [--threads N] [--serve SOCKET]\n\
             \x20            [--cache FILE] [--persist-secs N]\n\
             Interactive SQL shell / line-protocol server over a synthetic IMDB catalog.\n\
             Commands: \\tables \\stats \\cache \\quit \\shutdown"
        );
        return;
    }
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

    let cache = arg_value(&args, "--cache").map(std::path::PathBuf::from);
    let persist_secs: u64 = arg_value(&args, "--persist-secs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
        .max(1);

    let service = repl::demo_service(scale, seed, threads);

    if let Some(path) = arg_value(&args, "--serve") {
        eprintln!("skinner-repl serving line protocol on {path} (threads={threads})");
        let opts = repl::ServeOptions {
            cache_path: cache,
            persist_interval: std::time::Duration::from_secs(persist_secs),
            ..Default::default()
        };
        if let Err(e) = repl::serve_unix_with(service, std::path::Path::new(&path), opts) {
            eprintln!("serve error: {e}");
            std::process::exit(1);
        }
        return;
    }

    println!(
        "SkinnerDB SQL shell over a synthetic IMDB (scale={scale}, threads={threads}; \
         \\tables \\stats \\cache \\quit \\shutdown)"
    );
    if let Some(cache) = &cache {
        service.warm_start(cache).log("skinner-repl");
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    if let Err(e) = repl::run_shell(&service, BufReader::new(stdin.lock()), &mut stdout, true) {
        eprintln!("shell error: {e}");
        std::process::exit(1);
    }
    if let Some(cache) = &cache {
        match service.save_learning_cache_with_retry(cache, 3, std::time::Duration::from_millis(50))
        {
            Ok(n) => eprintln!("persisted {n} learning-cache entries"),
            Err(e) => eprintln!("learning cache save failed: {e}"),
        }
        match service.save_knowledge(&skinner_service::knowledge_path(cache)) {
            Ok(n) => eprintln!("persisted {n} knowledge entries"),
            Err(e) => eprintln!("knowledge save failed: {e}"),
        }
    }
}
