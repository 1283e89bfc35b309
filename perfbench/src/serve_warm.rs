//! `serve-warm`: an in-process daemon on `127.0.0.1:0` with one executor
//! worker and a cache the set-up filled by submitting the grid once,
//! cold. In the timed phase one client keeps one request in flight: it
//! resubmits the grid, polls the job until complete and fetches
//! `report?format=csv` — the daemon's read path, with no simulation.

use crate::golden::stats_fingerprint;
use crate::layers::json_round_trip;
use crate::spans::{SpanId, Spans};
use crate::{grid, Ctx, Measured, GOLDEN_SEED, MIN_SAMPLES, MODELS, SETUP_REPEATS};
use hintm::{HtmKind, Json, RunReport, WORKLOAD_NAMES};
use hintm_runner::{results_csv, Cache, Cell, CellOutcome, CellResult, Runner};
use hintm_serve::http::client_request;
use hintm_serve::{ClaimPoll, JobQueue, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Client poll interval: small next to a warm request (several ms), so
/// the wait between completion and the client noticing it stays a small
/// share of the latency.
const POLL: Duration = Duration::from_micros(500);

/// Poll interval for jobs the daemon simulates (the cold fill takes
/// seconds). Each poll renders the whole job in the daemon, so polling a
/// cold job every `POLL` would keep a second thread busy beside the
/// executor on a 2-core host and make the fill time depend on how the
/// two share the cores.
const COLD_POLL: Duration = Duration::from_millis(20);

/// Timed requests per second of `--seconds`: somewhat below the rate one
/// client reaches on a 2-core host, which leaves room for the set-up.
const REQUESTS_PER_SECOND: f64 = 50.0;

/// How `GET /sweeps/{id}` marks a finished job.
const COMPLETE: &[u8] = b"\"complete\":true";

/// A request still incomplete after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

struct Daemon {
    server: Server,
    addr: String,
    cache: Cache,
}

impl Daemon {
    fn start(cache: Cache) -> Result<Daemon, String> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache: Some(cache.clone()),
        })
        .map_err(|e| format!("start daemon: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Daemon {
            server,
            addr,
            cache,
        })
    }

    fn stop(self) {
        self.server.stop();
        self.server.join();
    }
}

/// One HTTP exchange; a transport error or a non-2xx status is an error.
fn call(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
    let (status, body) =
        client_request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
    if !(200..300).contains(&status) {
        return Err(format!(
            "{method} {path}: HTTP {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(body)
}

fn parse_json(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

/// The `POST /sweeps` body for a grid of `models` × `hints` at `seed`.
fn spec(models: &[HtmKind], hints: &[&str], seed: u64) -> String {
    let list = |items: Vec<String>| items.join(",");
    format!(
        "{{\"workloads\":[{}],\"htm\":[{}],\"hints\":[{}],\"seeds\":[{seed}]}}",
        list(WORKLOAD_NAMES.iter().map(|w| format!("\"{w}\"")).collect()),
        list(
            models
                .iter()
                .map(|m| format!("\"{}\"", m.to_string().to_lowercase()))
                .collect()
        ),
        list(hints.iter().map(|h| format!("\"{h}\"")).collect()),
    )
}

/// Submits `body`, polls the job every `poll` until complete and fetches
/// its report in `format`. Returns the report bytes and the number of
/// polls.
fn request(
    spans: &mut Spans,
    addr: &str,
    body: &str,
    format: &str,
    poll: Duration,
    idx: u32,
) -> Result<(Vec<u8>, u64), String> {
    let root = spans.open("serve.request", SpanId::NONE, idx);
    let submitted = spans.time("serve.submit", root, idx, || {
        call(addr, "POST", "/sweeps", body.as_bytes())
    })?;
    let id = parse_json(&submitted)?
        .field("id")
        .and_then(Json::as_u64)
        .map_err(|e| format!("POST /sweeps: {e}"))?;
    let job = format!("/sweeps/{id}");
    let started = Instant::now();
    let wait = spans.open("serve.wait", root, idx);
    let mut polls = 0;
    loop {
        polls += 1;
        let status = spans.time("serve.poll", wait, idx, || call(addr, "GET", &job, b""))?;
        // A byte search, not a parse: the client's own cost stays out of
        // the latency. The job object has one `complete` field.
        if status.windows(COMPLETE.len()).any(|w| w == COMPLETE) {
            break;
        }
        if started.elapsed() > REQUEST_TIMEOUT {
            return Err(format!("{job}: poll timeout after {polls} polls"));
        }
        std::thread::sleep(poll);
    }
    spans.close(wait);
    let report = spans.time("serve.fetch", root, idx, || {
        call(addr, "GET", &format!("{job}/report?format={format}"), b"")
    })?;
    spans.close(root);
    Ok((report, polls))
}

/// `(queue.cached, queue.executed)` from `GET /stats`.
fn queue_counts(addr: &str) -> Result<(u64, u64), String> {
    let stats = parse_json(&call(addr, "GET", "/stats", b"")?)?;
    let queue = stats.field("queue").map_err(|e| e.to_string())?;
    let count = |k| {
        queue
            .field(k)
            .and_then(Json::as_u64)
            .map_err(|e| e.to_string())
    };
    Ok((count("cached")?, count("executed")?))
}

/// Runs `n` requests of the grid, checking every CSV against `expected`.
/// Returns the latencies in ms.
fn timed_requests(
    ctx: &mut Ctx,
    d: &Daemon,
    body: &str,
    expected: &[u8],
    n: usize,
) -> Vec<Duration> {
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        let res = request(&mut ctx.spans, &d.addr, body, "csv", POLL, i as u32);
        let took = t.elapsed();
        let err = res.map(|(csv, polls)| {
            ctx.check(csv == expected, || {
                "daemon CSV differs from the reference".into()
            });
            ctx.count("serve.polls", polls as f64);
            ctx.count("serve.requests", 1.0);
            lat.push(took);
        });
        ctx.attempt(err.err());
    }
    lat
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let cells = grid(ctx.seed);
    let body = spec(&MODELS, &["off", "full"], ctx.seed);

    // Set-up: start a daemon on a fresh cache and fill it cold. Each
    // repetition but the last stops its daemon.
    let mut daemon = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let d = Daemon::start(Cache::new(ctx.work.join(format!("serve-cache-{rep}"))))?;
        let filled = request(&mut ctx.spans, &d.addr, &body, "csv", COLD_POLL, 0);
        m.setup_s.push(t.elapsed().as_secs_f64());
        ctx.attempt(filled.err());
        if let Some(old) = daemon.replace(d) {
            old.stop();
        }
    }
    let d = daemon.expect("SETUP_REPEATS > 0");

    // The reference: a Runner over the same cache, every cell a hit.
    let swept = Runner::new().jobs(1).cache(d.cache.clone()).run(&cells);
    ctx.check(swept.cache_hits == cells.len(), || {
        format!(
            "runner found {}/{} cells cached",
            swept.cache_hits,
            cells.len()
        )
    });
    let expected = results_csv(&swept).into_bytes();
    let grid_accesses: u64 = swept.reports().map(|(_, r)| r.stats.cache.accesses).sum();

    // A fixed number of requests per second of budget: the daemon keeps
    // every job, so its memory grows with the requests served.
    let n = MIN_SAMPLES.max((ctx.seconds * REQUESTS_PER_SECOND) as usize);
    let (cached0, executed0) = queue_counts(&d.addr)?;
    let lat = if ctx.traced {
        let untraced = timed_requests(ctx, &d, &body, &expected, n / 2);
        ctx.spans.enable();
        let traced = timed_requests(ctx, &d, &body, &expected, n / 2);
        let mean = |v: &[Duration]| v.iter().sum::<Duration>().as_secs_f64() / v.len() as f64;
        ctx.count(
            "bench.trace_overhead",
            mean(&traced) / mean(&untraced) - 1.0,
        );
        [untraced, traced].concat()
    } else {
        timed_requests(ctx, &d, &body, &expected, n)
    };
    let (cached1, executed1) = queue_counts(&d.addr)?;
    let requested = ctx.counter("serve.requests") * cells.len() as f64;
    let cached_frac = (cached1 - cached0) as f64 / requested;
    ctx.check(cached_frac == 1.0 && executed1 == executed0, || {
        format!(
            "warm requests executed {} cells; cached fraction {cached_frac}",
            executed1 - executed0
        )
    });
    println!(
        "serve: {} requests, {:.2} polls per request, cached fraction {cached_frac}",
        lat.len(),
        ctx.counter("serve.polls") / ctx.counter("serve.requests")
    );
    for took in lat {
        m.record(0, cells.len() as u64, grid_accesses, took);
    }

    check_golden(ctx, &d)?;
    if ctx.traced {
        ctx.count("serve.cached_frac", cached_frac);
        layer_calls(ctx, &d.cache, &cells, &expected);
    }
    d.stop();
    Ok(m)
}

/// Submits the seed-42 hints-off P8 cells and checks each report in the
/// daemon's JSON against the blessed stats column.
fn check_golden(ctx: &mut Ctx, d: &Daemon) -> Result<(), String> {
    let body = spec(&[HtmKind::P8], &["off"], GOLDEN_SEED);
    let res = request(&mut Spans::new(), &d.addr, &body, "json", COLD_POLL, 0);
    let json = match res {
        Ok((bytes, _)) => parse_json(&bytes)?,
        Err(e) => {
            ctx.attempt(Some(e));
            return Ok(());
        }
    };
    ctx.attempt(None);
    let rows = json.as_arr().map_err(|e| e.to_string())?;
    ctx.check(rows.len() == WORKLOAD_NAMES.len(), || {
        format!("golden job returned {} rows", rows.len())
    });
    for row in rows {
        let report = row
            .field("report")
            .and_then(RunReport::from_json_value)
            .map_err(|e| format!("golden job report: {e}"))?;
        let (_, blessed) = ctx
            .golden
            .expect(&report.workload, HtmKind::P8)
            .ok_or_else(|| format!("no golden row for {}", report.workload))?;
        let got = stats_fingerprint(&report);
        ctx.check(got == blessed, || {
            format!(
                "daemon {}/P8 s42: stats fingerprint {got:016x}, blessed {blessed:016x}",
                report.workload
            )
        });
    }
    Ok(())
}

/// The layers under the daemon's paths, called directly: cache loads, a
/// store of each report into a scratch cache (the write of a cold fill),
/// JSON encode/parse of each report, the CSV render, and a stand-alone
/// queue submit + claim/complete drain of a grid-sized job.
fn layer_calls(ctx: &mut Ctx, cache: &Cache, cells: &[Cell], expected: &[u8]) {
    let scratch = Cache::new(ctx.work.join("store"));
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let idx = i as u32;
        let loaded = ctx
            .spans
            .time("runner.load", SpanId::NONE, idx, || cache.load(cell));
        let Some(report) = loaded else {
            ctx.attempt(Some(format!("{}: cache load missed", cell.label())));
            results.push(None);
            continue;
        };
        let stored = ctx.spans.time("runner.store", SpanId::NONE, idx, || {
            scratch.store(cell, &report)
        });
        ctx.attempt(
            stored
                .err()
                .map(|e| format!("{}: store failed: {e}", cell.label())),
        );
        json_round_trip(ctx, &report, idx, SpanId::NONE);
        results.push(Some(CellResult {
            cell: cell.clone(),
            outcome: CellOutcome::Done(Box::new(report)),
            wall: Duration::ZERO,
            cached: true,
        }));
    }

    let swept = Runner::new().jobs(1).cache(cache.clone()).run(cells);
    let csv = ctx
        .spans
        .time("runner.csv", SpanId::NONE, 0, || results_csv(&swept));
    ctx.check(csv.as_bytes() == expected, || {
        "results_csv differs from the daemon's CSV".into()
    });

    let queue = JobQueue::new();
    queue.submit(cells.to_vec());
    for idx in 0..cells.len() as u32 {
        let span = ctx.spans.open("serve.queue_claim", SpanId::NONE, idx);
        let claimed = match queue.try_claim() {
            ClaimPoll::Claimed(claim) => {
                let result = results[claim.cell_index].take();
                result.map(|r| queue.complete(&claim, r))
            }
            ClaimPoll::Empty | ClaimPoll::Shutdown => None,
        };
        ctx.spans.close(span);
        ctx.attempt(
            claimed
                .is_none()
                .then(|| "queue claim/complete drain failed".into()),
        );
    }
}
