//! `edit_service`: designers editing sessions interactively over HTTP.
//!
//! The service (`axum::serve` over `diic_api::router`) runs in-process
//! on loopback. Eight sessions are opened over faulted 16×12 inverter
//! arrays. An open-loop generator then sends a fixed schedule: about
//! nine in ten requests are `POST /sessions/{id}/edits` with
//! `random_edit_set` batches, the rest `GET /sessions/{id}/report`
//! (half of them spilled below the report size). The load alternates
//! two kinds of block. A nominal block runs open loop at
//! [`NOMINAL_RPS`], each latency timed from the request's due time. A
//! capacity block runs closed loop: each client sends its next request
//! as soon as the previous one returns, and the completion rate is the
//! service's capacity.
//!
//! Every request is generated beforehand, in order, against a local
//! oracle `CheckSession` per session, which also gives the expected
//! response. At most `nproc` client threads send; each owns whole
//! sessions, so a session's edits stay in order.

use crate::full_chip::nmos;
use crate::http::{self, Server};
use crate::obs;
use crate::{median, quantile, verify, Args, FnvWriter, Outcome};
use diic_api::{router, wire, App, RegistryConfig};
use diic_core::{canonical_check, CheckOptions, CheckSession, EditStats};
use diic_gen::{generate, random_edit_set, ChipSpec, ErrorKind, GeneratedChip};
use diic_geom::Rect;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open sessions.
const SESSIONS: usize = 8;
/// Inverter array of each session.
const NX: usize = 16;
const NY: usize = 12;
/// Offered request rate of the nominal phase: light load (about a
/// fifth of capacity on two cores), so an edit's latency is mostly its
/// service time rather than queueing behind other edits.
const NOMINAL_RPS: f64 = 20.0;
/// Share of the run's window spent in nominal blocks; capacity blocks
/// take the rest.
const NOMINAL_SHARE: f64 = 0.7;
/// Nominal and capacity blocks each, alternating: host speed switches
/// within seconds, and alternating blocks let both kinds sample the
/// same stretch of it.
const BLOCKS: usize = 3;
/// Set-up slices before the load and after each capacity block, so
/// set-up samples the whole run rather than its first seconds.
const SETUP_SLICES_PER_BLOCK: usize = 3;
/// Requests per session replayed through `Router::oneshot` in the
/// traced run.
const ONESHOT_PER_SESSION: usize = 40;

/// The chip of session `i`.
fn session_chip(seed: u64, i: usize) -> GeneratedChip {
    generate(&ChipSpec {
        demo_cells: false,
        golden_netlist: false,
        ..ChipSpec::with_errors(
            NX,
            NY,
            ErrorKind::ALL.to_vec(),
            seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
        )
    })
}

/// Where random edits land (the arrays' extent, slightly inflated).
fn edit_bounds() -> Rect {
    Rect::new(
        -2500,
        -6000,
        NX as i64 * 6750 + 2500,
        NY as i64 * 10000 + 2500,
    )
}

/// One prepared request with the response the oracle expects.
enum Kind {
    Edit {
        body: String,
        want: (Vec<String>, Vec<String>),
    },
    Report {
        spill_budget: Option<usize>,
        want: FnvWriter,
    },
}

struct Prepared {
    kind: Kind,
    apply_secs: f64,
    stats: Option<EditStats>,
}

/// One scheduled request: when (seconds after its phase starts; in the
/// closed-loop phase, when it was sent), which phase, which session,
/// which of the session's prepared requests.
#[derive(Clone, Copy)]
struct Slot {
    due: f64,
    phase: usize,
    session: usize,
    seq: usize,
}

/// `n` requests (a multiple of [`SESSIONS`]) evenly spaced at `rate`,
/// sessions round-robin, continuing each session's sequence after the
/// `first` requests already sent.
fn phase_slots(first: usize, n: usize, rate: f64, phase: usize) -> Vec<Slot> {
    (0..n)
        .map(|j| {
            let k = first + j;
            Slot {
                due: j as f64 / rate,
                phase,
                session: k % SESSIONS,
                seq: k / SESSIONS,
            }
        })
        .collect()
}

/// `x` rounded to a positive multiple of [`SESSIONS`].
fn whole_rounds(x: f64) -> usize {
    ((x / SESSIONS as f64).round() as usize).max(1) * SESSIONS
}

/// Generates requests `first..first + n` of one session against its
/// oracle.
fn prepare(
    oracle: &mut CheckSession,
    first: usize,
    n: usize,
    seed: u64,
) -> Result<Vec<Prepared>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (first as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let bounds = edit_bounds();
    let mut out = Vec::with_capacity(n);
    for step in first..first + n {
        if rng.next_below(10) == 0 {
            let (want, sorted) = verify::render_canonical(oracle.report().violations.clone());
            let spill_budget = (rng.next_below(2) == 0).then(|| (sorted.len() / 3).max(1));
            out.push(Prepared {
                kind: Kind::Report { spill_budget, want },
                apply_secs: 0.0,
                stats: None,
            });
            continue;
        }
        let edits = random_edit_set(oracle.layout(), bounds, step, &mut rng);
        let body = wire::edit_set_to_json(&edits, oracle.layout()).to_string();
        let old = oracle.report().violations.clone();
        let t0 = Instant::now();
        let stats = oracle
            .apply(&edits)
            .map_err(|e| format!("generated edit rejected by the oracle: {e}"))?;
        let apply_secs = t0.elapsed().as_secs_f64();
        let want = wire::violation_delta(&old, &oracle.report().violations);
        out.push(Prepared {
            kind: Kind::Edit { body, want },
            apply_secs,
            stats: Some(stats),
        });
    }
    Ok(out)
}

/// What a client keeps of a response body.
enum Reply {
    /// An edit response's JSON.
    Edit(Vec<u8>),
    /// A report's digest.
    Report(FnvWriter),
}

/// A sent request's outcome.
struct Sent {
    slot: Slot,
    status: u16,
    latency_ms: f64,
    lateness_ms: f64,
    reply: Reply,
}

/// The service with its open sessions.
struct Service {
    server: Server,
    ids: Vec<u64>,
    open_ms: Vec<f64>,
}

fn open_body(cif: &str) -> String {
    format!("{{\"cif\": {}}}", serde_json::Value::from(cif))
}

fn start_service(chips: &[GeneratedChip]) -> Result<Service, String> {
    let app = App::new(RegistryConfig::default());
    let server = Server::start(router(app)).map_err(|e| format!("serve: {e}"))?;
    let mut ids = Vec::with_capacity(chips.len());
    let mut open_ms = Vec::with_capacity(chips.len());
    for chip in chips {
        let t0 = Instant::now();
        let (status, body) = http::request(
            server.addr,
            "POST",
            "/sessions",
            open_body(&chip.cif).as_bytes(),
        )
        .map_err(|e| format!("open: {e}"))?;
        open_ms.push(crate::ms(t0.elapsed()));
        if status != 201 {
            return Err(format!("open answered {status}"));
        }
        let json = parse_json(&body)?;
        let id = json
            .get("id")
            .and_then(serde_json::Value::as_i64)
            .ok_or("open response without an id")?;
        ids.push(id as u64);
    }
    Ok(Service {
        server,
        ids,
        open_ms,
    })
}

fn parse_json(body: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("bad JSON body: {e}"))
}

fn string_array(v: &serde_json::Value, key: &str) -> Option<Vec<String>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// 1 when an edit response body does not carry the expected delta.
fn edit_failures(body: &[u8], want: &(Vec<String>, Vec<String>)) -> u64 {
    let Ok(json) = parse_json(body) else {
        return 1;
    };
    match (string_array(&json, "added"), string_array(&json, "removed")) {
        (Some(added), Some(removed)) => verify::delta_mismatch(&(added, removed), want),
        _ => 1,
    }
}

/// The target of a prepared request.
fn target(id: u64, kind: &Kind) -> (&'static str, String, &[u8]) {
    match kind {
        Kind::Edit { body, .. } => ("POST", format!("/sessions/{id}/edits"), body.as_bytes()),
        Kind::Report {
            spill_budget: Some(b),
            ..
        } => (
            "GET",
            format!("/sessions/{id}/report?spill_budget={b}"),
            &[],
        ),
        Kind::Report { .. } => ("GET", format!("/sessions/{id}/report"), &[]),
    }
}

/// Sends the whole schedule from at most `clients` threads, each owning
/// the sessions `s` with `s % clients == c`.
fn drive(
    addr: SocketAddr,
    ids: &[u64],
    prepared: &[Vec<Prepared>],
    slots: &[Slot],
    clients: usize,
) -> Vec<Sent> {
    let start = Instant::now() + Duration::from_millis(50);
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for slot in slots.iter().filter(|s| s.session % clients == c) {
                        let due = start + Duration::from_secs_f64(slot.due);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let lateness_ms = crate::ms(Instant::now().saturating_duration_since(due));
                        let p = &prepared[slot.session][slot.seq];
                        let (method, path, body) = target(ids[slot.session], &p.kind);
                        let (status, body) =
                            http::request(addr, method, &path, body).unwrap_or((0, Vec::new()));
                        let latency_ms = crate::ms(Instant::now().saturating_duration_since(due));
                        let reply = match &p.kind {
                            Kind::Report { .. } => Reply::Report(crate::digest(&body)),
                            Kind::Edit { .. } => Reply::Edit(body),
                        };
                        out.push(Sent {
                            slot: *slot,
                            status,
                            latency_ms,
                            lateness_ms,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // invariant: client threads only send and time requests.
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    sent.sort_by(|a, b| a.slot.due.total_cmp(&b.slot.due));
    sent
}

/// Sends `slots` closed loop from at most `clients` threads, each
/// owning the sessions `s` with `s % clients == c`: a client sends its
/// next request as soon as the previous one returns. Returns every sent
/// request, the requests completed within the window and the window's
/// length in seconds. The window closes after `window` or when the
/// first client runs out of requests, whichever comes first (so every
/// client is busy throughout). A client that
/// still has requests when the window closes sends them afterwards,
/// uncounted, so each session ends in its oracle's final state.
fn drive_closed(
    addr: SocketAddr,
    ids: &[u64],
    prepared: &[Vec<Prepared>],
    slots: &[Slot],
    clients: usize,
    window: Duration,
) -> (Vec<Sent>, usize, f64) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Sent>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for slot in slots.iter().filter(|s| s.session % clients == c) {
                        let t0 = Instant::now();
                        let p = &prepared[slot.session][slot.seq];
                        let (method, path, body) = target(ids[slot.session], &p.kind);
                        let (status, body) =
                            http::request(addr, method, &path, body).unwrap_or((0, Vec::new()));
                        let reply = match &p.kind {
                            Kind::Report { .. } => Reply::Report(crate::digest(&body)),
                            Kind::Edit { .. } => Reply::Edit(body),
                        };
                        out.push(Sent {
                            slot: Slot {
                                due: t0.duration_since(start).as_secs_f64(),
                                ..*slot
                            },
                            status,
                            latency_ms: crate::ms(t0.elapsed()),
                            lateness_ms: 0.0,
                            reply,
                        });
                    }
                    (out, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            // invariant: client threads only send and time requests.
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, ran_out)| *ran_out)
        .fold(window.as_secs_f64(), f64::min);
    let mut sent: Vec<Sent> = per_client.into_iter().flat_map(|(s, _)| s).collect();
    sent.sort_by(|a, b| a.slot.due.total_cmp(&b.slot.due));
    let completed = sent
        .iter()
        .filter(|s| s.slot.due + s.latency_ms / 1e3 <= end)
        .count();
    (sent, completed, end)
}

/// Failures in one sent request: a non-2xx status or a body other than
/// the oracle's.
fn response_failures(s: &Sent, p: &Prepared) -> u64 {
    if !(200..300).contains(&s.status) {
        return 1;
    }
    match (&p.kind, &s.reply) {
        (Kind::Edit { want, .. }, Reply::Edit(body)) => edit_failures(body, want),
        (Kind::Report { want, .. }, Reply::Report(got)) => verify::digest_mismatch(*got, *want),
        _ => 1,
    }
}

fn is_edit(p: &Prepared) -> bool {
    matches!(p.kind, Kind::Edit { .. })
}

/// Runs the workload.
pub fn run(args: &Args, workers: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let options: CheckOptions =
        wire::check_options_from_json(None).map_err(|e| format!("options: {}", e.detail))?;

    // Set-up: generate, compile the deck, start the server, open the
    // sessions. The last one serves the load.
    let mut setup = crate::SetupTimes::default();
    let mut make_service = || {
        let chips: Vec<GeneratedChip> = (0..SESSIONS).map(|i| session_chip(args.seed, i)).collect();
        let tech = nmos();
        let service = start_service(&chips)?;
        Ok((chips, tech, service))
    };
    let (chips, tech, service) = setup.sample(
        SETUP_SLICES_PER_BLOCK,
        &mut make_service,
        |(_, _, service)| service.server.stop(),
    )?;

    if args.trace {
        obs::start();
    }

    let mut oracles: Vec<CheckSession> = chips
        .iter()
        .map(|c| {
            let layout = diic_cif::parse(&c.cif).expect("generated chips parse");
            CheckSession::new(layout, &tech, &options)
        })
        .collect();
    let mut prepared: Vec<Vec<Prepared>> = (0..SESSIONS).map(|_| Vec::new()).collect();
    let clients = workers.clamp(1, SESSIONS);
    let addr = service.server.addr;
    let mut prepare_more = |prepared: &mut Vec<Vec<Prepared>>, n: usize| {
        obs::span("prepare", || {
            prepare_parallel(&mut oracles, prepared, n / SESSIONS, args.seed, workers)
        })
    };

    // The load alternates nominal and capacity blocks (see BLOCKS); set-up
    // slices follow each capacity block.
    let nominal_n = whole_rounds(NOMINAL_RPS * args.seconds * NOMINAL_SHARE / BLOCKS as f64);
    let window = args.seconds * (1.0 - NOMINAL_SHARE) / BLOCKS as f64;
    let mut sent = Vec::new();
    let (mut completed, mut capacity_secs, mut capacity_n) = (0, 0.0, 0);
    let mut max_rate = 0.0;
    for _ in 0..BLOCKS {
        // Nominal: open loop at the nominal rate.
        let first = prepared[0].len() * SESSIONS;
        prepare_more(&mut prepared, nominal_n)?;
        let slots = phase_slots(first, nominal_n, NOMINAL_RPS, 0);
        let nominal = obs::span("load.nominal", || {
            drive(addr, &service.ids, &prepared, &slots, clients)
        });

        // Capacity: closed loop. Its requests are prepared for the rate
        // the clients would reach if every request took the nominal
        // block's mean latency. Under load requests take longer, so the
        // clients rarely run out within the window; if one does, the
        // window closes there and the rate stays valid.
        let mean_s = nominal.iter().map(|s| s.latency_ms / 1e3).sum::<f64>() / nominal.len() as f64;
        max_rate = clients as f64 / mean_s.max(1e-4);
        let n = whole_rounds(max_rate * window);
        let first = prepared[0].len() * SESSIONS;
        prepare_more(&mut prepared, n)?;
        let slots = phase_slots(first, n, f64::INFINITY, 1);
        let (saturated, done, secs) = obs::span("load.closed", || {
            drive_closed(
                addr,
                &service.ids,
                &prepared,
                &slots,
                clients,
                Duration::from_secs_f64(window),
            )
        });
        completed += done;
        capacity_secs += secs;
        capacity_n += n;
        sent.extend(nominal);
        sent.extend(saturated);
        let stop = |(_, _, s): (_, _, Service)| s.server.stop();
        let (_, _, extra) = setup.sample(SETUP_SLICES_PER_BLOCK, &mut make_service, stop)?;
        extra.server.stop()?;
    }
    let capacity = completed as f64 / capacity_secs;
    out.set("setup_s", setup.median());
    out.notes.push(setup.note());

    // Verification, outside the timed window.
    let mut shed_503 = 0u64;
    let mut busy_429 = 0u64;
    for s in &sent {
        let p = &prepared[s.slot.session][s.slot.seq];
        shed_503 += u64::from(s.status == 503);
        busy_429 += u64::from(s.status == 429);
        out.check(
            "HTTP responses",
            1,
            response_failures(s, p),
            format!(
                "session {} request {} answered {} or differs from the oracle",
                s.slot.session, s.slot.seq, s.status
            ),
        );
    }
    for (i, oracle) in oracles.iter().enumerate() {
        let report = canonical_check(oracle.layout(), &tech, &options);
        let (want, _) = verify::render_canonical(report.violations);
        let (status, body) = http::request(
            addr,
            "GET",
            &format!("/sessions/{}/report", service.ids[i]),
            b"",
        )
        .map_err(|e| format!("final report: {e}"))?;
        out.check(
            "final reports",
            1,
            u64::from(status != 200 || verify::digest_mismatch(crate::digest(&body), want) > 0),
            format!("session {i}: final report differs from a from-scratch check"),
        );
    }
    let (_, stats_body) =
        http::request(addr, "GET", "/stats", b"").map_err(|e| format!("stats: {e}"))?;
    let stats = parse_json(&stats_body)?;
    service.server.stop()?;

    // End-to-end metrics: latency from the nominal phase, throughput
    // from the capacity phase.
    let nominal: Vec<&Sent> = sent.iter().filter(|s| s.slot.phase == 0).collect();
    let latencies = |edits: bool| -> Vec<f64> {
        nominal
            .iter()
            .filter(|s| is_edit(&prepared[s.slot.session][s.slot.seq]) == edits)
            .map(|s| s.latency_ms)
            .collect()
    };
    let edit_ms = latencies(true);
    let edit_p50 = median(&edit_ms);
    out.set("latency_p50_ms", edit_p50);
    out.set("latency_p99_ms", quantile(&edit_ms, 0.99));
    let report_p90 = quantile(&latencies(false), 0.90);
    out.notes.push(format!(
        "nominal {NOMINAL_RPS}/s: {} edits, p99 {:.1} ms, report p90 {report_p90:.1} ms; \
         capacity {capacity:.1}/s over {capacity_secs:.2} s of {:.2} s ({max_rate:.1}/s at nominal \
         latency, {capacity_n} requests prepared); \
         edit deciles {:?} ms",
        edit_ms.len(),
        quantile(&edit_ms, 0.99),
        window * BLOCKS as f64,
        (1..10)
            .map(|d| (quantile(&edit_ms, d as f64 / 10.0) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out.set("throughput_per_s", capacity);

    if args.trace {
        let lateness: Vec<f64> = nominal.iter().map(|s| s.lateness_ms).collect();
        out.set("generator.lateness_ms_p99", quantile(&lateness, 0.99));
        out.set("report.p90_ms", report_p90);
        out.set("session.open_ms", median(&service.open_ms));
        let stat = |k: &str| {
            stats
                .get(k)
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0)
        };
        let memory = stat("memory_bytes");
        out.set("registry.memory_mb", memory / 1e6);
        out.set(
            "registry.bytes_per_session",
            memory / stat("open_sessions").max(1.0),
        );
        out.set(
            "registry.evictions",
            stat("evicted_idle") + stat("evicted_pressure"),
        );
        out.set("registry.shed_503", shed_503 as f64);
        out.set("registry.busy_429", busy_429 as f64);
        apply_metrics(&mut out, &prepared);
        oneshot_metrics(&mut out, &chips, &prepared, edit_p50)?;
        crate::heap_metrics(&mut out);
    }
    Ok(out)
}

/// The edit stream seed of session `i`.
fn session_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 32)
}

/// [`prepare`] for every session, sessions spread over `workers`
/// threads: appends `per_session` requests to each session's list.
fn prepare_parallel(
    oracles: &mut [CheckSession],
    prepared: &mut [Vec<Prepared>],
    per_session: usize,
    seed: u64,
    workers: usize,
) -> Result<(), String> {
    let workers = workers.clamp(1, SESSIONS);
    let mut results: Vec<Option<Result<Vec<Prepared>, String>>> =
        (0..oracles.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut buckets: Vec<Vec<(usize, &mut CheckSession, &mut Option<_>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, (o, r)) in oracles.iter_mut().zip(results.iter_mut()).enumerate() {
            buckets[i % workers].push((i, o, r));
        }
        for bucket in buckets {
            let first: Vec<usize> = bucket.iter().map(|(i, ..)| prepared[*i].len()).collect();
            scope.spawn(move || {
                for ((i, oracle, slot), first) in bucket.into_iter().zip(first) {
                    *slot = Some(prepare(oracle, first, per_session, session_seed(seed, i)));
                }
            });
        }
    });
    for (list, more) in prepared.iter_mut().zip(results) {
        // invariant: every slot was filled by its bucket's thread.
        list.extend(more.expect("every session prepared")?);
    }
    Ok(())
}

/// `apply.*`: the oracle's local replay of the same edits.
fn apply_metrics(out: &mut Outcome, prepared: &[Vec<Prepared>]) {
    let all: Vec<&Prepared> = prepared.iter().flatten().filter(|p| is_edit(p)).collect();
    let stats: Vec<&EditStats> = all.iter().filter_map(|p| p.stats.as_ref()).collect();
    let ms: Vec<f64> = all.iter().map(|p| p.apply_secs * 1e3).collect();
    out.set("apply.ms_p50", median(&ms));
    out.set("apply.ms_p99", quantile(&ms, 0.99));
    let phase = |f: fn(&EditStats) -> Duration| {
        median(&stats.iter().map(|s| crate::ms(f(s))).collect::<Vec<_>>())
    };
    out.set("apply.view_ms", phase(|s| s.t_view));
    out.set("apply.conn_ms", phase(|s| s.t_conn));
    out.set("apply.net_ms", phase(|s| s.t_net));
    out.set("apply.interact_ms", phase(|s| s.t_interact));
    out.set("apply.global_ms", phase(|s| s.t_global));
    out.set("apply.patch_ms", phase(|s| s.t_patch));
    let count = |f: fn(&EditStats) -> f64| median(&stats.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.set("apply.dirty_elements", count(|s| s.dirty_elements as f64));
    out.set("apply.rechecked_pairs", count(|s| s.rechecked_pairs as f64));
    let share = |f: fn(&EditStats) -> bool| {
        stats.iter().filter(|s| f(s)).count() as f64 / stats.len().max(1) as f64
    };
    out.set("apply.full_rebuild_ratio", share(|s| s.full_rebuild));
    out.set("apply.netlist_reused_ratio", share(|s| s.netlist_reused));
}

/// The same edits through `Router::oneshot`, no TCP: once with spans
/// paused (`router.edit_ms_p50`, and the registry's accounting against
/// the allocator) and once traced (`trace.overhead_s`).
fn oneshot_metrics(
    out: &mut Outcome,
    chips: &[GeneratedChip],
    prepared: &[Vec<Prepared>],
    tcp_edit_p50: f64,
) -> Result<(), String> {
    let mut replay = |traced: bool| -> Result<(Vec<f64>, f64, f64), String> {
        obs::set_paused(!traced);
        let live0 = obs::live_bytes();
        let app = App::new(RegistryConfig::default());
        let r = router(Arc::clone(&app));
        let mut ids = Vec::new();
        for chip in chips {
            let resp = r.oneshot(
                axum::Request::new(axum::Method::Post, "/sessions").with_body(open_body(&chip.cif)),
            );
            let body = resp.into_bytes().map_err(|e| format!("open: {e}"))?;
            let id = parse_json(&body)?
                .get("id")
                .and_then(serde_json::Value::as_i64)
                .ok_or("open response without an id")?;
            ids.push(id as u64);
        }
        let mut ms = Vec::new();
        for (i, reqs) in prepared.iter().enumerate() {
            for p in reqs.iter().take(ONESHOT_PER_SESSION) {
                let Kind::Edit { body, want } = &p.kind else {
                    continue;
                };
                let t0 = Instant::now();
                let resp = obs::span("oneshot.edit", || {
                    r.oneshot(
                        axum::Request::new(
                            axum::Method::Post,
                            &format!("/sessions/{}/edits", ids[i]),
                        )
                        .with_body(body.clone()),
                    )
                });
                let status = resp.status;
                let reply = resp.into_bytes().unwrap_or_default();
                ms.push(crate::ms(t0.elapsed()));
                out.check(
                    "in-process responses",
                    1,
                    if status.is_success() {
                        edit_failures(&reply, want)
                    } else {
                        1
                    },
                    format!(
                        "in-process edit answered {} or differs from the oracle",
                        status.0
                    ),
                );
            }
        }
        let pool_live = (obs::live_bytes() - live0) as f64;
        let accounted = app
            .registry
            .stats()
            .get("memory_bytes")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0);
        drop(r);
        drop(app);
        obs::set_paused(false);
        Ok((ms, pool_live, accounted))
    };
    let (plain, pool_live, accounted) = replay(false)?;
    let (traced, _, _) = replay(true)?;
    let p50 = median(&plain);
    out.set("router.edit_ms_p50", p50);
    out.set("http.overhead_ms", tcp_edit_p50 - p50);
    out.set(
        "registry.accounting_ratio",
        if pool_live > 0.0 {
            accounted / pool_live
        } else {
            0.0
        },
    );
    out.set(
        "trace.overhead_s",
        (traced.iter().sum::<f64>() - plain.iter().sum::<f64>()) / 1e3,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_core::EditSet;

    fn sent(reply: Reply) -> Sent {
        Sent {
            slot: Slot {
                due: 0.0,
                phase: 0,
                session: 0,
                seq: 0,
            },
            status: 200,
            latency_ms: 0.0,
            lateness_ms: 0.0,
            reply,
        }
    }

    /// A real edit response and a real report body from the service,
    /// each with one violation dropped, count as one failure each.
    #[test]
    fn verifier_counts_a_dropped_violation() {
        let tech = nmos();
        let options = CheckOptions::default();
        let chip = session_chip(3, 0);
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let mut oracle = CheckSession::new(layout, &tech, &options);
        let service = start_service(std::slice::from_ref(&chip)).unwrap();
        let (addr, id) = (service.server.addr, service.ids[0]);

        // A metal stub narrower than minimum width adds a violation.
        let mut edits = EditSet::new();
        edits.add_box("NM", Rect::new(-20000, -20000, -18000, -19300), None);
        let body = wire::edit_set_to_json(&edits, oracle.layout()).to_string();
        let old = oracle.report().violations.clone();
        oracle.apply(&edits).unwrap();
        let want = wire::violation_delta(&old, &oracle.report().violations);
        assert!(!want.0.is_empty(), "the stub must add a violation");
        let (status, reply) = http::request(
            addr,
            "POST",
            &format!("/sessions/{id}/edits"),
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        let edit = Prepared {
            kind: Kind::Edit {
                body,
                want: want.clone(),
            },
            apply_secs: 0.0,
            stats: None,
        };
        assert_eq!(
            response_failures(&sent(Reply::Edit(reply.clone())), &edit),
            0
        );
        let needle = serde_json::to_string(&serde_json::Value::from(want.0[0].as_str()));
        let text = String::from_utf8(reply).unwrap();
        let planted = if text.contains(&format!("{needle},")) {
            text.replacen(&format!("{needle},"), "", 1)
        } else {
            text.replacen(&needle, "", 1)
        };
        assert_eq!(
            response_failures(&sent(Reply::Edit(planted.into_bytes())), &edit),
            1
        );

        let (want, _) = verify::render_canonical(oracle.report().violations.clone());
        let (status, report) =
            http::request(addr, "GET", &format!("/sessions/{id}/report"), b"").unwrap();
        assert_eq!(status, 200);
        let read = Prepared {
            kind: Kind::Report {
                spill_budget: None,
                want,
            },
            apply_secs: 0.0,
            stats: None,
        };
        let got = crate::digest(&report);
        assert_eq!(response_failures(&sent(Reply::Report(got)), &read), 0);
        let text = String::from_utf8(report).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(lines.len() / 2);
        let planted = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let got = crate::digest(planted.as_bytes());
        assert_eq!(response_failures(&sent(Reply::Report(got)), &read), 1);
        service.server.stop().unwrap();
    }
}
