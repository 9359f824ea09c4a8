//! The `serve-stream` workload: an in-process `spade-serve` driven open
//! loop at a fixed offered rate.
//!
//! Two clients, each with one connection and one thread, send requests on a
//! fixed schedule whether or not earlier replies have arrived; a request's
//! latency runs from its scheduled send time, so a stall also counts
//! against the requests queued behind it:
//!
//! * the stream client sends `FRAME` requests that advance persistent
//!   stop-and-go and urban drive streams, round robin. One connection
//!   carries them all, so each stream's frames reach the server's
//!   `FrameDeltaState` in order;
//! * the sweep client sends `SWEEP` requests with Zipfian ranks over a
//!   catalog of reduced sweeps larger than the result cache: most hit, a
//!   steady minority miss, evict and execute.
//!
//! After the timed window every reply is checked: each `SWEEP` body against
//! a local `run_dse_on_pool` of the canonical params, each `FRAME` body
//! against a local delta-path execution of the same stream. `sweep_s` is
//! the mean service time of the `SWEEP`s the server executed (misses),
//! spread over the whole window.

use crate::common::{fnv1a, mean, median, ms, peak_rss_mib, setup_s, tail, timed, Outcome};
use crate::replay::{preset_for, replay, Counts};
use crate::sweep::{set_exec_counts, set_result_counts};
use crate::trace::Tracer;
use spade_bench::loadgen::request_sequence;
use spade_bench::protocol::{encode_request, read_frame, write_frame};
use spade_bench::serve::parse_stats_body;
use spade_bench::workload::{model_run_on_frame, model_run_on_frame_delta, WorkloadScale};
use spade_bench::{
    canonicalize_params, run_dse_on_pool, DseParams, FrameRequest, Request, Response, ServeConfig,
    Server, WorkerPool,
};
use spade_nn::{DeltaPolicy, DeltaStats, FrameDeltaState, ModelKind, PruningConfig};
use spade_pointcloud::{DriveScenario, NamedScenario};
use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered load, requests per second, of the stream and the sweep client.
const FRAME_RPS: f64 = 40.0;
const SWEEP_RPS: f64 = 20.0;
/// Latency limits per verb, from the scheduled send time.
const SWEEP_SLO_MS: f64 = 250.0;
const FRAME_SLO_MS: f64 = 100.0;
/// Connection (and client thread) of each verb.
const FRAME_CONN: usize = 0;
const SWEEP_CONN: usize = 1;
const CONNECTIONS: usize = 2;
/// Distinct sweeps the `SWEEP` ranks draw from, and their Zipf exponent.
const CATALOG: usize = 32;
const ZIPF_EXPONENT: f64 = 1.1;
/// Result-cache bound: a fraction of the catalog's total export size.
const CACHE_BYTES: usize = 96 * 1024;
/// Hottest catalog ranks requested during set-up.
const PRIMED_RANKS: usize = 6;
/// Frames per drive stream; a stream that reaches the end starts over.
const STREAM_FRAMES: usize = 16;
const SETUP_REPS: usize = 5;

/// The stream identities.
const STREAMS: [(&str, NamedScenario); 8] = [
    ("stop-and-go-a", NamedScenario::StopAndGo),
    ("urban-a", NamedScenario::Urban),
    ("stop-and-go-b", NamedScenario::StopAndGo),
    ("urban-b", NamedScenario::Urban),
    ("stop-and-go-c", NamedScenario::StopAndGo),
    ("urban-c", NamedScenario::Urban),
    ("stop-and-go-d", NamedScenario::StopAndGo),
    ("urban-d", NamedScenario::Urban),
];

#[derive(Clone, Copy)]
enum Op {
    Sweep(usize),
    Frame { stream: usize, index: usize },
}

/// Everything the run sends, generated from the seed.
struct Plan {
    catalog: Vec<DseParams>,
    streams: Vec<FrameRequest>,
    /// Per connection: `(due offset in seconds, op)` in send order.
    schedule: Vec<Vec<(f64, Op)>>,
}

fn catalog(seed: u64) -> Vec<DseParams> {
    (0..CATALOG)
        .map(|k| {
            let mut p = DseParams::default_for(WorkloadScale::Reduced);
            p.base_seed = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            p.num_frames = 3;
            p
        })
        .collect()
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let streams = STREAMS
        .iter()
        .enumerate()
        .map(|(k, &(drive, scenario))| FrameRequest {
            drive: drive.to_owned(),
            scenario,
            model: ModelKind::Spp2,
            scale: WorkloadScale::Reduced,
            seed: seed.wrapping_mul(31).wrapping_add(k as u64),
            frames: STREAM_FRAMES,
            index: 0,
        })
        .collect();
    // Frame 0 of every stream is sent during set-up.
    let frames = (FRAME_RPS * seconds).ceil() as usize;
    let frame_ops = (0..frames)
        .map(|j| {
            let stream = j % STREAMS.len();
            let index = (1 + j / STREAMS.len()) % STREAM_FRAMES;
            ((j as f64 + 0.5) / FRAME_RPS, Op::Frame { stream, index })
        })
        .collect();
    let sweeps = (SWEEP_RPS * seconds).ceil() as usize;
    let sweep_ops = request_sequence(CATALOG, sweeps, ZIPF_EXPONENT, seed)
        .into_iter()
        .enumerate()
        .map(|(j, rank)| ((j as f64 + 0.25) / SWEEP_RPS, Op::Sweep(rank)))
        .collect();
    let mut schedule = vec![Vec::new(); CONNECTIONS];
    schedule[FRAME_CONN] = frame_ops;
    schedule[SWEEP_CONN] = sweep_ops;
    Plan {
        catalog: catalog(seed),
        streams,
        schedule,
    }
}

fn request(plan: &Plan, op: Op) -> Request {
    match op {
        Op::Sweep(rank) => Request::Sweep(plan.catalog[rank].clone()),
        Op::Frame { stream, index } => Request::Frame(FrameRequest {
            index,
            ..plan.streams[stream].clone()
        }),
    }
}

fn call(conn: &mut TcpStream, payload: &str) -> Result<Response, String> {
    write_frame(conn, payload.as_bytes()).map_err(|e| e.to_string())?;
    let reply = read_frame(conn)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_owned())?;
    Response::decode(std::str::from_utf8(&reply).map_err(|e| e.to_string())?)
}

fn stats(conn: &mut TcpStream) -> HashMap<String, String> {
    match call(conn, &encode_request(&Request::Stats)) {
        Ok(Response::Ok { body, .. }) => parse_stats_body(&body),
        _ => HashMap::new(),
    }
}

struct Live {
    server: Option<Server>,
    conns: Vec<TcpStream>,
    /// Frame-0 bodies of the priming requests, per stream.
    primed: Vec<String>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Boots the server, connects, generates every stream's drive (its first
/// frame) and primes the cache with the hottest sweeps.
fn setup(plan: &Plan) -> std::io::Result<Live> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: CONNECTIONS,
        sweep_jobs: 1,
        budget_tokens: 0,
        cache_bytes: CACHE_BYTES,
    })?;
    let addr = server.local_addr();
    let mut live = Live {
        server: Some(server),
        conns: Vec::new(),
        primed: Vec::new(),
    };
    for _ in 0..CONNECTIONS {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        live.conns.push(conn);
    }
    for stream in &plan.streams {
        let payload = encode_request(&Request::Frame(stream.clone()));
        let body = match call(&mut live.conns[FRAME_CONN], &payload) {
            Ok(Response::Ok { body, .. }) => body,
            other => return Err(std::io::Error::other(format!("priming FRAME: {other:?}"))),
        };
        live.primed.push(body);
    }
    for rank in 0..PRIMED_RANKS {
        let payload = encode_request(&Request::Sweep(plan.catalog[rank].clone()));
        if !matches!(
            call(&mut live.conns[SWEEP_CONN], &payload),
            Ok(Response::Ok { .. })
        ) {
            return Err(std::io::Error::other("priming SWEEP failed"));
        }
    }
    Ok(live)
}

/// One request's outcome.
struct Sample {
    op: Op,
    due_s: f64,
    latency_ms: f64,
    /// From the actual send, i.e. without the generator's lag.
    service_ms: f64,
    lag_ms: f64,
    traced: bool,
    reply: Result<Reply, String>,
}

/// A successful reply: whether it executed nothing (a cache hit or an
/// in-flight join), and its body.
struct Reply {
    warm: bool,
    body: Body,
}

/// `SWEEP` bodies are kept as digests (the CSVs are large), `FRAME` bodies
/// as text.
enum Body {
    Digest(u64),
    Text(String),
}

/// Sends one connection's schedule, open loop.
fn drive_connection(
    conn: &mut TcpStream,
    plan: &Plan,
    schedule: &[(f64, Op)],
    start: Instant,
    trace_from_s: Option<f64>,
    id_base: u64,
) -> (Vec<Sample>, Tracer) {
    let mut tr = Tracer::new(false);
    let mut samples = Vec::with_capacity(schedule.len());
    for (j, &(due_s, op)) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let traced = trace_from_s.is_some_and(|t| due_s >= t);
        tr.set_enabled(traced);
        let req = request(plan, op);
        let id = id_base + j as u64;
        let sent = Instant::now();
        tr.enter("serve.request", id);
        let payload = tr.span("protocol.encode", id, || encode_request(&req));
        let reply = write_frame(conn, payload.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|()| {
                read_frame(conn)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "server closed the connection".to_owned())
            })
            .and_then(|bytes| {
                let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                tr.span("protocol.decode", id, || Response::decode(&text))
            });
        tr.exit();
        let done = Instant::now();
        let reply = reply.and_then(|response| {
            let warm =
                response.meta_field("hit") == Some("1") || response.meta_field("join") == Some("1");
            match response {
                Response::Err(message) => Err(message),
                Response::Ok { body, .. } => Ok(Reply {
                    warm,
                    body: match op {
                        Op::Sweep(_) => Body::Digest(fnv1a(body.as_bytes())),
                        Op::Frame { .. } => Body::Text(body),
                    },
                }),
            }
        });
        samples.push(Sample {
            op,
            due_s,
            latency_ms: ms(done.saturating_duration_since(due)),
            service_ms: ms(done - sent),
            lag_ms: ms(sent.saturating_duration_since(due)),
            traced,
            reply,
        });
    }
    (samples, tr)
}

/// The FRAME body the server renders, rebuilt from a local execution.
fn frame_body(req: &FrameRequest, layers: usize, encoder_macs: u64, s: &DeltaStats) -> String {
    format!(
        "model={}\nframe={}/{}\nlayers={layers}\nencoder_macs={encoder_macs}\nlayers_reused={}\nlayers_patched={}\nlayers_full={}\nrows_swept={}\nrows_full_equivalent={}",
        req.model.name(),
        req.index,
        req.frames,
        s.layers_reused,
        s.layers_patched,
        s.layers_full,
        s.rows_swept,
        s.rows_full_equivalent,
    )
}

/// Whether the generator fell behind more and more over the window: the
/// mean lag of the last quarter of a connection's requests well above
/// that of the first quarter.
fn backlog_grew(samples: &[Sample]) -> bool {
    let quarter = samples.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |s: &[Sample]| s.iter().map(|x| x.lag_ms).sum::<f64>() / s.len() as f64;
    let (first, last) = (
        mean(&samples[..quarter]),
        mean(&samples[samples.len() - quarter..]),
    );
    last > 2.0 * first + 25.0
}

fn counter(before: &HashMap<String, String>, after: &HashMap<String, String>, key: &str) -> f64 {
    let get = |m: &HashMap<String, String>| {
        m.get(key)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    get(after) - get(before)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> std::io::Result<(Outcome, Tracer)> {
    let plan = plan(seed, seconds);
    let mut out = Outcome::default();
    let (live, first_setup_s) = timed(|| setup(&plan));
    let mut live = live?;
    let stats_before = stats(&mut live.conns[FRAME_CONN]);

    // The timed window: one thread per connection.
    let trace_from_s = traced.then_some(seconds / 3.0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut conns = std::mem::take(&mut live.conns);
    let clients: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan.schedule)
            .enumerate()
            .map(|(c, (conn, schedule))| {
                let plan = &plan;
                scope.spawn(move || {
                    drive_connection(conn, plan, schedule, start, trace_from_s, (c as u64) << 32)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    live.conns = conns;
    let stats_after = stats(&mut live.conns[FRAME_CONN]);
    let primed = std::mem::take(&mut live.primed);
    drop(live);
    out.set("peak_rss_mib", peak_rss_mib(), "MiB");

    let mut tr = Tracer::new(traced);
    let mut samples: Vec<Sample> = Vec::new();
    for (conn_samples, conn_tr) in clients {
        if backlog_grew(&conn_samples) {
            out.invalid = Some("the open-loop backlog grew over the run".to_owned());
        }
        samples.extend(conn_samples);
        tr.absorb(conn_tr);
    }
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));

    // SWEEP checks: one local reference per distinct sweep served, which
    // every body served for it must match.
    let pool = WorkerPool::new(1);
    let mut reference: BTreeMap<usize, u64> = BTreeMap::new();
    let mut results = Vec::new();
    let mut counts = Counts::default();
    for s in &samples {
        let Op::Sweep(rank) = s.op else { continue };
        if reference.contains_key(&rank) {
            continue;
        }
        let canonical = canonicalize_params(&plan.catalog[rank]);
        let req = 1u64 << 48 | rank as u64;
        let result = tr.span("sweep.run_dse_on_pool", req, || {
            run_dse_on_pool(&canonical, &pool)
        });
        let csv = tr.span("dse.to_csv", req, || result.to_csv());
        if traced {
            tr.span("dse.to_json", req, || result.to_json());
            tr.enter("bench.replay", req);
            counts.add(&replay(&canonical, &result, &mut tr, req));
            tr.exit();
        }
        reference.insert(rank, fnv1a(csv.as_bytes()));
        results.push(result);
    }

    let mut failure: Vec<Option<String>> = samples
        .iter()
        .map(|s| s.reply.as_ref().err().cloned())
        .collect();
    for (s, fail) in samples.iter().zip(&mut failure) {
        if let (
            Op::Sweep(rank),
            Ok(Reply {
                body: Body::Digest(digest),
                ..
            }),
        ) = (s.op, &s.reply)
        {
            if reference.get(&rank) != Some(digest) {
                *fail = Some(format!(
                    "SWEEP rank {rank} body differs from the local sweep"
                ));
            }
        }
    }
    // FRAME checks: each stream re-executed locally, in the order served.
    let mut delta_stats = DeltaStats::default();
    let (mut full_ms, mut delta_ms) = (0.0, 0.0);
    for (k, stream) in plan.streams.iter().enumerate() {
        let preset = preset_for(stream.model);
        let cfg = stream.scenario.config(stream.frames, stream.seed);
        let scenario = DriveScenario::new(preset.clone(), cfg.clone());
        let req = 2u64 << 48 | k as u64;
        let frames = tr.span("pointcloud.frames", req, || scenario.frames());
        counts.frames += frames.len() as u64;
        counts.active_pillars += frames
            .iter()
            .map(|f| f.frame.pillars.active_coords.len() as u64)
            .sum::<u64>();
        let mut state = FrameDeltaState::new(DeltaPolicy::default());
        // The priming request (frame 0, no sample), then the window's.
        let served =
            std::iter::once((None, 0)).chain(samples.iter().enumerate().filter_map(|(i, s)| {
                match s.op {
                    Op::Frame { stream, index } if stream == k => Some((Some(i), index)),
                    _ => None,
                }
            }));
        for (sample, index) in served {
            let frame = &frames[index].frame;
            let seed = cfg.pruning_seed(index);
            let t = Instant::now();
            let run = tr.span("nn.model_run_on_frame_delta", req, || {
                model_run_on_frame_delta(
                    stream.model,
                    &preset,
                    frame,
                    seed,
                    stream.scale,
                    PruningConfig::default(),
                    &mut state,
                )
            });
            delta_ms += ms(t.elapsed());
            counts.add_run(&run);
            let frame_stats = state.take_stats();
            delta_stats.merge(&frame_stats);
            let expected = frame_body(
                &FrameRequest {
                    index,
                    ..stream.clone()
                },
                run.workloads.len(),
                run.encoder_macs,
                &frame_stats,
            );
            if traced {
                // Delta-path accounting: the same frame through the full path.
                let t = Instant::now();
                tr.span("nn.model_run_on_frame.full_path", req, || {
                    model_run_on_frame(
                        stream.model,
                        &preset,
                        frame,
                        seed,
                        stream.scale,
                        PruningConfig::default(),
                    )
                });
                full_ms += ms(t.elapsed());
            }
            match sample {
                None if primed[k] != expected => {
                    out.invalid = Some(format!(
                        "priming FRAME of stream {k} differs from the local run"
                    ));
                }
                None => {}
                Some(i) => {
                    if let Ok(reply) = &samples[i].reply {
                        if !matches!(&reply.body, Body::Text(body) if *body == expected) {
                            failure[i] = Some(format!(
                                "FRAME {index} of stream {k} differs from the local run"
                            ));
                        }
                    }
                }
            }
        }
    }

    // End-to-end figures.
    let limit = |op: Op| match op {
        Op::Sweep(_) => SWEEP_SLO_MS,
        Op::Frame { .. } => FRAME_SLO_MS,
    };
    let latencies = |pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.latency_ms)
            .collect()
    };
    let is_frame = |s: &Sample| matches!(s.op, Op::Frame { .. });
    out.attempted = samples.len() as u64;
    out.failed = failure.iter().filter(|f| f.is_some()).count() as u64;
    if let Some((i, reason)) = failure
        .iter()
        .enumerate()
        .find_map(|(i, f)| Some((i, f.as_ref()?)))
    {
        out.note(format!("first failure (request {i}): {reason}"));
    }
    let slo_missed = samples
        .iter()
        .zip(&failure)
        .filter(|(s, f)| f.is_some() || s.latency_ms > limit(s.op))
        .count();
    let all = latencies(&|_| true);
    let frame_lat = latencies(&is_frame);
    // A traced run reports no set-up time: it skips the repetitions.
    let extra_setups = if traced { 0 } else { SETUP_REPS - 1 };
    out.set(
        "setup_s",
        setup_s(first_setup_s, extra_setups, || setup(&plan)),
        "s",
    );
    // The server runs `run_dse_on_pool` (and the CSV export) for every
    // SWEEP that neither hit nor joined.
    let executed: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.op, Op::Sweep(_)) && s.reply.as_ref().is_ok_and(|r| !r.warm))
        .map(|s| s.service_ms)
        .collect();
    out.set("sweep_s", mean(&executed) / 1e3, "s");
    out.set("req_p50_ms", median(&all), "ms");
    out.set("req_p99_ms", tail(&all), "ms");
    out.set("frame_p99_ms", tail(&frame_lat), "ms");
    out.set(
        "slo_miss_ratio",
        slo_missed as f64 / samples.len().max(1) as f64,
        "ratio",
    );
    let lag_max = samples.iter().map(|s| s.lag_ms).fold(0.0, f64::max);
    out.note(format!(
        "{} requests ({} FRAME) open loop, FRAME {FRAME_RPS} req/s and SWEEP {SWEEP_RPS} req/s on one connection each; limits SWEEP {SWEEP_SLO_MS} ms, FRAME {FRAME_SLO_MS} ms; generator lag max {lag_max:.3} ms; sweep_s over {} executed SWEEPs",
        samples.len(),
        frame_lat.len(),
        executed.len()
    ));

    // Per-layer figures (traced run): service-side latencies and counters,
    // then the layers the reference pass attributes.
    let sweep_lat = |hit: bool| {
        latencies(&|s| {
            matches!(s.op, Op::Sweep(_)) && s.reply.as_ref().is_ok_and(|r| r.warm == hit)
        })
    };
    out.set("serve.sweep_hit_p50_ms", median(&sweep_lat(true)), "ms");
    out.set("serve.sweep_miss_p50_ms", median(&sweep_lat(false)), "ms");
    out.set("serve.frame_p50_ms", median(&frame_lat), "ms");
    out.set("loadgen.lag_ms_max", lag_max, "ms");
    let requested = counter(&stats_before, &stats_after, "sweeps_requested");
    out.set(
        "serve.cache_hit_rate",
        counter(&stats_before, &stats_after, "cache_hits") / requested.max(1.0),
        "ratio",
    );
    for (metric, key) in [
        ("serve.sweeps_executed", "sweeps_executed"),
        ("serve.dedup_joined", "dedup_joined"),
        ("serve.frames_served", "frames_served"),
        ("serve.errors", "errors"),
    ] {
        out.set(metric, counter(&stats_before, &stats_after, key), "count");
    }
    if !traced {
        return Ok((out, tr));
    }
    let traced_lat = latencies(&|s| s.traced);
    let untraced_lat = latencies(&|s| !s.traced);
    out.set(
        "trace.overhead_ms",
        median(&traced_lat) - median(&untraced_lat),
        "ms",
    );
    let per_name =
        tr.per_req()
            .into_values()
            .fold(BTreeMap::<&str, (f64, u64)>::new(), |mut acc, names| {
                for (name, (t, n)) in names {
                    let slot = acc.entry(name).or_default();
                    slot.0 += t;
                    slot.1 += n;
                }
                acc
            });
    let total = |pred: &dyn Fn(&str) -> bool| -> f64 {
        per_name
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, (t, _))| t)
            .sum()
    };
    let codec_ms = total(&|n| n.starts_with("protocol."));
    out.set(
        "protocol.codec_us",
        codec_ms * 1e3 / traced_lat.len().max(1) as f64,
        "us",
    );
    let replay_exec = total(&|n| n == "nn.model_run_on_frame");
    let exec = replay_exec + delta_ms;
    let core = total(&|n| n.starts_with("core."));
    let attributed = total(&|n| {
        [
            "pointcloud.generate",
            "pointcloud.annotate",
            "core.",
            "baselines.",
            "adaptive.",
            "dse.pareto",
        ]
        .iter()
        .any(|p| n.starts_with(p))
    }) + replay_exec;
    out.set(
        "pointcloud.drive_ms",
        total(&|n| n.starts_with("pointcloud.")),
        "ms",
    );
    out.set("pointcloud.frames", counts.frames as f64, "count");
    out.set(
        "pointcloud.active_pillars",
        counts.active_pillars as f64,
        "count",
    );
    out.set("nn.exec_ms", exec, "ms");
    out.set(
        "nn.exec_ms_per_frame",
        exec / per_name
            .get("nn.model_run_on_frame_delta")
            .map_or(1, |p| p.1)
            .max(1) as f64,
        "ms",
    );
    set_exec_counts(&mut out, &counts);
    out.set(
        "nn.delta.frames_patched",
        delta_stats.frames_delta as f64,
        "count",
    );
    out.set(
        "nn.delta.rows_swept",
        delta_stats.rows_swept as f64,
        "count",
    );
    out.set(
        "nn.delta.rows_full_equivalent",
        delta_stats.rows_full_equivalent as f64,
        "count",
    );
    out.set(
        "nn.delta.useful_ratio",
        delta_stats.frames_delta as f64 / delta_stats.frames_total.max(1) as f64,
        "ratio",
    );
    out.set("nn.delta.host_ratio", full_ms / delta_ms.max(1e-9), "ratio");
    out.set(
        "nn.delta.modelled_speedup",
        delta_stats.modelled_speedup(),
        "ratio",
    );
    out.set("core.sim_ms", core, "ms");
    out.set(
        "baselines.sim_ms",
        total(&|n| n.starts_with("baselines.")),
        "ms",
    );
    out.set("core.sim_calls", counts.core_calls as f64, "count");
    out.set("baselines.sim_calls", counts.baseline_calls as f64, "count");
    out.set(
        "core.sim_us_per_call",
        core * 1e3 / counts.core_calls.max(1) as f64,
        "us",
    );
    out.set(
        "adaptive.bound_ms",
        total(&|n| n.starts_with("adaptive.")),
        "ms",
    );
    set_result_counts(&mut out, &results.iter().collect::<Vec<_>>());
    out.set(
        "dse.frontier_ms",
        total(&|n| n == "dse.pareto_frontier"),
        "ms",
    );
    out.set(
        "dse.export_ms",
        total(&|n| n == "dse.to_csv" || n == "dse.to_json"),
        "ms",
    );
    out.set(
        "dse.export_bytes",
        results
            .iter()
            .map(|r| r.to_csv().len() + r.to_json().len())
            .sum::<usize>() as f64,
        "bytes",
    );
    out.set(
        "dse.unattributed_ms",
        total(&|n| n == "sweep.run_dse_on_pool") - attributed,
        "ms",
    );
    out.note(format!(
        "per-layer times are totals over the reference pass ({} sweeps replayed, {} stream frames re-executed)",
        results.len(),
        per_name.get("nn.model_run_on_frame_delta").map_or(0, |p| p.1)
    ));
    Ok((out, tr))
}
