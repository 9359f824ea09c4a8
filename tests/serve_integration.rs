//! Integration tests of the serving layer, end-to-end over a real
//! loopback socket: canonical byte-identity of served sweeps, the result
//! cache, in-flight dedupe of concurrent duplicates, malformed-frame
//! resilience, persistent-world `FRAME` streams, the `FRAME`/`STATS` key
//! set against its golden list, and the closed-loop load generator's
//! measured hit-rate against its analytic expectation.

use spade::core::DataflowOptions;
use spade::nn::{DeltaPolicy, DeltaStats, FrameDeltaState, ModelKind, PruningConfig};
use spade::pointcloud::{DatasetPreset, DriveScenario, NamedScenario};
use spade_bench::dse::{run_dse_on_pool, DseParams, SweepAxes};
use spade_bench::loadgen::{expected_hit_rate, run_loadgen, zipf_weights, LoadgenConfig};
use spade_bench::protocol::{
    canonicalize_params, decode_request, encode_request, read_frame, write_frame, FrameRequest,
    Request, Response, MAX_DRIVE_FRAMES,
};
use spade_bench::serve::parse_stats_body;
use spade_bench::workload::model_run_on_frame_delta;
use spade_bench::{ServeConfig, Server, WorkerPool, WorkloadScale};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

/// A deliberately small sweep (4 configurations × 3 frames × 1 model)
/// that still takes long enough in a debug build for concurrent
/// duplicates to overlap in flight.
fn small_params() -> DseParams {
    let mut params = DseParams::default_for(WorkloadScale::Reduced);
    params.axes = SweepAxes {
        pe_dims: vec![(16, 16), (64, 64)],
        sram_scales: vec![0.5, 1.0],
        freq_ghz: vec![1.0],
        dram_bytes_per_cycle: vec![25.6],
        buffer_splits: vec![0.0],
        sram_banks: vec![spade::core::GATHER_SCATTER_LANES],
        dataflow: vec![DataflowOptions::all_enabled()],
    };
    params.num_frames = 3;
    params
}

/// The smallest useful sweep (1 configuration × 2 frames), for the
/// 200-request load-generator smoke.
fn tiny_params(seed_offset: u64) -> DseParams {
    let mut params = small_params();
    params.axes.pe_dims = vec![(32, 32)];
    params.axes.sram_scales = vec![1.0];
    params.num_frames = 2;
    params.base_seed += seed_offset;
    params
}

fn test_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        sweep_jobs: 2,
        budget_tokens: 2,
        cache_bytes: 8 * 1024 * 1024,
    })
    .expect("bind test server")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to test server");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn send(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, encode_request(request).as_bytes()).expect("send request");
    let reply = read_frame(stream)
        .expect("read response")
        .expect("server closed connection");
    Response::decode(std::str::from_utf8(&reply).expect("UTF-8 response")).expect("valid response")
}

fn stats(stream: &mut TcpStream) -> std::collections::HashMap<String, String> {
    match send(stream, &Request::Stats) {
        Response::Ok { body, .. } => parse_stats_body(&body),
        Response::Err(message) => panic!("STATS failed: {message}"),
    }
}

#[test]
fn served_sweep_is_byte_identical_to_direct_execution_and_caches() {
    let server = test_server();
    let mut client = connect(&server);

    // Spell the request in a scrambled axis order: the server must execute
    // the canonical form, so the reply matches a direct canonical run byte
    // for byte.
    let mut params = small_params();
    params.axes.pe_dims.reverse();
    params.axes.sram_scales.reverse();
    let direct = run_dse_on_pool(&canonicalize_params(&params), &WorkerPool::new(1)).to_csv();

    let cold = send(&mut client, &Request::Sweep(params.clone()));
    match &cold {
        Response::Ok { body, .. } => assert_eq!(body, &direct, "served CSV differs from direct"),
        Response::Err(message) => panic!("cold SWEEP failed: {message}"),
    }
    assert_eq!(cold.meta_field("hit"), Some("0"));

    // The warm repeat — spelled in yet another axis order — is a cache hit
    // with the identical body.
    let mut respelled = params.clone();
    respelled.models.push(respelled.models[0]); // duplicate, canonically equal
    let warm = send(&mut client, &Request::Sweep(respelled));
    match &warm {
        Response::Ok { body, .. } => assert_eq!(body, &direct),
        Response::Err(message) => panic!("warm SWEEP failed: {message}"),
    }
    assert_eq!(warm.meta_field("hit"), Some("1"));

    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_requested").map(String::as_str),
        Some("2")
    );
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some("1")
    );
    assert_eq!(counters.get("cache_hits").map(String::as_str), Some("1"));

    server.shutdown();
    server.join();
}

#[test]
fn served_adaptive_sweep_matches_direct_execution_and_exports_counters() {
    let server = test_server();
    let mut client = connect(&server);

    // An adaptive request with the new axes swept: the cold-path execution
    // goes through the screening explorer, and the reply must still be
    // byte-identical to a direct canonical adaptive run.
    let mut params = small_params();
    params.axes.buffer_splits = vec![0.0, 0.25, 0.75];
    params.axes.sram_banks = vec![spade::core::GATHER_SCATTER_LANES, 4];
    params.adaptive = true;
    let direct = run_dse_on_pool(&canonicalize_params(&params), &WorkerPool::new(1));

    let cold = send(&mut client, &Request::Sweep(params.clone()));
    match &cold {
        Response::Ok { body, .. } => {
            assert_eq!(body, &direct.to_csv(), "served adaptive CSV differs");
        }
        Response::Err(message) => panic!("adaptive SWEEP failed: {message}"),
    }
    assert_eq!(cold.meta_field("hit"), Some("0"));

    // The exhaustive spelling of the same grid keys a *different* cache
    // entry (its export bytes differ), so it executes rather than hits.
    params.adaptive = false;
    let exhaustive = send(&mut client, &Request::Sweep(params));
    assert_eq!(exhaustive.meta_field("hit"), Some("0"));

    // STATS aggregates the explorer's budget counters across executed
    // sweeps: the adaptive run screened some cells, the exhaustive run
    // contributed simulated cells only.
    let counters = stats(&mut client);
    let count = |key: &str| -> usize {
        counters
            .get(key)
            .unwrap_or_else(|| panic!("STATS missing {key}: {counters:?}"))
            .parse()
            .expect("numeric counter")
    };
    assert!(count("cells_screened") > 0);
    assert_eq!(
        count("cells_screened") + count("cells_simulated"),
        direct.cells.len() * 2,
        "both executed sweeps contribute their cells: {counters:?}"
    );
    assert!(count("frames_saved") >= count("cells_screened"));

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_identical_requests_execute_the_sweep_exactly_once() {
    const CLIENTS: usize = 4;
    let server = test_server();
    let params = small_params();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut bodies: Vec<(String, Option<String>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut client = connect(&server);
                let barrier = Arc::clone(&barrier);
                let params = params.clone();
                scope.spawn(move || {
                    barrier.wait();
                    match send(&mut client, &Request::Sweep(params)) {
                        Response::Ok { meta, body } => {
                            let hit = meta
                                .split(' ')
                                .find_map(|t| t.strip_prefix("hit="))
                                .map(str::to_owned);
                            (body, hit)
                        }
                        Response::Err(message) => panic!("SWEEP failed: {message}"),
                    }
                })
            })
            .collect();
        for handle in handles {
            bodies.push(handle.join().expect("client thread"));
        }
    });

    // Everyone got the same bytes...
    let reference = &bodies[0].0;
    assert!(!reference.is_empty());
    assert!(bodies.iter().all(|(body, _)| body == reference));
    // ...but the sweep ran once: the others either joined the in-flight
    // execution or (if they raced in after completion) hit the cache.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some("1"),
        "N identical concurrent requests must execute one sweep: {counters:?}"
    );
    assert_eq!(
        counters.get("sweeps_requested").map(String::as_str),
        Some(format!("{CLIENTS}").as_str())
    );

    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_get_error_replies_without_killing_the_server() {
    let server = test_server();
    let mut client = connect(&server);

    // Unknown verb.
    write_frame(&mut client, b"NUKE the grid").expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // Not even UTF-8.
    write_frame(&mut client, &[0xff, 0xfe, 0x00, 0x9f]).expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // Malformed SWEEP params.
    let sweep = send(
        &mut client,
        &Request::Sweep(small_params()), // control: well-formed works...
    );
    assert!(matches!(sweep, Response::Ok { .. }));
    write_frame(&mut client, b"SWEEP scale=banana").expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // A zero PE dimension would divide by zero in the cost model and take
    // the handler thread down with it; it must be refused up front.
    write_frame(
        &mut client,
        b"SWEEP scale=reduced;models=SPP2;frames=1;seed=1;profile=const;delta=0;\
          pe=0x8;sram=1;ghz=1;bpc=12.8;df=7",
    )
    .expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(
        matches!(&response, Response::Err(m) if m.contains("pe dimensions")),
        "{response:?}"
    );

    // The same connection still serves requests afterwards, and the error
    // count is visible in STATS.
    let pong = send(&mut client, &Request::Ping);
    assert!(matches!(pong, Response::Ok { .. }), "{pong:?}");
    let counters = stats(&mut client);
    assert_eq!(counters.get("errors").map(String::as_str), Some("4"));

    // Fresh connections are unaffected too.
    let mut second = connect(&server);
    assert!(matches!(
        send(&mut second, &Request::Ping),
        Response::Ok { .. }
    ));

    server.shutdown();
    server.join();
}

/// The FRAME reply a local run of the same stream must produce: the meta
/// line and the body, rendered here independently of the server.
fn expected_frame_reply(
    request: &FrameRequest,
    layers: usize,
    encoder_macs: u64,
    s: &DeltaStats,
) -> (String, String) {
    let meta = format!(
        "index={} delta={}",
        request.index,
        u8::from(s.frames_delta > 0)
    );
    let body = format!(
        "model={}\nframe={}/{}\nlayers={layers}\nencoder_macs={encoder_macs}\n\
         layers_reused={}\nlayers_patched={}\nlayers_full={}\nrows_swept={}\n\
         rows_full_equivalent={}",
        request.model.name(),
        request.index,
        request.frames,
        s.layers_reused,
        s.layers_patched,
        s.layers_full,
        s.rows_swept,
        s.rows_full_equivalent,
    );
    (meta, body)
}

/// One stream replayed locally: the whole drive from
/// `DriveScenario::frames` and the delta state, fed the indices in the
/// order the server received them.
struct LocalStream {
    frames: Vec<spade::pointcloud::DriveFrame>,
    state: FrameDeltaState,
}

impl LocalStream {
    fn new(request: &FrameRequest) -> Self {
        let drive = DriveScenario::new(
            DatasetPreset::kitti_like(),
            request.scenario.config(request.frames, request.seed),
        );
        Self {
            frames: drive.frames(),
            state: FrameDeltaState::new(DeltaPolicy::default()),
        }
    }

    fn reply(&mut self, request: &FrameRequest) -> (String, String) {
        let config = request.scenario.config(request.frames, request.seed);
        let run = model_run_on_frame_delta(
            request.model,
            &DatasetPreset::kitti_like(),
            &self.frames[request.index].frame,
            config.pruning_seed(request.index),
            request.scale,
            PruningConfig::default(),
            &mut self.state,
        );
        let stats = self.state.take_stats();
        expected_frame_reply(request, run.workloads.len(), run.encoder_macs, &stats)
    }
}

#[test]
fn frame_stream_matches_direct_delta_execution() {
    // Every named scenario streamed in order, then out of order (repeats
    // and backward steps), then restarted under the same drive id with a
    // new seed: each FRAME reply must equal the one rendered from a local
    // whole-drive run fed the same indices in the same order.
    const FRAMES: usize = 5;
    let server = test_server();
    let mut client = connect(&server);
    let in_order: Vec<usize> = (0..FRAMES).collect();
    let out_of_order = [3, 1, 1, 4, 0, 2];
    let after_restart = [2, 0, 4];
    let mut served = 0;
    let mut built = 0;
    let mut delta_frames = 0;
    for scenario in NamedScenario::ALL {
        let first = FrameRequest {
            drive: format!("veh-{scenario}"),
            scenario,
            model: ModelKind::Spp2,
            scale: WorkloadScale::Reduced,
            seed: 11,
            frames: FRAMES,
            index: 0,
        };
        let restarted = FrameRequest {
            seed: 12,
            ..first.clone()
        };
        let phases = [
            (&first, &in_order[..]),
            (&first, &out_of_order[..]),
            (&restarted, &after_restart[..]),
        ];
        let mut local = LocalStream::new(&first);
        for (phase, (stream, indices)) in phases.into_iter().enumerate() {
            if phase == 2 {
                local = LocalStream::new(stream);
            }
            for &index in indices {
                let request = FrameRequest {
                    index,
                    ..stream.clone()
                };
                let (meta, body) = local.reply(&request);
                delta_frames += u64::from(meta.ends_with("delta=1"));
                let response = send(&mut client, &Request::Frame(request));
                assert_eq!(
                    response,
                    Response::Ok { meta, body },
                    "{scenario} phase {phase} frame {index}"
                );
                served += 1;
            }
        }
        // Every distinct index of each drive was built once.
        built += FRAMES + after_restart.len();
    }
    assert!(
        delta_frames > 0,
        "some scenario should take the delta path at least once"
    );

    // Out-of-range index is an error, not a crash.
    let bad = send(
        &mut client,
        &Request::Frame(FrameRequest {
            drive: "veh-1".to_owned(),
            scenario: NamedScenario::Tunnel,
            model: ModelKind::Spp2,
            scale: WorkloadScale::Reduced,
            seed: 11,
            frames: FRAMES,
            index: FRAMES,
        }),
    );
    assert!(matches!(bad, Response::Err(_)), "{bad:?}");

    // The drained per-frame stats landed in the service-wide aggregate, and
    // each stream built each frame it served once.
    let counters = stats(&mut client);
    let counter = |key: &str| -> usize {
        counters
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{key} in STATS"))
    };
    assert_eq!(counter("delta_frames_total"), served);
    assert_eq!(counter("stream_frames_built"), built);

    server.shutdown();
    server.join();
}

/// A stream builds each frame on its first request and keeps it: an
/// in-order 16-frame drive builds 16 frames however often they are asked
/// for, and the first FRAME of the longest drive a request may name builds
/// one frame, not the whole drive.
#[test]
fn frame_streams_build_each_frame_on_first_request() {
    const FRAMES: usize = 16;
    let server = test_server();
    let mut client = connect(&server);
    let request = FrameRequest {
        drive: "veh-built".to_owned(),
        scenario: NamedScenario::StopAndGo,
        model: ModelKind::Spp2,
        scale: WorkloadScale::Reduced,
        seed: 5,
        frames: FRAMES,
        index: 0,
    };
    for index in (0..FRAMES).chain([3, 15, 0]) {
        let response = send(
            &mut client,
            &Request::Frame(FrameRequest {
                index,
                ..request.clone()
            }),
        );
        assert!(matches!(response, Response::Ok { .. }), "{response:?}");
    }
    assert_eq!(
        stats(&mut client)["stream_frames_built"],
        FRAMES.to_string()
    );

    let longest = send(
        &mut client,
        &Request::Frame(FrameRequest {
            drive: "veh-longest".to_owned(),
            frames: MAX_DRIVE_FRAMES,
            ..request
        }),
    );
    assert!(matches!(longest, Response::Ok { .. }), "{longest:?}");
    assert_eq!(
        stats(&mut client)["stream_frames_built"],
        (FRAMES + 1).to_string()
    );

    server.shutdown();
    server.join();
}

/// The `key=` lines of a FRAME reply and a STATS reply together are exactly
/// the committed key list, so a renamed, added, or dropped key shows up as
/// a diff against `tests/golden/stats_keys.txt`.
#[test]
fn frame_and_stats_keys_match_the_golden_list() {
    let server = test_server();
    let mut client = connect(&server);
    let frame = send(
        &mut client,
        &Request::Frame(FrameRequest {
            drive: "veh-keys".to_owned(),
            scenario: NamedScenario::Tunnel,
            model: ModelKind::Spp2,
            scale: WorkloadScale::Reduced,
            seed: 3,
            frames: 2,
            index: 0,
        }),
    );
    let Response::Ok { body, .. } = &frame else {
        panic!("FRAME failed: {frame:?}");
    };
    let mut served: BTreeSet<String> = parse_stats_body(body).into_keys().collect();
    served.extend(stats(&mut client).into_keys());

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats_keys.txt");
    let golden: BTreeSet<String> = std::fs::read_to_string(golden_path)
        .expect("tests/golden/stats_keys.txt is committed")
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_owned)
        .collect();
    assert_eq!(
        served.difference(&golden).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "served keys missing from the golden list"
    );
    assert_eq!(
        golden.difference(&served).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "golden keys the server no longer sends"
    );

    server.shutdown();
    server.join();
}

/// Regression test for the admission/stats lock ordering: concurrent
/// `FRAME` requests for the *same* drive used to take the global state
/// lock and the per-stream lock in opposite orders, wedging every handler
/// thread. All clients hammer one (drive, model) key at once; the test
/// passing at all (rather than hanging) is the assertion that matters.
#[test]
fn concurrent_frames_for_the_same_drive_do_not_deadlock() {
    const CLIENTS: usize = 4;
    const FRAMES: usize = 4;
    let server = test_server();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let server = &server;
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = connect(server);
                barrier.wait();
                for index in 0..FRAMES {
                    let response = send(
                        &mut client,
                        &Request::Frame(FrameRequest {
                            drive: "shared-drive".to_owned(),
                            scenario: NamedScenario::Tunnel,
                            model: ModelKind::Spp2,
                            scale: WorkloadScale::Reduced,
                            seed: 7,
                            frames: FRAMES,
                            index,
                        }),
                    );
                    assert!(
                        matches!(response, Response::Ok { .. }),
                        "client {client_id} frame {index}: {response:?}"
                    );
                }
            });
        }
    });

    // Every request landed on the one shared stream.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("frames_served").map(String::as_str),
        Some(format!("{}", CLIENTS * FRAMES).as_str())
    );
    assert_eq!(counters.get("streams").map(String::as_str), Some("1"));

    server.shutdown();
    server.join();
}

#[test]
fn loadgen_hit_rate_matches_the_zipfian_analytic_expectation() {
    const REQUESTS: usize = 200;
    const CATALOG: usize = 5;
    const ZIPF: f64 = 1.0;
    let server = test_server();

    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: 1, // sequential: every repeat is a true cache hit
        requests: REQUESTS,
        catalog: (0..CATALOG as u64).map(tiny_params).collect(),
        zipf_exponent: ZIPF,
        seed: 42,
    };
    let report = run_loadgen(&config).expect("loadgen run");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(report.errors, 0);

    let expected = expected_hit_rate(&zipf_weights(CATALOG, ZIPF), REQUESTS);
    assert!(
        (report.hit_rate - expected).abs() < 0.05,
        "measured hit-rate {:.3} vs analytic {expected:.3}",
        report.hit_rate
    );
    // Warm requests are served from memory; cold ones execute a sweep. Even
    // in a debug build the gap is at least an order of magnitude, so a lax
    // ordering assertion is safe.
    assert!(
        report.warm_p99_ms < report.cold_p50_ms,
        "warm p99 {:.3} ms should undercut cold p50 {:.3} ms",
        report.warm_p99_ms,
        report.cold_p50_ms
    );

    // The server agrees: exactly CATALOG sweeps executed, the rest hits.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some(format!("{CATALOG}").as_str())
    );

    server.shutdown();
    server.join();
}

/// The PR-8 join reconciliation: under concurrency the dedupe path converts
/// would-be cache hits into in-flight joins (`join=1`), which used to drag
/// the measured hit-rate below the analytic expectation by exactly the join
/// count. Counting joins as warm, the identity is exact: warm requests =
/// requests − sweeps the server actually executed, whatever the
/// interleaving, so the warm rate matches the analytic expectation to the
/// same tolerance as the sequential test.
#[test]
fn loadgen_warm_rate_counts_joins_under_concurrency() {
    const REQUESTS: usize = 200;
    const CATALOG: usize = 5;
    const ZIPF: f64 = 1.0;
    let server = test_server();

    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: 4, // concurrent: repeats may hit the cache OR join
        requests: REQUESTS,
        catalog: (0..CATALOG as u64).map(tiny_params).collect(),
        zipf_exponent: ZIPF,
        seed: 42,
    };
    let report = run_loadgen(&config).expect("loadgen run");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(report.errors, 0);

    let expected = expected_hit_rate(&zipf_weights(CATALOG, ZIPF), REQUESTS);
    assert!(
        (report.hit_rate - expected).abs() < 0.05,
        "measured warm rate {:.3} (joins {}) vs analytic {expected:.3}",
        report.hit_rate,
        report.joined
    );

    // Exact ledger: every request either executed a sweep or was warm.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    let executed: usize = counters
        .get("sweeps_executed")
        .expect("stats carry sweeps_executed")
        .parse()
        .expect("numeric counter");
    let warm = (report.hit_rate * REQUESTS as f64).round() as usize;
    assert_eq!(
        warm,
        REQUESTS - executed,
        "warm count must equal requests minus executed sweeps (joins {})",
        report.joined
    );

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_verb_stops_the_server_cleanly() {
    let server = test_server();
    let mut client = connect(&server);
    // A request first, so shutdown happens on a warmed-up server.
    assert!(matches!(
        send(&mut client, &Request::Ping),
        Response::Ok { .. }
    ));
    let bye = send(&mut client, &Request::Shutdown);
    assert!(matches!(bye, Response::Ok { .. }), "{bye:?}");
    // join() returns because every handler thread observes the flag.
    server.join();
}

#[test]
fn request_encoding_round_trips_over_the_public_surface() {
    // Belt-and-braces for the binaries: the exact request the loadgen
    // sends parses back to itself (the property tests fuzz this; here it
    // guards the re-exported API shape).
    let request = Request::Sweep(tiny_params(3));
    let encoded = encode_request(&request);
    assert_eq!(decode_request(&encoded).expect("decode"), request);
}
