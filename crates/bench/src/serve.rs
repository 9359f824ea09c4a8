//! `spade-serve`: a dependency-free request loop that serves DSE sweeps
//! and streamed persistent-world drives over TCP.
//!
//! The ROADMAP's north star is SPADE under *service* conditions — many
//! clients sharing one simulation host — and this module is that serving
//! layer, built entirely on `std` (the container vendors no async runtime):
//!
//! * **Thread-per-core accept loop.** [`Server::start`] binds a
//!   non-blocking [`TcpListener`] and spawns `threads` handler threads
//!   that each poll `accept` and then own their connection until EOF.
//!   Requests and responses travel as [`crate::protocol`] length-prefixed
//!   frames; a malformed frame earns an `ERR` reply and the connection
//!   lives on.
//! * **Canonical execution.** A `SWEEP` request is rewritten into its
//!   canonical form ([`crate::protocol::canonicalize_params`]) before
//!   anything else, so every axis-order spelling of the same sweep shares
//!   one cache entry, one in-flight slot, and one byte-exact CSV result
//!   (identical to a direct [`run_dse_on_pool`] of the canonical params).
//! * **In-flight dedupe + LRU result cache.** The first requester of a
//!   key executes the sweep; concurrent duplicates park on a [`Condvar`]
//!   and receive the same result (`deduped=1`). Completed results land in
//!   a byte-bounded LRU cache (`hit=1` on re-request).
//! * **Bounded parallelism.** Every sweep runs on a
//!   [`WorkerPool::with_budget`] over one shared [`ConcurrencyBudget`],
//!   so N concurrent sweeps cannot oversubscribe the host: total extra
//!   threads stay ≤ budget tokens, and each caller always makes inline
//!   progress (a zero-token budget degrades to serial execution).
//! * **Persistent-world streams.** A `FRAME` request advances one drive
//!   one frame through a per-`(drive, model)` [`FrameDeltaState`], the
//!   temporal-delta path — each frame runs the full sweep, and the state
//!   counts the rows an RGU would re-sweep against the stream's previous
//!   frame. Per-frame [`DeltaStats`] are drained into the service-wide
//!   aggregate that `STATS` reports.
//!
//! [`spade_nn::FrameDeltaState`]: FrameDeltaState

use crate::dse::{run_dse_on_pool, DseParams};
use crate::pool::{ConcurrencyBudget, WorkerPool};
use crate::protocol::{
    canonicalize_params, encode_params, write_frame, FrameRequest, Request, Response,
};
use crate::workload::model_run_on_frame_delta;
use spade_nn::{DeltaPolicy, DeltaStats, FrameDeltaState, ModelKind, PruningConfig};
use spade_pointcloud::dataset::{DatasetKind, DatasetPreset};
use spade_pointcloud::{DriveFrame, DriveScenario, DriveScenarioConfig};
use std::collections::HashMap;
use std::io::Read as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Runtime witness for the declared lock order (`state → stream-entry →
/// inflight-slot`, the order `spade-lint`'s static pass enforces on this
/// file). Debug builds track the ranks each thread holds and panic the
/// moment any thread acquires a rank less than or equal to one it already
/// holds — the exact ABBA interleaving PR 7's review found is caught on
/// first execution instead of when the schedules happen to collide.
/// Release builds compile the whole witness to nothing.
pub(crate) mod lockdep {
    /// Lock ranks in declared acquisition order. A thread may only acquire
    /// strictly increasing ranks; re-acquiring a held rank is self-deadlock
    /// and is reported the same way.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Rank {
        /// The global [`super::ServerState`] mutex.
        State = 0,
        /// A per-(drive, model) [`super::StreamEntry`] mutex.
        StreamEntry = 1,
        /// An [`super::Inflight`] result-slot mutex.
        InflightSlot = 2,
    }

    #[cfg(debug_assertions)]
    mod witness {
        use super::Rank;
        use std::cell::RefCell;

        impl Rank {
            fn name(self) -> &'static str {
                match self {
                    Rank::State => "state",
                    Rank::StreamEntry => "stream-entry",
                    Rank::InflightSlot => "inflight-slot",
                }
            }
        }

        thread_local! {
            static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
        }

        /// Proof that this thread claimed `rank`; releases it on drop. Keep
        /// it alive exactly as long as the guard of the lock it describes.
        pub struct Held {
            rank: Rank,
        }

        /// Claims `rank` for the current thread, panicking on any ordering
        /// violation. Call *before* blocking on the lock itself so an
        /// inversion is reported instead of deadlocking the test run.
        pub fn acquire(rank: Rank) -> Held {
            HELD.with(|held| {
                let worst = held.borrow().iter().copied().find(|&h| h >= rank);
                if let Some(worst) = worst {
                    // lint:allow(panic): the witness exists to panic debug
                    // builds on lock-order inversions before they deadlock.
                    panic!(
                        "lockdep: lock-order inversion: acquiring '{}' while holding '{}' \
                         (declared order: state → stream-entry → inflight-slot)",
                        rank.name(),
                        worst.name()
                    );
                }
                held.borrow_mut().push(rank);
            });
            Held { rank }
        }

        impl Drop for Held {
            fn drop(&mut self) {
                HELD.with(|held| {
                    let mut held = held.borrow_mut();
                    if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                        held.remove(pos);
                    }
                });
            }
        }
    }

    #[cfg(not(debug_assertions))]
    mod witness {
        /// Zero-sized stand-in: release builds carry no witness state.
        pub struct Held;

        /// No-op in release builds.
        #[inline(always)]
        pub fn acquire(_rank: super::Rank) -> Held {
            Held
        }
    }

    pub use witness::{acquire, Held};
}

/// A [`MutexGuard`] paired with its lockdep claim, so dropping the guard
/// (explicitly via `drop(...)` or at scope end) releases the witness rank
/// at the same moment the lock itself is released.
pub(crate) struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: lockdep::Held,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// The one acquisition path for ranked locks: claims the rank with the
/// debug witness, then blocks on the mutex. `spade-lint`'s static pass
/// recognises `lock_ranked(&..., Rank::X)` calls as acquisition sites of
/// class `X`.
fn lock_ranked<'a, T>(lock: &'a Mutex<T>, rank: lockdep::Rank) -> RankedGuard<'a, T> {
    let held = lockdep::acquire(rank);
    RankedGuard {
        // lint:allow(panic): a poisoned lock means another handler thread
        // already panicked mid-update; escalating loudly beats serving the
        // half-written state it left behind.
        guard: lock.lock().expect("lock poisoned"),
        _held: held,
    }
}

/// How the server binds and how much work it admits at once.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Handler threads (each owns one connection at a time).
    pub threads: usize,
    /// Worker-pool width requested per sweep.
    pub sweep_jobs: usize,
    /// Extra-thread tokens shared by *all* concurrent sweeps.
    pub budget_tokens: usize,
    /// Byte bound on the completed-result cache.
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let jobs = crate::pool::default_jobs();
        Self {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            sweep_jobs: jobs,
            budget_tokens: jobs.saturating_sub(1),
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Service counters reported by the `STATS` verb.
#[derive(Debug, Clone, Default)]
struct ServiceStats {
    /// Frames admitted off the wire (any verb, including malformed ones).
    requests_total: u64,
    /// `SWEEP` requests admitted.
    sweeps_requested: u64,
    /// Sweeps actually executed (cache misses that were not deduped).
    sweeps_executed: u64,
    /// `SWEEP` requests answered from the completed-result cache.
    cache_hits: u64,
    /// `SWEEP` requests that parked on an identical in-flight sweep.
    dedup_joined: u64,
    /// `FRAME` requests served.
    frames_served: u64,
    /// Requests answered with `ERR`.
    errors: u64,
    /// Adaptive-exploration counters aggregated across every *executed*
    /// sweep (cache hits and joins re-serve bytes, they do not explore):
    /// cells screened out on a roofline bound, cells fully simulated, and
    /// drive frames the screen saved. Exhaustive sweeps count every cell
    /// as simulated and save nothing.
    cells_screened: u64,
    cells_simulated: u64,
    frames_saved: u64,
    /// Delta-execution counters aggregated across every served sweep and
    /// every drive stream (drained per-request via
    /// [`FrameDeltaState::take_stats`], so nothing is double-counted).
    delta: DeltaStats,
}

/// One completed sweep result plus its LRU clock stamp.
struct CacheEntry {
    body: Arc<str>,
    last_used: u64,
}

/// Byte-bounded LRU over canonical-key → CSV-result entries.
struct ResultCache {
    entries: HashMap<String, CacheEntry>,
    bytes: usize,
    clock: u64,
    max_bytes: usize,
}

impl ResultCache {
    fn new(max_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            bytes: 0,
            clock: 0,
            max_bytes,
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<str>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.body)
        })
    }

    fn insert(&mut self, key: String, body: Arc<str>) {
        self.clock += 1;
        let key_len = key.len();
        self.bytes += key_len + body.len();
        let entry = CacheEntry {
            body,
            last_used: self.clock,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            // Replacing a key must not double-count: the map holds one copy
            // of the key, and the old body is gone.
            self.bytes -= key_len + old.body.len();
        }
        // Evict least-recently-used until back under the bound, but never
        // evict the entry just inserted — an oversized single result is
        // still worth serving warm.
        while self.bytes > self.max_bytes && self.entries.len() > 1 {
            // lint:allow(hash-iter): `last_used` stamps are unique (the
            // clock increments on every get/insert), so the minimum is the
            // same whatever order the map iterates in.
            // lint:allow(panic): the loop condition guarantees len() > 1.
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            if let Some(e) = self.entries.remove(&coldest) {
                self.bytes -= coldest.len() + e.body.len();
            }
        }
    }
}

/// The rendezvous for concurrent duplicate sweeps: the executor fills the
/// slot, waiters park on the condvar.
#[derive(Default)]
struct Inflight {
    slot: Mutex<Option<Result<Arc<str>, String>>>,
    done: Condvar,
}

impl Inflight {
    fn fulfil(&self, result: Result<Arc<str>, String>) {
        let _held = lockdep::acquire(lockdep::Rank::InflightSlot);
        // lint:allow(panic): the slot is only locked for a field store or a
        // clone — a poisoned slot means the process is already unwinding.
        *self.slot.lock().expect("inflight lock") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<str>, String> {
        // The rank stays claimed across the condvar park: the wait
        // re-acquires the same mutex, so the thread still owns the rank.
        let _held = lockdep::acquire(lockdep::Rank::InflightSlot);
        // lint:allow(panic): see fulfil — a poisoned slot is a process
        // already unwinding, not a malformed request.
        let mut slot = self.slot.lock().expect("inflight lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            // lint:allow(panic): same poisoning argument as the lock above.
            slot = self.done.wait(slot).expect("inflight lock");
        }
    }
}

/// Ensures parked duplicate requesters are released even if the executing
/// request panics mid-sweep: dropping the guard while still armed retires
/// the in-flight slot from the server map (so a later request re-executes
/// the sweep instead of joining the dead one's error forever) and fulfils
/// the slot with an error instead of leaving waiters on the condvar.
struct InflightGuard<'a> {
    state: &'a Mutex<ServerState>,
    inflight: &'a Inflight,
    key: &'a str,
    armed: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // `if let` rather than `expect`: this runs during unwinding, and
            // a second panic would abort instead of reporting the first.
            if let Ok(mut st) = self.state.lock() {
                st.inflight.remove(self.key);
            }
            self.inflight
                .fulfil(Err("sweep execution panicked on the server".to_owned()));
        }
    }
}

/// One client drive stream: the generated drive plus the delta state that
/// carries the previous frame's input bitmaps from frame to frame.
struct StreamEntry {
    scenario_config: DriveScenarioConfig,
    preset: DatasetPreset,
    frames: Option<Vec<DriveFrame>>,
    state: FrameDeltaState,
}

impl StreamEntry {
    fn new(request: FrameRequest) -> Self {
        let preset = match request.model.dataset() {
            DatasetKind::KittiLike => DatasetPreset::kitti_like(),
            DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
        };
        Self {
            scenario_config: request.scenario.config(request.frames, request.seed),
            preset,
            frames: None,
            state: FrameDeltaState::new(DeltaPolicy::default()),
        }
    }

    fn ensure_frames(&mut self) -> &[DriveFrame] {
        if self.frames.is_none() {
            let scenario = DriveScenario::new(self.preset.clone(), self.scenario_config.clone());
            self.frames = Some(scenario.frames());
        }
        // lint:allow(panic): the branch above just filled the option.
        self.frames.as_deref().expect("generated above")
    }
}

/// Map slot for one drive stream: a copy of the request identity that
/// created it, readable under the state lock alone, plus the shared,
/// independently locked entry.
struct StreamSlot {
    identity: FrameRequest,
    entry: Arc<Mutex<StreamEntry>>,
}

impl StreamSlot {
    fn new(request: FrameRequest) -> Self {
        Self {
            identity: request.clone(),
            entry: Arc::new(Mutex::new(StreamEntry::new(request))),
        }
    }

    /// Whether the existing stream can keep serving this request, or the
    /// client has restarted the drive under the same identity.
    fn matches(&self, request: &FrameRequest) -> bool {
        self.identity.scenario == request.scenario
            && self.identity.seed == request.seed
            && self.identity.frames == request.frames
            && self.identity.scale == request.scale
    }
}

/// Everything the handler threads share.
///
/// Lock-order discipline: `state` and a per-stream entry lock are **never**
/// held at the same time. Admission reads stream identities from
/// [`StreamSlot`] under `state` alone; frame execution holds only the
/// entry lock; stats publication re-takes `state` only after the entry
/// guard is dropped. Holding both in either order would let two concurrent
/// `FRAME` requests for one drive deadlock every handler thread.
///
/// The discipline is machine-checked twice over: statically by
/// `spade-lint`'s lock-order pass (declared order `state → stream-entry →
/// inflight-slot`) and at runtime by the [`lockdep`] witness, which panics
/// debug builds on the first out-of-order acquisition.
struct Shared {
    state: Mutex<ServerState>,
    shutdown: AtomicBool,
    budget: Arc<ConcurrencyBudget>,
    sweep_jobs: usize,
}

struct ServerState {
    cache: ResultCache,
    inflight: HashMap<String, Arc<Inflight>>,
    streams: HashMap<(String, ModelKind), StreamSlot>,
    stats: ServiceStats,
}

/// A running `spade-serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the handler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(ServerState {
                cache: ResultCache::new(config.cache_bytes),
                inflight: HashMap::new(),
                streams: HashMap::new(),
                stats: ServiceStats::default(),
            }),
            shutdown: AtomicBool::new(false),
            budget: ConcurrencyBudget::new(config.budget_tokens),
            sweep_jobs: config.sweep_jobs.max(1),
        });
        let handles = (0..config.threads.max(1))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let listener = listener.try_clone().expect("clone listener handle");
                std::thread::Builder::new()
                    .name(format!("spade-serve-{worker}"))
                    .spawn(move || accept_loop(&listener, &shared))
                    .expect("spawn handler thread")
            })
            .collect();
        Ok(Server {
            shared,
            addr,
            handles,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the handler threads to wind down (same effect as the
    /// `SHUTDOWN` verb).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until every handler thread has exited.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A short read timeout keeps the thread responsive to shutdown while it
    // waits for a quiet client's next request.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    loop {
        let payload = match read_frame_interruptible(&mut stream, &shared.shutdown) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        {
            let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
            st.stats.requests_total += 1;
        }
        let request = match std::str::from_utf8(&payload) {
            Ok(text) => crate::protocol::decode_request(text),
            Err(_) => Err("request payload is not valid UTF-8".to_owned()),
        };
        let (response, stop) = match request {
            Ok(Request::Ping) => (Response::ok("pong", ""), false),
            Ok(Request::Stats) => (stats_response(shared), false),
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                (Response::ok("bye", ""), true)
            }
            Ok(Request::Sweep(params)) => (handle_sweep(shared, &params), false),
            Ok(Request::Frame(frame)) => (handle_frame(shared, frame), false),
            Err(message) => (Response::Err(message), false),
        };
        if matches!(response, Response::Err(_)) {
            let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
            st.stats.errors += 1;
        }
        if write_frame(&mut stream, response.encode().as_bytes()).is_err() || stop {
            return;
        }
    }
}

/// Like [`read_frame`], but tolerant of the connection's read timeout:
/// between frames a timeout just re-checks the shutdown flag; mid-frame it
/// keeps reading (the remainder of a started frame is already in flight).
/// Returns `Ok(None)` on clean EOF or shutdown-while-idle.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(1..) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // A frame has started: reassemble the remaining length-prefix bytes and
    // splice them ahead of the payload read.
    let mut rest = [0u8; 3];
    read_exact_patient(stream, &mut rest, shutdown)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > crate::protocol::MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds cap",
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_patient(stream, &mut payload, shutdown)?;
    Ok(Some(payload))
}

/// How long a started frame may stall before the connection is dropped. A
/// live peer has the whole frame in flight already; multi-second silence
/// mid-frame is a dead or hostile client holding a handler thread hostage.
const MID_FRAME_STALL_LIMIT: Duration = Duration::from_secs(5);

/// `read_exact` that retries through read-timeout ticks but stays
/// interruptible: it gives up when the server shuts down or when the peer
/// stalls mid-frame past [`MID_FRAME_STALL_LIMIT`], so a half-written
/// frame can neither hang `Server::join` nor pin a handler thread forever.
fn read_exact_patient(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // lint:allow(wall-clock): stall-deadline bookkeeping only — the clock
    // gates connection teardown and never feeds an exported value.
    let deadline = std::time::Instant::now() + MID_FRAME_STALL_LIMIT;
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "server shutting down mid-frame",
                    ));
                }
                // lint:allow(wall-clock): stall-deadline check, timing only.
                if std::time::Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a `SWEEP` admission decided while the global lock was held.
enum SweepRole {
    Hit(Arc<str>),
    Join(Arc<Inflight>),
    Execute(Arc<Inflight>),
}

fn handle_sweep(shared: &Shared, params: &DseParams) -> Response {
    let canonical = canonicalize_params(params);
    let key = encode_params(&canonical);
    let role = {
        let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
        st.stats.sweeps_requested += 1;
        if let Some(body) = st.cache.get(&key) {
            st.stats.cache_hits += 1;
            SweepRole::Hit(body)
        } else if let Some(inflight) = st.inflight.get(&key).map(Arc::clone) {
            st.stats.dedup_joined += 1;
            SweepRole::Join(inflight)
        } else {
            let inflight = Arc::new(Inflight::default());
            st.inflight.insert(key.clone(), Arc::clone(&inflight));
            st.stats.sweeps_executed += 1;
            SweepRole::Execute(inflight)
        }
    };
    match role {
        SweepRole::Hit(body) => Response::ok("hit=1 deduped=0 join=0", &*body),
        // `join=1` marks a request that parked on an identical in-flight
        // sweep: it did not execute anything, so load generators count it
        // as warm alongside `hit=1` (`deduped` is the legacy spelling).
        SweepRole::Join(inflight) => match inflight.wait() {
            Ok(body) => Response::ok("hit=0 deduped=1 join=1", &*body),
            Err(message) => Response::Err(message),
        },
        SweepRole::Execute(inflight) => {
            let mut guard = InflightGuard {
                state: &shared.state,
                inflight: &inflight,
                key: &key,
                armed: true,
            };
            // The sweep runs outside the global lock; only the publication
            // of its result re-enters it.
            let pool = WorkerPool::with_budget(shared.sweep_jobs, Arc::clone(&shared.budget));
            let result = run_dse_on_pool(&canonical, &pool);
            let body: Arc<str> = Arc::from(result.to_csv());
            {
                let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
                st.stats.delta.merge(&result.delta_stats);
                st.stats.cells_screened += result.cells_screened as u64;
                st.stats.cells_simulated += result.cells_simulated as u64;
                st.stats.frames_saved += result.frames_saved as u64;
                st.cache.insert(key.clone(), Arc::clone(&body));
                st.inflight.remove(&key);
            }
            inflight.fulfil(Ok(Arc::clone(&body)));
            guard.armed = false;
            Response::ok("hit=0 deduped=0 join=0", &*body)
        }
    }
}

fn handle_frame(shared: &Shared, request: FrameRequest) -> Response {
    if request.frames == 0 || request.index >= request.frames {
        return Response::Err(format!(
            "frame index {} out of range for a {}-frame drive",
            request.index, request.frames
        ));
    }
    let stream_key = (request.drive.clone(), request.model);
    let entry = {
        let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
        st.stats.frames_served += 1;
        let slot = st
            .streams
            .entry(stream_key)
            .or_insert_with(|| StreamSlot::new(request.clone()));
        // Same drive identity but a different drive: the client restarted,
        // so the stream (and its delta state) restarts with it. The check
        // reads the slot's identity copy — taking the entry lock here
        // would invert the lock order against the stats merge below.
        if !slot.matches(&request) {
            *slot = StreamSlot::new(request.clone());
        }
        Arc::clone(&slot.entry)
    };
    // Frame generation and model execution run under the per-stream lock
    // only — concurrent requests for *different* drives proceed in
    // parallel; requests for the same drive serialise, which is exactly
    // the in-order contract FrameDeltaState needs.
    let mut entry = lock_ranked(&entry, lockdep::Rank::StreamEntry);
    entry.ensure_frames();
    let pruning_seed = entry.scenario_config.pruning_seed(request.index);
    let StreamEntry {
        preset,
        frames,
        state,
        ..
    } = &mut *entry;
    // lint:allow(panic): `ensure_frames` just populated the option, and the
    // index was bounds-checked against `request.frames` at function entry.
    let frame = &frames.as_deref().expect("ensured above")[request.index].frame;
    let run = model_run_on_frame_delta(
        request.model,
        preset,
        frame,
        pruning_seed,
        request.scale,
        PruningConfig::default(),
        state,
    );
    let frame_stats = state.take_stats();
    // Release the per-stream lock before re-entering the state lock: the
    // two are never held together (see the lock-order note on `Shared`).
    drop(entry);
    {
        let mut st = lock_ranked(&shared.state, lockdep::Rank::State);
        st.stats.delta.merge(&frame_stats);
    }
    let meta = format!(
        "index={} delta={}",
        request.index,
        u8::from(frame_stats.frames_delta > 0)
    );
    let body = format!(
        "model={}\nframe={}/{}\nlayers={}\nencoder_macs={}\nlayers_reused={}\nlayers_patched={}\nlayers_full={}\nrows_swept={}\nrows_full_equivalent={}",
        run.kind.name(),
        request.index,
        request.frames,
        run.workloads.len(),
        run.encoder_macs,
        frame_stats.layers_reused,
        frame_stats.layers_patched,
        frame_stats.layers_full,
        frame_stats.rows_swept,
        frame_stats.rows_full_equivalent,
    );
    Response::ok(meta, body)
}

fn stats_response(shared: &Shared) -> Response {
    let st = lock_ranked(&shared.state, lockdep::Rank::State);
    let stats = &st.stats;
    let hit_rate = if stats.sweeps_requested > 0 {
        stats.cache_hits as f64 / stats.sweeps_requested as f64
    } else {
        0.0
    };
    let body = format!(
        "requests_total={}\nsweeps_requested={}\nsweeps_executed={}\ncache_hits={}\ncache_hit_rate={hit_rate}\ndedup_joined={}\nframes_served={}\nerrors={}\ninflight={}\ncache_entries={}\ncache_bytes={}\nstreams={}\nbudget_available={}\ncells_screened={}\ncells_simulated={}\nframes_saved={}\ndelta_frames_total={}\ndelta_frames_delta={}\ndelta_layers_reused={}\ndelta_layers_patched={}\ndelta_layers_full={}\ndelta_rows_swept={}\ndelta_rows_full_equivalent={}\ndelta_modelled_speedup={}",
        stats.requests_total,
        stats.sweeps_requested,
        stats.sweeps_executed,
        stats.cache_hits,
        stats.dedup_joined,
        stats.frames_served,
        stats.errors,
        st.inflight.len(),
        st.cache.entries.len(),
        st.cache.bytes,
        st.streams.len(),
        shared.budget.available(),
        stats.cells_screened,
        stats.cells_simulated,
        stats.frames_saved,
        stats.delta.frames_total,
        stats.delta.frames_delta,
        stats.delta.layers_reused,
        stats.delta.layers_patched,
        stats.delta.layers_full,
        stats.delta.rows_swept,
        stats.delta.rows_full_equivalent,
        stats.delta.modelled_speedup(),
    );
    Response::ok("stats", body)
}

/// Parses a `STATS` response body back into `key=value` pairs (used by the
/// integration tests and `spade-loadgen`'s final report).
#[must_use]
pub fn parse_stats_body(body: &str) -> HashMap<String, String> {
    body.lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn result_cache_evicts_least_recently_used_first() {
        let mut cache = ResultCache::new(40);
        cache.insert("a".into(), body("0123456789")); // 11 bytes
        cache.insert("b".into(), body("0123456789"));
        cache.insert("c".into(), body("0123456789"));
        assert_eq!(cache.entries.len(), 3);
        // Touch `a` so `b` becomes the coldest, then overflow the bound.
        assert!(cache.get("a").is_some());
        cache.insert("d".into(), body("0123456789"));
        assert!(cache.get("b").is_none(), "coldest entry evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert!(cache.get("d").is_some());
        assert!(cache.bytes <= 40);
    }

    #[test]
    fn result_cache_keeps_an_oversized_single_entry() {
        let mut cache = ResultCache::new(4);
        cache.insert("k".into(), body("way-over-the-bound"));
        assert!(cache.get("k").is_some(), "newest entry never self-evicts");
    }

    #[test]
    fn inflight_waiters_receive_the_executors_result() {
        let inflight = Arc::new(Inflight::default());
        let waiter = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || inflight.wait())
        };
        inflight.fulfil(Ok(body("csv")));
        assert_eq!(waiter.join().unwrap().unwrap().as_ref(), "csv");
        // Late waiters see the already-filled slot without blocking.
        assert_eq!(inflight.wait().unwrap().as_ref(), "csv");
    }

    #[test]
    fn dropped_inflight_guard_releases_waiters_and_retires_the_key() {
        let state = Mutex::new(ServerState {
            cache: ResultCache::new(1024),
            inflight: HashMap::new(),
            streams: HashMap::new(),
            stats: ServiceStats::default(),
        });
        let inflight = Arc::new(Inflight::default());
        state
            .lock()
            .unwrap()
            .inflight
            .insert("k".to_owned(), Arc::clone(&inflight));
        {
            let _guard = InflightGuard {
                state: &state,
                inflight: &inflight,
                key: "k",
                armed: true,
            };
        }
        assert!(inflight.wait().is_err(), "waiters must not hang");
        assert!(
            state.lock().unwrap().inflight.is_empty(),
            "the failed slot must be retired so a later request re-executes"
        );
    }

    #[test]
    fn stats_body_round_trips_through_the_parser() {
        let parsed = parse_stats_body("a=1\nb=two\nc=3.5");
        assert_eq!(parsed.get("a").map(String::as_str), Some("1"));
        assert_eq!(parsed.get("b").map(String::as_str), Some("two"));
        assert_eq!(parsed.get("c").map(String::as_str), Some("3.5"));
    }

    /// Debug-build lockdep: the declared order acquired front to back is
    /// clean, including release-and-reacquire cycles on one thread.
    #[cfg(debug_assertions)]
    #[test]
    fn lockdep_accepts_the_declared_order() {
        use lockdep::Rank;
        let state = Mutex::new(0u32);
        let entry = Mutex::new(0u32);
        let slot = Mutex::new(0u32);
        {
            let _a = lock_ranked(&state, Rank::State);
            let _b = lock_ranked(&entry, Rank::StreamEntry);
            let _c = lock_ranked(&slot, Rank::InflightSlot);
        }
        // The admission/execution/publication shape of handle_frame:
        // state alone, then stream-entry alone, then state again.
        {
            let _a = lock_ranked(&state, Rank::State);
        }
        let b = lock_ranked(&entry, Rank::StreamEntry);
        drop(b);
        let _a = lock_ranked(&state, Rank::State);
    }

    /// Debug-build lockdep: the pre-fix PR-7 ABBA interleaving — one
    /// thread acquiring state-then-stream while another acquires
    /// stream-then-state — panics with the inversion message on the
    /// inverted thread instead of deadlocking the pair.
    #[cfg(debug_assertions)]
    #[test]
    fn lockdep_panics_on_the_pr7_abba_interleaving() {
        use lockdep::Rank;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let state = Mutex::new(0u32);
        let entry_a = Mutex::new(0u32);
        let entry_b = Mutex::new(0u32);
        let inverted = std::thread::scope(|scope| {
            let clean = scope.spawn(|| {
                // Thread A: the declared order, repeatedly.
                for _ in 0..100 {
                    let _s = lock_ranked(&state, Rank::State);
                    let _e = lock_ranked(&entry_a, Rank::StreamEntry);
                }
            });
            let inverted = scope.spawn(|| {
                // Thread B: the inverted order of the pre-fix stats merge.
                // The witness claims the rank before blocking on the mutex,
                // so this panics instead of wedging against thread A.
                catch_unwind(AssertUnwindSafe(|| {
                    let _e = lock_ranked(&entry_b, Rank::StreamEntry);
                    let _s = lock_ranked(&state, Rank::State);
                }))
            });
            clean.join().expect("clean-order thread must not panic");
            inverted.join().expect("inverted thread itself must join")
        });
        let payload = inverted.expect_err("the inversion must panic in debug builds");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            message.contains("lock-order inversion"),
            "unexpected panic message: {message}"
        );
        assert!(
            message.contains("'state'") && message.contains("'stream-entry'"),
            "message should name both ranks: {message}"
        );
    }

    /// A witness panic releases the claimed ranks with the guards, so the
    /// thread can keep taking locks in the declared order afterwards.
    #[cfg(debug_assertions)]
    #[test]
    fn lockdep_recovers_after_a_reported_inversion() {
        use lockdep::Rank;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let state = Mutex::new(0u32);
        let entry = Mutex::new(0u32);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _e = lock_ranked(&entry, Rank::StreamEntry);
            let _s = lock_ranked(&state, Rank::State);
        }));
        assert!(result.is_err());
        // `entry` was poisoned by the unwind above; `state` was never
        // locked, and both ranks were released, so the declared order
        // works again.
        let _s = lock_ranked(&state, Rank::State);
    }
}
