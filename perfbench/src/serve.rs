//! The `serve-ingest` workload: one `ba(n, 3)` / dash / audit-off tenant
//! on `Cluster::new(1)`, driven by two clients.
//!
//! - The writer runs closed loop, like `selfheal-serve --replay`: it
//!   sends seeded event lines through `Cluster::handle_line` (deletes of
//!   distinct live IDs and joins onto live IDs, half each, so nothing is
//!   skipped) and a `tick` after every [`TICK_EVERY`] event lines.
//! - The reader runs open loop at [`QUERY_RATE`] queries a second:
//!   `stats` and `degree` queries, and every [`HEAVY_EVERY`]th query a
//!   `components` query. Each query is timed from its due time.
//!
//! The measured phase is a sequence of laps that do the same work: a
//! fresh cluster, then the seed's first [`lap_lines`] event lines. After
//! the laps the same events are generated again and applied to a plain
//! `ScenarioEngine`; every lap's `Cluster::finish()` must report the
//! same tenant block as that engine.

use crate::engine::{check_network, Work, SETUP_REPS};
use crate::measure::{median_s, peak_rss_mb, percentile, Laps, Layer, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal_core::scenario::{NetworkEvent, ScenarioEngine};
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::{AdversarySpec, AuditSpec, GraphSpec, HealerSpec, ScenarioSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::NodeId;
use selfheal_metrics::TenantStats;
use selfheal_serve::proto::answer_body;
use selfheal_serve::{parse_request, Cluster, Query, Request};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const TENANT: &str = "ingest";
/// Event lines per `tick`.
const TICK_EVERY: usize = 64;
/// Reader queries per second.
const QUERY_RATE: u32 = 1000;
/// Every this many queries, one is a `components` query.
const HEAVY_EVERY: u64 = 50;
/// The reader sleeps until this long before a query is due, then spins.
const SPIN: Duration = Duration::from_micros(150);
/// A reader further behind its schedule than this when a lap ends could
/// not keep it, and the run is invalid. Lateness along the way is not
/// the test: on a shared host a reader can stall for tens of
/// milliseconds and still catch up.
const MAX_BACKLOG: Duration = Duration::from_millis(250);
/// Stream tags keeping the two clients' generators apart.
const WRITER_TAG: u64 = 0x7772_6974_6572;
const READER_TAG: u64 = 0x7265_6164_6572;

/// Event lines per lap: 0.12 n, whole ticks.
fn lap_lines(n: usize) -> u64 {
    (n * 3 / 25 / TICK_EVERY * TICK_EVERY).max(TICK_EVERY) as u64
}

fn spec(n: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        GraphSpec::BarabasiAlbert { n, m: 3 },
        HealerSpec::Dash,
        // Unused: a served tenant applies client events only.
        AdversarySpec::MaxNode,
        seed,
    );
    spec.audit = AuditSpec::Off;
    spec
}

/// The writer client's generator. It tracks the live set itself, which
/// is exact because the tenant applies every event in submission order.
/// A node joined since the last tick does not exist until that tick
/// applies its join (the shard rejects its ID as out of range), so it
/// waits in `fresh` until [`EventGen::ticked`].
struct EventGen {
    rng: StdRng,
    live: Vec<u32>,
    fresh: Vec<u32>,
    next_id: u32,
}

impl EventGen {
    fn new(n: usize, seed: u64) -> Self {
        EventGen {
            rng: StdRng::seed_from_u64(seed ^ WRITER_TAG),
            live: (0..n as u32).collect(),
            fresh: Vec::new(),
            next_id: n as u32,
        }
    }

    fn ticked(&mut self) {
        self.live.append(&mut self.fresh);
    }

    fn next_event(&mut self) -> NetworkEvent {
        if self.live.len() > 1 && self.rng.gen_range(0..2u32) == 0 {
            let i = self.rng.gen_range(0..self.live.len());
            return NetworkEvent::Delete(NodeId(self.live.swap_remove(i)));
        }
        let k = self.rng.gen_range(1..=3usize).min(self.live.len());
        let mut neighbors: Vec<NodeId> = Vec::with_capacity(k);
        while neighbors.len() < k {
            let v = NodeId(self.live[self.rng.gen_range(0..self.live.len())]);
            if !neighbors.contains(&v) {
                neighbors.push(v);
            }
        }
        self.fresh.push(self.next_id);
        self.next_id += 1;
        NetworkEvent::Join { neighbors }
    }
}

/// What the two clients do in one lap.
#[derive(Clone, Copy)]
struct Load {
    /// Initial node count.
    n: usize,
    seed: u64,
    /// Event lines the writer sends.
    lines: u64,
    /// Time each layer from outside.
    traced: bool,
}

/// What the writer saw, over all laps.
#[derive(Default)]
struct Writer {
    lines: u64,
    ticks: u64,
    applied: u64,
    skipped: u64,
    errors: u64,
    tick_ns: Vec<u64>,
    /// Per event line, submission until the line is acknowledged.
    ack_ns: Vec<u64>,
    parse: Layer,
    submit: Layer,
    tick: Layer,
}

/// What the reader saw, over all laps.
#[derive(Default)]
struct Reader {
    queries: u64,
    errors: u64,
    light_ns: Vec<u64>,
    heavy_ns: Vec<u64>,
    late_ns: Vec<u64>,
    /// Furthest the reader was behind its schedule at the end of a lap.
    backlog: Duration,
    read_light_ns: Vec<u64>,
    read_heavy_ns: Vec<u64>,
    lag_sum: u64,
    read: Layer,
}

fn parse_tick_reply(reply: Option<String>) -> Option<(u64, u64)> {
    let reply = reply?;
    let mut words = reply.split_whitespace();
    match (words.next()?, words.next()?, words.next()?, words.next()?) {
        ("tick", "applied", a, "skipped") => Some((a.parse().ok()?, words.next()?.parse().ok()?)),
        _ => None,
    }
}

/// One lap of the closed-loop writer: the load's event lines from a
/// fresh generator, and a `tick` after every [`TICK_EVERY`]. Traced, it
/// calls `parse_request`, `Cluster::submit` and `Cluster::tick` itself,
/// each as a layer; untraced, it sends every line through
/// `Cluster::handle_line`. Each line's visibility latency, submission
/// until the end of the tick that published it, goes to `visible`.
/// Returns the lap's wall time.
fn write(cluster: &Cluster, load: Load, out: &mut Writer, visible: &mut Vec<u64>) -> Duration {
    let mut gen = EventGen::new(load.n, load.seed);
    let mut line = String::new();
    let mut pending: Vec<Instant> = Vec::with_capacity(TICK_EVERY);
    visible.clear();
    let start = Instant::now();
    for _ in 0..load.lines / TICK_EVERY as u64 {
        for _ in 0..TICK_EVERY {
            let event = gen.next_event();
            line.clear();
            let _ = write!(line, "{TENANT} {event}");
            let t0 = Instant::now();
            let ok = if load.traced {
                match out.parse.time(|| parse_request(&line)) {
                    Ok(Some(Request::Event { tenant, event })) => {
                        out.submit.time(|| cluster.submit(&tenant, event)).is_ok()
                    }
                    _ => false,
                }
            } else {
                cluster.handle_line(&line).is_none()
            };
            out.ack_ns.push(t0.elapsed().as_nanos() as u64);
            pending.push(t0);
            out.lines += 1;
            out.errors += u64::from(!ok);
        }
        let t0 = Instant::now();
        let counts = if load.traced {
            match out.parse.time(|| parse_request("tick")) {
                Ok(Some(Request::Tick)) => Some(out.tick.time(|| cluster.tick())),
                _ => None,
            }
        } else {
            parse_tick_reply(cluster.handle_line("tick"))
        };
        let t1 = Instant::now();
        gen.ticked();
        out.tick_ns.push((t1 - t0).as_nanos() as u64);
        visible.extend(pending.drain(..).map(|s| (t1 - s).as_nanos() as u64));
        out.ticks += 1;
        match counts {
            Some((applied, skipped)) => {
                out.applied += applied;
                out.skipped += skipped;
            }
            None => out.errors += 1,
        }
    }
    start.elapsed()
}

/// The open-loop reader: query `i` is due `i / QUERY_RATE` seconds after
/// the start and is timed from then.
fn read(cluster: &Cluster, load: Load, done: &AtomicBool, out: &mut Reader) {
    let mut rng = StdRng::seed_from_u64(load.seed ^ READER_TAG);
    let snapshots = cluster.reader(TENANT).expect("the tenant is served");
    let interval = Duration::from_secs(1) / QUERY_RATE;
    let mut line = String::new();
    let start = Instant::now();
    for i in 0u32.. {
        // Relaxed: the flag only ends the loop and publishes no data.
        if done.load(Ordering::Relaxed) {
            // Queries due by now but not sent, in schedule time.
            let behind = start.elapsed().saturating_sub(interval * i);
            out.backlog = out.backlog.max(behind);
            break;
        }
        let due = start + interval * i;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > SPIN {
                std::thread::sleep(due - now - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let begin = Instant::now();
        out.late_ns.push((begin - due).as_nanos() as u64);
        let heavy = u64::from(i) % HEAVY_EVERY == HEAVY_EVERY - 1;
        line.clear();
        if heavy {
            let _ = write!(line, "query {TENANT} components");
        } else if rng.gen_range(0..2u32) == 0 {
            let _ = write!(line, "query {TENANT} stats");
        } else {
            let _ = write!(line, "query {TENANT} degree {}", rng.gen_range(0..load.n));
        }
        let ok = if load.traced {
            match parse_request(&line) {
                Ok(Some(Request::Query { query, .. })) => {
                    let t0 = Instant::now();
                    let (epoch, body) = out
                        .read
                        .time(|| snapshots.read(|snap| answer_body(query, snap)));
                    let read_ns = t0.elapsed().as_nanos() as u64;
                    if query == Query::Components {
                        out.read_heavy_ns.push(read_ns);
                    } else {
                        out.read_light_ns.push(read_ns);
                    }
                    out.lag_sum += snapshots.epoch().saturating_sub(epoch) as u64;
                    !body.is_empty()
                }
                _ => false,
            }
        } else {
            matches!(cluster.handle_line(&line), Some(reply) if reply.starts_with("epoch "))
        };
        let latency = due.elapsed();
        if heavy {
            out.heavy_ns.push(latency.as_nanos() as u64);
        } else {
            out.light_ns.push(latency.as_nanos() as u64);
        }
        out.queries += 1;
        out.errors += u64::from(!ok);
    }
}

/// One lap: a fresh reader on its own thread beside the writer on this
/// one. Returns the writer's wall time.
fn lap(
    cluster: &Cluster,
    load: Load,
    w: &mut Writer,
    rd: &mut Reader,
    visible: &mut Vec<u64>,
) -> Duration {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read(cluster, load, &done, rd));
        let wall = write(cluster, load, w, visible);
        // Relaxed: see `read`.
        done.store(true, Ordering::Relaxed);
        reader.join().expect("the reader thread panicked");
        wall
    })
}

/// Set-up: `Cluster::new(1)` plus `add_spec`.
fn set_up(spec: &ScenarioSpec, samples: &mut Vec<Duration>, add_spec: &mut Layer) -> Cluster {
    let t0 = Instant::now();
    let mut cluster = Cluster::new(1);
    add_spec
        .time(|| cluster.add_spec(TENANT, spec))
        .expect("the benchmark spec is servable");
    samples.push(t0.elapsed());
    cluster
}

/// The plain engine fed the served events: its tenant block, work
/// counts and, when `per_tick`, the shadow timings of apply and of
/// `StateSnapshot::capture` at every tick point.
struct Shadow {
    block: String,
    work: Work,
    ba: Layer,
    state: Layer,
    apply: Layer,
    capture: Layer,
}

/// The shadow regenerates the writer's events from the seed: the
/// generator's choices do not depend on the cluster's replies. Its
/// network, the one served, must satisfy Theorem 1 and stay connected.
fn shadow(r: &mut Report, spec: &ScenarioSpec, n: usize, lines: u64, per_tick: bool) -> Shadow {
    let mut ba = Layer::default();
    let mut state = Layer::default();
    let g = ba.time(|| spec.graph.build(spec.seed));
    let net = state.time(|| HealingNetwork::new(g, spec.seed));
    // The same engine type the shard drives (`ScenarioSpec::build_engine`).
    let mut engine = ScenarioEngine::new(net, spec.healer.build(), spec.adversary.build(spec.seed));
    let (mut apply, mut capture) = (Layer::default(), Layer::default());
    let mut stats = TenantStats::default();
    let mut work = Work::default();
    let mut snap = StateSnapshot::default();
    let mut gen = EventGen::new(n, spec.seed);
    for _ in 0..lines / TICK_EVERY as u64 {
        for _ in 0..TICK_EVERY {
            let event = gen.next_event();
            let rec = apply.time(|| engine.apply(event));
            stats.observe(rec.tenant_sample());
            work.record(&rec);
        }
        gen.ticked();
        if per_tick {
            capture.time(|| snap.capture(&engine.net));
        }
    }
    let report = engine.finish();
    check_network(r, &engine.net, work.max_delta, "the served network");
    snap.capture(&engine.net);
    let mut block = String::new();
    let _ = writeln!(
        block,
        "tenant {TENANT}: healer {}  audit findings {}",
        engine.healer_name(),
        report.violations.len()
    );
    let _ = writeln!(
        block,
        "  events {}  skipped {}  deletions {}  joins {}",
        stats.events, stats.skipped, stats.deletions, stats.joins
    );
    let _ = writeln!(
        block,
        "  live {}  components {}  gprime-edges {}  max-delta {}",
        snap.live_count(),
        snap.components.len(),
        snap.gprime_edges,
        stats.max_delta
    );
    let _ = writeln!(
        block,
        "  messages {}  healing-edges {}  amortized-latency {:.2}",
        stats.messages,
        stats.edges_added,
        stats.amortized_latency()
    );
    Shadow {
        block,
        work,
        ba,
        state,
        apply,
        capture,
    }
}

fn check(r: &mut Report, served: &str, w: &Writer, rd: &Reader, sh: &Shadow) {
    r.check(served == sh.block, || {
        format!(
            "Cluster::finish() differs from a plain engine fed the same events:\n{served}vs\n{}",
            sh.block
        )
    });
    r.check(w.errors == 0 && w.skipped == 0 && rd.errors == 0, || {
        format!(
            "valid input drew {} writer errors, {} skipped events, {} reader errors",
            w.errors, w.skipped, rd.errors
        )
    });
    r.check(w.applied == w.lines, || {
        format!("{} event lines sent, {} applied", w.lines, w.applied)
    });
    r.check(rd.backlog <= MAX_BACKLOG, || {
        format!(
            "the reader could not keep its schedule: {:.0} ms behind at the end of a lap",
            rd.backlog.as_secs_f64() * 1e3
        )
    });
}

/// Run the workload.
pub fn run(n: usize, seed: u64, budget: Duration, trace: bool) -> Report {
    let spec = spec(n, seed);
    let lines = lap_lines(n);
    let load = Load {
        n,
        seed,
        lines,
        traced: trace,
    };
    let mut r = Report::default();
    let (mut setups, mut add_spec) = (Vec::new(), Layer::default());
    if trace {
        crate::alloc::enable();
    }
    let (mut w, mut rd) = (Writer::default(), Reader::default());
    let mut laps = Laps::default();
    let mut visible = Vec::new();
    let mut measured = Duration::ZERO;
    let mut served: Option<String> = None;
    while measured < budget {
        let cluster = set_up(&spec, &mut setups, &mut add_spec);
        let applied_before = w.applied;
        let wall = lap(&cluster, load, &mut w, &mut rd, &mut visible);
        measured += wall;
        laps.push(w.applied - applied_before, wall, &mut visible);
        if laps.count() == 1 && !trace {
            // Every lap does the same work, so the first one's peak is
            // the workload's.
            r.set("peak_rss_mb", peak_rss_mb());
        }
        let block = cluster.finish();
        match &served {
            None => served = Some(block),
            Some(first) => r.check(block == *first, || {
                format!("lap {} served\n{block}lap 1 served\n{first}", laps.count())
            }),
        }
    }
    while setups.len() < SETUP_REPS {
        drop(set_up(&spec, &mut setups, &mut add_spec));
    }
    let sh = shadow(&mut r, &spec, n, lines, trace);
    check(&mut r, served.as_deref().unwrap_or_default(), &w, &rd, &sh);
    r.attempted = w.lines + w.ticks + rd.queries;
    r.failed = w.errors + w.skipped + rd.errors;
    r.lap_rates = laps.rates().to_vec();
    if !trace {
        r.set_pct("setup_s", median_s(&setups), setups.len());
        r.set("events_per_s", laps.rate());
        r.set_pct("visible_p50_ms", laps.p50() / 1e6, laps.samples());
        r.set_pct("visible_p99_ms", laps.p99() / 1e6, laps.samples());
        return r;
    }

    // Set-up layers: `add_spec` on the served clusters, the graph and
    // network builds on the shadow.
    let setup_total = setups.iter().sum::<Duration>() + sh.ba.busy + sh.state.busy;
    r.layer("cluster.add_spec", add_spec, setup_total);
    r.layer("graph.barabasi_albert", sh.ba, setup_total);
    r.layer("state.new", sh.state, setup_total);

    // Writer layers, as shares of the writer's measured wall time.
    r.layer("proto.parse_request", w.parse, measured);
    r.layer("cluster.submit", w.submit, measured);
    r.layer("cluster.tick", w.tick, measured);
    let ticks = w.tick_ns.len();
    r.set_pct(
        "cluster.tick.p50_ms",
        pct(&mut w.tick_ns, 0.50) / 1e6,
        ticks,
    );
    r.set_pct(
        "cluster.tick.p99_ms",
        pct(&mut w.tick_ns, 0.99) / 1e6,
        ticks,
    );
    r.set(
        "cluster.tick.events_per_tick",
        w.applied as f64 / w.ticks.max(1) as f64,
    );
    // The shadow replays one lap; scaled to every lap, it splits the
    // tick into apply, capture and the rest (queue drain, stats, the
    // wait for reader pins, the publish itself).
    let k = laps.count() as u32;
    let (apply, capture) = (sh.apply.scaled(k), sh.capture.scaled(k));
    r.layer("scenario.apply", apply, measured);
    r.layer("snapshot.capture", capture, measured);
    r.set(
        "cluster.tick.residual_s",
        w.tick.busy.as_secs_f64() - apply.busy.as_secs_f64() - capture.busy.as_secs_f64(),
    );
    let attributed = w.parse.busy + w.submit.busy + w.tick.busy;
    r.set(
        "unattributed_share",
        1.0 - attributed.as_secs_f64() / measured.as_secs_f64().max(1e-9),
    );
    sh.work.report(&mut r);

    // Reader layers; the reader runs beside the writer, so its share is
    // of the same wall time but off the writer's path.
    r.layer("snapshot.read", rd.read, measured);
    let (nl, nh) = (rd.read_light_ns.len(), rd.read_heavy_ns.len());
    r.set_pct(
        "snapshot.read.light_p50_us",
        pct(&mut rd.read_light_ns, 0.50) / 1e3,
        nl,
    );
    r.set_pct(
        "snapshot.read.light_p99_us",
        pct(&mut rd.read_light_ns, 0.99) / 1e3,
        nl,
    );
    r.set_pct(
        "snapshot.read.heavy_p50_us",
        pct(&mut rd.read_heavy_ns, 0.50) / 1e3,
        nh,
    );
    r.set_pct(
        "snapshot.read.heavy_p99_us",
        pct(&mut rd.read_heavy_ns, 0.99) / 1e3,
        nh,
    );
    r.set(
        "snapshot.read.epoch_lag",
        rd.lag_sum as f64 / rd.read.calls.max(1) as f64,
    );
    let (ql, qh) = (rd.light_ns.len(), rd.heavy_ns.len());
    r.set_pct("query_p50_us", pct(&mut rd.light_ns, 0.50) / 1e3, ql);
    r.set_pct("query_p99_us", pct(&mut rd.light_ns, 0.99) / 1e3, ql);
    r.set_pct("query_heavy_p50_us", pct(&mut rd.heavy_ns, 0.50) / 1e3, qh);
    r.set_pct("query_heavy_p99_us", pct(&mut rd.heavy_ns, 0.99) / 1e3, qh);
    let nq = rd.late_ns.len();
    r.set_pct("loadgen.late_p99_ms", pct(&mut rd.late_ns, 0.99) / 1e6, nq);
    r.set("loadgen.queries", rd.queries as f64);
    r.set("failed_frac", r.failed as f64 / r.attempted.max(1) as f64);

    // Tracing overhead and acknowledgement latency: one more lap,
    // untraced, on a fresh cluster with the reader running.
    let cluster = set_up(&spec, &mut Vec::new(), &mut Layer::default());
    let (mut wu, mut ru) = (Writer::default(), Reader::default());
    let untraced = Load {
        traced: false,
        ..load
    };
    let wall = lap(&cluster, untraced, &mut wu, &mut ru, &mut visible);
    drop(cluster);
    let traced_rate = w.applied as f64 / measured.as_secs_f64().max(1e-9);
    let untraced_rate = wu.applied as f64 / wall.as_secs_f64().max(1e-9);
    // Per event line, submission until `handle_line` acknowledges it.
    let acks = wu.ack_ns.len();
    r.set_pct("event_p50_us", pct(&mut wu.ack_ns, 0.50) / 1e3, acks);
    r.set_pct("event_p99_us", pct(&mut wu.ack_ns, 0.99) / 1e3, acks);
    r.set("trace.traced_events_per_s", traced_rate);
    r.set("trace.untraced_events_per_s", untraced_rate);
    r.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    r
}

fn pct(samples: &mut [u64], p: f64) -> f64 {
    percentile(samples, p) as f64
}
