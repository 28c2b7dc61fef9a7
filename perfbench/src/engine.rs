//! The engine workloads: BA(n, 3) healed by DASH, audit off, driven in
//! one thread and closed loop as `EventSource::next_event` followed by
//! `ScenarioEngine::apply`.
//!
//! - `engine-churn`: `RandomChurn(seed)` — single deletes and joins.
//! - `engine-racks`: `RackPartition(seed, 8)` — simultaneous
//!   `DeleteBatch`es through sanitize, `heal_batch` and per-victim
//!   contexts.
//!
//! The measured phase is a sequence of laps that do the same work: each
//! builds the network afresh, from a copy of the set-up graph and outside
//! the timed region, and applies the seed's first [`lap_events`] events.
//! Laps run until `--seconds` of events have been measured; the figures
//! are the best lap's.

use crate::measure::{median_s, peak_rss_mb, percentile, Laps, Layer, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::RackPartition;
use selfheal_core::scenario::{
    EventRecord, EventSource, NetworkEvent, RandomChurn, ScenarioEngine, ScriptedEvents,
};
use selfheal_core::state::{DeletionContext, HealingNetwork};
use selfheal_core::strategy::{HealOutcome, Healer};
use selfheal_core::Dash;
use selfheal_graph::components::is_connected;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::{Graph, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-ups per run, at the least; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// BA attachment parameter.
const M: usize = 3;
/// Nodes per rack for `engine-racks`.
const RACK: usize = 8;

/// Events per lap: about an eighth of the way to empty under churn, two
/// fifths of the first round of racks.
fn lap_events(adversary: Adversary, n: usize) -> u64 {
    match adversary {
        Adversary::Churn => (n * 2 / 5) as u64,
        Adversary::Racks => (n / 20) as u64,
    }
}

/// Which event source drives the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    Churn,
    Racks,
}

/// The engine under test; its own source is unused because the
/// benchmark calls `next_event` itself.
type Engine = ScenarioEngine<Dash, ScriptedEvents>;

/// Set-up: the graph, the network and the engine, timed as a whole and
/// per layer. The last graph built is kept, so that each lap can start
/// from a copy of it instead of generating it again.
#[derive(Default)]
struct Setup {
    samples: Vec<Duration>,
    ba: Layer,
    state: Layer,
    graph: Option<Graph>,
}

impl Setup {
    /// [`SETUP_REPS`] timed set-ups of BA(n, 3) and its network.
    fn new(n: usize, seed: u64) -> Self {
        let mut setup = Setup::default();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let g = setup
                .ba
                .time(|| barabasi_albert(n, M, &mut StdRng::seed_from_u64(seed)));
            // The copy kept for the laps is not part of the set-up.
            let copying = Instant::now();
            let kept = g.clone();
            let copy_time = copying.elapsed();
            let net = setup.state.time(|| HealingNetwork::new(g, seed));
            let engine = ScenarioEngine::new(net, Dash, ScriptedEvents::default());
            setup.samples.push(t0.elapsed() - copy_time);
            drop(engine);
            setup.graph = Some(kept);
        }
        setup
    }

    /// A fresh engine for one lap, on a copy of the set-up graph.
    fn engine(&self, seed: u64) -> Engine {
        let g = self.graph.clone().expect("set up at least once");
        ScenarioEngine::new(
            HealingNetwork::new(g, seed),
            Dash,
            ScriptedEvents::default(),
        )
    }

    /// Set-up metrics; per-layer shares are of the total set-up time.
    fn report(&self, r: &mut Report, trace: bool) {
        r.set_pct("setup_s", median_s(&self.samples), self.samples.len());
        if trace {
            let total: Duration = self.samples.iter().sum();
            r.layer("graph.barabasi_albert", self.ba, total);
            r.layer("state.new", self.state, total);
        }
    }
}

/// Deterministic work counts taken from `EventRecord`s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub events: u64,
    pub noops: u64,
    pub victims: u64,
    pub rt_members: u64,
    pub edges_added: u64,
    pub messages: u64,
    pub latency_sum: u64,
    pub max_delta: i64,
}

impl Work {
    pub fn record(&mut self, rec: &EventRecord) {
        self.events += 1;
        self.noops += u64::from(is_noop(rec));
        self.victims += rec.victims as u64;
        self.rt_members += rec.rt_size as u64;
        self.edges_added += rec.edges_added as u64;
        self.messages += rec.propagation.messages;
        self.latency_sum += rec.propagation.latency;
        if let Some(d) = rec.round_max_delta {
            self.max_delta = self.max_delta.max(d);
        }
    }

    pub fn report(&self, r: &mut Report) {
        r.set("scenario.events", self.events as f64);
        r.set("scenario.victims", self.victims as f64);
        r.set("rt.members", self.rt_members as f64);
        r.set("dash.edges_added", self.edges_added as f64);
        r.set("state.broadcast.messages", self.messages as f64);
        r.set("state.broadcast.latency_sum", self.latency_sum as f64);
        r.set(
            "scenario.noop_frac",
            self.noops as f64 / self.events.max(1) as f64,
        );
    }
}

fn is_noop(rec: &EventRecord) -> bool {
    rec.victims == 0 && rec.joined.is_none()
}

#[derive(Clone, Copy, Debug, Default)]
struct Lap {
    events: u64,
    noops: u64,
    wall: Duration,
}

/// The untraced loop over at most `events` events: each `next_event` +
/// `apply` timed as one sample into `latencies`.
fn plain_lap<S: EventSource>(
    engine: &mut Engine,
    src: &mut S,
    events: u64,
    latencies: &mut Vec<u64>,
) -> Lap {
    latencies.clear();
    let mut lap = Lap::default();
    let start = Instant::now();
    while lap.events < events {
        let t0 = Instant::now();
        let Some(event) = src.next_event(&engine.net) else {
            break;
        };
        let rec = engine.apply(event);
        latencies.push(t0.elapsed().as_nanos() as u64);
        lap.events += 1;
        lap.noops += u64::from(is_noop(&rec));
    }
    lap.wall = start.elapsed();
    lap
}

/// The layers the traced engine loop times.
#[derive(Default)]
struct EngineLayers {
    next_event: Layer,
    apply: Layer,
    delete: Layer,
    heal: Layer,
    propagate: Layer,
}

/// The traced loop. With `breakdown`, single deletes call
/// `delete_node_into`, `heal_into` and `propagate_min_id_uniform`
/// directly, each as its own layer; everything else goes through
/// `apply`.
fn traced_lap<S: EventSource>(
    engine: &mut Engine,
    src: &mut S,
    events: u64,
    breakdown: bool,
    layers: &mut EngineLayers,
    work: &mut Work,
) -> Lap {
    let mut ctx = DeletionContext::default();
    let mut outcome = HealOutcome::default();
    let mut healer = Dash;
    let mut lap = Lap::default();
    let start = Instant::now();
    while lap.events < events {
        let Some(event) = layers.next_event.time(|| src.next_event(&engine.net)) else {
            break;
        };
        lap.events += 1;
        match event {
            NetworkEvent::Delete(v) if breakdown && engine.net.is_alive(v) => {
                let net = &mut engine.net;
                layers
                    .delete
                    .time(|| net.delete_node_into(v, &mut ctx))
                    .expect("the victim was checked alive");
                layers
                    .heal
                    .time(|| healer.heal_into(net, &ctx, &mut outcome));
                let prop = layers
                    .propagate
                    .time(|| net.propagate_min_id_uniform(&outcome.rt_members));
                work.events += 1;
                work.victims += 1;
                work.rt_members += outcome.rt_members.len() as u64;
                work.edges_added += outcome.edges_added.len() as u64;
                work.messages += prop.messages;
                work.latency_sum += prop.latency;
                for &m in &outcome.rt_members {
                    work.max_delta = work.max_delta.max(net.delta(m));
                }
            }
            event => {
                let rec = layers.apply.time(|| engine.apply(event));
                lap.noops += u64::from(is_noop(&rec));
                work.record(&rec);
            }
        }
    }
    lap.wall = start.elapsed();
    lap
}

/// A fingerprint of the network state the traced breakdown must
/// reproduce: the live set, the `G'` edges, the component IDs and the
/// per-node traffic.
fn digest(net: &HealingNetwork) -> (usize, usize, u64) {
    let mut h = DefaultHasher::new();
    let mut nbrs: Vec<NodeId> = Vec::new();
    let gp = net.healing_graph();
    for i in 0..net.graph().node_bound() {
        let v = NodeId::from_index(i);
        let alive = net.is_alive(v);
        alive.hash(&mut h);
        net.traffic(v).hash(&mut h);
        if alive {
            net.comp_id(v).hash(&mut h);
            nbrs.clear();
            nbrs.extend_from_slice(gp.neighbors(v));
            nbrs.sort_unstable();
            nbrs.hash(&mut h);
        }
    }
    (net.graph().live_node_count(), gp.edge_count(), h.finish())
}

/// Theorem 1 and connectivity, checked outside the timed region; `what`
/// names the network in a failure.
pub fn check_network(r: &mut Report, net: &HealingNetwork, max_delta: i64, what: &str) {
    let created = net.total_created();
    let bound = 2.0 * (created.max(2) as f64).log2();
    r.check(max_delta as f64 <= bound, || {
        format!("{what}: max delta {max_delta} exceeds 2 log2 {created} = {bound:.2}")
    });
    r.check(is_connected(net.graph()), || {
        format!("{what}: the surviving network is disconnected")
    });
}

/// Run one engine workload.
pub fn run(adversary: Adversary, n: usize, seed: u64, budget: Duration, trace: bool) -> Report {
    let events = lap_events(adversary, n);
    match adversary {
        Adversary::Churn => drive(
            || RandomChurn::new(seed),
            true,
            n,
            seed,
            events,
            budget,
            trace,
        ),
        Adversary::Racks => drive(
            || RackPartition::new(seed, RACK),
            false,
            n,
            seed,
            events,
            budget,
            trace,
        ),
    }
}

fn drive<S: EventSource>(
    make_source: impl Fn() -> S,
    breakdown: bool,
    n: usize,
    seed: u64,
    events: u64,
    budget: Duration,
    trace: bool,
) -> Report {
    let mut r = Report::default();
    let setup = Setup::new(n, seed);
    if trace {
        traced(&mut r, &setup, make_source, breakdown, seed, events, budget);
    } else {
        let mut laps = Laps::default();
        let mut latencies = Vec::new();
        let mut measured = Duration::ZERO;
        while measured < budget {
            let mut engine = setup.engine(seed);
            let lap = plain_lap(&mut engine, &mut make_source(), events, &mut latencies);
            measured += lap.wall;
            r.attempted += lap.events;
            r.failed += lap.noops;
            laps.push(lap.events, lap.wall, &mut latencies);
            if laps.count() == 1 {
                // Every lap does the same work, so the first one's peak
                // is the workload's.
                r.set("peak_rss_mb", peak_rss_mb());
            }
            let report = engine.finish();
            let what = format!("lap {}", laps.count());
            check_network(&mut r, &engine.net, report.max_delta_ever, &what);
        }
        r.lap_rates = laps.rates().to_vec();
        r.set("events_per_s", laps.rate());
        // The engine's state is visible to its caller when `apply`
        // returns.
        r.set_pct("visible_p50_ms", laps.p50() / 1e6, laps.samples());
        r.set_pct("visible_p99_ms", laps.p99() / 1e6, laps.samples());
    }
    setup.report(&mut r, trace);
    r
}

/// The traced run: traced laps, then one untraced lap of the same
/// events. Every lap must end in the same network state, and the
/// untraced lap's speed is the untraced side of the tracing overhead.
fn traced<S: EventSource>(
    r: &mut Report,
    setup: &Setup,
    make_source: impl Fn() -> S,
    breakdown: bool,
    seed: u64,
    events: u64,
    budget: Duration,
) {
    crate::alloc::enable();
    let mut layers = EngineLayers::default();
    // Every lap does the same work; its counts are reported once.
    let mut lap_work = None;
    let mut measured = Duration::ZERO;
    let mut states = Vec::new();
    while measured < budget {
        let mut engine = setup.engine(seed);
        let mut work = Work::default();
        let lap = traced_lap(
            &mut engine,
            &mut make_source(),
            events,
            breakdown,
            &mut layers,
            &mut work,
        );
        measured += lap.wall;
        r.attempted += lap.events;
        r.failed += lap.noops;
        r.lap_rates
            .push(lap.events as f64 / lap.wall.as_secs_f64().max(1e-9));
        check_network(
            r,
            &engine.net,
            work.max_delta,
            &format!("traced lap {}", states.len() + 1),
        );
        states.push(digest(&engine.net));
        lap_work.get_or_insert(work);
    }

    let mut engine = setup.engine(seed);
    let mut latencies = Vec::new();
    let untraced = plain_lap(&mut engine, &mut make_source(), events, &mut latencies);
    let untraced_state = digest(&engine.net);
    drop(engine);
    for (i, state) in states.iter().enumerate() {
        r.check(*state == untraced_state, || {
            format!(
                "traced lap {} ended in (live, G' edges, hash) = {state:?}, \
                 the untraced lap in {untraced_state:?}",
                i + 1
            )
        });
    }

    r.layer("attack.next_event", layers.next_event, measured);
    r.layer("scenario.apply", layers.apply, measured);
    r.layer("state.delete_node_into", layers.delete, measured);
    r.layer("dash.heal_into", layers.heal, measured);
    r.layer("state.propagate_min_id_uniform", layers.propagate, measured);
    let attributed: Duration = [
        layers.next_event,
        layers.apply,
        layers.delete,
        layers.heal,
        layers.propagate,
    ]
    .iter()
    .map(|l| l.busy)
    .sum();
    r.set(
        "unattributed_share",
        1.0 - attributed.as_secs_f64() / measured.as_secs_f64().max(1e-9),
    );
    lap_work.unwrap_or_default().report(r);
    r.set("failed_frac", r.failed as f64 / r.attempted.max(1) as f64);
    let samples = latencies.len();
    r.set_pct(
        "event_p50_us",
        percentile(&mut latencies, 0.50) as f64 / 1e3,
        samples,
    );
    r.set_pct(
        "event_p99_us",
        percentile(&mut latencies, 0.99) as f64 / 1e3,
        samples,
    );
    let traced_rate = r.attempted as f64 / measured.as_secs_f64().max(1e-9);
    let untraced_rate = untraced.events as f64 / untraced.wall.as_secs_f64().max(1e-9);
    r.set("trace.traced_events_per_s", traced_rate);
    r.set("trace.untraced_events_per_s", untraced_rate);
    r.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
}
