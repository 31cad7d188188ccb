//! The scenario executor: millions of logical clients over a handful of
//! real cache agents.
//!
//! Logical clients are lightweight [`Session`] records; only their
//! coherent accesses touch the protocol engine, issued through
//! `spec.agents` real [`CacheAgent`](simcxl_coherence::cache::CacheAgent)s
//! (client `c` rides agent `c % agents`). Client wakeups (arrivals,
//! think-time expiries) live in the scenario's own calendar queue; the
//! executor interleaves the two event streams by time:
//!
//! * if the earliest wakeup is no later than the engine's next event,
//!   pop the wakeup batch and step those sessions (issuing at the
//!   wakeup tick — never before the engine's `now`);
//! * otherwise dispatch one engine tick-batch and step the sessions
//!   whose accesses completed, at their completion ticks.
//!
//! Both streams are deterministic functions of the spec, so the
//! completion-stream checksum is too.

use super::machine::{Action, StepCtx, TransitionTable};
use super::report::{PhaseAcc, ScenarioOutcome};
use super::session::{Session, SessionSlab};
use super::spec::{Arrival, ScenarioSpec};
use crate::kvstore::slot_addr;
use sim_core::{EventQueue, FxHashMap, SimRng, Tick};
use simcxl_coherence::{AgentId, Completion, MemOp, ProtocolEngine, ReqId};
use simcxl_mem::PhysAddr;

/// A scenario-side wakeup.
enum Wake {
    /// A logical client enters the system.
    Arrive { client: u64, phase: u16 },
    /// A session's think timer fired.
    Think { slot: u32 },
}

/// Folds one completion into the order-sensitive digest — the same
/// folding the hotpath determinism canary uses, so scenario checksums
/// and hotpath checksums are comparable artifacts.
fn fold_checksum(acc: u64, c: &Completion) -> u64 {
    acc.rotate_left(7)
        .wrapping_add(c.value ^ c.done.as_ps() ^ c.addr.raw())
}

/// Runs `spec` on `eng`, multiplexing its clients over `agents`, with
/// the key table based at `base`. Builds the machine from
/// `spec.machine`; use [`run_with_machine`] to supply a custom one.
///
/// # Panics
///
/// Panics on an invalid spec (see [`ScenarioSpec::validate`]) or if
/// `agents.len() != spec.agents`.
pub fn run(
    spec: &ScenarioSpec,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
) -> ScenarioOutcome {
    let table = spec.machine.build();
    run_with_machine(spec, &table, eng, agents, base)
}

/// [`run`], but the arrival schedule starts at `start` instead of
/// `Tick::ZERO` (clamped up to the engine's `now`, so a request is
/// never issued in the engine's past). This is how degradation suites
/// chain several scenario segments on **one** engine — each segment
/// inherits the warm caches and fault-window clock of its predecessor.
///
/// # Panics
///
/// As [`run`].
pub fn run_from(
    spec: &ScenarioSpec,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
    start: Tick,
) -> ScenarioOutcome {
    let table = spec.machine.build();
    run_inner(spec, &table, eng, agents, base, start)
}

/// [`run`], but with an explicit [`TransitionTable`] (the spec's
/// `machine` field is ignored).
///
/// # Panics
///
/// As [`run`].
pub fn run_with_machine(
    spec: &ScenarioSpec,
    table: &TransitionTable,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
) -> ScenarioOutcome {
    run_inner(spec, table, eng, agents, base, Tick::ZERO)
}

fn run_inner(
    spec: &ScenarioSpec,
    table: &TransitionTable,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
    start: Tick,
) -> ScenarioOutcome {
    spec.validate();
    assert_eq!(
        agents.len(),
        spec.agents,
        "agent roster must match the spec"
    );
    let quotas = spec.phase_quotas();
    let mut exec = Exec {
        spec,
        table,
        agents,
        base,
        rng: SimRng::new(spec.seed),
        wakeups: EventQueue::new(),
        sessions: SessionSlab::new(),
        outstanding: FxHashMap::default(),
        accs: spec
            .phases
            .iter()
            .map(|p| PhaseAcc::new(p.name.clone()))
            .collect(),
        hots: spec.phases.iter().map(|p| p.traffic.hot()).collect(),
        cum_quota: quotas
            .iter()
            .scan(0u64, |acc, q| {
                *acc += q;
                Some(*acc)
            })
            .collect(),
        next_client: 0,
        closed: matches!(spec.arrival, Arrival::Closed { .. }),
        completed: 0,
        capped: 0,
        accesses: 0,
        checksum: 0,
        elapsed: Tick::ZERO,
    };

    // Never schedule into the engine's past: a chained segment starts
    // no earlier than where its predecessor left the clock.
    let t0 = start.max(eng.now());
    match spec.arrival {
        Arrival::Open => {
            // The whole arrival schedule is computable upfront: each
            // phase places its quota by inverting its traffic shape.
            let mut client = 0u64;
            let mut phase_start = t0;
            for (pi, phase) in spec.phases.iter().enumerate() {
                for j in 0..quotas[pi] {
                    let at =
                        phase_start + phase.traffic.arrival_offset(j, quotas[pi], phase.duration);
                    exec.wakeups.push(
                        at,
                        Wake::Arrive {
                            client,
                            phase: pi as u16,
                        },
                    );
                    client += 1;
                }
                phase_start += phase.duration;
            }
            exec.next_client = client;
        }
        Arrival::Closed { concurrency } => {
            // Admit the first window ns-staggered from t0; every
            // completion admits the next queued client. Phases label
            // population shares and key skew, not wall-clock windows.
            let first = concurrency.min(spec.clients);
            for c in 0..first {
                let phase = exec.phase_of(c);
                exec.wakeups
                    .push(t0 + Tick::from_ns(c), Wake::Arrive { client: c, phase });
            }
            exec.next_client = first;
        }
    }

    let events0 = eng.events_dispatched();
    loop {
        let tw = exec.wakeups.peek_tick();
        let te = eng.next_event();
        match (tw, te) {
            (None, None) => break,
            (Some(tw), te) if te.is_none_or(|te| tw <= te) => {
                // Wakeup batch first: issues land at tw >= eng.now().
                // Wakeups push at `tw` or later, so this pops exactly
                // the batch at `tw`; its refusal makes the next peek O(1).
                while let Some((_, wake)) = exec.wakeups.pop_before(tw) {
                    match wake {
                        Wake::Arrive { client, phase } => exec.arrive(eng, client, phase, tw),
                        Wake::Think { slot } => exec.step(eng, slot, tw),
                    }
                }
            }
            _ => {
                let done = eng.run_next().expect("engine had a next event");
                for c in &done {
                    exec.on_completion(eng, c);
                }
            }
        }
    }
    assert!(
        exec.outstanding.is_empty() && exec.sessions.live() == 0,
        "scenario drained with {} requests / {} sessions stranded",
        exec.outstanding.len(),
        exec.sessions.live()
    );

    ScenarioOutcome {
        name: spec.name.clone(),
        completed: exec.completed,
        capped: exec.capped,
        accesses: exec.accesses,
        events: eng.events_dispatched() - events0,
        checksum: exec.checksum,
        peak_live: exec.sessions.peak() as u64,
        elapsed: exec.elapsed,
        phases: exec.accs.into_iter().map(PhaseAcc::finish).collect(),
    }
}

struct Exec<'a> {
    spec: &'a ScenarioSpec,
    table: &'a TransitionTable,
    agents: &'a [AgentId],
    base: PhysAddr,
    rng: SimRng,
    wakeups: EventQueue<Wake>,
    sessions: SessionSlab,
    outstanding: FxHashMap<ReqId, u32>,
    accs: Vec<PhaseAcc>,
    hots: Vec<Option<(u64, f64)>>,
    cum_quota: Vec<u64>,
    next_client: u64,
    closed: bool,
    completed: u64,
    capped: u64,
    accesses: u64,
    checksum: u64,
    elapsed: Tick,
}

impl Exec<'_> {
    /// Phase a client index belongs to under the quota split.
    fn phase_of(&self, client: u64) -> u16 {
        self.cum_quota
            .iter()
            .position(|&cum| client < cum)
            .expect("client within population") as u16
    }

    fn arrive(&mut self, eng: &mut ProtocolEngine, client: u64, phase: u16, now: Tick) {
        let slot = self.sessions.insert(Session {
            client,
            phase,
            state: self.table.start(),
            steps: 0,
            started: now,
            last_key: 0,
            last_value: 0,
        });
        self.accs[phase as usize].sessions += 1;
        self.step(eng, slot, now);
    }

    /// Advances the session in `slot`, which is entering its current
    /// state at `now`.
    fn step(&mut self, eng: &mut ProtocolEngine, slot: u32, now: Tick) {
        let s = *self.sessions.get_mut(slot);
        if self.table.is_terminal(s.state) {
            self.finish(slot, now, false);
            return;
        }
        if s.steps >= self.table.cap() {
            self.finish(slot, now, true);
            return;
        }
        let mut ctx = StepCtx {
            client: s.client,
            step: s.steps,
            keys: self.spec.keys,
            hot: self.hots[s.phase as usize],
            last_key: s.last_key,
            last_value: s.last_value,
            rng: &mut self.rng,
        };
        let action = self.table.dispatch(s.state, &mut ctx);
        let sess = self.sessions.get_mut(slot);
        sess.steps += 1;
        match action {
            Action::Access { key, write, then } => {
                sess.last_key = key;
                sess.state = then;
                let agent = self.agents[(s.client % self.agents.len() as u64) as usize];
                let addr = slot_addr(self.base, key, self.spec.buckets);
                let op = if write {
                    MemOp::Store {
                        value: self.rng.next_u64(),
                    }
                } else {
                    MemOp::Load
                };
                let req = eng.issue(agent, op, addr, now);
                self.outstanding.insert(req, slot);
            }
            Action::Think { delay, then } => {
                sess.state = then;
                self.wakeups.push(now + delay, Wake::Think { slot });
            }
            Action::Done => self.finish(slot, now, false),
        }
    }

    fn on_completion(&mut self, eng: &mut ProtocolEngine, c: &Completion) {
        self.checksum = fold_checksum(self.checksum, c);
        self.accesses += 1;
        self.elapsed = self.elapsed.max(c.done);
        let slot = self
            .outstanding
            .remove(&c.req)
            .expect("completion matches an outstanding scenario request");
        {
            let s = self.sessions.get_mut(slot);
            s.last_value = c.value;
            let phase = s.phase as usize;
            self.accs[phase].record(c.issued, c.done);
        }
        self.step(eng, slot, c.done);
    }

    fn finish(&mut self, slot: u32, now: Tick, capped: bool) {
        self.sessions.remove(slot);
        if capped {
            self.capped += 1;
        } else {
            self.completed += 1;
        }
        if self.closed && self.next_client < self.spec.clients {
            let client = self.next_client;
            self.next_client += 1;
            let phase = self.phase_of(client);
            self.wakeups.push(now, Wake::Arrive { client, phase });
        }
    }
}
