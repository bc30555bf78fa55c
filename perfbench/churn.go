package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/dctrace"
)

// The churn workloads drive a seeded dctrace attach/detach trace through
// controlplane.Service from one issuer that waits for each saga, in a
// world shaped like bench.Replay's: 8 hosts with 12 transceivers per
// endpoint, a FaultyTransport dropping 2%, duplicating 4% and ambiguously
// failing 4% of commands, and six attempts per saga step.
const (
	churnHosts        = 8
	churnTransceivers = 12
	churnSagas        = 1200 // attach/detach events per single-node iteration
	churnHASagas      = 150  // per replicated iteration: append cost grows with log length
	churnHANodes      = 3
	churnToken        = "perfbench-secret"
)

// switchJournal routes appends to the current leader's ReplicatedJournal
// and is re-pointed after a failover, so the wrappers above it survive.
// When traced it records the host time of every replicated append.
type switchJournal struct {
	inner controlplane.Journal
	tr    *tracer
}

func (s *switchJournal) Append(e controlplane.JournalEntry) error {
	if s.tr == nil {
		return s.inner.Append(e)
	}
	t := time.Now()
	err := s.inner.Append(e)
	s.tr.raftAppends = append(s.tr.raftAppends, time.Since(t))
	return err
}

func (s *switchJournal) Entries() ([]controlplane.JournalEntry, error) { return s.inner.Entries() }

type churnWorld struct {
	cluster *core.Cluster
	model   *controlplane.Model
	faulty  *controlplane.FaultyTransport
	journal controlplane.Journal // what the Service appends to
	hosts   []string
	events  []dctrace.ChurnEvent

	// Replicated journal only.
	rs     *controlplane.ReplicaSet
	leader string
	swap   *switchJournal
	crash  *controlplane.CrashableJournal
	killAt int // journal appends before the leader is killed
}

func churnSetup(ha bool) func(seed int64) (iteration, error) {
	return func(seed int64) (iteration, error) {
		w, err := buildChurnWorld(seed, ha)
		if err != nil {
			return nil, err
		}
		return w.run, nil
	}
}

func buildChurnWorld(seed int64, ha bool) (*churnWorld, error) {
	w := &churnWorld{cluster: core.NewCluster(), model: controlplane.NewModel()}
	for i := 0; i < churnHosts; i++ {
		name := fmt.Sprintf("churn%02d", i)
		hc := core.DefaultHostConfig(name)
		hc.Sockets = 1
		hc.CoresPerSocket = 2
		hc.DRAMPerSocket = 1 << 30
		hc.SectionSize = 1 << 20
		hc.RMMUSections = 512
		if _, err := w.cluster.AddHost(hc); err != nil {
			return nil, err
		}
		if err := w.model.AddHost(name, churnTransceivers); err != nil {
			return nil, err
		}
		w.hosts = append(w.hosts, name)
	}
	for _, a := range w.hosts {
		for _, b := range w.hosts {
			if a == b {
				continue
			}
			ca := w.model.Transceivers(a, controlplane.LabelComputeEP)
			mb := w.model.Transceivers(b, controlplane.LabelMemoryEP)
			for i := range ca {
				if i < len(mb) {
					if err := w.model.Cable(ca[i], mb[i]); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	direct := controlplane.NewDirectTransport()
	for _, n := range w.hosts {
		direct.Register(agent.New(n, churnToken))
	}
	w.faulty = controlplane.NewFaultyTransport(direct, controlplane.TransportFaults{
		Seed: seed, DropProb: 0.02, DupProb: 0.04, AmbiguousProb: 0.04,
	})

	sagas := churnSagas
	if ha {
		sagas = churnHASagas
	}
	cfg := dctrace.DefaultChurnConfig()
	cfg.Seed, cfg.Hosts = seed, churnHosts
	cfg.FlapStorms, cfg.PressurePerMinute, cfg.ScalePerMinute = 0, 0, 0
	// Short lifetimes keep few attachments live, so no attach is refused
	// for want of a free transceiver path and no saga fails.
	cfg.MeanLifetime = 0.4
	for _, ev := range dctrace.GenerateChurn(cfg) {
		if len(w.events) < sagas && (ev.Kind == dctrace.ChurnAttach || ev.Kind == dctrace.ChurnDepart) {
			w.events = append(w.events, ev)
		}
	}
	if len(w.events) < sagas {
		return nil, fmt.Errorf("churn trace has %d attach/detach events, want %d", len(w.events), sagas)
	}

	if !ha {
		w.journal = controlplane.NewMemJournal()
		return w, nil
	}
	ids := make([]string, churnHANodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("cp-%02d", i)
	}
	rs, err := controlplane.NewReplicaSet(ids, seed)
	if err != nil {
		return nil, err
	}
	if w.leader, err = rs.ElectLeader(800); err != nil {
		return nil, err
	}
	w.rs = rs
	w.swap = &switchJournal{inner: rs.Journal(w.leader)}
	w.crash = controlplane.NewCrashableJournal(w.swap)
	// Kill the leader between a third and two thirds of the way through
	// the trace (about ten appends per saga), at an odd offset so the kill
	// usually lands mid-saga.
	rng := rand.New(rand.NewSource(seed))
	w.killAt = (sagas*10/3 + rng.Intn(sagas*10/3)) | 1
	w.crash.FailAfter(w.killAt)
	w.journal = w.crash
	return w, nil
}

// boot starts a control plane over the world, with the layer wrappers
// when traced.
func (w *churnWorld) boot(tr *tracer) *controlplane.Service {
	var exec controlplane.Executor = controlplane.ClusterExecutor{Cluster: w.cluster}
	var journal controlplane.Journal = w.journal
	var transport controlplane.Transport = w.faulty
	if tr != nil {
		exec = tracedExecutor{controlplane.ClusterExecutor{Cluster: w.cluster}, tr}
		journal = tracedJournal{w.journal, tr}
		transport = tracedTransport{w.faulty, tr}
	}
	svc := controlplane.NewService(w.model, exec, churnToken)
	svc.SetJournal(journal)
	svc.SetTransport(transport)
	svc.SetRetryPolicy(controlplane.RetryPolicy{MaxAttempts: 6})
	if w.rs != nil {
		svc.SetLeaderGate(w.rs.Gate(w.leader))
	}
	return svc
}

// churnRun is the state of one pass over the trace.
type churnRun struct {
	w       *churnWorld
	tr      *tracer
	svc     *controlplane.Service
	live    map[int]string // attach Seq -> attachment ID
	lat     []float64      // host ms of each Attach/Detach call
	ok, bad int
	retries int64
	comps   int64

	failoverMS float64
	acked      []string // sagas committed before the leader kill
}

func (w *churnWorld) run(tr *tracer, _ func()) (*outcome, error) {
	r := &churnRun{w: w, tr: tr, svc: w.boot(tr), live: map[int]string{}}
	if w.swap != nil {
		w.swap.tr = tr
	}
	var commit0 uint64
	if w.rs != nil {
		commit0 = w.rs.StatusFor(w.leader).CommitIndex
	}
	start := time.Now()
	for _, ev := range w.events {
		if err := r.apply(ev); err != nil {
			return nil, err
		}
	}
	runS := time.Since(start).Seconds()
	o := r.finish(commit0)
	o.runS = runS
	return o, nil
}

// apply issues the saga for one trace event. A leader kill surfaces as a
// crash error: the run fails over and settles the crashed saga on the new
// leader.
func (r *churnRun) apply(ev dctrace.ChurnEvent) error {
	id, isLive := r.live[ev.Ref]
	if ev.Kind == dctrace.ChurnDepart && !isLive {
		return nil // its attach failed
	}
	err := r.saga(ev, id)
	if err != nil && controlplane.IsCrash(err) {
		if err := r.failover(); err != nil {
			return err
		}
		err = r.settle(ev, id)
	}
	if err != nil {
		r.bad++
		return nil
	}
	r.ok++
	return nil
}

func (r *churnRun) saga(ev dctrace.ChurnEvent, id string) error {
	op := "detach"
	if ev.Kind == dctrace.ChurnAttach {
		op = "attach"
	}
	root := -1
	if r.tr != nil {
		root = r.tr.saga(op)
	}
	t := time.Now()
	var err error
	if ev.Kind == dctrace.ChurnAttach {
		var rec *controlplane.AttachmentRecord
		rec, err = r.svc.Attach(controlplane.AttachRequest{
			ComputeHost: r.w.hosts[ev.Compute], DonorHost: r.w.hosts[ev.Donor], Bytes: ev.Bytes, Channels: 1,
		})
		if err == nil {
			r.live[ev.Seq] = rec.ID
		}
	} else {
		err = r.svc.Detach(id)
		if err == nil {
			delete(r.live, ev.Ref)
		}
	}
	r.lat = append(r.lat, float64(time.Since(t).Nanoseconds())/1e6)
	if root >= 0 {
		r.tr.end(root)
	}
	return err
}

// failover kills the leader the crashed journal was bound to, elects a
// successor, and recovers a fresh Service on it from the committed log.
func (r *churnRun) failover() error {
	w := r.w
	for _, st := range r.svc.Sagas() {
		if st.State == "committed" {
			r.acked = append(r.acked, st.ID)
		}
	}
	c := r.svc.Counters()
	r.retries, r.comps = r.retries+c.SagaRetries, r.comps+c.SagaCompensations

	t := time.Now()
	w.rs.Stop(w.leader)
	next, err := w.rs.ElectLeader(800)
	if err != nil {
		return fmt.Errorf("failover election: %w", err)
	}
	w.leader = next
	w.swap.inner = w.rs.Journal(next)
	w.crash.FailAfter(-1)
	r.svc = w.boot(r.tr)
	if _, err := r.svc.Recover(); err != nil {
		return fmt.Errorf("recover on %s: %w", next, err)
	}
	r.failoverMS = float64(time.Since(t).Nanoseconds()) / 1e6
	return nil
}

// settle finishes the event whose saga crashed: recovery either rolled it
// forward, or the saga is issued again on the new leader.
func (r *churnRun) settle(ev dctrace.ChurnEvent, id string) error {
	if ev.Kind == dctrace.ChurnAttach {
		known := map[string]bool{}
		for _, id := range r.live {
			known[id] = true
		}
		for _, rec := range r.svc.Attachments() {
			if !known[rec.ID] && rec.ComputeHost == r.w.hosts[ev.Compute] && rec.DonorHost == r.w.hosts[ev.Donor] && rec.Bytes == ev.Bytes {
				r.live[ev.Seq] = rec.ID
				return nil
			}
		}
	} else if _, ok := r.svc.Attachment(id); !ok {
		delete(r.live, ev.Ref)
		return nil
	}
	return r.saga(ev, id)
}

// finish checks the end state and reports the iteration's metrics.
func (r *churnRun) finish(commit0 uint64) *outcome {
	w, o := r.w, newOutcome()
	o.ops, o.failed, o.work = r.ok+r.bad, r.bad, float64(r.ok)

	// The control plane's attachments are exactly the cluster's, and a
	// fresh Service recovering from the same journal rebuilds them.
	svcIDs := attachmentIDs(r.svc.Attachments())
	var clusterIDs []string
	for _, a := range w.cluster.Attachments() {
		clusterIDs = append(clusterIDs, a.ID)
	}
	sort.Strings(clusterIDs)
	o.check(fmt.Sprint(svcIDs) == fmt.Sprint(clusterIDs), "service has %d attachments, cluster %d", len(svcIDs), len(clusterIDs))
	fresh := w.boot(nil)
	if _, err := fresh.Recover(); err != nil {
		o.check(false, "recover on a fresh service: %v", err)
	} else {
		got := attachmentIDs(fresh.Attachments())
		o.check(fmt.Sprint(got) == fmt.Sprint(svcIDs), "recovered %d attachments, service has %d", len(got), len(svcIDs))
	}

	c := r.svc.Counters()
	r.retries, r.comps = r.retries+c.SagaRetries, r.comps+c.SagaCompensations
	ts := w.faulty.Stats()
	entries, err := w.journal.Entries()
	o.check(err == nil, "journal entries: %v", err)

	h := sha256.New()
	fmt.Fprintf(h, "ok=%d bad=%d retries=%d comps=%d transport=%+v entries=%d\n", r.ok, r.bad, r.retries, r.comps, ts, len(entries))
	for _, rec := range r.svc.Attachments() {
		fmt.Fprintf(h, "%s %s %s %d\n", rec.ID, rec.ComputeHost, rec.DonorHost, rec.Bytes)
	}
	var commit uint64
	if w.rs != nil {
		commit = r.checkReplicas(o)
		fmt.Fprintf(h, "leader=%s commit=%d changes=%d dropped=%d\n", w.leader, commit, w.rs.LeaderChanges(), w.rs.DroppedMessages())
	}
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]

	if w.rs == nil {
		o.set("saga_p50_ms", quantile(r.lat, 0.50), "ms")
		o.set("saga_p99_ms", quantile(r.lat, 0.99), "ms")
	} else {
		o.set("saga_p50_ms", quantile(r.lat, 0.50), "ms")
		o.set("saga_p90_ms", quantile(r.lat, 0.90), "ms")
	}
	if r.tr != nil {
		r.layerMetrics(o, ts, commit-commit0)
	}
	return o
}

// checkReplicas ticks the replica set until every live replica holds the
// leader's log, then checks they all commit the same entries and that
// every saga acked before the leader kill is committed. It returns the
// leader's commit index.
func (r *churnRun) checkReplicas(o *outcome) uint64 {
	rs := r.w.rs
	caughtUp := func() bool {
		st := rs.StatusFor(r.w.leader)
		for _, m := range rs.Members() {
			if !m.Stopped && (m.Commit != st.CommitIndex || m.LastIndex != st.LastIndex) {
				return false
			}
		}
		return st.CommitIndex == st.LastIndex
	}
	for i := 0; i < 800 && !caughtUp(); i++ {
		if err := rs.Tick(1); err != nil {
			o.check(false, "raft tick: %v", err)
			break
		}
	}
	o.check(caughtUp(), "live replicas never caught up with leader %s", r.w.leader)
	want, err := rs.CommittedEntries(r.w.leader)
	o.check(err == nil, "leader entries: %v", err)
	for _, m := range rs.Members() {
		if m.Stopped || m.ID == r.w.leader {
			continue
		}
		got, err := rs.CommittedEntries(m.ID)
		o.check(err == nil && fmt.Sprint(got) == fmt.Sprint(want), "replica %s commits %d entries, leader %s %d", m.ID, len(got), r.w.leader, len(want))
	}
	committed := map[string]bool{}
	for _, e := range want {
		if e.Event == controlplane.EvCommitted {
			committed[e.SagaID] = true
		}
	}
	o.check(len(r.acked) > 0, "the leader was never killed")
	for _, id := range r.acked {
		o.check(committed[id], "saga %s acked before the leader kill is not committed on %s", id, r.w.leader)
	}
	return rs.StatusFor(r.w.leader).CommitIndex
}

// layerMetrics derives the control-plane layer metrics from the spans of a
// traced iteration.
func (r *churnRun) layerMetrics(o *outcome, ts controlplane.TransportStats, entries uint64) {
	durs := map[string][]float64{} // µs per span name
	var self []float64             // ms of saga time outside any child span
	children := map[int]time.Duration{}
	for _, s := range r.tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur().Nanoseconds())/1e3)
		if s.parent >= 0 {
			children[s.parent] += s.dur()
		}
	}
	for i, s := range r.tr.spans {
		if s.isSaga() {
			self = append(self, float64((s.dur()-children[i]).Nanoseconds())/1e6)
		}
	}
	sagas := float64(len(self))
	o.set("controlplane.saga_self_ms", median(self), "ms")
	o.set("controlplane.journal_appends_per_saga", float64(len(durs["journal.append"]))/sagas, "per_saga")
	o.set("controlplane.journal_append_us_p50", quantile(durs["journal.append"], 0.50), "us")
	o.set("controlplane.journal_append_us_p99", quantile(durs["journal.append"], 0.99), "us")
	o.set("controlplane.transport_sends_per_saga", float64(len(durs["transport.send"]))/sagas, "per_saga")
	o.set("controlplane.transport_send_us", quantile(durs["transport.send"], 0.50), "us")
	faults := ts.Drops + ts.Dups + ts.Ambiguous + ts.Crashes + ts.PartitionDrops
	o.set("controlplane.transport_useful_ratio", float64(ts.Sends-faults)/float64(ts.Sends), "ratio")
	o.set("controlplane.retries_per_saga", float64(r.retries)/sagas, "per_saga")
	o.set("controlplane.compensations", float64(r.comps), "count")
	o.set("core.attach_ms", quantile(durs["executor.attach"], 0.50)/1e3, "ms")
	o.set("core.detach_ms", quantile(durs["executor.detach"], 0.50)/1e3, "ms")
	if r.w.rs == nil {
		return
	}
	appends := make([]float64, len(r.tr.raftAppends))
	for i, d := range r.tr.raftAppends {
		appends[i] = float64(d.Nanoseconds()) / 1e3
	}
	tenth := len(appends) / 10
	growth := median(appends[len(appends)-tenth:]) / median(appends[:tenth])
	o.set("raft.append_us_p50", quantile(append([]float64(nil), appends...), 0.50), "us")
	o.set("raft.append_us_p90", quantile(appends, 0.90), "us")
	o.set("raft.append_growth", growth, "ratio")
	o.set("raft.entries_per_saga", float64(entries)/sagas, "per_saga")
	o.set("raft.leader_changes", float64(r.w.rs.LeaderChanges()), "count")
	o.set("raft.dropped_msgs", float64(r.w.rs.DroppedMessages()), "count")
	o.set("raft.failover_ms", r.failoverMS, "ms")
}

func attachmentIDs(recs []*controlplane.AttachmentRecord) []string {
	ids := make([]string, 0, len(recs))
	for _, rec := range recs {
		ids = append(ids, rec.ID)
	}
	sort.Strings(ids)
	return ids
}
