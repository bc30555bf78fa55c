package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"thymesisflow/internal/core"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/sim"
)

// The rack scenario of bench.Rack, built here from the core API so that
// set-up and per-op simulated latency can be measured apart: a rack of
// hosts, attachments across random host pairs, and seeded flows issuing a
// 50/50 mix of 64 B loads and 8 B stores through the flit-level datapath.
const (
	rackHosts       = 24
	rackAttachments = 120
	rackWorkers     = 4  // flows per attachment
	rackOps         = 96 // loads/stores per flow
)

// rackSetup returns the rack workload's set-up on the given shard count;
// 0 means one shard per CPU.
func rackSetup(shards int) func(seed int64) (iteration, error) {
	return func(seed int64) (iteration, error) {
		n := shards
		if n == 0 {
			n = runtime.NumCPU()
		}
		return buildRack(seed, min(n, rackHosts))
	}
}

type rackFlow struct {
	att    *core.Attachment
	host   *core.Host
	sleeps []sim.Time
	isLoad []bool
	offs   []int64
	lat    []float64 // simulated ns of each completed op
	failed bool
}

func buildRack(seed int64, shards int) (iteration, error) {
	c := core.NewClusterShards(shards)
	hosts := make([]*core.Host, rackHosts)
	for i := range hosts {
		hc := core.DefaultHostConfig(fmt.Sprintf("rack%02d", i))
		hc.Sockets = 1
		hc.CoresPerSocket = 4
		hc.DRAMPerSocket = 1 << 30
		hc.SectionSize = 1 << 20
		hc.RMMUSections = 256
		h, err := c.AddHost(hc)
		if err != nil {
			return nil, err
		}
		hosts[i] = h
	}
	rng := rand.New(rand.NewSource(seed))
	var atts []*core.Attachment
	var flows []*rackFlow
	for a := 0; a < rackAttachments; a++ {
		ci := rng.Intn(rackHosts)
		di := (ci + 1 + rng.Intn(rackHosts-1)) % rackHosts
		att, err := c.Attach(core.AttachSpec{
			ComputeHost: hosts[ci].Name, DonorHost: hosts[di].Name, Bytes: 1 << 20, Channels: 1,
		})
		if err != nil {
			return nil, err
		}
		atts = append(atts, att)
		for w := 0; w < rackWorkers; w++ {
			f := &rackFlow{att: att, host: hosts[ci], lat: make([]float64, 0, rackOps)}
			for o := 0; o < rackOps; o++ {
				f.sleeps = append(f.sleeps, sim.Time(rng.Intn(4000))*sim.Nanosecond)
				f.isLoad = append(f.isLoad, rng.Intn(2) == 0)
				f.offs = append(f.offs, int64(rng.Intn(1<<12))*128)
			}
			flows = append(flows, f)
		}
	}
	// Each flow writes only its own slots, so flows on different shard
	// kernels never share a word.
	for i, f := range flows {
		f.host.K.Go(fmt.Sprintf("rack-f%d", i), func(p *sim.Proc) {
			buf := []byte{byte(i), byte(i >> 8), 1, 2, 3, 4, 5, 6}
			for o := range f.sleeps {
				p.Sleep(f.sleeps[o])
				start := p.Now()
				var err error
				if f.isLoad[o] {
					_, err = c.Load(p, f.att, f.offs[o], 64)
				} else {
					err = c.Store(p, f.att, f.offs[o], buf)
				}
				if err != nil {
					f.failed = true
					return
				}
				f.lat = append(f.lat, float64(p.Now()-start)/float64(sim.Nanosecond))
			}
		})
	}

	return func(tr *tracer, _ func()) (*outcome, error) {
		var sink *latency.Sink
		if tr != nil {
			sink = c.EnableLatency()
		}
		t := time.Now()
		end := c.Run()
		host := time.Since(t)
		o := rackOutcome(c, atts, flows, end, host, sink)
		o.runS = host.Seconds()
		return o, nil
	}, nil
}

func rackOutcome(c *core.Cluster, atts []*core.Attachment, flows []*rackFlow, end sim.Time, host time.Duration, sink *latency.Sink) *outcome {
	o := newOutcome()
	o.ops = len(flows) * rackOps
	var lats []float64
	for _, f := range flows {
		lats = append(lats, f.lat...)
	}
	o.failed = o.ops - len(lats)

	// Frames and transactions in both directions; capi counts the
	// requests the compute endpoints issued.
	var txFrames, txTxns, rxTxns, replays, capiTxns int64
	for _, att := range atts {
		for _, p := range att.Ports() {
			st := p.Stats()
			txFrames, txTxns, rxTxns, replays = txFrames+st.TxFrames, txTxns+st.TxTransactions, rxTxns+st.RxTransactions, replays+st.TxReplayed
			capiTxns += st.TxTransactions
			if peer := p.Peer(); peer != nil {
				pst := peer.Stats()
				txFrames, txTxns, rxTxns, replays = txFrames+pst.TxFrames, txTxns+pst.TxTransactions, rxTxns+pst.RxTransactions, replays+pst.TxReplayed
			}
		}
	}
	var events uint64
	for _, k := range c.Kernels() {
		events += k.Scheduled()
	}
	o.work = float64(events)

	o.check(o.failed == 0, "%d of %d loads/stores failed", o.failed, o.ops)
	o.check(txTxns == rxTxns, "transactions sent %d != delivered %d", txTxns, rxTxns)
	o.check(capiTxns == int64(len(lats)), "capi issued %d transactions for %d ops", capiTxns, len(lats))

	// The digest covers every simulated result, the per-op latencies in
	// flow order included, and none of the shard runtime's own counters.
	h := sha256.New()
	for _, v := range []int64{int64(len(lats)), int64(o.failed), txFrames, txTxns, rxTxns, replays, int64(events), int64(end)} {
		binary.Write(h, binary.LittleEndian, v) //nolint:errcheck // hash writes cannot fail
	}
	binary.Write(h, binary.LittleEndian, lats) //nolint:errcheck // hash writes cannot fail
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]

	o.set("sim_load_p50_ns", quantile(lats, 0.50), "sim_ns")
	o.set("sim_load_p99_ns", quantile(lats, 0.99), "sim_ns")
	if sink == nil {
		return o
	}
	o.set("sim.events", float64(events), "count")
	o.set("sim.host_ns_per_event", float64(host.Nanoseconds())/float64(events), "ns")
	o.set("llc.tx_frames", float64(txFrames), "count")
	o.set("llc.replays", float64(replays), "count")
	o.set("llc.frames_per_txn", float64(txFrames)/float64(txTxns), "ratio")
	o.set("capi.txns", float64(capiTxns), "count")
	for _, st := range latency.Stages() {
		o.set("latency."+st.String()+"_ns", sink.StageSummaryFor(st).P50, "sim_ns")
	}
	if h, ok := c.ShardHealth(); ok {
		var stallPS int64
		for _, s := range h.Shards {
			stallPS += s.StallPS
		}
		o.set("shard.windows", float64(h.Windows), "count")
		o.set("shard.events_per_window", h.EventsPerWindow, "count")
		o.set("shard.imbalance", h.Imbalance, "ratio")
		o.set("shard.flushed", float64(h.Flushed), "count")
		o.set("shard.barrier_stall_us", float64(stallPS)/1e6, "sim_us")
	}
	return o
}
