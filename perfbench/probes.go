package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"thymesisflow/internal/bench"
	"thymesisflow/internal/capi"
	"thymesisflow/internal/core"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/rmmu"
	"thymesisflow/internal/sim"
)

// Layer probes time single calls into a layer's public functions on fixed
// inputs. They run once per traced run, whatever the workload.
const (
	probeBatches = 7
	probeCalls   = 2000
)

// perCall returns the median over batches of the host time of one call.
func perCall(call func()) float64 {
	batches := make([]float64, probeBatches)
	for b := range batches {
		start := time.Now()
		for i := 0; i < probeCalls; i++ {
			call()
		}
		batches[b] = float64(time.Since(start).Nanoseconds()) / probeCalls
	}
	return median(batches)
}

// dataFrameKind is the wire kind of an LLC data frame (the frame's first
// byte). Decoding the probe frame back checks it.
const dataFrameKind = 1

func probeLayers(out map[string]metric) error {
	payload := make([]byte, capi.Cacheline)
	capi.FillPattern(payload, 7)
	frame := &llc.Frame{Kind: dataFrameKind, Seq: 42, Txns: []*capi.Transaction{
		{Op: capi.OpReadResp, Addr: 0x1000, Size: capi.Cacheline, Tag: 9, Data: payload},
	}}
	wire := frame.Encode()
	back, err := llc.Decode(wire)
	if err != nil || len(back.Txns) != 1 || !bytes.Equal(back.Txns[0].Data, payload) {
		return fmt.Errorf("llc probe: 128 B data frame did not round-trip: %v", err)
	}
	out["llc.encode_ns"] = metric{perCall(func() { frame.Encode() }), "ns"}
	out["llc.decode_ns"] = metric{perCall(func() { llc.Decode(wire) }), "ns"} //nolint:errcheck // checked above
	out["llc.decode_allocs"] = metric{testing.AllocsPerRun(probeCalls, func() { llc.Decode(wire) }), "count"}

	m, err := rmmu.New(256, 1<<20)
	if err != nil {
		return err
	}
	if err := m.Map(3, 1<<32, 5, false); err != nil {
		return err
	}
	txn := &capi.Transaction{Op: capi.OpReadReq, Size: capi.Cacheline}
	var translateErr error
	out["rmmu.translate_ns"] = metric{perCall(func() {
		txn.Addr = 3<<20 + 0x80
		if err := m.Translate(txn); err != nil {
			translateErr = err
		}
	}), "ns"}
	if translateErr != nil {
		return translateErr
	}

	if err := probeLoad(out); err != nil {
		return err
	}

	// The analytic backend's idle latency against the flit-level round trip
	// bench.RTT measures.
	tb, err := core.NewTestbed(core.ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		return err
	}
	rtt := float64(bench.RTT(io.Discard))
	out["endpoint.model_gap_pct"] = metric{100 * math.Abs(float64(tb.Att.Backend.BaseLatency())-rtt) / rtt, "%"}
	return nil
}

// probeLoad issues back-to-back one-cacheline Cluster.Load calls on an idle
// testbed and reports the host time and heap allocations of one load.
func probeLoad(out map[string]metric) error {
	tb, err := core.NewTestbed(core.ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		return err
	}
	var loadErr error
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	tb.Cluster.K.Go("load-probe", func(p *sim.Proc) {
		for i := 0; i < probeCalls; i++ {
			if _, err := tb.Cluster.Load(p, tb.Att, int64(i%512)*capi.Cacheline, capi.Cacheline); err != nil {
				loadErr = err
				return
			}
		}
	})
	tb.Cluster.K.Run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if loadErr != nil {
		return loadErr
	}
	out["core.load_ns"] = metric{float64(elapsed.Nanoseconds()) / probeCalls, "ns"}
	out["core.load_allocs"] = metric{float64(after.Mallocs-before.Mallocs) / probeCalls, "count"}
	out["core.load_bytes"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / probeCalls, "B"}
	return nil
}
