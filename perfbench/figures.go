package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"time"

	"thymesisflow/internal/bench"
	"thymesisflow/internal/core"
)

// paperPoint is one numeric value the paper reports for a figure, compared
// with the value the figure function returns.
type paperPoint struct {
	name  string
	paper float64
	ours  func(f5, f9 map[string]float64) float64
}

// paperPoints are the numeric paper values EXPERIMENTS.md quotes for the
// quick-scale figures: Figure 5 single-channel copy bandwidth at 4/8/16
// threads, Figure 5 bonded copy bandwidth at its peak, and Figure 9's RTQ
// gap of single-disaggregated against scale-out at 5 shards.
var paperPoints = []paperPoint{
	{"fig5 single copy 4 threads GiB/s", 10, func(f5, _ map[string]float64) float64 { return f5["single-disaggregated/4/copy"] }},
	{"fig5 single copy 8 threads GiB/s", 12.4, func(f5, _ map[string]float64) float64 { return f5["single-disaggregated/8/copy"] }},
	{"fig5 single copy 16 threads GiB/s", 11, func(f5, _ map[string]float64) float64 { return f5["single-disaggregated/16/copy"] }},
	{"fig5 bonded copy peak GiB/s", 15, func(f5, _ map[string]float64) float64 {
		return math.Max(f5["bonding-disaggregated/4/copy"], math.Max(f5["bonding-disaggregated/8/copy"], f5["bonding-disaggregated/16/copy"]))
	}},
	{"fig9 RTQ single vs scale-out %", -75.65, func(_, f9 map[string]float64) float64 {
		return 100 * (f9["RTQ/5/single-disaggregated"]/f9["RTQ/5/scale-out"] - 1)
	}},
}

// fig6Cells is the number of VoltDB runs Figure 6 makes at quick scale
// (workloads A and C, 4/16/32 partitions, local and single-disaggregated);
// the function returns no map to count them from.
const fig6Cells = 12

// figuresSetup builds one testbed of every memory configuration, the
// set-up each figure cell repeats; the figure functions then build their
// own.
func figuresSetup(int64) (iteration, error) {
	for _, cfg := range core.AllConfigs() {
		if _, err := core.NewTestbed(cfg, 4<<30); err != nil {
			return nil, err
		}
	}
	return runFigures, nil
}

// runFigures runs Figures 5 to 9 at quick scale, in order, each figure a
// phase of the timed phase. The digest hashes every returned value and the
// printed tables.
func runFigures(tr *tracer, pause func()) (*outcome, error) {
	o := newOutcome()
	h := sha256.New()
	var f5, f7, f9 map[string]float64
	figs := []struct {
		name string
		run  func(w io.Writer)
	}{
		{"fig5", func(w io.Writer) { f5 = bench.Fig5Stream(w, bench.Quick) }},
		{"fig6", func(w io.Writer) { bench.Fig6Profile(w, bench.Quick) }},
		{"fig7", func(w io.Writer) { f7 = bench.Fig7Throughput(w, bench.Quick) }},
		{"fig8", func(w io.Writer) {
			f8 := bench.Fig8Memcached(w, bench.Quick)
			for _, cfg := range core.AllConfigs() {
				res := f8[cfg]
				g := res.GetLatency
				o.work++
				fmt.Fprintf(h, "fig8 %v %g %g %g %g %g %g\n", cfg, g.Mean(), g.Quantile(0.5), g.Quantile(0.9), g.Quantile(0.99), res.HitRatio, res.Throughput)
			}
		}},
		{"fig9", func(w io.Writer) { f9 = bench.Fig9Search(w, bench.Quick) }},
	}
	for i, fig := range figs {
		if i > 0 && pause != nil {
			pause()
		}
		o.ops++
		start := time.Now()
		ok := runFigure(h, fig.run)
		d := time.Since(start).Seconds()
		o.phases = append(o.phases, d)
		o.runS += d
		if !ok {
			o.failed++
			o.check(false, "%s failed", fig.name)
			continue
		}
		if tr != nil {
			o.set(fig.name+".run_s", d, "s")
		}
	}
	for _, m := range []map[string]float64{f5, f7, f9} {
		hashMap(h, m)
	}
	o.work += float64(len(f5)/4+len(f7)+len(f9)) + fig6Cells // Figure 5 returns four kernels per cell
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]

	if f5 != nil && f9 != nil {
		var sum float64
		for _, p := range paperPoints {
			sum += math.Abs(p.ours(f5, f9)-p.paper) / math.Abs(p.paper)
		}
		o.set("paper_err_pct", 100*sum/float64(len(paperPoints)), "%")
	}
	return o, nil
}

// runFigure runs one figure function, reporting false if it panicked (the
// figure functions panic on a failed cell).
func runFigure(w io.Writer, run func(io.Writer)) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	run(w)
	return true
}

func hashMap(h hash.Hash, m map[string]float64) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(h, "%s=%g\n", k, m[k])
	}
}
