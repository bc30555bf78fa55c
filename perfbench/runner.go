package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minIterations is the fewest iterations an untraced run makes, so that
// every run can compare the digests of two iterations.
const minIterations = 2

// minSetups is the fewest set-ups setup_s is the median of. A run with
// fewer iterations than that repeats the set-up alone to make up the rest.
const minSetups = 10

// outcome is what one iteration of a workload produced.
type outcome struct {
	ops      int       // operations attempted
	failed   int       // operations that returned an error
	work     float64   // units of work behind the workload's rate metric
	runS     float64   // host seconds of the timed phase
	phases   []float64 // host seconds of each phase of the timed phase, if it has more than one
	digest   string    // hash of the simulated outputs
	values   map[string]metric
	problems []string
}

func newOutcome() *outcome { return &outcome{values: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.values[name] = metric{v, unit} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// iteration runs one prepared iteration; tr is nil when untraced. An
// iteration whose timed phase has several phases calls pause, when it is
// not nil, between them, outside their timing.
type iteration func(tr *tracer, pause func()) (*outcome, error)

type workload struct {
	// setup builds one iteration's inputs from the seed.
	setup func(seed int64) (iteration, error)
	// rate names the metric reporting work done per host second.
	rate string
	// sameAs names a workload whose simulated digest must equal this
	// one's at the same seed.
	sameAs string
	// partner names a workload the traced run iterates alongside this one.
	// ratioName reports the partner's run time per unit of work divided by
	// this one's (the inverse when invert is set), and the partner's
	// traced metrics whose names start with borrow are reported as this
	// workload's.
	partner   string
	ratioName string
	invert    bool
	borrow    string
	// parallel workloads run on one P per CPU; the others run on one P.
	parallel bool
}

var workloads = map[string]*workload{
	"rack":         {setup: rackSetup(1), rate: "sim_events_per_s"},
	"rack-sharded": {setup: rackSetup(0), rate: "sim_events_per_s", sameAs: "rack", partner: "rack", ratioName: "shard.speedup", parallel: true},
	"figures":      {setup: figuresSetup, rate: "cells_per_s"},
	"churn":        {setup: churnSetup(false), rate: "sagas_per_s", partner: "churn-ha", ratioName: "raft.ha_slowdown", borrow: "raft."},
	"churn-ha":     {setup: churnSetup(true), rate: "sagas_per_s", partner: "churn", ratioName: "raft.ha_slowdown", invert: true},
}

type timed struct {
	*outcome
	setupS, rssMiB float64
}

// iterate sets up and runs one iteration from a collected heap whose free
// memory went back to the OS, and reports its peak RSS; the workload times
// its own timed phase and calls pause between its phases. A traced
// iteration is CPU-profiled into profile.
func iterate(w *workload, seed int64, tr *tracer, pause func(), profile string) (timed, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return timed{}, err
	}
	t0 := time.Now()
	run, err := w.setup(seed)
	if err != nil {
		return timed{}, fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return timed{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return timed{}, err
		}
	}
	o, err := run(tr, pause)
	if profile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return timed{}, err
	}
	rss, err := peakRSSMiB()
	return timed{o, setupS, rss}, err
}

// absorb folds one iteration's counts and checks into the record.
func (rec *record) absorb(o *outcome) {
	rec.Iterations++
	rec.Attempted += o.ops
	rec.Failed += o.failed
	rec.Problems = append(rec.Problems, o.problems...)
	switch {
	case rec.Digest == "":
		rec.Digest = o.digest
	case rec.Digest != o.digest:
		rec.Problems = append(rec.Problems, fmt.Sprintf("iteration %d digest %s differs from %s", rec.Iterations, o.digest, rec.Digest))
	}
}

// medians sets each metric of the outcomes to its median across them.
func (rec *record) medians(outs []*outcome) {
	vals := map[string][]float64{}
	for _, o := range outs {
		for name, m := range o.values {
			vals[name] = append(vals[name], m.Value)
			rec.Metrics[name] = m
		}
	}
	for name, xs := range vals {
		rec.Metrics[name] = metric{median(xs), rec.Metrics[name].Unit}
	}
}

func runUntraced(w *workload, rec *record, seed int64, budget time.Duration) error {
	var setups, setupRefs, runs, refRuns, refs, rss []float64
	var outs []*outcome
	var first float64 // host seconds of the last iteration's first phase
	start, last := time.Now(), time.Duration(0)
	for len(outs) < minIterations || time.Since(start)+last <= budget {
		t := time.Now()
		p := &refProbe{}
		p.slot(first)
		it, err := iterate(w, seed, nil, p.pause, "")
		if err != nil {
			return err
		}
		phases := it.phases
		if phases == nil {
			phases = []float64{it.runS}
		}
		p.slot(phases[len(phases)-1])
		if p.err != nil {
			return p.err
		}
		if len(p.refs) != len(phases)+1 {
			return fmt.Errorf("%d reference slots around %d phases", len(p.refs), len(phases))
		}
		// Each phase is divided by the mean of the reference rounds
		// timed right before and right after it.
		var norm float64
		for i, d := range phases {
			norm += d / ((p.refs[i] + p.refs[i+1]) / 2)
		}
		first, last = phases[0], time.Since(t)
		rec.absorb(it.outcome)
		if rec.Iterations == 1 {
			// The first iteration warms the heap and the caches; it is
			// checked but not measured.
			continue
		}
		setups, setupRefs = append(setups, it.setupS), append(setupRefs, it.setupS/p.refs[0])
		runs, refRuns, refs = append(runs, it.runS), append(refRuns, norm), append(refs, p.refs...)
		rss, outs = append(rss, math.Max(it.rssMiB, p.peakMiB)), append(outs, it.outcome)
	}
	for len(setups) < minSetups {
		ref, err := reference(0)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := w.setup(seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		setupRefs = append(setupRefs, setups[len(setups)-1]/ref)
	}
	rec.medians(outs)
	runS := median(runs)
	rec.Metrics["setup_s"] = metric{median(setupRefs) * refNominal.Seconds(), "s"}
	rec.Metrics["setup_host_s"] = metric{median(setups), "s"}
	rec.Metrics["run_s"] = metric{runS, "s"}
	rec.Metrics["run_ref"] = metric{median(refRuns), "ref"}
	rec.Metrics["ref_s"] = metric{median(refs), "s"}
	// Where the collector's pacing puts a collection moves an iteration's
	// peak by up to a quarter; the lowest peak is what the work needs.
	rec.Metrics["peak_rss_mb"] = metric{slices.Min(rss), "MiB"}
	rec.Metrics[w.rate] = metric{outs[0].work / runS, "1/s"}
	rec.Metrics["op_fail_ratio"] = metric{float64(rec.Failed) / float64(rec.Attempted), "ratio"}
	return checkSameAs(w, rec, seed)
}

// runTraced alternates untraced and traced iterations (and, with a
// partner, the partner's) until the budget is spent, then adds the layer
// probes and the CPU profile summary.
func runTraced(w *workload, rec *record, seed int64, budget time.Duration) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var plain, traced, partner []float64
	var outs, borrowed []*outcome
	var profiles []string
	var lastTracer *tracer
	start, last := time.Now(), time.Duration(0)
	for len(outs) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		it, err := iterate(w, seed, nil, nil, "")
		if err != nil {
			return err
		}
		rec.absorb(it.outcome)
		plain = append(plain, it.runS/it.work)

		tr := newTracer()
		profile := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.pprof", rec.Workload, seed, len(outs)))
		if it, err = iterate(w, seed, tr, nil, profile); err != nil {
			return err
		}
		rec.absorb(it.outcome)
		traced, outs, profiles = append(traced, it.runS/it.work), append(outs, it.outcome), append(profiles, profile)
		lastTracer = tr

		if w.partner != "" {
			p, err := iterate(workloads[w.partner], seed, nil, nil, "")
			if err != nil {
				return fmt.Errorf("partner %s: %w", w.partner, err)
			}
			partner = append(partner, p.runS/p.work)
			if w.borrow != "" {
				if p, err = iterate(workloads[w.partner], seed, newTracer(), nil, ""); err != nil {
					return fmt.Errorf("partner %s: %w", w.partner, err)
				}
				rec.Problems = append(rec.Problems, p.problems...)
				borrowed = append(borrowed, p.outcome)
			}
		}
		last = time.Since(t)
	}
	rec.medians(outs)
	rec.Metrics["trace.overhead_pct"] = metric{100 * (median(traced)/median(plain) - 1), "%"}
	if w.partner != "" {
		r := median(partner) / median(plain)
		if w.invert {
			r = 1 / r
		}
		rec.Metrics[w.ratioName] = metric{r, "ratio"}
	}
	if w.borrow != "" {
		for _, o := range borrowed {
			for name := range o.values {
				if !strings.HasPrefix(name, w.borrow) {
					delete(o.values, name)
				}
			}
		}
		rec.medians(borrowed)
	}
	if err := lastTracer.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", rec.Workload, seed))); err != nil {
		return err
	}
	if err := probeLayers(rec.Metrics); err != nil {
		return err
	}
	if err := profileShares(rec.Metrics, profiles); err != nil {
		return err
	}
	return checkSameAs(w, rec, seed)
}

func checkSameAs(w *workload, rec *record, seed int64) error {
	if w.sameAs == "" {
		return nil
	}
	it, err := iterate(workloads[w.sameAs], seed, nil, nil, "")
	if err != nil {
		return fmt.Errorf("reference %s: %w", w.sameAs, err)
	}
	if it.digest != rec.Digest {
		rec.Problems = append(rec.Problems, fmt.Sprintf("digest %s differs from %s's %s at seed %d", rec.Digest, w.sameAs, it.digest, seed))
	}
	return nil
}

// profilePackages are the repository packages whose self-time share of the
// traced iterations' CPU profile is reported as <name>.cpu_pct; each maps
// from its import path below thymesisflow/internal/.
var profilePackages = map[string]string{
	"sim": "sim", "sim/shard": "shard", "llc": "llc", "phy": "phy", "capi": "capi",
	"rmmu": "rmmu", "route": "route", "endpoint": "endpoint", "core": "core",
	"mem": "mem", "numa": "numa", "controlplane": "controlplane", "agent": "agent",
	"graphdb": "graphdb", "raft": "raft",
}

// profileShares summarises the CPU profiles with `go tool pprof -top`:
// each package's share is the sum of its functions' flat (self) share, and
// gc.cpu_pct the cumulative share of the GC's mark workers and assists.
func profileShares(out map[string]metric, profiles []string) error {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]float64{"gc": 0, "workloads": 0}
	for _, name := range profilePackages {
		shares[name] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		fn := f[5]
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" {
			shares["gc"] += cum
		}
		path, ok := strings.CutPrefix(fn, "thymesisflow/internal/")
		if !ok {
			continue
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			path = path[:i] + strings.SplitN(path[i:], ".", 2)[0]
		} else {
			path = strings.SplitN(path, ".", 2)[0]
		}
		if strings.HasPrefix(path, "workloads/") {
			shares["workloads"] += flat
		} else if name, ok := profilePackages[path]; ok {
			shares[name] += flat
		}
	}
	for name, v := range shares {
		out[name+".cpu_pct"] = metric{v, "%"}
	}
	return nil
}
