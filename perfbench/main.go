// Command perfbench is the repository benchmark. It runs one named workload
// over the public API of the simulator and the control plane for a fixed
// host-time budget, checks that every iteration's simulated output is
// correct and identical, and prints the metrics named in BENCHMARK.json.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload rack --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh diff OLD.json NEW.json
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it alternates untraced and traced iterations and reports
// the per-layer metrics. The last line of standard output is the result
// object; the line before it is the full record (host fingerprint, digest
// of the simulated outputs, and every metric), which is also written under
// .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes: result records, span files and
// CPU profiles. run.sh puts the build cache and the binary there too.
const outDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run: rack, rack-sharded, figures, churn or churn-ha")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "host seconds to spend iterating the workload")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	if err := runMain(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(name string, seed int64, budget time.Duration, traced bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if !w.parallel {
		// The workload is one goroutine. On one P the garbage collector
		// shares that goroutine's CPU, and the run never waits for the
		// host to wake a second vCPU. On a shared 2-vCPU host, keeping the
		// other vCPU busy raised churn's run_s by 30% on two Ps and moved
		// it by 4% on one.
		runtime.GOMAXPROCS(1)
	}
	host, err := fingerprintHost()
	if err != nil {
		return err
	}
	rec := &record{Workload: name, Seed: seed, Traced: traced, Host: host, Metrics: map[string]metric{}}
	if traced {
		err = runTraced(w, rec, seed, budget)
	} else {
		err = runUntraced(w, rec, seed, budget)
	}
	if err != nil {
		return err
	}

	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("workload %s produced no %s", name, m.Name)
		case !ok:
			// The layer does no work on this workload.
			got = metric{Value: 0, Unit: m.Unit}
			rec.Metrics[m.Name] = got
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = got
	}

	printTable(rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if err := writeRecord(rec, line); err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rec.Problems) == 0, rec.Attempted, rec.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set size (Linux), so that each iteration's peak is read on its own.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the peak resident set size since the last reset.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func writeRecord(rec *record, line []byte) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if rec.Traced {
		kind = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", rec.Workload, rec.Seed, kind))
	return os.WriteFile(path, append(line, '\n'), 0o644)
}

func printTable(rec *record) {
	fmt.Printf("%s seed=%d traced=%v iterations=%d digest=%s go=%s nproc=%d gomaxprocs=%d\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Iterations, rec.Digest,
		rec.Host.GoVersion, rec.Host.NumCPU, rec.Host.GOMAXPROCS)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Printf("  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// fingerprint identifies the host and build a result was measured on.
// Results are only comparable when the host fields match.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
	// Source is a SHA-256 over go.mod and every .go file under internal/,
	// standing in for the commit in checkouts that are not git trees.
	Source string `json:"source"`
}

func fingerprintHost() (fingerprint, error) {
	src, err := sourceDigest()
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Source:     src,
	}, err
}

func (f fingerprint) sameHost(o fingerprint) bool {
	return f.NumCPU == o.NumCPU && f.GOMAXPROCS == o.GOMAXPROCS &&
		f.GoVersion == o.GoVersion && f.Platform == o.Platform
}
