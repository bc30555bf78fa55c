package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Host       fingerprint       `json:"host"`
	Iterations int               `json:"iterations"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Digest     string            `json:"digest"`
	Metrics    map[string]metric `json:"metrics"`
	Problems   []string          `json:"problems,omitempty"`
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// workloadBounds are the regression bounds of the workload-specific
// end-to-end metrics, which the record carries beside the BENCHMARK.json
// ones. Simulated-time metrics repeat exactly per seed, so any change is
// reported.
var workloadBounds = map[string]specMetric{
	"run_s":            {Better: "lower", Bound: 0.25},
	"sim_events_per_s": {Better: "higher", Bound: 0.25},
	"sagas_per_s":      {Better: "higher", Bound: 0.25},
	"cells_per_s":      {Better: "higher", Bound: 0.25},
	"sim_load_p50_ns":  {Better: "lower", Bound: 0},
	"sim_load_p99_ns":  {Better: "lower", Bound: 0},
	"saga_p50_ms":      {Better: "lower", Bound: 0.25},
	"saga_p90_ms":      {Better: "lower", Bound: 0.25},
	"saga_p99_ms":      {Better: "lower", Bound: 0.25},
	"paper_err_pct":    {Better: "lower", Bound: 0},
	"op_fail_ratio":    {Better: "lower", Bound: 0},
}

// runDiff compares two result records of the same workload and seed and
// flags every end-to-end metric that got worse by more than its bound. It
// refuses records measured on different hosts.
func runDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench diff OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	old, cur := recs[0], recs[1]
	if !old.Host.sameHost(cur.Host) {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to diff results from different hosts: %+v vs %+v\n", old.Host, cur.Host)
		return 2
	}
	if old.Workload != cur.Workload || old.Seed != cur.Seed || old.Traced != cur.Traced {
		fmt.Fprintln(os.Stderr, "perfbench: records differ in workload, seed or tracing")
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	bounds := map[string]specMetric{}
	for k, v := range workloadBounds {
		bounds[k] = v
	}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m
	}
	if old.Digest != cur.Digest {
		fmt.Printf("simulated digest changed: %s -> %s\n", old.Digest, cur.Digest)
	}
	worse := 0
	for _, name := range sortedKeys(cur.Metrics) {
		o, ok := old.Metrics[name]
		if !ok {
			continue
		}
		n := cur.Metrics[name]
		change := 0.0
		if o.Value != 0 {
			change = n.Value/o.Value - 1
		}
		flag := ""
		if b, ok := bounds[name]; ok && regressed(b, change) {
			flag = "  WORSE"
			worse++
		}
		fmt.Printf("%-40s %14.6g -> %14.6g %s  %+7.2f%%%s\n", name, o.Value, n.Value, n.Unit, 100*change, flag)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func regressed(b specMetric, change float64) bool {
	if b.Better == "higher" {
		change = -change
	}
	return change > b.Bound
}

// sourceDigest hashes go.mod and the Go sources under internal/ in path
// order, identifying the code a result was measured on.
func sourceDigest() (string, error) {
	h := sha256.New()
	files := []string{"go.mod"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by the nearest-rank method; it
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
