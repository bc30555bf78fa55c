package core

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/sim"
)

// loadAllocBudget is the heap allocation ceiling of one synchronous
// cacheline Cluster.Load with latency attribution off, across the whole
// flit-level datapath (capi -> rmmu -> llc -> phy -> donor and back): a
// data frame and a credit-return control frame each way, their phy
// deliveries, timers and decoded copies.
const loadAllocBudget = 34

// TestClusterLoadAllocRegression runs one load per AllocsPerRun call: a
// long-lived process issues a load, stops the kernel and yields, so each
// Run resumes it for exactly one more load.
func TestClusterLoadAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	c, att := tb.Cluster, tb.Att
	var loadErr error
	quit := false
	c.K.Go("alloc-loads", func(p *sim.Proc) {
		for i := 0; !quit; i++ {
			if _, err := c.Load(p, att, int64(i%256)*capi.Cacheline, capi.Cacheline); err != nil {
				loadErr = err
				return
			}
			c.K.Stop()
			p.Sleep(0)
		}
	})
	allocs := testing.AllocsPerRun(1000, func() { c.K.Run() })
	quit = true
	c.K.Run()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if allocs > loadAllocBudget {
		t.Fatalf("Cluster.Load allocated %.0f times, budget %d", allocs, loadAllocBudget)
	}
}
