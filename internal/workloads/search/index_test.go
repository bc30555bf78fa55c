package search

import (
	"strings"
	"sync"
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/sim"
)

// quickCorpus is the corpus Figure 9 indexes at quick scale.
func quickCorpus() CorpusConfig {
	c := DefaultCorpusConfig()
	c.Docs = 120_000
	return c
}

func TestIndexSetBuildsEachKeyOnce(t *testing.T) {
	set := NewIndexSet()
	const workers = 4
	got := make([]*Index, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = set.Index(smallCorpus(), 2)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if got[w] != got[0] {
			t.Fatalf("worker %d got a different index", w)
		}
	}
	if n := set.builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key requested by %d workers, want 1", n, workers)
	}
	// Another shard count or corpus is another key; a failed build is
	// remembered like a successful one.
	if ix, err := set.Index(smallCorpus(), 4); err != nil || ix == got[0] {
		t.Fatalf("4-shard index: %p, %v", ix, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := set.Index(smallCorpus(), 0); err == nil || !strings.Contains(err.Error(), "no shards") {
			t.Fatalf("0-shard index: err %v", err)
		}
	}
	if n := set.builds.Load(); n != 3 {
		t.Fatalf("%d builds for 3 keys, want 3", n)
	}
}

func TestIndexSetRunMatchesRun(t *testing.T) {
	rc := DefaultRunConfig(RSTQ, 4)
	rc.Clients = 8
	rc.OpsPerClient = 2
	rc.Corpus = smallCorpus()
	set := NewIndexSet()
	for _, cfg := range []core.MemoryConfig{core.ConfigScaleOut, core.ConfigInterleaved} {
		want, err := Run(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := set.Run(cfg, rc)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("%v run %d through a shared set: %+v, want %+v", cfg, i, *got, *want)
			}
		}
	}
	// Scale-out's two instances share one 2-shard index; interleaved
	// holds all 4 shards on one instance.
	if n := set.builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

// TestSharedIndexAcrossKernels places one index in two engines on two
// kernels and queries both from two goroutines at once: the index is only
// read, so both see the same hits at the same simulated times (and the
// race detector sees no conflicting access).
func TestSharedIndexAcrossKernels(t *testing.T) {
	ix, truth, err := buildIndex(smallCorpus(), 3)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		hits []int
		end  sim.Time
		err  error
	}
	var out [2]outcome
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			tb, err := core.NewTestbed(core.ConfigSingleDisaggregated, 1<<30)
			if err != nil {
				o.err = err
				return
			}
			e, err := NewEngine(tb.Server, tb.Placer(), ix, 4)
			if err != nil {
				o.err = err
				return
			}
			k := tb.Cluster.K
			o.hits = make([]int, 4*len(e.Shards()))
			for si, sh := range e.Shards() {
				si, sh := si, sh
				hits := o.hits[4*si:]
				k.Go("q", func(p *sim.Proc) {
					th := e.acquireThread(p)
					defer e.releaseThread(th)
					hits[0] = sh.runRTQ(p, th, si)
					hits[1] = sh.runRNQIHBS(p, th, si+1, 3000)
					hits[2] = sh.runRSTQ(p, th, 0)
					hits[3] = sh.runMA(p, th)
				})
			}
			k.Run()
			o.end = k.Now()
			e.Close()
		}(&out[i])
	}
	wg.Wait()
	for _, o := range out {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	for si := range truth {
		if got := out[0].hits[4*si]; got != len(truth[si][si]) {
			t.Fatalf("shard %d RTQ hits %d, want %d", si, got, len(truth[si][si]))
		}
	}
	for i := range out[0].hits {
		if out[0].hits[i] != out[1].hits[i] {
			t.Fatalf("engines disagree: %v vs %v", out[0].hits, out[1].hits)
		}
	}
	if out[0].end != out[1].end || out[0].end == 0 {
		t.Fatalf("simulated end times %v and %v", out[0].end, out[1].end)
	}
}

func TestCheckPostingsRejectsMismatch(t *testing.T) {
	list := []int32{3, 9, 200}
	enc, err := appendPostings(nil, list)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPostings(enc, list); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int32{{3, 9}, {3, 9, 201}, {3, 9, 200, 201}} {
		if checkPostings(enc, bad) == nil {
			t.Fatalf("encoding of %v accepted as %v", list, bad)
		}
	}
	if checkPostings(append(enc, 0x80), list) == nil {
		t.Fatal("trailing partial varint accepted")
	}
}

// BenchmarkBuildIndex builds the quick-scale Figure 9 corpus over 5 shards.
func BenchmarkBuildIndex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewIndex(quickCorpus(), 5); err != nil {
			b.Fatal(err)
		}
	}
}
