package search

import (
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

func smallCorpus() CorpusConfig {
	return CorpusConfig{Seed: 3, Docs: 40_000, Tags: 50, TagsPerDoc: 3}
}

// newLocalEngine places the small corpus on one local testbed. It also
// returns the builder's ordinal lists, truth[shard][tag].
func newLocalEngine(t *testing.T, shards int) (*core.Testbed, *Engine, [][][]int32) {
	t.Helper()
	tb, err := core.NewTestbed(core.ConfigLocal, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ix, truth, err := buildIndex(smallCorpus(), shards)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tb.Server, numa.Local(tb.Server.LocalNode(0)), ix, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tb, e, truth
}

func TestIndexStructure(t *testing.T) {
	_, e, truth := newLocalEngine(t, 4)
	if len(e.Shards()) != 4 {
		t.Fatalf("shards = %d", len(e.Shards()))
	}
	totalDocs := 0
	for si, sh := range e.Shards() {
		totalDocs += len(sh.ix.docs)
		if len(sh.ix.postingOff) != smallCorpus().Tags+1 {
			t.Fatalf("shard %d: %d posting offsets for %d tags", si, len(sh.ix.postingOff), smallCorpus().Tags)
		}
		// Posting lists are sorted ascending and in range, and laid out
		// back to back in tag order.
		for tag, list := range truth[si] {
			for i, ord := range list {
				if int(ord) >= len(sh.ix.docs) {
					t.Fatalf("tag %d: ordinal %d out of range", tag, ord)
				}
				if i > 0 && list[i-1] >= ord {
					t.Fatalf("tag %d: posting list not strictly ascending", tag)
				}
			}
			if off := sh.ix.postingOff; off[tag] > off[tag+1] {
				t.Fatalf("tag %d: arena offsets %d..%d", tag, off[tag], off[tag+1])
			}
		}
		if sh.ix.metaOff() != sh.ix.postingOff[len(truth[si])] {
			t.Fatalf("shard %d: stored fields at %d, postings end at %d", si, sh.ix.metaOff(), sh.ix.postingOff[len(truth[si])])
		}
	}
	if totalDocs != 40_000 {
		t.Fatalf("docs = %d", totalDocs)
	}
}

func TestTagPopularitySkew(t *testing.T) {
	_, _, truth := newLocalEngine(t, 1)
	if len(truth[0][0]) <= len(truth[0][40])*2 {
		t.Fatalf("tag popularity not skewed: tag0=%d tag40=%d",
			len(truth[0][0]), len(truth[0][40]))
	}
}

func TestRTQCountsMatchIndex(t *testing.T) {
	tb, e, truth := newLocalEngine(t, 2)
	const tag = 5
	want := 0
	for si := range e.Shards() {
		want += len(truth[si][tag])
	}
	got := 0
	tb.Cluster.K.Go("q", func(p *sim.Proc) {
		for _, sh := range e.Shards() {
			th := e.acquireThread(p)
			got += sh.runRTQ(p, th, tag)
			e.releaseThread(th)
		}
	})
	tb.Cluster.K.Run()
	if got != want {
		t.Fatalf("RTQ hits = %d, want %d", got, want)
	}
}

func TestRNQIHBSFiltersCorrectly(t *testing.T) {
	tb, e, truth := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	const tag, date = 3, 2000
	want := 0
	for _, ord := range truth[0][tag] {
		d := sh.ix.docs[ord]
		if d.answers >= 100 && d.date < date {
			want++
		}
	}
	got := 0
	tb.Cluster.K.Go("q", func(p *sim.Proc) {
		th := e.acquireThread(p)
		got = sh.runRNQIHBS(p, th, tag, date)
		e.releaseThread(th)
	})
	tb.Cluster.K.Run()
	if got != want {
		t.Fatalf("RNQIHBS hits = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("degenerate test: no matching docs")
	}
}

func TestChallengeLatencyOrdering(t *testing.T) {
	// Per-query time: MA (fixed) < RTQ (postings only) < RNQIHBS/RSTQ
	// (postings + doc values + nested setup).
	tb, e, _ := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	dur := func(f func(p *sim.Proc)) sim.Time {
		start := tb.Cluster.K.Now()
		tb.Cluster.K.Go("q", f)
		tb.Cluster.K.Run()
		return tb.Cluster.K.Now() - start
	}
	const tag = 0 // hottest tag: longest list
	ma := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runMA(p, th)
		e.releaseThread(th)
	})
	rtq := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runRTQ(p, th, tag)
		e.releaseThread(th)
	})
	nested := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runRNQIHBS(p, th, tag, 2000)
		e.releaseThread(th)
	})
	if !(ma < rtq && rtq < nested) {
		t.Fatalf("per-shard cost ordering violated: MA=%v RTQ=%v RNQIHBS=%v", ma, rtq, nested)
	}
}

func fig9(t *testing.T, ch Challenge, shards int, cfg core.MemoryConfig) float64 {
	t.Helper()
	rc := DefaultRunConfig(ch, shards)
	rc.Clients = 32
	rc.OpsPerClient = 2
	rc.Corpus = CorpusConfig{Seed: 3, Docs: 120_000, Tags: 80, TagsPerDoc: 3}
	if ch == MA {
		rc.OpsPerClient = 10
	}
	res, err := Run(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Throughput
}

func TestRTQScaleOutWins(t *testing.T) {
	// Figure 9: for RTQ the scale-out configuration outperforms every
	// other, including local, while the ThymesisFlow configurations trail.
	local := fig9(t, RTQ, 32, core.ConfigLocal)
	scale := fig9(t, RTQ, 32, core.ConfigScaleOut)
	single := fig9(t, RTQ, 32, core.ConfigSingleDisaggregated)
	inter := fig9(t, RTQ, 32, core.ConfigInterleaved)
	if scale <= local {
		t.Fatalf("RTQ: scale-out %.0f should beat local %.0f", scale, local)
	}
	if single >= local || single >= inter {
		t.Fatalf("RTQ: single %.0f should trail local %.0f and interleaved %.0f", single, local, inter)
	}
}

func TestNestedChallengesDegradeWithShards(t *testing.T) {
	// Figure 9: challenges requiring tighter synchronization degrade as
	// shards scale.
	for _, ch := range []Challenge{RNQIHBS, RSTQ, MA} {
		at5 := fig9(t, ch, 5, core.ConfigLocal)
		at32 := fig9(t, ch, 32, core.ConfigLocal)
		if at32 >= at5 {
			t.Fatalf("%v: throughput grew with shards (%.0f -> %.0f)", ch, at5, at32)
		}
	}
}

func TestMASimilarAcrossConfigs(t *testing.T) {
	// Figure 9: for MA the ThymesisFlow configurations perform like local
	// and scale-out.
	local := fig9(t, MA, 5, core.ConfigLocal)
	single := fig9(t, MA, 5, core.ConfigSingleDisaggregated)
	scale := fig9(t, MA, 5, core.ConfigScaleOut)
	if single < local*0.9 || single > local*1.1 {
		t.Fatalf("MA: single %.0f vs local %.0f not similar", single, local)
	}
	if scale < local*0.8 || scale > local*1.25 {
		t.Fatalf("MA: scale-out %.0f vs local %.0f not similar", scale, local)
	}
}

func TestScaleOutBeatsDisaggregatedOnNested(t *testing.T) {
	// Figure 9: scale-out outperforms the ThymesisFlow configurations on
	// the synchronization-heavy challenges.
	for _, ch := range []Challenge{RNQIHBS, RSTQ} {
		scale := fig9(t, ch, 5, core.ConfigScaleOut)
		single := fig9(t, ch, 5, core.ConfigSingleDisaggregated)
		if scale <= single {
			t.Fatalf("%v: scale-out %.0f should beat single-disaggregated %.0f", ch, scale, single)
		}
	}
}
