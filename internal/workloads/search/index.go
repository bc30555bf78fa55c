// Package search implements an Elasticsearch/Lucene-style distributed
// search engine — a real inverted index over a synthetic StackOverflow-like
// corpus, sharded with per-operation thread pools — and the ESRally
// "nested"-track driver the paper uses (Section VI-F, Figure 9): the RTQ,
// RNQIHBS, RSTQ and MA challenges across shard counts and memory
// configurations.
package search

import (
	"fmt"
	"math/rand"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

// DocMetaBytes is the stored per-document metadata footprint (date, answer
// counts, source offsets).
const DocMetaBytes = 128

// CorpusConfig shapes the synthetic StackOverflow dump.
type CorpusConfig struct {
	Seed int64
	// Docs is the total document (question) count.
	Docs int
	// Tags is the tag vocabulary size; tag popularity is skewed so random
	// tag queries hit realistic posting-list lengths.
	Tags int
	// TagsPerDoc is the average number of tags per question.
	TagsPerDoc int
}

// DefaultCorpusConfig returns a corpus sized for simulation.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{Seed: 7, Docs: 600_000, Tags: 200, TagsPerDoc: 3}
}

// docMeta is the functional document metadata (the simulated arena carries
// the timing; this carries the truth for correctness checks).
type docMeta struct {
	id      int32
	date    int32 // days since epoch
	answers int16 // answers posted before `date`+window
}

// Index is a corpus indexed over a fixed number of shards: each shard's
// stored document metadata and its encoded posting lists. It depends only
// on the corpus and the shard count, not on where an engine places it in
// simulated memory, so it is immutable once built and engines on different
// kernels and goroutines share it read-only.
type Index struct {
	shards []*shardIndex
}

// shardIndex is one shard of an Index.
type shardIndex struct {
	docs []docMeta
	// postings holds the shard's varint-delta-encoded posting lists laid
	// out in tag order: the bytes at the head of the shard's arena.
	postings []byte
	// postingOff[tag] and postingOff[tag+1] bound the tag's list within
	// postings (and the arena); it has one entry per tag plus one.
	postingOff []int64
}

// postingList returns the encoded posting list of a tag (empty for a tag
// outside the vocabulary).
func (x *shardIndex) postingList(tag int) []byte {
	if tag < 0 || tag+1 >= len(x.postingOff) {
		return nil
	}
	return x.postings[x.postingOff[tag]:x.postingOff[tag+1]]
}

// metaOff is the arena offset of the stored-fields region, which follows
// the posting lists.
func (x *shardIndex) metaOff() int64 { return int64(len(x.postings)) }

// NewIndex generates the corpus and indexes it over the given number of
// shards.
func NewIndex(corpus CorpusConfig, shards int) (*Index, error) {
	ix, _, err := buildIndex(corpus, shards)
	return ix, err
}

// buildIndex is NewIndex that also returns the ordinal lists every posting
// list was encoded from (truth[shard][tag]). Queries never read them; each
// encoded list is decoded once here and checked against its ordinals.
func buildIndex(corpus CorpusConfig, shards int) (*Index, [][][]int32, error) {
	if shards <= 0 {
		return nil, nil, fmt.Errorf("search: no shards")
	}
	if corpus.Tags <= 0 {
		return nil, nil, fmt.Errorf("search: corpus has no tags")
	}
	perShard := corpus.Docs / shards
	if perShard == 0 {
		return nil, nil, fmt.Errorf("search: %d docs cannot fill %d shards", corpus.Docs, shards)
	}
	rng := rand.New(rand.NewSource(corpus.Seed))
	ix := &Index{shards: make([]*shardIndex, shards)}
	truth := make([][][]int32, shards)
	// Scratch reused across shards: the (tag, ordinal) pairs in draw order
	// and the per-tag counts that size each list exactly.
	type posting struct{ tag, ord int32 }
	drawn := make([]posting, 0, perShard*corpus.TagsPerDoc)
	counts := make([]int, corpus.Tags)
	for si := 0; si < shards; si++ {
		sh := &shardIndex{docs: make([]docMeta, perShard)}
		drawn = drawn[:0]
		clear(counts)
		for ord := 0; ord < perShard; ord++ {
			sh.docs[ord] = docMeta{
				id:      int32(si*perShard + ord),
				date:    int32(rng.Intn(4000)),
				answers: int16(rng.Intn(160)),
			}
			first := len(drawn)
		tags:
			for t := 0; t < corpus.TagsPerDoc; t++ {
				// Skewed tag popularity: squaring the uniform draw favors
				// low tag IDs ~ 1/sqrt density.
				u := rng.Float64()
				tag := int32(u * u * float64(corpus.Tags))
				if int(tag) >= corpus.Tags {
					tag = int32(corpus.Tags - 1)
				}
				for _, d := range drawn[first:] {
					if d.tag == tag {
						continue tags // duplicate tag on this doc
					}
				}
				drawn = append(drawn, posting{tag, int32(ord)})
				counts[tag]++
			}
		}
		// Bucket the ordinals by tag (ascending, since they were drawn in
		// document order), encode every list Lucene-style, check the round
		// trip, and lay the lists out in tag order.
		lists := make([][]int32, corpus.Tags)
		backing := make([]int32, len(drawn))
		for tag, n := range counts {
			lists[tag], backing = backing[:0:n], backing[n:]
		}
		for _, d := range drawn {
			lists[d.tag] = append(lists[d.tag], d.ord)
		}
		sh.postings = make([]byte, 0, len(drawn))
		sh.postingOff = make([]int64, corpus.Tags+1)
		for tag, list := range lists {
			var err error
			if sh.postings, err = appendPostings(sh.postings, list); err != nil {
				return nil, nil, fmt.Errorf("search: shard %d tag %d: %w", si, tag, err)
			}
			sh.postingOff[tag+1] = int64(len(sh.postings))
			if err := checkPostings(sh.postingList(tag), list); err != nil {
				return nil, nil, fmt.Errorf("search: shard %d tag %d: %w", si, tag, err)
			}
		}
		ix.shards[si] = sh
		truth[si] = lists
	}
	return ix, truth, nil
}

// Shard is one index shard placed in simulated memory: its inverted index
// and stored metadata region live in the shard's arena.
type Shard struct {
	id    int
	arena *mem.Buffer
	ix    *shardIndex
}

// docMetaAddr returns the arena address of a document's stored metadata.
func (s *Shard) docMetaAddr(ord int32) uint64 {
	return s.arena.Addr(s.ix.metaOff() + int64(ord)*DocMetaBytes)
}

// Engine is one search-engine instance (one per server node).
type Engine struct {
	host   *core.Host
	shards []*Shard
	// pool is the search thread pool (Elasticsearch sizes it from the core
	// count).
	poolFree []*mem.Thread
	poolSig  *sim.Signal
	// coord is the coordinating (REST) thread.
	coord *mem.Thread
}

// NewEngine places an index in the host's memory, one arena per shard
// (posting lists followed by the stored-fields region) with the given page
// placement, and starts a search pool of poolThreads threads (48 if not
// positive).
func NewEngine(host *core.Host, placer numa.Placer, ix *Index, poolThreads int) (*Engine, error) {
	if poolThreads <= 0 {
		poolThreads = 48
	}
	e := &Engine{host: host, poolSig: sim.NewSignal(host.K), coord: host.NewThread(0)}
	for si, x := range ix.shards {
		metaBytes := int64(len(x.docs)) * DocMetaBytes
		arena, err := host.Mem.Alloc(x.metaOff()+metaBytes+mem.CachelineSize, placer)
		if err != nil {
			return nil, fmt.Errorf("search: shard %d arena: %w", si, err)
		}
		e.shards = append(e.shards, &Shard{id: si, arena: arena, ix: x})
	}
	for i := 0; i < poolThreads; i++ {
		e.poolFree = append(e.poolFree, host.NewThread(i))
	}
	return e, nil
}

// Shards returns the instance's shard list.
func (e *Engine) Shards() []*Shard { return e.shards }

func (e *Engine) acquireThread(p *sim.Proc) *mem.Thread {
	for len(e.poolFree) == 0 {
		e.poolSig.Wait(p)
	}
	th := e.poolFree[len(e.poolFree)-1]
	e.poolFree = e.poolFree[:len(e.poolFree)-1]
	return th
}

func (e *Engine) releaseThread(th *mem.Thread) {
	e.poolFree = append(e.poolFree, th)
	e.poolSig.Wake()
}

// Close frees the shard arenas.
func (e *Engine) Close() {
	for _, sh := range e.shards {
		e.host.Mem.Free(sh.arena)
	}
}
