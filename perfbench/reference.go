package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The reference kernel is fixed work that belongs to the benchmark, not to
// the program: it fills a map with small heap objects, sorts the keys and
// walks the map in key order, so that, like the workloads, it allocates,
// collects garbage and misses the cache. An untraced run times it right
// before and right after every phase of every iteration and divides the
// phase's host time by it. The speed of a shared host drifts by tens of
// percent from one minute to the next, and the reference slows with it, so
// the quotient holds still where the host time does not; a change to the
// program leaves the reference's own time alone.

// refKeys is the number of map entries one round of the kernel inserts,
// and refHandoffs the number of values it passes between two goroutines.
const (
	refKeys     = 60_000
	refHandoffs = 60_000
)

// refNominal is the host time of one round on the 2-vCPU host the bounds
// were set on. setup_s, which must be in seconds, is the set-up time
// divided by the reference time around it, times refNominal: seconds at
// that host's speed.
const refNominal = 50 * time.Millisecond

// refShare is the host time spent on the reference after each phase, and
// before the first, as a share of the phase's own time.
const refShare = 0.1

// refChecksum is what every round computes; a round that computes anything
// else fails the run.
var refChecksum = refRound()

// refRound runs one round of the reference kernel and returns its
// checksum. The round has two parts, in the proportions of the workloads'
// profiles: heap work (a map of small objects, sorted and walked), which
// the rack simulation and the control plane spend most of their time on,
// and goroutine hand-offs over unbuffered channels, which the figure
// functions' process-per-thread models spend theirs on.
func refRound() uint64 {
	m := make(map[uint64][]byte, refKeys/8)
	keys := make([]uint64, 0, refKeys)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < refKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b := make([]byte, 64)
		b[i%64] = byte(x)
		m[x] = b
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sum uint64
	for i, k := range keys {
		sum = sum*31 + uint64(m[k][i%64]) + k>>40
	}

	req, resp := make(chan uint64), make(chan uint64)
	go func() {
		for v := range req {
			resp <- v*3 + 1
		}
		close(resp)
	}()
	for i := 0; i < refHandoffs; i++ {
		req <- sum + uint64(i)
		sum ^= <-resp
	}
	close(req)
	for range resp {
	}
	return sum
}

// reference collects garbage, then runs rounds of the reference kernel
// until want has passed (one round at least), and returns the mean host
// seconds of a round.
func reference(want time.Duration) (float64, error) {
	runtime.GC()
	start, rounds := time.Now(), 0
	for rounds == 0 || time.Since(start) < want {
		if got := refRound(); got != refChecksum {
			return 0, fmt.Errorf("reference kernel checksum %x, want %x", got, refChecksum)
		}
		rounds++
	}
	return time.Since(start).Seconds() / float64(rounds), nil
}

// refProbe times the reference around the phases of one iteration.
type refProbe struct {
	refs    []float64 // mean round time of each slot, in order
	peakMiB float64   // peak RSS of the phases that ended at a pause
	mark    time.Time // end of the last slot
	err     error
}

// slot times the reference for refShare of a phase's host seconds.
func (p *refProbe) slot(phase float64) {
	if p.err != nil {
		return
	}
	var ref float64
	ref, p.err = reference(time.Duration(refShare * phase * float64(time.Second)))
	p.refs, p.mark = append(p.refs, ref), time.Now()
}

// pause is handed to the iteration and runs between its phases. The
// reference's own memory is given back and the peak RSS count restarted
// before the next phase, so that the iteration's peak is its own.
func (p *refProbe) pause() {
	phase := time.Since(p.mark).Seconds()
	peak, err := peakRSSMiB()
	if err != nil && p.err == nil {
		p.err = err
	}
	p.peakMiB = math.Max(p.peakMiB, peak)
	p.slot(phase)
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && p.err == nil {
		p.err = err
	}
}
