package llc

import (
	"testing"

	"thymesisflow/internal/capi"
)

// wireSink keeps the encoder's result live so the call is not elided.
var wireSink []byte

// TestFrameEncodeAllocs pins the encoder at one allocation: the wire image
// itself, sized to WireBytes() up front and padded in place.
func TestFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, g := range goldenFrames() {
		if allocs := testing.AllocsPerRun(100, func() { wireSink = g.frame.Encode() }); allocs != 1 {
			t.Errorf("%s: Encode allocated %.0f times, want 1", g.name, allocs)
		}
	}
}

// decodeAllocBudget is the allocation ceiling for decoding a data frame
// carrying one 128 B payload: the Frame, its transaction slice, the
// transaction, and the payload copy. Errors are package-level sentinels, so
// the success path builds none.
const decodeAllocBudget = 4

func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	payload := make([]byte, capi.Cacheline)
	capi.FillPattern(payload, 7)
	wire := (&Frame{Kind: kindData, Seq: 42, Txns: []*capi.Transaction{
		{Op: capi.OpReadResp, Addr: 0x1000, Size: capi.Cacheline, Tag: 9, Data: payload},
	}}).Encode()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > decodeAllocBudget {
		t.Fatalf("Decode of a 128 B data frame allocated %.0f times, budget %d", allocs, decodeAllocBudget)
	}
}
