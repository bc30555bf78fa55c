package search

import (
	"encoding/binary"
	"fmt"
)

// Posting lists are stored Lucene-style: ascending document ordinals,
// delta-encoded, with each delta written as an unsigned varint. Hot tags
// with dense lists compress to ~1 byte per document; sparse lists take
// 2-3 bytes per entry.

// appendPostings appends the encoding of an ascending ordinal list to dst.
func appendPostings(dst []byte, list []int32) ([]byte, error) {
	prev := int32(-1)
	for i, ord := range list {
		if ord <= prev {
			return nil, fmt.Errorf("search: posting list not strictly ascending at %d", i)
		}
		dst = binary.AppendUvarint(dst, uint64(ord-prev))
		prev = ord
	}
	return dst, nil
}

// checkPostings decodes an encoded list and compares it with the ordinals
// it was encoded from.
func checkPostings(enc []byte, list []int32) error {
	it := postingIterator{data: enc, cur: -1}
	for i, want := range list {
		if got, ok := it.next(); !ok || got != want {
			return fmt.Errorf("search: posting %d decodes to %d, want %d", i, got, want)
		}
	}
	if it.pos != len(enc) {
		return fmt.Errorf("search: %d trailing bytes after %d postings", len(enc)-it.pos, len(list))
	}
	return nil
}

// postingIterator decodes an encoded list incrementally.
type postingIterator struct {
	data []byte
	pos  int
	cur  int32
}

// newPostingIterator starts decoding at the list head.
func newPostingIterator(data []byte) *postingIterator {
	return &postingIterator{data: data, cur: -1}
}

// next returns the next ordinal, or (0, false) at the end of the list.
func (it *postingIterator) next() (int32, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	delta, n := binary.Uvarint(it.data[it.pos:])
	if n <= 0 {
		// Corrupt encoding: surface as end-of-list; builders validate at
		// encode time so this indicates memory corruption in tests.
		return 0, false
	}
	it.pos += n
	it.cur += int32(delta)
	return it.cur, true
}

// bytesConsumed reports how far into the encoded bytes the iterator is —
// the quantity the timing model charges to the memory system.
func (it *postingIterator) bytesConsumed() int { return it.pos }

// intersectPostings computes the conjunction of two ascending ordinal
// lists with galloping (exponential) search from the shorter list into the
// longer one — the standard Lucene strategy for AND queries, sub-linear in
// the longer list when list sizes are skewed.
func intersectPostings(a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []int32
	lo := 0
	for _, v := range a {
		idx := gallopSearch(b, lo, v)
		if idx < len(b) && b[idx] == v {
			out = append(out, v)
			lo = idx + 1
		} else {
			lo = idx
		}
		if lo >= len(b) {
			break
		}
	}
	return out
}

// gallopSearch returns the smallest index >= lo with b[idx] >= v, probing
// at exponentially growing strides before binary-searching the bracket.
func gallopSearch(b []int32, lo int, v int32) int {
	if lo >= len(b) || b[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < v {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > len(b) {
		hi = len(b)
	}
	// Binary search in (lo, hi].
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if b[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// decodePostings fully decodes a list (used by queries and tests).
func decodePostings(data []byte) []int32 {
	var out []int32
	it := newPostingIterator(data)
	for {
		ord, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, ord)
	}
}
