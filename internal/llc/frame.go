// Package llc implements the ThymesisFlow Link-Layer Control protocol
// (Section IV-A4): a reliable, credit-flow-controlled framing layer between
// two endpoints of a network channel.
//
// Protocol features, mirroring the paper:
//
//   - Backpressure: a credit-based mechanism protects the Rx ingress queue
//     from overflow. Each credit represents one empty transaction slot at
//     the receiver; credits are returned piggy-backed on in-band control
//     frames flowing in the reverse direction.
//   - Frame replay: transactions are grouped into frames of a fixed number
//     of flits (incomplete frames are padded with single-flit nop headers
//     for immediate transmission). Frames carry consecutive sequence
//     numbers and a CRC. A receiver that observes a sequence gap or a CRC
//     error sends an in-band replay request; the transmitter then replays
//     the frame sequence in order from its replay buffer.
package llc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"thymesisflow/internal/capi"
)

// FrameFlits is the fixed frame size in flits. With 32-byte flits this
// yields 512-byte frames: large enough to amortize header overhead on
// cacheline traffic (one 128 B write = 5 flits), small enough to keep the
// padding cost of sparse traffic low.
const FrameFlits = 16

// FrameBytes is the wire size of every data frame.
const FrameBytes = FrameFlits * capi.FlitSize

// ControlFrameBytes is the wire size of the special single-flit frames used
// for in-band messages (replay requests and credit returns).
const ControlFrameBytes = capi.FlitSize

// frameKind discriminates data frames from in-band control frames.
type frameKind uint8

const (
	kindData frameKind = iota + 1
	kindControl
)

// Frame is one LLC frame. Data frames carry up to FrameFlits' worth of
// transaction flits; control frames carry replay requests and credit
// returns.
type Frame struct {
	Kind frameKind
	Seq  uint64 // data frames: consecutive sequence number

	Txns []*capi.Transaction // data frames

	// Control frame payload.
	ReplayFrom  uint64 // request replay starting at this sequence, if ReplayValid
	ReplayValid bool
	// CumFreed is the cumulative count of transaction slots freed at the
	// receiver since port creation. Carrying the running total instead of an
	// increment makes credit returns idempotent: a lost control frame is
	// repaired by any later one, so credits are conserved under arbitrary
	// control-frame loss.
	CumFreed uint64
	// Probe requests an immediate credit-return control frame from the peer.
	// A credit-starved transmitter sends probes when it has pending traffic
	// but no acknowledgement traffic left to piggy-back returns on.
	Probe  bool
	CumAck uint64 // highest in-order sequence received + 1 (prunes replay buffer)

	crc uint32
}

// flits returns the number of flits the frame's transactions occupy.
func (f *Frame) flits() int {
	n := 0
	for _, t := range f.Txns {
		n += t.Flits()
	}
	return n
}

// WireBytes returns the frame's on-wire size.
func (f *Frame) WireBytes() int {
	if f.Kind == kindControl {
		return ControlFrameBytes
	}
	return FrameBytes
}

// Encode serializes the frame to its wire representation, padding data
// frames to the full frame size and appending a CRC-32 in the trailer. The
// wire image is one allocation of exactly WireBytes().
func (f *Frame) Encode() []byte {
	size := f.WireBytes()
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, uint8(f.Kind))
	switch f.Kind {
	case kindControl:
		// Control frames carry no sequence number: they are idempotent and
		// outside the replay window, which keeps them within a single flit.
		buf = append(buf, flag(f.ReplayValid))
		buf = le.AppendUint64(buf, f.ReplayFrom)
		buf = append(buf, flag(f.Probe))
		buf = le.AppendUint64(buf, f.CumFreed)
		buf = le.AppendUint64(buf, f.CumAck)
	case kindData:
		buf = le.AppendUint64(buf, f.Seq)
		buf = le.AppendUint16(buf, uint16(len(f.Txns)))
		for _, t := range f.Txns {
			buf = append(buf, uint8(t.Op))
			buf = le.AppendUint64(buf, t.Addr)
			buf = le.AppendUint32(buf, uint32(t.Size))
			buf = le.AppendUint32(buf, t.Tag)
			buf = le.AppendUint16(buf, t.NetworkID)
			buf = append(buf, flag(t.Bonded))
			buf = le.AppendUint32(buf, t.PASID)
			buf = append(buf, flag(t.Data != nil))
			buf = append(buf, t.Data...)
		}
	default:
		panic(fmt.Sprintf("llc: encode of unknown frame kind %d", f.Kind))
	}
	// Pad to the fixed wire size minus the 4-byte CRC trailer: the buffer
	// is freshly allocated, so the bytes past the payload are already zero.
	want := size - 4
	if len(buf) > want {
		panic(fmt.Sprintf("llc: frame payload %dB exceeds wire size %dB", len(buf), want))
	}
	buf = buf[:want]
	crc := crc32.ChecksumIEEE(buf)
	f.crc = crc
	return le.AppendUint32(buf, crc)
}

// flag encodes a boolean as one wire byte.
func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// errShort reports a frame body that ends inside a field it declares.
var errShort = errors.New("llc: truncated frame body")

// reader is Decode's bounds-checked cursor over a frame body. A frame can
// pass the CRC and still carry an inconsistent header (e.g. forged by a
// misbehaving switch), so every read is validated with need first rather
// than trusted.
type reader struct {
	body []byte
	pos  int
}

func (r *reader) need(n int) bool { return r.pos+n <= len(r.body) }

func (r *reader) u8() uint8 {
	v := r.body[r.pos]
	r.pos++
	return v
}

func (r *reader) u16() uint16 {
	v := binary.LittleEndian.Uint16(r.body[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.body[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.body[r.pos:])
	r.pos += 8
	return v
}

// Decode parses a wire frame, verifying the CRC. A CRC mismatch returns
// ErrCRC; the caller reacts by requesting a replay.
func Decode(wire []byte) (*Frame, error) {
	if len(wire) < 5 {
		return nil, fmt.Errorf("llc: short frame (%dB)", len(wire))
	}
	body, trailer := wire[:len(wire)-4], wire[len(wire)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrCRC
	}
	r := reader{body: body}
	f := &Frame{}
	if !r.need(1) {
		return nil, errShort
	}
	f.Kind = frameKind(r.u8())
	switch f.Kind {
	case kindControl:
		if !r.need(1 + 8 + 1 + 8 + 8) {
			return nil, errShort
		}
		f.ReplayValid = r.u8() == 1
		f.ReplayFrom = r.u64()
		f.Probe = r.u8() == 1
		f.CumFreed = r.u64()
		f.CumAck = r.u64()
	case kindData:
		if !r.need(8 + 2) {
			return nil, errShort
		}
		f.Seq = r.u64()
		n := int(r.u16())
		f.Txns = make([]*capi.Transaction, 0, n)
		for i := 0; i < n; i++ {
			const txnHeader = 1 + 8 + 4 + 4 + 2 + 1 + 4 + 1
			if !r.need(txnHeader) {
				return nil, errShort
			}
			t := &capi.Transaction{}
			t.Op = capi.Op(r.u8())
			t.Addr = r.u64()
			t.Size = int32(r.u32())
			t.Tag = r.u32()
			t.NetworkID = r.u16()
			t.Bonded = r.u8() == 1
			t.PASID = r.u32()
			if t.Size < 0 || t.Size > capi.Cacheline {
				return nil, fmt.Errorf("llc: frame carries invalid size %d", t.Size)
			}
			if r.u8() == 1 {
				if !r.need(int(t.Size)) {
					return nil, errShort
				}
				t.Data = append([]byte(nil), body[r.pos:r.pos+int(t.Size)]...)
				r.pos += int(t.Size)
			}
			f.Txns = append(f.Txns, t)
		}
	default:
		return nil, fmt.Errorf("llc: unknown frame kind %d", f.Kind)
	}
	return f, nil
}

// ErrCRC indicates a frame failed its CRC check.
var ErrCRC = fmt.Errorf("llc: frame CRC mismatch")
