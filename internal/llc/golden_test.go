package llc

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"thymesisflow/internal/capi"
)

// goldenFrame is a fixed frame and its pinned wire image: head is the wire
// up to its last non-zero byte before the trailer, crc the 4-byte CRC-32
// trailer, and every byte between them is zero padding.
type goldenFrame struct {
	name  string
	frame *Frame
	head  string
	crc   string
}

// goldenFrames returns the pinned frames: one of each frame shape the port
// sends. An encoder change that moves a field, a flag byte, the zero
// padding, or the CRC fails here.
func goldenFrames() []goldenFrame {
	payload := make([]byte, capi.Cacheline)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	return []goldenFrame{
		{
			name: "data with payload",
			frame: &Frame{Kind: kindData, Seq: 0x0102030405060708, Txns: []*capi.Transaction{
				{Op: capi.OpWriteReq, Addr: 0x0000_00AB_CDEF_0080, Size: capi.Cacheline, Tag: 0xA1B2C3D4, NetworkID: 0x0203, PASID: 0x11223344, Data: payload},
			}},
			head: "0108070605040302010100038000efcdab00000080000000d4c3b2a10302004433221101" +
				"030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff" +
				"060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb" +
				"020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7" +
				"fe050c131a21282f363d444b525960676e757c",
			crc: "e5174e6b",
		},
		{
			name: "data without payload",
			frame: &Frame{Kind: kindData, Seq: 7, Txns: []*capi.Transaction{
				{Op: capi.OpReadReq, Addr: 0x1000, Size: capi.Cacheline, Tag: 1, NetworkID: 9},
				{Op: capi.OpWriteResp, Addr: 0x2000, Size: 0, Tag: 2, NetworkID: 9},
			}},
			head: "0107000000000000000200010010000000000000800000000100000009000000000000" +
				"00040020000000000000000000000200000009",
			crc: "cc4c4167",
		},
		{
			name: "bonded",
			frame: &Frame{Kind: kindData, Seq: 99, Txns: []*capi.Transaction{
				{Op: capi.OpReadReq, Addr: 0xFFFF_0000_1234_5680, Size: capi.Cacheline, Tag: 0xFFFFFFFF, NetworkID: 0xFFFF, Bonded: true, PASID: 42},
			}},
			head: "016300000000000000010001805634120000ffff80000000ffffffffffff012a",
			crc:  "246af577",
		},
		{
			name:  "control with replay and probe",
			frame: &Frame{Kind: kindControl, ReplayValid: true, ReplayFrom: 0x1122334455667788, Probe: true, CumFreed: 1234567, CumAck: 0x0A0B0C0D},
			head:  "020188776655443322110187d61200000000000d0c0b0a",
			crc:   "c78131fe",
		},
	}
}

// TestFrameWireGolden pins the wire format byte for byte: header fields,
// zero padding up to the trailer, and the CRC. It also checks that every
// golden frame decodes back to the frame it was encoded from.
func TestFrameWireGolden(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.name, func(t *testing.T) {
			wire := g.frame.Encode()
			if len(wire) != g.frame.WireBytes() {
				t.Fatalf("wire is %d bytes, want %d", len(wire), g.frame.WireBytes())
			}
			head, _ := hex.DecodeString(g.head)
			crc, _ := hex.DecodeString(g.crc)
			want := make([]byte, len(wire))
			copy(want, head)
			copy(want[len(want)-4:], crc)
			if !bytes.Equal(wire, want) {
				t.Fatalf("wire image changed:\n got %x\nwant %x", wire, want)
			}

			got, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			got.crc = 0
			g.frame.crc = 0
			if !reflect.DeepEqual(got, g.frame) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, g.frame)
			}
		})
	}
}
