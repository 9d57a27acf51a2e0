package tcpsim

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment: DecodeSegmentInto never panics on arbitrary bytes,
// and whatever it accepts is a fixed point of decode → AppendEncode →
// decode, with a byte-stable encoding. The decoder reads only the
// header's defined bits, so the comparison is on decoded segments.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range []Segment{
		{FlowID: 7, Seq: 1 << 40, Ack: 12345, Len: 1448, Retx: true},
		{FlowID: 1, Ack: 99, IsAck: true},
		{},
	} {
		f.Add(s.AppendEncode(nil))
	}
	f.Add([]byte{1, 2})                               // short
	f.Add(bytes.Repeat([]byte{0xff}, segHeaderLen+3)) // every flag bit, trailing bytes
	f.Add(append(make([]byte, segHeaderLen-1), 0x04)) // an undefined flag bit alone

	f.Fuzz(func(t *testing.T, b []byte) {
		var first Segment
		if !DecodeSegmentInto(&first, b) {
			if len(b) >= segHeaderLen {
				t.Fatalf("rejected a %d-byte header", len(b))
			}
			return
		}
		enc := first.AppendEncode(nil)
		var second Segment
		if !DecodeSegmentInto(&second, enc) {
			t.Fatalf("re-decode of an accepted segment failed: %x", enc)
		}
		if first != second {
			t.Fatalf("round trip changed the segment:\n first: %+v\nsecond: %+v", first, second)
		}
		if re := second.AppendEncode(nil); !bytes.Equal(enc, re) {
			t.Fatalf("encoding is not byte-stable: %x vs %x", enc, re)
		}
	})
}
