package dhcp

import (
	"bytes"
	"reflect"
	"testing"

	"spider/internal/wifi"
)

// FuzzParseMessage asserts DecodeMessageInto never panics on arbitrary
// bytes and that any accepted message survives AppendEncode→decode
// unchanged with a byte-stable encoding. DecodeMessageInto ignores bytes
// past the fixed wire length, so the round trip compares structs.
func FuzzParseMessage(f *testing.F) {
	seeds := []*Message{
		{Op: Discover, XID: 0xdeadbeef, ClientMAC: wifi.NewAddr(2, 1)},
		{Op: Offer, XID: 1, ClientMAC: wifi.NewAddr(2, 1), YourIP: 0x0a000005, ServerID: 4, LeaseSecs: 3600},
		{Op: Request, XID: 1, ClientMAC: wifi.NewAddr(2, 1), YourIP: 0x0a000005, ServerID: 4},
		{Op: Ack, XID: 1, ClientMAC: wifi.NewAddr(2, 1), YourIP: 0x0a000005, ServerID: 4, LeaseSecs: 3600},
		{Op: Nak, XID: 2, ClientMAC: wifi.NewAddr(2, 7)},
	}
	for _, m := range seeds {
		f.Add(m.AppendEncode(nil))
	}
	f.Add([]byte{})                                 // empty
	f.Add(bytes.Repeat([]byte{0x01, 0x00}, 11))     // one short of encodedLen
	f.Add(append(seeds[0].AppendEncode(nil), 0xee)) // trailing garbage

	f.Fuzz(func(t *testing.T, b []byte) {
		var m, m2 Message
		if !DecodeMessageInto(&m, b) {
			return
		}
		enc := m.AppendEncode(nil)
		if !DecodeMessageInto(&m2, enc) {
			t.Fatalf("re-decode of accepted message failed\nmessage: %v\nencoding: %x", m, enc)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n first: %#v\nsecond: %#v", m, m2)
		}
		if enc2 := m2.AppendEncode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not byte-stable:\n first: %x\nsecond: %x", enc, enc2)
		}
	})
}
