package wifi_test

import (
	"bytes"
	"testing"

	"spider/internal/dhcp"
	"spider/internal/tcpsim"
	"spider/internal/wifi"
)

// TestCarvedDataBodyHoldsHeader: a data body the pool carves fresh has
// room for a TCP segment or DHCP message header, so encoding one into
// it allocates nothing; a header that outgrows the room reallocates
// rather than write into the next body's bytes.
func TestCarvedDataBodyHoldsHeader(t *testing.T) {
	var p wifi.Pool
	const runs = 50
	bodies := make([]*wifi.DataBody, 2*(runs+1)) // AllocsPerRun adds a warm-up run
	for i := range bodies {
		bodies[i] = p.Data()
	}
	seg := tcpsim.Segment{FlowID: 7, Seq: 1 << 40, Ack: 3, Len: 1460}
	msg := dhcp.Message{Op: dhcp.Request, XID: 9, ClientMAC: wifi.NewAddr(1, 2), YourIP: 0x0A000064, ServerID: 4, LeaseSecs: 3600}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tcp, dh := bodies[next], bodies[next+1]
		next += 2
		tcp.Header = seg.AppendEncode(tcp.Header[:0])
		dh.Header = msg.AppendEncode(dh.Header[:0])
	})
	if allocs != 0 {
		t.Fatalf("encoding headers into carved bodies allocated %.1f times per pair, want 0", allocs)
	}
	if !bytes.Equal(bodies[0].Header, seg.AppendEncode(nil)) || !bytes.Equal(bodies[1].Header, msg.AppendEncode(nil)) {
		t.Fatal("headers encoded into carved bodies differ from Encode")
	}

	// bodies[0] and bodies[1] were carved one after the other, so their
	// header room is adjacent.
	neighbour := bytes.Clone(bodies[1].Header)
	bodies[0].Header = append(bodies[0].Header, 0xff, 0xff)
	if !bytes.Equal(bodies[1].Header, neighbour) {
		t.Fatalf("appending past a header's room wrote into its neighbour: % x, want % x", bodies[1].Header, neighbour)
	}
}
