package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// FuzzReadAll: ReadAll never panics on arbitrary bytes, never returns
// more records than the input has room for (each needs a 16-byte record
// header after the 24-byte global header), and returns none from a
// capture whose link type is not LINKTYPE_USER0. The seed corpus starts
// from a real medium capture, whose Dump output must read back intact:
// same record count, same frame bytes, timestamps at the format's
// microsecond resolution.
func FuzzReadAll(f *testing.F) {
	dump := captureDump(f)
	f.Add(dump)
	f.Add(dump[:24])            // global header only
	f.Add(dump[:len(dump)-3])   // truncated last record
	f.Add(dump[:10])            // truncated global header
	f.Add([]byte("not a pcap")) // bad magic
	f.Add([]byte{})
	other := bytes.Clone(dump)
	binary.LittleEndian.PutUint32(other[20:], 105) // LINKTYPE_IEEE802_11
	f.Add(other)

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, _ := ReadAll(bytes.NewReader(b))
		if len(recs) > len(b)/16 {
			t.Fatalf("%d records from %d bytes", len(recs), len(b))
		}
		if len(recs) > 0 && binary.LittleEndian.Uint32(b[20:]) != LinkTypeUser0 {
			t.Fatalf("%d records from a capture of link type %d", len(recs), binary.LittleEndian.Uint32(b[20:]))
		}
	})
}

// captureDump taps a medium carrying beacons and data frames on two
// channels, dumps the capture and checks the dump reads back intact.
func captureDump(f *testing.F) []byte {
	k := sim.NewKernel(1)
	m := radio.NewMedium(k, radio.Config{Range: 100, Loss: 0, EdgeStart: 1})
	c := NewCapture(m, 0)
	rx := radio.ReceiverFunc(func(*wifi.Frame) {})
	for i, ch := range []int{1, 6} {
		a := m.NewRadio(wifi.NewAddr(1, uint32(2*i+1)), geo.Static{}, rx)
		b := m.NewRadio(wifi.NewAddr(1, uint32(2*i+2)), geo.Static{P: geo.Point{X: 10}}, rx)
		a.SetChannel(ch)
		b.SetChannel(ch)
		for j := 0; j < 3; j++ {
			a.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: a.Addr(), DA: wifi.Broadcast,
				BSSID: a.Addr(), Body: &wifi.BeaconBody{SSID: "x", Channel: uint8(ch)}})
			a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
				Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: uint16(64 * j)}})
		}
	}
	k.Run(time.Second)
	var buf bytes.Buffer
	n, err := c.Dump(&buf)
	if err != nil || n != len(c.Records) || n != 12 {
		f.Fatalf("Dump wrote %d of %d records: %v", n, len(c.Records), err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != n {
		f.Fatalf("read back %d of %d records: %v", len(got), n, err)
	}
	for i, rec := range c.Records {
		if got[i].At != rec.At.Truncate(time.Microsecond) || !bytes.Equal(got[i].Data, rec.Data) {
			f.Fatalf("record %d read back as %+v, dumped %+v", i, got[i], rec)
		}
	}
	return buf.Bytes()
}
