package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

func TestGlobalHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if len(h) != 24 {
		t.Fatalf("header %d bytes", len(h))
	}
	if binary.LittleEndian.Uint32(h[0:]) != magicMicroseconds {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint16(h[4:]) != 2 || binary.LittleEndian.Uint16(h[6:]) != 4 {
		t.Fatal("bad version")
	}
	if binary.LittleEndian.Uint32(h[20:]) != LinkTypeUser0 {
		t.Fatal("bad link type")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf)
	f := &wifi.Frame{Type: wifi.TypeBeacon, SA: wifi.NewAddr(0, 1), DA: wifi.Broadcast,
		BSSID: wifi.NewAddr(0, 1), Body: &wifi.BeaconBody{SSID: "trace", Channel: 6}}
	data := f.Encode()
	at := 1500 * time.Millisecond
	if err := pw.Write(Record{At: at, Data: data}); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()[24:]
	if binary.LittleEndian.Uint32(rec[0:]) != 1 || binary.LittleEndian.Uint32(rec[4:]) != 500000 {
		t.Fatalf("timestamp wrong: %v %v", binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]))
	}
	if int(binary.LittleEndian.Uint32(rec[8:])) != len(data) {
		t.Fatal("caplen wrong")
	}
	got := rec[16 : 16+len(data)]
	dec, err := wifi.Decode(got)
	if err != nil {
		t.Fatalf("captured frame does not decode: %v", err)
	}
	if dec.Type != wifi.TypeBeacon {
		t.Fatal("frame mangled")
	}
}

func TestCaptureTapsMedium(t *testing.T) {
	k := sim.NewKernel(1)
	m := radio.NewMedium(k, radio.Config{Range: 100, Loss: 0, EdgeStart: 1})
	cap := NewCapture(m, 0)
	rx := radio.ReceiverFunc(func(*wifi.Frame) {})
	a := m.NewRadio(wifi.NewAddr(1, 1), geo.Static{}, rx)
	b := m.NewRadio(wifi.NewAddr(1, 2), geo.Static{P: geo.Point{X: 10}}, rx)
	a.SetChannel(6)
	b.SetChannel(6)
	for i := 0; i < 5; i++ {
		a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 64}})
	}
	k.Run(time.Second)
	if len(cap.Records) != 5 {
		t.Fatalf("captured %d frames, want 5", len(cap.Records))
	}
	prev := time.Duration(-1)
	for _, r := range cap.Records {
		if r.At <= prev {
			t.Fatal("capture timestamps not increasing")
		}
		prev = r.At
		if _, err := wifi.Decode(r.Data); err != nil {
			t.Fatalf("record does not decode: %v", err)
		}
	}
	var buf bytes.Buffer
	n, err := cap.Dump(&buf)
	if err != nil || n != 5 {
		t.Fatalf("WriteTo n=%d err=%v", n, err)
	}
	if buf.Len() <= 24 {
		t.Fatal("empty pcap body")
	}
}

func TestCaptureLimit(t *testing.T) {
	k := sim.NewKernel(1)
	m := radio.NewMedium(k, radio.Config{Range: 100, Loss: 0, EdgeStart: 1})
	cap := NewCapture(m, 2)
	rx := radio.ReceiverFunc(func(*wifi.Frame) {})
	a := m.NewRadio(wifi.NewAddr(1, 1), geo.Static{}, rx)
	a.SetChannel(6)
	for i := 0; i < 5; i++ {
		a.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: a.Addr(), DA: wifi.Broadcast,
			BSSID: a.Addr(), Body: &wifi.BeaconBody{SSID: "x", Channel: 6}})
	}
	k.Run(time.Second)
	if len(cap.Records) != 2 || cap.Dropped != 3 {
		t.Fatalf("records=%d dropped=%d", len(cap.Records), cap.Dropped)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf)
	var want []Record
	for i := 0; i < 3; i++ {
		f := &wifi.Frame{Type: wifi.TypeData, SA: wifi.NewAddr(1, uint32(i)), DA: wifi.NewAddr(1, 9),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: uint16(i * 10)}}
		rec := Record{At: time.Duration(i) * time.Second, Data: f.Encode()}
		want = append(want, rec)
		if err := pw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if got[i].At != want[i].At || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
		if _, err := wifi.Decode(got[i].Data); err != nil {
			t.Fatalf("record %d does not decode: %v", i, err)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf)
	pw.Write(Record{At: time.Second, Data: []byte{1, 2, 3, 4}})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// A capture of another link type (here LINKTYPE_IEEE802_11, 105) holds
// no simulator frames; the reader refuses it rather than decode them.
func TestReaderRejectsOtherLinkType(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf)
	pw.Write(Record{At: time.Second, Data: []byte{1, 2, 3, 4}})
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[20:], 105)
	recs, err := ReadAll(bytes.NewReader(b))
	if !errors.Is(err, ErrBadLinkType) || len(recs) != 0 {
		t.Fatalf("link type 105: %d records, err %v; want none and ErrBadLinkType", len(recs), err)
	}
}

func TestReaderRejectsOversizedCaplen(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf)
	pw.Write(Record{At: time.Second, Data: []byte{1}})
	b := buf.Bytes()
	// Corrupt caplen to exceed the snap length.
	binary.LittleEndian.PutUint32(b[24+8:], 1<<20)
	if _, err := ReadAll(bytes.NewReader(b)); err == nil {
		t.Fatal("oversized caplen accepted")
	}
}
