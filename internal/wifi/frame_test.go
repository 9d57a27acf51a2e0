package wifi

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func addr(i uint32) Addr { return NewAddr(0x01, i) }

func TestAddrStringAndBroadcast(t *testing.T) {
	a := NewAddr(0xaa, 0x01020304)
	if a.String() != "02:aa:01:02:03:04" {
		t.Fatalf("addr string = %s", a)
	}
	if a.IsBroadcast() {
		t.Fatal("unicast reported broadcast")
	}
	if !Broadcast.IsBroadcast() {
		t.Fatal("broadcast not recognized")
	}
}

// The address text built without fmt must be exactly fmt's %02x form,
// for edge bytes and random addresses alike, and AppendTo must leave
// the bytes it appends to alone.
func TestAddrTextMatchesSprintf(t *testing.T) {
	want := func(a Addr) string {
		return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
	}
	addrs := []Addr{{}, Broadcast, {0x00, 0x01, 0x09, 0x0a, 0x0f, 0x10},
		{0x7f, 0x80, 0x99, 0xa0, 0xef, 0xfe}, NewAddr(0, 1), NewAddr(0xff, 0xffffffff)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var a Addr
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if got := a.String(); got != want(a) {
			t.Fatalf("String() = %q, want %q", got, want(a))
		}
		if got := string(a.AppendTo([]byte("x="))); got != "x="+want(a) {
			t.Fatalf("AppendTo = %q, want %q", got, "x="+want(a))
		}
	}
}

func TestNewAddrUniqueness(t *testing.T) {
	seen := map[Addr]bool{}
	for c := byte(0); c < 4; c++ {
		for i := uint32(0); i < 100; i++ {
			a := NewAddr(c, i)
			if seen[a] {
				t.Fatalf("duplicate addr %s", a)
			}
			seen[a] = true
		}
	}
}

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	enc := f.Encode()
	if len(enc) != f.Size() {
		t.Fatalf("Size()=%d but encoded %d bytes for %v", f.Size(), len(enc), f)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode %v: %v", f, err)
	}
	return dec
}

func TestRoundTripManagementFrames(t *testing.T) {
	frames := []*Frame{
		{Type: TypeBeacon, SA: addr(1), DA: Broadcast, BSSID: addr(1),
			Body: &BeaconBody{SSID: "openwifi", Channel: 6, Capabilities: 0x0401, BackhaulKbps: 2000}},
		{Type: TypeProbeReq, SA: addr(2), DA: Broadcast, BSSID: Broadcast, Seq: 7,
			Body: &ProbeReqBody{SSID: ""}},
		{Type: TypeProbeResp, SA: addr(1), DA: addr(2), BSSID: addr(1),
			Body: &BeaconBody{SSID: "x", Channel: 11}},
		{Type: TypeAuthReq, SA: addr(2), DA: addr(1), BSSID: addr(1),
			Body: &AuthBody{Algorithm: 0}},
		{Type: TypeAuthResp, SA: addr(1), DA: addr(2), BSSID: addr(1),
			Body: &AuthBody{Status: 0}},
		{Type: TypeAssocReq, SA: addr(2), DA: addr(1), BSSID: addr(1),
			Body: &AssocReqBody{SSID: "openwifi", ListenInterval: 10}},
		{Type: TypeAssocResp, SA: addr(1), DA: addr(2), BSSID: addr(1), Retry: true,
			Body: &AssocRespBody{Status: 0, AID: 3}},
		{Type: TypeDeauth, SA: addr(1), DA: addr(2), BSSID: addr(1),
			Body: &DeauthBody{Reason: 4}},
	}
	for _, f := range frames {
		dec := roundTrip(t, f)
		if !reflect.DeepEqual(f, dec) {
			t.Errorf("round trip mismatch:\n in=%#v\nout=%#v", f, dec)
		}
	}
}

func TestRoundTripControlFrames(t *testing.T) {
	for _, ft := range []FrameType{TypeNull, TypePSPoll, TypeAck} {
		f := &Frame{Type: ft, SA: addr(2), DA: addr(1), BSSID: addr(1), PowerMgmt: ft == TypeNull}
		dec := roundTrip(t, f)
		if !reflect.DeepEqual(f, dec) {
			t.Errorf("%s round trip mismatch", ft)
		}
	}
}

func TestRoundTripDataFrame(t *testing.T) {
	f := &Frame{
		Type: TypeData, SA: addr(2), DA: addr(1), BSSID: addr(1), Seq: 99,
		Body: &DataBody{Proto: ProtoTCP, Header: []byte{1, 2, 3, 4}, VirtualLen: 1400},
	}
	dec := roundTrip(t, f)
	db := dec.Body.(*DataBody)
	if db.Proto != ProtoTCP || db.VirtualLen != 1400 || !bytes.Equal(db.Header, []byte{1, 2, 3, 4}) {
		t.Fatalf("data body mismatch: %+v", db)
	}
	if f.Size() < 1400 {
		t.Fatal("virtual payload not counted in Size")
	}
}

func TestDataFrameEmptyHeader(t *testing.T) {
	f := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), BSSID: addr(1),
		Body: &DataBody{Proto: ProtoPing, VirtualLen: 64}}
	dec := roundTrip(t, f)
	if !reflect.DeepEqual(f, dec) {
		t.Fatalf("empty-header data mismatch: %#v vs %#v", f.Body, dec.Body)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err != ErrTruncated {
		t.Fatalf("nil decode err = %v", err)
	}
	if _, err := Decode(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("short decode err = %v", err)
	}
	b := make([]byte, headerSize)
	b[0] = 200 // unknown type
	if _, err := Decode(b); err != ErrBadType {
		t.Fatalf("bad type err = %v", err)
	}
	// Valid header claiming a longer body than present.
	f := &Frame{Type: TypeBeacon, Body: &BeaconBody{SSID: "hello", Channel: 1}}
	enc := f.Encode()
	if _, err := Decode(enc[:len(enc)-2]); err != ErrTruncated {
		t.Fatalf("truncated body err = %v", err)
	}
}

func TestDecodeRejectsGarbageBodies(t *testing.T) {
	// A beacon whose SSID length points past the end.
	f := &Frame{Type: TypeBeacon, Body: &BeaconBody{SSID: "abc", Channel: 1}}
	enc := f.Encode()
	enc[headerSize] = 250 // corrupt SSID length
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupt beacon decoded without error")
	}
}

func TestControlFrameWithBodyRejected(t *testing.T) {
	f := &Frame{Type: TypeNull, SA: addr(1), DA: addr(2)}
	enc := f.Encode()
	// Claim a 2-byte body.
	enc[22], enc[23] = 0, 2
	enc = append(enc, 0xde, 0xad)
	if _, err := Decode(enc); err == nil {
		t.Fatal("null frame with body decoded without error")
	}
}

// Property: arbitrary SSIDs and fields survive the round trip.
func TestPropertyBeaconRoundTrip(t *testing.T) {
	f := func(ssidBytes []byte, ch uint8, caps uint16, bk uint32) bool {
		if len(ssidBytes) > 255 {
			ssidBytes = ssidBytes[:255]
		}
		in := &Frame{Type: TypeBeacon, SA: addr(1), DA: Broadcast, BSSID: addr(1),
			Body: &BeaconBody{SSID: string(ssidBytes), Channel: ch, Capabilities: caps, BackhaulKbps: bk}}
		out, err := Decode(in.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary data frames survive the round trip and Size is
// consistent with the encoding.
func TestPropertyDataRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		hdr := make([]byte, r.Intn(40))
		r.Read(hdr)
		var hdrOrNil []byte
		if len(hdr) > 0 {
			hdrOrNil = hdr
		}
		in := &Frame{
			Type: TypeData, SA: addr(uint32(i)), DA: addr(uint32(i + 1)), BSSID: addr(0),
			Seq:  uint16(r.Intn(4096)),
			Body: &DataBody{Proto: uint8(r.Intn(3) + 1), Header: hdrOrNil, VirtualLen: uint16(r.Intn(1500))},
		}
		enc := in.Encode()
		if len(enc) != in.Size() {
			t.Fatalf("size mismatch: %d vs %d", len(enc), in.Size())
		}
		out, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("mismatch:\n in=%#v\nout=%#v", in.Body, out.Body)
		}
	}
}

func TestFrameTypeClasses(t *testing.T) {
	for _, ft := range []FrameType{TypeBeacon, TypeProbeReq, TypeProbeResp,
		TypeAuthReq, TypeAuthResp, TypeAssocReq, TypeAssocResp, TypeDeauth} {
		if !ft.IsManagement() {
			t.Errorf("%s should be management", ft)
		}
	}
	for _, ft := range []FrameType{TypeData, TypeNull, TypePSPoll, TypeAck} {
		if ft.IsManagement() {
			t.Errorf("%s should not be management", ft)
		}
	}
	if FrameType(99).String() == "" {
		t.Fatal("unknown type has empty string")
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	small := Airtime(100, DataRateKbps)
	big := Airtime(1500, DataRateKbps)
	if big <= small {
		t.Fatal("airtime not increasing in size")
	}
	// 1500B at 11 Mbps ≈ 1.09ms + 192µs preamble.
	want := PLCPOverhead + 1091*time.Microsecond
	if d := big - want; d < -20*time.Microsecond || d > 20*time.Microsecond {
		t.Fatalf("1500B airtime %v, want ≈%v", big, want)
	}
}

func TestAirtimeDefensiveInputs(t *testing.T) {
	if Airtime(-5, DataRateKbps) != PLCPOverhead {
		t.Fatal("negative size should cost only preamble")
	}
	if Airtime(100, 0) <= 0 {
		t.Fatal("zero rate should fall back to default")
	}
}

func TestTxTimeAckOnlyForUnicast(t *testing.T) {
	uni := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), Body: &DataBody{VirtualLen: 100}}
	bc := &Frame{Type: TypeBeacon, SA: addr(1), DA: Broadcast, Body: &BeaconBody{SSID: "s"}}
	if TxTime(uni) <= Airtime(uni.Size(), DataRateKbps) {
		t.Fatal("unicast TxTime should include ACK exchange")
	}
	// Broadcast beacon: no ACK, but management rate is slow.
	if got := TxTime(bc); got <= 0 {
		t.Fatalf("broadcast TxTime = %v", got)
	}
}

func TestManagementFramesUseBasicRate(t *testing.T) {
	mgmt := &Frame{Type: TypeAssocReq, SA: addr(1), DA: addr(2), Body: &AssocReqBody{SSID: "0123456789"}}
	data := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), Body: &DataBody{VirtualLen: uint16(mgmt.Body.BodySize())}}
	if TxTime(mgmt) <= TxTime(data) {
		t.Fatal("management frame at basic rate should cost more airtime than same-size data")
	}
}

func TestOFDMRatesCutOverhead(t *testing.T) {
	f := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), Body: &DataBody{VirtualLen: 1400}}
	b11 := TxTimeRate(f, 11_000)
	g24 := TxTimeRate(f, 24_000)
	g54 := TxTimeRate(f, 54_000)
	if !(g54 < g24 && g24 < b11) {
		t.Fatalf("rates not ordered: 11M=%v 24M=%v 54M=%v", b11, g24, g54)
	}
	// 54 Mbps should be far better than the naive 11/54 scaling because
	// OFDM overhead shrinks too.
	if g54 > b11/3 {
		t.Fatalf("54 Mbps only %v vs %v at 11 Mbps — OFDM overhead missing", g54, b11)
	}
	// Management frames stay at the basic rate regardless.
	m := &Frame{Type: TypeAssocReq, SA: addr(1), DA: addr(2), Body: &AssocReqBody{SSID: "x"}}
	if TxTimeRate(m, 54_000) != TxTimeRate(m, 11_000) {
		t.Fatal("management frames should ignore the data rate")
	}
	// Zero/negative rate falls back to the default.
	if TxTimeRate(f, 0) != TxTime(f) {
		t.Fatal("rate fallback broken")
	}
}

func TestOFDMBroadcastNoAck(t *testing.T) {
	uni := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), Body: &DataBody{VirtualLen: 100}}
	bc := &Frame{Type: TypeData, SA: addr(1), DA: Broadcast, Body: &DataBody{VirtualLen: 100}}
	if TxTimeRate(bc, 54_000) >= TxTimeRate(uni, 54_000) {
		t.Fatal("broadcast should skip the ACK exchange")
	}
}

func TestValidChannel(t *testing.T) {
	for _, ch := range OrthogonalChannels {
		if !ValidChannel(ch) {
			t.Errorf("channel %d invalid", ch)
		}
	}
	for _, ch := range []int{0, -1, 12, 100} {
		if ValidChannel(ch) {
			t.Errorf("channel %d should be invalid", ch)
		}
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), BSSID: addr(3),
		Body: &DataBody{Proto: ProtoTCP, Header: make([]byte, 20), VirtualLen: 1400}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Encode()
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	f := &Frame{Type: TypeData, SA: addr(1), DA: addr(2), BSSID: addr(3),
		Body: &DataBody{Proto: ProtoTCP, Header: make([]byte, 20), VirtualLen: 1400}}
	enc := f.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
