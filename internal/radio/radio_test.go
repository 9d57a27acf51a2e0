package radio

import (
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

type collector struct {
	frames []*wifi.Frame
	done   []TxTag
}

func (c *collector) RadioReceive(f *wifi.Frame) { c.frames = append(c.frames, f) }
func (c *collector) TxDone(tag TxTag, _ bool)   { c.done = append(c.done, tag) }

// track is a test mobility: a position as a function of virtual time
// under the speed bound v, negative for none. A radio on an unbounded
// track is sampled whenever the medium asks, so a test may move it by
// hand.
type track struct {
	at func(time.Duration) geo.Point
	v  float64
}

func (tr track) PositionAt(t time.Duration) geo.Point { return tr.at(t) }
func (tr track) Speed() float64                       { return tr.v }

// unbounded is a track with no speed bound.
func unbounded(at func(time.Duration) geo.Point) track { return track{at, -1} }

// fixed is an unbounded track that stays at (x, y).
func fixed(x, y float64) track {
	return unbounded(func(time.Duration) geo.Point { return geo.Point{X: x, Y: y} })
}

func losslessCfg() Config {
	return Config{Range: 100, Loss: 0, EdgeStart: 1, DataRetryLimit: 0}
}

func newPair(t *testing.T, cfg Config, dist float64) (*sim.Kernel, *Medium, *Radio, *Radio, *collector, *collector) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewMedium(k, cfg)
	ca, cb := &collector{}, &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), ca)
	b := m.NewRadio(wifi.NewAddr(1, 2), fixed(dist, 0), cb)
	a.SetChannel(6)
	b.SetChannel(6)
	return k, m, a, b, ca, cb
}

// channelBusyUntil reports when the channel frees up as observed by the
// busiest station tuned to it: a max over the channel's registry when
// indexed, over every radio otherwise.
func channelBusyUntil(m *Medium, ch int) time.Duration {
	var latest time.Duration
	busiest := func(rs []*Radio) {
		for _, r := range rs {
			if r.channel == ch && r.busyUntil > latest {
				latest = r.busyUntil
			}
		}
	}
	if m.idx == nil {
		busiest(m.radios)
	} else if ci := m.idx.channel(ch); ci != nil {
		busiest(ci.statics)
		busiest(ci.binned)
		busiest(ci.unbinned)
	}
	return latest
}

func dataFrame(from, to *Radio) *wifi.Frame {
	return &wifi.Frame{Type: wifi.TypeData, SA: from.Addr(), DA: to.Addr(),
		Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}}
}

func TestUnicastDelivery(t *testing.T) {
	k, _, a, b, ca, cb := newPair(t, losslessCfg(), 50)
	if !a.Send(dataFrame(a, b)) {
		t.Fatal("Send returned false on tuned radio")
	}
	k.Run(time.Second)
	if len(cb.frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(cb.frames))
	}
	if len(ca.frames) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestUntunedRadioCannotSend(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	c := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), c)
	f := &wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: wifi.Broadcast}
	if a.Send(f) {
		t.Fatal("untuned radio sent")
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	k, m, a, b, _, cb := newPair(t, losslessCfg(), 150)
	a.Send(dataFrame(a, b))
	k.Run(time.Second)
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered beyond range")
	}
	if m.Stats().OutOfRange == 0 {
		t.Fatal("OutOfRange counter not incremented")
	}
}

func TestExactRangeBoundaryDelivered(t *testing.T) {
	k, _, a, b, _, cb := newPair(t, losslessCfg(), 100)
	a.Send(dataFrame(a, b))
	k.Run(time.Second)
	if len(cb.frames) != 1 {
		t.Fatal("frame at exact range boundary not delivered")
	}
}

func TestCrossChannelNotDelivered(t *testing.T) {
	k, m, a, b, _, cb := newPair(t, losslessCfg(), 50)
	b.SetChannel(11)
	a.Send(dataFrame(a, b))
	k.Run(time.Second)
	if len(cb.frames) != 0 {
		t.Fatal("frame crossed channels")
	}
	if m.Stats().MissedAway == 0 {
		t.Fatal("MissedAway counter not incremented")
	}
}

func TestReceiverSwitchingAwayMidFrameMissesIt(t *testing.T) {
	// The paper's core mechanism: a response transmitted while the client
	// leaves the channel is lost to the client.
	k, _, a, b, _, cb := newPair(t, losslessCfg(), 50)
	a.Send(dataFrame(a, b))
	// The frame takes ~ms; retune b away immediately.
	b.SetChannel(1)
	k.Run(time.Second)
	if len(cb.frames) != 0 {
		t.Fatal("off-channel receiver got the frame")
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	var cols []*collector
	ap := m.NewRadio(wifi.NewAddr(0, 0), fixed(0, 0), &collector{})
	ap.SetChannel(6)
	for i := 0; i < 5; i++ {
		c := &collector{}
		cols = append(cols, c)
		r := m.NewRadio(wifi.NewAddr(1, uint32(i)), fixed(float64(20*i), 0), c)
		r.SetChannel(6)
	}
	ap.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: ap.Addr(), DA: wifi.Broadcast, BSSID: ap.Addr(),
		Body: &wifi.BeaconBody{SSID: "s", Channel: 6}})
	k.Run(time.Second)
	for i, c := range cols {
		if len(c.frames) != 1 {
			t.Fatalf("station %d got %d beacons, want 1", i, len(c.frames))
		}
	}
}

func TestUnicastNotSnoopedWithoutPromiscuous(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	ca, cb, cc := &collector{}, &collector{}, &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), ca)
	b := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), cb)
	c := m.NewRadio(wifi.NewAddr(1, 3), fixed(20, 0), cc)
	for _, r := range []*Radio{a, b, c} {
		r.SetChannel(6)
	}
	a.Send(dataFrame(a, b))
	k.Run(time.Second)
	if len(cc.frames) != 0 {
		t.Fatal("third party snooped unicast without promiscuous mode")
	}
	c.SetPromiscuous(true)
	a.Send(dataFrame(a, b))
	k.Run(2 * time.Second)
	if len(cc.frames) != 1 {
		t.Fatal("promiscuous radio did not snoop unicast")
	}

	// A restored medium must know it has a promiscuous radio: unicasts
	// are resolved by address only while none is.
	st, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel(1)
	m2 := NewMedium(k2, losslessCfg())
	cc2 := &collector{}
	a2 := m2.NewRadio(a.Addr(), fixed(0, 0), &collector{})
	m2.NewRadio(b.Addr(), fixed(10, 0), &collector{})
	m2.NewRadio(c.Addr(), fixed(20, 0), cc2)
	if err := m2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	a2.Send(dataFrame(a2, b))
	k2.Run(3 * time.Second) // busy-until is restored from the first run's clock
	if len(cc2.frames) != 1 {
		t.Fatal("restored promiscuous radio did not snoop unicast")
	}
}

// TestRestoredTagsCompleteToOwner: tagged frames queued at an export
// complete to the restored radio's owner with their tags, untagged ones
// to no one, and a queued tag of no known kind is refused at restore.
func TestRestoredTagsCompleteToOwner(t *testing.T) {
	k, m, a, b, _, _ := newPair(t, losslessCfg(), 10)
	tags := []TxTag{{Kind: TagAPPump, Addr: b.Addr()}, {}, {Kind: TagPSM, Gen: 7}}
	for _, tag := range tags {
		a.SendTagged(dataFrame(a, b), tag)
	}
	st, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(st MediumState) (*sim.Kernel, *collector, error) {
		k2 := sim.NewKernel(1)
		m2 := NewMedium(k2, losslessCfg())
		ca2 := &collector{}
		m2.NewRadio(a.Addr(), fixed(0, 0), ca2)
		m2.NewRadio(b.Addr(), fixed(10, 0), &collector{})
		k2.BeginRestore(k.Now(), k.NextSeq(), k.Fired())
		return k2, ca2, m2.RestoreState(st)
	}
	k2, ca2, err := restore(st)
	if err != nil {
		t.Fatal(err)
	}
	k2.Run(time.Second)
	if want := []TxTag{tags[0], tags[2]}; !slices.Equal(ca2.done, want) {
		t.Fatalf("restored owner saw completions %+v, want %+v", ca2.done, want)
	}

	st.Radios[0].Queue[1].Tag.Kind = TagPSM + 1
	if _, _, err := restore(st); err == nil || !strings.Contains(err.Error(), "unknown completion tag kind") {
		t.Fatalf("restore of a queued tag of unknown kind: %v, want a refusal", err)
	}
}

func TestRandomLossRate(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := Config{Range: 100, Loss: 0.10, EdgeStart: 1, DataRetryLimit: 0}
	m := NewMedium(k, cfg)
	cb := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), cb)
	a.SetChannel(6)
	b.SetChannel(6)
	const n = 2000
	var send func(i int)
	send = func(i int) {
		if i >= n {
			return
		}
		// Management frames are never retried, so each send is one trial.
		a.Send(&wifi.Frame{Type: wifi.TypeProbeResp, SA: a.Addr(), DA: b.Addr(), BSSID: a.Addr(),
			Body: &wifi.BeaconBody{SSID: "s", Channel: 6}})
		k.After(10*time.Millisecond, func() { send(i + 1) })
	}
	send(0)
	k.Run(time.Hour)
	got := float64(len(cb.frames)) / n
	if got < 0.87 || got > 0.93 {
		t.Fatalf("delivery rate %.3f with h=0.1, want ~0.90", got)
	}
}

func TestEdgeLossRampsToOne(t *testing.T) {
	k := sim.NewKernel(3)
	cfg := Config{Range: 100, Loss: 0.1, EdgeStart: 0.85, DataRetryLimit: 0}
	m := NewMedium(k, cfg)
	if got := m.lossAt(50); got != 0.1 {
		t.Fatalf("loss inside edge = %v, want 0.1", got)
	}
	if got := m.lossAt(100); got < 0.999 {
		t.Fatalf("loss at range edge = %v, want ~1", got)
	}
	mid := m.lossAt(92.5)
	if mid <= 0.1 || mid >= 1 {
		t.Fatalf("loss mid-ramp = %v, want between", mid)
	}
}

func TestDataRetriesRecoverLoss(t *testing.T) {
	k := sim.NewKernel(11)
	cfg := Config{Range: 100, Loss: 0.3, EdgeStart: 1, DataRetryLimit: 6}
	m := NewMedium(k, cfg)
	cb := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), cb)
	a.SetChannel(6)
	b.SetChannel(6)
	const n = 300
	var send func(i int)
	send = func(i int) {
		if i >= n {
			return
		}
		a.Send(dataFrame(a, b))
		k.After(50*time.Millisecond, func() { send(i + 1) })
	}
	send(0)
	k.Run(time.Hour)
	// Effective loss 0.3^7 ≈ 0.02%; all or nearly all should arrive.
	if len(cb.frames) < n-2 {
		t.Fatalf("delivered %d of %d with ARQ", len(cb.frames), n)
	}
	if m.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite loss")
	}
}

func TestChannelAirtimeSerialization(t *testing.T) {
	k, m, a, b, _, cb := newPair(t, losslessCfg(), 50)
	f1 := dataFrame(a, b)
	f2 := dataFrame(a, b)
	a.Send(f1)
	a.Send(f2)
	k.Run(time.Second)
	if len(cb.frames) != 2 {
		t.Fatalf("got %d frames", len(cb.frames))
	}
	// Both frames must not complete at the same instant; the second waits
	// for the first. Verify via the busy ledger exceeding one TxTime.
	single := wifi.TxTime(f1)
	if got := channelBusyUntil(m, 6); got < 2*single-time.Microsecond {
		t.Fatalf("busyUntil %v, want ≥ 2×%v", got, single)
	}
}

func TestTransmissionsOnDifferentChannelsDoNotSerialize(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	c1, c2 := &collector{}, &collector{}
	a1 := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b1 := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), c1)
	a2 := m.NewRadio(wifi.NewAddr(1, 3), fixed(0, 50), &collector{})
	b2 := m.NewRadio(wifi.NewAddr(1, 4), fixed(10, 50), c2)
	a1.SetChannel(1)
	b1.SetChannel(1)
	a2.SetChannel(11)
	b2.SetChannel(11)
	a1.Send(dataFrame(a1, b1))
	a2.Send(dataFrame(a2, b2))
	k.Run(time.Second)
	d1 := wifi.TxTime(dataFrame(a1, b1))
	if channelBusyUntil(m, 1) > d1+time.Microsecond || channelBusyUntil(m, 11) > d1+time.Microsecond {
		t.Fatal("orthogonal channels serialized against each other")
	}
	if len(c1.frames) != 1 || len(c2.frames) != 1 {
		t.Fatal("parallel channel delivery failed")
	}
}

func TestSpatialReuseFarStationsDoNotContend(t *testing.T) {
	// Two AP/client pairs 1 km apart on the same channel must not share
	// airtime: channel reuse across town is what makes a city-wide drive
	// simulable at all.
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1, CSRange: 200})
	c1, c2 := &collector{}, &collector{}
	a1 := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b1 := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), c1)
	a2 := m.NewRadio(wifi.NewAddr(1, 3), fixed(1000, 0), &collector{})
	b2 := m.NewRadio(wifi.NewAddr(1, 4), fixed(1010, 0), c2)
	for _, r := range []*Radio{a1, b1, a2, b2} {
		r.SetChannel(6)
	}
	f := dataFrame(a1, b1)
	a1.Send(f)
	a2.Send(dataFrame(a2, b2))
	k.Run(time.Second)
	if len(c1.frames) != 1 || len(c2.frames) != 1 {
		t.Fatal("parallel far transmissions failed")
	}
	// Neither transmitter deferred: both finished within one TxTime.
	if a1.busyUntil > wifi.TxTime(f)+time.Microsecond || a2.busyUntil > wifi.TxTime(f)+time.Microsecond {
		t.Fatalf("distant stations serialized: %v %v", a1.busyUntil, a2.busyUntil)
	}
}

func TestNearbyStationsDeferToEachOther(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1, CSRange: 200})
	c1 := &collector{}
	a1 := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b1 := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), c1)
	a2 := m.NewRadio(wifi.NewAddr(1, 3), fixed(50, 0), &collector{})
	for _, r := range []*Radio{a1, b1, a2} {
		r.SetChannel(6)
	}
	f := dataFrame(a1, b1)
	a1.Send(f)
	a2.Send(dataFrame(a2, b1))
	k.Run(time.Second)
	// a2 sensed a1's transmission and deferred; its frame ends later.
	if a2.busyUntil <= wifi.TxTime(f) {
		t.Fatalf("nearby station did not defer: %v", a2.busyUntil)
	}
	if len(c1.frames) != 2 {
		t.Fatalf("receiver got %d frames, want 2", len(c1.frames))
	}
}

func TestRetuneSuspendsRadio(t *testing.T) {
	k, _, a, b, _, cb := newPair(t, losslessCfg(), 50)
	reset := 5 * time.Millisecond
	done := false
	b.Retune(11, reset, sim.Func(func() { done = true }), 0)
	if b.Channel() != 0 {
		t.Fatal("radio not deaf during reset")
	}
	// A frame sent to b during the reset is missed.
	a.Send(dataFrame(a, b))
	k.Run(time.Second)
	if !done {
		t.Fatal("retune callback never ran")
	}
	if b.Channel() != 11 {
		t.Fatalf("channel after retune = %d", b.Channel())
	}
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered during hardware reset")
	}
}

func TestSendDuringSuspensionDefersStart(t *testing.T) {
	k, _, _, b, _, _ := newPair(t, losslessCfg(), 50)
	reset := 10 * time.Millisecond
	b.Retune(11, reset, nil, 0)
	// Queue a send immediately; the radio is deaf, so Send on channel 0
	// must report false.
	if b.Send(dataFrame(b, b)) {
		t.Fatal("send during reset on untuned radio should fail")
	}
	k.Run(time.Second)
}

func TestInvalidChannelPanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	r := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid channel")
		}
	}()
	r.SetChannel(42)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Range != 100 || c.Loss != 0 || c.EdgeStart != 0.85 {
		t.Fatalf("defaults = %+v", c)
	}
	d := Defaults()
	if d.Loss != 0.10 || d.Range != 100 || d.DataRetryLimit != 6 {
		t.Fatalf("Defaults() = %+v", d)
	}
}

func TestNilReceiverPanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil receiver")
		}
	}()
	m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), nil)
}

func TestMobileReceiverPositionSampledAtDelivery(t *testing.T) {
	// A receiver that drives out of range before the frame ends misses it.
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	cb := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	// b teleports out of range at t=1ms.
	bPos := unbounded(func(t time.Duration) geo.Point {
		if t >= time.Millisecond {
			return geo.Point{X: 1000, Y: 0}
		}
		return geo.Point{X: 10, Y: 0}
	})
	b := m.NewRadio(wifi.NewAddr(1, 2), bPos, cb)
	a.SetChannel(6)
	b.SetChannel(6)
	big := &wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
		Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 1400}} // ~1.9ms on air
	a.Send(big)
	k.Run(time.Second)
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered to receiver that left range mid-flight")
	}
}

func BenchmarkMediumUnicast(b *testing.B) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	cb := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	r := m.NewRadio(wifi.NewAddr(1, 2), fixed(10, 0), cb)
	a.SetChannel(6)
	r.SetChannel(6)
	f := dataFrame(a, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(f)
		k.RunAll()
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Classic topology: A and C are out of carrier-sense range of each
	// other but both in range of B. Simultaneous transmissions collide
	// at B when HiddenCollisions is on.
	build := func(hidden bool) int {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1, CSRange: 150, HiddenCollisions: hidden})
		cb := &collector{}
		a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
		b := m.NewRadio(wifi.NewAddr(1, 2), fixed(90, 0), cb)
		c := m.NewRadio(wifi.NewAddr(1, 3), fixed(180, 0), &collector{})
		for _, r := range []*Radio{a, b, c} {
			r.SetChannel(6)
		}
		// Fire simultaneously; A→B and C→B overlap at B.
		a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 1400}})
		c.Send(&wifi.Frame{Type: wifi.TypeData, SA: c.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 1400}})
		k.Run(50 * time.Millisecond)
		return len(cb.frames)
	}
	if got := build(false); got != 2 {
		t.Fatalf("without collision modeling B should hear both, got %d", got)
	}
	if got := build(true); got != 0 {
		t.Fatalf("hidden terminals should corrupt both at B, got %d", got)
	}
}

func TestHiddenCollisionNotTriggeredByCSMANeighbors(t *testing.T) {
	// Two senders within carrier-sense range serialize; no collision.
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1, CSRange: 200, HiddenCollisions: true})
	cb := &collector{}
	a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
	b := m.NewRadio(wifi.NewAddr(1, 2), fixed(50, 0), cb)
	c := m.NewRadio(wifi.NewAddr(1, 3), fixed(100, 0), &collector{})
	for _, r := range []*Radio{a, b, c} {
		r.SetChannel(6)
	}
	a.Send(dataFrame(a, b))
	c.Send(dataFrame(c, b))
	k.Run(50 * time.Millisecond)
	if len(cb.frames) != 2 {
		t.Fatalf("CSMA neighbors should serialize cleanly, got %d", len(cb.frames))
	}
	if m.Stats().Collisions != 0 {
		t.Fatalf("spurious collisions: %d", m.Stats().Collisions)
	}
}

// TestHiddenCollisionSurvivesUnrelatedTraffic: a hidden broadcast that
// ended while a longer frame is still on the air must keep corrupting
// that frame, even if some other station — here one 5 km away on
// another channel — starts transmitting in between. Pruning the ended
// broadcast at that transmission once let the long frame through.
func TestHiddenCollisionSurvivesUnrelatedTraffic(t *testing.T) {
	build := func(far bool) (collisions uint64, atB int) {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1, CSRange: 150, HiddenCollisions: true})
		cb := &collector{}
		a := m.NewRadio(wifi.NewAddr(1, 1), fixed(0, 0), &collector{})
		b := m.NewRadio(wifi.NewAddr(1, 2), fixed(90, 0), cb)
		c := m.NewRadio(wifi.NewAddr(1, 3), fixed(180, 0), &collector{})
		d := m.NewRadio(wifi.NewAddr(1, 4), fixed(5000, 0), &collector{})
		for _, r := range []*Radio{a, b, c} {
			r.SetChannel(6)
		}
		d.SetChannel(1)
		short := &wifi.Frame{Type: wifi.TypeData, SA: c.Addr(), DA: wifi.Broadcast,
			Body: &wifi.DataBody{Proto: wifi.ProtoPing}}
		if dur := wifi.TxTimeRate(short, m.cfg.DataRateKbps); dur >= 600*time.Microsecond {
			t.Fatalf("short broadcast takes %v; it must end before the far transmission", dur)
		}
		a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 1400}})
		c.Send(short)
		if far {
			k.At(600*time.Microsecond, func() {
				d.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: d.Addr(), DA: wifi.Broadcast,
					Body: &wifi.BeaconBody{Channel: 1}})
			})
		}
		k.Run(50 * time.Millisecond)
		return m.Stats().Collisions, len(cb.frames)
	}
	for _, far := range []bool{false, true} {
		if coll, got := build(far); coll != 2 || got != 0 {
			t.Errorf("far transmission %v: %d collisions and %d frames at B, want 2 and 0", far, coll, got)
		}
	}
}

// counted wraps a mobility model so its samples are counted.
type counted struct {
	geo.Mobility
	calls *int
}

func (c counted) PositionAt(t time.Duration) geo.Point {
	*c.calls++
	return c.Mobility.PositionAt(t)
}

// TestParkedRadioSamplesOnce: a radio whose mobility model declares
// speed 0 is parked: the medium samples it at the first ask and reports
// that sample from then on. The model here outruns its bound, so any
// later sample would show.
func TestParkedRadioSamplesOnce(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	calls := 0
	r := m.NewRadio(wifi.NewAddr(1, 1), counted{track{func(t time.Duration) geo.Point {
		return geo.Point{X: 10 + t.Seconds()}
	}, 0}, &calls}, &collector{})
	r.SetChannel(6)
	k.Run(500 * time.Millisecond)
	first := r.position()
	k.Run(3 * time.Second)
	if p := r.position(); p != first || calls != 1 {
		t.Fatalf("parked radio at 3 s reports %v after %d samples, want its first sample %v and one", p, calls, first)
	}
}

// TestPositionMemoizedPerInstant: reads at one virtual instant sample
// the mobility model once and return its value; the next instant
// samples again, so a model that changes at an instant boundary is
// honored.
func TestPositionMemoizedPerInstant(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, losslessCfg())
	calls := 0
	// Any bound but 0 memoizes per instant only.
	r := m.NewRadio(wifi.NewAddr(1, 1), counted{track{func(t time.Duration) geo.Point {
		if t >= time.Millisecond {
			return geo.Point{X: 1000}
		}
		return geo.Point{X: 10}
	}, 1e6}, &calls}, &collector{})
	for i := 0; i < 2; i++ {
		if p := r.position(); p.X != 10 {
			t.Fatalf("read %d at t=0: %v, want x=10", i, p)
		}
	}
	if calls != 1 {
		t.Fatalf("two reads at one instant sampled the model %d times, want 1", calls)
	}
	k.Run(time.Millisecond)
	for i := 0; i < 2; i++ {
		if p := r.position(); p.X != 1000 {
			t.Fatalf("read %d at t=1ms: %v, want x=1000", i, p)
		}
	}
	if calls != 2 {
		t.Fatalf("model sampled %d times over two instants, want 2", calls)
	}
}

// TestRadioWalkFieldsShareALine pins the Radio layout the medium's walks
// rely on: every field they read of a visited radio lies in its first 64
// bytes, and the struct stays in the 320-byte allocation class, whose
// objects start on 64-byte boundaries.
func TestRadioWalkFieldsShareALine(t *testing.T) {
	var r Radio
	if size := unsafe.Sizeof(r); size <= 288 || size > 320 {
		t.Fatalf("Radio is %d bytes, outside the 320-byte allocation class", size)
	}
	for name, end := range map[string]uintptr{
		"posVal":      unsafe.Offsetof(r.posVal) + unsafe.Sizeof(r.posVal),
		"posAt":       unsafe.Offsetof(r.posAt) + unsafe.Sizeof(r.posAt),
		"maxSpeed":    unsafe.Offsetof(r.maxSpeed) + unsafe.Sizeof(r.maxSpeed),
		"channel":     unsafe.Offsetof(r.channel) + unsafe.Sizeof(r.channel),
		"busyUntil":   unsafe.Offsetof(r.busyUntil) + unsafe.Sizeof(r.busyUntil),
		"suspendedTo": unsafe.Offsetof(r.suspendedTo) + unsafe.Sizeof(r.suspendedTo),
		"posValid":    unsafe.Offsetof(r.posValid) + 1,
		"posFixed":    unsafe.Offsetof(r.posFixed) + 1,
		"promiscuous": unsafe.Offsetof(r.promiscuous) + 1,
	} {
		if end > 64 {
			t.Errorf("Radio.%s ends at byte %d, past the first cache line", name, end)
		}
	}
}
