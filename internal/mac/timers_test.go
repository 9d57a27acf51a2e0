package mac

import (
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// poolHost hosts a joiner and a DHCP client, handing every frame
// straight back to the pool it came from.
type poolHost struct{ pool *wifi.Pool }

func (h poolHost) SendJoinFrame(f *wifi.Frame) { h.pool.Recycle(f) }
func (poolHost) JoinResult(AssocResult)        {}
func (poolHost) SendDHCP(*dhcp.Message)        {}
func (poolHost) DHCPResult(dhcp.Result)        {}

// Every join arms a link-layer timeout, DHCP retransmit and deadline
// timers, an AP response delay and, on a channel switch, a retune; the
// metro storm arms them for 25,000 clients at once. Each timer fires
// through its owner, so arming one allocates nothing: no closure per
// owner, per carrier or per radio. The kernel is warm (its arena
// reserved, the RNG streams created by a first round) and nothing
// fires, so no response carrier is recycled: each round carves one.
func TestArmingTimersAllocatesNothing(t *testing.T) {
	const runs = 100
	k := sim.NewKernel(1)
	k.Reserve(8 * (runs + 1))
	m := radio.NewMedium(k, radio.Config{Range: 100, EdgeStart: 1})
	ap := NewAPAt(m, quietAPConfig("net", 6), wifi.NewAddr(0, 1), geo.Point{}, 1)
	self := wifi.NewAddr(0, 2)
	host := poolHost{m.Pool()}

	var j Joiner
	var c dhcp.Client
	frames := make([]*wifi.Frame, runs+1)
	for i := range frames {
		frames[i] = m.Pool().Frame()
	}
	ap.resps = make([]*pendingResp, 0, runs+1)
	radios := make([]*radio.Radio, runs+1)
	for i := range radios {
		radios[i] = m.NewRadio(wifi.NewAddr(1, uint32(i)), func() geo.Point { return geo.Point{} }, radio.ReceiverFunc(func(*wifi.Frame) {}))
	}

	for _, tc := range []struct {
		name string
		arm  func(i int)
	}{
		{"joiner", func(int) {
			j.Init(k, DefaultJoinConfig(), self, ap.Addr(), "net", host)
			j.SetPool(m.Pool())
			j.Start()
		}},
		{"dhcp client", func(int) {
			c.Init(k, dhcp.DefaultClientConfig(), self, host)
			c.Start(0)
		}},
		{"fresh AP response", func(i int) { ap.respondAfterDelay(frames[i]) }},
		{"first retune", func(i int) {
			radios[i].Retune(11, time.Millisecond, nil, 0)
		}},
	} {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			tc.arm(i)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: arming allocated %.1f times per round", tc.name, allocs)
		}
	}
	if k.Fired() != 0 {
		t.Fatalf("%d events fired; every round must arm fresh timers", k.Fired())
	}
}

// Every downlink frame the pump commits completes through the AP itself
// (TxDone, by the frame's tag), so pumping to a client the AP has never
// pumped to allocates nothing: no completion closure per client. The
// radio's queue is warm (a drained burst left its capacity) and nothing
// fires, so every round commits one more frame behind the first.
func TestPumpingToFreshClientsAllocatesNothing(t *testing.T) {
	const runs = 100
	k := sim.NewKernel(1)
	m := radio.NewMedium(k, radio.Config{Range: 100, EdgeStart: 1})
	ap := NewAPAt(m, quietAPConfig("net", 6), wifi.NewAddr(0, 1), geo.Point{}, 1)
	frame := func(da wifi.Addr) *wifi.Frame {
		f := m.Pool().Frame()
		f.Type, f.SA, f.DA, f.BSSID = wifi.TypeData, ap.Addr(), da, ap.Addr()
		f.Body = &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}
		return f
	}
	for i := 0; i < runs+8; i++ {
		ap.radio.Send(frame(wifi.Broadcast))
	}
	k.RunAll()
	fired := k.Fired()

	clients := make([]wifi.Addr, runs+1)
	for i := range clients {
		clients[i] = wifi.NewAddr(1, uint32(i))
		ap.clients[clients[i]] = &apClient{sc: apClientScalars{Associated: true},
			pending: []*wifi.Frame{frame(clients[i])}}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ap.pump(clients[i], ap.clients[clients[i]])
		i++
	})
	if allocs != 0 {
		t.Errorf("pumping to a fresh client allocated %.1f times per round", allocs)
	}
	if ap.DownDelivered != runs+1 || k.Fired() != fired {
		t.Fatalf("%d frames committed and %d events fired, want %d and none", ap.DownDelivered, k.Fired()-fired, runs+1)
	}
}
