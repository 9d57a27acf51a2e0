package core

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// world is a shared test fixture: medium + APs + one driver. It is the
// driver's host, logging what the driver reports.
type world struct {
	k      *sim.Kernel
	m      *radio.Medium
	aps    []*mac.AP
	driver *Driver

	connected    []wifi.Addr
	disconnected []wifi.Addr
	joinResults  []bool
	// downlinks logs each downlink payload's AP and body size.
	downlinks []downlink
	// resetDelay is the extra reset time every channel switch takes.
	resetDelay time.Duration
}

type downlink struct {
	bssid wifi.Addr
	size  int
}

func (w *world) Connected(ifc *Iface)                   { w.connected = append(w.connected, ifc.BSSID()) }
func (w *world) Disconnected(ifc *Iface)                { w.disconnected = append(w.disconnected, ifc.BSSID()) }
func (w *world) AssocResult(wifi.Addr, mac.AssocResult) {}
func (w *world) JoinResult(_ wifi.Addr, ok bool, _ time.Duration) {
	w.joinResults = append(w.joinResults, ok)
}
func (w *world) Downlink(bssid wifi.Addr, db *wifi.DataBody) {
	w.downlinks = append(w.downlinks, downlink{bssid, db.BodySize()})
}
func (w *world) ResetDelay() time.Duration { return w.resetDelay }

// apEntry returns ap's association-table entry for addr, read through
// the AP's checkpoint export (zero if absent).
func apEntry(t *testing.T, ap *mac.AP, addr wifi.Addr) mac.APClientState {
	t.Helper()
	st, err := ap.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Client {
		if c.Addr == addr {
			return c
		}
	}
	return mac.APClientState{}
}

func newWorld(seed int64, loss float64) *world {
	w := &world{k: sim.NewKernel(seed)}
	w.m = radio.NewMedium(w.k, radio.Config{Range: 100, Loss: loss, EdgeStart: 1, DataRetryLimit: 6})
	return w
}

func (w *world) addAP(i uint32, ssid string, ch int, pos geo.Point) *mac.AP {
	cfg := mac.DefaultAPConfig(ssid, ch)
	cfg.RespDelay = sim.Constant{V: 5 * time.Millisecond}
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: 150 * time.Millisecond},
		AckLatency:   sim.Constant{V: 50 * time.Millisecond},
	}
	ap := mac.NewAPAt(w.m, cfg, wifi.NewAddr(0, i), pos, i)
	w.aps = append(w.aps, ap)
	return ap
}

func (w *world) addDriver(cfg Config, mob geo.Mobility) *Driver {
	return w.addDriverPolicy(cfg, policyFor(cfg.Mode), mob)
}

// addDriverPolicy is addDriver with the driver's timers given rather
// than taken from the mode.
func (w *world) addDriverPolicy(cfg Config, pol policy, mob geo.Mobility) *Driver {
	w.driver = newDriver(w.m, cfg, &pol, wifi.NewAddr(1, 1), mob, w)
	return w.driver
}

// tracedSwitches lists the channel switches in tr: each one's target
// channel and modeled latency.
func tracedSwitches(t *testing.T, tr *obs.Tracer) (to []int, lat []time.Duration) {
	t.Helper()
	for _, ev := range tr.Events() {
		if ev.Cat != "core.switch" {
			continue
		}
		for _, a := range ev.Args {
			switch a.Key {
			case "to":
				ch, err := strconv.Atoi(a.Val)
				if err != nil {
					t.Fatal(err)
				}
				to = append(to, ch)
			case "latency":
				l, err := time.ParseDuration(a.Val)
				if err != nil {
					t.Fatal(err)
				}
				lat = append(lat, l)
			}
		}
	}
	return to, lat
}

func singleChannelCfg(mode Mode, ch int) Config {
	cfg := SpiderDefaults(mode, []ChannelSlice{{Channel: ch, Dwell: 0}})
	return cfg
}

func TestDriverJoinsAPOnSingleChannel(t *testing.T) {
	w := newWorld(1, 0)
	w.addAP(1, "open", 6, geo.Point{X: 30})
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	d.AttachObs(obs.New(0))
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("connected %d, want 1 (stats %+v)", d.ConnectedCount(), d.Stats())
	}
	if len(w.connected) != 1 || w.connected[0] != w.aps[0].Addr() {
		t.Fatalf("host heard Connected for %v", w.connected)
	}
	if st := d.Stats(); st.JoinSuccesses != 1 || st.AssocSuccesses != 1 {
		t.Fatalf("%d joins and %d associations, want 1 each", st.JoinSuccesses, st.AssocSuccesses)
	}
	if n, sum := d.hJoin.Count(), d.hJoin.Sum(); n != 1 || sum <= 0 {
		t.Fatalf("join latency histogram: %d observations summing to %gs", n, sum)
	}
	if n := d.hAssoc.Count(); n != 1 {
		t.Fatalf("association latency histogram: %d observations", n)
	}
}

func TestDriverMultiAPJoinsSeveral(t *testing.T) {
	w := newWorld(2, 0)
	for i := uint32(1); i <= 3; i++ {
		w.addAP(i, "open", 6, geo.Point{X: float64(20 * i)})
	}
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(30 * time.Second)
	if d.ConnectedCount() != 3 {
		t.Fatalf("connected %d of 3 (stats %+v)", d.ConnectedCount(), d.Stats())
	}
}

func TestSingleAPModeJoinsOnlyOne(t *testing.T) {
	w := newWorld(3, 0)
	for i := uint32(1); i <= 3; i++ {
		w.addAP(i, "open", 6, geo.Point{X: float64(20 * i)})
	}
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(30 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("single-AP mode connected %d", d.ConnectedCount())
	}
	if len(d.Interfaces()) != 1 {
		t.Fatalf("interfaces: %d", len(d.Interfaces()))
	}
}

func TestMaxInterfacesRespected(t *testing.T) {
	w := newWorld(4, 0)
	for i := uint32(1); i <= 5; i++ {
		w.addAP(i, "open", 6, geo.Point{X: float64(10 * i)})
	}
	cfg := singleChannelCfg(SingleChannelMultiAP, 6)
	cfg.MaxInterfaces = 2
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(30 * time.Second)
	if got := len(d.Interfaces()); got > 2 {
		t.Fatalf("interfaces %d exceed budget 2", got)
	}
	if d.ConnectedCount() != 2 {
		t.Fatalf("connected %d, want 2", d.ConnectedCount())
	}
}

func TestMultiChannelRotationVisitsAllChannels(t *testing.T) {
	w := newWorld(5, 0)
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	o := obs.New(0)
	o.Tracer.AttachClock(w.k.Now)
	d.AttachObs(o)
	w.k.Run(3 * time.Second)
	switches, lats := tracedSwitches(t, o.Tracer)
	visited := map[int]bool{}
	for i, to := range switches {
		visited[to] = true
		if lats[i] < policyFor(cfg.Mode).resetBase {
			t.Errorf("switch latency %v below reset base", lats[i])
		}
	}
	if !visited[1] || !visited[6] || !visited[11] {
		t.Fatalf("channels visited: %v", visited)
	}
	// ~5 switches/second on a 600ms period.
	if len(switches) < 10 {
		t.Fatalf("only %d switches in 3s", len(switches))
	}
	if d.Stats().Switches != uint64(len(switches)) {
		t.Fatal("switch counter mismatch")
	}
}

func TestMultiChannelJoinsAcrossChannels(t *testing.T) {
	w := newWorld(6, 0)
	w.addAP(1, "a", 1, geo.Point{X: 20})
	w.addAP(2, "b", 6, geo.Point{X: 30})
	w.addAP(3, "c", 11, geo.Point{X: 40})
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(60 * time.Second)
	if d.ConnectedCount() != 3 {
		t.Fatalf("connected %d of 3 across channels (stats %+v)", d.ConnectedCount(), d.Stats())
	}
}

func TestMultiChannelSingleAPDwellsOnConnectedChannel(t *testing.T) {
	w := newWorld(7, 0)
	w.addAP(1, "a", 6, geo.Point{X: 20})
	cfg := SpiderDefaults(MultiChannelSingleAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	pol := policyFor(cfg.Mode)
	pol.bgScanEvery = 0 // isolate the dwell behaviour
	d := w.addDriverPolicy(cfg, pol, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	switchesAtConnect := d.Stats().Switches
	w.k.Run(30 * time.Second)
	if d.Stats().Switches != switchesAtConnect {
		t.Fatalf("driver kept rotating while dwelling: %d → %d",
			switchesAtConnect, d.Stats().Switches)
	}
	if d.radio.Channel() != 6 {
		t.Fatalf("dwelling on channel %d, want 6", d.radio.Channel())
	}
}

func TestBackgroundScanPeeksAndReturns(t *testing.T) {
	w := newWorld(71, 0)
	w.addAP(1, "a", 6, geo.Point{X: 20})
	cfg := SpiderDefaults(MultiChannelSingleAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	swAtConnect := d.Stats().Switches
	w.k.Run(40 * time.Second)
	// Background scanning keeps switching (out and back) while dwelling…
	if d.Stats().Switches <= swAtConnect {
		t.Fatal("background scan never left the home channel")
	}
	// …but the driver always comes home and stays connected.
	if d.radio.Channel() != 6 && d.radio.Channel() != 0 {
		// Mid-excursion is possible; advance a little and re-check.
		w.k.Run(w.k.Now() + time.Second)
	}
	if d.ConnectedCount() != 1 {
		t.Fatal("background scanning killed the association")
	}
}

func TestInactivityDisconnectsWhenAPLeavesRange(t *testing.T) {
	w := newWorld(8, 0)
	w.addAP(1, "a", 6, geo.Point{X: 30})
	// Client drives away at 15 m/s after connecting.
	mob := &geo.RouteMobility{Route: geo.StraightRoad(5000), SpeedMS: 15}
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), mob)
	w.k.Run(60 * time.Second)
	if len(w.connected) != 1 {
		t.Fatalf("never connected (stats %+v)", d.Stats())
	}
	if len(w.disconnected) != 1 {
		t.Fatalf("never disconnected after leaving range (stats %+v)", d.Stats())
	}
	if d.ConnectedCount() != 0 {
		t.Fatal("still connected far out of range")
	}
}

func TestRejoinUsesLeaseCacheFastPath(t *testing.T) {
	w := newWorld(9, 0)
	w.addAP(1, "a", 6, geo.Point{X: 1000})
	// Loop past the AP repeatedly: 2km loop at 10 m/s = 200s per lap.
	mob := &geo.RouteMobility{Route: geo.RectLoop(990, 10), SpeedMS: 10, Loop: true}
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), mob)
	w.k.Run(500 * time.Second) // ~2.5 laps → ≥2 encounters
	if d.Stats().JoinSuccesses < 2 {
		t.Fatalf("expected ≥2 joins over laps, got %d", d.Stats().JoinSuccesses)
	}
	if d.Stats().FastPathJoins == 0 {
		t.Fatalf("no fast-path rejoins despite lease cache (stats %+v)", d.Stats())
	}
}

func TestStockModeNeverUsesCache(t *testing.T) {
	w := newWorld(10, 0)
	w.addAP(1, "a", 6, geo.Point{X: 1000})
	mob := &geo.RouteMobility{Route: geo.RectLoop(990, 10), SpeedMS: 10, Loop: true}
	cfg := StockDefaults(EqualSchedule(200*time.Millisecond, 6))
	d := w.addDriver(cfg, mob)
	w.k.Run(500 * time.Second)
	if d.Stats().FastPathJoins != 0 {
		t.Fatal("stock driver used the lease cache")
	}
}

func TestUplinkQueuesWhenOffChannel(t *testing.T) {
	w := newWorld(11, 0)
	ap := w.addAP(1, "a", 6, geo.Point{X: 20})
	got := 0
	ap.SetUplinkHandler(func(from wifi.Addr, db *wifi.DataBody) { got++ })
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 6, 11))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	// Wait for a FRESH arrival on channel 11 (away from the AP) so the
	// remaining dwell comfortably covers the assertions below.
	deadline := w.k.Now() + 2*time.Second
	prev := d.radio.Channel()
	for w.k.Now() < deadline {
		w.k.Run(w.k.Now() + 5*time.Millisecond)
		cur := d.radio.Channel()
		if cur == 11 && prev != 11 {
			break
		}
		prev = cur
	}
	if d.radio.Channel() != 11 {
		t.Fatal("never reached channel 11")
	}
	before := got
	if !d.Uplink(ap.Addr(), &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}) {
		t.Fatal("Uplink rejected for connected iface")
	}
	// Frame must not arrive while we are on 11…
	w.k.Run(w.k.Now() + 50*time.Millisecond)
	if got != before {
		t.Fatal("frame transmitted while off-channel")
	}
	// …but must drain on the next visit to 6.
	w.k.Run(w.k.Now() + time.Second)
	if got != before+1 {
		t.Fatalf("queued frame never drained: got=%d want=%d", got, before+1)
	}
}

func TestUplinkUnknownBSSIDRejected(t *testing.T) {
	w := newWorld(12, 0)
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	if d.Uplink(wifi.NewAddr(0, 99), &wifi.DataBody{}) {
		t.Fatal("uplink to unknown AP accepted")
	}
}

func TestDataSinkReceivesDownlink(t *testing.T) {
	w := newWorld(13, 0)
	ap := w.addAP(1, "a", 6, geo.Point{X: 20})
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatal("not connected")
	}
	body := &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 300}
	size := body.BodySize()
	ap.Deliver(d.Addr(), body)
	w.k.Run(w.k.Now() + time.Second)
	if want := []downlink{{ap.Addr(), size}}; !slices.Equal(w.downlinks, want) {
		t.Fatalf("host got downlinks %v, want %v", w.downlinks, want)
	}
	if d.Stats().DownlinkBytes == 0 {
		t.Fatal("downlink bytes not counted")
	}
}

func TestHoldDownBlocksImmediateRetry(t *testing.T) {
	// An AP in range for scanning but whose DHCP never answers: the
	// driver must not retry it before HoldDown expires.
	w := newWorld(14, 0)
	cfg := mac.DefaultAPConfig("a", 6)
	cfg.RespDelay = sim.Constant{V: 5 * time.Millisecond}
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: time.Hour}, // never answers in time
		AckLatency:   sim.Constant{V: time.Hour},
	}
	mac.NewAPAt(w.m, cfg, wifi.NewAddr(0, 1), geo.Point{X: 20}, 1)
	dcfg := singleChannelCfg(SingleChannelSingleAP, 6)
	pol := policyFor(dcfg.Mode)
	pol.holdDown = 20 * time.Second
	d := w.addDriverPolicy(dcfg, pol, geo.Static{P: geo.Point{}})
	w.k.Run(10 * time.Second)
	first := d.Stats().DHCPFailures
	if first == 0 {
		t.Fatalf("expected a DHCP failure (stats %+v)", d.Stats())
	}
	w.k.Run(15 * time.Second) // still inside hold-down
	if d.Stats().DHCPFailures != first {
		t.Fatalf("retried during hold-down: %d → %d", first, d.Stats().DHCPFailures)
	}
	w.k.Run(40 * time.Second) // past hold-down
	if d.Stats().DHCPFailures == first {
		t.Fatal("never retried after hold-down expired")
	}
}

func TestSwitchLatencyGrowsWithConnectedIfaces(t *testing.T) {
	// Table 1's shape: more connected interfaces → more PSM frames →
	// higher switch latency.
	lat := func(nAPs uint32) time.Duration {
		w := newWorld(20+int64(nAPs), 0)
		for i := uint32(1); i <= nAPs; i++ {
			w.addAP(i, "a", 6, geo.Point{X: float64(10 * i)})
		}
		cfg := SpiderDefaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 6}})
		d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
		w.k.Run(30 * time.Second)
		if d.ConnectedCount() != int(nAPs) {
			t.Fatalf("connected %d of %d", d.ConnectedCount(), nAPs)
		}
		// Force a manual switch to measure.
		l, n, ok := d.ForceSwitch(11)
		if !ok || n != int(nAPs) {
			t.Fatalf("forced switch: made %v, announced PSM to %d of %d", ok, n, nAPs)
		}
		w.k.Run(w.k.Now() + time.Second)
		return l
	}
	l0, l2, l4 := lat(0), lat(2), lat(4)
	if !(l0 < l2 && l2 < l4) {
		t.Fatalf("latency not increasing: %v %v %v", l0, l2, l4)
	}
	if l0 < 4*time.Millisecond || l0 > 6*time.Millisecond {
		t.Fatalf("bare switch latency %v, want ≈4.94ms", l0)
	}
}

// A switch's PSM announcements complete through the driver itself
// (TxDone, by the frames' switch generation), so a switch allocates
// nothing: no completion waiter per switch. The radio's queue and the
// frame pool are warm (a drained burst left them full) and nothing
// fires, so every round's announcements queue behind the last round's.
func TestSwitchWithPSMAnnouncementsAllocatesNothing(t *testing.T) {
	const runs = 100
	w := newWorld(21, 0)
	w.addAP(1, "a", 6, geo.Point{X: 10})
	w.addAP(2, "a", 6, geo.Point{X: 20})
	d := w.addDriver(SpiderDefaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 6}}), geo.Static{P: geo.Point{}})
	w.k.Run(30 * time.Second)
	if d.ConnectedCount() != 2 {
		t.Fatalf("connected %d of 2", d.ConnectedCount())
	}
	for i := 0; i < 2*(runs+1)+8; i++ {
		f := d.pool.Frame()
		f.Type, f.SA, f.DA = wifi.TypeNull, d.Addr(), wifi.Broadcast
		d.radio.Send(f)
	}
	w.k.Run(w.k.Now() + time.Second)
	fired := w.k.Fired()

	allocs := testing.AllocsPerRun(runs, func() { d.switchTo(11) })
	if allocs != 0 {
		t.Errorf("a switch announcing PSM to 2 APs allocated %.1f times per round", allocs)
	}
	if d.sc.SwOutstanding != 2 || w.k.Fired() != fired {
		t.Fatalf("%d announcements outstanding and %d events fired, want 2 and none", d.sc.SwOutstanding, w.k.Fired()-fired)
	}
}

func TestPSMAnnouncedOnSwitch(t *testing.T) {
	w := newWorld(15, 0)
	ap := w.addAP(1, "a", 6, geo.Point{X: 20})
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(300*time.Millisecond, 6, 11))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	// Find a moment where the driver is away on 11: the AP must believe
	// the client is in PSM.
	deadline := w.k.Now() + 2*time.Second
	for w.k.Now() < deadline {
		w.k.Run(w.k.Now() + 5*time.Millisecond)
		if d.radio.Channel() == 11 {
			break
		}
	}
	if d.radio.Channel() != 11 {
		t.Fatal("never away")
	}
	if !apEntry(t, ap, d.Addr()).PSM {
		t.Fatal("AP not told about PSM before switch")
	}
	// Downlink while away is buffered, then flushed when the driver
	// returns and sends PSM-off.
	ap.Deliver(d.Addr(), &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100})
	if len(apEntry(t, ap, d.Addr()).Buffer) != 1 {
		t.Fatal("frame not buffered while away")
	}
	w.k.Run(w.k.Now() + time.Second)
	if len(apEntry(t, ap, d.Addr()).Buffer) != 0 {
		t.Fatal("buffer not flushed on return")
	}
}

func TestAPTableScoring(t *testing.T) {
	good := &APRecord{Attempts: 10, Successes: 9, TotalJoin: 9 * time.Second}
	bad := &APRecord{Attempts: 10, Successes: 2, TotalJoin: 10 * time.Second}
	fresh := &APRecord{}
	if good.Score() <= bad.Score() {
		t.Fatal("good history not preferred")
	}
	if fresh.Score() <= 0 {
		t.Fatal("fresh AP should have optimistic score")
	}
	if good.AvgJoin() != time.Second || bad.AvgJoin() != 5*time.Second || fresh.AvgJoin() != 0 {
		t.Fatal("AvgJoin wrong")
	}
}

func TestAPTableCandidatesFilterAndOrder(t *testing.T) {
	tb := newAPTable()
	now := 100 * time.Second
	a := tb.observe(wifi.NewAddr(0, 1), "a", 6, now, false)
	a.Attempts, a.Successes, a.TotalJoin = 5, 5, 5*time.Second
	b := tb.observe(wifi.NewAddr(0, 2), "b", 6, now, false)
	b.Attempts, b.Successes, b.TotalJoin = 5, 1, 4*time.Second
	tb.observe(wifi.NewAddr(0, 3), "c", 11, now, false)                        // wrong channel
	stale := tb.observe(wifi.NewAddr(0, 4), "d", 6, now-10*time.Second, false) // stale
	_ = stale
	held := tb.observe(wifi.NewAddr(0, 5), "e", 6, now, false)
	held.HoldUntil = now + time.Minute
	got := tb.candidates(6, now, 2*time.Second, true)
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2", len(got))
	}
	if got[0].BSSID != a.BSSID {
		t.Fatal("history ordering wrong")
	}
	// Without history: recency ordering; a and b same LastSeen → BSSID tie-break.
	got = tb.candidates(6, now, 2*time.Second, false)
	if len(got) != 2 || got[0].BSSID != a.BSSID {
		t.Fatalf("stock ordering wrong: %v", got)
	}
}

func TestCachedLeaseExpiry(t *testing.T) {
	r := &APRecord{LeaseIP: 7, LeaseExpiry: 10 * time.Second}
	if r.CachedLease(5*time.Second) != 7 {
		t.Fatal("valid lease not returned")
	}
	if r.CachedLease(15*time.Second) != 0 {
		t.Fatal("expired lease returned")
	}
}

func TestModeStringsAndMultiAP(t *testing.T) {
	modes := []Mode{SingleChannelSingleAP, SingleChannelMultiAP, MultiChannelMultiAP, MultiChannelSingleAP, StockWiFi}
	for _, m := range modes {
		if m.String() == "" || m.String() == "unknown-mode" {
			t.Fatalf("mode %d has bad string", m)
		}
	}
	if !SingleChannelMultiAP.MultiAP() || SingleChannelSingleAP.MultiAP() || StockWiFi.MultiAP() {
		t.Fatal("MultiAP classification wrong")
	}
}

func TestConfigDefaultsClampSingleAP(t *testing.T) {
	cfg := Config{Mode: StockWiFi, MaxInterfaces: 7}.withDefaults()
	if cfg.MaxInterfaces != 1 {
		t.Fatalf("single-AP mode kept %d interfaces", cfg.MaxInterfaces)
	}
	if len(cfg.Schedule) == 0 {
		t.Fatal("no default schedule")
	}
}

func TestStockGlobalIdleAfterDHCPFail(t *testing.T) {
	// Stock behaviour: a failed DHCP window sulks for 60s — no joins to
	// ANY AP, even a perfectly good one that appears meanwhile.
	w := newWorld(31, 0)
	// AP 1: DHCP never answers.
	cfg := mac.DefaultAPConfig("a", 6)
	cfg.RespDelay = sim.Constant{V: 5 * time.Millisecond}
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: time.Hour},
		AckLatency:   sim.Constant{V: time.Hour},
	}
	mac.NewAPAt(w.m, cfg, wifi.NewAddr(0, 1), geo.Point{X: 20}, 1)
	dcfg := StockDefaults([]ChannelSlice{{Channel: 6}})
	d := w.addDriver(dcfg, geo.Static{P: geo.Point{}})
	w.k.Run(10 * time.Second)
	if d.Stats().DHCPFailures == 0 {
		t.Fatalf("no failure against dead DHCP (stats %+v)", d.Stats())
	}
	// A healthy AP shows up; the stock driver must ignore it during the
	// 60s idle.
	w.addAP(2, "a", 6, geo.Point{X: 25})
	attempts := d.Stats().AssocAttempts
	w.k.Run(40 * time.Second) // still inside the idle window
	if d.Stats().AssocAttempts != attempts {
		t.Fatal("stock driver joined during its 60s DHCP idle")
	}
	w.k.Run(120 * time.Second) // idle expired
	if d.Stats().AssocAttempts == attempts {
		t.Fatal("stock driver never recovered after the idle window")
	}
}

func TestTxQueueOverflowDrops(t *testing.T) {
	w := newWorld(32, 0)
	ap := w.addAP(1, "a", 6, geo.Point{X: 20})
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 6, 11))
	pol := policyFor(cfg.Mode)
	pol.txQueueFrames = 4
	d := w.addDriverPolicy(cfg, pol, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	// Reach a moment where the driver is away on 11, then flood uplink.
	deadline := w.k.Now() + 2*time.Second
	prev := d.radio.Channel()
	for w.k.Now() < deadline {
		w.k.Run(w.k.Now() + 5*time.Millisecond)
		cur := d.radio.Channel()
		if cur == 11 && prev != 11 {
			break
		}
		prev = cur
	}
	if d.radio.Channel() != 11 {
		t.Fatal("never away")
	}
	for i := 0; i < 10; i++ {
		d.Uplink(ap.Addr(), &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 10})
	}
	if d.Stats().TxQueueDrops != 6 {
		t.Fatalf("drops = %d, want 6 (queue of 4)", d.Stats().TxQueueDrops)
	}
}

func TestKnownAPsAccumulate(t *testing.T) {
	w := newWorld(33, 0)
	w.addAP(1, "a", 6, geo.Point{X: 20})
	w.addAP(2, "b", 6, geo.Point{X: 40})
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(5 * time.Second)
	if len(d.KnownAPs()) != 2 {
		t.Fatalf("known %d APs, want 2", len(d.KnownAPs()))
	}
}

// The scan table lists its records in BSSID order, not map order, so
// anything that prints or folds it is deterministic.
func TestKnownAPsInBSSIDOrder(t *testing.T) {
	w := newWorld(33, 0)
	for i, id := range []uint32{9, 3, 7, 1, 5, 8, 2} {
		w.addAP(id, "ap", 6, geo.Point{X: float64(10 + 5*i)})
	}
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(5 * time.Second)
	for try := 0; try < 5; try++ {
		recs := d.KnownAPs()
		if len(recs) != 7 {
			t.Fatalf("known %d APs, want 7", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if !recs[i-1].BSSID.Less(recs[i].BSSID) {
				t.Fatalf("KnownAPs not in BSSID order: %s before %s", recs[i-1].BSSID, recs[i].BSSID)
			}
		}
	}
}

func TestAirtimeAccounting(t *testing.T) {
	w := newWorld(34, 0)
	w.addAP(1, "a", 6, geo.Point{X: 20})
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(30 * time.Second)
	a := d.Airtime()
	if a.Tx <= 0 || a.Rx <= 0 {
		t.Fatalf("airtime not accumulating: %+v", a)
	}
	if a.Tx+a.Rx+a.Reset > 30*time.Second {
		t.Fatalf("airtime exceeds elapsed: %+v", a)
	}
}

func TestDriverDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, float64) {
		w := newWorld(77, 0.1)
		for i := uint32(1); i <= 3; i++ {
			w.addAP(i, "a", 6, geo.Point{X: float64(25 * i)})
		}
		d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 6), geo.Static{P: geo.Point{}})
		d.AttachObs(obs.New(0))
		w.k.Run(30 * time.Second)
		return d.Stats(), d.hJoin.Sum()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%+v, %gs of joins) vs (%+v, %gs)", a1, b1, a2, b2)
	}
}

// Property: candidate ranking is a total order — sorting twice or from
// any permutation yields the same sequence.
func TestPropertyCandidateOrderingStable(t *testing.T) {
	f := func(seeds []uint8) bool {
		tb := newAPTable()
		now := 100 * time.Second
		for i, b := range seeds {
			if i >= 12 {
				break
			}
			r := tb.observe(wifi.NewAddr(0, uint32(i)), "s", 6, now, false)
			r.Attempts = int(b % 7)
			r.Successes = int(b%7) / 2
			r.TotalJoin = time.Duration(b) * 100 * time.Millisecond
		}
		a := tb.candidates(6, now, 2*time.Second, true)
		b := tb.candidates(6, now, 2*time.Second, true)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].BSSID != b[i].BSSID {
				return false
			}
		}
		// Scores must be non-increasing down the ranking.
		for i := 1; i < len(a); i++ {
			if a[i].Score() > a[i-1].Score()+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseRenewalKeepsAssociationAlive(t *testing.T) {
	w := newWorld(51, 0)
	// Short lease: renewal must fire within the test horizon.
	cfg := mac.DefaultAPConfig("a", 6)
	cfg.RespDelay = sim.Constant{V: 5 * time.Millisecond}
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: 20 * time.Millisecond},
		AckLatency:   sim.Constant{V: 10 * time.Millisecond},
		LeaseDur:     20 * time.Second,
	}
	mac.NewAPAt(w.m, cfg, wifi.NewAddr(0, 1), geo.Point{X: 20}, 1)
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(90 * time.Second) // several T1 periods
	if d.ConnectedCount() != 1 {
		t.Fatalf("association lost (stats %+v)", d.Stats())
	}
	st := d.Stats()
	if st.Renewals < 3 {
		t.Fatalf("renewals = %d, want several over 90s with a 20s lease", st.Renewals)
	}
	if st.RenewalFailures != 0 {
		t.Fatalf("renewal failures: %d", st.RenewalFailures)
	}
	// Renewals must not pollute the join log.
	if st.JoinSuccesses != 1 {
		t.Fatalf("renewals counted as joins: %d", st.JoinSuccesses)
	}
}

func TestLeaseRenewalFailureTearsDown(t *testing.T) {
	w := newWorld(52, 0)
	cfg := mac.DefaultAPConfig("a", 6)
	cfg.RespDelay = sim.Constant{V: 5 * time.Millisecond}
	// Tiny pool with a tiny lease: by renewal time the server has expired
	// and reassigned state unpredictably — force a NAK by filling the pool
	// with a competing client after the join.
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: 20 * time.Millisecond},
		AckLatency:   sim.Constant{V: 10 * time.Millisecond},
		LeaseDur:     12 * time.Second,
		PoolSize:     1,
	}
	ap := mac.NewAPAt(w.m, cfg, wifi.NewAddr(0, 1), geo.Point{X: 20}, 1)
	d := w.addDriver(singleChannelCfg(SingleChannelSingleAP, 6), geo.Static{P: geo.Point{}})
	w.k.Run(4 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("never connected (stats %+v)", d.Stats())
	}
	// The router "reboots": the lease database is wiped and another
	// station claims the single pool address before the next renewal.
	thief := wifi.NewAddr(3, 9)
	w.k.At(7*time.Second, func() {
		srv := ap.DHCPServer()
		srv.Reset()
		srv.HandleMessage(&dhcp.Message{Op: dhcp.Request, XID: 77, ClientMAC: thief,
			YourIP: dhcp.DefaultServerConfig(0).PoolStart})
	})
	w.k.Run(60 * time.Second)
	st := d.Stats()
	if st.Renewals == 0 {
		t.Fatalf("no renewal attempted (stats %+v)", st)
	}
	if st.RenewalFailures == 0 {
		t.Fatalf("conflicted renewal never failed (stats %+v)", st)
	}
	// The driver recovers with a clean rejoin afterwards.
	if d.ConnectedCount() != 1 && st.JoinSuccesses <= 1 {
		t.Fatalf("never recovered after the reboot (stats %+v)", st)
	}
}

// Every join attempt allocates an Iface, so its size decides how much
// a join storm allocates. 384 bytes is a malloc size class; one byte
// more costs the next class, 416.
func TestIfaceSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Iface{}); got > 384 {
		t.Fatalf("Iface is %d bytes, want at most 384", got)
	}
}

// Every client builds a driver, so its size decides a metro's resident
// heap. The inline interface scratch fits because the timers are a
// pointer to the mode's shared policy: the driver stays within the
// 896-byte malloc size class it had without either.
func TestDriverSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Driver{}); got > 896 {
		t.Fatalf("Driver is %d bytes, want at most 896", got)
	}
}
