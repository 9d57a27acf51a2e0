package radio

// Equivalence tests for the spatial index: the indexed medium must be
// observationally identical to the retained linear scan — same frames
// delivered to the same radios in the same order, same stats, same RNG
// draw sequence — because the index is a pure candidate pre-filter.
// These tests script identical traffic onto a linear and an indexed
// medium built from the same seed and diff the full delivery logs.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// logRx records every delivery with its virtual time, so two runs can
// be diffed for order as well as content.
type logRx struct {
	k   *sim.Kernel
	id  int
	log *[]string
}

func (l *logRx) RadioReceive(f *wifi.Frame) {
	*l.log = append(*l.log, fmt.Sprintf("%v rx=%d type=%v sa=%v da=%v", l.k.Now(), l.id, f.Type, f.SA, f.DA))
}

func (*logRx) TxDone(TxTag, bool) {}

// buildScriptedWorld populates a medium with a deterministic mix of
// static and mobile radios, a few of them promiscuous, and returns them
// with the shared delivery log.
func buildScriptedWorld(linear bool) (*sim.Kernel, *Medium, []*Radio, *[]string) {
	cfg := Defaults()
	cfg.Loss = 0.15 // exercise the loss RNG so draw order matters
	k := sim.NewKernel(11)
	m := NewMedium(k, cfg)
	if linear {
		UseLinearScan(m)
	}
	log := &[]string{}
	var radios []*Radio
	rng := rand.New(rand.NewSource(99)) // placement only; shared by both runs
	for i := 0; i < 40; i++ {
		addr := wifi.NewAddr(2, uint32(i))
		rx := &logRx{k: k, id: i, log: log}
		var r *Radio
		if i%3 == 0 {
			// Mobile: drifts east at 5 m/s from a scattered origin.
			ox, oy := rng.Float64()*800, rng.Float64()*800
			r = m.NewRadio(addr, unbounded(func(t time.Duration) geo.Point {
				return geo.Point{X: ox + 5*t.Seconds(), Y: oy}
			}), rx)
		} else {
			r = m.NewStaticRadio(addr, geo.Point{X: rng.Float64() * 800, Y: rng.Float64() * 800}, rx)
		}
		r.SetChannel([]int{1, 6, 11}[i%3])
		r.SetPromiscuous(i%20 == 0)
		radios = append(radios, r)
	}
	return k, m, radios, log
}

// runScript drives the same traffic pattern on any medium: periodic
// broadcasts, unicasts to random peers (including off-channel and
// far-away ones, so the MissedAway/OutOfRange paths execute), periodic
// retunes, and toggles of radios 0 and 20 in and out of promiscuous
// reception, so that unicasts are resolved both by address (no radio
// promiscuous) and by walking the neighborhood. It returns how many
// unicasts it sent in each of those two states.
func runScript(k *sim.Kernel, radios []*Radio) (byAddr, walked int) {
	rng := rand.New(rand.NewSource(7)) // scripted traffic; same for both runs
	m := radios[0].m
	var step func()
	step = func() {
		src := radios[rng.Intn(len(radios))]
		if rng.Intn(5) == 0 {
			src.SetChannel([]int{1, 6, 11}[rng.Intn(3)])
		}
		if rng.Intn(4) == 0 {
			r := radios[20*rng.Intn(2)]
			r.SetPromiscuous(!r.promiscuous)
		}
		if rng.Intn(3) == 0 {
			src.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: src.Addr(), DA: wifi.Broadcast,
				Body: &wifi.BeaconBody{Channel: uint8(src.Channel())}})
		} else {
			dst := radios[rng.Intn(len(radios))]
			if dst != src {
				src.Send(&wifi.Frame{Type: wifi.TypeData, SA: src.Addr(), DA: dst.Addr(),
					Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 200}})
				if m.promiscuous == 0 {
					byAddr++
				} else {
					walked++
				}
			}
		}
		if k.Now() < 10*time.Second {
			k.After(time.Duration(1+rng.Intn(20))*time.Millisecond, step)
		}
	}
	k.After(0, step)
	k.Run(10 * time.Second)
	return byAddr, walked
}

func TestIndexedMediumMatchesLinearScan(t *testing.T) {
	kL, mL, radiosL, logL := buildScriptedWorld(true)
	kI, mI, radiosI, logI := buildScriptedWorld(false)
	if !Indexed(mI) || Indexed(mL) {
		t.Fatal("UseLinearScan did not switch the reference medium")
	}
	runScript(kL, radiosL)
	byAddr, walked := runScript(kI, radiosI)

	if len(*logL) == 0 {
		t.Fatal("script delivered nothing; test is vacuous")
	}
	if byAddr < 100 || walked < 100 {
		t.Fatalf("unicasts resolved by address %d, by walk %d: the script must exercise both", byAddr, walked)
	}
	if len(*logL) != len(*logI) {
		t.Fatalf("delivery counts differ: linear=%d indexed=%d", len(*logL), len(*logI))
	}
	for i := range *logL {
		if (*logL)[i] != (*logI)[i] {
			t.Fatalf("delivery %d differs:\n  linear:  %s\n  indexed: %s", i, (*logL)[i], (*logI)[i])
		}
	}
	if mL.Stats() != mI.Stats() {
		t.Fatalf("medium stats differ:\n  linear:  %+v\n  indexed: %+v", mL.Stats(), mI.Stats())
	}
	for i := range radiosL {
		if radiosL[i].AirtimeStats() != radiosI[i].AirtimeStats() {
			t.Fatalf("airtime stats differ for radio %d", i)
		}
	}
}

// TestMixedMobilesMatchLinearScan runs the scripted traffic over a small
// and a large world whose mobiles are of both kinds, speed-bounded
// (placed by within from a stale sample when the bound decides) and
// unbounded (always sampled), beside the statics. Indexed delivery must
// merge the statics and both kinds of mobile into the linear scan's order.
func TestMixedMobilesMatchLinearScan(t *testing.T) {
	build := func(n int, linear bool) (*sim.Kernel, *Medium, []*Radio, *[]string) {
		cfg := Defaults()
		cfg.Loss = 0.15
		k := sim.NewKernel(12)
		m := NewMedium(k, cfg)
		if linear {
			UseLinearScan(m)
		}
		log := &[]string{}
		var radios []*Radio
		rng := rand.New(rand.NewSource(98))
		for i := 0; i < n; i++ {
			addr := wifi.NewAddr(2, uint32(i))
			rx := &logRx{k: k, id: i, log: log}
			ox, oy := rng.Float64()*800, rng.Float64()*800
			var r *Radio
			if i%2 == 0 {
				v := 5.0
				if i%8 == 0 {
					v = -1
				}
				r = m.NewRadio(addr, track{func(t time.Duration) geo.Point {
					return geo.Point{X: ox + 5*t.Seconds(), Y: oy}
				}, v}, rx)
			} else {
				r = m.NewStaticRadio(addr, geo.Point{X: ox, Y: oy}, rx)
			}
			r.SetChannel([]int{1, 6, 11}[i%3])
			radios = append(radios, r)
		}
		return k, m, radios, log
	}
	for _, n := range []int{60, 300} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			kL, mL, radiosL, logL := build(n, true)
			kI, mI, radiosI, logI := build(n, false)
			runScript(kL, radiosL)
			runScript(kI, radiosI)
			if len(*logL) == 0 || !slices.Equal(*logL, *logI) {
				t.Fatalf("delivery logs differ (linear %d entries, indexed %d)", len(*logL), len(*logI))
			}
			if mL.Stats() != mI.Stats() {
				t.Fatalf("medium stats differ:\n  linear:  %+v\n  indexed: %+v", mL.Stats(), mI.Stats())
			}
		})
	}
}

func TestIndexedChannelBusyMatchesLinear(t *testing.T) {
	kL, mL, radiosL, _ := buildScriptedWorld(true)
	kI, mI, radiosI, _ := buildScriptedWorld(false)
	// Sample channelBusyUntil mid-transmission on both.
	var busyL, busyI []time.Duration
	sample := func(k *sim.Kernel, m *Medium, out *[]time.Duration) func() {
		return func() {
			for _, ch := range []int{1, 6, 11} {
				*out = append(*out, channelBusyUntil(m, ch))
			}
		}
	}
	for _, at := range []time.Duration{time.Second, 3 * time.Second, 7 * time.Second} {
		kL.At(at, sample(kL, mL, &busyL))
		kI.At(at, sample(kI, mI, &busyI))
	}
	runScript(kL, radiosL)
	runScript(kI, radiosI)
	for i := range busyL {
		if busyL[i] != busyI[i] {
			t.Fatalf("channel busy-until sample %d differs: linear=%v indexed=%v", i, busyL[i], busyI[i])
		}
	}
}

// TestIndexTracksRetunes verifies the registry moves a static radio
// between per-channel structures on SetChannel/Retune, and that a radio
// tuned away is no longer a delivery candidate.
func TestIndexTracksRetunes(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Config{Range: 100, Loss: 0, EdgeStart: 1, DataRetryLimit: 0}
	m := NewMedium(k, cfg)
	var got []*wifi.Frame
	a := m.NewStaticRadio(wifi.NewAddr(3, 1), geo.Point{}, ReceiverFunc(func(f *wifi.Frame) {}))
	b := m.NewStaticRadio(wifi.NewAddr(3, 2), geo.Point{X: 50}, ReceiverFunc(func(f *wifi.Frame) {
		got = append(got, f)
	}))
	a.SetChannel(6)
	b.SetChannel(6)
	send := func() {
		a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}})
	}
	send()
	k.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("on-channel delivery failed: %d frames", len(got))
	}
	b.SetChannel(11)
	send()
	k.Run(2 * time.Second)
	if len(got) != 1 {
		t.Fatal("off-channel radio still received after retune")
	}
	if m.Stats().MissedAway == 0 {
		t.Fatal("MissedAway not counted through the byAddr union")
	}
	b.SetChannel(6)
	send()
	k.Run(3 * time.Second)
	if len(got) != 2 {
		t.Fatal("radio not re-indexed after retuning back")
	}
}

// TestRetiredAddressReRegistered pins delivery to an address carried by
// two radios, as when a shard tile re-adopts a client that migrated away:
// the first radio is retired (channel 0), a second is registered under
// the same address in range of the sender. A unicast to the address must
// reach the live radio once and count one MissedAway for the retired one,
// on the indexed and the linear medium alike.
func TestRetiredAddressReRegistered(t *testing.T) {
	for _, linear := range []bool{false, true} {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1})
		if linear {
			UseLinearScan(m)
		}
		addr := wifi.NewAddr(3, 7)
		retired := m.NewRadio(addr, fixed(40, 0), ReceiverFunc(func(*wifi.Frame) {
			t.Error("retired radio received")
		}))
		retired.SetChannel(6)
		retired.SetChannel(0)
		tx := m.NewStaticRadio(wifi.NewAddr(3, 1), geo.Point{}, ReceiverFunc(func(*wifi.Frame) {}))
		tx.SetChannel(6)
		got := 0
		live := m.NewRadio(addr, fixed(50, 0), ReceiverFunc(func(*wifi.Frame) { got++ }))
		live.SetChannel(6)
		tx.Send(&wifi.Frame{Type: wifi.TypeData, SA: tx.Addr(), DA: addr,
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}})
		k.Run(time.Second)
		if st := m.Stats(); got != 1 || st.Delivered != 1 || st.MissedAway != 1 || st.Retries != 0 {
			t.Fatalf("linear=%v: live radio received %d frames, stats %+v; want 1 delivery and 1 MissedAway",
				linear, got, st)
		}
	}
}

// TestPromiscuousFromUpcall pins the one documented difference between
// the media: a bystander switched to promiscuous reception inside the
// addressed radio's receive upcall, while no radio was promiscuous. The
// linear scan reaches the later-registered bystander after the upcall, so
// it overhears that frame and the next; the indexed medium resolved the
// first frame's receivers by address before the upcall, so the bystander
// hears from the next frame on.
func TestPromiscuousFromUpcall(t *testing.T) {
	for _, linear := range []bool{false, true} {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 100, Loss: 0, EdgeStart: 1})
		if linear {
			UseLinearScan(m)
		}
		var bystander *Radio
		tx := m.NewStaticRadio(wifi.NewAddr(3, 1), geo.Point{}, ReceiverFunc(func(*wifi.Frame) {}))
		dst := m.NewStaticRadio(wifi.NewAddr(3, 2), geo.Point{X: 10}, ReceiverFunc(func(*wifi.Frame) {
			bystander.SetPromiscuous(true)
		}))
		overheard := 0
		bystander = m.NewStaticRadio(wifi.NewAddr(3, 3), geo.Point{X: 20}, ReceiverFunc(func(*wifi.Frame) {
			overheard++
		}))
		for _, r := range []*Radio{tx, dst, bystander} {
			r.SetChannel(6)
		}
		for i := 0; i < 2; i++ {
			tx.Send(&wifi.Frame{Type: wifi.TypeData, SA: tx.Addr(), DA: dst.Addr(),
				Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}})
		}
		k.Run(time.Second)
		want := 1
		if linear {
			want = 2
		}
		if st := m.Stats(); overheard != want || st.Delivered != 2+uint64(want) {
			t.Fatalf("linear=%v: bystander overheard %d of 2 frames, want %d; stats %+v", linear, overheard, want, st)
		}
	}
}

// BenchmarkMediumBroadcast measures one broadcast into a dense static
// deployment — the medium's hot path — with the spatial index against
// the linear scan. APs cover a 3×3 km grid; only the handful in range
// should pay per-frame work on the indexed path.
func BenchmarkMediumBroadcast(b *testing.B) {
	benchDenseDeployment(b, func(tx, _ *Radio) *wifi.Frame {
		return &wifi.Frame{Type: wifi.TypeBeacon, SA: tx.Addr(), DA: wifi.Broadcast,
			Body: &wifi.BeaconBody{Channel: 6}}
	})
}

// BenchmarkMediumDenseUnicast measures one unicast into the same
// deployment, addressed to the AP nearest the sender on its channel: the
// common frame of a loaded network, which the indexed medium resolves by
// address.
func BenchmarkMediumDenseUnicast(b *testing.B) {
	benchDenseDeployment(b, func(tx, nearest *Radio) *wifi.Frame {
		return &wifi.Frame{Type: wifi.TypeData, SA: tx.Addr(), DA: nearest.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 200}}
	})
}

// benchDenseDeployment times sending frame(tx, nearest) once per
// iteration, indexed and linear, from a channel-6 station at the center
// of 1,000 lossless APs scattered over 3×3 km on channels 1, 6 and 11;
// nearest is the channel-6 AP closest to the sender, within range.
func benchDenseDeployment(b *testing.B, frame func(tx, nearest *Radio) *wifi.Frame) {
	for _, v := range []struct {
		name   string
		linear bool
	}{{"indexed", false}, {"linear", true}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := Defaults()
			cfg.Loss = 0
			cfg.EdgeStart = 1
			k := sim.NewKernel(1)
			m := NewMedium(k, cfg)
			if v.linear {
				UseLinearScan(m)
			}
			rng := rand.New(rand.NewSource(4))
			txPos := geo.Point{X: 1500, Y: 1500}
			var nearest *Radio
			for i := 0; i < 1000; i++ {
				r := m.NewStaticRadio(wifi.NewAddr(4, uint32(i)),
					geo.Point{X: rng.Float64() * 3000, Y: rng.Float64() * 3000},
					ReceiverFunc(func(*wifi.Frame) {}))
				r.SetChannel([]int{1, 6, 11}[i%3])
				if r.Channel() == 6 && (nearest == nil || txPos.DistSq(r.position()) < txPos.DistSq(nearest.position())) {
					nearest = r
				}
			}
			if txPos.DistSq(nearest.position()) > cfg.Range*cfg.Range {
				b.Fatalf("nearest channel-6 AP is %.0f m away, beyond range", txPos.Dist(nearest.position()))
			}
			tx := m.NewStaticRadio(wifi.NewAddr(5, 1), txPos, ReceiverFunc(func(*wifi.Frame) {}))
			tx.SetChannel(6)
			f := frame(tx, nearest)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Send(f)
				k.Run(k.Now() + 10*time.Millisecond)
			}
		})
	}
}

// TestStaticGridMatchesBruteForce is a property test of the static CSR
// grid: on random layouts (negative coordinates included), with statics
// added and retuned between queries so the grid rebuilds, every query
// rectangle — inside the grid's box, straddling it or wholly outside it,
// as halo ghost frames produce — must walk exactly the statics a
// brute-force filter of the registry by cellOf finds, in row-major cell
// order with registration order within a cell.
func TestStaticGridMatchesBruteForce(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		m := NewMedium(k, Defaults())
		ix := m.idx
		channels := []int{0, 1, 6, 11}
		var statics []*Radio
		addStatic := func() {
			r := m.NewStaticRadio(wifi.NewAddr(7, uint32(len(m.radios))),
				geo.Point{X: rng.Float64()*3000 - 1500, Y: rng.Float64()*3000 - 2000},
				ReceiverFunc(func(*wifi.Frame) {}))
			r.SetChannel(channels[rng.Intn(len(channels))])
			statics = append(statics, r)
		}
		for i := 0; i < 50+rng.Intn(250); i++ {
			addStatic()
		}
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0:
				addStatic()
			case 1:
				statics[rng.Intn(len(statics))].SetChannel(channels[rng.Intn(len(channels))])
			default:
				cx, cy := int32(rng.Intn(24)-14), int32(rng.Intn(24)-16)
				lo := cellKey{cx, cy}
				hi := cellKey{cx + int32(rng.Intn(5)), cy + int32(rng.Intn(5))}
				for ch := 1; ch <= 11; ch++ { // channels 2–5 and 7–10 stay empty
					var want, wantRows, got []*Radio
					for _, r := range m.radios {
						c := ix.cellOf(r.position())
						if r.channel == ch && c.cx >= lo.cx && c.cx <= hi.cx && c.cy >= lo.cy && c.cy <= hi.cy {
							want = append(want, r)
						}
					}
					for y := lo.cy; y <= hi.cy; y++ {
						for x := lo.cx; x <= hi.cx; x++ {
							for _, r := range want {
								if ix.cellOf(r.position()) == (cellKey{x, y}) {
									wantRows = append(wantRows, r)
								}
							}
						}
					}
					found += len(want)
					ix.walk(ch, lo, hi, func(run []*Radio) { got = append(got, run...) })
					if !slices.Equal(got, wantRows) {
						t.Fatalf("seed %d step %d ch %d [%v, %v]: walk visited %v, want %v",
							seed, step, ch, lo, hi, regIdxs(got), regIdxs(wantRows))
					}
				}
			}
		}
	}
	if found < 1000 {
		t.Fatalf("queries found only %d statics in all; the test is nearly vacuous", found)
	}
}

func regIdxs(rs []*Radio) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.regIdx
	}
	return out
}
